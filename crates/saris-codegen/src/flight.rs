//! Compute each key once, share the answer with concurrent callers,
//! keep a bounded set: the single-flight [`Table`] under a
//! [`Session`](crate::Session)'s kernels and `saris-serve`'s responses.
//! A key is *running* (a [`Flight`] its leader completes and others
//! join), *cached*, or absent. The table is plain data: its owner takes
//! each step under its one state lock, and computes and completes
//! flights outside it. Eviction is GreedyDual over each answer's
//! recompute cost — at a uniform cost, exactly LRU.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Recovers a poisoned lock result, clearing the flag and counting it
/// once. Sound because no owner runs caller code under its lock.
fn recover<'a, T>(
    mutex: &Mutex<T>,
    locked: LockResult<MutexGuard<'a, T>>,
    recovered: &AtomicU64,
) -> MutexGuard<'a, T> {
    locked.unwrap_or_else(|poisoned| {
        recovered.fetch_add(1, Ordering::Relaxed);
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// Locks `mutex`, recovering from poisoning (counted in `recovered`).
pub fn relock<'a, T>(mutex: &'a Mutex<T>, recovered: &AtomicU64) -> MutexGuard<'a, T> {
    recover(mutex, mutex.lock(), recovered)
}

/// Blocks on `condvar` until signaled or `deadline` (`None`: never),
/// recovering poison as [`relock`] does. Returns the guard and whether
/// the deadline had passed; callers re-check for spurious wakeups.
pub fn wait_until<'a, T>(
    condvar: &Condvar,
    mutex: &Mutex<T>,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
    recovered: &AtomicU64,
) -> (MutexGuard<'a, T>, bool) {
    let Some(deadline) = deadline else {
        return (recover(mutex, condvar.wait(guard), recovered), false);
    };
    let now = Instant::now();
    if now >= deadline {
        return (guard, true);
    }
    let waited = condvar
        .wait_timeout(guard, deadline - now)
        .map(|(guard, _timed_out)| guard)
        .map_err(|poisoned| PoisonError::new(poisoned.into_inner().0));
    (recover(mutex, waited, recovered), false)
}

/// A completion callback registered with [`Flight::on_complete`].
pub type Callback<T> = Box<dyn FnOnce(T) + Send>;

/// One computation in progress: joined callers wait for, poll, or
/// register a callback on the result its leader completes it with.
pub struct Flight<T> {
    /// The result once published, and the callbacks waiting for it.
    slot: Mutex<(Option<T>, Vec<Callback<T>>)>,
    done: Condvar,
}

impl<T> Default for Flight<T> {
    fn default() -> Flight<T> {
        Flight {
            slot: Mutex::default(),
            done: Condvar::new(),
        }
    }
}

impl<T: Clone> Flight<T> {
    /// Publishes the result, wakes every waiter, and runs every
    /// callback with a clone of it, unlocked and each isolated: one that
    /// panics costs neither the others nor this thread. Returns how many
    /// panicked.
    pub fn complete(&self, result: T, recovered: &AtomicU64) -> u64 {
        let callbacks = {
            let mut slot = relock(&self.slot, recovered);
            slot.0 = Some(result.clone());
            self.done.notify_all();
            std::mem::take(&mut slot.1)
        };
        let mut panicked = 0;
        for callback in callbacks {
            let result = result.clone();
            panicked += u64::from(catch_unwind(AssertUnwindSafe(|| callback(result))).is_err());
        }
        panicked
    }

    /// The result, if the flight has completed.
    pub fn poll(&self, recovered: &AtomicU64) -> Option<T> {
        relock(&self.slot, recovered).0.clone()
    }

    /// Registers `callback` to run on completion — or runs it right here
    /// when the flight has already completed.
    pub fn on_complete(&self, callback: Callback<T>, recovered: &AtomicU64) {
        let mut slot = relock(&self.slot, recovered);
        if let Some(result) = slot.0.clone() {
            drop(slot);
            callback(result);
        } else {
            slot.1.push(callback);
        }
    }

    /// Waits for the result, up to `deadline` (`None`: unbounded).
    /// `None` means the wait timed out; the flight goes on.
    pub fn wait_until(&self, deadline: Option<Instant>, recovered: &AtomicU64) -> Option<T> {
        let mut slot = relock(&self.slot, recovered);
        loop {
            if let Some(result) = &slot.0 {
                return Some(result.clone());
            }
            let (guard, expired) = wait_until(&self.done, &self.slot, slot, deadline, recovered);
            if expired {
                return None;
            }
            slot = guard;
        }
    }
}

struct Cached<V> {
    value: V,
    cost: f64,
    /// GreedyDual priority: the floor when last touched, plus `cost`.
    priority: f64,
    /// Logical touch tick: the tie-breaker among equal priorities.
    last_used: u64,
}

enum Row<V, T> {
    Running(Arc<Flight<T>>),
    Cached(Cached<V>),
}

/// What [`Table::lookup`] found for a key.
pub enum Lookup<'a, V, T> {
    /// A cached answer (its priority and recency refreshed) and its
    /// recompute cost.
    Hit(&'a mut V, f64),
    /// The flight computing the key right now.
    Join(Arc<Flight<T>>),
    /// Neither: the caller may [`lead`](Table::lead) the key.
    Miss,
}

/// The single-flight table (see the module docs): `V` is a cached
/// answer, `T` what a flight's waiters receive.
pub struct Table<K, V, T> {
    rows: HashMap<K, Row<V, T>>,
    /// Cached rows in `rows`.
    cached: usize,
    /// The priority of the last eviction. It only rises, so a row
    /// untouched for long falls below newly touched ones whatever its
    /// cost.
    floor: f64,
    tick: u64,
}

impl<K, V, T> Default for Table<K, V, T> {
    fn default() -> Table<K, V, T> {
        Table {
            rows: HashMap::new(),
            cached: 0,
            floor: 0.0,
            tick: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V, T> Table<K, V, T> {
    /// Finds `key`'s row, refreshing a cached one's priority and recency.
    pub fn lookup(&mut self, key: &K) -> Lookup<'_, V, T> {
        match self.rows.get_mut(key) {
            Some(Row::Cached(cached)) => {
                self.tick += 1;
                cached.priority = self.floor + cached.cost;
                cached.last_used = self.tick;
                Lookup::Hit(&mut cached.value, cached.cost)
            }
            Some(Row::Running(flight)) => Lookup::Join(Arc::clone(flight)),
            None => Lookup::Miss,
        }
    }

    /// Enters `key`, which [`lookup`](Table::lookup) just missed, as
    /// running; its leader owes the table a [`settle`](Table::settle) or
    /// an [`abandon`](Table::abandon), and the flight a result.
    pub fn lead(&mut self, key: K) -> Arc<Flight<T>> {
        let flight = Arc::new(Flight::default());
        self.rows.insert(key, Row::Running(Arc::clone(&flight)));
        flight
    }

    /// Settles the running `key`: cached at `answer`'s cost when there
    /// is an answer and `cap` keeps any, abandoned otherwise. Returns how
    /// many cached rows were evicted to stay within `cap`.
    pub fn settle(&mut self, key: &K, answer: Option<(V, f64)>, cap: usize) -> u64 {
        match (answer, self.rows.get_mut(key)) {
            (Some((value, cost)), Some(row @ Row::Running(_))) if cap > 0 => {
                self.tick += 1;
                *row = Row::Cached(Cached {
                    value,
                    cost,
                    priority: self.floor + cost,
                    last_used: self.tick,
                });
                self.cached += 1;
                self.evict(cap)
            }
            _ => {
                self.abandon(key);
                0
            }
        }
    }

    /// Takes the running `key` out; a cached row stays.
    pub fn abandon(&mut self, key: &K) {
        if matches!(self.rows.get(key), Some(Row::Running(_))) {
            self.rows.remove(key);
        }
    }

    fn evict(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.cached > cap {
            let (victim, priority) = self
                .rows
                .iter()
                .filter_map(|(key, row)| match row {
                    Row::Cached(cached) => Some((key, cached)),
                    Row::Running(_) => None,
                })
                .min_by(|(_, a), (_, b)| {
                    a.priority
                        .total_cmp(&b.priority)
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(key, cached)| (key.clone(), cached.priority))
                .expect("`cached` counts the cached rows");
            self.rows.remove(&victim);
            self.cached -= 1;
            self.floor = self.floor.max(priority);
            evicted += 1;
        }
        evicted
    }

    /// Cached rows.
    pub fn cached(&self) -> usize {
        self.cached
    }

    /// `key`'s flight, while it is running.
    pub fn flight(&self, key: &K) -> Option<&Arc<Flight<T>>> {
        match self.rows.get(key)? {
            Row::Running(flight) => Some(flight),
            Row::Cached(_) => None,
        }
    }

    /// Every row: its key, and its answer when cached.
    pub fn rows(&self) -> impl Iterator<Item = (&K, Option<&V>)> {
        self.rows.iter().map(|(key, row)| match row {
            Row::Cached(cached) => (key, Some(&cached.value)),
            Row::Running(_) => (key, None),
        })
    }
}

/// A leader's duty for `key`, led in the table `table` projects out of
/// `state`: settle the row, then [`complete`](Lead::complete). Dropped
/// before that — an error return, an unwinding leader — it abandons the
/// row and completes the flight with `T::default()`, the retry signal.
pub(crate) struct Lead<'a, S, K: Eq + Hash + Clone, V, T: Clone + Default> {
    pub state: &'a Mutex<S>,
    pub recovered: &'a AtomicU64,
    pub table: fn(&mut S) -> &mut Table<K, V, T>,
    pub key: K,
    pub flight: Option<Arc<Flight<T>>>,
}

impl<S, K: Eq + Hash + Clone, V, T: Clone + Default> Lead<'_, S, K, V, T> {
    /// Completes the flight with `result`, once its row is settled.
    pub fn complete(mut self, result: T) {
        if let Some(flight) = self.flight.take() {
            flight.complete(result, self.recovered);
        }
    }
}

impl<S, K: Eq + Hash + Clone, V, T: Clone + Default> Drop for Lead<'_, S, K, V, T> {
    fn drop(&mut self) {
        if let Some(flight) = self.flight.take() {
            (self.table)(&mut relock(self.state, self.recovered)).abandon(&self.key);
            flight.complete(T::default(), self.recovered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    type Kernels = Table<u64, u64, Option<u64>>;

    fn itself(table: &mut Kernels) -> &mut Kernels {
        table
    }

    /// Lookups, leads, settles (answered or failed) and abandons over 16
    /// keys with room for 4, at uniform cost, checked after every step
    /// against a plain LRU list: the kernel cache's eviction order.
    #[test]
    fn seeded_walk_at_uniform_cost_is_exactly_lru() {
        const KEYS: u64 = 16;
        const CAP: usize = 4;
        let mut rng = saris_core::rng::SplitMix64::new(0x5EED);
        let mut table = Kernels::default();
        // The model: cached keys, least recently used first, and the
        // flights the walk leads.
        let mut lru: VecDeque<u64> = VecDeque::new();
        let mut led: Vec<(u64, Arc<Flight<Option<u64>>>)> = Vec::new();
        let (mut hits, mut joins, mut evictions, mut dropped) = (0, 0, 0, 0);
        for _ in 0..10_000 {
            let r = rng.next_u64();
            let key = (r >> 32) % KEYS;
            let pick = (r >> 16) as usize;
            match r % 8 {
                0..=3 => match table.lookup(&key) {
                    Lookup::Hit(value, cost) => {
                        assert_eq!((*value, cost), (key * 10, 1.0));
                        let at = lru.iter().position(|k| *k == key).expect("model caches it");
                        lru.remove(at);
                        lru.push_back(key);
                        hits += 1;
                    }
                    Lookup::Join(flight) => {
                        assert!(led
                            .iter()
                            .any(|(k, f)| *k == key && Arc::ptr_eq(f, &flight)));
                        joins += 1;
                    }
                    Lookup::Miss => {
                        assert!(!lru.contains(&key) && led.iter().all(|(k, _)| *k != key));
                        led.push((key, table.lead(key)));
                    }
                },
                4 | 5 if !led.is_empty() => {
                    let (key, _) = led.swap_remove(pick % led.len());
                    let evicted = table.settle(&key, Some((key * 10, 1.0)), CAP);
                    lru.push_back(key);
                    let beyond = lru.len().saturating_sub(CAP);
                    lru.drain(..beyond);
                    assert_eq!(evicted, beyond as u64);
                    evictions += evicted;
                }
                6 | 7 if !led.is_empty() => {
                    let (key, _) = led.swap_remove(pick % led.len());
                    if r & (1 << 8) == 0 {
                        assert_eq!(table.settle(&key, None, CAP), 0);
                    } else {
                        table.abandon(&key);
                    }
                    dropped += 1;
                }
                _ => {}
            }
            let mut cached: Vec<u64> = table
                .rows()
                .filter(|(_, v)| v.is_some())
                .map(|(k, _)| *k)
                .collect();
            cached.sort_unstable();
            let mut model: Vec<u64> = lru.iter().copied().collect();
            model.sort_unstable();
            assert_eq!(cached, model);
            assert_eq!(table.cached(), lru.len());
            for k in 0..KEYS {
                let mine = led.iter().find(|(key, _)| *key == k).map(|(_, f)| f);
                match (table.flight(&k), mine) {
                    (Some(row), Some(flight)) => assert!(Arc::ptr_eq(row, flight)),
                    (row, flight) => assert!(row.is_none() && flight.is_none(), "key {k}"),
                }
            }
        }
        for (path, count) in [
            ("hits", hits),
            ("joins", joins),
            ("evictions", evictions),
            ("drops", dropped),
        ] {
            assert!(count > 0, "the walk never reached {path}");
        }
    }

    fn lead<'a>(
        state: &'a Mutex<Kernels>,
        recovered: &'a AtomicU64,
        key: u64,
    ) -> Lead<'a, Kernels, u64, u64, Option<u64>> {
        let flight = state.lock().unwrap().lead(key);
        Lead {
            state,
            recovered,
            table: itself,
            key,
            flight: Some(flight),
        }
    }

    #[test]
    fn a_dropped_leader_leaves_no_running_row_and_signals_retry() {
        let (state, recovered) = (Mutex::new(Kernels::default()), AtomicU64::new(0));
        let lead = lead(&state, &recovered, 7);
        let Lookup::Join(joined) = state.lock().unwrap().lookup(&7) else {
            panic!("a running key is joined");
        };
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _lead = lead;
            panic!("the compile unwinds");
        }));
        assert!(unwound.is_err());
        let mut table = state.lock().unwrap();
        assert!(table.rows().next().is_none(), "no running row is left");
        assert!(matches!(table.lookup(&7), Lookup::Miss));
        assert_eq!(joined.poll(&recovered), Some(None), "the retry signal");
        assert_eq!(recovered.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_settled_leader_keeps_its_row_and_hands_waiters_its_answer() {
        let (state, recovered) = (Mutex::new(Kernels::default()), AtomicU64::new(0));
        let lead = lead(&state, &recovered, 7);
        let Lookup::Join(joined) = state.lock().unwrap().lookup(&7) else {
            panic!("a running key is joined");
        };
        assert_eq!(state.lock().unwrap().settle(&7, Some((70, 1.0)), 4), 0);
        lead.complete(Some(70));
        assert_eq!(joined.poll(&recovered), Some(Some(70)));
        let mut table = state.lock().unwrap();
        assert!(matches!(table.lookup(&7), Lookup::Hit(&mut 70, _)));
    }

    #[test]
    fn a_cap_of_zero_caches_nothing() {
        let mut table = Kernels::default();
        for key in 0..3 {
            let _flight = table.lead(key);
            assert_eq!(
                table.settle(&key, Some((key, 1.0)), 0),
                0,
                "nothing evicted"
            );
            assert!(matches!(table.lookup(&key), Lookup::Miss));
        }
        assert_eq!(table.cached(), 0);
        assert!(table.rows().next().is_none());
    }
}
