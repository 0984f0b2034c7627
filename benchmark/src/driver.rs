//! The closed-loop driver shared by the five workloads: repeated set-up,
//! the measured phase of equal-work rounds, the fixed-count ledger pass
//! of the traced run, and the reduction of rounds to the metrics of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;
use crate::stats;
use crate::trace::Tracer;

/// Set-up runs at least this many times per process, ...
pub const SETUP_REPEATS_MIN: usize = 3;
/// ... goes on until this much time has gone into set-ups, ...
pub const SETUP_BUDGET_SECONDS: f64 = 6.0;
/// ... and stops at this many.
pub const SETUP_REPEATS_MAX: usize = 100;
/// In the ledger pass, requests whose id is a multiple of this are
/// replayed through the lower layers' public functions.
pub const REPLAY_EVERY: u64 = 16;

/// What one client records while it drives operations.
pub struct Rec {
    pub tracer: Tracer,
    /// Set in the ledger pass only: operations also count what they did
    /// and replay every [`REPLAY_EVERY`]th request layer by layer.
    pub ledger: bool,
    /// Latency of every operation that was answered and passed its
    /// check; failed operations get no latency credit. The measured
    /// phase takes these away round by round.
    pub lat_ns: Vec<u32>,
    answered: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Simulated cycles of the operations that passed (`sim_gallery`).
    pub sim_cycles: u64,
    counts: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rec {
    pub fn new(traced: bool, ledger: bool, epoch: Instant) -> Rec {
        Rec {
            tracer: Tracer::new(traced, epoch),
            ledger,
            lat_ns: Vec::new(),
            answered: 0,
            failed: 0,
            first_failure: None,
            sim_cycles: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn ok(&mut self, latency: Duration) {
        self.answered += 1;
        self.lat_ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Whether request `req` is replayed layer by layer.
    pub fn replays(&self, req: u64) -> bool {
        self.ledger && req.is_multiple_of(REPLAY_EVERY)
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(n, v)| (*n, *v))
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Operations answered and found correct.
    pub fn ops(&self) -> u64 {
        self.answered
    }
}

/// One workload: a warm system under test plus a request stream in
/// which request `k` of a client is a pure function of the seed.
pub trait Workload: Sized + Sync {
    const NAME: &'static str;
    /// Closed-loop client threads; each waits for its reply before it
    /// sends its next request.
    const CLIENTS: usize;
    /// Operations of one round of a client. Every round of a workload is
    /// the same work in the same mix (only seeds and ids move on), so the
    /// wall times of two rounds compare, and a round lasts milliseconds:
    /// long against the clock, short against the moments for which the
    /// host's neighbours stay quiet.
    const ROUND: u64;
    /// Kinds of round, taken in rotation, where equal rounds would be too
    /// long: rounds of one kind are the same work, and one round of each
    /// kind is the workload's mix.
    const KINDS: u64 = 1;
    /// The share of a client's rounds of one kind that count as quiet
    /// (see [`Reduced`]) where that is more than [`QUIET_MIN_ROUNDS`].
    const QUIET_SHARE: f64 = 0.0;
    /// Operations of the ledger pass (a multiple of `ROUND`).
    const LEDGER_OPS: u64;

    /// Builds and warms the system, marking the end of every stage of
    /// that (the same stages whatever the timing) in `stages`. Everything
    /// here is `setup_s`.
    fn setup(seed: u64, stages: &mut Stages) -> Self;

    /// The first measured `k` of every client (the warm-up may have
    /// consumed the stream's head).
    fn start_k(&self) -> u64 {
        0
    }

    /// Sends request `k` of `client`, waits for the answer, checks it
    /// and records the outcome in `rec`.
    fn op(&self, client: usize, k: u64, rec: &mut Rec);

    /// A hash of request `k` of `client`.
    fn request_fingerprint(&self, client: usize, k: u64) -> u64;

    /// Traced run only: runs the ledger pass (with [`ledger_pass`]) and
    /// any layer probes, and turns them into per-layer metrics.
    fn ledger(&self, next_k: &mut [u64], epoch: Instant, out: &mut Metrics) -> Rec;

    /// Lines printed before the result of an untraced run.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Requests per client that [`stream_fingerprint`] covers in a run's
/// notes.
const FINGERPRINTED_HEAD: u64 = 64;

/// A hash of the first `head` measured requests of every client: equal
/// between two runs exactly when they were sent the same stream.
pub fn stream_fingerprint<W: Workload>(w: &W, head: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for client in 0..W::CLIENTS {
        for k in w.start_k()..w.start_k() + head {
            w.request_fingerprint(client, k).hash(&mut h);
        }
    }
    h.finish()
}

/// The ledger pass: `W::LEDGER_OPS` operations sent by one thread,
/// taking the clients' streams in turn — a fixed count in a fixed
/// order, so every count it yields repeats exactly at a fixed seed.
pub fn ledger_pass<W: Workload>(w: &W, next_k: &mut [u64], epoch: Instant) -> Rec {
    let mut rec = Rec::new(true, true, epoch);
    for i in 0..W::LEDGER_OPS {
        let client = (i % W::CLIENTS as u64) as usize;
        w.op(client, next_k[client], &mut rec);
        next_k[client] += 1;
    }
    rec
}

/// The rounds of one kind that one client completed in the measured
/// phase: the wall time of every round, and the latencies of the fastest
/// [`KEPT_ROUNDS`] only, so that what the benchmark itself holds in
/// memory does not grow with the speed of the program it measures.
#[derive(Default)]
pub struct RoundLog {
    /// Wall time of every round in seconds, in the order they ran.
    pub walls_s: Vec<f64>,
    /// The fastest rounds so far, fastest first, with the latency of
    /// every operation of theirs that was answered and passed its check.
    kept: Vec<(f64, Vec<u32>)>,
}

/// Rounds per client and kind whose latencies are kept.
pub const KEPT_ROUNDS: usize = 64;

impl RoundLog {
    pub fn push(&mut self, wall_s: f64, lat_ns: Vec<u32>) {
        self.walls_s.push(wall_s);
        let at = self.kept.partition_point(|(wall, _)| *wall <= wall_s);
        if at < KEPT_ROUNDS {
            self.kept.insert(at, (wall_s, lat_ns));
            self.kept.truncate(KEPT_ROUNDS);
        }
    }

    /// The quiet rounds: the fastest `share` of all, at least
    /// [`QUIET_MIN_ROUNDS`] and at most [`KEPT_ROUNDS`].
    fn quiet(&self, share: f64) -> &[(f64, Vec<u32>)] {
        let rounds = (self.walls_s.len() as f64 * share).ceil() as usize;
        &self.kept[..rounds.max(QUIET_MIN_ROUNDS).min(self.kept.len())]
    }
}

/// What one client thread brings back from the measured phase.
pub struct ClientRun {
    /// Counters and spans of the whole phase (its `lat_ns` is empty: the
    /// latencies went into the logs round by round).
    pub rec: Rec,
    /// Rounds that ran with tracing off, one log per kind of round.
    pub plain: Vec<RoundLog>,
    /// Rounds that ran with tracing on (every other rotation through
    /// the kinds in a traced run).
    pub traced: Vec<RoundLog>,
    /// The client's next `k`.
    next_k: u64,
}

/// The measured phase: every client sends whole rounds for `seconds`,
/// each in its own thread from a common start. With `trace` set, every
/// other rotation through the kinds of round records spans. The round in
/// which a client passes the deadline is not logged: the other clients
/// may have stopped by then.
pub fn measured_phase<W: Workload>(
    w: &W,
    next_k: &mut [u64],
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Vec<ClientRun> {
    let start_line = std::sync::Barrier::new(W::CLIENTS);
    let drive = |client: usize, mut k: u64| {
        let mut run = ClientRun {
            rec: Rec::new(false, false, epoch),
            plain: (0..W::KINDS).map(|_| RoundLog::default()).collect(),
            traced: (0..W::KINDS).map(|_| RoundLog::default()).collect(),
            next_k: k,
        };
        start_line.wait();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        for round in 0u64.. {
            let traced = trace && (round / W::KINDS) % 2 == 1;
            run.rec.tracer.set_enabled(traced);
            run.rec.lat_ns = Vec::with_capacity(W::ROUND as usize);
            let start = Instant::now();
            for _ in 0..W::ROUND {
                w.op(client, k, &mut run.rec);
                k += 1;
            }
            let end = Instant::now();
            let lat_ns = std::mem::take(&mut run.rec.lat_ns);
            if end >= deadline && round > 0 {
                break;
            }
            let logs = if traced {
                &mut run.traced
            } else {
                &mut run.plain
            };
            logs[(round % W::KINDS) as usize].push((end - start).as_secs_f64(), lat_ns);
            if end >= deadline {
                break;
            }
        }
        run.next_k = k;
        run
    };
    let runs: Vec<ClientRun> = if W::CLIENTS == 1 {
        vec![drive(0, next_k[0])]
    } else {
        std::thread::scope(|scope| {
            let drive = &drive;
            let handles: Vec<_> = next_k
                .iter()
                .enumerate()
                .map(|(client, &k)| scope.spawn(move || drive(client, k)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    for (k, run) in next_k.iter_mut().zip(&runs) {
        *k = run.next_k;
    }
    runs
}

/// What the rounds of a measured phase reduce to.
///
/// The host this runs on is shared. Its neighbours slow a thread by up
/// to 40% for seconds or minutes at a time and never speed it up: the
/// per-round rates of one run have a sharp ceiling that repeats from run
/// to run within a few percent, and a body below it that does not. So
/// every end-to-end number is read from each client's quiet rounds, the
/// fastest [`QUIET_MIN_ROUNDS`] of each kind: rounds of one kind are
/// equal work, so the fastest are the least disturbed, and they follow
/// the code where a median over all rounds follows the neighbours. In a
/// bad minute quiet moments are rare and short, so rounds are short and
/// the quiet ones few: over the same runs, the fastest three spread half
/// as much as the fastest eight and a third as much as the fastest 1/16.
pub struct Reduced {
    /// Operations per second over the quiet rounds, summed over clients.
    pub ops_per_s: f64,
    /// Sorted latencies of the quiet rounds' operations, all clients.
    pub quiet_ns: Vec<u32>,
    pub quiet_rounds: usize,
    pub rounds: usize,
    /// Operations per second over all logged rounds, summed over clients.
    pub whole_ops_per_s: f64,
    /// Quartile spread of the rates of whole rotations through the kinds
    /// of round: the noise of this run.
    pub spread: f64,
}

/// The rounds of a kind that count as a client's quiet ones.
pub const QUIET_MIN_ROUNDS: usize = 3;

/// Reduces the logs of every client, each a slice with one log per
/// kind of round, all rounds being `round_ops` operations and
/// `quiet_share` of them quiet.
pub fn reduce(clients: &[&[RoundLog]], round_ops: u64, quiet_share: f64) -> Reduced {
    let mut reduced = Reduced {
        ops_per_s: 0.0,
        quiet_ns: Vec::new(),
        quiet_rounds: 0,
        rounds: 0,
        whole_ops_per_s: 0.0,
        spread: 0.0,
    };
    let mut rotation_rates = Vec::new();
    for kinds in clients {
        if kinds.iter().any(|log| log.walls_s.is_empty()) {
            continue;
        }
        // One quiet round of every kind, back to back.
        let mut quiet_rotation_s = 0.0;
        let (mut rounds, mut wall_s) = (0, 0.0);
        for log in kinds.iter() {
            let quiet = log.quiet(quiet_share);
            quiet_rotation_s +=
                quiet.iter().map(|(wall, _)| wall).sum::<f64>() / quiet.len() as f64;
            for (_, lat_ns) in quiet {
                reduced.quiet_ns.extend_from_slice(lat_ns);
            }
            reduced.quiet_rounds += quiet.len();
            rounds += log.walls_s.len();
            wall_s += log.walls_s.iter().sum::<f64>();
        }
        let rotation_ops = (round_ops * kinds.len() as u64) as f64;
        reduced.ops_per_s += rotation_ops / quiet_rotation_s;
        reduced.rounds += rounds;
        reduced.whole_ops_per_s += (round_ops * rounds as u64) as f64 / wall_s;
        let rotations = kinds.iter().map(|log| log.walls_s.len()).min().unwrap_or(0);
        rotation_rates.extend(
            (0..rotations)
                .map(|i| rotation_ops / kinds.iter().map(|log| log.walls_s[i]).sum::<f64>()),
        );
    }
    reduced.quiet_ns.sort_unstable();
    reduced.spread = stats::iqr_over_median(&rotation_rates);
    reduced
}

/// The outcome of one benchmark process.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    /// JSON lines of the traced run (empty otherwise).
    pub trace: String,
}

/// The wall times of the stages of one set-up: to set-up what rounds
/// are to the measured phase.
pub struct Stages {
    last: Instant,
    walls_s: Vec<f64>,
}

impl Stages {
    pub fn start() -> Stages {
        Stages {
            last: Instant::now(),
            walls_s: Vec::new(),
        }
    }

    /// Ends the stage that began at the previous call (or at the start).
    pub fn end_stage(&mut self) {
        let now = Instant::now();
        self.walls_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Sets the workload up repeatedly (see [`SETUP_REPEATS_MIN`]), keeping
/// the last system, and returns it with each set-up's stage walls.
fn setup_repeatedly<W: Workload>(seed: u64) -> (W, Vec<Vec<f64>>) {
    let mut setups: Vec<Vec<f64>> = Vec::new();
    loop {
        let mut stages = Stages::start();
        let system = W::setup(seed, &mut stages);
        stages.end_stage();
        setups.push(stages.walls_s);
        let spent: f64 = setups.iter().flatten().sum();
        let enough = setups.len() >= SETUP_REPEATS_MIN && spent >= SETUP_BUDGET_SECONDS;
        if enough || setups.len() >= SETUP_REPEATS_MAX {
            return (system, setups);
        }
        // The system shuts down here, outside the timed interval.
    }
}

/// `setup_s`: a set-up made of the fastest run of every stage, for the
/// reason [`Reduced`] gives — a whole set-up is longer than the host's
/// quiet moments, its stages are not. (The fastest whole set-up, should
/// the set-ups disagree about their stages.)
fn setup_seconds(setups: &[Vec<f64>]) -> f64 {
    let fastest = |walls: &mut dyn Iterator<Item = f64>| walls.fold(f64::INFINITY, f64::min);
    let stages = setups[0].len();
    if setups.iter().any(|s| s.len() != stages) {
        return fastest(&mut setups.iter().map(|s| s.iter().sum()));
    }
    (0..stages)
        .map(|i| fastest(&mut setups.iter().map(|s| s[i])))
        .sum()
}

/// Simulated megacycles per host second at `ops_per_s` (`sim_gallery`:
/// every rotation through its kinds simulates the same cycles).
fn sim_mcycles_per_s(runs: &[ClientRun], ops_per_s: f64) -> f64 {
    let cycles: u64 = runs.iter().map(|r| r.rec.sim_cycles).sum();
    let ops: u64 = runs.iter().map(|r| r.rec.ops()).sum();
    ops_per_s * cycles as f64 / ops.max(1) as f64 / 1e6
}

/// The untraced run: set-up, then rounds for `seconds`.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Run {
    let epoch = Instant::now();
    let (w, setups) = setup_repeatedly::<W>(seed);
    let mut next_k = vec![w.start_k(); W::CLIENTS];
    let stolen_before = steal_and_total_ticks();
    let runs = measured_phase(&w, &mut next_k, seconds, false, epoch);
    let stolen_after = steal_and_total_ticks();
    let reduced = reduce(
        &runs.iter().map(|r| &r.plain[..]).collect::<Vec<_>>(),
        W::ROUND,
        W::QUIET_SHARE,
    );
    let tail = stats::tail_quantile(reduced.quiet_ns.len());

    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_seconds(&setups));
    metrics.set("ops_per_s", reduced.ops_per_s);
    metrics.set(
        "lat_p50_us",
        stats::quantile_ns(&reduced.quiet_ns, 0.5) / 1e3,
    );
    metrics.set("peak_rss_mb", peak_rss_mib());

    let mut notes = vec![
        format!(
            "measured phase: {} client(s), {} rounds of {} ops, {:?} ops/s over all of them \
             (quartile spread of the rate {:.4})",
            W::CLIENTS,
            reduced.rounds,
            W::ROUND,
            reduced.whole_ops_per_s,
            reduced.spread
        ),
        format!(
            "ops_per_s and latencies are those of the {} quiet rounds (of every client and kind \
             the fastest {}), {} samples; their p{:.0} is {:?} us",
            reduced.quiet_rounds,
            if W::QUIET_SHARE > 0.0 {
                format!("{:.2} of all", W::QUIET_SHARE)
            } else {
                QUIET_MIN_ROUNDS.to_string()
            },
            reduced.quiet_ns.len(),
            100.0 * tail,
            stats::quantile_ns(&reduced.quiet_ns, tail) / 1e3
        ),
        format!(
            "setup_s is the fastest of {} runs of each of {} set-up stages; whole set-ups took \
             {:.4} to {:.4} s",
            setups.len(),
            setups[0].len(),
            setups
                .iter()
                .map(|s| s.iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min),
            setups
                .iter()
                .map(|s| s.iter().sum::<f64>())
                .fold(0.0, f64::max)
        ),
        format!(
            "stream fingerprint (first {FINGERPRINTED_HEAD} requests per client): {:#018x}",
            stream_fingerprint(&w, FINGERPRINTED_HEAD)
        ),
    ];
    if let (Some((steal0, total0)), Some((steal1, total1))) = (stolen_before, stolen_after) {
        // Not a metric: a run measured while the host was handing this
        // guest's CPUs to others is not comparable with one that was not.
        notes.push(format!(
            "host steal during the measured phase: {:.1}% of CPU time",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        ));
    }
    let mcycles = sim_mcycles_per_s(&runs, reduced.ops_per_s);
    if mcycles > 0.0 {
        notes.push(format!("sim_mcycles_per_s = {mcycles:?} Mcycles/s"));
    }
    notes.extend(w.notes());
    finish(runs, None, metrics, notes, String::new())
}

/// The traced run: set-up, the ledger pass, then rounds for `seconds`
/// with tracing on in every other one.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64) -> Run {
    let epoch = Instant::now();
    let (w, _) = setup_repeatedly::<W>(seed);
    let mut next_k = vec![w.start_k(); W::CLIENTS];
    let mut metrics = Metrics::default();
    let ledger = w.ledger(&mut next_k, epoch, &mut metrics);

    let mut runs = measured_phase(&w, &mut next_k, seconds, true, epoch);
    let plain = reduce(
        &runs.iter().map(|r| &r.plain[..]).collect::<Vec<_>>(),
        W::ROUND,
        W::QUIET_SHARE,
    );
    let traced = reduce(
        &runs.iter().map(|r| &r.traced[..]).collect::<Vec<_>>(),
        W::ROUND,
        W::QUIET_SHARE,
    );
    metrics.set("driver.pass_spread", plain.spread);
    metrics.set(
        "driver.lat_p99_us",
        stats::quantile_ns(&plain.quiet_ns, stats::tail_quantile(plain.quiet_ns.len())) / 1e3,
    );
    if traced.ops_per_s > 0.0 {
        metrics.set("driver.trace_overhead", plain.ops_per_s / traced.ops_per_s);
    }
    metrics.set(
        "sim_mcycles_per_s",
        sim_mcycles_per_s(&runs, plain.ops_per_s),
    );

    let mut trace = ledger.tracer.to_jsonl("ledger");
    let mut timed = Tracer::new(true, epoch);
    for run in &mut runs {
        timed.merge(std::mem::replace(
            &mut run.rec.tracer,
            Tracer::new(false, epoch),
        ));
    }
    trace.push_str(&timed.to_jsonl("timed"));

    let notes = vec![format!(
        "ledger pass: {} ops in a fixed order; then {} rounds of {} ops, tracing on in every other rotation",
        W::LEDGER_OPS,
        plain.rounds + traced.rounds,
        W::ROUND
    )];
    finish(runs, Some(ledger), metrics, notes, trace)
}

fn finish(
    runs: Vec<ClientRun>,
    ledger: Option<Rec>,
    metrics: Metrics,
    notes: Vec<String>,
    trace: String,
) -> Run {
    let recs = || runs.iter().map(|r| &r.rec).chain(ledger.iter());
    let failed: u64 = recs().map(|r| r.failed).sum();
    let ops: u64 = recs().map(Rec::ops).sum();
    Run {
        attempted: ops + failed,
        failed,
        first_failure: recs().find_map(|r| r.first_failure.clone()),
        metrics,
        notes,
        trace,
    }
}

/// CPU time the hypervisor gave to other guests while this one wanted
/// to run, and all accounted CPU time, in clock ticks since boot
/// (`None` where `/proc/stat` is missing).
fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// `VmHWM` of this process in MiB (`0.0` where `/proc` is missing).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-round value of a ledger count; a remainder means the rounds of
/// one ledger pass disagreed, which is a correctness failure.
pub fn per_round(rec: &mut Rec, name: &'static str, rounds: u64) -> f64 {
    let total = rec.counted(name);
    if !total.is_multiple_of(rounds) {
        rec.fail(|| format!("{name}: {total} does not divide into {rounds} identical rounds"));
    }
    (total / rounds) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log of rounds with these walls; a round's only latency is its
    /// index.
    fn log_of(walls: &[f64]) -> RoundLog {
        let mut log = RoundLog::default();
        for (i, &wall) in walls.iter().enumerate() {
            log.push(wall, vec![i as u32]);
        }
        log
    }

    #[test]
    fn a_log_keeps_every_wall_and_the_latencies_of_the_fastest_rounds() {
        let walls: Vec<f64> = (0..200).map(|i| 1.0 + f64::from((i * 37) % 200)).collect();
        let log = log_of(&walls);
        assert_eq!(log.walls_s, walls);
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let kept: Vec<f64> = log.kept.iter().map(|(wall, _)| *wall).collect();
        assert_eq!(kept, sorted[..KEPT_ROUNDS]);
        for (wall, lat_ns) in &log.kept {
            assert_eq!(walls[lat_ns[0] as usize], *wall);
        }
    }

    #[test]
    fn quiet_rounds_are_a_share_with_a_floor_and_a_cap() {
        let share = 1.0 / 128.0;
        assert_eq!(log_of(&[1.0; 2]).quiet(share).len(), 2);
        assert_eq!(log_of(&[1.0; 100]).quiet(share).len(), QUIET_MIN_ROUNDS);
        assert_eq!(log_of(&[1.0; 100]).quiet(0.0).len(), QUIET_MIN_ROUNDS);
        assert_eq!(log_of(&[1.0; 2560]).quiet(share).len(), 20);
        assert_eq!(log_of(&[1.0; 40]).quiet(0.5).len(), 20);
        assert_eq!(log_of(&vec![1.0; 10_000]).quiet(share).len(), KEPT_ROUNDS);
    }

    #[test]
    fn reduction_reads_the_quiet_rounds_and_sums_the_clients() {
        // Two kinds of round of 10 operations: eight quiet rounds each, at
        // 10 ms and 30 ms, among disturbed ones at twice that.
        let kind = |quiet: f64| {
            let mut walls = vec![2.0 * quiet; 92];
            walls.extend([quiet; 8]);
            log_of(&walls)
        };
        let client = [kind(0.010), kind(0.030)];
        let one = reduce(&[&client[..]], 10, 0.08);
        // A quiet rotation is 20 operations in 40 ms.
        assert!((one.ops_per_s - 500.0).abs() < 1e-9, "{}", one.ops_per_s);
        // All 200 rounds took 92 × 80 ms + 8 × 40 ms.
        assert!((one.whole_ops_per_s - 2000.0 / 7.68).abs() < 1e-9);
        assert_eq!((one.quiet_rounds, one.rounds), (16, 200));
        // Only the quiet rounds' latencies: the last eight of each kind.
        assert_eq!(one.quiet_ns.len(), 16);
        assert!(one.quiet_ns.iter().all(|&i| i >= 92));

        let two = reduce(&[&client[..], &client[..]], 10, 0.08);
        assert!((two.ops_per_s - 1000.0).abs() < 1e-9);
        assert_eq!(two.quiet_ns.len(), 32);
    }

    #[test]
    fn setup_time_is_made_of_the_fastest_run_of_every_stage() {
        let setups = [
            vec![0.2, 0.1, 0.4],
            vec![0.1, 0.3, 0.3],
            vec![0.3, 0.2, 0.5],
        ];
        assert!((setup_seconds(&setups) - 0.5).abs() < 1e-12);
        // Set-ups that disagree about their stages: the fastest whole one.
        let ragged = [vec![0.2, 0.1, 0.4], vec![0.5, 0.1]];
        assert!((setup_seconds(&ragged) - 0.6).abs() < 1e-12);
    }
}
