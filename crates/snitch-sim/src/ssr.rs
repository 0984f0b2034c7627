//! SSSR streamers: hardware address generators behind `ft0..ft2`.
//!
//! Each streamer owns one TCDM port shared between *index fetches* (64-bit
//! reads of the packed index array, delivering several indices at once)
//! and *data accesses*. Armed jobs queue up ([`ClusterConfig::launch_queue_depth`])
//! so the integer core can run ahead with launches while the FPU drains
//! data — the launch run-ahead that makes the paper's per-window `SRIR`
//! loop overlap with compute.
//!
//! # Hot-loop invariants
//!
//! [`Streamer::configure`] lowers the [`SsrCfg`] once into a plan —
//! direction, element count, index low-water mark — so
//! [`Streamer::step`] never matches on an `Option<SsrCfg>`. The data,
//! index and launch FIFOs are fixed-capacity rings sized from the
//! [`ClusterConfig`], and an affine job carries its
//! [`AffineWalk`], advanced by one add per element
//! instead of being re-multiplied from the loop counters. Every address
//! comes from [`saris_isa::stream`].
//!
//! # Fast-forwarding
//!
//! With [`ClusterConfig::fast_forward`] set, a step that ends with no
//! request in flight records why nothing more can happen, and
//! [`Streamer::step_if_awake`] skips the streamer until that changes:
//!
//! * **Inert** — no active job, none queued. [`Streamer::step`] returns
//!   at its first test in that state and counts nothing; only
//!   [`Streamer::arm`] and [`Streamer::configure`] end it, and both
//!   clear the record.
//! * **Read stream, data FIFO full** / **write stream, data FIFO
//!   empty** — the job is unfinished and nothing is outstanding, so
//!   there is no response to consume, no job to retire or activate, and
//!   the issue logic ends at the FIFO test (an indirect stream reaches
//!   this state only with indices on hand and its index FIFO topped up,
//!   so it has no index fetch to issue either). The step is a no-op
//!   until the FPU pops or pushes, which is exactly the one length the
//!   guard re-reads.
//!
//! [`ClusterConfig::launch_queue_depth`]: crate::config::ClusterConfig::launch_queue_depth
//! [`ClusterConfig::fast_forward`]: crate::config::ClusterConfig::fast_forward

use saris_isa::{AffineWalk, IndirectCfg, SsrCfg, StreamDir};

use crate::config::ClusterConfig;
use crate::mem::{MemOp, MemPort, MemReq};
use crate::ring::Ring;

/// What the streamer's outstanding memory request is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    /// A 64-bit index-array fetch.
    Index,
    /// A data element read.
    DataRead,
    /// A data element write.
    DataWrite,
}

/// A static configuration lowered for the per-cycle path.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// What it was lowered from.
    cfg: SsrCfg,
    dir: StreamDir,
    /// Elements per job.
    total: u32,
    /// Indirect: fetch more indices while fewer than this are buffered.
    idx_low_water: usize,
}

/// How the active job's elements are addressed.
#[derive(Debug, Clone, Copy)]
enum Walk {
    Affine(AffineWalk),
    Indirect {
        cfg: IndirectCfg,
        /// The launch base the shifted indices are added to.
        base: u64,
    },
}

/// Iteration state of the armed job currently being walked.
#[derive(Debug, Clone)]
struct ActiveJob {
    walk: Walk,
    /// Elements whose memory access has been *issued*.
    issued: u32,
    /// Elements whose memory access has completed.
    completed: u32,
    /// Indices fetched from the index array so far (indirect only).
    idx_fetched: u32,
}

/// Why stepping is provably a no-op (see the module docs); `None` while
/// the streamer has to be stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Asleep {
    Inert,
    ReadFifoFull,
    WriteFifoEmpty,
}

/// Aggregate streamer activity counters (fed to the energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamerStats {
    /// Data elements streamed (reads + writes).
    pub elems: u64,
    /// 64-bit index-array fetches issued.
    pub idx_fetches: u64,
    /// Jobs armed.
    pub jobs: u64,
    /// Reserved: always 0. Meant for cycles in which a read stream held
    /// data nobody consumed, but the simulator has never counted them,
    /// and every consumer of a [`RunReport`](crate::RunReport) (wire
    /// codec, benchmark ledger) carries the zero.
    pub idle_full_cycles: u64,
}

/// One SSSR streamer.
#[derive(Debug)]
pub struct Streamer {
    plan: Option<Plan>,
    staged_base: Option<u64>,
    jobs: Ring<u64>,
    active: Option<ActiveJob>,
    /// Read direction: delivered data awaiting FPU pops.
    /// Write direction: FPU-pushed data awaiting memory writes.
    data_fifo: Ring<f64>,
    idx_fifo: Ring<u64>,
    pending_kind: Option<PendingKind>,
    /// The streamer's TCDM port.
    pub port: MemPort,
    idx_depth: usize,
    /// Whether steps may record [`Asleep`] (the cluster fast-forwards).
    fast_forward: bool,
    asleep: Option<Asleep>,
    /// Activity counters.
    pub stats: StreamerStats,
}

/// The most indices one 64-bit fetch delivers ([`IndexWidth::U8`]).
const MAX_PER_FETCH: usize = 8;

impl Streamer {
    /// Creates an unconfigured streamer.
    pub fn new(cfg: &ClusterConfig) -> Streamer {
        Streamer {
            plan: None,
            staged_base: None,
            jobs: Ring::new(cfg.launch_queue_depth, 0),
            active: None,
            data_fifo: Ring::new(cfg.stream_fifo_depth, 0.0),
            // A fetch is issued only below the low-water mark (at most
            // one fetch's worth) and delivers at most one fetch's worth.
            idx_fifo: Ring::new(2 * MAX_PER_FETCH, 0),
            pending_kind: None,
            port: MemPort::new(),
            idx_depth: cfg.index_fifo_depth,
            fast_forward: cfg.fast_forward,
            asleep: None,
            stats: StreamerStats::default(),
        }
    }

    /// Returns the streamer to the state [`Streamer::new`] builds,
    /// keeping its FIFO storage.
    pub(crate) fn reload(&mut self) {
        let Streamer {
            plan,
            staged_base,
            jobs,
            active,
            data_fifo,
            idx_fifo,
            pending_kind,
            port,
            idx_depth: _,
            fast_forward: _,
            asleep,
            stats,
        } = self;
        *plan = None;
        *staged_base = None;
        jobs.clear();
        *active = None;
        data_fifo.clear();
        idx_fifo.clear();
        *pending_kind = None;
        *port = MemPort::new();
        *asleep = None;
        *stats = StreamerStats::default();
    }

    /// Installs a static configuration (from `ssr_setup`).
    pub fn configure(&mut self, cfg: SsrCfg) {
        let (total, idx_low_water) = match cfg {
            SsrCfg::Affine(a) => (
                a.total_elems()
                    .expect("a validated program counts a job's elements in u32"),
                0,
            ),
            SsrCfg::Indirect(i) => (i.idx_count, self.idx_depth.min(i.idx_width.per_fetch())),
        };
        self.plan = Some(Plan {
            cfg,
            dir: cfg.dir(),
            total,
            idx_low_water,
        });
        self.staged_base = None;
        self.asleep = None;
    }

    /// Stages a dynamic base (from `ssr_setbase`).
    pub fn stage_base(&mut self, base: u64) {
        self.staged_base = Some(base);
    }

    /// Whether another job can be armed.
    pub fn can_arm(&self) -> bool {
        !self.jobs.is_full()
    }

    /// Arms a job using the staged base (or the static base alone).
    /// Returns `false` (and does nothing) if the launch queue is full.
    ///
    /// The effective base is `static_base + staged_base` for affine
    /// streams and `staged_base` for indirect streams (whose config has no
    /// static data base).
    pub fn arm(&mut self) -> bool {
        if !self.can_arm() {
            return false;
        }
        let staged = self.staged_base.take().unwrap_or(0);
        let base = match self.plan.as_ref().expect("configured before arm").cfg {
            SsrCfg::Affine(a) => a.launch_base(staged),
            SsrCfg::Indirect(_) => staged,
        };
        self.jobs.push_back(base);
        self.stats.jobs += 1;
        if self.asleep == Some(Asleep::Inert) {
            self.asleep = None;
        }
        true
    }

    /// Whether the streamer is configured.
    pub fn is_configured(&self) -> bool {
        self.plan.is_some()
    }

    /// The stream direction, if configured.
    pub fn dir(&self) -> Option<StreamDir> {
        self.plan.as_ref().map(|p| p.dir)
    }

    /// Data elements available for the FPU to pop (read streams).
    pub fn available(&self) -> usize {
        match self.dir() {
            Some(StreamDir::Read) => self.data_fifo.len(),
            _ => 0,
        }
    }

    /// Pops one element (read streams).
    ///
    /// # Panics
    ///
    /// Panics if no element is available (the FPU checks first).
    pub fn pop(&mut self) -> f64 {
        debug_assert_eq!(self.dir(), Some(StreamDir::Read));
        self.data_fifo
            .pop_front()
            .expect("pop on empty stream FIFO")
    }

    /// Free slots for FPU pushes (write streams).
    pub fn push_space(&self) -> usize {
        match self.dir() {
            Some(StreamDir::Write) => self.data_fifo.space(),
            _ => 0,
        }
    }

    /// Pushes one element (write streams).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full (the FPU checks first).
    pub fn push(&mut self, value: f64) {
        debug_assert_eq!(self.dir(), Some(StreamDir::Write));
        assert!(!self.data_fifo.is_full(), "push on full stream FIFO");
        self.data_fifo.push_back(value);
    }

    /// Whether all armed work has fully completed and no data lingers
    /// (write FIFO drained; read FIFO empty).
    pub fn is_drained(&self) -> bool {
        self.active.is_none()
            && self.jobs.is_empty()
            && self.data_fifo.is_empty()
            && self.port.is_idle()
            && self.pending_kind.is_none()
    }

    /// Elements lingering in the data FIFO (for residue diagnostics).
    pub fn residue(&self) -> usize {
        self.data_fifo.len()
    }

    /// Whether the streamer still has work it can advance on its own
    /// (active or queued jobs, or an outstanding memory request). A
    /// streamer with residue but no progress potential is stuck.
    pub fn can_make_progress(&self) -> bool {
        self.active.is_some()
            || !self.jobs.is_empty()
            || self.pending_kind.is_some()
            || !self.port.is_idle()
    }

    /// Whether stepping this streamer provably does nothing: no active or
    /// queued job, no outstanding memory request. Unlike
    /// [`is_drained`](Streamer::is_drained) this tolerates residual FIFO
    /// data (a stuck stream is inert too) — it is the condition the
    /// cluster's fast-forward scan needs, since an inert streamer's
    /// [`step`](Streamer::step) touches no state and no counters.
    pub fn is_inert(&self) -> bool {
        !self.can_make_progress()
    }

    /// [`step`](Streamer::step), unless an earlier step recorded that
    /// stepping is a no-op and the one FIFO length that could change that
    /// has not moved (see the module docs). Never skips anything on a
    /// cluster that does not fast-forward.
    pub fn step_if_awake(&mut self) {
        let skip = match self.asleep {
            None => false,
            Some(Asleep::Inert) => true,
            Some(Asleep::ReadFifoFull) => self.data_fifo.is_full(),
            Some(Asleep::WriteFifoEmpty) => self.data_fifo.is_empty(),
        };
        if !skip {
            self.step();
        }
    }

    /// Advances the streamer one cycle: consume a completed memory
    /// response, activate queued jobs, and issue at most one new memory
    /// request through the port.
    pub fn step(&mut self) {
        self.asleep = None;
        if self.is_inert() {
            // Nothing to consume, activate, or issue — and no counters
            // tick on an inert streamer, so returning here is exactly
            // equivalent to falling through (unconfigured streamers take
            // this exit every cycle of an integer-only kernel).
            if self.fast_forward {
                self.asleep = Some(Asleep::Inert);
            }
            return;
        }
        self.consume_response();
        self.activate_next_job();
        if self.pending_kind.is_some() {
            return; // one outstanding request at a time
        }
        self.issue_next_request();
        if self.fast_forward && self.pending_kind.is_none() {
            self.asleep = self.diagnose_sleep();
        }
    }

    /// Why the step that just ended with nothing in flight will repeat
    /// as a no-op, if it will.
    fn diagnose_sleep(&self) -> Option<Asleep> {
        let Some(job) = &self.active else {
            // `activate_next_job` would have taken a queued job.
            return Some(Asleep::Inert);
        };
        let plan = self.plan.as_ref().expect("active job without a plan");
        // A finished job is retired by the next step.
        (job.issued < plan.total).then_some(match plan.dir {
            StreamDir::Read => Asleep::ReadFifoFull,
            StreamDir::Write => Asleep::WriteFifoEmpty,
        })
    }

    fn consume_response(&mut self) {
        let Some(resp) = self.port.take_completed() else {
            return;
        };
        let kind = self.pending_kind.take().expect("response without request");
        let Some(active) = self.active.as_mut() else {
            unreachable!("response without active job");
        };
        match kind {
            PendingKind::Index => {
                let Walk::Indirect { cfg, .. } = active.walk else {
                    unreachable!("index fetch on affine stream");
                };
                // Entry k of this fetch is index idx_fetched + k.
                let width = cfg.idx_width;
                let fresh = (width.per_fetch() as u32).min(cfg.idx_count - active.idx_fetched);
                for k in 0..fresh {
                    self.idx_fifo.push_back(width.unpack(resp.data, k as usize));
                }
                active.idx_fetched += fresh;
            }
            PendingKind::DataRead => {
                self.data_fifo.push_back(f64::from_bits(resp.data));
                active.completed += 1;
                self.stats.elems += 1;
            }
            PendingKind::DataWrite => {
                active.completed += 1;
                self.stats.elems += 1;
            }
        }
    }

    fn activate_next_job(&mut self) {
        let Some(plan) = &self.plan else { return };
        if let Some(a) = &self.active {
            if a.completed == plan.total {
                debug_assert!(self.idx_fifo.is_empty(), "job ended with stale indices");
                self.active = None;
            }
        }
        if self.active.is_none() {
            if let Some(base) = self.jobs.pop_front() {
                self.active = Some(ActiveJob {
                    walk: match plan.cfg {
                        SsrCfg::Affine(a) => Walk::Affine(a.walk(base)),
                        SsrCfg::Indirect(cfg) => Walk::Indirect { cfg, base },
                    },
                    issued: 0,
                    completed: 0,
                    idx_fetched: 0,
                });
            }
        }
    }

    fn issue_next_request(&mut self) {
        let (Some(plan), Some(active)) = (&self.plan, self.active.as_mut()) else {
            return;
        };
        if active.issued == plan.total {
            return;
        }
        let data_ready = match plan.dir {
            StreamDir::Read => !self.data_fifo.is_full(),
            StreamDir::Write => !self.data_fifo.is_empty(),
        };
        let addr = match &mut active.walk {
            Walk::Indirect { cfg, base } => {
                if data_ready && !self.idx_fifo.is_empty() {
                    cfg.addr(*base, self.idx_fifo.pop_front().expect("nonempty"))
                } else {
                    if active.idx_fetched < cfg.idx_count
                        && self.idx_fifo.len() < plan.idx_low_water
                    {
                        let fetch = active.idx_fetched / cfg.idx_width.per_fetch() as u32;
                        self.stats.idx_fetches += 1;
                        self.pending_kind = Some(PendingKind::Index);
                        self.port.issue(MemReq {
                            addr: cfg.fetch_addr(fetch),
                            op: MemOp::Read64,
                        });
                    }
                    return;
                }
            }
            Walk::Affine(walk) => {
                if !data_ready {
                    return;
                }
                walk.next().expect("a walk is endless")
            }
        };
        active.issued += 1;
        let (kind, op) = match plan.dir {
            StreamDir::Read => (PendingKind::DataRead, MemOp::Read64),
            StreamDir::Write => {
                let v = self.data_fifo.pop_front().expect("write data");
                (PendingKind::DataWrite, MemOp::Write64(v.to_bits()))
            }
        };
        self.pending_kind = Some(kind);
        self.port.issue(MemReq { addr, op });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use crate::mem::Tcdm;
    use saris_isa::{AffineCfg, IndexWidth};

    /// An indirect read of f64 elements.
    pub(crate) fn indirect_read(idx_base: u64, idx_count: u32, width: IndexWidth) -> SsrCfg {
        SsrCfg::Indirect(IndirectCfg {
            dir: StreamDir::Read,
            idx_base,
            idx_count,
            idx_width: width,
            shift: 3,
        })
    }

    fn run_streamer(s: &mut Streamer, t: &mut Tcdm, cycles: u64) {
        for _ in 0..cycles {
            s.step();
            t.arbitrate(&mut [&mut s.port]).unwrap();
        }
    }

    #[test]
    fn affine_read_streams_a_vector() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        for i in 0..16u64 {
            t.write_u64(TCDM_BASE + i * 8, (i as f64).to_bits())
                .unwrap();
        }
        let mut s = Streamer::new(&cfg);
        s.configure(SsrCfg::Affine(AffineCfg {
            dir: StreamDir::Read,
            base: TCDM_BASE,
            dims: 1,
            strides: [8, 0, 0, 0],
            bounds: [16, 1, 1, 1],
        }));
        assert!(s.arm());
        let mut got = Vec::new();
        for _ in 0..200 {
            s.step();
            t.arbitrate(&mut [&mut s.port]).unwrap();
            while s.available() > 0 {
                got.push(s.pop());
            }
            if got.len() == 16 {
                break;
            }
        }
        let expect: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(got, expect);
        assert!(s.is_drained());
        assert_eq!(s.stats.elems, 16);
        assert_eq!(s.stats.idx_fetches, 0);
    }

    #[test]
    fn affine_2d_write_stream() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        let mut s = Streamer::new(&cfg);
        // 3 rows of 2 elements, row stride 64 bytes.
        s.configure(SsrCfg::Affine(AffineCfg {
            dir: StreamDir::Write,
            base: TCDM_BASE + 256,
            dims: 2,
            strides: [8, 64, 0, 0],
            bounds: [2, 3, 1, 1],
        }));
        assert!(s.arm());
        let mut pushed = 0;
        for _ in 0..200 {
            if pushed < 6 && s.push_space() > 0 {
                s.push(pushed as f64 + 0.5);
                pushed += 1;
            }
            s.step();
            t.arbitrate(&mut [&mut s.port]).unwrap();
            if pushed == 6 && s.is_drained() {
                break;
            }
        }
        assert!(s.is_drained(), "write stream must drain");
        for row in 0..3u64 {
            for col in 0..2u64 {
                let addr = TCDM_BASE + 256 + row * 64 + col * 8;
                let v = f64::from_bits(t.read_u64(addr).unwrap());
                assert_eq!(v, (row * 2 + col) as f64 + 0.5, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn indirect_gather_uses_index_array() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        // Data at base + idx*8 for idx in [4, 0, 2, 9].
        let data_base = TCDM_BASE + 1024;
        for i in 0..16u64 {
            t.write_u64(data_base + i * 8, ((100 + i) as f64).to_bits())
                .unwrap();
        }
        let idx_base = TCDM_BASE + 4096;
        let idxs: [u16; 4] = [4, 0, 2, 9];
        let mut bytes = Vec::new();
        for i in idxs {
            bytes.extend_from_slice(&i.to_le_bytes());
        }
        t.write_bytes(idx_base, &bytes).unwrap();
        let mut s = Streamer::new(&cfg);
        s.configure(indirect_read(idx_base, 4, IndexWidth::U16));
        s.stage_base(data_base);
        assert!(s.arm());
        let mut got = Vec::new();
        for _ in 0..200 {
            s.step();
            t.arbitrate(&mut [&mut s.port]).unwrap();
            while s.available() > 0 {
                got.push(s.pop());
            }
            if got.len() == 4 {
                break;
            }
        }
        assert_eq!(got, vec![104.0, 100.0, 102.0, 109.0]);
        // One 64-bit fetch covered all four u16 indices.
        assert_eq!(s.stats.idx_fetches, 1);
        assert!(s.is_drained());
    }

    #[test]
    fn launch_queue_allows_run_ahead_and_refetches_indices() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        let data_base = TCDM_BASE;
        for i in 0..64u64 {
            t.write_u64(data_base + i * 8, (i as f64).to_bits())
                .unwrap();
        }
        let idx_base = TCDM_BASE + 2048;
        let mut bytes = Vec::new();
        for i in [0u16, 1, 2] {
            bytes.extend_from_slice(&i.to_le_bytes());
        }
        t.write_bytes(idx_base, &bytes).unwrap();
        let mut s = Streamer::new(&cfg);
        s.configure(indirect_read(idx_base, 3, IndexWidth::U16));
        // Arm two jobs with different bases (launch run-ahead).
        s.stage_base(data_base);
        assert!(s.arm());
        s.stage_base(data_base + 10 * 8);
        assert!(s.arm());
        assert!(!s.can_arm() || cfg.launch_queue_depth > 2);
        let mut got = Vec::new();
        for _ in 0..400 {
            s.step();
            t.arbitrate(&mut [&mut s.port]).unwrap();
            while s.available() > 0 {
                got.push(s.pop());
            }
            if got.len() == 6 {
                break;
            }
        }
        assert_eq!(got, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        // The index array is re-read per job (paper's index overhead).
        assert_eq!(s.stats.idx_fetches, 2);
        assert_eq!(s.stats.jobs, 2);
    }

    #[test]
    fn read_fifo_respects_depth() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        let mut s = Streamer::new(&cfg);
        s.configure(SsrCfg::Affine(AffineCfg {
            dir: StreamDir::Read,
            base: TCDM_BASE,
            dims: 1,
            strides: [8, 0, 0, 0],
            bounds: [64, 1, 1, 1],
        }));
        assert!(s.arm());
        // Never pop: the FIFO must cap at its depth (+1 in flight).
        run_streamer(&mut s, &mut t, 100);
        assert!(
            s.available() <= cfg.stream_fifo_depth + 1,
            "fifo overfilled: {}",
            s.available()
        );
    }

    #[test]
    fn unconfigured_streamer_is_inert() {
        let cfg = ClusterConfig::snitch();
        let mut t = Tcdm::new(&cfg);
        let mut s = Streamer::new(&cfg);
        run_streamer(&mut s, &mut t, 10);
        assert!(s.is_drained());
        assert_eq!(s.available(), 0);
        assert_eq!(s.push_space(), 0);
    }
}
