//! Spans around every call the benchmark makes into a layer, with the
//! layers' public counters read at the same boundaries.
//!
//! Reading a counter never charges simulated cycles, so a traced run
//! replays the untraced one exactly. Spans stay in memory and are written
//! out once the run ends.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cosy::CosyExtension;
use kefence::Kefence;
use kgcc::KgccHook;
use kjfs::Kjfs;
use kprog::Attachment;
use ksim::{Machine, Pid};
use ksyscall::SyscallLayer;
use kvfs::{BlockDev, Vfs};

/// Counters sampled at every span boundary, by index.
pub mod c {
    pub const USER: usize = 0;
    pub const SYS: usize = 1;
    pub const IO: usize = 2;
    pub const SYSCALLS: usize = 3;
    pub const CROSSINGS: usize = 4;
    pub const COPY_IN: usize = 5;
    pub const COPY_OUT: usize = 6;
    pub const PAGE_FAULTS: usize = 7;
    pub const GUARD_HITS: usize = 8;
    pub const COMPOUNDS: usize = 9;
    pub const COMPOUND_OPS: usize = 10;
    pub const BD_READS: usize = 11;
    pub const BD_WRITES: usize = 12;
    pub const BD_SEEKS: usize = 13;
    pub const DC_HITS: usize = 14;
    pub const DC_MISSES: usize = 15;
    pub const J_COMMITS: usize = 16;
    pub const J_BLOCKS: usize = 17;
    pub const J_CKPT_RUNS: usize = 18;
    pub const J_CKPT_BLOCKS: usize = 19;
    pub const J_DEDUP_SAVED: usize = 20;
    pub const J_GROUP_MERGES: usize = 21;
    pub const PC_HITS: usize = 22;
    pub const PC_MISSES: usize = 23;
    pub const RA_ISSUED: usize = 24;
    pub const RA_HITS: usize = 25;
    pub const EVICTIONS: usize = 26;
    pub const NET_REFUSED: usize = 27;
    pub const NET_EAGAIN: usize = 28;
    pub const CQ_OVERFLOWS: usize = 29;
    pub const COSY_HITS: usize = 30;
    pub const COSY_MISSES: usize = 31;
    pub const PROG_RUNS: usize = 32;
    pub const PROG_ERRORS: usize = 33;
    pub const KGCC_EXEC: usize = 34;
    pub const KGCC_SKIP: usize = 35;
    pub const KGCC_VIOL: usize = 36;
    pub const KF_ALLOCS: usize = 37;
    pub const KF_VIOL: usize = 38;
    /// A high-water mark, not a running count: phases read its end value.
    pub const KF_MAX_PAGES: usize = 39;
    pub const N: usize = 40;

    pub const NAMES: [&str; N] = [
        "user",
        "sys",
        "io",
        "syscalls",
        "crossings",
        "copy_in",
        "copy_out",
        "page_faults",
        "guard_hits",
        "compounds",
        "compound_ops",
        "bd_reads",
        "bd_writes",
        "bd_seeks",
        "dc_hits",
        "dc_misses",
        "j_commits",
        "j_blocks",
        "j_ckpt_runs",
        "j_ckpt_blocks",
        "j_dedup_saved",
        "j_group_merges",
        "pc_hits",
        "pc_misses",
        "ra_issued",
        "ra_hits",
        "evictions",
        "net_refused",
        "net_eagain",
        "cq_overflows",
        "cosy_hits",
        "cosy_misses",
        "prog_runs",
        "prog_errors",
        "kgcc_exec",
        "kgcc_skip",
        "kgcc_viol",
        "kf_allocs",
        "kf_viol",
        "kf_max_pages",
    ];
}

pub type Sample = [u64; c::N];

/// Handles to every layer whose counters a workload moves. Fields are
/// filled in as set-up builds the layers.
#[derive(Clone)]
pub struct Probe {
    /// Counts of machines a workload has retired, so a sample continues
    /// across a fresh machine instead of restarting at zero.
    pub base: Sample,
    pub machine: Option<Arc<Machine>>,
    pub dev: Option<Arc<BlockDev>>,
    pub vfs: Option<Arc<Vfs>>,
    pub kjfs: Option<Arc<Kjfs>>,
    pub sys: Option<Arc<SyscallLayer>>,
    pub ring_pid: Option<Pid>,
    pub cosy: Option<Arc<CosyExtension>>,
    pub att: Option<Arc<Attachment>>,
    pub kgcc: Option<Arc<KgccHook>>,
    pub kefence: Option<Arc<Kefence>>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            base: [0; c::N],
            machine: None,
            dev: None,
            vfs: None,
            kjfs: None,
            sys: None,
            ring_pid: None,
            cosy: None,
            att: None,
            kgcc: None,
            kefence: None,
        }
    }
}

impl Probe {
    pub fn sample(&self) -> Sample {
        let mut s = [0u64; c::N];
        if let Some(m) = &self.machine {
            let k = m.clock.snapshot();
            let st = m.stats.snapshot();
            s[c::USER] = k.user;
            s[c::SYS] = k.sys;
            s[c::IO] = k.io;
            s[c::SYSCALLS] = st.syscalls;
            s[c::CROSSINGS] = st.crossings;
            s[c::COPY_IN] = st.bytes_copied_in;
            s[c::COPY_OUT] = st.bytes_copied_out;
            s[c::PAGE_FAULTS] = st.page_faults;
            s[c::GUARD_HITS] = st.guard_hits;
            s[c::COMPOUNDS] = st.compounds;
            s[c::COMPOUND_OPS] = st.compound_ops;
        }
        if let Some(d) = &self.dev {
            let (r, w, _, seeks) = d.counters();
            s[c::BD_READS] = r;
            s[c::BD_WRITES] = w;
            s[c::BD_SEEKS] = seeks;
        }
        if let Some(v) = &self.vfs {
            let (h, m) = v.dcache().counters();
            s[c::DC_HITS] = h;
            s[c::DC_MISSES] = m;
        }
        if let Some(j) = &self.kjfs {
            let js = j.stats();
            s[c::J_COMMITS] = js.commits;
            s[c::J_BLOCKS] = js.journal_blocks;
            s[c::J_CKPT_RUNS] = js.checkpoint_runs;
            s[c::J_CKPT_BLOCKS] = js.checkpoint_blocks;
            s[c::J_DEDUP_SAVED] = js.checkpoint_dedup_saved;
            s[c::J_GROUP_MERGES] = js.group_merges;
            s[c::PC_HITS] = js.cache_hits;
            s[c::PC_MISSES] = js.cache_misses;
            s[c::RA_ISSUED] = js.readahead_issued;
            s[c::RA_HITS] = js.readahead_hits;
            s[c::EVICTIONS] = js.evictions;
        }
        if let Some(sys) = &self.sys {
            let n = sys.net().stats();
            s[c::NET_REFUSED] = n.refused;
            s[c::NET_EAGAIN] = n.send_eagains;
            if let Some(r) = self.ring_pid.and_then(|p| sys.uring(p)) {
                s[c::CQ_OVERFLOWS] = r.cq_overflow_total();
            }
        }
        if let Some(x) = &self.cosy {
            let cs = x.cache_stats();
            s[c::COSY_HITS] = cs.hits;
            s[c::COSY_MISSES] = cs.misses;
        }
        if let Some(a) = &self.att {
            let st = a.stats();
            s[c::PROG_RUNS] = st.invocations;
            s[c::PROG_ERRORS] = st.errors + st.budget_trips;
        }
        if let Some(k) = &self.kgcc {
            let r = k.report();
            s[c::KGCC_EXEC] = r.checks_executed;
            s[c::KGCC_SKIP] = r.checks_skipped;
            s[c::KGCC_VIOL] = r.violations;
        }
        if let Some(k) = &self.kefence {
            s[c::KF_ALLOCS] = k.counters().0;
            s[c::KF_VIOL] = k.violations().len() as u64;
            s[c::KF_MAX_PAGES] = k.max_outstanding_pages();
        }
        for (i, (v, b)) in s.iter_mut().zip(&self.base).enumerate() {
            *v = if i == c::KF_MAX_PAGES {
                (*v).max(*b)
            } else {
                *v + b
            };
        }
        s
    }
}

pub fn delta(a: &Sample, b: &Sample) -> Sample {
    let mut d = [0u64; c::N];
    for i in 0..c::N {
        d[i] = b[i] - a[i];
    }
    d
}

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub op: u64,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Non-zero counter deltas over the whole span, `(index, delta)`.
    pub total: Vec<(u8, u64)>,
    /// Clock cycles (user, sys, io) charged while this span was the
    /// innermost open one.
    pub self_cycles: [u64; 3],
    /// Host time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn get(&self, i: usize) -> u64 {
        self.total
            .iter()
            .find(|&&(k, _)| k as usize == i)
            .map_or(0, |&(_, v)| v)
    }

    pub fn ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Open {
    idx: u32,
    start: Sample,
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    probe: Probe,
    origin: Instant,
    op: u64,
    pub spans: Vec<Span>,
    stack: Vec<Open>,
    /// Sample at the most recent boundary; the gap to the next boundary
    /// is charged to the innermost open span, or to `outside`.
    last: Sample,
    /// Cycles charged with no span open.
    pub outside: [u64; 3],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            probe: Probe::default(),
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            last: [0; c::N],
            outside: [0; 3],
        }
    }

    /// Replace the probe. Work the new probe's layers did before this
    /// call counts as a gap in the innermost open span, so every cycle of
    /// a continued probe (see [`Probe::base`]) is attributed once.
    pub fn set_probe(&mut self, p: Probe) {
        self.probe = p;
        if self.on {
            self.boundary();
        }
    }

    /// Drop recorded spans and restart gap accounting (phase boundary).
    pub fn reset(&mut self) {
        assert!(self.stack.is_empty());
        self.spans.clear();
        self.outside = [0; 3];
        if self.on {
            self.last = self.probe.sample();
        }
    }

    fn boundary(&mut self) -> Sample {
        let now = self.probe.sample();
        let gap = delta(&self.last, &now);
        let dst = match self.stack.last() {
            Some(o) => &mut self.spans[o.idx as usize].self_cycles,
            None => &mut self.outside,
        };
        for (d, g) in dst.iter_mut().zip(&gap[..3]) {
            *d += g;
        }
        self.last = now;
        now
    }

    fn open(&mut self, name: &'static str) {
        let start = self.boundary();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|o| o.idx),
            op: self.op,
            t0_ns: self.origin.elapsed().as_nanos() as u64,
            t1_ns: 0,
            total: Vec::new(),
            self_cycles: [0; 3],
            child_ns: 0,
        });
        self.stack.push(Open { idx, start });
    }

    fn close(&mut self) {
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let end = self.boundary();
        let o = self.stack.pop().expect("close without open");
        let d = delta(&o.start, &end);
        let sp = &mut self.spans[o.idx as usize];
        sp.t1_ns = t1;
        sp.total = d
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i as u8, v))
            .collect();
        let ns = sp.ns();
        if let Some(p) = sp.parent {
            self.spans[p as usize].child_ns += ns;
        }
    }

    /// Run `f` as one call into a layer, named `layer.function`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Run `f` as op `id`: the parent span of every layer call it makes.
    #[inline]
    pub fn op<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = id;
        if !self.on {
            return f(self);
        }
        self.open(name);
        let r = f(self);
        self.close();
        r
    }

    /// Write every span as one tab-separated line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("idx\tparent\top\tname\tt0_ns\tt1_ns\tself_user\tself_sys\tself_io\tdeltas\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t",
                s.op,
                s.name,
                s.t0_ns,
                s.t1_ns,
                s.self_cycles[0],
                s.self_cycles[1],
                s.self_cycles[2]
            );
            for (k, &(ix, v)) in s.total.iter().enumerate() {
                let sep = if k == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{}={v}", c::NAMES[ix as usize]);
            }
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
