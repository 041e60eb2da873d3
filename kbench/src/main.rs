//! One benchmark for the simulated kernel.
//!
//! ```text
//! cargo run --release --offline --manifest-path kbench/Cargo.toml -- \
//!     --workload web|mail|db|build --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` replays the same seed untraced and traced, checks that both give the
//! same simulated numbers, and reports the per-layer metrics. The last
//! line of standard output is the JSON result. See `kbench/README.md`.

/// One call into the system-call layer, traced as `ksyscall.<name>`.
macro_rules! sys {
    ($tr:expr, $name:literal, $e:expr) => {
        $tr.call(concat!("ksyscall.", $name), || $e)
    };
}

mod build;
mod db;
mod mail;
mod report;
mod stats;
mod trace;
mod web;

use std::hint::black_box;
use std::time::{Duration, Instant};

use report::{Outcome, PhaseCounts};
use stats::{fifo_replay, median, LoadResult};
use trace::{Probe, Tracer};

/// Open-loop and sizing parameters of one workload, fixed once from the
/// first measurements (see README.md).
pub struct Params {
    /// Ops the simulated metrics cover; the same count on every run.
    pub sim_ops: usize,
    /// Ops the traced run covers (spans are kept in memory), and the
    /// prefix the printed simulation hash covers in either mode.
    pub trace_ops: usize,
    /// Nominal open-loop rate, ops per simulated second.
    pub nominal: f64,
    /// Fixed rate ladder for `sim_max_ops_per_s`, ascending.
    pub ladder: &'static [f64],
    /// p99 latency limit on the ladder, simulated microseconds.
    pub p99_limit_us: f64,
    /// Set-ups per run, the spares spread over the run after the simulated
    /// prefix; `setup_s` is the fastest.
    pub setups: usize,
}

/// Arrival streams pooled per open-loop replay.
const REPLAYS: u64 = 32;

/// A workload: built by `setup`, then driven one `step` at a time.
pub trait Workload: Sized {
    const NAME: &'static str;
    const PARAMS: Params;
    /// The op span around which `sim_record` holds the workload's own
    /// clock reading of each op, for the workloads that keep one.
    const SERVICE_SPAN: Option<&'static str> = None;

    /// Everything before the first timed op.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// Counter handles for the tracer and the phase deltas; samples of
    /// successive probes never go backwards.
    fn probe(&self) -> Probe;
    /// Run the next op (or, for the batching server, the next batch) and
    /// return how many ops completed.
    fn step(&mut self, tr: &mut Tracer) -> usize;
    /// Ops completed so far.
    fn done(&self) -> usize;
    /// Ops that failed their output check so far.
    fn failed(&self) -> u64;
    /// Simulated service cycles of each op so far (FIFO workloads), or
    /// open-loop latencies at the nominal rate (the batching server).
    fn sim_record(&self) -> &[u64];
    /// Checks that need the timed phase to be over; returns failures.
    fn finish(&mut self) -> u64;
    /// Simulated closed-loop capacity and the ladder, for workloads that
    /// cannot replay a FIFO queue (default: replay `sim_record`).
    fn open_loop(&self, seed: u64) -> OpenLoop {
        let p = Self::PARAMS;
        let service = &self.sim_record()[..p.sim_ops];
        let busy: u64 = service.iter().sum();
        // Several seeded arrival streams over the one measured service
        // sequence, pooled: the tail then reflects the service times more
        // than one stream's luck.
        let streams: Vec<Vec<f64>> = (0..REPLAYS)
            .map(|k| stats::unit_arrivals(seed ^ (0xA11 + k), service.len()))
            .collect();
        let at = |rate: f64| {
            LoadResult::pooled(
                streams
                    .iter()
                    .map(|u| fifo_replay(&stats::at_rate(u, rate), service))
                    .collect(),
            )
        };
        OpenLoop {
            capacity: p.sim_ops as f64 * stats::HZ / busy as f64,
            nominal: at(p.nominal),
            ladder: p.ladder.iter().map(|&r| (r, at(r))).collect(),
            extra_ops: 0,
            extra_failed: 0,
        }
    }
    /// Bench-side counts the per-layer metrics need beyond the probe.
    fn phase_extra(&self) -> [u64; 2] {
        [0, 0]
    }
}

/// Simulated open-loop results.
pub struct OpenLoop {
    /// Closed-loop capacity, ops per simulated second.
    pub capacity: f64,
    pub nominal: LoadResult,
    pub ladder: Vec<(f64, LoadResult)>,
    /// Ops run (and failed) outside the timed stream, e.g. ladder rungs.
    pub extra_ops: u64,
    pub extra_failed: u64,
}

impl OpenLoop {
    pub fn max_rate(&self, limit_us: f64) -> f64 {
        self.ladder
            .iter()
            .filter(|(_, r)| r.meets(limit_us))
            .map(|&(rate, _)| rate)
            .fold(0.0, f64::max)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{k} {v}: {e}"));
        match k.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?.clamp(1, 600),
            "--trace" => a.trace = num(&v)? != 0,
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "web" => run::<web::Web>(&args),
        "mail" => run::<mail::Mail>(&args),
        "db" => run::<db::Db>(&args),
        "build" => run::<build::Build>(&args),
        w => {
            eprintln!("kbench: unknown workload {w:?} (web, mail, db, build)");
            std::process::exit(2);
        }
    };
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

/// A fixed slice of host work timed between windows: tells a slow host
/// from slow code, and scales the host metrics to one machine speed.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const WINDOW: Duration = Duration::from_millis(20);

/// The calibration loop's usual median on the 2-vCPU machine the
/// benchmark was sized on. Host metrics are scaled by the run's median
/// over this: between runs the machine's base speed drifts by 15% and
/// more, and the loop follows that drift (see README.md).
const REFERENCE_CALIBRATION_NS: f64 = 450_000.0;

/// The end-to-end run: set-up, the timed stream with host windows and the
/// other set-ups between them, then the simulated open-loop metrics.
fn untraced<W: Workload>(args: &Args) -> Outcome {
    let p = W::PARAMS;
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(p.setups);
    let t = Instant::now();
    let mut w = W::setup(args.seed, &mut off);
    setup_s.push(t.elapsed().as_secs_f64());

    let s0 = w.probe().sample();
    let e0 = w.phase_extra();
    let mut s1 = None;
    let mut rss = None;
    let mut spares_from = 0.0;
    let mut hash = None;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut rates = Vec::new();
    let mut calib = Vec::new();
    while start.elapsed() < budget || rss.is_none() {
        let t = Instant::now();
        let mut ops = 0usize;
        while t.elapsed() < WINDOW {
            ops += w.step(&mut off);
            if hash.is_none() && w.done() >= p.trace_ops {
                let phase =
                    PhaseCounts::new(&s0, &w.probe().sample(), e0, w.phase_extra(), w.done());
                hash = Some(report::sim_hash(&w.sim_record()[..p.trace_ops], &phase));
            }
            if s1.is_none() && w.done() >= p.sim_ops {
                s1 = Some((w.probe().sample(), w.phase_extra(), w.done()));
            }
        }
        rates.push(ops as f64 / t.elapsed().as_secs_f64());
        calib.push(calibrate());
        // Read once the prefix is done and before any spare set-up: the
        // stream past the prefix may keep growing, and the spares are the
        // benchmark's memory, not the workload's.
        if s1.is_some() && rss.is_none() {
            rss = Some(peak_rss_mib());
            spares_from = start.elapsed().as_secs_f64();
        }
        // The other set-ups are spread evenly over the rest of the run,
        // between windows, so that some of them meet the host in its fast
        // state.
        let left = budget.as_secs_f64() - spares_from;
        while rss.is_some()
            && setup_s.len() < p.setups
            && (start.elapsed().as_secs_f64() - spares_from) * p.setups as f64
                >= setup_s.len() as f64 * left
        {
            let t = Instant::now();
            let spare = W::setup(args.seed, &mut off);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(spare);
        }
    }
    let (s1, extra, prefix_ops) = s1.expect("loop ends after the prefix");
    let rss = rss.expect("read with the prefix");
    let hash = hash.expect("the traced prefix is inside the simulated one");
    let replay = Instant::now();
    let ol = w.open_loop(args.seed);
    let replay = replay.elapsed().as_secs_f64();
    let attempted = w.done() as u64 + ol.extra_ops;
    let failed = w.failed() + w.finish() + ol.extra_failed;
    let phase = PhaseCounts::new(&s0, &s1, e0, extra, prefix_ops);
    let busy = [
        phase.d[trace::c::USER],
        phase.d[trace::c::SYS],
        phase.d[trace::c::IO],
    ];

    // Medians of each quarter of the run, in time order: drift shows here.
    let quarters: Vec<String> = rates
        .chunks(rates.len().div_ceil(4))
        .map(|q| format!("{:.0}", median(&mut q.to_vec())))
        .collect();
    // Host time is the fastest window and the fastest set-up: this shared
    // machine moves between states about 1.5x apart for seconds to minutes
    // at a time, and a median flips with the share of a run each state
    // took. Short windows also catch the brief fast spells inside a slow
    // stretch. Both are then scaled to the reference machine speed (see
    // README.md).
    let mid = median(&mut rates);
    let fastest = rates[rates.len() - 1];
    let cal = median(&mut calib);
    let slowdown = cal / REFERENCE_CALIBRATION_NS;
    let host = fastest * slowdown;
    let first_setup = setup_s[0];
    let setup_mid = median(&mut setup_s);
    let setup = setup_s[0] / slowdown;
    println!(
        "set-up: {} runs, fastest {:.5} s, median {setup_mid:.5}, slowest {:.5}, first {first_setup:.5}",
        setup_s.len(),
        setup_s[0],
        setup_s[setup_s.len() - 1]
    );
    println!(
        "host windows: fastest {fastest:.0} ops/s, median {mid:.0}, slowest {:.0}; medians by quarter {}",
        rates[0],
        quarters.join(", ")
    );
    println!(
        "machine speed: calibration loop median {cal:.0} ns vs {REFERENCE_CALIBRATION_NS:.0} reference; scaled, fastest window {host:.0} ops/s, fastest set-up {setup:.5} s"
    );
    println!(
        "kbench {} seed {}: {} ops in {:.1} s, {} windows of {} ms, open loop {replay:.1} s; calibration loop median {:.0} ns",
        W::NAME,
        args.seed,
        w.done(),
        start.elapsed().as_secs_f64(),
        rates.len(),
        WINDOW.as_millis(),
        cal
    );
    println!("generator lateness: 0 by construction (arrivals are seeded Poisson times in simulated time)");
    println!("error rate {failed}/{attempted} (reported as success_rate = 1 - error rate)");
    report::print_open_loop(&ol, p.p99_limit_us);
    println!(
        "simulated prefix: {prefix_ops} ops, user/sys/io cycles {busy:?}; sim hash over the first {} ops {hash:016x}",
        p.trace_ops
    );
    Outcome::end_to_end(attempted, failed, setup, &ol, p.p99_limit_us, host, rss)
}

/// The per-layer run: the same seed untraced, then traced; both must give
/// identical simulated numbers.
fn traced<W: Workload>(args: &Args) -> Outcome {
    let p = W::PARAMS;
    let run_prefix = |w: &mut W, tr: &mut Tracer| {
        let s0 = w.probe().sample();
        let e0 = w.phase_extra();
        let t = Instant::now();
        while w.done() < p.trace_ops {
            w.step(tr);
        }
        let ns = t.elapsed().as_nanos() as f64;
        let phase = PhaseCounts::new(&s0, &w.probe().sample(), e0, w.phase_extra(), w.done());
        (ns, phase)
    };

    // Two untraced passes: the first pays the process's cold start, the
    // second is the baseline for the tracing overhead.
    let mut off = Tracer::new(false);
    let mut plain_failed = 0;
    let mut plain_hashes = Vec::new();
    let mut plain_ns = 0.0;
    for _ in 0..2 {
        let mut plain = W::setup(args.seed, &mut off);
        let (ns, phase) = run_prefix(&mut plain, &mut off);
        plain_hashes.push(report::sim_hash(&plain.sim_record()[..p.trace_ops], &phase));
        plain_failed += plain.failed();
        plain_ns = ns;
    }
    let plain_hash = plain_hashes[0];

    let mut tr = Tracer::new(true);
    let mut w = W::setup(args.seed, &mut tr);
    let setup_spans = std::mem::take(&mut tr.spans);
    tr.set_probe(w.probe());
    tr.reset();
    let first_op = w.done();
    let (traced_ns, phase) = run_prefix(&mut w, &mut tr);
    let hash = report::sim_hash(&w.sim_record()[..p.trace_ops], &phase);
    let failed = plain_failed + w.failed() + w.finish();

    let dump =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("trace/{}.tsv", W::NAME));
    if let Err(e) = tr.dump(&dump) {
        eprintln!("kbench: could not write {}: {e}", dump.display());
    }
    let closes = report::print_cycle_rows(&tr, &phase);
    let agrees = match W::SERVICE_SPAN {
        Some(name) => report::check_service(&tr, name, &w.sim_record()[first_op..w.done()]),
        None => {
            println!("  no per-op clock reading of its own to check the op spans against");
            true
        }
    };
    let overhead = traced_ns / plain_ns - 1.0;
    println!(
        "tracing overhead {:.1}% ({:.3} s traced vs {:.3} s untraced); sim hash untraced {plain_hash:016x} traced {hash:016x}; spans -> {}",
        overhead * 100.0,
        traced_ns / 1e9,
        plain_ns / 1e9,
        dump.display()
    );
    let same = plain_hashes.iter().all(|&h| h == hash);
    if !same {
        println!("FAIL: tracing perturbed the simulation");
    }
    let attempted = 3 * phase.ops;
    let mut out = Outcome::per_layer(attempted, failed, &phase, &tr, &setup_spans, overhead);
    out.correct &= same && closes && agrees;
    out
}
