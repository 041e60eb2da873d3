//! A13: power-cut crash-consistency sweep + the price of durability.
//!
//! The journaled file system's headline claim, measured: kill the kernel
//! at **every** guarded block write of a fixed workload — journal record
//! writes, commit blocks, data writeback, clean cuts and torn mid-block
//! writes alike — then remount, replay, and check the recovered tree
//! against the op log's legal prefixes. Three results:
//!
//! 1. **Recovery** — every kill point recovers with zero invariant
//!    violations (committed ops durable, uncommitted absent, no dangling
//!    extents or orphaned inodes), in both clean-cut and torn-write mode.
//! 2. **Determinism** — the whole sweep reduces to one `TRACE_HASH` word;
//!    CI runs the binary twice and diffs.
//! 3. **Durability cost** — PostMark with the mail-server fsync
//!    discipline on kjfs vs buffered kjfs vs MemFs, and the web server
//!    proving the sendfile path serves byte-identical documents from the
//!    journaled fs.
//!
//! `--quick` skips nothing: the sweep *is* the result, and it is fast.

use bench::{banner, Report};
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig};
use kucode::prelude::*;

/// FNV-1a accumulator for the whole-run `TRACE_HASH`.
fn mix(agg: u64, word: u64) -> u64 {
    kucode::ksim::fnv1a_continue(agg, &word.to_le_bytes())
}

fn mode_label(mode: JournalMode) -> &'static str {
    match mode {
        JournalMode::SingleTxn => "single-txn",
        JournalMode::Pipelined => "pipelined",
        JournalMode::GroupCommit => "group-commit",
    }
}

/// Sweep every kill point of `ops` under `cfg`, clean-cut and torn, and
/// fold both sweep hashes into the whole-run aggregate.
fn sweep_one(
    report: &mut Report,
    agg: &mut u64,
    label: &str,
    ops: Vec<WOp>,
    cfg: KjfsConfig,
) -> u64 {
    let harness = Harness::new(ops, cfg).expect("clean run agrees with model");
    let mut recovered = 0u64;
    let mut points = 0u64;
    let mut violations = 0u64;
    for torn in [false, true] {
        let s = harness.sweep(torn);
        println!(
            "{:<26} {:<10} {:>12} {:>12} {:>18x}",
            label,
            if torn { "torn" } else { "clean" },
            s.write_points,
            s.violations,
            s.sweep_hash
        );
        recovered += s.outcomes.iter().filter(|o| o.matched_prefix.is_some()).count() as u64;
        points += s.write_points;
        violations += s.violations;
        *agg = mix(*agg, s.sweep_hash);
    }
    report.add(
        "A13",
        &format!("{label}: every kill point recovers"),
        "0 violations",
        format!("{recovered}/{points} points, {violations} violations"),
        violations == 0 && recovered == points,
    );
    points
}

fn crash_sweep(report: &mut Report, agg: &mut u64) -> u64 {
    println!(
        "{:<26} {:<10} {:>12} {:>12} {:>18}",
        "workload", "cut", "kill points", "violations", "sweep hash"
    );
    let mut total_points = 0u64;
    // The fixed 50-op workload under every journal mode: the kill points
    // land inside every pipeline stage (ordered writeback, journal-record
    // runs, commit blocks, deferred checkpoints with a stale running txn).
    for mode in [JournalMode::SingleTxn, JournalMode::Pipelined, JournalMode::GroupCommit] {
        total_points += sweep_one(
            report,
            agg,
            &format!("50-op mix, {}", mode_label(mode)),
            default_workload(),
            KjfsConfig::small().with_mode(mode),
        );
    }
    // The multi-block-directory workload: 80 long names push one directory
    // past the single-block boundary and mass unlinks shrink it back.
    total_points += sweep_one(
        report,
        agg,
        "dir extents, group-commit",
        dir_boundary_workload(),
        KjfsConfig::small(),
    );
    total_points
}

fn durability_cost(report: &mut Report) {
    let pm = PostmarkConfig {
        file_count: 80,
        transactions: 300,
        subdirs: 4,
        min_size: 256,
        max_size: 4_096,
        ..Default::default()
    };
    let run = |rig: Rig, fsync: bool| {
        let p = rig.user(1 << 16);
        let r = run_postmark(&rig, &p, &PostmarkConfig { fsync_per_file: fsync, ..pm.clone() });
        (r.elapsed.elapsed(), r.stats.disk_writes, r.fsyncs)
    };
    let (mem_cyc, mem_writes, _) = run(Rig::memfs(), false);
    let (buf_cyc, buf_writes, _) = run(Rig::kjfs(), false);
    let (dur_cyc, dur_writes, fsyncs) = run(Rig::kjfs(), true);
    println!("\n{:<28} {:>14} {:>12} {:>8}", "postmark", "cycles", "disk writes", "fsyncs");
    for (name, cyc, w, f) in [
        ("memfs (no durability)", mem_cyc, mem_writes, 0),
        ("kjfs buffered", buf_cyc, buf_writes, 0),
        ("kjfs fsync-per-file", dur_cyc, dur_writes, fsyncs),
    ] {
        println!("{name:<28} {cyc:>14} {w:>12} {f:>8}");
    }
    report.add(
        "A13",
        "fsync discipline costs real disk writes",
        "durable > buffered > memfs",
        format!("{dur_writes} > {buf_writes} > {mem_writes} writes"),
        dur_writes > buf_writes && buf_writes > mem_writes,
    );
    report.add(
        "A13",
        "journaling overhead is bounded",
        "durable < 10x buffered cycles",
        format!("{:.2}x", dur_cyc as f64 / buf_cyc.max(1) as f64),
        dur_cyc < 10 * buf_cyc.max(1),
    );
}

fn serve_from_kjfs(report: &mut Report) {
    let cfg = WebConfig {
        documents: 20,
        requests: 96,
        doc_min: 1_024,
        doc_max: 8_192,
        connections: 8,
        ..Default::default()
    };
    let run = |rig: Rig| {
        let p = rig.user(1 << 16);
        setup_docs(&rig, &p, &cfg);
        serve(&rig, &p, &cfg, ServeMode::Consolidated).bytes_served
    };
    let mem = run(Rig::memfs());
    let kj = run(Rig::kjfs());
    report.add(
        "A13",
        "webserver serves kjfs docs via sendfile",
        "byte-identical to memfs",
        format!("{kj} vs {mem} bytes"),
        mem > 0 && mem == kj,
    );
}

pub fn run(report: &mut Report) {
    banner(
        "A13",
        "Power-cut crash sweep: journal replay at every write point",
    );
    let mut agg = kucode::ksim::FNV_OFFSET;
    let points = crash_sweep(report, &mut agg);
    durability_cost(report);
    serve_from_kjfs(report);
    // Machine lines for scripts/ci.sh: the guarded-write total (kill points
    // across all sweeps, clean + torn) and one word for the whole sweep —
    // CI runs the binary twice and diffs.
    println!("\nA13_SWEEP_POINTS {points}");
    println!("TRACE_HASH {agg:016x}");
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
