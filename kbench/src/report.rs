//! Metric assembly, the cycle-accounting table and the JSON result line.

use std::collections::BTreeMap;

use crate::stats::{cycles_to_us, highest_supported, median, valid_name, Fnv};
use crate::trace::{c, delta, Sample, Span, Tracer};
use crate::OpenLoop;

/// End-to-end metrics, as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_max_ops_per_s", "ops/s"),
    ("host_ops_per_s", "ops/s"),
    ("host_peak_rss_mb", "MiB"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("ksyscall.crossings_per_op", "count"),
    ("ksyscall.syscalls_per_op", "count"),
    ("ksyscall.copy_bytes_per_op", "bytes"),
    ("ksyscall.sys_cycles_per_op", "cycles"),
    ("ksyscall.call_host_ns", "ns"),
    ("ksim.user_cycles_per_op", "cycles"),
    ("ksim.io_cycles_per_op", "cycles"),
    ("ksim.page_faults_per_op", "count"),
    ("kvfs.dcache_hit_ratio", "fraction"),
    ("kvfs.blockdev_reads_per_op", "count"),
    ("kvfs.blockdev_writes_per_op", "count"),
    ("kvfs.blockdev_seeks_per_op", "count"),
    ("kjfs.commits_per_op", "count"),
    ("kjfs.journal_blocks_per_op", "count"),
    ("kjfs.checkpoint_runs_per_op", "count"),
    ("kjfs.checkpoint_dedup_ratio", "fraction"),
    ("kjfs.group_merges", "count"),
    ("kjfs.cache_hit_ratio", "fraction"),
    ("kjfs.readahead_useful_ratio", "fraction"),
    ("kjfs.evictions_per_op", "count"),
    ("knet.send_eagain_per_op", "count"),
    ("knet.refused", "count"),
    ("kuring.sqes_per_enter", "count"),
    ("kuring.enter_host_ns", "ns"),
    ("kuring.cq_overflows", "count"),
    ("cosy.ops_per_compound", "count"),
    ("cosy.cache_hit_ratio", "fraction"),
    ("cosy.submit_host_ns", "ns"),
    ("cosy.submit_sys_cycles", "cycles"),
    ("kclang.vm_run_host_ns", "ns"),
    ("kprog.hops_per_crossing", "count"),
    ("kprog.load_host_ns", "ns"),
    ("kprog.errors", "count"),
    ("kgcc.checks_per_op", "count"),
    ("kgcc.skipped_ratio", "fraction"),
    ("kefence.allocs_per_op", "count"),
    ("kefence.max_outstanding_pages", "count"),
    ("bench.self_host_ns", "ns"),
    ("bench.unattributed_cycles_per_op", "cycles"),
    ("bench.trace_overhead_ratio", "fraction"),
];

#[cfg(test)]
pub fn metric_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n)
}

/// Counter movement over the ops the simulated metrics cover.
pub struct PhaseCounts {
    pub d: Sample,
    /// `ring_enter` calls and SQEs the benchmark submitted.
    pub ring_enters: u64,
    pub ring_sqes: u64,
    pub ops: u64,
}

impl PhaseCounts {
    pub fn new(s0: &Sample, s1: &Sample, e0: [u64; 2], e1: [u64; 2], ops: usize) -> Self {
        let mut d = delta(s0, s1);
        d[c::KF_MAX_PAGES] = s1[c::KF_MAX_PAGES];
        PhaseCounts {
            d,
            ring_enters: e1[0] - e0[0],
            ring_sqes: e1[1] - e0[1],
            ops: ops as u64,
        }
    }

    fn per_op(&self, i: usize) -> f64 {
        ratio(self.d[i], self.ops)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One hash over everything simulated: the per-op record and every
/// counter delta. Equal seeds must give equal hashes.
pub fn sim_hash(record: &[u64], p: &PhaseCounts) -> u64 {
    let mut h = Fnv::default();
    for &v in record {
        h.u64(v);
    }
    for &v in &p.d {
        h.u64(v);
    }
    for v in [p.ring_enters, p.ring_sqes, p.ops] {
        h.u64(v);
    }
    h.0
}

pub fn print_open_loop(ol: &OpenLoop, limit_us: f64) {
    let row = |label: String, r: &crate::stats::LoadResult| {
        let us = |p: f64| {
            r.p(p)
                .map_or("-".to_string(), |c| format!("{:.1}", cycles_to_us(c)))
        };
        let top = highest_supported(r.lat.len(), &[50.0, 99.0, 99.9]).unwrap_or(0.0);
        println!(
            "  {label:<22} n={:<7} (to p{top}) p50 {:>10} us  p99 {:>10} us  p999 {:>10} us  backlog@end {:<5} {}",
            r.lat.len(),
            us(50.0),
            us(99.0),
            us(99.9),
            r.backlog_at_end,
            if r.meets(limit_us) { "ok" } else { "over" }
        );
    };
    println!(
        "closed-loop capacity {:.1} ops/s (simulated); p99 limit {limit_us} us",
        ol.capacity
    );
    row("nominal".to_string(), &ol.nominal);
    for (rate, r) in &ol.ladder {
        row(format!("ladder {rate} ops/s"), r);
    }
}

fn add3(dst: &mut [u64; 3], src: &[u64; 3]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Per-layer self cycles of the traced phase, plus an explicit
/// unattributed row (op spans' own cycles and cycles outside any span);
/// returns whether the rows sum to the clock total exactly and every span
/// closes against its children.
pub fn print_cycle_rows(tr: &Tracer, phase: &PhaseCounts) -> bool {
    let mut child = vec![[0u64; 3]; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            for (k, ix) in [c::USER, c::SYS, c::IO].into_iter().enumerate() {
                child[p as usize][k] += s.get(ix);
            }
        }
    }
    let mut spans_close = true;
    let mut rows: BTreeMap<&str, ([u64; 3], u64, u64)> = BTreeMap::new();
    let mut unattributed = tr.outside;
    for (i, s) in tr.spans.iter().enumerate() {
        for (k, ix) in [c::USER, c::SYS, c::IO].into_iter().enumerate() {
            spans_close &= s.self_cycles[k] + child[i][k] == s.get(ix);
        }
        if s.layer() == "bench" {
            add3(&mut unattributed, &s.self_cycles);
            continue;
        }
        let r = rows.entry(s.layer()).or_default();
        add3(&mut r.0, &s.self_cycles);
        r.1 += 1;
        r.2 += s.ns() - s.child_ns;
    }
    println!("where the cycles went (traced phase, {} ops):", phase.ops);
    println!(
        "  {:<14} {:>9} {:>16} {:>16} {:>16} {:>14}",
        "layer", "calls", "user", "sys", "io", "host self ms"
    );
    let mut sum = [0u64; 3];
    for (layer, (cy, calls, ns)) in &rows {
        println!(
            "  {layer:<14} {calls:>9} {:>16} {:>16} {:>16} {:>14.1}",
            cy[0],
            cy[1],
            cy[2],
            *ns as f64 / 1e6
        );
        add3(&mut sum, cy);
    }
    println!(
        "  {:<14} {:>9} {:>16} {:>16} {:>16}",
        "unattributed", "-", unattributed[0], unattributed[1], unattributed[2]
    );
    let total = [phase.d[c::USER], phase.d[c::SYS], phase.d[c::IO]];
    add3(&mut sum, &unattributed);
    println!(
        "  {:<14} {:>9} {:>16} {:>16} {:>16}",
        "clock total", "-", total[0], total[1], total[2]
    );
    let closes = sum == total && spans_close;
    println!(
        "  rows {} the clock total{}",
        if sum == total {
            "sum exactly to"
        } else {
            "DO NOT sum to"
        },
        if spans_close {
            ""
        } else {
            "; some span does not close against its children"
        }
    );
    closes
}

/// The check from outside the tracer: every `name` op span must hold
/// exactly the cycles the workload read off the machine clock around that
/// op (`service`, in op order). The cycle rows above sum to the clock
/// total by construction (they are gaps between successive samples of
/// one probe); this compares the tracer with a reading it did not take.
pub fn check_service(tr: &Tracer, name: &str, service: &[u64]) -> bool {
    let spans: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == name)
        .map(|s| s.get(c::USER) + s.get(c::SYS) + s.get(c::IO))
        .collect();
    let differ = spans.iter().zip(service).filter(|(a, b)| a != b).count();
    let agrees = spans.len() == service.len() && differ == 0;
    let in_ops: u64 = service.iter().sum();
    println!(
        "  {} {name} spans vs the workload's own clock reading around each op: {differ} differ; {in_ops} cycles in ops",
        spans.len()
    );
    if !agrees {
        println!("FAIL: op spans do not match the workload's per-op clock readings");
    }
    agrees
}

/// The result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        }
    }

    fn set(&mut self, names: &[(&'static str, &'static str)], name: &str, v: f64) {
        let &(n, unit) = names
            .iter()
            .find(|(n, _)| *n == name)
            .expect("declared metric");
        assert!(valid_name(n), "metric name {n}");
        self.metrics
            .push((n, if v.is_finite() { v } else { 0.0 }, unit));
    }

    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        attempted: u64,
        failed: u64,
        setup_s: f64,
        ol: &OpenLoop,
        limit_us: f64,
        host_ops_per_s: f64,
        rss_mib: f64,
    ) -> Self {
        let mut o = Outcome::new(attempted, failed);
        let pct = |p: f64| ol.nominal.p(p).map_or(0.0, cycles_to_us);
        let e = &END_TO_END;
        o.set(e, "setup_s", setup_s);
        o.set(e, "sim_ops_per_s", ol.capacity);
        o.set(e, "sim_p50_us", pct(50.0));
        o.set(e, "sim_p99_us", pct(99.0));
        o.set(e, "sim_p999_us", pct(99.9));
        o.set(e, "sim_max_ops_per_s", ol.max_rate(limit_us));
        o.set(e, "host_ops_per_s", host_ops_per_s);
        o.set(e, "host_peak_rss_mb", rss_mib);
        o.set(e, "success_rate", 1.0 - failed as f64 / o.attempted as f64);
        let n = ol.nominal.lat.len();
        if highest_supported(n, &[50.0, 99.0, 99.9]) != Some(99.9) || !ol.nominal.meets(limit_us) {
            println!("FAIL: the nominal rate must give a supported p999 within the p99 limit");
            o.correct = false;
        }
        o
    }

    pub fn per_layer(
        attempted: u64,
        failed: u64,
        ph: &PhaseCounts,
        tr: &Tracer,
        setup_spans: &[Span],
        overhead: f64,
    ) -> Self {
        let mut o = Outcome::new(attempted, failed);
        let d = &ph.d;
        let med_ns = |spans: &[Span], f: &dyn Fn(&Span) -> bool| {
            let mut v: Vec<f64> = spans
                .iter()
                .filter(|s| f(s))
                .map(|s| s.ns() as f64)
                .collect();
            median(&mut v)
        };
        let named = |n: &'static str| move |s: &Span| s.name == n;
        let submits: Vec<&Span> = tr
            .spans
            .iter()
            .filter(|s| s.name == "cosy.submit")
            .collect();
        let submit_sys: u64 = submits.iter().map(|s| s.get(c::SYS)).sum();
        let (bench_self, unattributed) = tr.spans.iter().filter(|s| s.layer() == "bench").fold(
            (0u64, tr.outside.iter().sum::<u64>()),
            |(ns, cy), s| {
                (
                    ns + s.ns() - s.child_ns,
                    cy + s.self_cycles.iter().sum::<u64>(),
                )
            },
        );
        let p = &PER_LAYER;
        o.set(p, "ksyscall.crossings_per_op", ph.per_op(c::CROSSINGS));
        o.set(p, "ksyscall.syscalls_per_op", ph.per_op(c::SYSCALLS));
        o.set(
            p,
            "ksyscall.copy_bytes_per_op",
            ratio(d[c::COPY_IN] + d[c::COPY_OUT], ph.ops),
        );
        o.set(p, "ksyscall.sys_cycles_per_op", ph.per_op(c::SYS));
        o.set(
            p,
            "ksyscall.call_host_ns",
            med_ns(&tr.spans, &|s| s.name.starts_with("ksyscall.sys_")),
        );
        o.set(p, "ksim.user_cycles_per_op", ph.per_op(c::USER));
        o.set(p, "ksim.io_cycles_per_op", ph.per_op(c::IO));
        o.set(p, "ksim.page_faults_per_op", ph.per_op(c::PAGE_FAULTS));
        o.set(
            p,
            "kvfs.dcache_hit_ratio",
            ratio(d[c::DC_HITS], d[c::DC_HITS] + d[c::DC_MISSES]),
        );
        o.set(p, "kvfs.blockdev_reads_per_op", ph.per_op(c::BD_READS));
        o.set(p, "kvfs.blockdev_writes_per_op", ph.per_op(c::BD_WRITES));
        o.set(p, "kvfs.blockdev_seeks_per_op", ph.per_op(c::BD_SEEKS));
        o.set(p, "kjfs.commits_per_op", ph.per_op(c::J_COMMITS));
        o.set(p, "kjfs.journal_blocks_per_op", ph.per_op(c::J_BLOCKS));
        o.set(p, "kjfs.checkpoint_runs_per_op", ph.per_op(c::J_CKPT_RUNS));
        o.set(
            p,
            "kjfs.checkpoint_dedup_ratio",
            ratio(
                d[c::J_DEDUP_SAVED],
                d[c::J_DEDUP_SAVED] + d[c::J_CKPT_BLOCKS],
            ),
        );
        o.set(p, "kjfs.group_merges", d[c::J_GROUP_MERGES] as f64);
        o.set(
            p,
            "kjfs.cache_hit_ratio",
            ratio(d[c::PC_HITS], d[c::PC_HITS] + d[c::PC_MISSES]),
        );
        o.set(
            p,
            "kjfs.readahead_useful_ratio",
            ratio(d[c::RA_HITS], d[c::RA_ISSUED]),
        );
        o.set(p, "kjfs.evictions_per_op", ph.per_op(c::EVICTIONS));
        o.set(p, "knet.send_eagain_per_op", ph.per_op(c::NET_EAGAIN));
        o.set(p, "knet.refused", d[c::NET_REFUSED] as f64);
        o.set(
            p,
            "kuring.sqes_per_enter",
            ratio(ph.ring_sqes, ph.ring_enters),
        );
        o.set(
            p,
            "kuring.enter_host_ns",
            med_ns(&tr.spans, &named("kuring.sys_ring_enter")),
        );
        o.set(p, "kuring.cq_overflows", d[c::CQ_OVERFLOWS] as f64);
        o.set(
            p,
            "cosy.ops_per_compound",
            ratio(d[c::COMPOUND_OPS], d[c::COMPOUNDS]),
        );
        o.set(
            p,
            "cosy.cache_hit_ratio",
            ratio(d[c::COSY_HITS], d[c::COSY_HITS] + d[c::COSY_MISSES]),
        );
        o.set(
            p,
            "cosy.submit_host_ns",
            med_ns(&tr.spans, &named("cosy.submit")),
        );
        o.set(
            p,
            "cosy.submit_sys_cycles",
            ratio(submit_sys, submits.len() as u64),
        );
        o.set(
            p,
            "kclang.vm_run_host_ns",
            med_ns(&tr.spans, &named("kclang.vm_run")),
        );
        o.set(
            p,
            "kprog.hops_per_crossing",
            ratio(d[c::PROG_RUNS], ph.ring_enters),
        );
        o.set(
            p,
            "kprog.load_host_ns",
            med_ns(setup_spans, &named("kprog.load")),
        );
        o.set(p, "kprog.errors", d[c::PROG_ERRORS] as f64);
        o.set(p, "kgcc.checks_per_op", ph.per_op(c::KGCC_EXEC));
        o.set(
            p,
            "kgcc.skipped_ratio",
            ratio(d[c::KGCC_SKIP], d[c::KGCC_EXEC] + d[c::KGCC_SKIP]),
        );
        o.set(p, "kefence.allocs_per_op", ph.per_op(c::KF_ALLOCS));
        o.set(
            p,
            "kefence.max_outstanding_pages",
            d[c::KF_MAX_PAGES] as f64,
        );
        o.set(p, "bench.self_host_ns", ratio(bench_self, ph.ops));
        o.set(
            p,
            "bench.unattributed_cycles_per_op",
            ratio(unattributed, ph.ops),
        );
        o.set(p, "bench.trace_overhead_ratio", overhead);
        o
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` in `BENCHMARK.json` that is not a workload must be
    /// one this program reports, and every reported metric must be listed.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: String = json.split_whitespace().collect();
        let mut listed: Vec<&str> = json
            .split("\"name\":\"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .filter(|n| !["web", "mail", "db", "build"].contains(n))
            .collect();
        let mut ours: Vec<&str> = metric_names().collect();
        listed.sort_unstable();
        ours.sort_unstable();
        assert_eq!(listed, ours);
        for (n, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\":\"{n}\",\"unit\":\"{unit}\"")),
                "{n} {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::new(10, 0);
        o.set(&END_TO_END, "setup_s", 0.5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
