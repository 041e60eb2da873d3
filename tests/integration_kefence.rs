//! Integration: Kefence under the real workloads (§3.2's evaluation
//! design) — clean runs are clean, injected bugs are caught, overhead
//! stays in the small single digits on the CPU-bound compile.

use kucode::prelude::*;

#[test]
fn compile_workload_runs_clean_under_kefence() {
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let cfg = CompileConfig {
        source_files: 20,
        header_count: 10,
        headers_per_file: 5,
        ..Default::default()
    };
    let r = run_compile(&rig, &p, &cfg);
    assert_eq!(r.files_compiled, 20);
    assert!(kef.violations().is_empty(), "{:?}", kef.violations());
    let (allocs, frees, _) = kef.counters();
    assert!(allocs > 200);
    assert!(frees > 0);
    assert!(kef.max_outstanding_pages() > 0);
}

#[test]
fn kefence_overhead_on_compile_is_small_single_digits() {
    let cfg = CompileConfig {
        source_files: 30,
        header_count: 12,
        headers_per_file: 6,
        ..Default::default()
    };

    let base = {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        run_compile(&rig, &p, &cfg).elapsed.elapsed()
    };
    let guarded = {
        let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
        let p = rig.user(1 << 16);
        let e = run_compile(&rig, &p, &cfg).elapsed.elapsed();
        assert!(kef.violations().is_empty());
        e
    };
    let overhead = overhead_pct(base, guarded);
    assert!(
        (0.0..10.0).contains(&overhead),
        "paper measured 1.4%; simulated overhead {overhead:.2}% ({base} → {guarded})"
    );
}

#[test]
fn injected_overflow_is_caught_under_kefence_but_not_kmalloc() {
    // kmalloc: silent.
    let rig = Rig::wrapfs_kmalloc();
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    let fd = rig.sys.sys_open(p.pid, "/x", OpenFlags::WRONLY | OpenFlags::CREAT);
    assert!(fd >= 0, "slab rounding hides the off-by-one");
    rig.sys.sys_close(p.pid, fd as i32);

    // Kefence: guard fault surfaces as EFAULT at the syscall boundary.
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    let ret = rig.sys.sys_open(p.pid, "/x", OpenFlags::WRONLY | OpenFlags::CREAT);
    assert_eq!(ret, -14, "EFAULT from the guardian PTE");
    let v = kef.violations();
    assert!(!v.is_empty());
    assert_eq!(v[0].kind, kucode::kefence::ViolationKind::Overflow);
    assert_eq!(v[0].size, kucode::kvfs::wrapfs::PRIVATE_DATA_BYTES);
    assert_eq!(
        v[0].addr,
        v[0].alloc_base + v[0].size as u64,
        "flagged at exactly one byte past the end"
    );
}

#[test]
fn log_mode_lets_the_workload_finish_while_recording() {
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::LogRw, Protect::Overflow);
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    for i in 0..10 {
        let fd = rig.sys.sys_open(p.pid, &format!("/f{i}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0, "LogRw mode absorbs the overflow");
        rig.sys.sys_close(p.pid, fd as i32);
    }
    assert_eq!(kef.violations().len(), 10, "one violation per private-data alloc");
}

#[test]
fn kefence_memory_cost_is_page_granular() {
    // The paper's trade-off: 80-byte allocations consume whole pages.
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let cfg = PostmarkConfig {
        file_count: 30,
        transactions: 60,
        subdirs: 3,
        min_size: 256,
        max_size: 1_024,
        ..Default::default()
    };
    run_postmark(&rig, &p, &cfg);
    // Average Wrapfs allocation is small (page buffers skew it up from the
    // 80-byte private data), yet every allocation burned ≥1 page.
    let (allocs, _, bytes) = kef.counters();
    let avg = bytes as f64 / allocs as f64;
    assert!(avg < 4096.0, "avg alloc {avg:.0} B");
    assert!(kef.max_outstanding_pages() >= 30, "one page per live private data");
}

#[test]
fn dropping_a_kefence_rig_frees_its_machine() {
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let cfg =
        CompileConfig { source_files: 4, header_count: 4, headers_per_file: 2, ..Default::default() };
    run_compile(&rig, &p, &cfg);
    let machine = std::sync::Arc::downgrade(&rig.machine);
    drop(rig);
    assert!(machine.upgrade().is_some(), "the Kefence handle still holds the machine");
    drop(kef);
    assert!(machine.upgrade().is_none(), "the machine outlived every handle: a reference cycle");
}
