//! `build`: an Am-utils-style compile over Wrapfs whose allocations go
//! through Kefence guard pages, with a KGCC-instrumented file-system
//! module running on the kclang VM once per 4 KiB moved.
//!
//! One op is one translation unit: stat and read the source, stat and
//! read its headers, compile (user CPU), write the object. The module
//! runs under the optimized check plan with dynamic deinstrumentation:
//! sites disable themselves after clean executions, and the module is
//! re-patched every `PATCH_EVERY` units. Its results must equal an
//! uninstrumented reference run.

use std::collections::HashMap;
use std::sync::Arc;

use kclang::bytecode::Module;
use kclang::{parse_program, typecheck, ExecConfig, Vm};
use kefence::{Kefence, OnViolation, Protect};
use kgcc::{
    apply_deinstrumentation, compile_planned, CheckPlan, Deinstrument, KgccConfig, KgccHook,
};
use ksim::{AsId, Machine, MachineConfig, PteFlags, PAGE_SIZE};
use ksyscall::OpenFlags;
use kworkloads::{Rig, UserProc};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::trace::{c, Probe, Sample, Tracer};
use crate::{Params, Workload};

/// The module's per-operation work: hash a name, fill and checksum a
/// block it allocates.
const MODULE: &str = r#"
    int fs_op(int words) {
        char name[28];
        int i;
        for (i = 0; i < 27; i = i + 1) { name[i] = 'a' + i % 26; }
        name[27] = '\0';
        int h = 5381;
        for (i = 0; i < 27; i = i + 1) { h = h * 33 + name[i]; }
        int *block = malloc(words * 8);
        for (i = 0; i < words; i = i + 1) { block[i] = i * 7 + h; }
        int acc = 0;
        for (i = 0; i < words; i = i + 1) { acc = acc + block[i]; }
        free(block);
        return acc;
    }
"#;

const SOURCES: usize = 120;
const HEADERS: usize = 40;
const HEADERS_PER_UNIT: usize = 8;
const AVG_SOURCE: usize = 6 * 1024;
/// User cycles per KiB compiled.
const CPU_PER_KIB: u64 = 150_000;
const CHUNK: usize = 4096;
/// Module block sizes (words) vary with the data moved.
const MIN_WORDS: i64 = 32;
const WORD_SPAN: i64 = 96;
const DEINSTRUMENT_AFTER: u64 = 2_000;
const PATCH_EVERY: usize = 30;
const ARENA: u64 = 0x400_0000;
const ARENA_PAGES: usize = 32;

/// One build: a freshly booted kernel with the unpacked tree and the
/// module loaded. Kefence retires every freed range for good, so a build
/// is also the unit its bookkeeping is sized for.
struct Tree {
    rig: Rig,
    kefence: Arc<Kefence>,
    p: UserProc,
    hook: Arc<KgccHook>,
    module: Module,
    asid: AsId,
    sizes: Vec<usize>,
}

pub struct Build {
    tree: Tree,
    /// Counters of the builds already finished.
    base: Sample,
    module: Module,
    plan: CheckPlan,
    sites: usize,
    /// fs_op(words) on an uninstrumented module, by words.
    reference: HashMap<i64, i64>,
    seed: u64,
    builds: u64,
    next_src: usize,
    rng: SmallRng,
    moved: u64,
    runs: u64,
    violations: u64,
    service: Vec<u64>,
    failed: u64,
}

fn arena(m: &Machine) -> AsId {
    let asid = m.mem.create_space();
    for i in 0..ARENA_PAGES {
        m.mem
            .map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw())
            .expect("map arena");
    }
    asid
}

fn exec_cfg(asid: AsId) -> ExecConfig {
    ExecConfig {
        charge_sys: true,
        ..ExecConfig::flat(asid)
    }
}

impl Tree {
    fn new(
        module: &Module,
        plan: &CheckPlan,
        sites: usize,
        seed: u64,
        base: Sample,
        tr: &mut Tracer,
    ) -> Tree {
        let (rig, kefence) = tr.call("kworkloads.rig_wrapfs_kefence", || {
            Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow)
        });
        let hook = KgccHook::new(
            rig.machine.clone(),
            KgccConfig {
                charge_sys: true,
                plan: plan.clone(),
                deinstrument: Some(Deinstrument::new(DEINSTRUMENT_AFTER, sites)),
            },
        );
        let p = tr.call("ksim.spawn_process", || rig.user(64 * 1024));
        let mut rng = SmallRng::seed_from_u64(seed);
        let sizes = (0..SOURCES)
            .map(|_| AVG_SOURCE / 2 + rng.gen_range(0..AVG_SOURCE))
            .collect();
        let asid = tr.call("ksim.map_arena", || arena(&rig.machine));
        let t = Tree {
            rig,
            kefence,
            p,
            hook,
            module: module.clone(),
            asid,
            sizes,
        };
        tr.set_probe(t.probe(base));

        // Unpack: every file is written from one staged block.
        let (sys, pid) = (&t.rig.sys, t.p.pid);
        let mut block = vec![0u8; CHUNK];
        rng.fill_bytes(&mut block);
        let mem = &t.rig.machine.mem;
        let uasid = t.rig.machine.proc_asid(pid).expect("compiler alive");
        tr.call("ksim.write_virt", || mem.write_virt(uasid, t.p.buf, &block))
            .expect("stage");
        for d in ["/src", "/include", "/obj"] {
            assert_eq!(sys!(tr, "sys_mkdir", sys.sys_mkdir(pid, d)), 0);
        }
        for h in 0..HEADERS {
            assert!(t.write_file(tr, &format!("/include/h{h}.h"), header_size(h)));
        }
        for (s, &size) in t.sizes.iter().enumerate() {
            assert!(t.write_file(tr, &format!("/src/f{s}.c"), size));
        }
        t
    }

    fn probe(&self, base: Sample) -> Probe {
        Probe {
            base,
            machine: Some(self.rig.machine.clone()),
            dev: Some(self.rig.dev.clone()),
            vfs: Some(self.rig.vfs.clone()),
            sys: Some(self.rig.sys.clone()),
            kgcc: Some(self.hook.clone()),
            kefence: Some(self.kefence.clone()),
            ..Probe::default()
        }
    }

    fn violations(&self) -> u64 {
        self.kefence.violations().len() as u64 + self.hook.report().violations
    }

    fn write_file(&self, tr: &mut Tracer, path: &str, size: usize) -> bool {
        let (sys, pid) = (&self.rig.sys, self.p.pid);
        let fd = sys!(
            tr,
            "sys_open",
            sys.sys_open(
                pid,
                path,
                OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC
            )
        );
        if fd < 0 {
            return false;
        }
        let mut ok = true;
        let mut left = size;
        while left > 0 {
            let n = left.min(CHUNK);
            ok &= sys!(
                tr,
                "sys_write",
                sys.sys_write(pid, fd as i32, self.p.buf, n)
            ) == n as i64;
            left -= n;
        }
        ok & (sys!(tr, "sys_close", sys.sys_close(pid, fd as i32)) == 0)
    }

    /// Stat and read a whole file; the bytes read, or `None` on an error.
    fn read_file(&self, tr: &mut Tracer, path: &str, size: usize) -> Option<u64> {
        let (sys, pid) = (&self.rig.sys, self.p.pid);
        let stat_at = self.p.buf + 2 * CHUNK as u64;
        if sys!(tr, "sys_stat", sys.sys_stat(pid, path, stat_at)) != 0 {
            return None;
        }
        let fd = sys!(tr, "sys_open", sys.sys_open(pid, path, OpenFlags::RDONLY));
        if fd < 0 {
            return None;
        }
        let mut got = 0u64;
        loop {
            let n = sys!(
                tr,
                "sys_read",
                sys.sys_read(pid, fd as i32, self.p.buf + CHUNK as u64, CHUNK)
            );
            if n <= 0 {
                break;
            }
            got += n as u64;
        }
        let closed = sys!(tr, "sys_close", sys.sys_close(pid, fd as i32)) == 0;
        (closed && got == size as u64).then_some(got)
    }

    /// One module invocation under KGCC.
    fn run_module(&self, tr: &mut Tracer, words: i64) -> Option<i64> {
        let m = &self.rig.machine;
        let vm = tr.call("kclang.vm_new", || {
            Vm::new(
                m,
                &self.module,
                exec_cfg(self.asid),
                ARENA,
                ARENA_PAGES * PAGE_SIZE,
            )
        });
        let mut vm = vm.ok()?;
        vm.set_hook(self.hook.as_ref());
        tr.call("kclang.vm_run", || vm.run("fs_op", &[words]))
            .ok()
            .map(|o| o.ret)
    }
}

impl Build {
    fn unit(&mut self, tr: &mut Tracer) -> bool {
        let src = self.next_src;
        self.next_src += 1;
        let t = &self.tree;
        let mut ok = true;
        let mut moved = 0u64;
        let size = t.sizes[src];
        match t.read_file(tr, &format!("/src/f{src}.c"), size) {
            Some(n) => moved += n,
            None => ok = false,
        }
        for _ in 0..HEADERS_PER_UNIT {
            let h = self.rng.gen_range(0..HEADERS);
            match t.read_file(tr, &format!("/include/h{h}.h"), header_size(h)) {
                Some(n) => moved += n,
                None => ok = false,
            }
        }
        let m = &t.rig.machine;
        tr.call("ksim.charge_user", || {
            m.charge_user(CPU_PER_KIB * (size as u64).div_ceil(1024))
        });
        let obj = size * 6 / 10;
        ok &= t.write_file(tr, &format!("/obj/f{src}.o"), obj);
        moved += obj as u64;

        // The module's work accompanies every 4 KiB moved.
        let before = self.moved / CHUNK as u64;
        self.moved += moved;
        for k in before..self.moved / CHUNK as u64 {
            let words = MIN_WORDS + (k.wrapping_mul(0x9e37_79b9) >> 7) as i64 % WORD_SPAN;
            let r = t.run_module(tr, words);
            self.runs += 1;
            ok &= r.is_some() && r.as_ref() == self.reference.get(&words);
        }
        if self.next_src.is_multiple_of(PATCH_EVERY) {
            let t = &mut self.tree;
            let policy = t.hook.deinstrument().expect("deinstrumentation on");
            tr.call("kgcc.apply_deinstrumentation", || {
                apply_deinstrumentation(&mut t.module, policy)
            });
        }
        ok
    }

    /// Each build unpacks a tree of its own.
    fn tree_seed(&self) -> u64 {
        self.seed ^ self.builds.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Retire the finished build and boot the next.
    fn rebuild(&mut self, tr: &mut Tracer) {
        let base = self.probe().sample();
        self.violations += self.tree.violations();
        self.builds += 1;
        self.tree = Tree::new(
            &self.module,
            &self.plan,
            self.sites,
            self.tree_seed(),
            base,
            tr,
        );
        self.base = base;
        self.next_src = 0;
    }
}

fn header_size(h: usize) -> usize {
    1024 + (h % 7) * 512
}

impl Workload for Build {
    const NAME: &'static str = "build";
    const PARAMS: Params = Params {
        sim_ops: 10_200,
        trace_ops: 2_400,
        nominal: 440.0,
        ladder: &[
            300.0, 325.0, 350.0, 375.0, 400.0, 425.0, 450.0, 475.0, 500.0, 525.0, 550.0, 575.0,
            600.0, 625.0, 650.0, 675.0, 700.0,
        ],
        p99_limit_us: 30000.0,
        setups: 201,
    };
    const SERVICE_SPAN: Option<&'static str> = Some("bench.build_unit");

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let prog = tr
            .call("kclang.parse", || parse_program(MODULE))
            .expect("module parses");
        let info = tr
            .call("kclang.typecheck", || typecheck(&prog))
            .expect("module typechecks");
        let plan = tr.call("kgcc.check_plan", || CheckPlan::optimized(&prog, &info));
        let module = tr
            .call("kgcc.compile_planned", || {
                compile_planned(&prog, &info, &plan)
            })
            .expect("compiles");

        // The reference: the same source compiled without checks, run on
        // a machine of its own so it costs the measured one nothing.
        let ref_machine = Machine::new(MachineConfig::default());
        let plain = kclang::bytecode::compile(&prog, &info).expect("compiles");
        let ref_asid = arena(&ref_machine);
        let reference = (MIN_WORDS..MIN_WORDS + WORD_SPAN)
            .map(|w| {
                let mut vm = Vm::new(
                    &ref_machine,
                    &plain,
                    exec_cfg(ref_asid),
                    ARENA,
                    ARENA_PAGES * PAGE_SIZE,
                )
                .expect("reference vm");
                (w, vm.run("fs_op", &[w]).expect("reference run").ret)
            })
            .collect();

        let sites = prog.max_expr_id as usize + 1;
        let tree = Tree::new(&module, &plan, sites, seed, [0; c::N], tr);
        Build {
            tree,
            base: [0; c::N],
            module,
            plan,
            sites,
            reference,
            seed,
            builds: 0,
            next_src: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0xB1D),
            moved: 0,
            runs: 0,
            violations: 0,
            service: Vec::new(),
            failed: 0,
        }
    }

    fn probe(&self) -> Probe {
        self.tree.probe(self.base)
    }

    fn step(&mut self, tr: &mut Tracer) -> usize {
        let id = self.service.len() as u64;
        if self.next_src == SOURCES {
            tr.op("bench.build_rebuild", id, |tr| self.rebuild(tr));
            return 0;
        }
        let k0 = self.tree.rig.machine.clock.snapshot();
        let ok = tr.op("bench.build_unit", id, |tr| self.unit(tr));
        self.service
            .push(self.tree.rig.machine.clock.since(k0).elapsed());
        self.failed += u64::from(!ok);
        1
    }

    fn done(&self) -> usize {
        self.service.len()
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn sim_record(&self) -> &[u64] {
        &self.service
    }

    /// Every Kefence and KGCC violation is a failure.
    fn finish(&mut self) -> u64 {
        let v = self.violations + self.tree.violations();
        println!(
            "build: {} builds, {} module runs, {v} Kefence and KGCC violations",
            self.builds + 1,
            self.runs
        );
        v
    }
}
