//! `mail`: PostMark with an fsync per file on kjfs (group commit), one
//! delivery agent using classic system calls.
//!
//! Each transaction pairs a data op (read a whole file, or append and
//! `fdatasync`) with a namespace op (create and `fsync`, or unlink). Every
//! read is compared with the model of what was written; after the run a
//! power cut, remount and fsck must find every acknowledged byte.

use std::collections::BTreeMap;

use kjfs::{Kjfs, KjfsConfig};
use ksyscall::{OpenFlags, SyscallLayer};
use kworkloads::{Rig, UserProc};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::trace::{Probe, Tracer};
use crate::{Params, Workload};

const POOL: usize = 300;
const SUBDIRS: usize = 10;
const MIN_SIZE: usize = 512;
const MAX_SIZE: usize = 10_240;
const BLOCK: usize = 4096;
const CPU_PER_TX: u64 = 2_000;
/// Distinct write patterns staged in user memory; a file uses one.
const PATTERNS: usize = 8;
const READ_OFF: u64 = (PATTERNS * BLOCK) as u64;

pub struct Mail {
    rig: Rig,
    fs: std::sync::Arc<Kjfs>,
    p: UserProc,
    patterns: Vec<Vec<u8>>,
    rng: SmallRng,
    /// Live files: path → acknowledged content.
    files: BTreeMap<String, Vec<u8>>,
    names: Vec<String>,
    next_id: u64,
    service: Vec<u64>,
    failed: u64,
}

impl Mail {
    fn sys(&self) -> &SyscallLayer {
        &self.rig.sys
    }

    /// Create a file of random size, fsync it, close it. False on any
    /// unexpected result.
    fn create(&mut self, tr: &mut Tracer) -> bool {
        let dir = self.rng.gen_range(0..SUBDIRS);
        let path = format!("/s{dir}/pm{:07}", self.next_id);
        let pat = (self.next_id as usize) % PATTERNS;
        self.next_id += 1;
        let size = self.rng.gen_range(MIN_SIZE..=MAX_SIZE);
        let (sys, pid, buf) = (self.sys(), self.p.pid, self.p.buf);
        let fd = sys!(
            tr,
            "sys_open",
            sys.sys_open(pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT)
        );
        if fd < 0 {
            return false;
        }
        let fd = fd as i32;
        let mut ok = true;
        let mut content = Vec::with_capacity(size);
        let mut left = size;
        while left > 0 {
            let n = left.min(BLOCK);
            let at = buf + (pat * BLOCK) as u64;
            ok &= sys!(tr, "sys_write", sys.sys_write(pid, fd, at, n)) == n as i64;
            content.extend_from_slice(&self.patterns[pat][..n]);
            left -= n;
        }
        ok &= sys!(tr, "sys_fsync", sys.sys_fsync(pid, fd)) == 0;
        ok &= sys!(tr, "sys_close", sys.sys_close(pid, fd)) == 0;
        if ok {
            self.files.insert(path.clone(), content);
            self.names.push(path);
        }
        ok
    }

    fn read(&mut self, tr: &mut Tracer, path: &str) -> bool {
        let (sys, pid) = (self.sys(), self.p.pid);
        let fd = sys!(tr, "sys_open", sys.sys_open(pid, path, OpenFlags::RDONLY));
        if fd < 0 {
            return false;
        }
        let fd = fd as i32;
        let want = &self.files[path];
        let asid = self.rig.machine.proc_asid(pid).expect("agent alive");
        let mut got = vec![0u8; BLOCK];
        let mut at = 0usize;
        let mut ok = true;
        loop {
            let n = sys!(
                tr,
                "sys_read",
                sys.sys_read(pid, fd, self.p.buf + READ_OFF, BLOCK)
            );
            if n <= 0 {
                ok &= n == 0;
                break;
            }
            let n = n as usize;
            let mem = &self.rig.machine.mem;
            ok &= tr
                .call("ksim.read_virt", || {
                    mem.read_virt(asid, self.p.buf + READ_OFF, &mut got[..n])
                })
                .is_ok();
            ok &= want.get(at..at + n) == Some(&got[..n]);
            at += n;
        }
        ok &= at == want.len();
        ok &= sys!(tr, "sys_close", sys.sys_close(pid, fd)) == 0;
        ok
    }

    /// Append up to one block, never past `MAX_SIZE`: the pool's size
    /// range holds for every file. (Unbounded appends fragment a
    /// long-lived file past kjfs's 12 inline extents, and the next append
    /// fails with ENOSPC on a nearly empty disk; see README.md.)
    fn append(&mut self, tr: &mut Tracer, path: &str) -> bool {
        let room = MAX_SIZE - self.files[path].len();
        let n = self.rng.gen_range(1..=BLOCK.min(room));
        let pat = self.rng.gen_range(0..PATTERNS);
        let (sys, pid, buf) = (self.sys(), self.p.pid, self.p.buf);
        let fd = sys!(
            tr,
            "sys_open",
            sys.sys_open(pid, path, OpenFlags::WRONLY | OpenFlags::APPEND)
        );
        if fd < 0 {
            return false;
        }
        let fd = fd as i32;
        let at = buf + (pat * BLOCK) as u64;
        let mut ok = sys!(tr, "sys_write", sys.sys_write(pid, fd, at, n)) == n as i64;
        ok &= sys!(tr, "sys_fdatasync", sys.sys_fdatasync(pid, fd)) == 0;
        ok &= sys!(tr, "sys_close", sys.sys_close(pid, fd)) == 0;
        if ok {
            let tail = self.patterns[pat][..n].to_vec();
            self.files
                .get_mut(path)
                .expect("live file")
                .extend_from_slice(&tail);
        }
        ok
    }

    fn unlink(&mut self, tr: &mut Tracer) -> bool {
        let i = self.rng.gen_range(0..self.names.len());
        let path = self.names.swap_remove(i);
        self.files.remove(&path);
        let (sys, pid) = (self.sys(), self.p.pid);
        sys!(tr, "sys_unlink", sys.sys_unlink(pid, &path)) == 0
    }

    fn transaction(&mut self, tr: &mut Tracer) -> bool {
        let m = self.rig.machine.clone();
        tr.call("ksim.charge_user", || m.charge_user(CPU_PER_TX));
        let mut ok = true;
        if self.names.is_empty() {
            return self.create(tr);
        }
        let target = self.names[self.rng.gen_range(0..self.names.len())].clone();
        let full = self.files[&target].len() >= MAX_SIZE;
        ok &= if full || self.rng.gen_bool(0.5) {
            self.read(tr, &target)
        } else {
            self.append(tr, &target)
        };
        // Creates lean toward whichever keeps the pool near its initial
        // size: a plain 50/50 choice random-walks the pool, so the working
        // set (and every cost) would drift differently for every seed.
        let p_create = 0.5 + (POOL as f64 - self.names.len() as f64) / (2.0 * POOL as f64);
        ok &= if self.rng.gen_bool(p_create.clamp(0.0, 1.0)) || self.names.is_empty() {
            self.create(tr)
        } else {
            self.unlink(tr)
        };
        ok
    }
}

impl Workload for Mail {
    const NAME: &'static str = "mail";
    const PARAMS: Params = Params {
        sim_ops: 80_000,
        trace_ops: 20_000,
        nominal: 200.0,
        ladder: &[
            150.0, 155.0, 160.0, 165.0, 170.0, 175.0, 180.0, 185.0, 190.0, 195.0, 200.0, 205.0,
            210.0, 215.0, 220.0, 225.0, 230.0, 235.0, 240.0, 245.0, 250.0, 255.0, 260.0, 265.0,
            270.0, 275.0, 280.0, 285.0, 290.0, 295.0, 300.0,
        ],
        p99_limit_us: 60000.0,
        setups: 201,
    };
    const SERVICE_SPAN: Option<&'static str> = Some("bench.mail_tx");

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let rig = tr.call("kworkloads.rig_kjfs", || {
            Rig::kjfs_with(KjfsConfig::default())
        });
        let fs = rig.kjfs.clone().expect("kjfs root");
        let p = tr.call("ksim.spawn_process", || rig.user(64 * 1024));
        let mut rng = SmallRng::seed_from_u64(seed);
        let patterns: Vec<Vec<u8>> = (0..PATTERNS)
            .map(|_| {
                let mut b = vec![0u8; BLOCK];
                rng.fill_bytes(&mut b);
                b
            })
            .collect();
        let mut m = Mail {
            rig,
            fs,
            p,
            patterns,
            rng,
            files: BTreeMap::new(),
            names: Vec::new(),
            next_id: 0,
            service: Vec::new(),
            failed: 0,
        };
        tr.set_probe(m.probe());
        let staged: Vec<u8> = m.patterns.concat();
        let mem = &m.rig.machine.mem;
        let asid = m.rig.machine.proc_asid(p.pid).expect("agent alive");
        tr.call("ksim.write_virt", || mem.write_virt(asid, p.buf, &staged))
            .expect("stage patterns");
        for d in 0..SUBDIRS {
            let r = sys!(
                tr,
                "sys_mkdir",
                m.rig.sys.sys_mkdir(p.pid, &format!("/s{d}"))
            );
            assert_eq!(r, 0);
        }
        for _ in 0..POOL {
            assert!(m.create(tr), "initial pool");
        }
        m
    }

    fn probe(&self) -> Probe {
        Probe {
            machine: Some(self.rig.machine.clone()),
            dev: Some(self.rig.dev.clone()),
            vfs: Some(self.rig.vfs.clone()),
            kjfs: Some(self.fs.clone()),
            sys: Some(self.rig.sys.clone()),
            ..Probe::default()
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> usize {
        let id = self.service.len() as u64;
        let k0 = self.rig.machine.clock.snapshot();
        let ok = tr.op("bench.mail_tx", id, |tr| self.transaction(tr));
        self.service
            .push(self.rig.machine.clock.since(k0).elapsed());
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

    /// Power cut, remount (journal replay), fsck, and read back every file
    /// whose last fsync returned.
    fn finish(&mut self) -> u64 {
        self.fs.power_cut();
        self.rig.dev.drop_caches();
        let fs = match Kjfs::mount(
            self.rig.machine.clone(),
            self.rig.dev.clone(),
            self.fs.config().clone(),
        ) {
            Ok(fs) => fs,
            Err(e) => {
                println!("mail: remount after power cut failed: {e}");
                return 1;
            }
        };
        let findings = fs.fsck();
        for f in &findings {
            println!("mail: fsck: {f}");
        }
        let snap = match kvfs::VfsSnapshot::capture(&fs) {
            Ok(s) => s,
            Err(e) => {
                println!("mail: capture after remount failed: {e}");
                return 1;
            }
        };
        let found: BTreeMap<&str, &[u8]> = snap
            .entries
            .iter()
            .map(|e| (e.path.as_str(), e.content.as_slice()))
            .collect();
        let lost = self
            .files
            .iter()
            .filter(|(path, want)| found.get(path.as_str()) != Some(&want.as_slice()))
            .count();
        println!(
            "mail: after power cut: {} fsck findings, {lost} of {} fsynced files lost or wrong",
            findings.len(),
            self.files.len()
        );
        findings.len() as u64 + lost as u64
    }
}
