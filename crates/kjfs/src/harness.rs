//! The power-cut crash-consistency harness.
//!
//! A harness wraps one fixed workload (a list of [`WOp`]s) plus a pure
//! in-memory *model* of what the tree must look like after every prefix of
//! that workload. It then re-runs the workload from a fresh device once per
//! **write point** — every journal-record, commit-block, checkpoint, and
//! ordered-writeback block write the clean run performs — killing the
//! machine deterministically at that exact write (via `FailNth(n)` on the
//! `kjfs.*` fault sites, or on `kvfs.blockdev.torn` for the torn-write
//! variant where the first half of the in-flight block lands), remounting,
//! and asserting:
//!
//! * mount succeeds and journal replay completes;
//! * [`crate::Kjfs::fsck`] reports zero structural violations;
//! * the recovered tree's [`VfsSnapshot`] hash equals the model's hash
//!   after some prefix `k` of the operations the crashed run processed
//!   (plus at most the one op in flight at the cut, whose commit record may
//!   have landed before the op returned) — a **legal prefix** — with `k` at
//!   least the last acknowledged `fsync` (the durability floor);
//! * the whole sweep is deterministic: a stable hash over (kill point,
//!   processed ops, matched prefix, fault-trace hash) across all runs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use kfault::Policy;
use kvfs::{
    BlockDev, FileKind, FileSystem, Ino, SnapshotEntry, VfsResult, VfsSnapshot, Vfs,
};
use ksim::{fnv1a_continue, Machine, MachineConfig, FNV_OFFSET};

use crate::fs::{Kjfs, KjfsConfig};

/// Fixed fault-plane seed: the sweep uses deterministic `FailNth` policies,
/// so the seed only feeds the trace hash.
pub const SWEEP_SEED: u64 = 0xC4A5_0001;

/// One operation of a harness workload, path-addressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WOp {
    Create(String),
    Mkdir(String),
    Write { path: String, off: u64, len: usize, seed: u8 },
    Truncate { path: String, size: u64 },
    Fsync { path: String },
    Unlink(String),
    Rmdir(String),
    Rename { from: String, to: String },
}

/// Deterministic fill for `Write` ops — both model and fs write this.
pub fn fill_pattern(seed: u8, off: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((off as usize + i) as u8) | 1).collect()
}

/// The pure in-memory model: what a correct file system must contain.
#[derive(Debug, Clone, Default)]
pub struct Model {
    files: BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
}

impl Model {
    pub fn new() -> Self {
        let mut m = Model::default();
        m.dirs.insert("/".to_string());
        m
    }

    fn parent(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => "/",
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path) || self.dirs.contains(path)
    }

    fn dir_has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.files.keys().any(|p| p.starts_with(&prefix))
            || self.dirs.iter().any(|p| p.starts_with(&prefix))
    }

    /// Apply `op`; returns whether it succeeded (mirrors kjfs semantics
    /// exactly, so the clean run can assert parity op by op).
    pub fn apply(&mut self, op: &WOp) -> bool {
        match op {
            WOp::Create(p) => {
                if self.exists(p) || !self.dirs.contains(Self::parent(p)) {
                    return false;
                }
                self.files.insert(p.clone(), Vec::new());
                true
            }
            WOp::Mkdir(p) => {
                if self.exists(p) || !self.dirs.contains(Self::parent(p)) {
                    return false;
                }
                self.dirs.insert(p.clone());
                true
            }
            WOp::Write { path, off, len, seed } => {
                let Some(f) = self.files.get_mut(path) else { return false };
                let end = *off as usize + len;
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[*off as usize..end].copy_from_slice(&fill_pattern(*seed, *off, *len));
                true
            }
            WOp::Truncate { path, size } => {
                let Some(f) = self.files.get_mut(path) else { return false };
                f.resize(*size as usize, 0);
                true
            }
            WOp::Fsync { path } => self.exists(path),
            WOp::Unlink(p) => self.files.remove(p).is_some(),
            WOp::Rmdir(p) => {
                if p == "/" || !self.dirs.contains(p.as_str()) || self.dir_has_children(p) {
                    return false;
                }
                self.dirs.remove(p.as_str());
                true
            }
            WOp::Rename { from, to } => {
                if !self.exists(from) || self.exists(to) || !self.dirs.contains(Self::parent(to)) {
                    return false;
                }
                if to.starts_with(&format!("{from}/")) {
                    return false; // EINVAL: rename into own subtree
                }
                if let Some(content) = self.files.remove(from) {
                    self.files.insert(to.clone(), content);
                } else {
                    // Directory: move the node and every descendant path.
                    let prefix = format!("{from}/");
                    self.dirs.remove(from.as_str());
                    self.dirs.insert(to.clone());
                    let moved_dirs: Vec<String> =
                        self.dirs.iter().filter(|p| p.starts_with(&prefix)).cloned().collect();
                    for d in moved_dirs {
                        self.dirs.remove(&d);
                        self.dirs.insert(format!("{to}/{}", &d[prefix.len()..]));
                    }
                    let moved_files: Vec<String> =
                        self.files.keys().filter(|p| p.starts_with(&prefix)).cloned().collect();
                    for f in moved_files {
                        let content = self.files.remove(&f).expect("present");
                        self.files.insert(format!("{to}/{}", &f[prefix.len()..]), content);
                    }
                }
                true
            }
        }
    }

    /// Snapshot in exactly [`VfsSnapshot::capture`]'s format.
    pub fn snapshot(&self) -> VfsSnapshot {
        let mut entries: Vec<SnapshotEntry> = self
            .dirs
            .iter()
            .map(|p| SnapshotEntry { path: p.clone(), kind: FileKind::Dir, content: Vec::new() })
            .chain(self.files.iter().map(|(p, c)| SnapshotEntry {
                path: p.clone(),
                kind: FileKind::File,
                content: c.clone(),
            }))
            .collect();
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        VfsSnapshot { entries }
    }
}

/// Apply one op through the real stack (path resolution via [`Vfs`]).
pub fn apply_op(vfs: &Vfs, fs: &dyn FileSystem, op: &WOp) -> VfsResult<()> {
    match op {
        WOp::Create(p) => vfs.create_path(p).map(|_| ()),
        WOp::Mkdir(p) => vfs.mkdir_path(p).map(|_| ()),
        WOp::Write { path, off, len, seed } => {
            let st = vfs.stat_path(path)?;
            fs.write(Ino(st.ino), *off, &fill_pattern(*seed, *off, *len)).map(|_| ())
        }
        WOp::Truncate { path, size } => {
            let st = vfs.stat_path(path)?;
            fs.truncate(Ino(st.ino), *size)
        }
        WOp::Fsync { path } => {
            let st = vfs.stat_path(path)?;
            fs.fsync(Ino(st.ino), false)
        }
        WOp::Unlink(p) => vfs.unlink_path(p),
        WOp::Rmdir(p) => vfs.rmdir_path(p),
        WOp::Rename { from, to } => vfs.rename_path(from, to),
    }
}

/// Outcome of one kill-point run.
#[derive(Debug, Clone)]
pub struct KillOutcome {
    pub kill_point: u64,
    pub torn: bool,
    /// Ops fully processed (returned) before the power cut.
    pub processed: usize,
    /// Prefix length guaranteed durable by the last acknowledged fsync.
    pub fsync_floor: usize,
    /// The model prefix the recovered tree matched, if any.
    pub matched_prefix: Option<usize>,
    pub violations: Vec<String>,
    pub trace_hash: u64,
}

/// Aggregate result of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub write_points: u64,
    pub outcomes: Vec<KillOutcome>,
    pub violations: u64,
    /// Stable hash over every outcome — byte-identical across runs iff the
    /// sweep is deterministic.
    pub sweep_hash: u64,
}

/// A prepared workload: golden prefix hashes plus the write-point count.
pub struct Harness {
    ops: Vec<WOp>,
    cfg: KjfsConfig,
    /// `golden[k]` = model snapshot hash after the first `k` ops.
    golden: Vec<u64>,
    write_points: u64,
}

/// A freshly mkfs'd mount: machine, raw device, the fs, and a VFS over it.
type FreshRig = (Arc<Machine>, Arc<BlockDev>, Arc<Kjfs>, Vfs);

fn fresh_rig(cfg: &KjfsConfig) -> VfsResult<FreshRig> {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let dev = Arc::new(BlockDev::new(machine.clone()));
    let fs = Arc::new(Kjfs::mount(machine.clone(), dev.clone(), cfg.clone())?);
    let vfs = Vfs::new(machine.clone(), fs.clone() as Arc<dyn FileSystem>);
    Ok((machine, dev, fs, vfs))
}

fn kjfs_site_hits(machine: &Machine) -> u64 {
    machine
        .faults
        .site_stats()
        .iter()
        .filter(|s| s.site.starts_with("kjfs."))
        .map(|s| s.hits)
        .sum()
}

impl Harness {
    /// Build the golden model and count write points with a clean
    /// (fault-free, but armed-and-counting) run, asserting fs/model parity
    /// along the way.
    pub fn new(ops: Vec<WOp>, cfg: KjfsConfig) -> Result<Harness, String> {
        let mut model = Model::new();
        let mut golden = Vec::with_capacity(ops.len() + 1);
        golden.push(model.snapshot().hash());

        let (machine, _dev, fs, vfs) =
            fresh_rig(&cfg).map_err(|e| format!("clean mount failed: {e}"))?;
        machine.faults.arm(SWEEP_SEED);
        for (i, op) in ops.iter().enumerate() {
            let fs_ok = apply_op(&vfs, fs.as_ref(), op).is_ok();
            let model_ok = model.apply(op);
            if fs_ok != model_ok {
                return Err(format!(
                    "clean-run divergence at op {i} ({op:?}): fs {fs_ok}, model {model_ok}"
                ));
            }
            golden.push(model.snapshot().hash());
        }
        let write_points = kjfs_site_hits(&machine);
        machine.faults.disarm();

        let end = {
            let was = machine.faults.suspend();
            let snap = VfsSnapshot::capture(fs.as_ref())
                .map_err(|e| format!("clean-run capture failed: {e}"))?;
            machine.faults.resume(was);
            snap.hash()
        };
        if end != *golden.last().expect("non-empty") {
            return Err("clean-run end state diverges from model".to_string());
        }
        Ok(Harness { ops, cfg, golden, write_points })
    }

    pub fn write_points(&self) -> u64 {
        self.write_points
    }

    pub fn ops(&self) -> &[WOp] {
        &self.ops
    }

    /// Kill at write point `n` (1-based), recover, and judge the result.
    pub fn run_one(&self, n: u64, torn: bool) -> KillOutcome {
        let mut out = KillOutcome {
            kill_point: n,
            torn,
            processed: 0,
            fsync_floor: 0,
            matched_prefix: None,
            violations: Vec::new(),
            trace_hash: 0,
        };
        let (machine, dev, fs, vfs) = match fresh_rig(&self.cfg) {
            Ok(r) => r,
            Err(e) => {
                out.violations.push(format!("mount failed: {e}"));
                return out;
            }
        };
        machine.faults.arm(SWEEP_SEED);
        let prefix = if torn { "kvfs.blockdev.torn" } else { "kjfs." };
        machine.faults.add_policy(Some(prefix), Policy::FailNth(n));

        for op in &self.ops {
            let res = apply_op(&vfs, fs.as_ref(), op);
            if fs.is_crashed() {
                break;
            }
            out.processed += 1;
            if res.is_ok() && matches!(op, WOp::Fsync { .. }) {
                out.fsync_floor = out.processed;
            }
        }
        out.trace_hash = machine.faults.trace_hash();
        let crashed = fs.is_crashed();
        machine.faults.disarm();
        machine.faults.clear_policies();

        drop(vfs);
        drop(fs);
        dev.drop_caches();

        let recovered = match Kjfs::mount(machine.clone(), dev.clone(), self.cfg.clone()) {
            Ok(fs) => fs,
            Err(e) => {
                out.violations.push(format!("kill {n}: remount failed: {e}"));
                return out;
            }
        };
        for v in recovered.fsck() {
            out.violations.push(format!("kill {n}: fsck: {v}"));
        }
        let snap = match VfsSnapshot::capture(&recovered) {
            Ok(s) => s,
            Err(e) => {
                out.violations.push(format!("kill {n}: capture failed: {e}"));
                return out;
            }
        };
        let hash = snap.hash();
        // A crash can strike after the commit record landed but before the
        // in-flight op returned (e.g. a torn commit block whose live half is
        // complete): that op is durable even though never acknowledged, so
        // the legal window extends one past `processed`.
        let hi = if crashed { (out.processed + 1).min(self.ops.len()) } else { self.ops.len() };
        out.matched_prefix = (out.fsync_floor..=hi).find(|&k| self.golden[k] == hash);
        if out.matched_prefix.is_none() {
            out.violations.push(format!(
                "kill {n}: recovered tree matches no legal prefix in [{}, {hi}]",
                out.fsync_floor
            ));
        }
        out
    }

    /// The full deterministic sweep over every write point.
    pub fn sweep(&self, torn: bool) -> SweepReport {
        let mut outcomes = Vec::with_capacity(self.write_points as usize);
        let mut violations = 0u64;
        let mut h = FNV_OFFSET;
        for n in 1..=self.write_points {
            let out = self.run_one(n, torn);
            violations += out.violations.len() as u64;
            h = fnv1a_continue(h, &out.kill_point.to_le_bytes());
            h = fnv1a_continue(h, &(out.processed as u64).to_le_bytes());
            h = fnv1a_continue(h, &(out.matched_prefix.map(|k| k as u64 + 1).unwrap_or(0)).to_le_bytes());
            h = fnv1a_continue(h, &out.trace_hash.to_le_bytes());
            outcomes.push(out);
        }
        SweepReport { write_points: self.write_points, outcomes, violations, sweep_hash: h }
    }
}

/// The fixed 50-op workload the deterministic sweep test and the A13 bench
/// both use: creates, overwrites, appends, fsyncs, truncates, renames,
/// directory churn, and deletes — every durability path in one script.
pub fn default_workload() -> Vec<WOp> {
    let mut ops = Vec::new();
    let s = |p: &str| p.to_string();
    ops.push(WOp::Mkdir(s("/docs")));
    ops.push(WOp::Mkdir(s("/tmp")));
    ops.push(WOp::Create(s("/docs/a")));
    ops.push(WOp::Write { path: s("/docs/a"), off: 0, len: 5000, seed: 11 });
    ops.push(WOp::Fsync { path: s("/docs/a") });
    ops.push(WOp::Create(s("/docs/b")));
    ops.push(WOp::Write { path: s("/docs/b"), off: 0, len: 300, seed: 22 });
    ops.push(WOp::Write { path: s("/docs/b"), off: 100, len: 9000, seed: 33 });
    ops.push(WOp::Create(s("/tmp/scratch")));
    ops.push(WOp::Write { path: s("/tmp/scratch"), off: 0, len: 4096, seed: 44 });
    ops.push(WOp::Fsync { path: s("/docs/b") });
    // Overwrite committed data: exercises journaled data images.
    ops.push(WOp::Write { path: s("/docs/a"), off: 1000, len: 2000, seed: 55 });
    ops.push(WOp::Write { path: s("/docs/a"), off: 4000, len: 4000, seed: 66 });
    ops.push(WOp::Fsync { path: s("/docs/a") });
    ops.push(WOp::Unlink(s("/tmp/scratch")));
    ops.push(WOp::Create(s("/tmp/swap")));
    ops.push(WOp::Write { path: s("/tmp/swap"), off: 0, len: 12000, seed: 77 });
    ops.push(WOp::Rename { from: s("/tmp/swap"), to: s("/docs/c") });
    ops.push(WOp::Fsync { path: s("/docs/c") });
    ops.push(WOp::Truncate { path: s("/docs/c"), size: 700 });
    ops.push(WOp::Write { path: s("/docs/c"), off: 650, len: 200, seed: 88 });
    ops.push(WOp::Fsync { path: s("/docs/c") });
    ops.push(WOp::Mkdir(s("/docs/sub")));
    ops.push(WOp::Create(s("/docs/sub/d")));
    ops.push(WOp::Write { path: s("/docs/sub/d"), off: 0, len: 8192, seed: 99 });
    ops.push(WOp::Fsync { path: s("/docs/sub/d") });
    // Shrink then regrow across the committed boundary.
    ops.push(WOp::Truncate { path: s("/docs/sub/d"), size: 100 });
    ops.push(WOp::Write { path: s("/docs/sub/d"), off: 4000, len: 1000, seed: 12 });
    ops.push(WOp::Fsync { path: s("/docs/sub/d") });
    ops.push(WOp::Create(s("/docs/e")));
    ops.push(WOp::Write { path: s("/docs/e"), off: 0, len: 100, seed: 23 });
    ops.push(WOp::Write { path: s("/docs/e"), off: 0, len: 100, seed: 34 });
    ops.push(WOp::Write { path: s("/docs/e"), off: 50, len: 100, seed: 45 });
    ops.push(WOp::Fsync { path: s("/docs/e") });
    ops.push(WOp::Unlink(s("/docs/b")));
    ops.push(WOp::Rename { from: s("/docs/sub/d"), to: s("/tmp/d") });
    ops.push(WOp::Rmdir(s("/docs/sub")));
    ops.push(WOp::Fsync { path: s("/") });
    ops.push(WOp::Create(s("/tmp/f1")));
    ops.push(WOp::Create(s("/tmp/f2")));
    ops.push(WOp::Write { path: s("/tmp/f1"), off: 0, len: 600, seed: 56 });
    ops.push(WOp::Write { path: s("/tmp/f2"), off: 0, len: 14000, seed: 67 });
    ops.push(WOp::Fsync { path: s("/tmp/f2") });
    ops.push(WOp::Unlink(s("/tmp/f1")));
    ops.push(WOp::Write { path: s("/docs/a"), off: 2000, len: 600, seed: 78 });
    ops.push(WOp::Truncate { path: s("/docs/e"), size: 0 });
    ops.push(WOp::Write { path: s("/docs/e"), off: 0, len: 40, seed: 89 });
    ops.push(WOp::Fsync { path: s("/docs/e") });
    ops.push(WOp::Unlink(s("/docs/c")));
    ops.push(WOp::Fsync { path: s("/") });
    assert_eq!(ops.len(), 50, "the fixed workload is fifty ops");
    ops
}

/// A workload that pushes one directory across the single-block boundary
/// and back: 80 long-named entries make `/big`'s entry table spill past
/// one 4 KiB block (11 + 48 bytes each ≈ 4.7 KiB), so the directory is
/// journaled and checkpointed as a multi-block extent; mass unlinks then
/// shrink it back under a block, exercising the shrink path too.
pub fn dir_boundary_workload() -> Vec<WOp> {
    let mut ops = Vec::new();
    let name = |i: usize| format!("/big/{:02}-{}", i, "x".repeat(45));
    ops.push(WOp::Mkdir("/big".to_string()));
    for i in 0..80 {
        ops.push(WOp::Create(name(i)));
    }
    ops.push(WOp::Write { path: name(3), off: 0, len: 5000, seed: 17 });
    ops.push(WOp::Fsync { path: "/big".to_string() });
    ops.push(WOp::Rename { from: name(7), to: "/big/zz".to_string() });
    for i in 20..70 {
        ops.push(WOp::Unlink(name(i)));
    }
    ops.push(WOp::Fsync { path: "/big".to_string() });
    ops
}
