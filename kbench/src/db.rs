//! `db`: read-only queries on kjfs over data several times the page
//! cache, in a seeded mix of three kinds:
//!
//! * range scans pushed into the kernel as Cosy compounds of batched
//!   reads landing in the shared data buffer;
//! * point lookups as classic `lseek` + `read`;
//! * index walks as a verified kprog CQE program chasing dependent node
//!   offsets, one submission per walk.
//!
//! Every query's bytes are checked against ground truth generated from
//! the seed.

use std::sync::Arc;

use cosy::{CompoundBuilder, CosyArg, CosyCall, CosyOptions, SharedRegion};
use kjfs::{Kjfs, KjfsConfig};
use kprog::{Attachment, HookClass, ProgEngine, ProgSpec};
use ksyscall::OpenFlags;
use kuring::{Sqe, Uring};
use kworkloads::{Rig, UserProc, CHASE_CQE_SRC, CHASE_NODE_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::Fnv;
use crate::trace::{Probe, Tracer};
use crate::{Params, Workload};

const RECORD: usize = 256;
/// 5 MiB of records: five times the page cache.
const RECORDS: usize = 20_480;
const CACHE_PAGES: usize = 256;
/// Reads per scan compound; a scan is 1 to `MAX_SCAN_BATCHES` of them.
const SCAN_BATCH: usize = 32;
const MAX_SCAN_BATCHES: usize = 4;
/// Index files, each the largest a CQE program may resubmit within.
const INDEXES: usize = 8;
const INDEX_BYTES: usize = kprog::MAX_RESUBMIT_OFF as usize;
const MIN_CHAIN: usize = 8;
const MAX_CHAIN: usize = 32;
/// Queries run during set-up so the page cache starts warm.
const WARMUP: usize = 500;
const CPU_PER_QUERY: u64 = 4_000;
const WALK_OFF: u64 = 8192;

/// One index chain: where it starts and what a walk must find.
struct Chain {
    index: usize,
    head: u64,
    hops: u64,
    value_sum: u64,
}

pub struct Db {
    rig: Rig,
    fs: Arc<Kjfs>,
    p: UserProc,
    table_fd: i32,
    index_fds: Vec<i32>,
    record_sum: Vec<u64>,
    chains: Vec<Chain>,
    cb: SharedRegion,
    data: SharedRegion,
    refs: Vec<u32>,
    ring: Arc<Uring>,
    att: Arc<Attachment>,
    walk_hops: u64,
    walk_sum: u64,
    rng: SmallRng,
    service: Vec<u64>,
    failed: u64,
    enters: u64,
}

fn fnv(b: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(b);
    h.0
}

/// Index file bytes and its chains: nodes `[next_off, value]`, each chain
/// ending in a 0 link; node slots are shuffled so every hop is a
/// dependent, scattered read. Slot 0 is never a link target.
fn build_index(rng: &mut SmallRng, index: usize) -> (Vec<u8>, Vec<Chain>) {
    let slots = INDEX_BYTES / CHASE_NODE_BYTES;
    let mut order: Vec<usize> = (1..slots).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut bytes = vec![0u8; INDEX_BYTES];
    let mut chains = Vec::new();
    let mut at = 0usize;
    while order.len() - at >= MAX_CHAIN {
        let len = rng.gen_range(MIN_CHAIN..=MAX_CHAIN);
        let nodes = &order[at..at + len];
        at += len;
        let mut value_sum = 0u64;
        for (k, &slot) in nodes.iter().enumerate() {
            let next = nodes
                .get(k + 1)
                .map_or(0, |&s| (s * CHASE_NODE_BYTES) as u64);
            let value = rng.gen_range(0..65_536u64);
            value_sum += value;
            let off = slot * CHASE_NODE_BYTES;
            bytes[off..off + 8].copy_from_slice(&next.to_le_bytes());
            bytes[off + 8..off + 16].copy_from_slice(&value.to_le_bytes());
        }
        chains.push(Chain {
            index,
            head: (nodes[0] * CHASE_NODE_BYTES) as u64,
            hops: len as u64,
            value_sum,
        });
    }
    (bytes, chains)
}

impl Db {
    fn write_file(rig: &Rig, p: &UserProc, tr: &mut Tracer, path: &str, bytes: &[u8]) -> i32 {
        let (sys, pid) = (&rig.sys, p.pid);
        let fd = sys!(
            tr,
            "sys_open",
            sys.sys_open(pid, path, OpenFlags::RDWR | OpenFlags::CREAT)
        ) as i32;
        assert!(fd >= 0, "create {path}");
        let asid = rig.machine.proc_asid(pid).expect("db process alive");
        for chunk in bytes.chunks(4096) {
            tr.call("ksim.write_virt", || {
                rig.machine.mem.write_virt(asid, p.buf, chunk)
            })
            .expect("stage");
            assert_eq!(
                sys!(tr, "sys_write", sys.sys_write(pid, fd, p.buf, chunk.len())),
                chunk.len() as i64
            );
        }
        fd
    }

    /// A range scan of `batches` compounds from record `start`.
    fn scan(&mut self, tr: &mut Tracer, start: usize, batches: usize) -> bool {
        let (sys, pid) = (&self.rig.sys, self.p.pid);
        let off = (start * RECORD) as i64;
        let mut ok = sys!(tr, "sys_lseek", sys.sys_lseek(pid, self.table_fd, off, 0)) == off;
        let mut got = vec![0u8; RECORD];
        let mut sum = 0u64;
        for _ in 0..batches {
            let cosy = &self.rig.cosy;
            let res = tr.call("cosy.submit", || {
                cosy.submit(pid, &self.cb, &self.data, &CosyOptions::default())
            });
            let Ok(res) = res else { return false };
            for (&r, &at) in res.iter().zip(&self.refs) {
                ok &= r == RECORD as i64;
                ok &= tr
                    .call("cosy.user_read", || {
                        self.data.user_read(at as usize, &mut got)
                    })
                    .is_ok();
                sum = sum.wrapping_add(fnv(&got));
            }
        }
        let want = self.record_sum[start..start + batches * SCAN_BATCH]
            .iter()
            .fold(0u64, |a, &b| a.wrapping_add(b));
        ok && sum == want
    }

    fn lookup(&mut self, tr: &mut Tracer, rec: usize) -> bool {
        let (sys, pid) = (&self.rig.sys, self.p.pid);
        let off = (rec * RECORD) as i64;
        let mut ok = sys!(tr, "sys_lseek", sys.sys_lseek(pid, self.table_fd, off, 0)) == off;
        ok &= sys!(
            tr,
            "sys_read",
            sys.sys_read(pid, self.table_fd, self.p.buf, RECORD)
        ) == RECORD as i64;
        let mut got = vec![0u8; RECORD];
        let asid = self.rig.machine.proc_asid(pid).expect("db process alive");
        let mem = &self.rig.machine.mem;
        ok &= tr
            .call("ksim.read_virt", || {
                mem.read_virt(asid, self.p.buf, &mut got)
            })
            .is_ok();
        ok && fnv(&got) == self.record_sum[rec]
    }

    /// One submission and one `ring_enter`: the program walks the chain
    /// at completion time and surfaces a single CQE.
    fn walk(&mut self, tr: &mut Tracer, chain: usize) -> bool {
        let (sys, pid) = (&self.rig.sys, self.p.pid);
        let c = &self.chains[chain];
        let fd = self.index_fds[c.index];
        let sqe = Sqe::read(
            fd,
            self.p.buf + WALK_OFF,
            CHASE_NODE_BYTES as u32,
            c.head,
            chain as u64,
        );
        if tr
            .call("kuring.push_sqe", || self.ring.push_sqe(sqe))
            .is_err()
        {
            return false;
        }
        self.enters += 1;
        let mut ok = tr.call("kuring.sys_ring_enter", || sys.sys_ring_enter(pid, 1, 1)) == 1;
        let Some(cqe) = tr.call("kuring.reap_cqe", || self.ring.reap_cqe()) else {
            return false;
        };
        ok &= tr
            .call("kuring.reap_cqe", || self.ring.reap_cqe())
            .is_none();
        let state = tr.call("kprog.state", || self.att.state());
        let (hops, sum) = (
            state[0] as u64 - self.walk_hops,
            state[1] as u64 - self.walk_sum,
        );
        self.walk_hops = state[0] as u64;
        self.walk_sum = state[1] as u64;
        ok && cqe.res == state[0] && hops == c.hops && sum == c.value_sum
    }

    fn query(&mut self, tr: &mut Tracer) -> bool {
        let m = self.rig.machine.clone();
        tr.call("ksim.charge_user", || m.charge_user(CPU_PER_QUERY));
        match self.rng.gen_range(0..4) {
            0 => {
                let batches = self.rng.gen_range(1..=MAX_SCAN_BATCHES);
                let start = self.rng.gen_range(0..=RECORDS - batches * SCAN_BATCH);
                self.scan(tr, start, batches)
            }
            1 => {
                let chain = self.rng.gen_range(0..self.chains.len());
                self.walk(tr, chain)
            }
            _ => {
                let rec = self.rng.gen_range(0..RECORDS);
                self.lookup(tr, rec)
            }
        }
    }
}

impl Workload for Db {
    const NAME: &'static str = "db";
    const PARAMS: Params = Params {
        sim_ops: 100_000,
        trace_ops: 20_000,
        nominal: 33000.0,
        ladder: &[
            20000.0, 22000.0, 24000.0, 26000.0, 28000.0, 30000.0, 32000.0, 34000.0, 36000.0,
            38000.0, 40000.0, 42000.0, 44000.0, 46000.0, 48000.0, 50000.0, 52000.0,
        ],
        p99_limit_us: 500.0,
        setups: 101,
    };
    const SERVICE_SPAN: Option<&'static str> = Some("bench.db_query");

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let rig = tr.call("kworkloads.rig_kjfs", || {
            Rig::kjfs_with(KjfsConfig {
                page_cache_capacity: CACHE_PAGES,
                ..KjfsConfig::default()
            })
        });
        tr.set_probe(Probe {
            machine: Some(rig.machine.clone()),
            ..Probe::default()
        });
        let fs = rig.kjfs.clone().expect("kjfs root");
        let p = tr.call("ksim.spawn_process", || rig.user(64 * 1024));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut table = vec![0u8; RECORDS * RECORD];
        rng.fill_bytes(&mut table);
        let record_sum: Vec<u64> = table.chunks(RECORD).map(fnv).collect();
        let table_fd = Db::write_file(&rig, &p, tr, "/table", &table);
        drop(table);
        let mut chains = Vec::new();
        let mut index_fds = Vec::new();
        for k in 0..INDEXES {
            let (bytes, c) = build_index(&mut rng, k);
            index_fds.push(Db::write_file(&rig, &p, tr, &format!("/index{k}"), &bytes));
            chains.extend(c);
        }
        // Everything home and clean, so capacity pressure can evict it.
        tr.call("kjfs.checkpoint_now", || fs.checkpoint_now())
            .expect("checkpoint");

        // The scan compound is built once: every scan resubmits the same
        // bytes, so the translation cache decodes it once.
        let pid = p.pid;
        let cb = tr
            .call("cosy.shared_region", || {
                SharedRegion::new(rig.machine.clone(), pid, 1, 2)
            })
            .expect("cb");
        let data_pages = (SCAN_BATCH * RECORD).div_ceil(ksim::PAGE_SIZE);
        let data = tr
            .call("cosy.shared_region", || {
                SharedRegion::new(rig.machine.clone(), pid, data_pages, 3)
            })
            .expect("db");
        let mut refs = Vec::with_capacity(SCAN_BATCH);
        {
            let mut b = CompoundBuilder::new(&cb, &data);
            for _ in 0..SCAN_BATCH {
                let buf = b.alloc_buf(RECORD as u32).expect("data buffer space");
                b.syscall(
                    CosyCall::Read,
                    vec![
                        CompoundBuilder::lit(table_fd as i64),
                        buf,
                        CompoundBuilder::lit(RECORD as i64),
                    ],
                );
                let CosyArg::BufRef { offset, .. } = buf else {
                    unreachable!("alloc_buf gives a buffer ref")
                };
                refs.push(offset);
            }
            tr.call("cosy.encode", || b.finish())
                .expect("encode scan compound");
        }

        let r = sys!(tr, "sys_ring_setup", rig.sys.sys_ring_setup(pid, 16, 16));
        assert_eq!(r, 0);
        let ring = rig.sys.uring(pid).expect("ring installed");
        let engine = ProgEngine::new(rig.machine.clone());
        let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(CHASE_NODE_BYTES);
        let prog = tr
            .call("kprog.load", || engine.load(CHASE_CQE_SRC, &spec))
            .expect("chase program verifies");
        let att = Arc::new(
            tr.call("kprog.attachment", || {
                Attachment::new(rig.machine.clone(), prog)
            })
            .expect("sandbox"),
        );
        tr.call("ksyscall.attach_cqe_program", || {
            rig.sys.attach_cqe_program(pid, att.clone())
        })
        .expect("attach");

        let mut db = Db {
            rig,
            fs,
            p,
            table_fd,
            index_fds,
            record_sum,
            chains,
            cb,
            data,
            refs,
            ring,
            att,
            walk_hops: 0,
            walk_sum: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x0DB),
            service: Vec::new(),
            failed: 0,
            enters: 0,
        };
        tr.set_probe(db.probe());
        for _ in 0..WARMUP {
            assert!(db.query(tr), "warm-up query");
        }
        db.enters = 0;
        db
    }

    fn probe(&self) -> Probe {
        Probe {
            machine: Some(self.rig.machine.clone()),
            dev: Some(self.rig.dev.clone()),
            vfs: Some(self.rig.vfs.clone()),
            kjfs: Some(self.fs.clone()),
            sys: Some(self.rig.sys.clone()),
            ring_pid: Some(self.p.pid),
            cosy: Some(self.rig.cosy.clone()),
            att: Some(self.att.clone()),
            ..Probe::default()
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> usize {
        let id = self.service.len() as u64;
        let k0 = self.rig.machine.clock.snapshot();
        let ok = tr.op("bench.db_query", id, |tr| self.query(tr));
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

    /// Every query was checked as it ran.
    fn finish(&mut self) -> u64 {
        0
    }

    /// Each walk submits one SQE per `ring_enter`.
    fn phase_extra(&self) -> [u64; 2] {
        [self.enters, self.enters]
    }
}
