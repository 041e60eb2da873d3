//! `web`: open-loop static-file serving on memfs over knet, the server
//! draining each batch through kuring in three `ring_enter` waves.
//!
//! Simulated clients are inputs, not host threads: a request arrives at
//! its seeded Poisson time, its client connects and sends the path, and
//! the server — whenever it is free — accepts every queued connection up
//! to the ring size. Only server cycles advance the server's timeline;
//! the clients are the load generator.

use std::collections::VecDeque;
use std::sync::Arc;

use kuring::{Sqe, Uring};
use kworkloads::{Rig, UserProc};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::{self, LoadResult, HZ};
use crate::trace::{Probe, Tracer};
use crate::{OpenLoop, Params, Workload};

const DOCS: usize = 50;
const DOC_MIN: usize = 2 * 1024;
const DOC_MAX: usize = 24 * 1024;
/// Connections one batch may take: the ring is sized for it.
const CAP: usize = 64;
const BACKLOG: usize = 4096;
const PORT: u16 = 8080;
/// User cycles of request parsing and header formatting.
const CPU_PER_REQUEST: u64 = 6_000;
/// Requests per ladder rung and in the saturated capacity run.
const RUNG_OPS: usize = 30_000;
const LOG_LINE: usize = 96;
const REQ_BYTES: usize = 64;

/// Server scratch: log line at +0, request slots from +4096.
const LOG_OFF: u64 = 0;
const REQ_OFF: u64 = 4096;

pub struct Web {
    rig: Rig,
    server: UserProc,
    client: UserProc,
    ring: Arc<Uring>,
    lsd: i32,
    logfd: i32,
    docs: Vec<Vec<u8>>,
    paths: Vec<String>,
    /// `None`: closed loop, every batch full.
    rate: Option<f64>,
    gaps: SmallRng,
    /// Due times of every arrival generated so far.
    arrivals: Vec<u64>,
    /// Arrivals whose clients have connected.
    connected: usize,
    pick: SmallRng,
    /// Connected, not yet accepted: (client sd, doc, due).
    queued: VecDeque<(i32, usize, u64)>,
    /// The server's timeline, in cycles.
    now: u64,
    server_cycles: u64,
    due: Vec<u64>,
    done_at: Vec<u64>,
    lat: Vec<u64>,
    failed: u64,
    refused: u64,
    enters: u64,
    sqes: u64,
}

fn exp_gap(rng: &mut SmallRng, rate: f64) -> u64 {
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    (-u.ln() * HZ / rate) as u64
}

impl Web {
    fn build(seed: u64, rate: Option<f64>, tr: &mut Tracer) -> Web {
        let rig = tr.call("kworkloads.rig_memfs", Rig::memfs);
        let server = tr.call("ksim.spawn_process", || rig.user(64 * 1024));
        let client = tr.call("ksim.spawn_process", || rig.user(64 * 1024));
        tr.set_probe(Probe {
            machine: Some(rig.machine.clone()),
            ..Probe::default()
        });
        let sys = &rig.sys;
        let pid = server.pid;

        // Sizes are stratified over [DOC_MIN, DOC_MAX] and shuffled, so the
        // seed changes which document is which size but not the mix.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sizes: Vec<usize> = (0..DOCS)
            .map(|i| {
                let u = rng.gen_range(0..1000) as usize;
                DOC_MIN + (i * 1000 + u) * (DOC_MAX - DOC_MIN) / (DOCS * 1000)
            })
            .collect();
        for i in (1..DOCS).rev() {
            sizes.swap(i, rng.gen_range(0..=i));
        }
        let docs: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&n| {
                let mut d = vec![0u8; n];
                rng.fill_bytes(&mut d);
                d
            })
            .collect();
        let paths: Vec<String> = (0..DOCS)
            .map(|d| format!("/htdocs/doc{d:04}.html"))
            .collect();

        assert_eq!(
            tr.call("ksyscall.sys_mkdir", || sys.sys_mkdir(pid, "/htdocs")),
            0
        );
        let asid = rig.machine.proc_asid(pid).expect("server alive");
        let stage = |addr: u64, b: &[u8]| rig.machine.mem.write_virt(asid, addr, b).expect("stage");
        for (doc, path) in docs.iter().zip(&paths) {
            let fd = tr.call("ksyscall.sys_open", || {
                sys.sys_open(
                    pid,
                    path,
                    ksyscall::OpenFlags::WRONLY | ksyscall::OpenFlags::CREAT,
                )
            }) as i32;
            assert!(fd >= 0);
            for chunk in doc.chunks(4096) {
                tr.call("ksim.write_virt", || stage(server.buf + REQ_OFF, chunk));
                let n = tr.call("ksyscall.sys_write", || {
                    sys.sys_write(pid, fd, server.buf + REQ_OFF, chunk.len())
                });
                assert_eq!(n, chunk.len() as i64);
            }
            assert_eq!(tr.call("ksyscall.sys_close", || sys.sys_close(pid, fd)), 0);
        }
        // Warm every document once, as a long-running server's would be.
        for path in &paths {
            tr.call("ksyscall.sys_open_read_close", || {
                sys.sys_open_read_close(pid, path, server.buf + REQ_OFF, DOC_MAX, 0)
            });
        }
        tr.call("ksim.write_virt", || {
            stage(server.buf + LOG_OFF, &[b'L'; LOG_LINE])
        });
        let logfd = tr.call("ksyscall.sys_open", || {
            sys.sys_open(
                pid,
                "/access.log",
                ksyscall::OpenFlags::WRONLY
                    | ksyscall::OpenFlags::CREAT
                    | ksyscall::OpenFlags::APPEND,
            )
        }) as i32;
        let lsd = tr.call("ksyscall.sys_socket", || sys.sys_socket(pid)) as i32;
        assert!(logfd >= 0 && lsd >= 0);
        assert_eq!(
            tr.call("ksyscall.sys_bind_listen", || sys
                .sys_bind_listen(pid, lsd, PORT, BACKLOG)),
            0
        );
        assert_eq!(
            tr.call("kuring.sys_ring_setup", || sys.sys_ring_setup(
                pid,
                8 * CAP,
                8 * CAP
            )),
            0
        );
        let mut ranges: Vec<(u64, usize)> = (0..CAP)
            .map(|i| (server.buf + REQ_OFF + (REQ_BYTES * i) as u64, REQ_BYTES))
            .collect();
        ranges.push((server.buf + LOG_OFF, LOG_LINE));
        assert_eq!(
            tr.call("kuring.sys_ring_register", || sys
                .sys_ring_register(pid, &ranges)),
            ranges.len() as i64
        );
        let ring = sys.uring(pid).expect("ring installed");

        let mut gaps = SmallRng::seed_from_u64(seed ^ 0xA11);
        let first = rate.map_or(0, |r| exp_gap(&mut gaps, r));
        Web {
            rig,
            server,
            client,
            ring,
            lsd,
            logfd,
            docs,
            paths,
            rate,
            gaps,
            arrivals: vec![first],
            connected: 0,
            pick: SmallRng::seed_from_u64(seed ^ 0xD0C),
            queued: VecDeque::new(),
            now: 0,
            server_cycles: 0,
            due: Vec::new(),
            done_at: Vec::new(),
            lat: Vec::new(),
            failed: 0,
            refused: 0,
            enters: 0,
            sqes: 0,
        }
    }

    /// A client connects and sends its request path.
    fn connect(&mut self, tr: &mut Tracer, due: u64) {
        let sys = &self.rig.sys;
        let cpid = self.client.pid;
        let doc = self.pick.gen_range(0..DOCS);
        let csd = tr.call("ksyscall.sys_socket", || sys.sys_socket(cpid)) as i32;
        if tr.call("ksyscall.sys_connect", || sys.sys_connect(cpid, csd, PORT)) != 0 {
            self.refused += 1;
            tr.call("ksyscall.sys_shutdown", || sys.sys_shutdown(cpid, csd));
            return;
        }
        let mut req = [0u8; REQ_BYTES];
        req[..self.paths[doc].len()].copy_from_slice(self.paths[doc].as_bytes());
        let casid = self.rig.machine.proc_asid(cpid).expect("client alive");
        tr.call("ksim.write_virt", || {
            self.rig
                .machine
                .mem
                .write_virt(casid, self.client.buf, &req)
        })
        .expect("stage request");
        let n = tr.call("ksyscall.sys_send", || {
            sys.sys_send(cpid, csd, self.client.buf, REQ_BYTES)
        });
        if n != REQ_BYTES as i64 {
            self.failed += 1;
        }
        self.queued.push_back((csd, doc, due));
    }

    fn enter(&mut self, tr: &mut Tracer, n: usize) -> bool {
        self.enters += 1;
        self.sqes += n as u64;
        let pid = self.server.pid;
        tr.call("kuring.sys_ring_enter", || {
            self.rig.sys.sys_ring_enter(pid, n, n)
        }) == n as i64
    }

    /// The three waves over `batch` accepted connections.
    fn serve(&mut self, tr: &mut Tracer, batch: usize) {
        // Wave 3 takes 5 SQEs per connection: open→sendfile→close chained,
        // the socket's shutdown (which also closes it), the log write.
        let ring = self.ring.clone();
        let push = |tr: &mut Tracer, sqe: Sqe| {
            tr.call("kuring.push_sqe", || ring.push_sqe(sqe))
                .expect("sq room")
        };
        let machine = self.rig.machine.clone();
        let pid = self.server.pid;
        let mut ok = true;

        for i in 0..batch {
            push(tr, Sqe::accept(self.lsd, i as u64));
        }
        ok &= self.enter(tr, batch);
        let mut sds = vec![-1i32; batch];
        while let Some(c) = tr.call("kuring.reap_cqe", || ring.reap_cqe()) {
            ok &= c.res >= 0;
            sds[c.user_data as usize] = c.res as i32;
        }

        for (i, &sd) in sds.iter().enumerate() {
            push(
                tr,
                Sqe::recv_fixed(sd, i as u32, REQ_BYTES as u32, i as u64),
            );
        }
        ok &= self.enter(tr, batch);
        while let Some(c) = tr.call("kuring.reap_cqe", || ring.reap_cqe()) {
            ok &= c.res == REQ_BYTES as i64;
        }

        let asid = machine.proc_asid(pid).expect("server alive");
        for (i, &sd) in sds.iter().enumerate() {
            tr.call("ksim.charge_user", || machine.charge_user(CPU_PER_REQUEST));
            let addr = self.server.buf + REQ_OFF + (REQ_BYTES * i) as u64;
            let mut req = [0u8; REQ_BYTES];
            tr.call("ksim.read_virt", || {
                machine.mem.read_virt(asid, addr, &mut req)
            })
            .expect("request slot");
            let plen = req.iter().position(|&b| b == 0).unwrap_or(REQ_BYTES);
            let ud = (i * 8) as u64;
            push(tr, Sqe::open(addr, plen as u32, 0, ud).link());
            push(tr, Sqe::sendfile_chained(sd, DOC_MAX as u32, ud + 1).link());
            push(tr, Sqe::close(-1, ud + 2).chained());
            push(tr, Sqe::shutdown(sd, ud + 3));
            push(
                tr,
                Sqe::write_fixed(self.logfd, CAP as u32, LOG_LINE as u32, ud + 4),
            );
        }
        ok &= self.enter(tr, 5 * batch);
        while let Some(c) = tr.call("kuring.reap_cqe", || ring.reap_cqe()) {
            ok &= match c.user_data % 8 {
                1 => c.res > 0,
                4 => c.res == LOG_LINE as i64,
                _ => c.res >= 0,
            };
        }
        if !ok {
            self.failed += batch as u64;
        }
    }

    /// Each client reads its response to EOF and compares it with the
    /// document; then both ends close.
    fn drain(&mut self, tr: &mut Tracer, served: &[(i32, usize, u64)]) {
        let sys = self.rig.sys.clone();
        let machine = self.rig.machine.clone();
        let cpid = self.client.pid;
        let casid = machine.proc_asid(cpid).expect("client alive");
        let mut got = vec![0u8; 32 * 1024];
        for &(csd, doc, _) in served {
            let mut at = 0usize;
            let mut same = true;
            loop {
                let n = tr.call("ksyscall.sys_recv", || {
                    sys.sys_recv(cpid, csd, self.client.buf, got.len())
                });
                if n <= 0 {
                    same &= n == 0;
                    break;
                }
                let n = n as usize;
                tr.call("ksim.read_virt", || {
                    machine.mem.read_virt(casid, self.client.buf, &mut got[..n])
                })
                .expect("client buffer");
                same &= self.docs[doc].get(at..at + n) == Some(&got[..n]);
                at += n;
            }
            if !same || at != self.docs[doc].len() {
                self.failed += 1;
            }
            tr.call("ksyscall.sys_shutdown", || sys.sys_shutdown(cpid, csd));
        }
    }

    /// Run until `n` requests have completed; the latency result of the
    /// first `n`.
    fn run_to(&mut self, tr: &mut Tracer, n: usize) -> LoadResult {
        while self.lat.len() < n {
            self.step(tr);
        }
        let last_due = self.due[n - 1];
        let backlog = self.done_at[..n].iter().filter(|&&d| d > last_due).count();
        LoadResult::new(self.lat[..n].to_vec(), backlog)
    }
}

impl Workload for Web {
    const NAME: &'static str = "web";
    const PARAMS: Params = Params {
        sim_ops: 300_000,
        trace_ops: 20_000,
        nominal: 46000.0,
        ladder: &[
            30_000.0, 40_000.0, 46_000.0, 50_000.0, 54_000.0, 57_000.0, 60_000.0, 62_000.0,
            64_000.0, 66_000.0,
        ],
        p99_limit_us: 1000.0,
        setups: 201,
    };

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        Web::build(seed, Some(Self::PARAMS.nominal), tr)
    }

    fn probe(&self) -> Probe {
        Probe {
            machine: Some(self.rig.machine.clone()),
            dev: Some(self.rig.dev.clone()),
            vfs: Some(self.rig.vfs.clone()),
            sys: Some(self.rig.sys.clone()),
            ring_pid: Some(self.server.pid),
            ..Probe::default()
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> usize {
        let id = self.lat.len() as u64;
        tr.op("bench.web_batch", id, |tr| {
            match self.rate {
                Some(rate) => {
                    // Idle server: jump to the next arrival.
                    if self.queued.is_empty() {
                        self.now = self.now.max(self.arrivals[self.connected]);
                    }
                    while self.arrivals.last().is_some_and(|&a| a <= self.now) {
                        let next =
                            self.arrivals[self.arrivals.len() - 1] + exp_gap(&mut self.gaps, rate);
                        self.arrivals.push(next);
                    }
                    // Every client already due connects.
                    let upto = stats::admit(&self.arrivals, self.connected, self.now, usize::MAX);
                    for i in self.connected..upto {
                        let due = self.arrivals[i];
                        self.connect(tr, due);
                    }
                    self.connected = upto;
                }
                None => {
                    while self.queued.len() < CAP {
                        let now = self.now;
                        self.connect(tr, now);
                    }
                }
            }
            // The server takes every queued connection already due, up to
            // the ring size.
            let dues: Vec<u64> = self.queued.iter().map(|q| q.2).collect();
            let batch = stats::admit(&dues, 0, self.now, CAP);
            if batch == 0 {
                return 0;
            }
            // Server time is CPU time: the access log's write-back is
            // asynchronous, so its disk cycles do not delay responses.
            let k0 = self.rig.machine.clock.snapshot();
            self.serve(tr, batch);
            let iv = self.rig.machine.clock.since(k0);
            let k = iv.user + iv.sys;
            self.server_cycles += k;
            self.now += k;
            let served: Vec<(i32, usize, u64)> = self.queued.drain(..batch).collect();
            for &(_, _, due) in &served {
                self.due.push(due);
                self.done_at.push(self.now);
                self.lat.push(self.now - due);
            }
            self.drain(tr, &served);
            batch
        })
    }

    fn done(&self) -> usize {
        self.lat.len()
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn sim_record(&self) -> &[u64] {
        &self.lat
    }

    fn finish(&mut self) -> u64 {
        // Refused connections are failures at the nominal rate.
        self.refused
    }

    fn phase_extra(&self) -> [u64; 2] {
        [self.enters, self.sqes]
    }

    /// Capacity from a saturated closed loop; each ladder rung is its own
    /// open-loop run on a fresh rig.
    fn open_loop(&self, seed: u64) -> OpenLoop {
        let p = Self::PARAMS;
        let n = p.sim_ops;
        let last_due = self.due[n - 1];
        let backlog = self.done_at[..n].iter().filter(|&&d| d > last_due).count();
        let nominal = LoadResult::new(self.lat[..n].to_vec(), backlog);
        let mut off = Tracer::new(false);
        let mut extra_ops = 0u64;
        let mut extra_failed = 0u64;

        let mut sat = Web::build(seed, None, &mut off);
        sat.run_to(&mut off, RUNG_OPS);
        let capacity = sat.lat.len() as f64 * HZ / sat.server_cycles as f64;
        extra_ops += sat.lat.len() as u64;
        extra_failed += sat.failed + sat.refused;
        drop(sat);

        let ladder = p
            .ladder
            .iter()
            .map(|&rate| {
                let mut w = Web::build(seed, Some(rate), &mut off);
                let mut r = w.run_to(&mut off, RUNG_OPS);
                extra_ops += w.lat.len() as u64 + w.refused;
                extra_failed += w.failed;
                if w.refused > 0 {
                    // A refused request misses every latency limit.
                    r.backlog_at_end = r.backlog_at_end.max(r.lat.len());
                }
                (rate, r)
            })
            .collect();
        OpenLoop {
            capacity,
            nominal,
            ladder,
            extra_ops,
            extra_failed,
        }
    }
}
