//! The live, closed-loop measurement: two generator threads, each with
//! one keep-alive connection per server, alternating between the staged
//! and the thread-per-request server in slices.

use crate::client::Client;
use crate::procstat;
use crate::stats::LogHist;
use crate::workload::{body_ok, Session, Sizes, Workload};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Load-generator threads, each with one connection per server.
pub const CONNECTIONS: u64 = 2;

/// The two servers, as indices into [`LiveResult::sides`].
pub const STAGED: usize = 0;
/// See [`STAGED`].
pub const BASELINE: usize = 1;

/// Phase word: bit 0 is the server, bit 1 means "record", the bits
/// above hold the measured slice's index.
const RECORD: u64 = 2;
const SLICE_SHIFT: u32 = 2;
const STOP: u64 = u64::MAX;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// The request-stream seed.
    pub seed: u64,
    /// Measured time, split evenly between the servers.
    pub measure: Duration,
    /// Unrecorded warm-up per server before measuring.
    pub warmup: Duration,
    /// Slices per server; the order runs ABBA so drift cancels.
    pub slices: u32,
    /// The CPUs the process is bound to in turn, one at a time, two
    /// slice pairs each.
    pub cpus: Vec<usize>,
}

/// Everything measured against one server.
#[derive(Debug, Default)]
pub struct SideResult {
    /// Correct `2xx` responses.
    pub ok: u64,
    /// Non-2xx responses, transport errors and failed checks, warm-up
    /// included.
    pub failed: u64,
    /// Correct responses outside the measured slices (warm-up).
    pub unrecorded: u64,
    /// Write requests sent.
    pub writes: u64,
    /// Wall time this server was measured.
    pub wall: Duration,
    /// CPU time of every non-benchmark thread while measured.
    pub server_cpu_ns: u64,
    /// CPU time of the generator threads while measured.
    pub client_cpu_ns: u64,
}

/// One run's measurements.
#[derive(Debug, Default)]
pub struct LiveResult {
    /// Indexed by [`STAGED`] and [`BASELINE`].
    pub sides: [SideResult; 2],
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Every measured slice, in order.
    pub slices: Vec<Slice>,
}

/// One measured slice.
#[derive(Debug, Clone)]
pub struct Slice {
    /// [`STAGED`] or [`BASELINE`].
    pub side: usize,
    /// Wall time.
    pub wall: Duration,
    /// Server CPU nanoseconds.
    pub server_cpu_ns: u64,
    /// The CPU the process was bound to.
    pub cpu: usize,
    /// Host steal of that CPU over the slice, in clock ticks.
    pub steal_ticks: u64,
    /// Latency of every correct response, in nanoseconds.
    pub latencies_ns: LogHist,
}

/// Hooks the traced run uses around the measured window.
pub trait Window {
    /// Called after warm-up, before the first measured slice.
    fn before(&mut self) {}
    /// Called after the last measured slice.
    fn after(&mut self) {}
}

impl Window for () {}

/// Runs the closed loop against `addrs` (`[staged, baseline]`).
pub fn run(
    cfg: &LiveConfig,
    addrs: [SocketAddr; 2],
    sizes: Sizes,
    thumbs: &Arc<Vec<Vec<u8>>>,
    window: &mut dyn Window,
) -> LiveResult {
    let phase = Arc::new(AtomicU64::new(STAGED as u64));
    let (tid_tx, tid_rx) = mpsc::channel();
    let mut handles = Vec::new();
    for conn in 0..CONNECTIONS {
        let phase = Arc::clone(&phase);
        let thumbs = Arc::clone(thumbs);
        let tid_tx = tid_tx.clone();
        let cfg = cfg.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("gen-{conn}"))
                .spawn(move || {
                    tid_tx
                        .send(procstat::tid().expect("own task id"))
                        .expect("control thread listens");
                    generate(&cfg, conn, addrs, sizes, &thumbs, &phase)
                })
                .expect("spawn a generator thread"),
        );
    }
    let mut bench_tids: Vec<u32> = (0..CONNECTIONS)
        .map(|_| tid_rx.recv().expect("each generator reports its task id"))
        .collect();
    let gen_tids = bench_tids.clone();
    bench_tids.push(procstat::tid().expect("own task id"));

    for side in [STAGED, BASELINE] {
        phase.store(side as u64, Ordering::SeqCst);
        std::thread::sleep(cfg.warmup);
    }
    window.before();
    let mut result = LiveResult::default();
    let slice = cfg.measure / (2 * cfg.slices);
    let sample = || {
        let server = procstat::cpu_ns_excluding(&bench_tids).expect("read /proc/self/task");
        let client: u64 = gen_tids
            .iter()
            .map(|t| procstat::task_cpu_ns(*t).expect("read generator schedstat"))
            .sum();
        (server, client)
    };
    for pair in 0..cfg.slices {
        // Two pairs (ABBA) per CPU give both servers equal time on each:
        // the host slows its CPUs independently of one another.
        let cpu = cfg.cpus[(pair / 2) as usize % cfg.cpus.len()];
        if pair % 2 == 0 {
            procstat::bind_process(cpu).expect("bind the process to one CPU");
        }
        let order = if pair % 2 == 0 {
            [STAGED, BASELINE]
        } else {
            [BASELINE, STAGED]
        };
        for side in order {
            let index = result.slices.len() as u64;
            let (server0, client0) = sample();
            let steal0 = procstat::steal_ticks(cpu).unwrap_or(0);
            let started = Instant::now();
            phase.store(
                side as u64 | RECORD | index << SLICE_SHIFT,
                Ordering::SeqCst,
            );
            std::thread::sleep(slice);
            phase.store(side as u64, Ordering::SeqCst);
            let wall = started.elapsed();
            let (server1, client1) = sample();
            let steal1 = procstat::steal_ticks(cpu).unwrap_or(0);
            let s = &mut result.sides[side];
            result.slices.push(Slice {
                side,
                cpu,
                wall,
                server_cpu_ns: server1 - server0,
                steal_ticks: steal1.saturating_sub(steal0),
                latencies_ns: LogHist::default(),
            });
            s.wall += wall;
            s.server_cpu_ns += server1 - server0;
            s.client_cpu_ns += client1 - client0;
        }
    }
    phase.store(STOP, Ordering::SeqCst);
    for h in handles {
        let (sides, failures, latencies) = h.join().expect("generator thread panicked");
        for (slice, lat) in result.slices.iter_mut().zip(&latencies) {
            slice.latencies_ns.merge(lat);
        }
        for (into, from) in result.sides.iter_mut().zip(sides) {
            into.ok += from.ok;
            into.failed += from.failed;
            into.unrecorded += from.unrecorded;
            into.writes += from.writes;
        }
        result.failures.extend(failures);
    }
    window.after();
    result
}

/// One generator thread: a session and a connection per server, one
/// request outstanding at a time.
fn generate(
    cfg: &LiveConfig,
    conn: u64,
    addrs: [SocketAddr; 2],
    sizes: Sizes,
    thumbs: &[Vec<u8>],
    phase: &AtomicU64,
) -> ([SideResult; 2], Vec<String>, Vec<LogHist>) {
    let mut sessions =
        [0, 1].map(|_| Session::new(cfg.workload, cfg.seed, conn, CONNECTIONS, sizes));
    let mut clients = addrs.map(Client::new);
    let mut sides: [SideResult; 2] = Default::default();
    let mut failures = Vec::new();
    let mut latencies: Vec<LogHist> = (0..2 * cfg.slices).map(|_| LogHist::default()).collect();
    let mut last_side = STAGED;
    loop {
        let p = phase.load(Ordering::SeqCst);
        if p == STOP {
            break;
        }
        let side = (p & 1) as usize;
        if side != last_side {
            // Close the idle server's connection: a parked keep-alive
            // connection would hold one of its workers in a blocking
            // read for the whole slice and bill that to its stage.
            clients[last_side].close();
            last_side = side;
        }
        let req = sessions[side].next_req();
        let client = &mut clients[side];
        if let Err(e) = client.connect() {
            sides[side].failed += 1;
            if failures.len() < 5 {
                failures.push(format!("connect: {e}"));
            }
            continue;
        }
        let started = Instant::now();
        let status = client.get(&req.target);
        let latency = started.elapsed();
        let ok = matches!(status, Ok(200..=299)) && body_ok(&req.expect, client.body(), thumbs);
        if ok {
            sessions[side].observe(&req, client.body());
        }
        let s = &mut sides[side];
        let record = p & RECORD != 0;
        if ok && record {
            s.ok += 1;
            s.writes += u64::from(req.writes());
            latencies[(p >> SLICE_SHIFT) as usize].record(latency.as_nanos() as u64);
        } else if ok {
            s.unrecorded += 1;
        } else {
            s.failed += 1;
            if failures.len() < 5 {
                failures.push(format!(
                    "{} {}: {:?}",
                    ["staged", "baseline"][side],
                    req.target,
                    status.map_err(|e| e.to_string())
                ));
            }
        }
    }
    (sides, failures, latencies)
}
