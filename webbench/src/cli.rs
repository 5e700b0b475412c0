//! The command line: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1> [--spans <file>]`.
//!
//! A timed run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the live phase with two `/metrics` scrapes
//! around it, then replays the stream in-process with spans, and prints
//! the per-layer metrics. Both print one JSON object as the last line
//! of standard output and exit non-zero on any correctness violation.

use crate::client::Client;
use crate::deploy::{restore, server_config, Deployment};
use crate::live::{self, LiveConfig, LiveResult, Slice, Window, BASELINE, STAGED};
use crate::procstat;
use crate::replay::{self, normalise, split_response, LayerTotals, Replay, LAYERS, NODE0};
use crate::scrape::Scrape;
use crate::stats::{median, LogHist};
use crate::workload::{body_ok, Session, Workload};
use staged_core::{ServerHandle, StagedServer};
use staged_db::PLAN_NODE_KINDS;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Unrecorded warm-up per server.
const WARMUP: Duration = Duration::from_millis(1500);

/// Requests the traced replay drives, per workload.
fn replay_requests(workload: Workload) -> u32 {
    match workload {
        Workload::Browse => 6_000,
        Workload::CachedRw => 15_000,
        Workload::StaticSmall => 30_000,
    }
}
/// Requests in the live-versus-replay byte comparison.
const PREFIX: usize = 200;

/// Parsed arguments.
#[derive(Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The request-stream seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: Option<String>,
}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Describes a missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut spans = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--spans" => spans = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            spans,
        })
    }
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The run's outcome, printed as the last line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs the command line; returns the exit code.
pub fn main(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("webbench: {e}");
            return 2;
        }
    };
    if args.trace != traced {
        eprintln!(
            "webbench: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "webbench-traced"
            } else {
                "webbench"
            }
        );
        return 2;
    }
    let cpus = match procstat::allowed_cpus() {
        Ok(cpus) => cpus,
        Err(e) => {
            eprintln!("webbench: read the CPU affinity: {e}");
            return 1;
        }
    };
    println!("runs on one CPU at a time, in turn: {cpus:?}");
    let report = if args.trace {
        traced_run(&args, &cpus)
    } else {
        timed_run(&args, &cpus)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("webbench: {e}");
            return 1;
        }
    };
    for v in &report.violations {
        println!("violation: {v}");
    }
    println!("{}", report.json());
    if report.correct() {
        0
    } else {
        1
    }
}

/// Binds the process to `cpu` and sets up a deployment; returns it with
/// its set-up time in seconds.
fn set_up(workload: Workload, cpu: usize) -> Result<(Deployment, f64), String> {
    procstat::bind_process(cpu).map_err(|e| format!("bind to CPU {cpu}: {e}"))?;
    let (dep, took) = Deployment::start(workload).map_err(|e| format!("set-up: {e}"))?;
    Ok((dep, took.as_secs_f64()))
}

fn live_config(args: &Args, cpus: &[usize]) -> LiveConfig {
    LiveConfig {
        workload: args.workload,
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        warmup: WARMUP,
        // Half-second slices: short enough to tell steal bursts apart.
        slices: args.seconds as u32,
        cpus: cpus.to_vec(),
    }
}

fn live_run(args: &Args, cpus: &[usize], dep: &Deployment, window: &mut dyn Window) -> LiveResult {
    let addrs = [dep.staged.addr(), dep.baseline.addr()];
    live::run(
        &live_config(args, cpus),
        addrs,
        dep.sizes,
        &dep.thumbs,
        window,
    )
}

/// Failure accounting shared by both runs: every failed request, every
/// shed, counted against the attempts.
fn account(report: &mut Report, result: &LiveResult, dep: &Deployment) {
    for s in &result.sides {
        report.attempted += s.ok + s.failed + s.unrecorded;
        report.failed += s.failed;
    }
    for f in &result.failures {
        report.violation(format!("failed request: {f}"));
    }
    let sheds = dep.staged.stats().total_sheds() + dep.baseline.stats().total_sheds();
    if sheds > 0 {
        report.violation(format!("{sheds} requests shed"));
    }
}

fn timed_run(args: &Args, cpus: &[usize]) -> Result<Report, String> {
    let (dep, first_setup_s) = set_up(args.workload, cpus[0])?;
    let result = live_run(args, cpus, &dep, &mut ());
    let mut report = Report::default();
    account(&mut report, &result, &dep);
    for (i, slice) in result.slices.iter().enumerate() {
        let ok = slice.latencies_ns.len() as f64;
        let q = |q| slice.latencies_ns.quantile(q).unwrap_or(0.0) / 1e3;
        println!(
            "slice {i}: {:8} CPU {} {:.3} s, {:9.1} req/s, p50 {:8.1} us, p99 {:8.1} us, server CPU {:6.1} us/req, steal {} ticks",
            ["staged", "baseline"][slice.side],
            slice.cpu,
            slice.wall.as_secs_f64(),
            ok / slice.wall.as_secs_f64(),
            q(0.5),
            q(0.99),
            slice.server_cpu_ns as f64 / ok / 1e3,
            slice.steal_ticks,
        );
    }
    for (side, prefix) in [(STAGED, ""), (BASELINE, "baseline_")] {
        let all = &result.sides[side];
        let kept = quiet_slices(&result.slices, side);
        let wall: f64 = kept.iter().map(|s| s.wall.as_secs_f64()).sum();
        let cpu_ns: u64 = kept.iter().map(|s| s.server_cpu_ns).sum();
        let mut latencies = LogHist::default();
        for s in &kept {
            latencies.merge(&s.latencies_ns);
        }
        let n = latencies.len();
        let p50 = latencies.quantile(0.50).unwrap_or(0.0) / 1e3;
        let p99 = latencies.quantile(0.99).unwrap_or(0.0) / 1e3;
        println!(
            "{}: {} ok, {} failed over {:.3} s ({:.1} req/s); metrics from the {} quietest slices: {} latency samples over {:.3} s ({} beyond p99), steal {} ticks",
            ["staged", "baseline"][side],
            all.ok,
            all.failed,
            all.wall.as_secs_f64(),
            all.ok as f64 / all.wall.as_secs_f64(),
            kept.len(),
            n,
            wall,
            n / 100,
            kept.iter().map(|s| s.steal_ticks).sum::<u64>(),
        );
        report.metric(&format!("{prefix}throughput_rps"), n as f64 / wall, "1/s");
        report.metric(&format!("{prefix}latency_p50_us"), p50, "us");
        report.metric(&format!("{prefix}latency_p99_us"), p99, "us");
        report.metric(
            &format!("{prefix}server_cpu_us_per_req"),
            cpu_ns as f64 / n.max(1) as f64 / 1e3,
            "us",
        );
    }
    report.metric(
        "rss_peak_mb",
        procstat::vm_hwm_mib().map_err(|e| e.to_string())?,
        "MB",
    );
    dep.shutdown()?;
    // The other set-ups follow the run, so the peak above is that of one
    // deployment; they take the CPUs in turn, as the run did.
    let mut setups = vec![first_setup_s];
    for i in 1..SETUPS {
        let (dep, took) = set_up(args.workload, cpus[i % cpus.len()])?;
        dep.shutdown()?;
        setups.push(took);
    }
    println!("setup_s samples: {setups:?}");
    report.metric("setup_s", median(&setups), "s");
    Ok(report)
}

/// Scrapes `/metrics` of both servers before and after the window.
struct Scrapes {
    addrs: [SocketAddr; 2],
    before: Vec<Scrape>,
    after: Vec<Scrape>,
}

impl Scrapes {
    fn take(&self) -> Vec<Scrape> {
        self.addrs
            .iter()
            .map(|addr| {
                let mut client = Client::new(*addr);
                match client.get("/metrics") {
                    Ok(200) => Scrape::parse(&String::from_utf8_lossy(client.body()))
                        .expect("the server's exposition parses"),
                    other => panic!("scrape of {addr} failed: {other:?}"),
                }
            })
            .collect()
    }
}

impl Window for Scrapes {
    fn before(&mut self) {
        self.before = self.take();
    }
    fn after(&mut self) {
        self.after = self.take();
    }
}

fn traced_run(args: &Args, cpus: &[usize]) -> Result<Report, String> {
    let (dep, _) = set_up(args.workload, cpus[0])?;
    let mut report = Report::default();

    // Live phase: the timed run's loop, with scrapes around the window.
    let mut scrapes = Scrapes {
        addrs: [dep.staged.addr(), dep.baseline.addr()],
        before: Vec::new(),
        after: Vec::new(),
    };
    let result = live_run(args, cpus, &dep, &mut scrapes);
    account(&mut report, &result, &dep);
    let staged = scrapes.before[STAGED].delta_to(&scrapes.after[STAGED]);
    let baseline = scrapes.before[BASELINE].delta_to(&scrapes.after[BASELINE]);
    for stage in ["header", "static", "general", "lengthy", "render"] {
        report.metric(
            &format!("pool.{stage}.wait_us"),
            staged.mean_us("stage_queue_wait_seconds", &[("stage", stage)]),
            "us",
        );
        report.metric(
            &format!("pool.{stage}.service_us"),
            staged.mean_us("stage_service_seconds", &[("stage", stage)]),
            "us",
        );
    }
    report.metric(
        "pool.worker.wait_us",
        baseline.mean_us("stage_queue_wait_seconds", &[("stage", "worker")]),
        "us",
    );
    // A baseline worker serves a whole keep-alive connection per job,
    // so its service time is reported per request served.
    report.metric(
        "pool.worker.service_us",
        ratio(
            baseline.get("stage_service_seconds_sum", &[("stage", "worker")]) * 1e6,
            baseline.family_sum("requests_completed_total"),
        ),
        "us",
    );
    report.metric(
        "pool.sheds",
        staged.family_sum("sheds_total") + baseline.family_sum("sheds_total"),
        "count",
    );
    let quick = staged.get("requests_completed_total", &[("class", "quick-dynamic")]);
    let lengthy = staged.get("requests_completed_total", &[("class", "lengthy-dynamic")]);
    report.metric(
        "core.scheduler.lengthy_share",
        ratio(lengthy, quick + lengthy),
        "ratio",
    );
    let hits = staged.get("doc_cache_hits_total", &[]);
    let misses = staged.get("doc_cache_misses_total", &[]);
    let s = &result.sides[STAGED];
    report.metric(
        "core.doccache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    report.metric(
        "core.doccache.invalidations_per_write",
        ratio(
            staged.get("doc_cache_invalidations_total", &[]),
            s.writes as f64,
        ),
        "count",
    );
    report.metric(
        "core.doccache.stale_discards",
        staged.get("doc_cache_stale_discards_total", &[]),
        "count",
    );
    let ok_all = (result.sides[STAGED].ok + result.sides[BASELINE].ok).max(1) as f64;
    let client_cpu =
        (result.sides[STAGED].client_cpu_ns + result.sides[BASELINE].client_cpu_ns) as f64;
    report.metric("client.cpu_us_per_req", client_cpu / ok_all / 1e3, "us");
    let live_rps = s.ok as f64 / s.wall.as_secs_f64();
    let server_cpu_us = s.server_cpu_ns as f64 / s.ok.max(1) as f64 / 1e3;
    report.metric("trace.live_throughput_rps", live_rps, "1/s");
    report.metric("trace.live_server_cpu_us_per_req", server_cpu_us, "us");

    // The replay must measure the same program as the live server.
    if let Err(e) = compare_prefix(args, &dep) {
        report.violation(e);
    }

    // Replay: once plain, once with spans; the difference per request is
    // the span overhead.
    let n = replay_requests(args.workload);
    let plain =
        replay::run(&dep, args.workload, args.seed, n, false, None).map_err(|e| e.to_string())?;
    let mut file = match &args.spans {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    let spanned = replay::run(
        &dep,
        args.workload,
        args.seed,
        n,
        true,
        file.as_mut().map(|f| f as &mut dyn std::io::Write),
    )
    .map_err(|e| e.to_string())?;
    if let Some(mut f) = file {
        std::io::Write::flush(&mut f).map_err(|e| e.to_string())?;
    }
    report.attempted += plain.requests + spanned.requests;
    report.failed += plain.failed + spanned.failed;
    layer_metrics(&mut report, &spanned, server_cpu_us);
    let per_req = |t: &LayerTotals| t.wall_ns as f64 / t.requests as f64 / 1e3;
    report.metric(
        "trace.span_overhead_us",
        per_req(&spanned) - per_req(&plain),
        "us",
    );
    dep.shutdown()?;
    Ok(report)
}

/// `side`'s slices whose host steal is at most the lower quartile of
/// that server's slices (ties included), in measurement order. On a
/// shared virtual machine steal comes in bursts, and in periods, that
/// slow the staged server two- to threefold; end-to-end metrics are
/// taken over the quietest slices, so they track the program rather than
/// its neighbours. A run with no steal keeps every slice.
fn quiet_slices(slices: &[Slice], side: usize) -> Vec<&Slice> {
    let mine: Vec<&Slice> = slices.iter().filter(|s| s.side == side).collect();
    let mut steal: Vec<u64> = mine.iter().map(|s| s.steal_ticks).collect();
    steal.sort_unstable();
    let Some(&cutoff) = steal.get(steal.len().div_ceil(4).saturating_sub(1)) else {
        return mine;
    };
    mine.into_iter()
        .filter(|s| s.steal_ticks <= cutoff)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The replay's per-layer means per request.
fn layer_metrics(report: &mut Report, t: &LayerTotals, server_cpu_us: f64) {
    let n = t.requests as f64;
    let us = |layer: usize| t.cpu_ns[layer] as f64 / n / 1e3;
    let allocs = |layer: usize| t.allocs[layer] as f64 / n;
    let idx = |name: &str| LAYERS.iter().position(|l| *l == name).expect("known layer");
    report.metric("http.parse_us", us(idx("http.parse")), "us");
    report.metric("http.write_us", us(idx("http.write")), "us");
    report.metric("http.static_us", us(idx("http.static")), "us");
    report.metric(
        "http.allocs",
        allocs(idx("http.parse")) + allocs(idx("http.write")) + allocs(idx("http.static")),
        "count",
    );
    report.metric("core.route_us", us(idx("core.route")), "us");
    report.metric(
        "core.doccache.lookup_us",
        us(idx("core.doccache.lookup")),
        "us",
    );
    report.metric(
        "core.doccache.publish_us",
        us(idx("core.doccache.publish")),
        "us",
    );
    report.metric("db.checkout_us", us(idx("db.checkout")), "us");
    let nodes = NODE0 as usize..LAYERS.len();
    report.metric("db.select_us", nodes.clone().map(us).sum(), "us");
    for (i, kind) in PLAN_NODE_KINDS.iter().enumerate() {
        report.metric(&format!("db.node.{kind}_us"), us(NODE0 as usize + i), "us");
    }
    report.metric("tpcw.handler_us", us(idx("tpcw.handler")), "us");
    report.metric("tpcw.handler_allocs", allocs(idx("tpcw.handler")), "count");
    report.metric("templates.render_us", us(idx("templates.render")), "us");
    report.metric(
        "templates.render_allocs",
        allocs(idx("templates.render")),
        "count",
    );
    report.metric("templates.bytes", t.rendered_bytes as f64 / n, "bytes");
    let request = t.cpu_ns.iter().sum::<u64>() as f64 / n / 1e3;
    let layers = request - us(idx("request"));
    report.metric("replay.request_us", request, "us");
    report.metric("replay.attributed_share", ratio(layers, request), "ratio");
    report.metric("unattributed_us_per_req", server_cpu_us - layers, "us");
}

/// Serves a seeded prefix of connection 0's stream from a fresh live
/// staged server and from a fresh replay, and requires the responses to
/// be byte-identical once time-valued headers are normalised.
fn compare_prefix(args: &Args, dep: &Deployment) -> Result<(), String> {
    let db = Arc::new(restore(&dep.snapshot));
    let app = staged_tpcw::build_app(&db, &crate::deploy::scale());
    let server: ServerHandle =
        StagedServer::start(server_config(args.workload), app, db).map_err(|e| e.to_string())?;
    let mut client = Client::new(server.addr());
    let mut session = Session::new(args.workload, args.seed, 0, live::CONNECTIONS, dep.sizes);
    let mut live_raw = Vec::with_capacity(PREFIX);
    let mut targets = Vec::with_capacity(PREFIX);
    for _ in 0..PREFIX {
        let req = session.next_req();
        let status = client
            .get(&req.target)
            .map_err(|e| format!("prefix request {}: {e}", req.target))?;
        if status == 200 && body_ok(&req.expect, client.body(), &dep.thumbs) {
            session.observe(&req, client.body());
        }
        live_raw.push(normalise(client.raw()));
        targets.push(req.target);
    }
    server.shutdown().map_err(|e| format!("{e:?}"))?;

    let mut replay = Replay::new(args.workload, &dep.snapshot);
    let mut session = Session::new(args.workload, args.seed, 0, live::CONNECTIONS, dep.sizes);
    for (i, live) in live_raw.iter().enumerate() {
        let req = session.next_req();
        if req.target != targets[i] {
            return Err(format!(
                "request {i}: replay asked {} where live asked {}",
                req.target, targets[i]
            ));
        }
        let raw = replay.serve(&req.target);
        if normalise(raw) != *live {
            return Err(format!(
                "request {i} ({}): replay response differs from the live server's",
                req.target
            ));
        }
        let (status, body) = split_response(raw);
        if status == 200 && body_ok(&req.expect, body, &dep.thumbs) {
            let body = body.to_vec();
            session.observe(&req, &body);
        }
    }
    println!("replay matches the live staged server on a {PREFIX}-request prefix");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "browse",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Browse);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(Args::parse(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&[
            "--workload",
            "browse",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&[
            "--workload",
            "browse",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn keeps_the_slices_at_or_below_the_lower_quartile_of_steal() {
        let slice = |side, steal| Slice {
            side,
            cpu: 0,
            wall: Duration::from_secs(1),
            server_cpu_ns: 0,
            steal_ticks: steal,
            latencies_ns: LogHist::default(),
        };
        let slices = [
            slice(STAGED, 9),
            slice(BASELINE, 0),
            slice(BASELINE, 5),
            slice(STAGED, 1),
            slice(STAGED, 3),
            slice(BASELINE, 2),
            slice(STAGED, 30),
            slice(STAGED, 1),
            slice(BASELINE, 0),
        ];
        let steal = |v: Vec<&Slice>| v.iter().map(|s| s.steal_ticks).collect::<Vec<_>>();
        // Five staged slices: the quartile is the 2nd smallest (1), and
        // both slices with 1 tick stay.
        assert_eq!(steal(quiet_slices(&slices, STAGED)), vec![1, 1]);
        // Ties at zero keep every quiet slice.
        assert_eq!(steal(quiet_slices(&slices, BASELINE)), vec![0, 0]);
        assert_eq!(steal(quiet_slices(&slices[..1], STAGED)), vec![9]);
        assert!(quiet_slices(&slices[..1], BASELINE).is_empty());
        let calm = [slice(STAGED, 0), slice(STAGED, 0), slice(STAGED, 0)];
        assert_eq!(quiet_slices(&calm, STAGED).len(), 3);
    }

    #[test]
    fn report_json_has_exactly_the_four_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_us", 12.5, "us");
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.violation("x".into());
        assert!(!r.correct());
    }
}
