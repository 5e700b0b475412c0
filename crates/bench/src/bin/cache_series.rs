//! Document-cache benchmark: sweeps browse/admin write mixes over the
//! staged server with the dependency-tracked cache off and on,
//! reporting throughput, hit ratio, and — the part that matters — a
//! per-write freshness check: after every admin cost update, the very
//! next read of that item's product-detail page must show the new cost.
//! Any stale serve is a violation and the run exits non-zero.
//!
//! With the `count-alloc` feature the binary also measures the
//! cache-hit serve path in isolation (key derivation → lookup →
//! vectored write) under the counting allocator; the gate is **zero**
//! allocations per hit.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --features count-alloc \
//!     --bin cache_series -- --json out.json
//! cargo run --release -p staged-bench --features count-alloc \
//!     --bin cache_series -- --smoke --json out.json
//! ```
//!
//! `--smoke` shrinks the sweep to one write mix at tiny scale and turns
//! the hit-ratio floor and freshness/zero-alloc gates into hard exits —
//! the CI bench-smoke configuration.

use staged_bench::{json_row, Experiment, Model};
use staged_core::{write_key, DocCache, Lookup};
use staged_db::ReadSet;
use staged_http::{fetch, Connection, Method, Response, StatusCode};
use staged_metrics::Snapshot;
use staged_sync::atomic::{AtomicU64, Ordering};
use std::io::Read as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../alloc_count.rs"]
mod alloc_count;

/// Minimal xorshift so the page schedule is reproducible without
/// seeding `rand` in every thread.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn roll(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

struct Args {
    smoke: bool,
    json: Option<String>,
    clients: usize,
    measure: Duration,
    ramp: Duration,
    scale: staged_tpcw::ScaleConfig,
}

fn parse_args() -> Args {
    let mut smoke = false;
    let mut json = None;
    let mut clients = None;
    let mut measure = None;
    let mut ramp = None;
    let mut scale = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            "--json" => json = Some(value(i).to_string()),
            "--clients" => clients = Some(value(i).parse().expect("--clients")),
            "--measure-secs" => {
                measure = Some(Duration::from_secs_f64(
                    value(i).parse().expect("--measure-secs"),
                ));
            }
            "--ramp-secs" => {
                ramp = Some(Duration::from_secs_f64(
                    value(i).parse().expect("--ramp-secs"),
                ));
            }
            "--scale" => {
                scale = Some(match value(i) {
                    "tiny" => staged_tpcw::ScaleConfig::tiny(),
                    "small" => staged_tpcw::ScaleConfig::small(),
                    "default" | "full" => staged_tpcw::ScaleConfig::default(),
                    other => panic!("unknown scale: {other}"),
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --smoke --json PATH --clients N \
                     --measure-secs S --ramp-secs S --scale tiny|small|default"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag: {other} (try --help)"),
        }
        i += 2;
    }

    if smoke {
        Args {
            smoke,
            json,
            clients: clients.unwrap_or(4),
            measure: measure.unwrap_or(Duration::from_secs(2)),
            ramp: ramp.unwrap_or(Duration::from_millis(500)),
            scale: scale.unwrap_or_else(staged_tpcw::ScaleConfig::tiny),
        }
    } else {
        Args {
            smoke,
            json,
            clients: clients.unwrap_or(16),
            measure: measure.unwrap_or(Duration::from_secs(10)),
            ramp: ramp.unwrap_or(Duration::from_secs(2)),
            scale: scale.unwrap_or_else(staged_tpcw::ScaleConfig::small),
        }
    }
}

/// Valid TPC-W subject strings (a handful is enough for a cacheable
/// working set).
const SUBJECTS: &[&str] = &["ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS"];

/// One leg's client-side outcome.
struct LegStats {
    completed: u64,
    errors: u64,
    freshness_checks: u64,
    freshness_violations: u64,
}

/// One row of the printed table / `--json` artifact.
struct LegRow {
    cache: &'static str,
    /// Admin-write fraction in hundredths of a percent (TPC-W: 9).
    write_mix: u64,
    requests_per_s: f64,
    hit_ratio: f64,
    completed: u64,
    errors: u64,
    freshness_checks: u64,
    freshness_violations: u64,
    stale_discards: u64,
    invalidations: u64,
}

impl Snapshot for LegRow {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("write_mix", self.write_mix as f64);
        emit("requests_per_s", self.requests_per_s);
        emit("hit_ratio", self.hit_ratio);
        emit("completed", self.completed as f64);
        emit("errors", self.errors as f64);
        emit("freshness_checks", self.freshness_checks as f64);
        emit("freshness_violations", self.freshness_violations as f64);
        emit("stale_discards", self.stale_discards as f64);
        emit("invalidations", self.invalidations as f64);
    }
}

/// Drives one closed-loop client thread until `stop`. Browsing reads
/// concentrate on a hot set (cache-friendly, like real traffic); admin
/// writes land on a per-thread item partition so the follow-up
/// freshness read is not raced by another writer to the same item.
#[allow(clippy::too_many_arguments)]
fn drive_client(
    addr: std::net::SocketAddr,
    thread_idx: usize,
    clients: usize,
    items: usize,
    write_mix: u64,
    measure_start: Instant,
    stop: Instant,
    stats: &LegStatsAtomics,
) {
    let mut rng = XorShift(0x5eed_0ca5_e5e5_0001 ^ ((thread_idx as u64) << 32));
    let mut seq: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= stop {
            break;
        }
        let measuring = now >= measure_start;
        if rng.roll(10_000) < write_mix {
            // Admin write: update the item's cost, then immediately
            // demand the new cost on the product-detail page.
            seq += 1;
            let id = thread_idx + 1 + (seq as usize % (items / clients).max(1)) * clients;
            let id = ((id - 1) % items) + 1;
            let cents = 100 + (rng.roll(8_900));
            let cost = cents as f64 / 100.0;
            let write = fetch(
                addr,
                Method::Get,
                &format!("/admin_confirm?i_id={id}&cost={cost:.2}&c_id=1"),
                &[],
            );
            let write_ok = matches!(&write, Ok(r) if r.status == StatusCode::OK);
            if !write_ok {
                if measuring {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            if measuring {
                stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            let read = fetch(
                addr,
                Method::Get,
                &format!("/product_detail?i_id={id}"),
                &[],
            );
            match read {
                Ok(r) if r.status == StatusCode::OK => {
                    let fresh = r.text().contains(&format!("${cost:.2}"));
                    if measuring {
                        stats.completed.fetch_add(1, Ordering::Relaxed);
                        stats.freshness_checks.fetch_add(1, Ordering::Relaxed);
                        if !fresh {
                            stats.freshness_violations.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if !fresh {
                        // A stale serve during ramp-up is just as wrong.
                        stats.freshness_violations.fetch_add(1, Ordering::Relaxed);
                        stats.freshness_checks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    if measuring {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            continue;
        }
        // Browsing read: weighted mix over the cacheable pages.
        let target = match rng.roll(100) {
            0..=44 => {
                // Product detail: 90 % a 16-item hot set, else uniform.
                let id = if rng.roll(10) < 9 {
                    1 + rng.roll(16.min(items as u64)) as usize
                } else {
                    1 + rng.roll(items as u64) as usize
                };
                format!("/product_detail?i_id={id}")
            }
            45..=69 => format!("/home?c_id={}", 1 + rng.roll(8)),
            70..=84 => format!(
                "/new_products?subject={}",
                SUBJECTS[rng.roll(SUBJECTS.len() as u64) as usize]
            ),
            85..=94 => format!(
                "/execute_search?type=subject&search={}",
                SUBJECTS[rng.roll(SUBJECTS.len() as u64) as usize]
            ),
            _ => "/search_request".to_string(),
        };
        match fetch(addr, Method::Get, &target, &[]) {
            Ok(r) if r.status == StatusCode::OK => {
                if measuring {
                    stats.completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {
                if measuring {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

struct LegStatsAtomics {
    completed: AtomicU64,
    errors: AtomicU64,
    freshness_checks: AtomicU64,
    freshness_violations: AtomicU64,
}

/// Runs one leg: a staged server with the cache toggled, hammered by
/// `clients` closed-loop threads at the given admin-write mix.
fn run_leg(args: &Args, cache_on: bool, write_mix: u64) -> LegRow {
    let mut exp = Experiment {
        scale: args.scale.clone(),
        ramp: args.ramp,
        measure: args.measure,
        ..Experiment::default()
    };
    exp.server.doc_cache = cache_on;

    let db = exp.build_database();
    let server = exp.start_server(Model::Modified, db);
    let addr = server.addr();
    let items = args.scale.items;
    let clients = args.clients;

    let stats = Arc::new(LegStatsAtomics {
        completed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        freshness_checks: AtomicU64::new(0),
        freshness_violations: AtomicU64::new(0),
    });
    let start = Instant::now();
    let measure_start = start + args.ramp;
    let stop = measure_start + args.measure;

    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                drive_client(
                    addr,
                    t,
                    clients,
                    items,
                    write_mix,
                    measure_start,
                    stop,
                    &stats,
                )
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let registry = server.registry();
    let metric = |name: &str| registry.value(name, &[]).unwrap_or(0.0);
    let hits = metric("doc_cache_hits_total");
    let misses = metric("doc_cache_misses_total");
    let leg = LegStats {
        completed: stats.completed.load(Ordering::Relaxed), // lint: allow(relaxed)
        errors: stats.errors.load(Ordering::Relaxed),       // lint: allow(relaxed)
        freshness_checks: stats.freshness_checks.load(Ordering::Relaxed), // lint: allow(relaxed)
        freshness_violations: stats.freshness_violations.load(Ordering::Relaxed), // lint: allow(relaxed)
    };
    let row = LegRow {
        cache: if cache_on { "on" } else { "off" },
        write_mix,
        requests_per_s: leg.completed as f64 / args.measure.as_secs_f64(),
        hit_ratio: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        completed: leg.completed,
        errors: leg.errors,
        freshness_checks: leg.freshness_checks,
        freshness_violations: leg.freshness_violations,
        stale_discards: metric("doc_cache_stale_discards_total") as u64,
        invalidations: metric("doc_cache_invalidations_total") as u64,
    };
    server.shutdown().expect("clean shutdown");
    row
}

/// Measures the cache-hit serve path in isolation: key derivation into
/// a reused buffer, cache lookup, and the vectored write of the shared
/// response over a real socket — the exact work the header stage does
/// on a hit. Returns allocations per hit (meaningful only with
/// `count-alloc`).
fn probe_hit_allocs() -> f64 {
    const ITERS: u64 = 1_000;
    let cache = DocCache::new(Duration::from_secs(3600), 64);
    let body = "x".repeat(2_048);
    let response = Arc::new(Response::html(body));
    let params = vec![("i_id".to_string(), "7".to_string())];
    let mut key = String::with_capacity(128);
    write_key(&mut key, "product_detail", &params);
    let snapshot = match cache.lookup(&key) {
        Lookup::Miss(s) => s,
        Lookup::Hit(_) => unreachable!("cache starts empty"),
    };
    assert!(cache.publish(&key, response, Arc::new(ReadSet::new()), snapshot));

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    let addr = listener.local_addr().expect("probe addr");
    let drain = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept probe peer");
        let mut buf = [0u8; 16 * 1024];
        while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
    });
    let stream = std::net::TcpStream::connect(addr).expect("connect probe");
    let mut conn = Connection::new(stream);

    let serve_one = |conn: &mut Connection<std::net::TcpStream>, key: &mut String| {
        write_key(key, "product_detail", &params);
        match cache.lookup(key) {
            Lookup::Hit(resp) => conn
                .send_for_method(Method::Get, &resp)
                .expect("probe write"),
            Lookup::Miss(_) => unreachable!("probe entry published"),
        }
    };

    // Warm-up: grow the connection's header buffer and any lazy state
    // so the measured window sees steady-state behavior only.
    for _ in 0..32 {
        serve_one(&mut conn, &mut key);
    }
    let before = alloc_count::total();
    for _ in 0..ITERS {
        serve_one(&mut conn, &mut key);
    }
    let allocs = alloc_count::total() - before;
    drop(conn);
    drain.join().expect("drain thread");
    allocs as f64 / ITERS as f64
}

fn main() {
    let args = parse_args();
    // TPC-W's WIPSb admin-response weight is 9/10 000 (0.09 %). The
    // sweep brackets it: read-only, the paper mix, ~1 %, and an
    // adversarial 5 % that should visibly thrash the cache.
    let mixes: &[u64] = if args.smoke {
        &[200]
    } else {
        &[0, 9, 100, 500]
    };
    eprintln!(
        "cache series: {} clients, {:?} measure, scale {} items, mixes {mixes:?}, alloc counting {}",
        args.clients,
        args.measure,
        args.scale.items,
        if alloc_count::enabled() { "on" } else { "off" },
    );

    // The zero-alloc probe runs first, before any server threads exist,
    // so the allocation window is single-writer.
    let hit_allocs = probe_hit_allocs();
    if alloc_count::enabled() {
        eprintln!("cache-hit serve path: {hit_allocs:.3} allocs/hit (gate: 0)");
    } else {
        eprintln!("cache-hit serve path: alloc counting off (build with --features count-alloc)");
    }

    let mut rows = Vec::new();
    for &mix in mixes {
        for cache_on in [false, true] {
            eprintln!(
                "running write mix {}/10000, cache {}…",
                mix,
                if cache_on { "on" } else { "off" }
            );
            rows.push(run_leg(&args, cache_on, mix));
        }
    }

    println!(
        "{:<7} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8} {:>9} {:>8}",
        "cache",
        "write mix",
        "req/s",
        "hit ratio",
        "completed",
        "errors",
        "fresh ✓",
        "stale!",
        "invalid."
    );
    println!("{}", "-".repeat(88));
    for row in &rows {
        println!(
            "{:<7} {:>9} {:>10.1} {:>10.3} {:>10} {:>8} {:>8} {:>9} {:>8}",
            row.cache,
            row.write_mix,
            row.requests_per_s,
            row.hit_ratio,
            row.completed,
            row.errors,
            row.freshness_checks,
            row.freshness_violations,
            row.invalidations,
        );
    }
    for &mix in mixes {
        let off = rows.iter().find(|r| r.write_mix == mix && r.cache == "off");
        let on = rows.iter().find(|r| r.write_mix == mix && r.cache == "on");
        if let (Some(off), Some(on)) = (off, on) {
            if off.requests_per_s > 0.0 {
                println!(
                    "write mix {}/10000: cache on vs off {:+.1}% requests/sec",
                    mix,
                    (on.requests_per_s / off.requests_per_s - 1.0) * 100.0
                );
            }
        }
    }

    if let Some(path) = &args.json {
        let mut json = String::from("{\"hit_allocs_per_request\":");
        json.push_str(&format!("{hit_allocs:.3}"));
        json.push_str(",\"alloc_counting\":");
        json.push_str(if alloc_count::enabled() { "1" } else { "0" });
        json.push_str(",\"rows\":[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&json_row(&[("cache", row.cache)], row));
        }
        json.push_str("]}");
        std::fs::write(path, &json).expect("write --json output");
        eprintln!("wrote {path}");
    }

    // Gates. Freshness is absolute: one stale serve anywhere fails the
    // run, smoke or not.
    let stale: u64 = rows.iter().map(|r| r.freshness_violations).sum();
    if stale > 0 {
        eprintln!("FAIL: {stale} stale serves (a response predated a committed write)");
        std::process::exit(1);
    }
    let checks: u64 = rows.iter().map(|r| r.freshness_checks).sum();
    if checks == 0 {
        eprintln!("FAIL: the freshness check never ran (no admin writes completed)");
        std::process::exit(1);
    }
    if alloc_count::enabled() && hit_allocs > 0.0 {
        eprintln!("FAIL: cache-hit serve path allocated ({hit_allocs:.3} allocs/hit)");
        std::process::exit(1);
    }
    if args.smoke {
        const HIT_FLOOR: f64 = 0.5;
        for row in rows.iter().filter(|r| r.cache == "on") {
            if row.hit_ratio < HIT_FLOOR {
                eprintln!(
                    "FAIL: hit ratio {:.3} below floor {HIT_FLOOR} at write mix {}",
                    row.hit_ratio, row.write_mix
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!("cache series: OK");
}
