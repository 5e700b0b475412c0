//! Whole-stack differential oracle: the plain path against every
//! optimisation.
//!
//! One populated TPC-W database is restored twice. The thread-per-request
//! server runs on one copy with the query planner off; the staged server
//! runs on the other with the planner, the document cache and the render
//! split on. A seeded, sequential TPC-W session stream — the browsing
//! mix, checkout sessions, and admin cost writes each followed by a
//! freshness read of the written item — is replayed in lockstep on one
//! keep-alive connection per server. Every response must be
//! byte-identical once `Date` and `Age` are blanked: the optimisations
//! may change how fast a page is produced, never what it says.

use staged_web::core::{BaselineServer, ServerConfig, ServerHandle, StagedServer};
use staged_web::db::{CostModel, Database};
use staged_web::tpcw::{build_app, populate, Browser, ScaleConfig, PAGES};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x0d1f_f0ac;
const ROUNDS: usize = 24;
const MIX_PER_ROUND: usize = 10;
/// The checkout session each round walks through, so the rare order
/// pages are covered whatever the mix draws.
const CHECKOUT: [&str; 8] = [
    "shopping_cart",
    "shopping_cart",
    "customer_registration",
    "buy_request",
    "buy_confirm",
    "order_inquiry",
    "order_display",
    "admin_request",
];

/// `ScaleConfig::small()` with the emulated render and static costs off.
fn scale() -> ScaleConfig {
    ScaleConfig {
        render_weight_per_kb: Duration::ZERO,
        static_weight: Duration::ZERO,
        ..ScaleConfig::small()
    }
}

/// A fresh copy of the populated database, with no synthetic cost.
fn restore(snapshot: &[u8]) -> Arc<Database> {
    let db = Database::restore(snapshot).expect("snapshot restores");
    db.set_cost_model(CostModel::free());
    Arc::new(db)
}

/// One server and the keep-alive connection the stream runs on.
struct Leg {
    server: ServerHandle,
    stream: TcpStream,
}

impl Leg {
    fn new(server: ServerHandle) -> Leg {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Leg { server, stream }
    }

    /// Sends one GET and returns the raw response, `Date` and `Age`
    /// values blanked.
    fn get(&mut self, target: &str) -> Vec<u8> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: oracle\r\n\r\n");
        self.stream.write_all(request.as_bytes()).expect("send");
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            let n = self.stream.read(&mut byte).expect("response head");
            assert_eq!(n, 1, "connection closed before the response to {target}");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).expect("ASCII head");
        let mut out = String::new();
        let mut length = 0;
        for line in head.split_inclusive("\r\n") {
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().expect("numeric Content-Length");
            }
            if lower.starts_with("date:") || lower.starts_with("age:") {
                let name = &line[..line.find(':').unwrap()];
                out.push_str(&format!("{name}: -\r\n"));
            } else {
                out.push_str(line);
            }
        }
        let mut raw = out.into_bytes();
        let start = raw.len();
        raw.resize(start + length, 0);
        self.stream.read_exact(&mut raw[start..]).expect("body");
        raw
    }
}

#[test]
fn staged_optimisations_answer_byte_for_byte_like_the_plain_baseline() {
    let scale = scale();
    let db = Database::new();
    populate(&db, &scale);
    let mut snapshot = Vec::new();
    db.dump(&mut snapshot).expect("dump");

    let plain = restore(&snapshot);
    plain.set_use_planner(false);
    let baseline = BaselineServer::start(
        ServerConfig::default(),
        build_app(&plain, &scale),
        Arc::clone(&plain),
    )
    .expect("baseline starts");
    let optimised = restore(&snapshot);
    let staged = StagedServer::start(
        ServerConfig {
            doc_cache: true,
            split_render: true,
            ..ServerConfig::default()
        },
        build_app(&optimised, &scale),
        Arc::clone(&optimised),
    )
    .expect("staged starts");
    assert!(optimised.use_planner(), "the planner is on by default");
    let mut legs = [Leg::new(baseline), Leg::new(staged)];

    // One browser drives both servers: each target is sent to both, and
    // the session learns from the (identical) answer.
    let mut browser = Browser::new(SEED, scale.clone());
    let mut covered = BTreeSet::new();
    let mut requests = 0;
    let mut step = |browser: &mut Browser, route: &str, target: &str| {
        let [plain, optimised] = &mut legs;
        let expected = plain.get(target);
        let got = optimised.get(target);
        assert!(
            expected.starts_with(b"HTTP/1.1 200 "),
            "{route} {target}: {}",
            String::from_utf8_lossy(&expected[..expected.len().min(200)])
        );
        assert!(
            expected == got,
            "{route} {target} differs:\n--- baseline\n{}\n--- staged\n{}",
            String::from_utf8_lossy(&expected),
            String::from_utf8_lossy(&got)
        );
        let body_at = expected.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        browser.observe(route, &expected[body_at..]);
        covered.insert(route.to_string());
        requests += 1;
    };
    for _ in 0..ROUNDS {
        for _ in 0..MIX_PER_ROUND {
            let route = browser.next_page();
            let target = browser.target_for(route);
            step(&mut browser, route, &target);
        }
        for route in CHECKOUT {
            let target = browser.target_for(route);
            step(&mut browser, route, &target);
        }
        // An admin cost write between a cached read and a fresh read of
        // the same item: the staged server must not serve the old page.
        let write = browser.target_for("admin_response");
        let item = write
            .split(['?', '&'])
            .find_map(|kv| kv.strip_prefix("i_id="))
            .expect("admin write names its item")
            .to_string();
        let detail = format!("/product_detail?i_id={item}");
        step(&mut browser, "product_detail", &detail);
        step(&mut browser, "product_detail", &detail);
        step(&mut browser, "admin_response", &write);
        step(&mut browser, "product_detail", &detail);
    }

    let all: BTreeSet<String> = PAGES.iter().map(|(r, _)| r.to_string()).collect();
    assert_eq!(covered, all, "the stream covers all 14 interactions");
    assert_eq!(requests, ROUNDS * (MIX_PER_ROUND + CHECKOUT.len() + 4));
    let [plain, optimised] = legs;
    let hits = optimised
        .server
        .registry()
        .value("doc_cache_hits_total", &[])
        .unwrap_or(0.0);
    assert!(hits > 0.0, "the document cache served part of the stream");
    drop(plain.stream);
    drop(optimised.stream);
    plain.server.shutdown().expect("clean shutdown");
    optimised.server.shutdown().expect("clean shutdown");
}
