//! HTTP protocol semantics across both servers: HEAD, keep-alive
//! pipelining, POST bodies, and the shared front's answers to admin,
//! malformed and unroutable requests.

use staged_web::core::{App, BaselineServer, PageOutcome, ServerConfig, StagedServer};
use staged_web::db::Database;
use staged_web::http::{read_response, Response, StaticFiles, StatusCode};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn demo_app() -> App {
    let mut statics = StaticFiles::in_memory();
    statics.insert("/logo.png", vec![7u8; 321]);
    App::builder()
        .static_files(statics)
        .route("/echo", "echo", |req, _db| {
            let body = format!(
                "method={} q={} body={}",
                req.method(),
                req.param("q").unwrap_or("-"),
                String::from_utf8_lossy(&req.body),
            );
            Ok(PageOutcome::Body(Response::text(body)))
        })
        .build()
}

fn each_server(test: impl Fn(std::net::SocketAddr, &str)) {
    let baseline =
        BaselineServer::start(ServerConfig::small(), demo_app(), Arc::new(Database::new()))
            .unwrap();
    test(baseline.addr(), "baseline");
    baseline.shutdown().expect("clean shutdown");
    let staged =
        StagedServer::start(ServerConfig::small(), demo_app(), Arc::new(Database::new())).unwrap();
    test(staged.addr(), "staged");
    staged.shutdown().expect("clean shutdown");
}

#[test]
fn head_returns_headers_but_no_body() {
    each_server(|addr, which| {
        for target in ["/echo?q=1", "/logo.png"] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    format!("HEAD {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
                )
                .unwrap();
            // Read to EOF manually: a HEAD response is headers only, so
            // the generic client (which would wait for Content-Length
            // bytes) does not apply.
            let mut raw = Vec::new();
            std::io::Read::read_to_end(&mut stream, &mut raw).unwrap();
            let text = String::from_utf8_lossy(&raw);
            assert!(
                text.starts_with("HTTP/1.1 200 OK\r\n"),
                "{which} {target}: {text}"
            );
            let header_end = text.find("\r\n\r\n").expect("header terminator") + 4;
            assert!(
                text.to_lowercase().contains("content-length: "),
                "{which} {target}: HEAD keeps Content-Length"
            );
            assert!(
                !text.to_lowercase().contains("content-length: 0"),
                "{which} {target}: Content-Length must describe the body"
            );
            assert_eq!(
                raw.len(),
                header_end,
                "{which} {target}: HEAD must not carry a body"
            );
        }
    });
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    each_server(|addr, which| {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Three requests, keep-alive, then close on the last.
        for i in 0..3 {
            let connection = if i == 2 { "close" } else { "keep-alive" };
            stream
                .write_all(
                    format!("GET /echo?q={i} HTTP/1.1\r\nConnection: {connection}\r\n\r\n")
                        .as_bytes(),
                )
                .unwrap();
            let resp = read_response(&mut stream).unwrap();
            assert_eq!(resp.status, StatusCode::OK, "{which} request {i}");
            assert!(
                resp.text().contains(&format!("q={i}")),
                "{which}: wrong response for request {i}: {}",
                resp.text()
            );
        }
    });
}

#[test]
fn keep_alive_mixes_static_and_dynamic() {
    each_server(|addr, which| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /logo.png HTTP/1.1\r\n\r\n").unwrap();
        let first = read_response(&mut stream).unwrap();
        assert_eq!(first.body.len(), 321, "{which}");
        stream
            .write_all(b"GET /echo?q=after HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let second = read_response(&mut stream).unwrap();
        assert!(second.text().contains("q=after"), "{which}");
    });
}

#[test]
fn post_bodies_reach_handlers() {
    each_server(|addr, which| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let payload = "name=ada&job=countess";
        stream
            .write_all(
                format!(
                    "POST /echo HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    payload.len(),
                    payload
                )
                .as_bytes(),
            )
            .unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{which}");
        let text = resp.text();
        assert!(text.contains("method=POST"), "{which}: {text}");
        assert!(text.contains(payload), "{which}: {text}");
    });
}

#[test]
fn http_10_without_keep_alive_closes() {
    each_server(|addr, which| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /echo?q=ten HTTP/1.0\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert!(resp.text().contains("q=ten"), "{which}");
        // The server closed the connection: the next read hits EOF.
        let mut probe = [0u8; 1];
        let n = std::io::Read::read(&mut stream, &mut probe).unwrap_or(0);
        assert_eq!(n, 0, "{which}: HTTP/1.0 connection should be closed");
    });
}

#[test]
fn method_is_case_sensitive_per_rfc() {
    each_server(|addr, which| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"get /echo HTTP/1.1\r\n\r\n").unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST, "{which}");
    });
}

/// What a client can observe of one exchange: the status line, the
/// content type, whether the response says `Connection: close`, and
/// whether the server then really closed the connection.
#[derive(Debug, PartialEq, Eq)]
struct Exchange {
    status: u16,
    content_type: Option<String>,
    says_close: bool,
    closed: bool,
}

/// Sends `raw` on a fresh connection and reads the response head (and
/// the body, unless `head_only`). A follow-up `/healthz` on the same
/// connection tells whether the server kept it open; its answer (or
/// EOF) also orders every counter the first request moved before the
/// next `/metrics` read.
fn exchange(addr: std::net::SocketAddr, raw: &[u8], head_only: bool) -> Exchange {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "response head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).unwrap().to_ascii_lowercase();
    let header = |name: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .map(str::to_string)
    };
    if !head_only {
        let len: usize = header("content-length").unwrap().parse().unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
    }
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
    let closed = !matches!(stream.read(&mut byte), Ok(1));
    Exchange {
        status: head[9..12].parse().unwrap(),
        content_type: header("content-type"),
        says_close: header("connection").as_deref() == Some("close"),
        closed,
    }
}

/// The server's `errors_total`, read from `/metrics`.
fn errors_total(addr: std::net::SocketAddr) -> u64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let text = read_response(&mut stream).unwrap().text();
    text.lines()
        .find_map(|l| l.strip_prefix("errors_total "))
        .expect("errors_total exported")
        .parse::<f64>()
        .unwrap() as u64
}

#[test]
fn both_servers_answer_the_front_identically() {
    let mut oversized = b"GET /echo HTTP/1.1\r\n".to_vec();
    for i in 0..101 {
        oversized.extend_from_slice(format!("X-h{i}: v\r\n").as_bytes());
    }
    oversized.extend_from_slice(b"\r\n");
    let get = |target: &str| format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes();
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("healthz", get("/healthz"), 200),
        ("readyz", get("/readyz"), 200),
        ("metrics", get("/metrics"), 200),
        ("explain", get("/debug/explain"), 200),
        ("traces", get("/debug/traces"), 200),
        (
            "head metrics",
            b"HEAD /metrics HTTP/1.1\r\n\r\n".to_vec(),
            200,
        ),
        ("malformed", b"BROKEN\r\n\r\n".to_vec(), 400),
        ("oversized headers", oversized, 431),
        ("missing static", get("/missing.png"), 404),
        ("unrouted", get("/nowhere"), 404),
    ];
    let seen = RefCell::new(Vec::new());
    each_server(|addr, which| {
        let mut observed = Vec::new();
        for (name, raw, want) in &cases {
            let before = errors_total(addr);
            let got = exchange(addr, raw, raw.starts_with(b"HEAD"));
            let errors = errors_total(addr) - before;
            assert_eq!(got.status, *want, "{which} {name}: {got:?}");
            observed.push((*name, got, errors));
        }
        seen.borrow_mut().push(observed);
    });
    let seen = seen.into_inner();
    for (baseline, staged) in seen[0].iter().zip(&seen[1]) {
        assert_eq!(baseline, staged, "baseline vs staged on {}", baseline.0);
    }
}
