//! The in-process replay: the seeded request stream driven on one
//! thread through the servers' public entry points, each call timed as
//! a span from outside the library.
//!
//! The flow mirrors the staged server's: parse, then either the static
//! store or route → document-cache lookup → connection checkout →
//! handler → render → publish, then the response write. Plan-node
//! timings from the database's plan observer become child spans of the
//! handler.

use crate::alloc::thread_allocs;
use crate::deploy::{restore, scale, server_config, Deployment};
use crate::spans::{self_times, Tracer};
use crate::workload::{body_ok, Session, Workload};
use staged_core::{write_key, App, DocCache, Lookup, PageOutcome};
use staged_db::{ConnectionPool, ReadSet, WriteEvent, PLAN_NODE_KINDS};
use staged_http::{BufferPool, Connection, Response};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Span layer names; plan-node layers follow [`NODE0`].
pub const LAYERS: [&str; 21] = [
    "request",
    "http.parse",
    "core.route",
    "core.doccache.lookup",
    "db.checkout",
    "tpcw.handler",
    "templates.render",
    "core.doccache.publish",
    "http.write",
    "http.static",
    "db.node.seq_scan",
    "db.node.index_scan",
    "db.node.index_range",
    "db.node.index_endpoint",
    "db.node.filter",
    "db.node.index_loop_join",
    "db.node.hash_join",
    "db.node.nested_loop_join",
    "db.node.aggregate",
    "db.node.sort",
    "db.node.limit",
];
const REQUEST: u16 = 0;
const PARSE: u16 = 1;
const ROUTE: u16 = 2;
const LOOKUP: u16 = 3;
const CHECKOUT: u16 = 4;
const HANDLER: u16 = 5;
const RENDER: u16 = 6;
const PUBLISH: u16 = 7;
const WRITE: u16 = 8;
const STATIC: u16 = 9;
/// The first plan-node layer, in [`PLAN_NODE_KINDS`] order.
pub const NODE0: u16 = 10;

thread_local! {
    /// The replay thread's tracer; `None` in untraced passes. The plan
    /// observer reaches it from inside the handler call.
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    /// Write events the database reported during the current request.
    static WRITES: RefCell<Vec<WriteEvent>> = const { RefCell::new(Vec::new()) };
}

fn traced(f: impl FnOnce(&mut Tracer)) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            f(t);
        }
    });
}

/// Runs `f` as a span of `layer` when tracing.
fn span<T>(layer: u16, f: impl FnOnce() -> T) -> T {
    traced(|t| t.begin(layer));
    let out = f();
    traced(|t| t.end());
    out
}

/// A transport that reads one request from memory and collects the
/// response bytes.
#[derive(Default)]
struct MemStream {
    input: Vec<u8>,
    pos: usize,
    output: Vec<u8>,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The document cache as the replay drives it. Eviction on writes is
/// crate-private to the server, so the replay keeps each published
/// page's read set and, after a write, rebuilds the cache from the
/// pages the write did not touch (outside any span: the server's
/// eviction is not replayed, only its lookups and publishes).
struct ReplayCache {
    cache: DocCache,
    pages: HashMap<String, (Arc<Response>, Arc<ReadSet>)>,
}

impl ReplayCache {
    fn new() -> Self {
        ReplayCache {
            cache: fresh_cache(),
            pages: HashMap::new(),
        }
    }

    fn invalidate(&mut self, events: &[WriteEvent]) {
        self.pages
            .retain(|_, (_, reads)| !events.iter().any(|e| reads.depends_on(e)));
        self.cache = fresh_cache();
        for (key, (page, reads)) in &self.pages {
            self.cache
                .publish(key, Arc::clone(page), Arc::clone(reads), 0);
        }
    }
}

fn fresh_cache() -> DocCache {
    let cfg = server_config(Workload::CachedRw);
    DocCache::new(cfg.doc_cache_ttl, cfg.doc_cache_capacity)
}

/// A single-threaded copy of the staged server's request path over a
/// fresh copy of the populated database.
pub struct Replay {
    app: App,
    pool: ConnectionPool,
    conn: Connection<MemStream>,
    cache: Option<ReplayCache>,
    key: String,
    /// Rendered template bytes so far.
    pub rendered_bytes: u64,
}

impl Replay {
    /// A replay of `workload` over a fresh restore of `snapshot`.
    pub fn new(workload: Workload, snapshot: &[u8]) -> Self {
        let db = Arc::new(restore(snapshot));
        let app = staged_tpcw::build_app(&db, &scale());
        db.set_plan_observer(|kind, elapsed| {
            let layer = NODE0
                + PLAN_NODE_KINDS
                    .iter()
                    .position(|k| *k == kind)
                    .expect("the observer reports known node kinds") as u16;
            traced(|t| t.child_done(layer, elapsed.as_nanos() as u64));
        });
        db.set_write_observer(|event| WRITES.with(|w| w.borrow_mut().push(event.clone())));
        let pool = ConnectionPool::new(db, 1);
        Replay {
            app,
            pool,
            conn: Connection::new(MemStream::default()),
            cache: workload.doc_cache().then(ReplayCache::new),
            key: String::new(),
            rendered_bytes: 0,
        }
    }

    /// Serves one `GET target`; returns the raw response bytes.
    pub fn serve(&mut self, target: &str) -> &[u8] {
        let stream = self.conn.stream_mut();
        stream.input.clear();
        stream.pos = 0;
        stream.output.clear();
        write!(stream.input, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")
            .expect("write to a Vec");

        span(REQUEST, || {
            let request =
                span(PARSE, || self.conn.read_request()).expect("generated requests parse");
            let response = if request.line.is_static() {
                span(STATIC, || {
                    self.app
                        .statics()
                        .response_for_request(request.path(), &request.headers)
                })
            } else {
                self.dynamic(&request)
            };
            // Tearing down the request and response is the HTTP
            // layer's work too, so it happens inside the write span.
            span(WRITE, || {
                let sent = self.conn.send(&response);
                drop((request, response));
                sent
            })
            .expect("writing to memory cannot fail");
        });
        let events: Vec<WriteEvent> = WRITES.with(|w| w.borrow_mut().drain(..).collect());
        if let (Some(cache), false) = (&mut self.cache, events.is_empty()) {
            cache.invalidate(&events);
        }
        &self.conn.stream_mut().output
    }

    fn dynamic(&mut self, request: &staged_http::Request) -> Response {
        let Some((route, _)) = span(ROUTE, || self.app.route(request.path())) else {
            return Response::error(staged_http::StatusCode::NOT_FOUND);
        };
        let cache = self.cache.as_ref().filter(|_| route.cacheable);
        let lookup = cache.map(|c| {
            span(LOOKUP, || {
                write_key(&mut self.key, &route.name, &request.params);
                c.cache.lookup(&self.key)
            })
        });
        if let Some(Lookup::Hit(page)) = lookup {
            return (*page).clone();
        }
        let db = span(CHECKOUT, || self.pool.get());
        if cache.is_some() {
            db.begin_read_tracking();
        }
        let outcome = span(HANDLER, || (route.handler)(request, &db));
        let reads = db.take_read_set();
        span(CHECKOUT, || drop(db));
        let response = match outcome {
            Ok(PageOutcome::Template { name, context }) => span(RENDER, || {
                let mut buf = BufferPool::global().get();
                let rendered = self.app.templates().render_into(&name, &context, &mut buf);
                // The page data is the render stage's to free.
                drop((name, context));
                match rendered {
                    Ok(()) => {
                        self.rendered_bytes += buf.len() as u64;
                        Response::html(buf.freeze())
                    }
                    Err(_) => Response::error(staged_http::StatusCode::INTERNAL_SERVER_ERROR),
                }
            }),
            Ok(PageOutcome::Body(response)) => response,
            Err(_) => Response::error(staged_http::StatusCode::INTERNAL_SERVER_ERROR),
        };
        if let (Some(Lookup::Miss(snapshot)), Some(reads)) = (lookup, reads) {
            if response.status() == staged_http::StatusCode::OK {
                let page = Arc::new(response.clone());
                let reads = Arc::new(reads);
                let cache = self.cache.as_mut().expect("a lookup implies a cache");
                if span(PUBLISH, || {
                    cache
                        .cache
                        .publish(&self.key, Arc::clone(&page), Arc::clone(&reads), snapshot)
                }) {
                    cache.pages.insert(self.key.clone(), (page, reads));
                }
            }
        }
        response
    }
}

/// Where the body of a raw response starts.
fn head_end(raw: &[u8]) -> usize {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4)
}

/// Splits a raw response into its status code and body.
pub fn split_response(raw: &[u8]) -> (u16, &[u8]) {
    let head_end = head_end(raw);
    let status = std::str::from_utf8(raw.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, &raw[head_end..])
}

/// Per-layer totals from one traced replay.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Requests replayed.
    pub requests: u64,
    /// Self CPU nanoseconds by layer ([`LAYERS`] order).
    pub cpu_ns: Vec<u64>,
    /// Self allocations by layer.
    pub allocs: Vec<u64>,
    /// Rendered template bytes.
    pub rendered_bytes: u64,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Requests whose response failed its check.
    pub failed: u64,
}

/// Drives `requests` requests of `workload`'s stream (the two
/// connections' sessions alternating) through a fresh replay. With
/// `trace`, every call is a span; the spans are written to `spans_out`
/// when given.
pub fn run(
    dep: &Deployment,
    workload: Workload,
    seed: u64,
    requests: u32,
    trace: bool,
    spans_out: Option<&mut dyn Write>,
) -> io::Result<LayerTotals> {
    let mut replay = Replay::new(workload, &dep.snapshot);
    let mut sessions: Vec<Session> = (0..crate::live::CONNECTIONS)
        .map(|c| Session::new(workload, seed, c, crate::live::CONNECTIONS, dep.sizes))
        .collect();
    if trace {
        TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(requests as usize * 48, thread_allocs)));
    }
    let mut failed = 0;
    let started = Instant::now();
    for i in 0..requests {
        let count = sessions.len();
        let session = &mut sessions[i as usize % count];
        let req = session.next_req();
        traced(|t| t.set_request(i));
        let raw = replay.serve(&req.target);
        let (status, body) = split_response(raw);
        if status == 200 && body_ok(&req.expect, body, &dep.thumbs) {
            session.observe(&req, body);
        } else {
            failed += 1;
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let tracer = TRACER.with(|t| t.borrow_mut().take());
    let mut totals = LayerTotals {
        requests: u64::from(requests),
        cpu_ns: vec![0; LAYERS.len()],
        allocs: vec![0; LAYERS.len()],
        rendered_bytes: replay.rendered_bytes,
        wall_ns,
        failed,
    };
    if let Some(tracer) = tracer {
        for (span, own) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            totals.cpu_ns[span.layer as usize] += own.cpu;
            totals.allocs[span.layer as usize] += own.allocs;
        }
        if let Some(out) = spans_out {
            tracer.write_tsv(&LAYERS, out)?;
        }
    }
    Ok(totals)
}

/// Replaces the values of headers that carry a time (`Date`,
/// `Last-Modified`, and `ETag`, which the static store derives from the
/// insertion time), so two correct servers' responses compare equal.
pub fn normalise(raw: &[u8]) -> Vec<u8> {
    let head_end = head_end(raw);
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut out = Vec::with_capacity(raw.len());
    for line in head.split_inclusive("\r\n") {
        let name = line
            .split(':')
            .next()
            .unwrap_or_default()
            .to_ascii_lowercase();
        if matches!(name.as_str(), "date" | "last-modified" | "etag") && line.contains(':') {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": *\r\n");
        } else {
            out.extend_from_slice(line.as_bytes());
        }
    }
    out.extend_from_slice(&raw[head_end..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_matches_the_plan_node_kinds() {
        for (i, kind) in PLAN_NODE_KINDS.iter().enumerate() {
            assert_eq!(LAYERS[NODE0 as usize + i], format!("db.node.{kind}"));
        }
        assert_eq!(LAYERS.len(), NODE0 as usize + PLAN_NODE_KINDS.len());
    }

    #[test]
    fn normalise_blanks_only_time_headers() {
        let a = b"HTTP/1.1 200 OK\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\nETag: \"1-2\"\r\nContent-Length: 2\r\n\r\nhi";
        let b = b"HTTP/1.1 200 OK\r\nDate: Tue, 02 Jan 2024 00:00:00 GMT\r\nETag: \"3-4\"\r\nContent-Length: 2\r\n\r\nhi";
        let c = b"HTTP/1.1 200 OK\r\nDate: Tue, 02 Jan 2024 00:00:00 GMT\r\nETag: \"3-4\"\r\nContent-Length: 2\r\n\r\nho";
        assert_eq!(normalise(a), normalise(b));
        assert_ne!(normalise(a), normalise(c));
        assert_eq!(split_response(a), (200, &b"hi"[..]));
    }
}
