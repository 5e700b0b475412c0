//! The paper's modified server: one listener, five thread pools
//! (Figure 5), database connections pinned to dynamic workers only.
//!
//! Every inter-stage queue is **bounded** and every handoff is a
//! non-blocking `try_push`: when a downstream stage saturates, the
//! upstream stage sheds the request with a well-formed `503` +
//! `Retry-After` instead of queuing unboundedly (or, worse, blocking
//! the accept loop). Static requests keep flowing while the dynamic
//! stages saturate — graceful degradation rather than meltdown.
//!
//! Every request carries a pooled [`Trace`] from accept to terminal
//! outcome, recording enqueue/dequeue/stage-done timestamps, the
//! classifier decision, and shed/stale events. Aggregates land in the
//! server's [`Registry`] (exported on `GET /metrics`); the slowest
//! served traces are kept in a bounded ring (`GET /debug/traces`).

//!
//! Everything outside scheduling — construction, the accept loop,
//! admin endpoints, parse-failure and overload responses, drain-aware
//! shutdown — is the front both models share (`crate::front`).

use crate::app::{App, PageOutcome};
use crate::config::ServerConfig;
use crate::doccache::{DocCache, Lookup};
use crate::front::{
    is_admin, merge_captures, register_pool, register_stage, run_handler_with_slot, Conn, Front,
    Sent,
};
use crate::handle::ServerHandle;
use crate::overload::{overload_response, DbSlot};
use crate::scheduler::{DynamicPoolChoice, RequestClass, ReserveController, ServiceTimeTracker};
use crate::stale::{self, StaleCache};
use crate::stats::{RequestKind, ShedPoint};
use staged_db::{Database, ReadSet};
use staged_http::{HttpError, Method, Request, RequestLine, Response, StatusCode};
use staged_metrics::{Registry, Stage, Trace, TraceEvent, TraceOutcome};
use staged_pool::{PoolConfig, PoolStats, PushError, SyncQueue, WorkerPool};
use staged_templates::Context;
use std::cell::RefCell;
use std::io;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Per-thread scratch for normalized cache keys. Reused across
    /// requests so key derivation on the cache-hit path stops
    /// allocating once the buffer has grown to steady state.
    static KEY_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// An accepted (or requeued keep-alive) connection waiting for a header
/// worker, stamped so queue wait counts against the request deadline.
struct TimedConn {
    conn: Conn,
    arrived: Instant,
    trace: Trace,
}

/// A request handed from the header pool to the static pool: the header
/// workers only parse the first line for static resources ("we let the
/// threads which actually serve those static requests parse their
/// headers", §3.2).
struct StaticJob {
    conn: Conn,
    line: RequestLine,
    /// Absolute deadline, set when `request_deadline` is configured.
    deadline: Option<Instant>,
    trace: Trace,
}

/// A fully parsed dynamic request, dispatched to the general or lengthy
/// pool.
struct DynJob {
    conn: Conn,
    request: Request,
    /// The page key (route name) for service-time tracking; `None` for
    /// unrouted paths (404).
    page: Option<String>,
    kind: RequestKind,
    deadline: Option<Instant>,
    /// The normalized cache key for `GET`s of cache-marked routes
    /// (shared by the stale ladder and the document cache); `None`
    /// means this request must never be served from either cache.
    stale_key: Option<String>,
    /// Document-cache epoch snapshot taken at the miss, *before* the
    /// first query — [`DocCache::publish`] uses it to reject renders
    /// that raced a write. Zero when the document cache is off.
    cache_snapshot: u64,
    trace: Trace,
}

/// An unrendered template on its way to the render pool — the payload
/// of the paper's modified `return ("tmpl.html", data)`.
struct RenderJob {
    conn: Conn,
    keep_alive: bool,
    method: Method,
    name: String,
    /// The route name, carried so the trace's terminal outcome is
    /// labelled with the page, not the template.
    page: String,
    context: Context,
    kind: RequestKind,
    deadline: Option<Instant>,
    /// Carried through so the render stage can both retain a fresh
    /// render and fall back to a stale one when the deadline expired in
    /// its queue.
    stale_key: Option<String>,
    /// See [`DynJob::cache_snapshot`].
    cache_snapshot: u64,
    /// The tables/keys the handler's queries read, collected by the
    /// dynamic stage; tags the published render for invalidation.
    reads: Option<Arc<ReadSet>>,
    trace: Trace,
}

/// The staged model's own state: the five pools' queues (six with the
/// render split), the Table 1 scheduler, and the response caches.
struct Stages {
    controller: Arc<ReserveController>,
    header_q: Arc<SyncQueue<TimedConn>>,
    static_q: Arc<SyncQueue<StaticJob>>,
    general_q: Arc<SyncQueue<DynJob>>,
    lengthy_q: Arc<SyncQueue<DynJob>>,
    render_q: Arc<SyncQueue<RenderJob>>,
    /// Lengthy-render queue; `None` unless `split_render` is on (the
    /// paper's §3.3 suggested extension).
    render_lengthy_q: Option<Arc<SyncQueue<RenderJob>>>,
    /// Per-template render-time tracker for the render split.
    render_tracker: ServiceTimeTracker,
    general_size: usize,
    /// Pool-stats handles, held so stage handoffs (raw queue pushes,
    /// not `WorkerPool::try_submit`) can still charge capacity
    /// rejections to the receiving pool.
    header_stats: Arc<PoolStats>,
    static_stats: Arc<PoolStats>,
    general_stats: Arc<PoolStats>,
    lengthy_stats: Arc<PoolStats>,
    render_stats: Arc<PoolStats>,
    render_lengthy_stats: Option<Arc<PoolStats>>,
    /// Stale copies of successful renders — the degradation ladder's
    /// middle rung (fresh → stale → shed). `Arc`-shared with the
    /// database write observer, which evicts entries a write touched.
    stale: Arc<StaleCache>,
    /// The dependency-tracked dynamic-page cache; `None` unless
    /// [`ServerConfig::doc_cache`] is on. Hits are served from the
    /// header stage without touching the dynamic or render pools.
    doc_cache: Option<Arc<DocCache>>,
}

type Shared = Front<Stages>;

impl Shared {
    /// The live `t_spare`: idle threads in the general dynamic pool.
    ///
    /// Jobs already queued but not yet popped count as committed — the
    /// busy gauge alone lags dispatch, so a burst of lengthy requests
    /// arriving at an idle server would all read a stale spare count
    /// and spill onto the general pool together, starving the quick
    /// traffic the reserve exists to protect.
    fn tspare(&self) -> usize {
        let m = &self.model;
        let busy = usize::try_from(m.general_stats.busy.value().max(0)).unwrap_or(0);
        m.general_size
            .saturating_sub(busy)
            .saturating_sub(m.general_q.len())
    }

    /// Whether dynamic workers should collect read sets for cacheable
    /// requests: some consumer (document cache or stale ladder) will
    /// tag entries with them.
    fn track_reads(&self) -> bool {
        self.model.doc_cache.is_some() || self.model.stale.enabled()
    }

    /// Wraps a connection for the header queue with a fresh trace. A
    /// keep-alive connection gets one per request; if it then closes
    /// cleanly without sending one, that trace is dropped unfinished (no
    /// response was owed).
    fn timed(&self, conn: Conn) -> TimedConn {
        let hub = self.traces.as_ref().expect("the staged server is traced");
        let mut trace = hub.start();
        trace.enqueued(Stage::Parse);
        TimedConn {
            conn,
            arrived: Instant::now(),
            trace,
        }
    }

    /// Sends a response and requeues the connection for its next
    /// request when the front says it may carry one. The trace reaches
    /// its terminal outcome here: `Served` (`Probe` for the admin
    /// endpoints, which pass no `kind`) on a delivered response,
    /// `Dropped` when the client went away mid-write.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        mut conn: Conn,
        method: Method,
        response: &Response,
        keep_alive: bool,
        kind: Option<RequestKind>,
        trace: Trace,
        page: Option<&str>,
    ) {
        let sent = self.respond(&mut conn, method, response, keep_alive, kind);
        let outcome = match (sent, kind) {
            (Sent::Dropped, _) => TraceOutcome::Dropped,
            (_, Some(_)) => TraceOutcome::Served,
            (_, None) => TraceOutcome::Probe,
        };
        trace.finish(outcome, page);
        if sent != Sent::Reuse {
            return;
        }
        if let Err(PushError::Full(timed)) = self.model.header_q.try_push(self.timed(conn)) {
            // The parse stage is saturated; dropping an idle
            // keep-alive connection is cheaper than any request it
            // might send later.
            self.model.header_stats.rejected.increment();
            self.stats.record_shed(ShedPoint::KeepAlive);
            let mut trace = timed.trace;
            trace.note(TraceEvent::Shed);
            trace.finish(TraceOutcome::Shed, None);
        }
    }

    /// `true` when a stamped deadline has passed.
    fn expired(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() > d)
    }
}

/// Registers the document-cache metric families:
/// `doc_cache_{hits,misses,publishes,invalidations,stale_discards,
/// bytes_served}_total` and the `doc_cache_entries` gauge. `/healthz`'s
/// cache section reads the same families, so the surfaces agree.
pub(crate) fn register_doc_cache(registry: &Registry, cache: &Arc<DocCache>) {
    type CounterRead = fn(&DocCache) -> u64;
    let families: [(&'static str, CounterRead); 7] = [
        ("doc_cache_hits_total", DocCache::hits),
        ("doc_cache_misses_total", DocCache::misses),
        ("doc_cache_publishes_total", DocCache::publishes),
        ("doc_cache_invalidations_total", DocCache::invalidations),
        ("doc_cache_stale_discards_total", DocCache::stale_discards),
        ("doc_cache_bytes_served_total", DocCache::bytes_served),
        ("doc_cache_row_level_deps_total", DocCache::row_level_deps),
    ];
    for (name, read) in families {
        let c = Arc::clone(cache);
        registry.counter_fn(name, &[], move || read(&c));
    }
    let c = Arc::clone(cache);
    registry.gauge_fn("doc_cache_entries", &[], move || c.len() as f64);
}

/// Invalidates both response caches for one write event, document cache
/// first. The order is load-bearing: the doc cache is the authoritative
/// fast path, so it must be purged before the stale fallback. Flipping
/// the order opens a window where the stale cache is already clean but
/// the doc cache still serves the outdated page — a reader that sees the
/// stale cache empty can then observe a doc-cache hit for data the write
/// already superseded. Routing every caller through this helper keeps
/// the direction in one place, where the model checker can flip it and
/// watch a concurrent reader observe that incoherent state.
pub(crate) fn invalidate_caches(
    dc: Option<&DocCache>,
    sc: &StaleCache,
    event: &staged_db::WriteEvent,
) {
    staged_sync::mutant!("core_invalidate_nesting_flip" => {
        sc.invalidate(event);
        if let Some(dc) = dc {
            dc.invalidate(event);
        }
    } else {
        if let Some(dc) = dc {
            dc.invalidate(event);
        }
        sc.invalidate(event);
    });
}

/// The modified multi-thread-pool web server (the paper's contribution).
///
/// Request lifecycle:
///
/// 1. the **listener** accepts a connection and queues it for header
///    parsing (shedding with `503` when the header queue is full);
/// 2. a **header-parsing** worker reads the request line; static
///    requests go to the static pool immediately, dynamic requests get
///    their remaining headers, query string, and body parsed *here* —
///    "we do not want a thread with an open database connection to
///    waste time doing anything other than generating data" (§3.2) —
///    then are classified quick/lengthy and dispatched per Table 1;
/// 3. a **dynamic** worker (each owning a database connection) runs the
///    page handler and measures data-generation time; an unrendered
///    template outcome is queued for rendering, a pre-rendered body is
///    sent directly (backward compatibility);
/// 4. a **render** worker renders the template, sets `Content-Length`
///    exactly, and transmits the response.
///
/// A 1 Hz-equivalent controller thread updates `t_reserve` from the
/// general pool's measured `t_spare` ([`ReserveController`]).
#[derive(Debug)]
pub struct StagedServer;

impl StagedServer {
    /// Binds, spawns the five pools and the controller, and starts the
    /// listener.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listen address.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see
    /// [`ServerConfig::validate`]).
    pub fn start(config: ServerConfig, app: App, db: Arc<Database>) -> io::Result<ServerHandle> {
        let header_q = Arc::new(SyncQueue::<TimedConn>::bounded(config.header_queue_bound()));
        let static_q = Arc::new(SyncQueue::<StaticJob>::bounded(config.static_queue_bound()));
        let general_q = Arc::new(SyncQueue::<DynJob>::bounded(config.general_queue_bound()));
        let lengthy_q = Arc::new(SyncQueue::<DynJob>::bounded(config.lengthy_queue_bound()));
        let render_q = Arc::new(SyncQueue::<RenderJob>::bounded(config.render_queue_bound()));
        let render_lengthy_q = config
            .split_render
            .then(|| Arc::new(SyncQueue::<RenderJob>::bounded(config.render_queue_bound())));
        // Every pool's stats block is created up front so handoffs can
        // charge rejections to the right pool (and the general pool's
        // busy gauge can carry the t_spare signal).
        let header_stats = Arc::new(PoolStats::default());
        let static_stats = Arc::new(PoolStats::default());
        let general_stats = Arc::new(PoolStats::default());
        let lengthy_stats = Arc::new(PoolStats::default());
        let render_stats = Arc::new(PoolStats::default());
        let render_lengthy_stats = config.split_render.then(|| Arc::new(PoolStats::default()));
        // Adaptive Retry-After divides the backlog across every stage by
        // the measured completion rate.
        let depth = {
            let queues = (
                Arc::clone(&header_q),
                Arc::clone(&static_q),
                Arc::clone(&general_q),
                Arc::clone(&lengthy_q),
                Arc::clone(&render_q),
                render_lengthy_q.clone(),
            );
            move || {
                let (h, s, g, l, r, rl) = &queues;
                h.len() + s.len() + g.len() + l.len() + r.len() + rl.as_ref().map_or(0, |q| q.len())
            }
        };
        let stale = Arc::new(StaleCache::new(config.stale_ttl, config.stale_capacity));
        let doc_cache = config.doc_cache.then(|| {
            Arc::new(DocCache::new(
                config.doc_cache_ttl,
                config.doc_cache_capacity,
            ))
        });
        let model = Stages {
            controller: Arc::new(ReserveController::with_max(
                config.min_reserve,
                config.max_reserve,
            )),
            header_q: Arc::clone(&header_q),
            static_q: Arc::clone(&static_q),
            general_q: Arc::clone(&general_q),
            lengthy_q: Arc::clone(&lengthy_q),
            render_q: Arc::clone(&render_q),
            render_lengthy_q: render_lengthy_q.clone(),
            render_tracker: ServiceTimeTracker::new(config.render_cutoff),
            general_size: config.general_workers,
            header_stats: Arc::clone(&header_stats),
            static_stats: Arc::clone(&static_stats),
            general_stats: Arc::clone(&general_stats),
            lengthy_stats: Arc::clone(&lengthy_stats),
            render_stats: Arc::clone(&render_stats),
            render_lengthy_stats: render_lengthy_stats.clone(),
            stale: Arc::clone(&stale),
            doc_cache: doc_cache.clone(),
        };
        let observed_db = Arc::clone(&db);
        let (front, bound) = Front::bind(&config, app, db, true, model, depth)?;

        // The invalidation engine: every committed mutation evicts
        // dependent entries from the document cache and the stale
        // ladder (rank 118 before rank 120). The observer deliberately
        // captures only the two caches — capturing the shared server
        // context would create an Arc cycle through the database.
        if doc_cache.is_some() || config.stale_capacity > 0 {
            let dc = doc_cache.clone();
            observed_db.set_write_observer(move |event| {
                invalidate_caches(dc.as_deref(), &stale, event);
            });
        }

        // The staged model's part of the `/metrics` surface: stage depth
        // gauges + wait histograms, per-pool counters + service
        // histograms, the scheduler gauges, and the document cache.
        let registry = &front.registry;
        register_stage(registry, "header", &header_q);
        register_stage(registry, "static", &static_q);
        register_stage(registry, "general", &general_q);
        register_stage(registry, "lengthy", &lengthy_q);
        register_stage(registry, "render", &render_q);
        if let Some(q) = &render_lengthy_q {
            register_stage(registry, "render-lengthy", q);
        }
        register_pool(registry, "header-parsing", "header", &header_stats);
        register_pool(registry, "static", "static", &static_stats);
        register_pool(registry, "general-dynamic", "general", &general_stats);
        register_pool(registry, "lengthy-dynamic", "lengthy", &lengthy_stats);
        register_pool(registry, "render", "render", &render_stats);
        if let Some(s) = &render_lengthy_stats {
            register_pool(registry, "render-lengthy", "render-lengthy", s);
        }
        let controller = Arc::clone(&front.model.controller);
        registry.gauge_fn("scheduler_t_reserve", &[], move || {
            controller.reserve() as f64
        });
        if let Some(dc) = &doc_cache {
            register_doc_cache(registry, dc);
        }
        let shared = Arc::new(front);
        let s = Arc::clone(&shared);
        shared
            .registry
            .gauge_fn("scheduler_t_spare", &[], move || s.tspare() as f64);

        let s = Arc::clone(&shared);
        let general_pool = WorkerPool::with_parts(
            general_q,
            general_stats,
            PoolConfig::new("general-dynamic", config.general_workers),
            |_| bound.db_slot(),
            move |slot: &mut DbSlot, job: DynJob| dynamic_worker(&s, slot, job),
        );
        let s = Arc::clone(&shared);
        let lengthy_pool = WorkerPool::with_parts(
            lengthy_q,
            lengthy_stats,
            PoolConfig::new("lengthy-dynamic", config.lengthy_workers),
            |_| bound.db_slot(),
            move |slot: &mut DbSlot, job: DynJob| dynamic_worker(&s, slot, job),
        );
        let s = Arc::clone(&shared);
        let static_pool = WorkerPool::with_parts(
            static_q,
            static_stats,
            PoolConfig::new("static", config.static_workers),
            |_| (),
            move |_, job: StaticJob| static_worker(&s, job),
        );
        // With the render split on, a quarter of the render workers (at
        // least one) form the lengthy-render pool.
        let lengthy_render_workers = if config.split_render {
            (config.render_workers / 4).max(1)
        } else {
            0
        };
        let general_render_workers = (config.render_workers - lengthy_render_workers).max(1);
        let s = Arc::clone(&shared);
        let render_pool = WorkerPool::with_parts(
            render_q,
            render_stats,
            PoolConfig::new("render", general_render_workers),
            |_| (),
            move |_, job: RenderJob| render_worker(&s, job),
        );
        let render_lengthy_pool = render_lengthy_q
            .zip(render_lengthy_stats)
            .map(|(q, stats)| {
                let s = Arc::clone(&shared);
                WorkerPool::with_parts(
                    q,
                    stats,
                    PoolConfig::new("render-lengthy", lengthy_render_workers),
                    |_| (),
                    move |_, job: RenderJob| render_worker(&s, job),
                )
            });
        let s = Arc::clone(&shared);
        let header_pool = WorkerPool::with_parts(
            header_q,
            header_stats,
            PoolConfig::new("header-parsing", config.header_workers),
            |_| (),
            move |_, timed: TimedConn| header_worker(&s, timed),
        );

        // Controller thread: the paper checks and modifies t_reserve
        // once per second; `controller_tick` is that period (scaled).
        let ctl = Arc::clone(&shared);
        let tick = config.controller_tick;
        let controller_thread = std::thread::Builder::new()
            .name("reserve-controller".to_string())
            .spawn(move || {
                while !ctl.is_draining() {
                    std::thread::sleep(tick);
                    ctl.model.controller.update(ctl.tspare());
                }
            })
            .expect("failed to spawn controller thread");

        // Legacy gauge names (`ServerHandle::gauge_names`), mapped onto
        // the registry's families by the handle's accessors.
        let mut gauge_names: Vec<String> = [
            "header", "static", "general", "lengthy", "render", "treserve", "tspare",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        if shared.model.render_lengthy_q.is_some() {
            gauge_names.push("render-lengthy".to_string());
        }

        Ok(shared.serve(
            bound,
            "staged-listener",
            gauge_names,
            accept,
            busy_workers,
            move || {
                let _ = controller_thread.join();
                // Drain stage by stage, upstream first.
                header_pool.shutdown();
                static_pool.shutdown();
                general_pool.shutdown();
                lengthy_pool.shutdown();
                render_pool.shutdown();
                if let Some(pool) = render_lengthy_pool {
                    pool.shutdown();
                }
            },
        ))
    }
}

/// The listener's non-blocking enqueue: when the header queue is full
/// the connection is shed with a `503`.
fn accept(shared: &Shared, conn: Conn) -> bool {
    match shared.model.header_q.try_push(shared.timed(conn)) {
        Ok(()) => true,
        Err(PushError::Full(timed)) => {
            shared.model.header_stats.rejected.increment();
            shared.shed(
                timed.conn,
                Method::Get,
                ShedPoint::Listener,
                Some(timed.trace),
            );
            true
        }
        Err(PushError::Closed(_)) => false,
    }
}

/// Workers busy across every stage, for the shutdown drain.
fn busy_workers(shared: &Shared) -> i64 {
    let m = &shared.model;
    [
        &m.header_stats,
        &m.static_stats,
        &m.general_stats,
        &m.lengthy_stats,
        &m.render_stats,
    ]
    .into_iter()
    .chain(&m.render_lengthy_stats)
    .map(|s| s.busy.value().max(0))
    .sum()
}

/// Stage 2a: the header-parsing worker.
fn header_worker(shared: &Shared, timed: TimedConn) {
    let TimedConn {
        mut conn,
        arrived,
        mut trace,
    } = timed;
    trace.dequeued();
    // Queue-wait check: a connection that waited longer than the whole
    // request budget is answered 503 before any parsing.
    if shared.waited_too_long(arrived) {
        shared.expire(conn, Method::Get, Some(trace));
        return;
    }
    let line = match conn.read_request_line() {
        Ok(l) => l,
        // A clean close before any request line (a keep-alive
        // connection idling out) drops the trace: no response was owed.
        Err(HttpError::ConnectionClosed { clean: true }) => return,
        Err(e) => return shared.fail_parse(conn, e, Some(trace)),
    };
    // The per-request clock starts *after* the request line arrives, so
    // keep-alive think time (a connection idling between requests) does
    // not count against the budget — or pollute the trace's timeline.
    trace.mark_start();
    let deadline = shared.budget.map(|b| Instant::now() + b);

    // Admin endpoints are answered here, ahead of routing.
    if is_admin(line.target.path()) {
        let headers = match conn.read_remaining_headers() {
            Ok(h) => h,
            Err(e) => return shared.fail_parse(conn, e, Some(trace)),
        };
        let response = shared.admin_response(&line);
        let keep_alive = line.keep_alive(&headers);
        shared.finish(conn, line.method, &response, keep_alive, None, trace, None);
        return;
    }

    if line.is_static() {
        // Static requests carry their unparsed headers to the static
        // pool (paper §3.2).
        let method = line.method;
        trace.stage_done();
        trace.enqueued(Stage::Static);
        if let Err(PushError::Full(job)) = shared.model.static_q.try_push(StaticJob {
            conn,
            line,
            deadline,
            trace,
        }) {
            shared.model.static_stats.rejected.increment();
            shared.shed(job.conn, method, ShedPoint::StaticStage, Some(job.trace));
        }
        return;
    }

    // Dynamic: finish parsing here so connection-holding threads only
    // generate data.
    let headers = match conn.read_remaining_headers() {
        Ok(h) => h,
        Err(e) => return shared.fail_parse(conn, e, Some(trace)),
    };
    let body = match headers.content_length() {
        Some(len) if len > 0 => match conn.read_body(len) {
            Ok(b) => b,
            Err(e) => return shared.fail_parse(conn, e, Some(trace)),
        },
        _ => Vec::new(),
    };
    let request = Request::new(line, headers, body);
    let (page, cacheable) = match shared.app.route(request.path()) {
        Some((r, _)) => (Some(r.name.clone()), r.cacheable),
        None => (None, false),
    };
    // Only GETs of cache-marked routes may ever be served from a cache
    // (document or stale). The key is built in the thread's reusable
    // buffer; a document-cache hit is answered right here — no DB
    // checkout, no render, no allocation — and only a miss pays for the
    // owned key the job carries downstream.
    let mut cache_snapshot = 0u64;
    let stale_key: Option<String> = if cacheable && request.method() == Method::Get {
        enum KeyOutcome {
            Hit(Arc<Response>),
            Miss(String),
        }
        let outcome = KEY_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            // lint: hot_path — cache-hit serve: key derivation reuses
            // the per-thread buffer; a hit costs one map probe and an
            // Arc bump before the vectored write in `finish`.
            stale::write_key(
                &mut buf,
                page.as_deref().unwrap_or_default(),
                &request.params,
            );
            if let Some(dc) = &shared.model.doc_cache {
                match dc.lookup(&buf) {
                    Lookup::Hit(response) => return KeyOutcome::Hit(response),
                    Lookup::Miss(snapshot) => cache_snapshot = snapshot,
                }
            }
            // lint: end_hot_path
            KeyOutcome::Miss(buf.clone())
        });
        match outcome {
            KeyOutcome::Hit(response) => {
                trace.stage_done();
                shared.finish(
                    conn,
                    request.method(),
                    &response,
                    request.keep_alive(),
                    Some(RequestKind::QuickDynamic),
                    trace,
                    page.as_deref(),
                );
                return;
            }
            KeyOutcome::Miss(key) => Some(key),
        }
    } else {
        None
    };

    // Classification and Table 1 dispatch.
    let class = match &page {
        Some(name) => shared.tracker.classify(name),
        None => RequestClass::Quick,
    };
    let kind = match class {
        RequestClass::Quick => RequestKind::QuickDynamic,
        RequestClass::Lengthy => RequestKind::LengthyDynamic,
    };
    trace.classified(class == RequestClass::Lengthy);
    let method = request.method();
    let m = &shared.model;
    let (queue, stats, point, stage) = match m.controller.dispatch(class, shared.tspare()) {
        DynamicPoolChoice::General => (
            &m.general_q,
            &m.general_stats,
            ShedPoint::General,
            Stage::General,
        ),
        DynamicPoolChoice::Lengthy => (
            &m.lengthy_q,
            &m.lengthy_stats,
            ShedPoint::Lengthy,
            Stage::Lengthy,
        ),
    };
    trace.stage_done();
    trace.enqueued(stage);
    let job = DynJob {
        conn,
        request,
        page,
        kind,
        deadline,
        stale_key,
        cache_snapshot,
        trace,
    };
    if let Err(PushError::Full(job)) = queue.try_push(job) {
        stats.rejected.increment();
        shared.shed(job.conn, method, point, Some(job.trace));
    }
}

/// Stage 2b: the static-request worker (parses its own headers).
fn static_worker(shared: &Shared, job: StaticJob) {
    let StaticJob {
        mut conn,
        line,
        deadline,
        mut trace,
    } = job;
    trace.dequeued();
    if Shared::expired(deadline) {
        shared.expire(conn, line.method, Some(trace));
        return;
    }
    let headers = match conn.read_remaining_headers() {
        Ok(h) => h,
        Err(e) => return shared.fail_parse(conn, e, Some(trace)),
    };
    let response = shared.serve_static(line.target.path(), &headers);
    trace.stage_done();
    shared.finish(
        conn,
        line.method,
        &response,
        line.keep_alive(&headers),
        Some(RequestKind::Static),
        trace,
        Some(line.target.path()),
    );
}

/// Stage 3: the dynamic-request worker (owns a database connection
/// slot — the connection itself can die under fault injection and be
/// replaced; see [`DbSlot`]).
fn dynamic_worker(shared: &Shared, slot: &mut DbSlot, job: DynJob) {
    let DynJob {
        conn,
        request,
        page,
        kind,
        deadline,
        stale_key,
        cache_snapshot,
        mut trace,
    } = job;
    trace.dequeued();
    let keep_alive = request.keep_alive();
    let method = request.method();
    if Shared::expired(deadline) {
        shared.expire(conn, method, Some(trace));
        return;
    }
    let Some(page) = page else {
        shared.stats.errors.increment();
        shared.finish(
            conn,
            method,
            &Response::error(StatusCode::NOT_FOUND),
            keep_alive,
            Some(kind),
            trace,
            None,
        );
        return;
    };
    // The paper's measurement window: from request acquisition until
    // the unrendered template is queued for rendering.
    let started = Instant::now();
    let Some((route, captures)) = shared.app.route(request.path()) else {
        shared.stats.errors.increment();
        shared.finish(
            conn,
            method,
            &Response::error(StatusCode::NOT_FOUND),
            keep_alive,
            Some(kind),
            trace,
            Some(&page),
        );
        return;
    };
    let merged;
    let request = if captures.is_empty() {
        &request
    } else {
        merged = merge_captures(&request, &captures);
        &merged
    };
    // Collect the handler's read set when some cache will tag an entry
    // with it. The slot re-arms tracking across connection replacement,
    // and a lost set (starved re-checkout) just means the render is
    // cached conservatively or not at all — never served stale.
    let track = stale_key.is_some() && shared.track_reads();
    if track {
        slot.begin_read_tracking();
    }
    let outcome = run_handler_with_slot(route, request, slot, &shared.stats);
    let reads: Option<Arc<ReadSet>> = if track {
        slot.take_read_set().map(Arc::new)
    } else {
        None
    };
    match outcome {
        Ok(PageOutcome::Template { name, context }) => {
            shared.tracker.record(&page, started.elapsed());
            // The §3.3 extension: templates whose average render time
            // is lengthy go to the dedicated lengthy-render pool.
            let m = &shared.model;
            let lengthy_render = m.render_lengthy_q.is_some()
                && m.render_tracker.classify(&name) == RequestClass::Lengthy;
            let (target, target_stats, stage) = if lengthy_render {
                (
                    m.render_lengthy_q.as_ref().expect("checked above"),
                    m.render_lengthy_stats
                        .as_ref()
                        .expect("stats exist with the queue"),
                    Stage::RenderLengthy,
                )
            } else {
                (&m.render_q, &m.render_stats, Stage::Render)
            };
            trace.stage_done();
            trace.enqueued(stage);
            if let Err(PushError::Full(job)) = target.try_push(RenderJob {
                conn,
                keep_alive,
                method,
                name,
                page,
                context,
                kind,
                deadline,
                stale_key,
                cache_snapshot,
                reads,
                trace,
            }) {
                target_stats.rejected.increment();
                shared.shed(job.conn, method, ShedPoint::Render, Some(job.trace));
            }
        }
        Ok(PageOutcome::Body(response)) => {
            // Backward compatibility: a pre-rendered page is sent from
            // the dynamic thread (§3.1), still excluding rendering we
            // cannot separate.
            shared.tracker.record(&page, started.elapsed());
            // Cache-marked pre-rendered pages join the stale ladder
            // (and the document cache) too — but only plain HTML 200s,
            // because a stale hit is rehydrated as `Response::html`.
            if let Some(key) = &stale_key {
                if response.status() == StatusCode::OK
                    && response.headers().get("content-type") == Some("text/html; charset=utf-8")
                {
                    shared
                        .model
                        .stale
                        .put_tagged(key, response.body_shared(), reads.clone());
                    if let (Some(dc), Some(reads)) = (&shared.model.doc_cache, &reads) {
                        dc.publish(
                            key,
                            Arc::new(response.clone()),
                            Arc::clone(reads),
                            cache_snapshot,
                        );
                    }
                }
            }
            trace.stage_done();
            shared.finish(
                conn,
                method,
                &response,
                keep_alive,
                Some(kind),
                trace,
                Some(&page),
            );
        }
        Err(e) if e.is_unavailable() => {
            // Transient resource failure (open breaker, dead
            // connection, starved pool). The degradation ladder:
            // serve a stale copy if one exists, 503 only without one.
            shared.tracker.record(&page, started.elapsed());
            trace.note(TraceEvent::Unavailable);
            if let Some(hit) = stale_key.as_deref().and_then(|k| shared.model.stale.get(k)) {
                shared.stats.degraded.increment();
                trace.note(TraceEvent::StaleServed);
                shared.finish(
                    conn,
                    method,
                    &hit.response(),
                    keep_alive,
                    Some(kind),
                    trace,
                    Some(&page),
                );
                return;
            }
            if stale_key.is_some() {
                shared.stats.stale_misses.increment();
            }
            shared.stats.errors.increment();
            shared.finish(
                conn,
                method,
                &overload_response(shared.retry.advise()),
                false,
                Some(kind),
                trace,
                Some(&page),
            );
        }
        Err(_) => {
            shared.tracker.record(&page, started.elapsed());
            shared.stats.errors.increment();
            shared.finish(
                conn,
                method,
                &Response::error(StatusCode::INTERNAL_SERVER_ERROR),
                keep_alive,
                Some(kind),
                trace,
                Some(&page),
            );
        }
    }
}

/// Stage 4: the template-rendering worker.
fn render_worker(shared: &Shared, job: RenderJob) {
    let RenderJob {
        conn,
        keep_alive,
        method,
        name,
        page,
        context,
        kind,
        deadline,
        stale_key,
        cache_snapshot,
        reads,
        mut trace,
    } = job;
    trace.dequeued();
    if Shared::expired(deadline) {
        // Deadline spent in the render queue: a stale copy (sent with
        // `Connection: close` — the client has been waiting the whole
        // budget already) still beats rendering a page nobody may be
        // listening for, and beats a 503 for one that was cacheable.
        if let Some(hit) = stale_key.as_deref().and_then(|k| shared.model.stale.get(k)) {
            shared.stats.deadline_expired.increment();
            shared.stats.degraded.increment();
            trace.note(TraceEvent::StaleServed);
            let mut response = hit.response();
            response.set_close();
            shared.finish(
                conn,
                method,
                &response,
                false,
                Some(kind),
                trace,
                Some(&page),
            );
        } else {
            shared.expire(conn, method, Some(trace));
        }
        return;
    }
    let render_started = Instant::now();
    let response = match shared.render(&name, &context) {
        Ok(response) => {
            // The rendered body is shared, not copied, with the stale
            // cache and the document cache.
            if let Some(key) = &stale_key {
                shared
                    .model
                    .stale
                    .put_tagged(key, response.body_shared(), reads.clone());
            }
            // Publish the finished page for healthy-path reuse, tagged
            // with what it read. `publish` discards it if a write to a
            // dependent table landed after this request's snapshot.
            if let (Some(dc), Some(key), Some(reads)) =
                (&shared.model.doc_cache, &stale_key, &reads)
            {
                dc.publish(
                    key,
                    Arc::new(response.clone()),
                    Arc::clone(reads),
                    cache_snapshot,
                );
            }
            response
        }
        Err(error) => error,
    };
    shared
        .model
        .render_tracker
        .record(&name, render_started.elapsed());
    trace.stage_done();
    shared.finish(
        conn,
        method,
        &response,
        keep_alive,
        Some(kind),
        trace,
        Some(&page),
    );
}
