//! The server front both request-processing models share.
//!
//! The paper compares thread-per-request ([`crate::BaselineServer`])
//! with five pools ([`crate::StagedServer`]) over one HTTP, database and
//! template stack, and that comparison holds only while scheduling is
//! the one thing that differs. Everything else lives here, once: server
//! construction (connection pool, breaker, registry, governor,
//! durability, observers), the accept loop, the admin endpoints, the
//! parse-failure and overload responses, the keep-alive budget,
//! drain-aware shutdown, and the page-pipeline steps both models run
//! (handler, static serving, rendering). A model supplies its queues and
//! the workers that drain them, and nothing else.

use crate::app::{App, PageOutcome, Route};
use crate::config::ServerConfig;
use crate::error::AppError;
use crate::governor::{ConnectionGovernor, GovernedStream};
use crate::handle::{FaultFn, ServerHandle, ShutdownError, ShutdownFn};
use crate::health::{self, HealthView, Readiness};
use crate::overload::{drain_before_close, overload_response, ChaosAction, DbSlot, RetryEstimator};
use crate::scheduler::ServiceTimeTracker;
use crate::stats::{RequestKind, ServerStats, ShedPoint};
use staged_db::{CircuitBreaker, ConnectionPool, Database, PooledConnection};
use staged_http::{
    Connection, HeaderMap, HttpError, Method, Request, RequestLine, Response, RouteParams,
    StatusCode,
};
use staged_metrics::{Registry, Trace, TraceEvent, TraceHub, TraceOutcome};
use staged_pool::{PoolStats, SyncQueue};
use staged_sync::atomic::{AtomicBool, Ordering};
use staged_templates::Context;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client connection as both models carry it between threads.
pub(crate) type Conn = Connection<GovernedStream>;

/// The state a server's threads share: the front's pieces, plus the
/// model's own queues, pools and scheduler in `model`.
pub(crate) struct Front<M> {
    pub(crate) app: App,
    pub(crate) stats: Arc<ServerStats>,
    /// Per-page data-generation times: the staged server schedules on
    /// them; the baseline only labels its completions quick/lengthy.
    pub(crate) tracker: Arc<ServiceTimeTracker>,
    /// The one metrics surface: `/metrics`, `/healthz` and the handle
    /// all read from here.
    pub(crate) registry: Arc<Registry>,
    /// Per-request time budget (`None` disables deadline checking).
    pub(crate) budget: Option<Duration>,
    /// Adaptive `Retry-After` advice for shed responses.
    pub(crate) retry: RetryEstimator,
    /// Trace pool + slow ring; `None` on the untraced baseline, whose
    /// `/debug/traces` ring is always empty.
    pub(crate) traces: Option<TraceHub>,
    readiness: Arc<Readiness>,
    breaker: Option<Arc<CircuitBreaker>>,
    governor: ConnectionGovernor,
    /// Kept for `/debug/explain`, the health payload's durability
    /// section, and the shutdown checkpoint.
    db: Arc<Database>,
    /// Set when shutdown begins: the listener stops, and keep-alive
    /// connections close after their in-flight response.
    draining: AtomicBool,
    pub(crate) model: M,
}

/// What [`Front::bind`] returns beside the front: the bound listener,
/// and the database connection pool the model's workers take slots
/// from.
pub(crate) struct Bound {
    listener: TcpListener,
    addr: SocketAddr,
    connections: ConnectionPool,
    set_fault: FaultFn,
    config: ServerConfig,
}

impl Bound {
    /// A worker's database connection slot.
    pub(crate) fn db_slot(&self) -> DbSlot {
        DbSlot::new(
            &self.connections,
            self.config.db_acquire_timeout,
            self.config.db_acquire_retries,
        )
    }
}

/// How a response left its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sent {
    /// Delivered; the connection may carry the client's next request.
    Reuse,
    /// Delivered; the connection is done.
    Close,
    /// The client went away mid-write.
    Dropped,
}

impl<M: Send + Sync + 'static> Front<M> {
    /// Binds the listen address and builds everything both models
    /// share. `depth` reports the model's queued backlog for
    /// `Retry-After` advice and the shutdown drain; `traced` gives the
    /// server a [`TraceHub`].
    ///
    /// # Errors
    ///
    /// Any I/O error binding the address or attaching durability.
    pub(crate) fn bind(
        config: &ServerConfig,
        app: App,
        db: Arc<Database>,
        traced: bool,
        model: M,
        depth: impl Fn() -> usize + Send + Sync + 'static,
    ) -> io::Result<(Self, Bound)> {
        config.validate();
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new(config.stats_bucket));
        let tracker = Arc::new(ServiceTimeTracker::new(config.lengthy_cutoff));
        let registry = Arc::new(Registry::new());
        let traces = traced.then(|| TraceHub::new(&registry, config.trace_ring));
        let governor = ConnectionGovernor::new(config.governor);
        governor.register_into(&registry);
        stats.register_into(&registry);
        register_page_tracker(&registry, &tracker);
        register_plan_observer(&registry, &db);
        setup_durability(config, &registry, &db)?;
        let connections = ConnectionPool::new(Arc::clone(&db), config.db_connections);
        connections.set_fault_plan(config.fault_plan);
        connections.set_breaker(config.breaker);
        let fault_pool = connections.clone();
        let set_fault: FaultFn = Arc::new(move |plan| fault_pool.set_fault_plan(plan));
        let completed = Arc::clone(&stats);
        let front = Front {
            app,
            retry: RetryEstimator::new(
                config.retry_after,
                Box::new(depth),
                Box::new(move || completed.total_completed()),
            ),
            stats,
            tracker,
            registry,
            budget: config.request_deadline,
            traces,
            readiness: Arc::new(Readiness::new()),
            breaker: connections.breaker(),
            governor,
            db,
            draining: AtomicBool::new(false),
            model,
        };
        let bound = Bound {
            listener,
            addr,
            connections,
            set_fault,
            config: config.clone(),
        };
        Ok((front, bound))
    }

    /// Starts the accept loop and returns the server's handle.
    ///
    /// `enqueue` hands each admitted connection to the model and answers
    /// `false` once its queue has closed. At shutdown the front waits
    /// (bounded by `drain_deadline`) until nothing is queued and `busy`
    /// counts no working thread, then runs `close` to stop the model's
    /// pools, then checkpoints the database.
    pub(crate) fn serve(
        self: Arc<Self>,
        bound: Bound,
        listener_name: &str,
        gauge_names: Vec<String>,
        enqueue: impl Fn(&Self, Conn) -> bool + Send + 'static,
        busy: impl Fn(&Self) -> i64 + Send + 'static,
        close: impl FnOnce() + Send + 'static,
    ) -> ServerHandle {
        let Bound {
            listener,
            addr,
            set_fault,
            config,
            ..
        } = bound;
        let drain_deadline = config.drain_deadline;
        let front = Arc::clone(&self);
        let listener_thread = std::thread::Builder::new()
            .name(listener_name.to_string())
            .spawn(move || front.accept_loop(listener, &config, enqueue))
            .expect("failed to spawn listener thread");
        // The listener is live: accepted connections will be served.
        self.readiness.set_ready();

        let front = Arc::clone(&self);
        let shutdown: ShutdownFn = Box::new(move || {
            // Drain-aware shutdown: advertise not-ready, close keep-alive
            // connections after their in-flight response, stop accepting
            // — then let every already-accepted request finish.
            front.readiness.set_draining();
            front.draining.store(true, Ordering::Release);
            // Poke the blocking accept() so the listener notices.
            let _ = TcpStream::connect(addr);
            let _ = listener_thread.join();
            // Closing the pools drains their queues' backlogs, but only
            // this bounded wait covers requests a worker has popped and
            // not yet answered (or handed to the next stage).
            let deadline = Instant::now() + drain_deadline;
            while (front.retry.depth() > 0 || busy(&front) > 0) && Instant::now() <= deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            close();
            // Last: with every worker joined, checkpoint the database so
            // a graceful stop never replays on the next open.
            shutdown_checkpoint(&front.db)
        });
        ServerHandle::new(
            addr,
            Arc::clone(&self.stats),
            Arc::clone(&self.tracker),
            Arc::clone(&self.registry),
            gauge_names,
            Arc::clone(&self.readiness),
            set_fault,
            self.breaker.clone(),
            shutdown,
        )
    }

    /// The listener thread: chaos, socket timeouts, governor admission,
    /// then the model's non-blocking enqueue — a full queue sheds the
    /// connection instead of stalling accept (which would only move the
    /// backlog into the kernel).
    fn accept_loop(
        &self,
        listener: TcpListener,
        config: &ServerConfig,
        enqueue: impl Fn(&Self, Conn) -> bool,
    ) {
        let mut conn_seq: u64 = 0;
        for incoming in listener.incoming() {
            if self.is_draining() {
                break;
            }
            let Ok(stream) = incoming else {
                self.stats.dropped_connections.increment();
                continue;
            };
            let seq = conn_seq;
            conn_seq += 1;
            match config.chaos.map_or(ChaosAction::Pass, |c| c.decide(seq)) {
                ChaosAction::Pass => {}
                ChaosAction::Kill => {
                    self.stats.chaos_killed.increment();
                    continue;
                }
                ChaosAction::Stall => {
                    self.stats.chaos_stalled.increment();
                    std::thread::sleep(config.chaos.expect("stall implies chaos").stall);
                }
            }
            let _ = stream.set_read_timeout(config.read_timeout);
            let _ = stream.set_write_timeout(config.write_timeout);
            // Admission control: over-cap connections are turned away
            // with the well-formed 503 + Retry-After, not silently reset.
            let peer_ip = stream.peer_addr().ok().map(|a| a.ip());
            let permit = self.governor.admit(peer_ip).ok();
            let admitted = permit.is_some();
            let conn = Connection::with_limits(GovernedStream::new(stream, permit), config.limits);
            if !admitted {
                self.refuse(conn, Method::Get, None, TraceOutcome::Shed);
            } else if !enqueue(self, conn) {
                break;
            }
        }
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Sends a response (honouring `HEAD`) and decides whether the
    /// connection carries another request. `kind` records a completion;
    /// admin endpoints pass `None`, because monitoring traffic must not
    /// skew the goodput series.
    pub(crate) fn respond(
        &self,
        conn: &mut Conn,
        method: Method,
        response: &Response,
        keep_alive: bool,
        kind: Option<RequestKind>,
    ) -> Sent {
        if conn.send_for_method(method, response).is_err() {
            self.stats.dropped_connections.increment();
            return Sent::Dropped;
        }
        if let Some(kind) = kind {
            self.stats.record_completion(kind);
        }
        // Responses the server marked `Connection: close` (503s) end the
        // connection even if the client asked for keep-alive — as does a
        // draining server, so shutdown isn't held open by idle
        // keep-alive connections.
        let server_closed = response
            .headers()
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if !keep_alive || server_closed || self.is_draining() {
            return Sent::Close;
        }
        // Keep-alive lifecycle caps: a connection that has served its
        // request quota — or any idle one while open connections sit at
        // the governor's harvest watermark — is closed, freeing its
        // admission slot for a new peer.
        let served = conn.stream_mut().count_served();
        if self.governor.keepalive_exhausted(served) || self.governor.harvest_idle() {
            return Sent::Close;
        }
        Sent::Reuse
    }

    /// Answers `/healthz`, `/readyz`, `/metrics`, `/debug/explain` or
    /// `/debug/traces` (see [`is_admin`]).
    pub(crate) fn admin_response(&self, line: &RequestLine) -> Response {
        match line.target.path() {
            "/metrics" => Response::metrics_text(self.registry.encode_prometheus()),
            "/debug/explain" => {
                health::explain_response(&self.db, line.target.query_value("route").as_deref())
            }
            "/debug/traces" => Response::with_content_type(
                "application/json",
                self.traces
                    .as_ref()
                    .map_or_else(|| "{\"traces\":[]}".to_string(), TraceHub::traces_json),
            ),
            path => {
                // Rendered from the registry — the same families
                // `/metrics` exports, so the two surfaces cannot disagree.
                let view = HealthView {
                    phase: self.readiness.phase(),
                    breaker: self.breaker.as_deref(),
                    registry: &self.registry,
                    durability: self.db.durability_status(),
                };
                if path == "/readyz" {
                    view.readyz(self.retry.advise())
                } else {
                    view.healthz()
                }
            }
        }
    }

    /// Answers a failed parse with the status the error maps to — `400`
    /// for malformed requests, `431`/`413` for oversized headers/bodies,
    /// `408` for an expired lifecycle budget — always with
    /// `Connection: close`, so hostile or broken clients learn *why*
    /// instead of seeing a silent drop. Errors with no response mapping
    /// (I/O failures, unclean closes) drop the connection.
    pub(crate) fn fail_parse(&self, mut conn: Conn, e: HttpError, trace: Option<Trace>) {
        match e.response_status() {
            Some(status) => {
                if e.is_lifecycle_timeout() {
                    self.stats.slowloris_kills.increment();
                }
                let mut resp = Response::error(status);
                resp.set_close();
                let _ = conn.send(&resp);
                self.stats.errors.increment();
            }
            None => self.stats.dropped_connections.increment(),
        }
        if let Some(trace) = trace {
            trace.finish(TraceOutcome::Dropped, None);
        }
    }

    /// Whether a connection queued at `arrived` has waited longer than
    /// the whole request budget (and is to be answered with
    /// [`Front::expire`] before any parsing).
    pub(crate) fn waited_too_long(&self, arrived: Instant) -> bool {
        self.budget.is_some_and(|b| arrived.elapsed() > b)
    }

    /// Sheds a request at `point` with the well-formed `503` and closes
    /// the connection. Sheds are not completions: goodput counts only
    /// requests actually served.
    pub(crate) fn shed(&self, conn: Conn, method: Method, point: ShedPoint, trace: Option<Trace>) {
        self.stats.record_shed(point);
        let trace = trace.map(|mut t| {
            t.note(TraceEvent::Shed);
            t
        });
        self.refuse(conn, method, trace, TraceOutcome::Shed);
    }

    /// Answers a request whose deadline already passed with a `503` and
    /// closes the connection (the client has almost certainly given up;
    /// serving it would waste a saturated stage's time).
    pub(crate) fn expire(&self, conn: Conn, method: Method, trace: Option<Trace>) {
        self.stats.deadline_expired.increment();
        self.refuse(conn, method, trace, TraceOutcome::Expired);
    }

    /// The one `503`-and-close writer behind governor turn-aways, sheds
    /// and expiries.
    fn refuse(&self, mut conn: Conn, method: Method, trace: Option<Trace>, outcome: TraceOutcome) {
        if conn
            .send_for_method(method, &overload_response(self.retry.advise()))
            .is_err()
        {
            self.stats.dropped_connections.increment();
        } else {
            // The request may be partly (or wholly) unread; drain it so
            // closing doesn't RST the 503 away.
            drain_before_close(conn.stream_mut().tcp());
        }
        if let Some(trace) = trace {
            trace.finish(outcome, None);
        }
    }

    /// Serves a static resource. A miss answers `404` and counts as an
    /// error, as an unrouted dynamic path does.
    pub(crate) fn serve_static(&self, path: &str, headers: &HeaderMap) -> Response {
        let response = self.app.statics().response_for_request(path, headers);
        self.app.charge_static();
        if response.status() == StatusCode::NOT_FOUND {
            self.stats.errors.increment();
        }
        response
    }

    /// Renders a template into a pooled buffer and freezes that buffer
    /// into the response body, so the page bytes are never copied. A
    /// failed render is counted and answered `500` (the `Err` side).
    pub(crate) fn render(&self, name: &str, context: &Context) -> Result<Response, Response> {
        let mut buf = staged_http::BufferPool::global().get();
        match self.app.templates().render_into(name, context, &mut buf) {
            Ok(()) => {
                self.app.charge_render(buf.len());
                Ok(Response::html(buf.freeze()))
            }
            Err(_) => {
                self.stats.errors.increment();
                Err(Response::error(StatusCode::INTERNAL_SERVER_ERROR))
            }
        }
    }
}

/// Whether a request path is an admin endpoint: health (`/healthz`,
/// `/readyz`) or observability (`/metrics`, `/debug/explain`,
/// `/debug/traces`). Both models answer these ahead of routing and
/// without a database connection, so they stay truthful during the very
/// outages they report.
pub(crate) fn is_admin(path: &str) -> bool {
    health::is_health_path(path) || health::is_observability_path(path)
}

/// Merges pattern captures into the request's parameter list (captures
/// are appended, so query parameters of the same name win).
pub(crate) fn merge_captures(request: &Request, captures: &RouteParams) -> Request {
    let mut merged = request.clone();
    merged
        .params
        .extend(captures.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    merged
}

/// Runs a route handler, converting panics into errors so the worker
/// thread (and its database connection) survives.
fn run_handler(
    route: &Route,
    request: &Request,
    db_conn: &PooledConnection,
    stats: &ServerStats,
) -> Result<PageOutcome, AppError> {
    // Tag the connection with the page it is serving so every statement
    // the handler runs is attributed to it on `/debug/explain`.
    db_conn.set_route(Some(&route.name));
    let result = match panic::catch_unwind(AssertUnwindSafe(|| (route.handler)(request, db_conn))) {
        Ok(result) => result,
        Err(_) => {
            stats.handler_panics.increment();
            Err(AppError::handler("handler panicked"))
        }
    };
    db_conn.set_route(None);
    result
}

/// Runs a route handler through the worker's [`DbSlot`]: a request that
/// fails because the slot's connection died is retried **once** on a
/// freshly checked-out connection; pool starvation (and a second loss)
/// surfaces as [`AppError::Unavailable`] for a `503`.
pub(crate) fn run_handler_with_slot(
    route: &Route,
    request: &Request,
    slot: &mut DbSlot,
    stats: &ServerStats,
) -> Result<PageOutcome, AppError> {
    for attempt in 0..2 {
        let Some(db_conn) = slot.conn() else {
            stats.pool_starved.increment();
            return Err(AppError::Unavailable("database pool starved".into()));
        };
        let result = run_handler(route, request, db_conn, stats);
        match &result {
            Err(e) if e.is_unavailable() && attempt == 0 => {
                // The connection died mid-request; discard it and retry
                // on a fresh one.
                slot.invalidate();
            }
            _ => return result,
        }
    }
    unreachable!("the second attempt always returns");
}

/// Registers a stage queue's observability: its depth gauge
/// (`stage_queue_depth{stage=…}`) and its wait histogram
/// (`stage_queue_wait_seconds{stage=…}`, recorded by the queue itself
/// on every pop).
pub(crate) fn register_stage<T: Send + 'static>(
    registry: &Registry,
    stage: &'static str,
    q: &Arc<SyncQueue<T>>,
) {
    let depth = Arc::clone(q);
    registry.gauge_fn("stage_queue_depth", &[("stage", stage)], move || {
        depth.len() as f64
    });
    q.set_wait_histogram(registry.histogram("stage_queue_wait_seconds", &[("stage", stage)]));
}

/// Registers a worker pool's counters
/// (`pool_{completed,panics,rejected}_total{pool=…}`), its busy gauge
/// (`pool_busy_workers{pool=…}`), and its service-time histogram
/// (`stage_service_seconds{stage=…}`).
pub(crate) fn register_pool(
    registry: &Registry,
    pool: &'static str,
    stage: &'static str,
    stats: &Arc<PoolStats>,
) {
    let s = Arc::clone(stats);
    registry.counter_fn("pool_completed_total", &[("pool", pool)], move || {
        s.completed.value()
    });
    let s = Arc::clone(stats);
    registry.counter_fn("pool_panics_total", &[("pool", pool)], move || {
        s.panicked.value()
    });
    let s = Arc::clone(stats);
    registry.counter_fn("pool_rejected_total", &[("pool", pool)], move || {
        s.rejected.value()
    });
    let s = Arc::clone(stats);
    registry.gauge_fn("pool_busy_workers", &[("pool", pool)], move || {
        s.busy.value().max(0) as f64
    });
    registry.register_histogram(
        "stage_service_seconds",
        &[("stage", stage)],
        Arc::clone(&stats.service),
    );
}

/// Attaches durability to `db` when the configuration asks for it (and
/// the database isn't already durable, as one opened via
/// [`Database::open`] is), then registers the WAL metric families:
/// `wal_appends_total`, `wal_bytes_total`, `checkpoints_total`,
/// `recovery_replayed_records`, and the `wal_fsync_seconds` histogram
/// fed by the group-commit leader.
fn setup_durability(
    config: &ServerConfig,
    registry: &Registry,
    db: &Arc<Database>,
) -> io::Result<()> {
    let Some(durability) = &config.durability else {
        return Ok(());
    };
    if db.durability_status().is_none() {
        db.enable_durability(durability.clone())
            .map_err(io::Error::other)?;
    }
    let stat = |db: &Arc<Database>, f: fn(staged_db::WalStats) -> u64| {
        let db = Arc::clone(db);
        move || db.wal_stats().map_or(0, f)
    };
    registry.counter_fn("wal_appends_total", &[], stat(db, |w| w.appends));
    registry.counter_fn("wal_bytes_total", &[], stat(db, |w| w.bytes));
    let d = Arc::clone(db);
    registry.counter_fn("checkpoints_total", &[], move || {
        d.durability_status().map_or(0, |s| s.checkpoints)
    });
    let d = Arc::clone(db);
    registry.gauge_fn("recovery_replayed_records", &[], move || {
        d.durability_status().map_or(0.0, |s| s.replay_count as f64)
    });
    let fsync = registry.histogram("wal_fsync_seconds", &[]);
    db.set_fsync_observer(move |elapsed| fsync.record(elapsed));
    Ok(())
}

/// The final durability step of a graceful shutdown: once every pool is
/// drained and joined, write a checkpoint so the next open replays
/// nothing. Called with no server activity left; surfacing the error is
/// the point (a swallowed checkpoint failure turns "cleanly stopped"
/// into replay-on-next-open at best, data loss at worst).
fn shutdown_checkpoint(db: &Database) -> Result<(), ShutdownError> {
    let Some(status) = db.durability_status() else {
        return Ok(());
    };
    if !status.checkpoint_on_shutdown {
        return Ok(());
    }
    db.checkpoint()
        .map_err(|e| ShutdownError::new(format!("final checkpoint failed: {e}")))
}

/// Pre-creates the `db_plan_node_seconds{node=…}` histogram family for
/// every plan-node kind and installs the planner's per-node timing
/// observer feeding it. Pre-creation keeps the whole family visible in
/// `/metrics` from the first scrape; the observer itself only does a
/// slice scan and a histogram record (it runs after the database has
/// released every lock, but still on the query's thread).
fn register_plan_observer(registry: &Registry, db: &Arc<Database>) {
    let hists: Vec<(&'static str, Arc<staged_metrics::Histogram>)> = staged_db::PLAN_NODE_KINDS
        .iter()
        .map(|kind| {
            (
                *kind,
                registry.histogram("db_plan_node_seconds", &[("node", kind)]),
            )
        })
        .collect();
    db.set_plan_observer(move |node, elapsed| {
        if let Some((_, h)) = hists.iter().find(|(k, _)| *k == node) {
            h.record(elapsed);
        }
    });
}

/// Registers the per-page data-generation collector
/// (`page_service_seconds{page=…}`, the scheduler's classification
/// input as a running average).
fn register_page_tracker(registry: &Registry, tracker: &Arc<ServiceTimeTracker>) {
    let t = Arc::clone(tracker);
    registry.gauge_collector("page_service_seconds", "page", move || {
        t.snapshot()
            .into_iter()
            .map(|(page, avg, _count)| (page, avg.as_secs_f64()))
            .collect()
    });
}
