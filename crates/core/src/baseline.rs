//! The conventional thread-per-request server (paper §2.2, Figure 4).

use crate::app::{App, PageOutcome};
use crate::config::ServerConfig;
use crate::front::{
    is_admin, merge_captures, register_pool, register_stage, run_handler_with_slot, Conn, Front,
    Sent,
};
use crate::handle::ServerHandle;
use crate::overload::{overload_response, DbSlot};
use crate::scheduler::RequestClass;
use crate::stats::{RequestKind, ShedPoint};
use staged_db::Database;
use staged_http::{HttpError, Method, Request, Response, StatusCode};
use staged_pool::{PoolConfig, PoolStats, PushError, SyncQueue, WorkerPool};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// The baseline's whole scheduling model: one bounded queue of accepted
/// connections in front of one worker pool.
struct Worker {
    queue: Arc<SyncQueue<(Conn, Instant)>>,
    pool_stats: Arc<PoolStats>,
}

type Ctx = Front<Worker>;

/// The unmodified request-processing model: a single listener thread
/// feeds accepted connections to one pool of worker threads; each
/// worker owns a database connection for its lifetime and carries each
/// request through header parsing, data generation, **and** template
/// rendering.
///
/// This is the paper's comparison baseline. Its pathology under heavy
/// load is structural: the pool size is coupled to the connection count,
/// so threads rendering templates or serving static files hold
/// connections idle, and short requests queue behind lengthy ones in
/// the single queue (the Figure 7 spikes).
///
/// Overload semantics match the staged server's: the worker queue is
/// bounded, the listener sheds with `503` + `Retry-After` instead of
/// blocking the accept loop, and connections whose queue wait exceeds
/// `request_deadline` are answered `503` at dequeue.
#[derive(Debug)]
pub struct BaselineServer;

impl BaselineServer {
    /// Binds, spawns the worker pool (each worker checking a database
    /// connection out for its lifetime), and starts the listener.
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
        let queue = Arc::new(SyncQueue::bounded(config.baseline_queue_bound()));
        let pool_stats = Arc::new(PoolStats::default());
        let depth = Arc::clone(&queue);
        let model = Worker {
            queue: Arc::clone(&queue),
            pool_stats: Arc::clone(&pool_stats),
        };
        // The baseline has no scheduler and no traces; the front's
        // service-time tracker only labels completions quick/lengthy for
        // the Figure 10 breakdown, using the signal the staged server
        // schedules on.
        let (front, bound) = Front::bind(&config, app, db, false, model, move || depth.len())?;
        // The single stage and pool go under the family names the staged
        // server uses, so dashboards and the bench bins read both models
        // identically.
        register_stage(&front.registry, "worker", &queue);
        register_pool(&front.registry, "baseline-worker", "worker", &pool_stats);
        let front = Arc::new(front);

        let ctx = Arc::clone(&front);
        let pool = WorkerPool::with_parts(
            queue,
            pool_stats,
            PoolConfig::new("baseline-worker", config.baseline_workers),
            |_| bound.db_slot(),
            move |slot: &mut DbSlot, (conn, arrived): (Conn, Instant)| {
                // A connection that waited longer than the whole request
                // budget is shed, not served.
                if ctx.waited_too_long(arrived) {
                    ctx.expire(conn, Method::Get, None);
                    return;
                }
                serve_connection(&ctx, conn, slot);
            },
        );

        // Legacy gauge name for `ServerHandle::gauge_names`, mapped to
        // `stage_queue_depth{stage="worker"}` by the handle.
        let gauge_names = vec!["worker".to_string()];
        Ok(front.serve(
            bound,
            "baseline-listener",
            gauge_names,
            accept,
            |ctx| ctx.model.pool_stats.busy.value().max(0),
            move || pool.shutdown(),
        ))
    }
}

/// The listener's non-blocking enqueue: a full queue sheds the
/// connection instead of stalling accept.
fn accept(ctx: &Ctx, conn: Conn) -> bool {
    match ctx.model.queue.try_push((conn, Instant::now())) {
        Ok(()) => true,
        Err(PushError::Full((conn, _))) => {
            ctx.model.pool_stats.rejected.increment();
            ctx.shed(conn, Method::Get, ShedPoint::Listener, None);
            true
        }
        Err(PushError::Closed(_)) => false,
    }
}

/// Serves every request on one connection, thread-per-request style:
/// the whole request lifecycle runs on the calling worker thread.
fn serve_connection(ctx: &Ctx, mut conn: Conn, slot: &mut DbSlot) {
    loop {
        let request = match conn.read_request() {
            Ok(r) => r,
            Err(HttpError::ConnectionClosed { clean: true }) => return,
            Err(e) => return ctx.fail_parse(conn, e, None),
        };
        let (response, kind) = if is_admin(request.path()) {
            (ctx.admin_response(&request.line), None)
        } else {
            let (response, kind) = process_request(ctx, &request, slot);
            (response, Some(kind))
        };
        let keep_alive = request.keep_alive();
        if ctx.respond(&mut conn, request.method(), &response, keep_alive, kind) != Sent::Reuse {
            return;
        }
    }
}

/// Full request processing on the current thread (parse already done):
/// static lookup, or handler + inline template rendering.
fn process_request(ctx: &Ctx, request: &Request, slot: &mut DbSlot) -> (Response, RequestKind) {
    if request.line.is_static() {
        let response = ctx.serve_static(request.path(), &request.headers);
        return (response, RequestKind::Static);
    }
    let Some((route, captures)) = ctx.app.route(request.path()) else {
        ctx.stats.errors.increment();
        return (
            Response::error(StatusCode::NOT_FOUND),
            RequestKind::QuickDynamic,
        );
    };
    // Classify from history *before* this request, mirroring the staged
    // server's dispatch-time decision.
    let kind = match ctx.tracker.classify(&route.name) {
        RequestClass::Quick => RequestKind::QuickDynamic,
        RequestClass::Lengthy => RequestKind::LengthyDynamic,
    };
    let started = Instant::now();
    let merged;
    let request = if captures.is_empty() {
        request
    } else {
        merged = merge_captures(request, &captures);
        &merged
    };
    let outcome = run_handler_with_slot(route, request, slot, &ctx.stats);
    // Data-generation time excludes rendering, as in the staged model.
    ctx.tracker.record(&route.name, started.elapsed());
    let response = match outcome {
        Ok(PageOutcome::Body(resp)) => resp,
        // Same pooled-buffer render path as the staged server's render
        // workers, so the model comparison stays fair.
        Ok(PageOutcome::Template { name, context }) => match ctx.render(&name, &context) {
            Ok(page) | Err(page) => page,
        },
        Err(e) if e.is_unavailable() => {
            // Transient resource failure (open breaker, dead
            // connection, starved pool): 503, retryable — not the 500 a
            // handler bug gets. No stale fallback here: the baseline
            // deliberately has no render cache, preserving the paper's
            // model comparison.
            ctx.stats.errors.increment();
            overload_response(ctx.retry.advise())
        }
        Err(_) => {
            ctx.stats.errors.increment();
            Response::error(StatusCode::INTERNAL_SERVER_ERROR)
        }
    };
    (response, kind)
}
