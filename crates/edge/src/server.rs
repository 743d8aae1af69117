//! The edge deployment: sharded accept loops in front of `rtse-serve`.
//!
//! ## Shape
//!
//! [`edge_serve`] owns the whole lifecycle. It binds the listen socket,
//! starts `rtse_serve::serve` (the in-process serving loops), and inside
//! that server's scope spins up `shards` listener threads plus an
//! optional rollover-prewarm thread on one [`rtse_pool::ComputePool`]
//! scope. Each shard owns its accepted connections outright — accept,
//! decode, admit, fan-in, flush all happen on the shard thread, so the
//! only cross-thread contention is the serving queue itself (which is
//! the point: the queue is the backpressure boundary).
//!
//! ## Admission path
//!
//! wire frame → [`crate::frame::decode_frame`] (fail-closed) →
//! **bounds check** (a hostile deadline/staleness budget is a typed
//! [`crate::frame::RejectCode`] before the request ever touches the
//! queue) → [`rtse_serve::ServerHandle::submit`] → ticket tracked by
//! request id → answer/reject frame on resolution.
//!
//! ## Drain
//!
//! When the caller's closure returns, shards stop accepting, resolve
//! every in-flight ticket (the serving layer is still live underneath —
//! its own drain starts only after the edge scope joins), flush each
//! connection's write buffer, send a typed `GoAway(ShuttingDown)`, and
//! close. No accepted request is dropped answerless; the e2e test
//! `edge_drain_answers_everything` pins this.

use crate::config::EdgeConfig;
use crate::conn::{CloseReason, Conn};
use crate::error::EdgeError;
use crate::frame::{DecodeLimits, GoAwayCode, QueryFrame, RejectCode};
use crate::rollover::{prewarm_loop, SlotClock};
use crowd_rtse_core::CrowdRtse;
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use rtse_obs::Stage;
use rtse_pool::ComputePool;
use rtse_serve::{MetricsSnapshot, ServeConfig, ServeRequest, ServeWorld, ServerHandle};
use rtse_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// How long a shard parks when a full pump pass made no progress
/// (nothing accepted, read, resolved, or written).
///
/// A reply needs no timer: resolving a ticket unparks the shard that
/// submitted it, so the park ends as soon as an answer is ready. std has
/// no socket readiness wait, so what this still bounds is how late the
/// shard notices a new connection, newly readable bytes, or a socket that
/// can take more of a backed-up write buffer.
const IDLE_BACKOFF: Duration = Duration::from_micros(500);

/// Per-connection budget for the final blocking flush during drain.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_secs(5);

/// Edge-side counters. All increments are statistics (no ordering
/// protocol hangs off them), so they use relaxed atomics like
/// `rtse_serve::ServeMetrics`.
#[derive(Debug, Default)]
pub struct EdgeMetrics {
    accepted: AtomicU64,
    closed: AtomicU64,
    queries: AtomicU64,
    answers: AtomicU64,
    rejects: AtomicU64,
    bounds_rejects: AtomicU64,
    protocol_errors: AtomicU64,
    idle_closed: AtomicU64,
}

/// One coherent-enough (quiescently exact) view of [`EdgeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMetricsSnapshot {
    /// Connections accepted across all shards.
    pub accepted: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Query frames decoded and dispatched.
    pub queries: u64,
    /// Answer frames sent.
    pub answers: u64,
    /// Reject frames sent (all causes, including bounds).
    pub rejects: u64,
    /// Rejects from the edge's pre-admission bounds check alone.
    pub bounds_rejects: u64,
    /// Connections torn down for protocol violations.
    pub protocol_errors: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
}

impl EdgeMetrics {
    fn snapshot(&self) -> EdgeMetricsSnapshot {
        EdgeMetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed), // lint: relaxed-counter
            closed: self.closed.load(Ordering::Relaxed),     // lint: relaxed-counter
            queries: self.queries.load(Ordering::Relaxed),   // lint: relaxed-counter
            answers: self.answers.load(Ordering::Relaxed),   // lint: relaxed-counter
            rejects: self.rejects.load(Ordering::Relaxed),   // lint: relaxed-counter
            bounds_rejects: self.bounds_rejects.load(Ordering::Relaxed), // lint: relaxed-counter
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed), // lint: relaxed-counter
            idle_closed: self.idle_closed.load(Ordering::Relaxed), // lint: relaxed-counter
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
}

fn bump_n(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed); // lint: relaxed-counter
}

/// What [`edge_serve`] returns: the caller closure's value plus final
/// (quiescent, exact) counters from both layers.
#[derive(Debug)]
pub struct EdgeOutcome<R> {
    /// The closure's return value.
    pub value: R,
    /// Edge counters after every shard drained.
    pub edge_metrics: EdgeMetricsSnapshot,
    /// Serving-layer counters after its queue drained.
    pub serve_metrics: MetricsSnapshot,
}

/// Client-facing view of a running edge deployment.
pub struct EdgeHandle<'h, 'a> {
    addr: SocketAddr,
    serve: &'h ServerHandle<'a>,
    metrics: &'h EdgeMetrics,
    clock: Option<SlotClock>,
}

impl EdgeHandle<'_, '_> {
    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving layer underneath — in-process submissions, pressure,
    /// pause/resume staging, metrics.
    pub fn serve(&self) -> &ServerHandle<'_> {
        self.serve
    }

    /// Live edge counters (quiescently consistent; exact after drain).
    pub fn metrics(&self) -> EdgeMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The rollover clock, when prewarm is configured: what slot the
    /// edge considers current. Load generators use this to aim queries
    /// at the live slot.
    pub fn clock(&self) -> Option<SlotClock> {
        self.clock
    }
}

/// Everything a shard loop needs, shared by reference across the scope.
struct ShardCtx<'h, 'a> {
    handle: &'h ServerHandle<'a>,
    config: &'h EdgeConfig,
    limits: DecodeLimits,
    deadline_bound: Duration,
    staleness_bound: Duration,
    shutdown: &'h AtomicBool,
    metrics: &'h EdgeMetrics,
}

/// Runs an edge deployment for the duration of `run`.
///
/// Checks the edge config's invariants, binds the listener, starts the
/// serving layer, spins up the shard (and prewarm) threads, and calls
/// `run` with the [`EdgeHandle`]. On return the shards drain — every
/// in-flight request resolves to an answer or typed reject on the wire,
/// every connection gets a `GoAway` — then the serving layer drains.
pub fn edge_serve<R>(
    engine: &CrowdRtse<'_>,
    world: &ServeWorld<'_>,
    serve_config: &ServeConfig,
    edge_config: &EdgeConfig,
    run: impl FnOnce(&EdgeHandle<'_, '_>) -> R,
) -> Result<EdgeOutcome<R>, EdgeError> {
    rtse_check::Validate::validate(edge_config)?;
    let listener = TcpListener::bind(&edge_config.addr)
        .map_err(|e| EdgeError::Bind { addr: edge_config.addr.clone(), detail: e.to_string() })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| EdgeError::Bind { addr: edge_config.addr.clone(), detail: e.to_string() })?;
    let addr = listener
        .local_addr()
        .map_err(|e| EdgeError::Bind { addr: edge_config.addr.clone(), detail: e.to_string() })?;

    let shards = edge_config.resolved_shards();
    let mut listeners = Vec::with_capacity(shards);
    for shard in 1..shards {
        let clone =
            listener.try_clone().map_err(|e| EdgeError::Shard { shard, detail: e.to_string() })?;
        listeners.push(clone);
    }
    listeners.push(listener);

    let metrics = EdgeMetrics::default();
    let shutdown = AtomicBool::new(false);
    let clock = edge_config.prewarm.as_ref().map(|p| SlotClock::new(Instant::now(), p));

    let outcome = rtse_serve::serve(engine, world, serve_config, |handle| {
        let ctx = ShardCtx {
            handle,
            config: edge_config,
            limits: DecodeLimits::for_max_roads(edge_config.max_roads_per_query),
            deadline_bound: serve_config.deadline_bound(),
            staleness_bound: serve_config.staleness_bound(),
            shutdown: &shutdown,
            metrics: &metrics,
        };
        // One thread per shard, one for prewarm, plus one spare: at
        // width 1 `ComputePool::scoped` runs jobs inline on submission,
        // which would run a shard loop on this thread and never reach
        // `run`.
        let prewarm_threads = usize::from(clock.is_some());
        let pool = ComputePool::new(shards + prewarm_threads + 1);
        pool.scoped(|scope| {
            for listener in listeners {
                let ctx = &ctx;
                scope.submit(Box::new(move || shard_loop(listener, ctx)));
            }
            if let (Some(clock), Some(prewarm)) = (&clock, &edge_config.prewarm) {
                let lead = prewarm.lead;
                let shutdown = &shutdown;
                scope.submit(Box::new(move || {
                    prewarm_loop(engine, handle, clock, lead, shutdown);
                }));
            }
            let edge_handle = EdgeHandle { addr, serve: handle, metrics: &metrics, clock };
            // Signal shutdown even if `run` unwinds, so the shard loops
            // always exit and the scope always joins.
            let _guard = ShutdownGuard { shutdown: &shutdown };
            run(&edge_handle)
        })
    })?;

    Ok(EdgeOutcome {
        value: outcome.value,
        edge_metrics: metrics.snapshot(),
        serve_metrics: outcome.metrics,
    })
}

struct ShutdownGuard<'s> {
    shutdown: &'s AtomicBool,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// One listener shard: accept, pump, drain.
fn shard_loop(listener: TcpListener, ctx: &ShardCtx<'_, '_>) {
    let obs = &ctx.config.obs;
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let draining = ctx.shutdown.load(Ordering::Acquire);
        let mut progressed = false;

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Err: the peer vanished between accept and setup.
                        if let Ok(conn) = Conn::new(stream, Instant::now(), obs.clone()) {
                            obs.incr(Stage::EdgeAccept);
                            obs.gauge_add(Stage::EdgeConnActive, 1);
                            bump(&ctx.metrics.accepted);
                            conns.push(conn);
                            progressed = true;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Transient accept failures (EMFILE, ECONNABORTED):
                    // back off this pass rather than spin or die.
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            let close = match conns.get_mut(i) {
                Some(conn) => {
                    let pumped = pump_conn(conn, ctx, now);
                    progressed |= pumped.progressed;
                    pumped.close
                }
                None => None,
            };
            match close {
                Some(reason) => {
                    let conn = conns.swap_remove(i);
                    close_conn(conn, reason, ctx);
                }
                None => i += 1,
            }
        }

        if draining {
            drain_shard(conns, ctx);
            return;
        }
        if !progressed {
            std::thread::park_timeout(IDLE_BACKOFF);
        }
    }
}

struct Pumped {
    progressed: bool,
    close: Option<CloseReason>,
}

/// One pump pass over one connection: read + decode, bounds-check and
/// admit queries, poll in-flight tickets, flush.
fn pump_conn(conn: &mut Conn, ctx: &ShardCtx<'_, '_>, now: Instant) -> Pumped {
    let outcome = conn.read_queries(ctx.limits, now);
    let mut progressed = !outcome.queries.is_empty();
    for query in outcome.queries {
        bump(&ctx.metrics.queries);
        dispatch_query(conn, query, ctx);
    }
    let resolved = conn.pump_pending();
    bump_n(&ctx.metrics.answers, resolved.answers as u64);
    bump_n(&ctx.metrics.rejects, resolved.rejects as u64);
    progressed |= resolved.total() > 0;
    if let Err(reason) = conn.flush() {
        return Pumped { progressed, close: Some(reason) };
    }
    let close = match outcome.close {
        Some(reason) => Some(reason),
        None if conn.is_idle(now, ctx.config.idle_timeout) => Some(CloseReason::Idle),
        None => None,
    };
    Pumped { progressed, close }
}

/// Wire query → bounds check → serving queue.
///
/// The budget bounds run *before* admission (satellite of the deadline
/// bugfix): a hostile `deadline_ms`/`max_staleness_ms` gets a typed
/// reject frame and never touches the queue, so no frame can park a
/// request past the server's promised freshness. The serving layer
/// enforces the same bounds for in-process callers — this check is the
/// wire-facing copy, cheap enough to run per frame.
fn dispatch_query(conn: &mut Conn, query: QueryFrame, ctx: &ShardCtx<'_, '_>) {
    if let Some(ms) = query.deadline_ms {
        let requested = Duration::from_millis(u64::from(ms));
        if requested > ctx.deadline_bound {
            bump(&ctx.metrics.rejects);
            bump(&ctx.metrics.bounds_rejects);
            conn.push_reject(
                query.request_id,
                RejectCode::DeadlineOutOfBounds,
                format!("deadline {requested:?} exceeds the {:?} bound", ctx.deadline_bound),
            );
            return;
        }
    }
    if let Some(ms) = query.max_staleness_ms {
        let requested = Duration::from_millis(u64::from(ms));
        if requested > ctx.staleness_bound {
            bump(&ctx.metrics.rejects);
            bump(&ctx.metrics.bounds_rejects);
            conn.push_reject(
                query.request_id,
                RejectCode::StalenessOutOfBounds,
                format!("max_staleness {requested:?} exceeds the {:?} TTL", ctx.staleness_bound),
            );
            return;
        }
    }
    let mut roads = Vec::with_capacity(query.roads.len());
    for raw in &query.roads {
        roads.push(RoadId(*raw));
    }
    let request = ServeRequest {
        roads,
        slot: SlotOfDay(query.slot),
        deadline: query.deadline_ms.map(|ms| Duration::from_millis(u64::from(ms))),
        max_staleness: query.max_staleness_ms.map(|ms| Duration::from_millis(u64::from(ms))),
    };
    match ctx.handle.submit(request) {
        Ok(ticket) => conn.track(query.request_id, ticket),
        Err(err) => {
            bump(&ctx.metrics.rejects);
            conn.push_reply(query.request_id, Err(err));
        }
    }
}

/// Closes one connection: best-effort GoAway, counter bookkeeping.
fn close_conn(mut conn: Conn, reason: CloseReason, ctx: &ShardCtx<'_, '_>) {
    let obs = &ctx.config.obs;
    match reason {
        CloseReason::Protocol(err) => {
            bump(&ctx.metrics.protocol_errors);
            conn.push_goaway(GoAwayCode::ProtocolError, err.to_string());
        }
        CloseReason::UnexpectedFrame => {
            bump(&ctx.metrics.protocol_errors);
            conn.push_goaway(
                GoAwayCode::ProtocolError,
                "client sent a server-only frame type".to_string(),
            );
        }
        CloseReason::Idle => {
            bump(&ctx.metrics.idle_closed);
            conn.push_goaway(GoAwayCode::IdleTimeout, String::new());
        }
        // The peer is gone; nothing to say and nobody to hear it.
        CloseReason::PeerGone => {}
    }
    let _ = conn.flush();
    bump(&ctx.metrics.closed);
    obs.gauge_add(Stage::EdgeConnActive, -1);
    // Dropping `conn` closes the socket; in-flight tickets are abandoned
    // and the serving layer computes-and-discards their replies.
}

/// Orderly drain of one shard's connections: resolve every in-flight
/// ticket (the serving layer is still live), flush, GoAway, close.
fn drain_shard(mut conns: Vec<Conn>, ctx: &ShardCtx<'_, '_>) {
    // The serving layer still accepts nothing new from us (the edge stops
    // dispatching), but every already-submitted ticket will resolve —
    // serve's own drain begins only after this scope joins.
    loop {
        let mut in_flight = 0;
        for conn in &mut conns {
            let resolved = conn.pump_pending();
            bump_n(&ctx.metrics.answers, resolved.answers as u64);
            bump_n(&ctx.metrics.rejects, resolved.rejects as u64);
            let _ = conn.flush();
            in_flight += conn.pending_len();
        }
        if in_flight == 0 {
            break;
        }
        std::thread::park_timeout(IDLE_BACKOFF);
    }
    for mut conn in conns {
        conn.push_goaway(GoAwayCode::ShuttingDown, String::new());
        let _ = conn.flush_blocking(DRAIN_FLUSH_BUDGET);
        bump(&ctx.metrics.closed);
        ctx.config.obs.gauge_add(Stage::EdgeConnActive, -1);
    }
}
