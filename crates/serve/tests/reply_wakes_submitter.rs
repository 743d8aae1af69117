//! Resolving a ticket unparks the thread that submitted it.
//!
//! Each test stages its request behind a paused server, lets a helper
//! thread resume the server a little later, and waits the way the edge
//! shard does: poll the ticket, then `park_timeout`. The park is long
//! (5 s) and the bound short (2 s), so the test passes only if the reply
//! itself ends the park; a reply that merely sits in the channel leaves
//! the submitter parked for the full timeout.

use crowd_rtse_core::{CrowdRtse, OfflineArtifacts, OnlineConfig};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_graph::generators::grid;
use rtse_graph::{Graph, RoadId};
use rtse_serve::{
    serve, ServeConfig, ServeError, ServeRequest, ServeWorld, ServedAnswer, ServerHandle,
    TruthSource,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long each wait parks between polls.
const PARK: Duration = Duration::from_secs(5);
/// How soon after the reply the submitter must be awake again.
const WAKE_BOUND: Duration = Duration::from_secs(2);
/// How long the server stays paused after the submit, so the ticket is
/// still pending when the submitter first parks.
const HOLD: Duration = Duration::from_millis(50);

struct Fixture {
    graph: Graph,
    dataset: SynthDataset,
    pool: WorkerPool,
    costs: Vec<u32>,
}

fn fixture() -> Fixture {
    let graph = grid(4, 5);
    let cfg = SynthConfig { days: 8, seed: 17, ..SynthConfig::small_test() };
    let dataset = TrafficGenerator::new(&graph, cfg).generate();
    let pool = WorkerPool::spawn(&graph, 40, 0.5, (0.3, 1.0), 24);
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, 17);
    Fixture { graph, dataset, pool, costs }
}

fn engine(f: &Fixture) -> CrowdRtse<'_> {
    let model = rtse_rtf::moment_estimate(&f.graph, &f.dataset.history);
    CrowdRtse::new(&f.graph, OfflineArtifacts::from_model(model))
}

fn config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::ZERO,
        workers: 1,
        online: OnlineConfig { budget: 15, ..Default::default() },
        ..Default::default()
    }
}

fn request(slot: u16) -> ServeRequest {
    ServeRequest::new(vec![RoadId(2), RoadId(9)], SlotOfDay(slot))
}

/// Submits `request` behind a paused server, resumes it after [`HOLD`]
/// from a helper thread, and polls the ticket between long parks.
/// Returns the reply and how long the submitter waited for it.
fn resolve_by_parking(
    handle: &ServerHandle<'_>,
    request: ServeRequest,
) -> (Result<ServedAnswer, ServeError>, Duration) {
    handle.pause();
    let ticket = handle.submit(request).expect("admitted");
    let started = Instant::now();
    std::thread::scope(|s| {
        // A scope unparks its owner when its last thread exits, which
        // would wake the submitter without any reply. The helper
        // therefore outlives the wait: it exits once `done` drops.
        let (done, finished) = mpsc::channel::<()>();
        s.spawn(move || {
            std::thread::sleep(HOLD);
            handle.resume();
            let _ = finished.recv();
        });
        let _done = done;
        loop {
            if let Some(reply) = ticket.poll() {
                return (reply, started.elapsed());
            }
            std::thread::park_timeout(PARK);
        }
    })
}

fn assert_woken(waited: Duration) {
    assert!(waited < WAKE_BOUND, "the reply did not wake its submitter: waited {waited:?}");
}

/// (a) A cache-hit answer, fanned out by `respond`.
#[test]
fn cache_hit_answer_wakes_the_submitter() {
    let f = fixture();
    let e = engine(&f);
    let world = ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset };
    serve(&e, &world, &config(), |handle| {
        handle.query(request(40)).expect("warming round");
        let (reply, waited) = resolve_by_parking(handle, request(40));
        assert!(reply.expect("answered").cache_hit, "the warmed slot must answer from cache");
        assert_woken(waited);
    })
    .expect("server starts");
}

/// (b) An answer from a freshly computed round, fanned out by `respond`.
#[test]
fn computed_round_answer_wakes_the_submitter() {
    let f = fixture();
    let e = engine(&f);
    let world = ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset };
    serve(&e, &world, &config(), |handle| {
        let (reply, waited) = resolve_by_parking(handle, request(41));
        assert!(!reply.expect("answered").cache_hit, "a cold slot must compute a round");
        assert_woken(waited);
    })
    .expect("server starts");
}

/// (c) A deadline shed at pickup, sent by `shed_if_expired`.
#[test]
fn deadline_shed_wakes_the_submitter() {
    let f = fixture();
    let e = engine(&f);
    let world = ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset };
    serve(&e, &world, &config(), |handle| {
        let (reply, waited) = resolve_by_parking(handle, request(42).with_deadline(Duration::ZERO));
        assert!(
            matches!(reply, Err(ServeError::DeadlineExceeded { .. })),
            "a zero budget must be shed: {reply:?}"
        );
        assert_woken(waited);
    })
    .expect("server starts");
}

/// A truth source whose snapshots have the wrong length, so every round
/// fails with a typed [`ServeError::WorldMismatch`].
struct NoTruth;

impl TruthSource for NoTruth {
    fn snapshot(&self, _slot: SlotOfDay) -> &[f64] {
        &[]
    }
}

/// (d) A failed round's error, fanned out by `serve_batch`.
#[test]
fn round_error_wakes_the_submitter() {
    let f = fixture();
    let e = engine(&f);
    let world = ServeWorld { workers: &f.pool, costs: &f.costs, truth: &NoTruth };
    serve(&e, &world, &config(), |handle| {
        let (reply, waited) = resolve_by_parking(handle, request(43));
        assert!(
            matches!(reply, Err(ServeError::WorldMismatch { what: "truth snapshot", .. })),
            "a short truth snapshot must fail the round: {reply:?}"
        );
        assert_woken(waited);
    })
    .expect("server starts");
}
