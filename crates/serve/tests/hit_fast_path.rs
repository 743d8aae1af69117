//! The cache-hit fast path: a batch whose slot has a fresh cached round is
//! answered at pickup, and only a miss holds the batch window open.
//!
//! The window is deliberately long (5 s) wherever a test asserts timing,
//! so "far below the window" and "joined the window" cannot flake on a
//! slow or loaded host.

use crowd_rtse_core::{CrowdRtse, OfflineArtifacts, OnlineConfig};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_graph::generators::grid;
use rtse_graph::{Graph, RoadId};
use rtse_serve::{serve, ServeConfig, ServeRequest, ServeWorld, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(5);

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

fn world(f: &Fixture) -> ServeWorld<'_> {
    ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset }
}

fn config(batch_window: Duration, workers: usize) -> ServeConfig {
    ServeConfig {
        batch_window,
        workers,
        online: OnlineConfig { budget: 15, ..Default::default() },
        ..Default::default()
    }
}

fn request(slot: u16) -> ServeRequest {
    ServeRequest::new(vec![RoadId(2), RoadId(9)], SlotOfDay(slot))
}

/// Asserts the coherent snapshot's `rounds == Σ generations` invariant.
fn assert_coherent(handle: &ServerHandle<'_>) {
    let snap = handle.coherent_snapshot();
    assert_eq!(snap.metrics.rounds, snap.total_generations(), "rounds and generations tore apart");
}

/// (a) After one warming round, a hit is answered at pickup: far below
/// the window, from the warmed generation, publishing nothing.
#[test]
fn fresh_hit_is_answered_without_waiting_out_the_window() {
    let f = fixture();
    let e = engine(&f);
    let outcome = serve(&e, &world(&f), &config(WINDOW, 1), |handle| {
        let warm = handle.query(request(40)).expect("warming round");
        assert!(!warm.cache_hit);
        assert!(warm.wait >= WINDOW, "a cold miss holds the window: {:?}", warm.wait);
        assert_coherent(handle);

        let hit = handle.query(request(40)).expect("hit");
        assert!(hit.cache_hit, "a fresh cached round must answer");
        assert_eq!(hit.generation, warm.generation);
        assert_eq!(hit.estimates, warm.estimates);
        assert!(hit.wait < Duration::from_secs(1), "hit waited {:?}", hit.wait);
        assert_eq!(handle.metrics().rounds, 1, "a hit publishes nothing");
        assert_coherent(handle);
    })
    .expect("server starts");
    assert_eq!(outcome.metrics.rounds, 1);
    assert_eq!(outcome.metrics.cache_hit_queries, 1);
}

/// (b) A cold miss still holds the window: a same-slot request submitted
/// ~50 ms after the first joins the same shared round.
#[test]
fn cold_miss_still_coalesces_stragglers_over_the_window() {
    let f = fixture();
    let e = engine(&f);
    let outcome = serve(&e, &world(&f), &config(WINDOW, 1), |handle| {
        let first = handle.submit(request(41)).expect("admitted");
        std::thread::sleep(Duration::from_millis(50));
        let straggler = handle.submit(request(41)).expect("admitted");
        let (a, b) = (first.wait().expect("answered"), straggler.wait().expect("answered"));
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!((a.batch_size, b.batch_size), (2, 2), "the straggler must join the round");
        assert_eq!(a.generation, b.generation);
        assert_coherent(handle);
    })
    .expect("server starts");
    assert_eq!(outcome.metrics.rounds, 1, "one shared round for both");
}

/// (c) `max_staleness = 0` never takes the fast path: every request is a
/// miss that holds the window and advances the slot's generation.
#[test]
fn zero_staleness_never_takes_the_fast_path() {
    let f = fixture();
    let e = engine(&f);
    let window = Duration::from_millis(100);
    serve(&e, &world(&f), &config(window, 1), |handle| {
        for expected in 1..=3u64 {
            let answer =
                handle.query(request(42).with_max_staleness(Duration::ZERO)).expect("answered");
            assert!(!answer.cache_hit);
            assert_eq!(answer.generation, expected, "every request recomputes");
            assert!(answer.wait >= window, "a miss holds the window: {:?}", answer.wait);
            assert_eq!(handle.cache_generation(SlotOfDay(42)), expected);
            assert_coherent(handle);
        }
    })
    .expect("server starts");
}

/// (d) Mixed hits and forced misses on two slots from two workers: a
/// poller sees `rounds == Σ generations` on every coherent snapshot.
#[test]
fn coherent_snapshot_holds_across_hits_and_misses() {
    let f = fixture();
    let e = engine(&f);
    let done = AtomicBool::new(false);
    let outcome = serve(&e, &world(&f), &config(Duration::from_millis(20), 2), |handle| {
        std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut snapshots = 0usize;
                while !done.load(Ordering::Acquire) {
                    assert_coherent(handle);
                    snapshots += 1;
                }
                snapshots
            });
            for i in 0..12u16 {
                let slot = 43 + i % 2;
                let req = if i % 3 == 0 {
                    request(slot).with_max_staleness(Duration::ZERO)
                } else {
                    request(slot)
                };
                handle.query(req).expect("answered");
            }
            done.store(true, Ordering::Release);
            let snapshots = poller.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            assert!(snapshots > 0);
        });
        assert_coherent(handle);
    })
    .expect("server starts");
    let m = outcome.metrics;
    assert_eq!(m.answered, 12);
    assert!(m.cache_hit_queries > 0, "fresh requests must hit");
    assert!(m.rounds >= 4, "forced misses recompute: {} rounds", m.rounds);
}
