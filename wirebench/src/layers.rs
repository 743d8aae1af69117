//! The traced run's per-layer phases. Each times the named public call
//! of one layer on the workload's own inputs; the benchmark records the
//! spans, not the program.
//!
//! * [`serve_phase`] — the same schedule submitted in-process to
//!   `rtse-serve` (no socket), for the serving layer's latency and
//!   counters and, against the wire run, the edge's overhead.
//! * [`replay_phase`] — one engine round per scheduled query, timed once
//!   as `CrowdRtse::answer_query_warm` and once composed from the layers'
//!   calls (`corr_table` → `covered_roads` → `select_roads` →
//!   `CrowdCampaign::run` → `GspSolver::propagate`), checked bit-identical,
//!   plus the offline calls (cold Γ builds, one Dijkstra per source).
//! * [`wire_spans`] — the traced wire run's request spans and the frame
//!   codec, timed on every query and answer frame of the run.

use crate::stats::{ms, Summary};
use crate::trace::Trace;
use crate::wire::{Reply, WireRun};
use crate::workload::{Req, Spec, World, BUDGET};
use crowd_rtse_core::SpeedQuery;
use rtse_data::SlotOfDay;
use rtse_edge::frame::{decode_frame, encode_frame, DecodeLimits, Frame, QueryFrame};
use rtse_graph::RoadId;
use rtse_rtf::{CorrTable, RtfModel};
use rtse_serve::{serve, MetricsSnapshot, ServeRequest};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Replayed rounds aimed for: enough for a p99 with ten samples beyond.
const REPLAY_ROUNDS: usize = 1200;
/// Sources timed for `graph.dijkstra_us`.
const DIJKSTRA_SOURCES: usize = 200;
/// The replay's child spans must cover the engine round to within this
/// share (median over rounds).
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// The in-process serving run.
pub struct ServePhase {
    /// Submit → answer latency of the measured requests, ms (the serving
    /// layer's own stamp, `ServedAnswer::wait`).
    pub latency: Summary,
    /// Counters after the drain.
    pub metrics: MetricsSnapshot,
    /// Requests that were rejected or failed.
    pub errors: usize,
}

/// Submits `schedule` in-process at its due times from one thread while
/// a second waits the tickets.
pub fn serve_phase(spec: &Spec, world: &World, model: &RtfModel, schedule: &[Req]) -> ServePhase {
    let engine = spec.engine_from(world, model.clone());
    let sworld = world.serve_world();
    let (config, _) = spec.deployment();
    let served = serve(&engine, &sworld, &config, |handle| {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let waiter = scope.spawn(move || {
                let mut waits = Vec::with_capacity(schedule.len());
                let mut errors = 0;
                for (measured, ticket) in rx {
                    match rtse_serve::Ticket::wait(ticket) {
                        Ok(answer) if measured => waits.push(ms(answer.wait)),
                        Ok(_) => {}
                        Err(_) => errors += 1,
                    }
                }
                (waits, errors)
            });
            let epoch = Instant::now();
            let mut rejected = 0;
            for req in schedule {
                let due = epoch + req.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut request = ServeRequest::new(
                    req.roads.iter().map(|&r| RoadId(r)).collect(),
                    SlotOfDay(req.slot),
                );
                request.max_staleness =
                    req.max_staleness_ms.map(|m| Duration::from_millis(u64::from(m)));
                match handle.submit(request) {
                    Ok(ticket) => {
                        let _ = tx.send((req.measured, ticket));
                    }
                    Err(_) => rejected += 1,
                }
            }
            drop(tx);
            let (waits, errors) = waiter.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            (waits, errors + rejected)
        })
    });
    match served {
        Ok(outcome) => {
            let (waits, errors) = outcome.value;
            ServePhase { latency: Summary::of(&waits), metrics: outcome.metrics, errors }
        }
        Err(e) => {
            eprintln!("wirebench: in-process deployment failed: {e}");
            ServePhase {
                latency: Summary::of(&[]),
                metrics: MetricsSnapshot::default(),
                errors: schedule.len(),
            }
        }
    }
}

/// What the round replay found.
pub struct Replay {
    /// Rounds replayed.
    pub rounds: usize,
    /// Rounds whose composed result differed from `answer_query_warm`.
    pub mismatches: usize,
    /// Observations over selected roads, summed over rounds.
    pub answer_frac: f64,
    /// Mean `Selection::spent / K`.
    pub budget_frac: f64,
    /// Median `GspResult::rounds`.
    pub gsp_rounds: f64,
    /// Γ megabytes the deployment holds for the schedule's slots.
    pub corr_mb: f64,
    /// Median over rounds of (Σ child spans) / engine round.
    pub coverage: f64,
    /// Median over rounds of engine round − Σ child spans, ms.
    pub uncovered_ms: f64,
}

/// Replays the schedule's queries as engine rounds (cycling if needed)
/// until [`REPLAY_ROUNDS`] rounds or `budget` elapses, recording spans.
pub fn replay_phase(
    spec: &Spec,
    world: &World,
    model: &RtfModel,
    schedule: &[Req],
    budget: Duration,
    trace: &mut Trace,
) -> Replay {
    let engine = spec.engine_from(world, model.clone());
    let graph = &world.graph;
    let (config, _) = spec.deployment();
    let cfg = config.online;
    let mut built: BTreeSet<SlotOfDay> = BTreeSet::new();
    let mut table_bytes = Vec::new();
    let mut build = |slot: SlotOfDay, req: u64, trace: &mut Trace| {
        if built.insert(slot) {
            let table = trace
                .time("rtf.corr_build", None, req, || engine.offline().corr_table(graph, slot));
            table_bytes.push(match table.as_ref() {
                CorrTable::Dense(t) => t.num_roads() * t.num_roads() * std::mem::size_of::<f64>(),
                CorrTable::Sparse(t) => t.memory_bytes(),
            });
        }
    };
    for &slot in &spec.prewarm {
        build(slot, 0, trace);
    }

    let started = Instant::now();
    let (mut rounds, mut mismatches) = (0usize, 0usize);
    let (mut observed, mut selected, mut spent) = (0usize, 0usize, 0u64);
    let mut gsp_rounds = Vec::new();
    let mut coverage = Vec::new();
    let mut uncovered = Vec::new();
    for req in schedule.iter().cycle() {
        if rounds >= REPLAY_ROUNDS || (rounds > 0 && started.elapsed() >= budget) {
            break;
        }
        let id = rounds as u64 + 1;
        let slot = SlotOfDay(req.slot);
        build(slot, id, trace);
        let query = SpeedQuery::new(req.roads.iter().map(|&r| RoadId(r)).collect(), slot);
        let truth = world.dataset.ground_truth_snapshot(slot);
        let params = engine.offline().model().slot(slot);

        let engine_round = |trace: &mut Trace| {
            let span = trace.open("engine.round", None, id);
            let answer =
                engine.answer_query_warm(&query, &world.pool, &world.costs, truth, &cfg, None);
            trace.close(span);
            (answer, trace.spans()[span].duration())
        };
        let replay_round = |trace: &mut Trace| {
            let root = trace.open("replay.round", None, id);
            let corr = trace.time("rtf.corr_fetch", Some(root), id, || {
                engine.offline().corr_table(graph, slot)
            });
            black_box(corr);
            let candidates =
                trace.time("crowd.covered", Some(root), id, || world.pool.covered_roads());
            let selection = trace.time("ocs.select", Some(root), id, || {
                engine.select_roads(&query, &candidates, &world.costs, &cfg)
            });
            let outcome = trace.time("crowd.campaign", Some(root), id, || {
                cfg.campaign.run(&world.pool, &selection.roads, &world.costs, truth)
            });
            let result = trace.time("gsp.propagate", Some(root), id, || {
                cfg.gsp.propagate(graph, params, &outcome.observations)
            });
            trace.close(root);
            let children: Duration = trace.spans()[root + 1..].iter().map(|s| s.duration()).sum();
            (selection, outcome, result, children)
        };
        // Alternate which goes first so neither always finds warm caches.
        let ((answer, engine_time), (selection, outcome, result, children)) = if rounds % 2 == 0 {
            let a = engine_round(trace);
            (a, replay_round(trace))
        } else {
            let r = replay_round(trace);
            (engine_round(trace), r)
        };

        let identical = answer.selection.roads == selection.roads
            && answer.observations == outcome.observations
            && answer.all_values.len() == result.values.len()
            && answer
                .all_values
                .iter()
                .zip(&result.values)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        mismatches += usize::from(!identical);
        observed += outcome.observations.len();
        selected += selection.roads.len();
        spent += u64::from(selection.spent);
        gsp_rounds.push(result.rounds as f64);
        coverage.push(children.as_secs_f64() / engine_time.as_secs_f64().max(1e-12));
        uncovered.push(ms(engine_time) - ms(children));
        rounds += 1;
    }

    time_dijkstra(
        world,
        model,
        spec.prewarm.first().copied().unwrap_or(SlotOfDay(schedule[0].slot)),
        trace,
    );

    let schedule_slots: BTreeSet<u16> = schedule.iter().map(|r| r.slot).collect();
    let per_slot_bytes = table_bytes.iter().sum::<usize>() as f64 / table_bytes.len().max(1) as f64;
    Replay {
        rounds,
        mismatches,
        answer_frac: observed as f64 / selected.max(1) as f64,
        budget_frac: spent as f64 / (rounds.max(1) as f64 * f64::from(BUDGET)),
        gsp_rounds: Summary::of(&gsp_rounds).p50,
        corr_mb: per_slot_bytes * schedule_slots.len() as f64 / (1024.0 * 1024.0),
        coverage: Summary::of(&coverage).p50,
        uncovered_ms: Summary::of(&uncovered).p50,
    }
}

/// Times `rtse_graph::dijkstra` from evenly spaced sources on `slot`'s
/// Eq. (8)–(10) max-product weights (`−ln ρ`, infinite for `ρ ≤ 0`), the
/// search one dense Γ row runs.
fn time_dijkstra(world: &World, model: &RtfModel, slot: SlotOfDay, trace: &mut Trace) {
    let rho = &model.slot(slot).rho;
    let n = world.graph.num_roads();
    let weight = |e: rtse_graph::EdgeId| {
        let r = rho[e.index()];
        if r > 0.0 {
            -r.ln()
        } else {
            f64::INFINITY
        }
    };
    for k in 0..DIJKSTRA_SOURCES.min(n) {
        let source = RoadId::from(k * n / DIJKSTRA_SOURCES.min(n));
        let paths = trace.time("graph.dijkstra", None, k as u64, || {
            rtse_graph::dijkstra(&world.graph, source, weight)
        });
        black_box(paths);
    }
}

/// The traced wire run's spans, re-rooted per request: a `wire.request`
/// span from due time to answer, parenting that request's `gen.encode` and
/// `gen.decode` spans; plus one `edge.codec` span per request timing the
/// frame codec on its query and its answer (encode and decode each).
pub fn wire_spans(run: &WireRun, schedule: &[Req], out: &mut Trace) {
    let mut roots = vec![None; schedule.len()];
    for (i, (req, reply)) in schedule.iter().zip(&run.replies).enumerate() {
        if let Reply::Answer { at, .. } = reply {
            roots[i] =
                Some(out.record("wire.request", None, i as u64 + 1, run.epoch + req.due, *at));
        }
    }
    if let Some(gen) = &run.trace {
        for s in gen.spans() {
            let root = usize::try_from(s.req)
                .ok()
                .and_then(|id| id.checked_sub(1))
                .and_then(|i| roots.get(i).copied().flatten());
            let at = |d: Duration| run.epoch + d;
            out.record(s.name, root, s.req, at(s.start), at(s.end));
        }
    }
    let limits = DecodeLimits::for_max_roads(rtse_edge::MAX_ROADS_PER_QUERY);
    let mut wire = Vec::with_capacity(1024);
    for (i, (req, reply)) in schedule.iter().zip(&run.replies).enumerate() {
        let Reply::Answer { frame, .. } = reply else { continue };
        let query = Frame::Query(QueryFrame {
            request_id: i as u64 + 1,
            deadline_ms: None,
            max_staleness_ms: req.max_staleness_ms,
            slot: req.slot,
            roads: req.roads.clone(),
        });
        let answer = Frame::Answer(frame.clone());
        out.time("edge.codec", roots[i], i as u64 + 1, || {
            for f in [&query, &answer] {
                wire.clear();
                encode_frame(f, &mut wire);
                black_box(decode_frame(black_box(&wire), limits).ok());
            }
        });
    }
}

/// p50 of the spans named `name`, in microseconds.
pub fn p50_us(trace: &Trace, name: &str) -> f64 {
    Summary::of(&trace.durations(name)).p50 * 1e6
}

/// Median and tail of the spans named `name`, in milliseconds.
pub fn summary_ms(trace: &Trace, name: &str) -> Summary {
    let ms: Vec<f64> = trace.durations(name).iter().map(|s| s * 1e3).collect();
    Summary::of(&ms)
}
