//! The three workloads: what world each deploys, how it is configured,
//! and the seeded open-loop schedule that drives it.
//!
//! Every deployment knob is a constant here, so nothing in the process
//! environment can change what a run measures.

use crowd_rtse_core::{CorrSubstrate, CrowdRtse, OfflineArtifacts, OnlineConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthDataset, TrafficGenerator, SLOTS_PER_DAY};
use rtse_edge::EdgeConfig;
use rtse_graph::{generators, Graph};
use rtse_obs::ObsHandle;
use rtse_rtf::{moment_estimate, SparseCorrConfig};
use rtse_serve::{ServeConfig, ServeWorld};
use std::time::Duration;

/// Compute threads every process of a run is pinned to (`RTSE_THREADS`).
pub const RTSE_THREADS: usize = 2;
/// Serving worker loops.
pub const SERVE_WORKERS: usize = 2;
/// Edge listener shards.
pub const EDGE_SHARDS: usize = 1;
/// Crowdsourcing budget `K`.
pub const BUDGET: u32 = 30;
/// Redundancy threshold `θ`.
pub const THETA: f64 = 0.92;
/// Most roads one query names: the paper's `|R^q| = 33`.
pub const MAX_QUERY_ROADS: usize = 33;
/// Requests before the measured window: they connect, fill the
/// per-slot answer caches and let the first rounds finish.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Setups per measured server process; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Seed of every workload's world (network, history, crowd, costs and
/// queried roads): the repository's experiment seed. `--seed` draws the
/// traffic, so run-to-run spread measures the program, not the world.
pub const WORLD_SEED: u64 = 2018;
/// A run is invalid when the generator's own p99 send lateness exceeds
/// this share of the workload's latency limit. The generator runs under
/// `SCHED_FIFO` and sends within a tenth of a millisecond of its due
/// time, so lateness beyond this means the host stopped the guest.
pub const MAX_LATE_SHARE: f64 = 0.1;

/// Where `cold_slots` starts its walk: 06:00, so a run walks the
/// morning ramp whatever its seed.
pub const WALK_START: SlotOfDay = SlotOfDay(72);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The answer-cache read path.
    HotCache,
    /// The full OCS → crowd → GSP round on every query.
    FreshRounds,
    /// The lazy per-slot Γ build and cache fill.
    ColdSlots,
}

/// Everything fixed about one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Roads in the generated network.
    pub roads: usize,
    /// Days of generated history.
    pub days: usize,
    /// Γ substrate.
    pub substrate: CorrSubstrate,
    /// Slots whose Γ is built before the edge accepts.
    pub prewarm: Vec<SlotOfDay>,
    /// Offered rate, requests per second.
    pub rate_qps: f64,
    /// Latency limit of `slo_frac`, milliseconds.
    pub limit_ms: f64,
    /// `max_staleness_ms` every query carries.
    pub max_staleness_ms: Option<u32>,
    /// Consecutive-slot walk: queries per slot, or `None` for the four
    /// representative slots drawn uniformly.
    pub per_slot: Option<usize>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::HotCache, Workload::FreshRounds, Workload::ColdSlots];

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's fixed settings.
    pub fn spec(self) -> Spec {
        match self {
            Workload::HotCache => Spec {
                name: "hot_cache",
                roads: rtse_bench::PAPER_ROADS,
                days: rtse_bench::PAPER_DAYS,
                substrate: CorrSubstrate::Dense,
                prewarm: rtse_bench::query_slots(),
                rate_qps: 500.0,
                limit_ms: 20.0,
                max_staleness_ms: None,
                per_slot: None,
            },
            Workload::FreshRounds => Spec {
                name: "fresh_rounds",
                roads: 5000,
                days: 7,
                substrate: CorrSubstrate::Sparse(SparseCorrConfig::default()),
                prewarm: rtse_bench::query_slots(),
                rate_qps: 60.0,
                limit_ms: 50.0,
                max_staleness_ms: Some(0),
                per_slot: None,
            },
            Workload::ColdSlots => Spec {
                name: "cold_slots",
                roads: rtse_bench::PAPER_ROADS,
                days: rtse_bench::PAPER_DAYS,
                substrate: CorrSubstrate::Dense,
                prewarm: Vec::new(),
                rate_qps: 60.0,
                limit_ms: 150.0,
                max_staleness_ms: None,
                per_slot: Some(40),
            },
        }
    }
}

impl Spec {
    /// The serving and edge configuration of this workload's deployment,
    /// built from `Default` and never from the environment.
    pub fn deployment(&self) -> (ServeConfig, EdgeConfig) {
        let serve = ServeConfig {
            workers: SERVE_WORKERS,
            prewarm_slots: self.prewarm.clone(),
            online: OnlineConfig { budget: BUDGET, theta: THETA, ..OnlineConfig::default() },
            obs: ObsHandle::noop(),
            ..ServeConfig::default()
        };
        let edge = EdgeConfig {
            shards: EDGE_SHARDS,
            max_roads_per_query: MAX_QUERY_ROADS as u32,
            prewarm: None,
            obs: ObsHandle::noop(),
            ..EdgeConfig::default()
        };
        (serve, edge)
    }

    /// The knobs as a JSON object, for the run's stamp.
    pub fn knobs_json(&self) -> String {
        let (serve, edge) = self.deployment();
        let substrate = match self.substrate {
            CorrSubstrate::Dense => "dense".to_string(),
            CorrSubstrate::Sparse(c) => format!("sparse(floor={}, top_k={:?})", c.floor, c.top_k),
        };
        format!(
            "{{\"roads\": {}, \"days\": {}, \"substrate\": \"{substrate}\", \"prewarm_slots\": {}, \
             \"rate_qps\": {}, \"limit_ms\": {}, \"max_staleness_ms\": {}, \"per_slot\": {}, \
             \"batch_window_ms\": {}, \"workers\": {}, \"shards\": {}, \"queue_depth\": {}, \
             \"ttl_s\": {}, \"budget\": {}, \"theta\": {}, \"rtse_threads\": {RTSE_THREADS}, \
             \"setup_reps\": {SETUP_REPS}, \"warmup_s\": {}, \"max_late_share\": {MAX_LATE_SHARE}}}",
            self.roads,
            self.days,
            self.prewarm.len(),
            self.rate_qps,
            self.limit_ms,
            self.max_staleness_ms.map_or("null".to_string(), |v| v.to_string()),
            self.per_slot.map_or("null".to_string(), |v| v.to_string()),
            serve.batch_window.as_secs_f64() * 1e3,
            serve.workers,
            edge.shards,
            serve.queue_depth,
            serve.ttl.as_secs_f64(),
            serve.online.budget,
            serve.online.theta,
            WARMUP.as_secs_f64(),
        )
    }

    /// The offline stage: fits the RTF and wraps it with this workload's
    /// Γ substrate. This (plus the Γ prewarm and the edge bind) is what
    /// `setup_s` times.
    pub fn engine<'g>(&self, world: &'g World) -> CrowdRtse<'g> {
        let model = moment_estimate(&world.graph, &world.dataset.history);
        self.engine_from(world, model)
    }

    /// [`Self::engine`] from an already fitted model.
    pub fn engine_from<'g>(&self, world: &'g World, model: rtse_rtf::RtfModel) -> CrowdRtse<'g> {
        let offline = OfflineArtifacts::from_model(model).with_substrate(self.substrate);
        CrowdRtse::new(&world.graph, offline)
    }
}

/// The generated inputs of one run: what the server is given.
pub struct World {
    /// The road network.
    pub graph: Graph,
    /// History (the server fits on it) and today's ground truth (what the
    /// simulated crowd measures, and what answers are scored against).
    pub dataset: SynthDataset,
    /// Per-road answer costs, `C2 = U(1, 5)`.
    pub costs: Vec<u32>,
    /// The crowd, one worker per two roads.
    pub pool: WorkerPool,
}

impl World {
    /// Generates the world for `spec` from [`WORLD_SEED`] with the recipe
    /// of `rtse_bench::semi_syn_world`, minus its model fit (the fit is
    /// set-up work and is timed separately).
    pub fn generate(spec: &Spec) -> Self {
        let seed = WORLD_SEED;
        let graph = generators::hong_kong_like(spec.roads, seed);
        let dataset = TrafficGenerator::new(&graph, rtse_data::scenario::volatile(spec.days, seed))
            .generate();
        let costs = uniform_costs(spec.roads, CostRange::C2, seed ^ 0xC2);
        let pool = WorkerPool::spawn(&graph, spec.roads / 2, 0.5, (0.3, 1.0), seed ^ 0x5EED);
        Self { graph, dataset, costs, pool }
    }

    /// The serving layer's view of the world.
    pub fn serve_world(&self) -> ServeWorld<'_> {
        ServeWorld { workers: &self.pool, costs: &self.costs, truth: &self.dataset }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, from the schedule's start.
    pub due: Duration,
    /// Queried slot.
    pub slot: u16,
    /// Queried roads, sorted and distinct (the server's canonical order).
    pub roads: Vec<u32>,
    /// Freshness budget.
    pub max_staleness_ms: Option<u32>,
    /// Inside the measured window (after [`WARMUP`]).
    pub measured: bool,
}

/// The seeded open-loop schedule: a Poisson process at the workload's
/// rate, conditioned on its count so every run of a workload offers the
/// same number of requests (`rate × (warmup + seconds)`; given the count,
/// Poisson arrival times are independent uniform draws over the span).
///
/// Each query names a uniform non-empty subset of the workload's queried
/// road set `R^q` ([`queried_roads`]), except that a slot's first query
/// names all of it. `cold_slots` walks consecutive slots from
/// [`WALK_START`]; the others draw one of the four representative slots.
pub fn schedule(spec: &Spec, seed: u64, seconds: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let mut dues = Vec::new();
    for (start, span, measured) in
        [(Duration::ZERO, WARMUP, false), (WARMUP, Duration::from_secs(seconds), true)]
    {
        let count = (spec.rate_qps * span.as_secs_f64()).round() as usize;
        let mut window: Vec<Duration> =
            (0..count).map(|_| start + span.mul_f64(rng.random_range(0.0..1.0))).collect();
        window.sort();
        dues.extend(window.into_iter().map(|d| (d, measured)));
    }
    let slots = rtse_bench::query_slots();
    let queried = queried_roads(spec);
    let mut seen = [false; SLOTS_PER_DAY];
    dues.into_iter()
        .enumerate()
        .map(|(i, (due, measured))| {
            let slot = match spec.per_slot {
                Some(per_slot) => ((WALK_START.index() + i / per_slot) % SLOTS_PER_DAY) as u16,
                None => slots[rng.random_range(0..slots.len())].0,
            };
            // A slot's first query names all of R^q, so the round that
            // fills its cache is the same in every run.
            let roads = if std::mem::replace(&mut seen[usize::from(slot)], true) {
                let count = rng.random_range(1..=MAX_QUERY_ROADS);
                let mut roads: Vec<u32> = distinct(&mut rng, count, queried.len())
                    .into_iter()
                    .map(|i| queried[i as usize])
                    .collect();
                roads.sort_unstable();
                roads
            } else {
                queried.clone()
            };
            Req { due, slot, roads, max_staleness_ms: spec.max_staleness_ms, measured }
        })
        .collect()
}

/// The paper's queried road set: the 33 roads `rtse_bench::semi_syn_world`
/// draws as `queried_33` for the world seed, in ascending order.
pub fn queried_roads(spec: &Spec) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x9E);
    let mut roads = distinct(&mut rng, MAX_QUERY_ROADS, spec.roads);
    roads.sort_unstable();
    roads
}

/// `count` distinct values drawn uniformly from `0..below`.
fn distinct(rng: &mut StdRng, count: usize, below: usize) -> Vec<u32> {
    let mut picked: Vec<u32> = Vec::with_capacity(count);
    while picked.len() < count.min(below) {
        let value = rng.random_range(0..below) as u32;
        if !picked.contains(&value) {
            picked.push(value);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let spec = workload.spec();
            let a = schedule(&spec, 11, 2);
            assert_eq!(a, schedule(&spec, 11, 2), "{}", spec.name);
            assert_ne!(a, schedule(&spec, 12, 2), "{}", spec.name);
        }
    }

    #[test]
    fn schedule_offers_the_stated_load() {
        for workload in Workload::ALL {
            let spec = workload.spec();
            let reqs = schedule(&spec, 3, 2);
            let measured = reqs.iter().filter(|r| r.measured).count();
            assert_eq!(measured, (spec.rate_qps * 2.0).round() as usize, "{}", spec.name);
            assert_eq!(reqs.len() - measured, (spec.rate_qps * WARMUP.as_secs_f64()) as usize);
            assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due), "sorted dues");
            assert!(reqs.iter().all(|r| r.measured == (r.due >= WARMUP)));
            let queried: BTreeSet<u32> =
                reqs.iter().flat_map(|r| r.roads.iter().copied()).collect();
            assert!(queried.len() <= MAX_QUERY_ROADS, "queries draw from one R^q");
            for r in &reqs {
                assert!((1..=MAX_QUERY_ROADS).contains(&r.roads.len()));
                assert!(r.roads.windows(2).all(|w| w[0] < w[1]), "canonical roads");
                assert!(r.roads.iter().all(|&x| (x as usize) < spec.roads));
                assert!((r.slot as usize) < SLOTS_PER_DAY);
                assert_eq!(r.max_staleness_ms, spec.max_staleness_ms);
            }
        }
    }

    #[test]
    fn a_slots_first_query_names_all_of_the_queried_roads() {
        for workload in Workload::ALL {
            let spec = workload.spec();
            let mut seen = BTreeSet::new();
            for r in schedule(&spec, 9, 2) {
                if seen.insert(r.slot) {
                    assert_eq!(r.roads, queried_roads(&spec), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn cold_slots_walks_consecutive_slots() {
        let spec = Workload::ColdSlots.spec();
        let per_slot = spec.per_slot.expect("cold_slots walks slots");
        let reqs = schedule(&spec, 5, 2);
        assert_eq!(reqs[0].slot, WALK_START.0);
        for (i, pair) in reqs.windows(2).enumerate() {
            let step = (usize::from(pair[1].slot) + SLOTS_PER_DAY - usize::from(pair[0].slot))
                % SLOTS_PER_DAY;
            assert_eq!(step, usize::from((i + 1) % per_slot == 0));
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.spec().name), Some(workload));
        }
        assert_eq!(Workload::parse("warm"), None);
    }
}
