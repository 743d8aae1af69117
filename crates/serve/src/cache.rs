//! The per-slot answer cache.
//!
//! GSP's output covers the whole network, so one shared round answers
//! every road anyone asks about in that slot. The cache stores that round
//! per slot with a generation counter and a computation timestamp, and
//! coalesces duplicate rebuilds the same way `core::offline` coalesces
//! correlation-table builds: one lock per slot, held across the rebuild,
//! so concurrent cold callers of the *same* slot share a single build
//! while other slots stay unblocked (no head-of-line blocking).
//!
//! Unlike the offline `OnceLock` cache, entries here age out: serving
//! answers are staleness-bounded, so a hit requires the cached round to be
//! younger than the caller's freshness requirement.

use crate::coherence::Coherence;
use rtse_data::{SlotOfDay, SLOTS_PER_DAY};
use rtse_graph::RoadId;
use rtse_sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What a compute closure produces: the published full-network values
/// plus the crowd observations that produced them. The cache keeps the
/// pair together so the *next* recompute of the same slot can seed a
/// delta propagation from it (`compute` receives the stale entry).
#[derive(Debug, Clone, Default)]
pub struct RoundData {
    /// Full-network estimate (one value per road) — GSP's `all_values`.
    pub values: Vec<f64>,
    /// The crowd observations the round propagated.
    pub observations: Vec<(RoadId, f64)>,
}

/// One computed slot round, shared by every waiter it answers.
#[derive(Debug)]
pub struct CachedRound {
    /// Full-network estimate (one value per road) — GSP's `all_values`.
    pub values: Vec<f64>,
    /// The crowd observations that produced `values` (the delta seed for
    /// the slot's next recompute).
    pub observations: Vec<(RoadId, f64)>,
    /// Which rebuild of this slot produced the round (1 = first).
    pub generation: u64,
    /// When the round finished computing; ages the entry.
    pub computed_at: Instant,
}

/// What a cache lookup produced.
#[derive(Debug, Clone)]
pub struct CacheOutcome {
    /// The round that answers the caller.
    pub round: Arc<CachedRound>,
    /// Whether the round was served from cache (false = computed by this
    /// call, or by a concurrent call this one coalesced into).
    pub hit: bool,
}

struct CacheCell {
    generation: u64,
    round: Option<Arc<CachedRound>>,
}

impl CacheCell {
    /// The cached round if it is younger than `max_age`: the one
    /// freshness rule every lookup applies.
    fn fresh(&self, max_age: Duration) -> Option<&Arc<CachedRound>> {
        self.round.as_ref().filter(|round| round.computed_at.elapsed() <= max_age)
    }
}

/// Slot-keyed answer cache with TTL/staleness bounds and generation
/// counters.
pub struct AnswerCache {
    cells: Vec<Mutex<CacheCell>>,
}

fn lock_cell<'m>(cell: &'m Mutex<CacheCell>) -> MutexGuard<'m, CacheCell> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for AnswerCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnswerCache {
    /// An empty cache covering every slot of the day.
    pub fn new() -> Self {
        Self {
            cells: (0..SLOTS_PER_DAY)
                .map(|_| Mutex::new(CacheCell { generation: 0, round: None }))
                .collect(),
        }
    }

    /// The slot's cached round when it is younger than `max_age`, else
    /// `None` (never computed, expired, or an out-of-range slot).
    ///
    /// A read-only probe: it takes the slot lock once, never computes and
    /// never publishes. The serving loop calls it at pickup so a fresh hit
    /// is answered without holding its batch open. It blocks while a
    /// same-slot recompute holds the lock, then sees the new round.
    pub fn fresh(&self, slot: SlotOfDay, max_age: Duration) -> Option<Arc<CachedRound>> {
        lock_cell(self.cells.get(slot.index())?).fresh(max_age).cloned()
    }

    /// Returns the slot's cached round when it is younger than `max_age`,
    /// otherwise computes a new generation via `compute` and caches it.
    ///
    /// `compute` receives the new generation number and the **stale
    /// previous entry** of the same slot, if one exists — the warm-start
    /// seed for delta re-propagation. A fresh slot (including the first
    /// round after a rollover: cells are per-slot) passes `None`, so a
    /// stale fixed point can never seed a different slot's round.
    ///
    /// The slot's lock is held across `compute`, so concurrent callers of
    /// one cold slot coalesce into a single build (late arrivals block,
    /// then hit the freshly cached round); callers of other slots proceed
    /// unblocked in parallel.
    ///
    /// A compute error is returned to the caller and leaves the previous
    /// entry (if any) in place; the generation counter only advances on
    /// success.
    ///
    /// Slots outside `0..288` never cache (the server rejects them at
    /// admission; this path computes-through defensively, always without
    /// a seed).
    pub fn round_for<E>(
        &self,
        slot: SlotOfDay,
        max_age: Duration,
        compute: impl FnOnce(u64, Option<&CachedRound>) -> Result<RoundData, E>,
    ) -> Result<CacheOutcome, E> {
        self.round_for_published(slot, max_age, &Coherence::new(), compute, || {})
    }

    /// [`Self::round_for`] with coherent publication: on a successful
    /// compute, the generation store and the caller's `publish` side
    /// effect run inside one [`Coherence::write`] section, so a
    /// [`Coherence::read`] over the cache's generations plus whatever
    /// `publish` updates (the serving layer's `rounds` counter) sees the
    /// pair move in lockstep — never the torn half-state where one has
    /// advanced and the other has not.
    ///
    /// `publish` runs only when `compute` succeeds. For out-of-range
    /// slots (which never cache) it still runs, inside a write section of
    /// its own, but no generation advances — callers relying on the
    /// `Σ generations == rounds` invariant must reject such slots before
    /// computing, as the server's admission path does.
    pub fn round_for_published<E>(
        &self,
        slot: SlotOfDay,
        max_age: Duration,
        coherence: &Coherence,
        compute: impl FnOnce(u64, Option<&CachedRound>) -> Result<RoundData, E>,
        publish: impl FnOnce(),
    ) -> Result<CacheOutcome, E> {
        let Some(cell) = self.cells.get(slot.index()) else {
            let data = compute(1, None)?;
            coherence.write(publish);
            let round = Arc::new(CachedRound {
                values: data.values,
                observations: data.observations,
                generation: 1,
                computed_at: Instant::now(),
            });
            return Ok(CacheOutcome { round, hit: false });
        };
        let mut cell = lock_cell(cell);
        if let Some(round) = cell.fresh(max_age) {
            return Ok(CacheOutcome { round: Arc::clone(round), hit: true });
        }
        let generation = cell.generation + 1;
        // The expired entry stays in place until the recompute succeeds —
        // and doubles as its warm-start seed (same slot by construction).
        let data = compute(generation, cell.round.as_deref())?;
        coherence.write(|| {
            cell.generation = generation;
            publish();
        });
        let round = Arc::new(CachedRound {
            values: data.values,
            observations: data.observations,
            generation,
            computed_at: Instant::now(),
        });
        cell.round = Some(Arc::clone(&round));
        Ok(CacheOutcome { round, hit: false })
    }

    /// The slot's current generation (0 = never computed). Diagnostics.
    pub fn generation(&self, slot: SlotOfDay) -> u64 {
        self.cells.get(slot.index()).map_or(0, |cell| lock_cell(cell).generation)
    }

    /// Every slot's generation, in slot order. A bare call can tear
    /// against the rounds counter; read it inside the same
    /// [`Coherence::read`] the writers publish under for the lockstep
    /// guarantee (that is what `ServerHandle::coherent_snapshot` does).
    pub fn generations(&self) -> Vec<u64> {
        self.cells.iter().map(|cell| lock_cell(cell).generation).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn ok(
        values: Vec<f64>,
    ) -> impl FnOnce(u64, Option<&CachedRound>) -> Result<RoundData, Infallible> {
        move |_, _| Ok(RoundData { values, observations: vec![] })
    }

    #[test]
    fn fresh_entries_hit_and_share_the_arc() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(7);
        let first =
            cache.round_for(slot, Duration::from_secs(60), ok(vec![1.0, 2.0])).expect("infallible");
        assert!(!first.hit);
        assert_eq!(first.round.generation, 1);
        let second =
            cache.round_for(slot, Duration::from_secs(60), ok(vec![9.0, 9.0])).expect("infallible");
        assert!(second.hit, "fresh entry must hit");
        assert!(Arc::ptr_eq(&first.round, &second.round));
        assert_eq!(cache.generation(slot), 1);
    }

    #[test]
    fn fresh_probe_reads_without_computing() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(9);
        let ttl = Duration::from_secs(60);
        assert!(cache.fresh(slot, ttl).is_none(), "an empty cell has nothing fresh");
        let first = cache.round_for(slot, ttl, ok(vec![1.0])).expect("infallible");
        let probed = cache.fresh(slot, ttl).expect("a just-computed round is fresh");
        assert!(Arc::ptr_eq(&first.round, &probed));
        std::thread::sleep(Duration::from_millis(2));
        assert!(cache.fresh(slot, Duration::from_millis(1)).is_none(), "expired rounds miss");
        assert!(cache.fresh(SlotOfDay(999), ttl).is_none());
        assert_eq!(cache.generation(slot), 1, "the probe never publishes");
    }

    #[test]
    fn zero_max_age_forces_a_new_generation() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(3);
        let a = cache.round_for(slot, Duration::ZERO, ok(vec![1.0])).expect("infallible");
        let b = cache.round_for(slot, Duration::ZERO, ok(vec![2.0])).expect("infallible");
        assert!(!a.hit && !b.hit);
        assert_eq!(b.round.generation, 2);
        assert_eq!(b.round.values, vec![2.0]);
    }

    #[test]
    fn slots_age_independently() {
        let cache = AnswerCache::new();
        cache.round_for(SlotOfDay(0), Duration::ZERO, ok(vec![1.0])).expect("infallible");
        let other =
            cache.round_for(SlotOfDay(1), Duration::from_secs(60), ok(vec![2.0])).expect("ok");
        assert_eq!(other.round.generation, 1);
        assert_eq!(cache.generation(SlotOfDay(0)), 1);
        assert_eq!(cache.generation(SlotOfDay(2)), 0);
    }

    #[test]
    fn recompute_receives_the_stale_round_as_seed() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(11);
        let first = cache
            .round_for(slot, Duration::ZERO, |_, stale| {
                assert!(stale.is_none(), "a fresh slot has no seed");
                Ok::<_, Infallible>(RoundData {
                    values: vec![3.0],
                    observations: vec![(RoadId(0), 3.0)],
                })
            })
            .expect("infallible");
        assert_eq!(first.round.observations, vec![(RoadId(0), 3.0)]);
        let second = cache
            .round_for(slot, Duration::ZERO, |_, stale| {
                let stale = stale.expect("expired entry must be offered as the seed");
                assert_eq!(stale.generation, 1);
                assert_eq!(stale.values, vec![3.0]);
                assert_eq!(stale.observations, vec![(RoadId(0), 3.0)]);
                Ok::<_, Infallible>(RoundData { values: vec![4.0], observations: vec![] })
            })
            .expect("infallible");
        assert_eq!(second.round.generation, 2);
        // Different slots never share a seed: the cells are per-slot.
        cache
            .round_for(SlotOfDay(12), Duration::ZERO, |_, stale| {
                assert!(stale.is_none(), "seeds must never cross slots");
                Ok::<_, Infallible>(RoundData { values: vec![5.0], observations: vec![] })
            })
            .expect("infallible");
    }

    #[test]
    fn compute_errors_do_not_advance_the_generation() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(5);
        let err: Result<CacheOutcome, &str> =
            cache.round_for(slot, Duration::ZERO, |_, _| Err("no"));
        assert_eq!(err.err(), Some("no"));
        assert_eq!(cache.generation(slot), 0);
        let after = cache.round_for(slot, Duration::ZERO, ok(vec![4.0])).expect("infallible");
        assert_eq!(after.round.generation, 1);
    }

    #[test]
    fn out_of_range_slots_compute_through_without_caching() {
        let cache = AnswerCache::new();
        let bogus = SlotOfDay(999);
        let a = cache.round_for(bogus, Duration::from_secs(60), ok(vec![1.0])).expect("ok");
        let b = cache.round_for(bogus, Duration::from_secs(60), ok(vec![2.0])).expect("ok");
        assert!(!a.hit && !b.hit);
        assert_eq!(b.round.values, vec![2.0]);
        assert_eq!(cache.generation(bogus), 0);
    }

    /// The offline-cache coalescing property, generation-aware: concurrent
    /// cold builds of one slot run `compute` exactly once; late arrivals
    /// block on the slot lock and then hit.
    #[test]
    fn concurrent_cold_builds_coalesce() {
        let cache = AnswerCache::new();
        let slot = SlotOfDay(42);
        let builds = AtomicUsize::new(0);
        let racers = 4;
        let start = Barrier::new(racers);
        let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..racers)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache
                            .round_for(slot, Duration::from_secs(60), |generation, _| {
                                builds.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(20));
                                Ok::<_, Infallible>(RoundData {
                                    values: vec![generation as f64],
                                    observations: vec![],
                                })
                            })
                            .expect("infallible")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "duplicate builds must coalesce");
        assert_eq!(outcomes.iter().filter(|o| !o.hit).count(), 1);
        for o in &outcomes[1..] {
            assert!(Arc::ptr_eq(&outcomes[0].round, &o.round));
        }
    }

    /// The coherent-publication contract: with writers publishing through
    /// [`AnswerCache::round_for_published`], a [`Coherence::read`] over
    /// (rounds, Σ generations) sees the pair in lockstep at every instant,
    /// even while rounds complete concurrently on several slots.
    #[test]
    fn published_rounds_and_generations_never_tear() {
        let cache = AnswerCache::new();
        let rounds = AtomicUsize::new(0);
        let gate = Coherence::new();
        let writers = 4usize;
        let per_writer = 40usize;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let cache = &cache;
                let rounds = &rounds;
                let gate = &gate;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let slot = SlotOfDay(((w * 71 + i * 13) % 288) as u16);
                        cache
                            .round_for_published(slot, Duration::ZERO, gate, ok(vec![1.0]), || {
                                rounds.fetch_add(1, Ordering::Relaxed);
                            })
                            .expect("infallible");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..200 {
                    let (r, g) = gate.read(|| {
                        (
                            rounds.load(Ordering::Relaxed),
                            cache.generations().iter().sum::<u64>() as usize,
                        )
                    });
                    assert_eq!(r, g, "rounds and generations tore apart");
                }
            });
        });
        assert_eq!(rounds.load(Ordering::SeqCst), writers * per_writer);
        assert_eq!(
            cache.generations().iter().sum::<u64>() as usize,
            writers * per_writer,
            "every published round advances exactly one slot generation"
        );
    }
}
