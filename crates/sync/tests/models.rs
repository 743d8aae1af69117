//! Loom models of the workspace's riskiest sync protocols.
//!
//! Each model mirrors the corresponding production code path statement
//! for statement — same primitives, same orderings — against shapes
//! small enough to explore exhaustively (2–3 threads, a handful of
//! operations). Compiled with `RUSTFLAGS="--cfg rtse_loom"`, `check`
//! explores every interleaving under the bounded-preemption explorer;
//! in a plain `cargo test` run the same code executes as a bounded
//! stress smoke over real OS threads (`loom-smoke`), so tier-1 CI still
//! exercises the protocols.
//!
//! | model | production code |
//! |---|---|
//! | seqlock write/read | `rtse-serve/src/coherence.rs` |
//! | cold-miss coalescing + coherent publication | `rtse-serve/src/cache.rs::round_for_published` |
//! | freshness probe racing a same-slot recompute | `rtse-serve/src/cache.rs::fresh` (called from `server.rs::fresh_round`) |
//! | once-per-slot build | `crates/core/src/offline.rs::corr_entry` |
//! | histogram record/merge | `rtse-obs/src/hist.rs` |

use rtse_sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use rtse_sync::{model, thread, Arc, Mutex, OnceLock, PoisonError};

/// Mirror of `rtse_serve::coherence::Coherence` (same orderings).
#[derive(Default)]
struct Coherence {
    seq: AtomicU64,
    writer: Mutex<()>,
}

impl Coherence {
    fn write<T>(&self, update: impl FnOnce() -> T) -> T {
        let _exclusive = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.seq.fetch_add(1, Ordering::AcqRel);
        let out = update();
        self.seq.fetch_add(1, Ordering::Release);
        out
    }

    fn read<T>(&self, mut load: impl FnMut() -> T) -> T {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                rtse_sync::hint::spin_loop();
                continue;
            }
            let out = load();
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return out;
            }
        }
    }
}

/// Protocol 1a — seqlock reader coherence: a reader racing one writer
/// never observes the linked counters mid-write (writer exclusivity is
/// protocol 1b below).
#[test]
fn coherence_reader_never_observes_a_torn_write() {
    model::check(|| {
        let gate = Arc::new(Coherence::default());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (gate2, a2, b2) = (Arc::clone(&gate), Arc::clone(&a), Arc::clone(&b));
        let writer = thread::spawn(move || {
            gate2.write(|| {
                a2.fetch_add(1, Ordering::Relaxed);
                b2.fetch_add(1, Ordering::Relaxed);
            });
        });
        let (x, y) = gate.read(|| (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)));
        assert_eq!(x, y, "coherent read observed a half-applied write");
        writer.join().expect("writer thread");
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 1);
    });
}

/// Protocol 1b — seqlock writer exclusivity: two concurrent writers
/// serialize on the writer mutex, so the sequence number ends even and
/// every reader retry terminates with the final state.
#[test]
fn coherence_writers_serialize_and_retries_terminate() {
    model::check(|| {
        let gate = Arc::new(Coherence::default());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (gate, a, b) = (Arc::clone(&gate), Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    gate.write(|| {
                        a.fetch_add(1, Ordering::Relaxed);
                        b.fetch_add(1, Ordering::Relaxed);
                    });
                })
            })
            .collect();
        let (x, y) = gate.read(|| (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)));
        assert_eq!(x, y, "coherent read observed a half-applied write");
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(gate.seq.load(Ordering::Relaxed) % 2, 0, "a write section never closed");
        assert_eq!(a.load(Ordering::Relaxed), 2, "a writer's update was lost");
        assert_eq!(b.load(Ordering::Relaxed), 2, "a writer's update was lost");
    });
}

/// Mirror of `AnswerCache`'s per-slot state (`rtse-serve/src/cache.rs`):
/// the slot lock is held across `compute`, and the generation store plus
/// the rounds bump publish inside one coherence write section. Loom has
/// no clock, so time is a logical tick counter that stamps each round's
/// `computed_at`; `round_for` takes freshness as a fixed boolean
/// (`fresh` = cached entries hit), while the probe applies the age rule.
struct SlotCache {
    cell: Mutex<SlotCell>,
    clock: AtomicU64,
}

struct SlotCell {
    generation: u64,
    round: Option<Round>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Round {
    value: u64,
    generation: u64,
    computed_at: u64,
}

impl SlotCell {
    /// `CacheCell::fresh`: the cached round if it is younger than
    /// `max_age` at tick `now`.
    fn fresh(&self, now: u64, max_age: u64) -> Option<Round> {
        self.round.filter(|round| now.saturating_sub(round.computed_at) <= max_age)
    }
}

impl SlotCache {
    fn new() -> Self {
        Self { cell: Mutex::new(SlotCell { generation: 0, round: None }), clock: AtomicU64::new(0) }
    }

    /// `AnswerCache::fresh`: one slot-lock acquisition, read-only.
    fn fresh(&self, max_age: u64) -> Option<Round> {
        let cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        cell.fresh(self.clock.load(Ordering::Relaxed), max_age)
    }

    /// `round_for_published` for one slot, freshness fixed at `fresh`.
    fn round_for(
        &self,
        fresh: bool,
        gate: &Coherence,
        builds: &AtomicUsize,
        rounds: &AtomicU64,
    ) -> u64 {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if fresh {
            if let Some(round) = cell.round {
                return round.value;
            }
        }
        let generation = cell.generation + 1;
        builds.fetch_add(1, Ordering::Relaxed);
        let value = generation * 10;
        gate.write(|| {
            cell.generation = generation;
            rounds.fetch_add(1, Ordering::Relaxed);
        });
        let computed_at = self.clock.load(Ordering::Relaxed);
        cell.round = Some(Round { value, generation, computed_at });
        value
    }

    fn generation(&self) -> u64 {
        self.cell.lock().unwrap_or_else(PoisonError::into_inner).generation
    }
}

/// Protocol 2a — cold-miss coalescing: two concurrent cold callers of
/// one fresh slot share a single build (no double builds), and both get
/// the same round.
#[test]
fn answer_cache_cold_misses_coalesce_into_one_build() {
    model::check(|| {
        let cache = Arc::new(SlotCache::new());
        let gate = Arc::new(Coherence::default());
        let builds = Arc::new(AtomicUsize::new(0));
        let rounds = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cache, gate, builds, rounds) = (
                    Arc::clone(&cache),
                    Arc::clone(&gate),
                    Arc::clone(&builds),
                    Arc::clone(&rounds),
                );
                thread::spawn(move || cache.round_for(true, &gate, &builds, &rounds))
            })
            .collect();
        let values: Vec<u64> = handles.into_iter().map(|h| h.join().expect("caller")).collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "cold misses did not coalesce");
        assert_eq!(values[0], values[1], "coalesced callers saw different rounds");
        assert_eq!(cache.generation(), 1);
        assert_eq!(rounds.load(Ordering::Relaxed), 1);
    });
}

/// Protocol 2b — no lost generation bumps, coherently published: two
/// stale-forcing callers each rebuild; every bump lands (generation 2,
/// rounds 2) and a concurrent coherent reader never sees
/// `rounds != generation` (the `Σ generations == rounds` serving
/// invariant, modeled on one slot).
#[test]
fn answer_cache_generation_bumps_publish_coherently() {
    model::check(|| {
        let cache = Arc::new(SlotCache::new());
        let gate = Arc::new(Coherence::default());
        let builds = Arc::new(AtomicUsize::new(0));
        let rounds = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cache, gate, builds, rounds) = (
                    Arc::clone(&cache),
                    Arc::clone(&gate),
                    Arc::clone(&builds),
                    Arc::clone(&rounds),
                );
                thread::spawn(move || cache.round_for(false, &gate, &builds, &rounds))
            })
            .collect();
        let (r, g) = gate.read(|| (rounds.load(Ordering::Relaxed), cache.generation()));
        assert_eq!(r, g, "rounds and generations tore apart under a coherent read");
        for h in handles {
            h.join().expect("caller");
        }
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert_eq!(cache.generation(), 2, "a generation bump was lost");
        assert_eq!(rounds.load(Ordering::Relaxed), 2);
    });
}

/// Protocol 2c — the pickup freshness probe racing a same-slot
/// recompute. Generation 1 is cached at tick 0 with `max_age = 0`. The
/// recompute thread lets time pass (tick 1, so generation 1 expires) and
/// then rebuilds; the probe runs concurrently. Whatever the interleaving,
/// the probe returns the previous round only while it is still fresh, or
/// the newly published one, never an expired round; it publishes nothing,
/// and a coherent reader still sees `rounds == generation`.
#[test]
fn answer_cache_fresh_probe_never_returns_an_expired_round() {
    model::check(|| {
        let cache = Arc::new(SlotCache::new());
        let gate = Arc::new(Coherence::default());
        let builds = Arc::new(AtomicUsize::new(0));
        let rounds = Arc::new(AtomicU64::new(0));
        cache.round_for(false, &gate, &builds, &rounds);
        let max_age = 0;
        let (cache2, gate2, builds2, rounds2) =
            (Arc::clone(&cache), Arc::clone(&gate), Arc::clone(&builds), Arc::clone(&rounds));
        let recompute = thread::spawn(move || {
            cache2.clock.fetch_add(1, Ordering::Relaxed);
            cache2.round_for(false, &gate2, &builds2, &rounds2)
        });
        let entered_at = cache.clock.load(Ordering::Relaxed);
        if let Some(round) = cache.fresh(max_age) {
            assert!(
                entered_at.saturating_sub(round.computed_at) <= max_age,
                "probe returned a round already expired when it was called: {round:?}"
            );
            assert!(matches!(round.generation, 1 | 2), "probe returned a phantom round");
        }
        let (r, g) = gate.read(|| (rounds.load(Ordering::Relaxed), cache.generation()));
        assert_eq!(r, g, "rounds and generations tore apart under a coherent read");
        assert_eq!(recompute.join().expect("recompute"), 20);
        assert_eq!(builds.load(Ordering::Relaxed), 2, "the probe must never build");
        assert_eq!(rounds.load(Ordering::Relaxed), 2, "the probe must never publish");
        let probed = cache.fresh(max_age).expect("the new round is fresh at the final tick");
        assert_eq!(probed.generation, 2);
    });
}

/// Protocol 3a — corr-cache slot protocol (`core::offline::corr_entry`):
/// concurrent cold callers of one `OnceLock` slot run the builder exactly
/// once and all observe the same value.
#[test]
fn corr_cache_slot_builds_exactly_once() {
    model::check(|| {
        let slot: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (slot, builds) = (Arc::clone(&slot), Arc::clone(&builds));
                thread::spawn(move || {
                    *slot.get_or_init(|| {
                        builds.fetch_add(1, Ordering::Relaxed);
                        42u64
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("builder"), 42);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1, "corr table built twice for one slot");
    });
}

/// Protocol 3b — per-slot independence: a warm read of one slot
/// completes correctly while another slot's cold build is in flight
/// (the no-head-of-line-blocking property PR 3 fixed; a regression to a
/// cache-wide gate would deadlock or double-build here).
#[test]
fn corr_cache_warm_read_proceeds_during_cold_build() {
    model::check(|| {
        let warm: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
        let cold: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
        let builds = Arc::new(AtomicUsize::new(0));
        warm.get_or_init(|| 7u64);
        let (cold2, builds2) = (Arc::clone(&cold), Arc::clone(&builds));
        let builder = thread::spawn(move || {
            *cold2.get_or_init(|| {
                builds2.fetch_add(1, Ordering::Relaxed);
                99u64
            })
        });
        // Interleaves with every point of the cold build.
        assert_eq!(*warm.get_or_init(|| 0u64), 7, "warm slot returned a wrong value");
        assert_eq!(builder.join().expect("builder"), 99);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    });
}

/// Mirror of `rtse_obs::hist::LogLinearHistogram`'s record / merge_from
/// paths (same orderings), shrunk to 2 buckets so the model stays small.
struct MiniHist {
    buckets: [AtomicU64; 2],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl MiniHist {
    fn new() -> Self {
        Self {
            buckets: [AtomicU64::new(0), AtomicU64::new(0)],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[usize::from(value != 0)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn merge_from(&self, other: &MiniHist) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Protocol 4 — histogram merge loses no counts: a recorder racing a
/// merge into the same shared histogram; afterwards every recorded value
/// is accounted for in buckets, count, sum, and extremes.
#[test]
fn histogram_merge_never_loses_counts() {
    model::check(|| {
        let shared = Arc::new(MiniHist::new());
        let local = Arc::new(MiniHist::new());
        local.record(0);
        local.record(5);
        let shared2 = Arc::clone(&shared);
        let recorder = thread::spawn(move || {
            shared2.record(3);
        });
        shared.merge_from(&local);
        recorder.join().expect("recorder");
        assert_eq!(shared.count.load(Ordering::Relaxed), 3, "merge lost a count");
        assert_eq!(shared.sum.load(Ordering::Relaxed), 8, "merge lost recorded value mass");
        let per_bucket: u64 = shared.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(per_bucket, 3, "bucket totals diverged from the count");
        assert_eq!(shared.min.load(Ordering::Relaxed), 0);
        assert_eq!(shared.max.load(Ordering::Relaxed), 5);
    });
}
