//! Counterexample regressions: seeded protocol bugs the model checker
//! must keep finding.
//!
//! Each test runs a deliberately broken variant of one modeled protocol
//! (`tests/models.rs`) under the vendored checker and asserts the search
//! finds the bug. They drive `rtse_sync::loom` explicitly, so they are
//! deterministic, run in a plain `cargo test` (no `rtse_loom` cfg
//! needed), and pin the checker's bug-finding power: if a scheduler
//! change ever stops exploring the failing interleaving, these fail.

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex, OnceLock, PoisonError};
use loom::thread;
use rtse_sync::loom;

/// Runs `f` under the checker expecting a failure; returns the failure
/// message.
fn must_find_bug(name: &str, f: impl Fn() + Send + Sync + 'static) -> String {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loom::model(f)));
    match out {
        Ok(explored) => panic!(
            "checker explored {explored} executions of `{name}` without finding the seeded bug"
        ),
        Err(payload) => {
            if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                String::from("<non-string panic payload>")
            }
        }
    }
}

/// Seqlock without the odd-sequence retry: a reader that ignores the
/// "write section open" parity observes the linked counters mid-write.
#[test]
fn seqlock_without_odd_check_tears() {
    let msg = must_find_bug("seqlock-no-odd-check", || {
        let seq = Arc::new(AtomicU64::new(0));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (seq2, a2, b2) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
        let writer = thread::spawn(move || {
            seq2.fetch_add(1, Ordering::AcqRel);
            a2.fetch_add(1, Ordering::Relaxed);
            b2.fetch_add(1, Ordering::Relaxed);
            seq2.fetch_add(1, Ordering::Release);
        });
        // BUG: no parity check, no validation re-read.
        let x = a.load(Ordering::Relaxed);
        let y = b.load(Ordering::Relaxed);
        assert_eq!(x, y, "torn read");
        writer.join().expect("writer");
    });
    assert!(msg.contains("torn read"), "unexpected failure: {msg}");
}

/// Seqlock without the validation re-read: the reader honours the parity
/// check but skips comparing the sequence afterwards, so a write section
/// that opens *between* its two data loads goes unnoticed.
#[test]
fn seqlock_without_validation_reread_tears() {
    let msg = must_find_bug("seqlock-no-validation", || {
        let seq = Arc::new(AtomicU64::new(0));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (seq2, a2, b2) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
        let writer = thread::spawn(move || {
            seq2.fetch_add(1, Ordering::AcqRel);
            a2.fetch_add(1, Ordering::Relaxed);
            b2.fetch_add(1, Ordering::Relaxed);
            seq2.fetch_add(1, Ordering::Release);
        });
        loop {
            let before = seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                loom::hint::spin_loop();
                continue;
            }
            let x = a.load(Ordering::Relaxed);
            let y = b.load(Ordering::Relaxed);
            // BUG: `seq` is not re-read; a write racing past the loads
            // is accepted as coherent.
            assert_eq!(x, y, "torn read");
            break;
        }
        writer.join().expect("writer");
    });
    assert!(msg.contains("torn read"), "unexpected failure: {msg}");
}

/// Answer-cache rebuild that drops the slot lock across `compute`: two
/// stale callers both read generation 0, both build, and one bump is
/// lost (`rounds` says 2, the generation says 1).
#[test]
fn cache_rebuild_outside_the_slot_lock_loses_a_bump() {
    let msg = must_find_bug("cache-unlocked-rebuild", || {
        let cell = Arc::new(Mutex::new(0u64));
        let rounds = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cell, rounds) = (Arc::clone(&cell), Arc::clone(&rounds));
                thread::spawn(move || {
                    // BUG: the generation is read under the lock, but the
                    // lock is released across the compute + store.
                    let generation = *cell.lock().unwrap_or_else(PoisonError::into_inner) + 1;
                    rounds.fetch_add(1, Ordering::Relaxed);
                    *cell.lock().unwrap_or_else(PoisonError::into_inner) = generation;
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller");
        }
        let generation = *cell.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(rounds.load(Ordering::Relaxed), generation, "a generation bump was lost");
    });
    assert!(msg.contains("generation bump was lost"), "unexpected failure: {msg}");
}

/// Pickup freshness probe that skips the age test: racing a same-slot
/// recompute, it hands out generation 1 after the clock has already
/// expired it.
#[test]
fn fresh_probe_without_the_age_test_returns_an_expired_round() {
    let msg = must_find_bug("fresh-probe-no-age-test", || {
        // (generation, computed_at) of the cached round; max_age = 0.
        let cell = Arc::new(Mutex::new((1u64, 0u64)));
        let clock = Arc::new(AtomicU64::new(0));
        let (cell2, clock2) = (Arc::clone(&cell), Arc::clone(&clock));
        let recompute = thread::spawn(move || {
            clock2.fetch_add(1, Ordering::Relaxed);
            let mut round = cell2.lock().unwrap_or_else(PoisonError::into_inner);
            *round = (2, clock2.load(Ordering::Relaxed));
        });
        let entered_at = clock.load(Ordering::Relaxed);
        // BUG: returns whatever is cached without comparing its age.
        let (_generation, computed_at) = *cell.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(entered_at.saturating_sub(computed_at), 0, "probe returned an expired round");
        recompute.join().expect("recompute");
    });
    assert!(msg.contains("expired round"), "unexpected failure: {msg}");
}

/// Corr-cache init via check-then-set instead of `get_or_init`: two cold
/// callers both see the slot empty and both run the builder.
#[test]
fn corr_cache_check_then_set_double_builds() {
    let msg = must_find_bug("corr-cache-check-then-set", || {
        let slot: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (slot, builds) = (Arc::clone(&slot), Arc::clone(&builds));
                thread::spawn(move || {
                    // BUG: get() + set() instead of get_or_init();
                    // the emptiness check races the other builder.
                    if slot.get().is_none() {
                        builds.fetch_add(1, Ordering::Relaxed);
                        let _ = slot.set(42);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("builder");
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1, "corr table built twice");
    });
    assert!(msg.contains("built twice"), "unexpected failure: {msg}");
}

/// Histogram merge via load-then-store instead of `fetch_add`: a record
/// racing the merge vanishes.
#[test]
fn histogram_merge_via_load_store_loses_counts() {
    let msg = must_find_bug("hist-merge-load-store", || {
        let count = Arc::new(AtomicU64::new(0));
        let count2 = Arc::clone(&count);
        let recorder = thread::spawn(move || {
            count2.fetch_add(1, Ordering::Relaxed);
        });
        // BUG: merge adds the other histogram's count with a separate
        // load and store instead of one RMW.
        let merged = count.load(Ordering::Relaxed) + 2;
        count.store(merged, Ordering::Relaxed);
        recorder.join().expect("recorder");
        assert_eq!(count.load(Ordering::Relaxed), 3, "merge lost a count");
    });
    assert!(msg.contains("merge lost a count"), "unexpected failure: {msg}");
}
