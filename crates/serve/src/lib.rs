//! rtse-serve — concurrent query serving for the crowdsourced
//! speed-estimation engine.
//!
//! The offline/online pipeline in `crowd-rtse-core` answers one
//! [`SpeedQuery`](crowd_rtse_core::SpeedQuery) per call. A deployment
//! faces many concurrent clients whose queries cluster on the *current*
//! slot — and one OCS→crowd→GSP round already produces estimates for the
//! whole network. This crate exploits that: it puts a serving layer in
//! front of the engine that
//!
//! - **micro-batches** concurrent same-slot queries into one shared round
//!   ([`serve`], [`ServeConfig::batch_window`]),
//! - **caches** each slot's round with TTL/staleness bounds and generation
//!   counters ([`AnswerCache`]); a batch its slot's fresh round can answer
//!   is answered at pickup, so only misses wait out the batch window,
//! - **admits** work through a bounded queue with deadline-based load
//!   shedding — overload and lateness surface as typed [`ServeError`]s,
//!   never as silent drops or stale estimates.
//!
//! Shared answers are bit-identical to fresh single-query answers for the
//! same slot and seed: the engine is deterministic and estimates are reads
//! out of the round's full-network `all_values` either way.
//!
//! ```no_run
//! use rtse_serve::{serve, ServeConfig, ServeRequest, ServeWorld};
//! # fn demo(engine: &crowd_rtse_core::CrowdRtse<'_>, world: &ServeWorld<'_>) {
//! let config = ServeConfig::from_env();
//! let outcome = serve(engine, world, &config, |handle| {
//!     handle.query(ServeRequest::new(vec![rtse_graph::RoadId(3)], rtse_data::SlotOfDay(96)))
//! });
//! # let _ = outcome;
//! # }
//! ```

pub mod cache;
pub mod coherence;
pub mod config;
pub mod error;
pub mod metrics;
pub mod request;
pub mod server;

pub use cache::{AnswerCache, CacheOutcome, CachedRound, RoundData};
pub use coherence::Coherence;
pub use config::{
    ServeConfig, BATCH_WINDOW_ENV, DEADLINE_ENV, MAX_BATCH_WINDOW, MAX_TTL, MAX_WORKERS,
    QUEUE_DEPTH_ENV,
};
pub use error::ServeError;
pub use metrics::{MetricsSnapshot, ServeMetrics, ServeSnapshot};
pub use request::{ServeRequest, ServedAnswer, Ticket};
pub use server::{serve, ServeOutcome, ServeWorld, ServerHandle, TruthSource};
