//! End-to-end metrics of one wire run, and the checks every answer and
//! the run as a whole must pass.

use crate::checks::RoundLedger;
use crate::report::Values;
use crate::stats::{median, ms, Summary};
use crate::wire::{Reply, WireRun};
use crate::workload::{Req, Spec, World, MAX_LATE_SHARE};
use rtse_data::SlotOfDay;
use rtse_rtf::RtfModel;
use std::fmt::Write as _;

/// Problems kept verbatim for the report (the rest are only counted).
const KEEP_PROBLEMS: usize = 8;

/// The analysed run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// End-to-end metric values.
    pub values: Values,
    /// Every check passed and the run is valid.
    pub correct: bool,
    /// The generator kept to its schedule (see [`MAX_LATE_SHARE`]).
    pub valid: bool,
    /// The generator's own p99 send lateness, ms.
    pub late_p99_ms: f64,
    /// Requests in the measured window.
    pub attempted: u64,
    /// Measured requests rejected, unanswered, or answered wrongly.
    pub failed: u64,
    /// Wire latency of the measured, correctly answered requests.
    pub latency: Summary,
    /// Counts and validity figures for the stamp, as JSON members.
    pub stamp: String,
    /// The first few problems found, and how many there were.
    pub problems: Vec<String>,
    pub problem_count: usize,
    /// One CSV row per measured request: id, due, send lateness and wire
    /// latency in ms (empty when unanswered), and how it ended.
    pub requests_csv: String,
}

/// Checks every reply of `run` and computes the end-to-end metrics over
/// the measured window.
pub fn analyze(
    spec: &Spec,
    schedule: &[Req],
    run: &WireRun,
    world: &World,
    model: &RtfModel,
) -> Analysis {
    let mut problems: Vec<String> = run.transport_errors.clone();
    let mut ledger = RoundLedger::default();
    let (mut attempted, mut sent, mut answered, mut rejected, mut missing, mut wrong) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut late = Vec::with_capacity(schedule.len());
    let (mut ape_served, mut ape_per, mut pairs) = (0.0, 0.0, 0usize);
    let mut within_limit = 0u64;
    let mut first_due = None;
    let mut last_answer = None;
    let mut csv = String::from("id,due_ms,late_ms,latency_ms,outcome\n");

    for (i, ((req, reply), sent_late)) in
        schedule.iter().zip(&run.replies).zip(&run.late).enumerate()
    {
        let id = i + 1;
        let due = run.epoch + req.due;
        let outcome = match reply {
            Reply::Answer { at, frame } => match ledger.check(req.slot, &req.roads, frame) {
                Ok(()) => Ok((*at, frame)),
                Err(e) => Err(format!("request {id}: {e}")),
            },
            Reply::Reject { code } => Err(format!("request {id}: rejected with {code:?}")),
            Reply::Missing if sent_late.is_some() => Err(format!("request {id}: no reply")),
            Reply::Missing => Err(format!("request {id}: never sent")),
        };
        if !req.measured {
            if let Err(p) = outcome {
                problems.push(p);
            }
            continue;
        }
        attempted += 1;
        first_due.get_or_insert(due);
        if let Some(l) = sent_late {
            sent += 1;
            late.push(ms(*l));
        }
        match reply {
            Reply::Answer { at, .. } => {
                answered += 1;
                last_answer = Some(last_answer.map_or(*at, |t: std::time::Instant| t.max(*at)));
            }
            Reply::Reject { .. } => rejected += 1,
            Reply::Missing => missing += 1,
        }
        let late_ms = sent_late.map_or(String::new(), |l| ms(l).to_string());
        let _ = match &outcome {
            Ok((at, _)) => writeln!(
                csv,
                "{id},{},{late_ms},{},ok",
                ms(req.due),
                ms(at.saturating_duration_since(due))
            ),
            Err(_) => writeln!(csv, "{id},{},{late_ms},,failed", ms(req.due)),
        };
        match outcome {
            Ok((at, frame)) => {
                let latency = ms(at.saturating_duration_since(due));
                latencies.push(latency);
                within_limit += u64::from(latency <= spec.limit_ms);
                let truth = world.dataset.ground_truth_snapshot(SlotOfDay(req.slot));
                let mu = &model.slot(SlotOfDay(req.slot)).mu;
                for (&road, &speed) in frame.roads.iter().zip(&frame.speeds) {
                    let r = road as usize;
                    ape_served += rtse_eval::ape(speed, truth[r]);
                    ape_per += rtse_eval::ape(mu[r], truth[r]);
                    pairs += 1;
                }
            }
            Err(p) => {
                if matches!(reply, Reply::Answer { .. }) {
                    wrong += 1;
                }
                problems.push(p);
            }
        }
    }

    let latency = Summary::of(&latencies);
    let lateness = Summary::of(&late);
    let mape = ape_served / pairs.max(1) as f64;
    let per_mape = ape_per / pairs.max(1) as f64;
    let failed = rejected + missing + wrong;
    if !latency.is_p99() {
        problems.push(format!("{} answers cannot support a p99", latency.n));
    }
    if mape >= per_mape {
        problems.push(format!("served MAPE {mape:.4} is not below Per's {per_mape:.4}"));
    }
    let late_limit_ms = MAX_LATE_SHARE * spec.limit_ms;
    let valid = lateness.tail <= late_limit_ms;
    let window_s = match (first_due, last_answer) {
        (Some(first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
        _ => 0.0,
    };

    let mut values = Values::default();
    values.set("p50_ms", latency.p50);
    values.set("p99_ms", latency.tail);
    values.set("achieved_qps", if window_s > 0.0 { answered as f64 / window_s } else { 0.0 });
    values.set("slo_frac", within_limit as f64 / attempted.max(1) as f64);
    values.set("mape", mape);
    values.set("peak_rss_mb", run.done.vmhwm_kb as f64 / 1024.0);
    values.set("setup_s", median(&run.done.setups_s));

    let stamp = format!(
        "\"sent\": {sent}, \"answered\": {answered}, \"rejected\": {rejected}, \
         \"unanswered\": {missing}, \"failed_check\": {wrong}, \
         \"failed_frac\": {}, \"latency_samples\": {}, \"p99_level\": {}, \
         \"gen.late_p50_ms\": {}, \"gen.late_p99_ms\": {}, \"gen.late_limit_ms\": {late_limit_ms}, \
         \"valid\": {valid}, \"gen.fifo\": {}, \"per_mape\": {per_mape}, \"setup_s_samples\": {:?}, \
         \"server\": {{\"submitted\": {}, \"answered\": {}, \"shed\": {}, \"rejected\": {}, \
         \"rounds\": {}, \"cache_hits\": {}, \"batches\": {}, \"batched\": {}}}",
        failed as f64 / attempted.max(1) as f64,
        latency.n,
        latency.tail_q,
        lateness.p50,
        lateness.tail,
        run.fifo,
        run.done.setups_s,
        run.done.submitted,
        run.done.answered,
        run.done.shed,
        run.done.rejected,
        run.done.rounds,
        run.done.cache_hits,
        run.done.batches,
        run.done.batched,
    );
    let problem_count = problems.len();
    problems.truncate(KEEP_PROBLEMS);
    Analysis {
        values,
        correct: problem_count == 0,
        valid,
        late_p99_ms: lateness.tail,
        attempted,
        failed,
        latency,
        stamp,
        problems,
        problem_count,
        requests_csv: csv,
    }
}
