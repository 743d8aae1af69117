//! wirebench — the wire-to-answer benchmark of the CrowdRTSE deployment.
//!
//! ```sh
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload hot_cache --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` runs the workload over the wire and prints the end-to-end
//! metrics; `--trace 1` runs it again with spans recorded and replays the
//! same inputs through each layer's public calls, printing the per-layer
//! metrics. The last stdout line is the result object; see `README.md`.

mod checks;
mod e2e;
mod layers;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use crate::report::{result_line, Values, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::Trace;
use crate::workload::{schedule, Workload, World, RTSE_THREADS, SETUP_REPS};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Longest schedule a traced run plays, in seconds. It plays it four
/// times (untraced and traced over the wire, in process, and the round
/// replay), so this keeps a traced run within a few minutes at any
/// `--seconds`.
const TRACE_SECONDS: u64 = 20;

/// Where each run's stamp and spans are written.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, Some(false));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| (1..=120).contains(&s)),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed needs a whole number")?,
        seconds: seconds.ok_or("--seconds needs a whole number from 1 to 120")?,
        trace: trace.ok_or("--trace is 0 or 1")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The server role, started by the benchmark itself:
    // `serve <workload> <setup reps>`.
    let server = match argv.as_slice() {
        [role, name, reps] if role == "serve" => Workload::parse(name).zip(reps.parse().ok()),
        _ => None,
    };
    let args = match parse(&argv) {
        _ if server.is_some() => None,
        Ok(a) => Some(a),
        Err(e) => {
            eprintln!("wirebench: {e}\nusage: wirebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.spec().name).join("|"));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_unfaithful_builds() {
        eprintln!("wirebench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    // In-process phases build Γ on `ComputePool::from_env()`: pin it here,
    // before any thread exists, as the server's environment pins it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RTSE_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("RTSE_THREADS", RTSE_THREADS.to_string());
    let Some(args) = args else {
        let (workload, reps) = server.expect("server role parsed");
        return wire::serve_main(workload, reps);
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark measures the shipping program: the std sync backend,
/// recording compiled in, invariant checks compiled out.
fn refuse_unfaithful_builds() -> Result<(), String> {
    if rtse_sync::BACKEND != "std" {
        return Err(format!("sync backend is {}, not std", rtse_sync::BACKEND));
    }
    if !rtse_obs::ObsHandle::fresh().is_enabled() {
        return Err("the obs-noop feature is on".into());
    }
    // With `validate` on, the engine's entry contract rejects a model
    // with a negative σ; without it the model is accepted.
    let graph = rtse_graph::generators::grid(2, 2);
    let history = rtse_data::TrafficGenerator::new(
        &graph,
        rtse_data::SynthConfig { days: 2, ..rtse_data::SynthConfig::default() },
    )
    .generate()
    .history;
    let mut model = rtse_rtf::moment_estimate(&graph, &history);
    model.slot_mut(rtse_data::SlotOfDay(0)).sigma[0] = -1.0;
    let offline = crowd_rtse_core::OfflineArtifacts::from_model(model);
    if crowd_rtse_core::CrowdRtse::try_new(&graph, offline).is_err() {
        return Err("the validate feature is on".into());
    }
    Ok(())
}

fn bench(args: &Args) -> Result<bool, String> {
    let spec = args.workload.spec();
    let seconds = if args.trace { args.seconds.min(TRACE_SECONDS) } else { args.seconds };
    let schedule = schedule(&spec, args.seed, seconds);
    let world = World::generate(&spec);
    // The generator's own fit: Per's slot means for the MAPE check, and
    // (traced) the `rtf.fit` span.
    let mut trace = Trace::new(Instant::now());
    let model = trace.time("rtf.fit", None, 0, || {
        rtse_rtf::moment_estimate(&world.graph, &world.dataset.history)
    });

    let (_, wire_e2e, attempts) = measure(&spec, SETUP_REPS, &schedule, false, &world, &model)?;
    let mut correct = wire_e2e.correct;
    let mut problems = wire_e2e.problems.clone();
    let mut problem_count = wire_e2e.problem_count;
    let mut stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"schedule_s\": {seconds}, \
         \"trace\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \"knobs\": {}, \"attempts\": {attempts}, \
         \"wire\": {{{}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
        spec.knobs_json(),
        wire_e2e.stamp,
    );

    let (table, values): (&[(&str, &str)], Values) = if args.trace {
        let (values, layer_stamp, layer_problems) =
            traced(args, &spec, &schedule, &world, &model, &wire_e2e, trace)?;
        correct &= layer_problems.is_empty();
        problem_count += layer_problems.len();
        problems.extend(layer_problems);
        stamp.push_str(&format!(", \"layers\": {{{layer_stamp}}}"));
        (&PER_LAYER, values)
    } else {
        (&END_TO_END, wire_e2e.values.clone())
    };
    stamp.push_str(&format!(", \"problem_count\": {problem_count}, \"problems\": {problems:?}}}"));

    for p in &problems {
        eprintln!("wirebench: {p}");
    }
    let out =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", spec.name, args.seed, u8::from(args.trace));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&out, format!("{stamp}\n")))
    {
        eprintln!("wirebench: could not write {out}: {e}");
    }
    let csv = format!("{OUT_DIR}/{}-seed{}-requests.csv", spec.name, args.seed);
    if let Err(e) = std::fs::write(&csv, &wire_e2e.requests_csv) {
        eprintln!("wirebench: could not write {csv}: {e}");
    }
    println!("# stamp {stamp}");
    let line = result_line(correct, wire_e2e.attempted, wire_e2e.failed, table, &values);
    let correct = line.starts_with("{\"correct\": true");
    println!("{line}");
    Ok(correct)
}

/// The traced run: the wire workload again with spans on, then the
/// in-process serving phase, then the layer replay. Returns the
/// per-layer values, their stamp members, and the checks that failed.
fn traced(
    args: &Args,
    spec: &workload::Spec,
    schedule: &[workload::Req],
    world: &World,
    model: &rtse_rtf::RtfModel,
    untraced: &e2e::Analysis,
    mut trace: Trace,
) -> Result<(Values, String, Vec<String>), String> {
    let mut problems = Vec::new();
    let (traced_run, traced_e2e, _) = measure(spec, 1, schedule, true, world, model)?;
    if !traced_e2e.correct {
        problems.push(format!("traced wire run failed {} checks", traced_e2e.problem_count));
        problems.extend(traced_e2e.problems.iter().cloned());
    }
    layers::wire_spans(&traced_run, schedule, &mut trace);

    let served = wire::keep_warm(|| layers::serve_phase(spec, world, model, schedule));
    if served.errors > 0 {
        problems.push(format!("in-process serving failed {} requests", served.errors));
    }
    let replay = wire::keep_warm(|| {
        layers::replay_phase(
            spec,
            world,
            model,
            schedule,
            Duration::from_secs(args.seconds.min(TRACE_SECONDS)),
            &mut trace,
        )
    });
    if replay.mismatches > 0 {
        problems.push(format!(
            "{} of {} replayed rounds differ from answer_query_warm",
            replay.mismatches, replay.rounds
        ));
    }
    let reconciled = (replay.coverage - 1.0).abs() <= layers::RECONCILE_TOLERANCE;
    if !reconciled {
        problems.push(format!(
            "replay spans cover {:.3} of engine.round (tolerance ±{})",
            replay.coverage,
            layers::RECONCILE_TOLERANCE
        ));
    }

    let m = &served.metrics;
    let round = layers::summary_ms(&trace, "engine.round");
    let select = layers::summary_ms(&trace, "ocs.select");
    let propagate = layers::summary_ms(&trace, "gsp.propagate");
    let wire_p50 = untraced.latency.p50;
    let mut v = Values::default();
    v.set("edge.codec_us", layers::p50_us(&trace, "edge.codec"));
    v.set("edge.overhead_ms", wire_p50 - served.latency.p50);
    v.set("serve.latency_ms", served.latency.p50);
    v.set("serve.latency_p99_ms", served.latency.tail);
    v.set("serve.hit_rate", m.cache_hit_rate());
    v.set("serve.rounds_per_100q", m.rounds_per_100());
    v.set("serve.batch_mean", m.mean_batch_size());
    v.set("serve.shed", (m.shed + m.rejected) as f64);
    v.set("engine.round_ms", round.p50);
    v.set("engine.round_p99_ms", round.tail);
    v.set("rtf.fit_s", Summary::of(&trace.durations("rtf.fit")).p50);
    v.set("rtf.corr_fetch_us", layers::p50_us(&trace, "rtf.corr_fetch"));
    v.set("rtf.corr_build_ms", layers::summary_ms(&trace, "rtf.corr_build").p50);
    v.set("rtf.corr_mb", replay.corr_mb);
    v.set("graph.dijkstra_us", layers::p50_us(&trace, "graph.dijkstra"));
    v.set("crowd.covered_us", layers::p50_us(&trace, "crowd.covered"));
    v.set("crowd.campaign_us", layers::p50_us(&trace, "crowd.campaign"));
    v.set("crowd.answer_frac", replay.answer_frac);
    v.set("ocs.select_ms", select.p50);
    v.set("ocs.select_p99_ms", select.tail);
    v.set("ocs.budget_frac", replay.budget_frac);
    v.set("gsp.propagate_ms", propagate.p50);
    v.set("gsp.propagate_p99_ms", propagate.tail);
    v.set("gsp.rounds", replay.gsp_rounds);
    v.set("trace.overhead", traced_e2e.latency.p50 / wire_p50);

    // Where each workload's time should sit; reported, not enforced, so
    // a later change that moves the balance shows instead of failing.
    let engine_share_hot = m.rounds as f64 * round.p50 / (m.answered.max(1) as f64 * wire_p50);
    let layer_stamp = format!(
        "\"replayed_rounds\": {}, \"mismatched_rounds\": {}, \
         \"budget\": {{\"engine.round_ms\": {}, \"rtf.corr_fetch_ms\": {}, \"crowd.covered_ms\": {}, \
         \"ocs.select_ms\": {}, \"crowd.campaign_ms\": {}, \"gsp.propagate_ms\": {}, \
         \"uncovered_ms\": {}, \"coverage\": {}, \"tolerance\": {}, \"reconciled\": {reconciled}}}, \
         \"p99_levels\": {{\"serve.latency\": {}, \"engine.round\": {}, \"ocs.select\": {}, \
         \"gsp.propagate\": {}}}, \
         \"shape\": {{\"serve.hit_rate\": {}, \"engine_busy_per_answer_over_wire_p50\": {engine_share_hot}, \
         \"engine_round_over_wire_p50\": {}, \"corr_build_over_wire_p99\": {}}}, \
         \"traced_wire_p50_ms\": {}, \"untraced_wire_p50_ms\": {wire_p50}, \"spans\": {}",
        replay.rounds,
        replay.mismatches,
        round.p50,
        layers::p50_us(&trace, "rtf.corr_fetch") / 1e3,
        layers::p50_us(&trace, "crowd.covered") / 1e3,
        select.p50,
        layers::p50_us(&trace, "crowd.campaign") / 1e3,
        propagate.p50,
        replay.uncovered_ms,
        replay.coverage,
        layers::RECONCILE_TOLERANCE,
        served.latency.tail_q,
        round.tail_q,
        select.tail_q,
        propagate.tail_q,
        m.cache_hit_rate(),
        round.p50 / wire_p50,
        layers::summary_ms(&trace, "rtf.corr_build").p50 / untraced.latency.tail,
        traced_e2e.latency.p50,
        trace.spans().len(),
    );
    let spans = format!("{OUT_DIR}/{}-seed{}-spans.json", spec.name, args.seed);
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&spans, trace.to_json()))
    {
        eprintln!("wirebench: could not write {spans}: {e}");
    }
    Ok((v, layer_stamp, problems))
}

/// Wire runs a measured (`--trace 0`) run may make.
const MAX_ATTEMPTS: usize = 2;

/// One wire run of `schedule`, analysed. A run whose generator could not
/// keep to its schedule is invalid — the host stalled the generator, and
/// the latencies would book that stall as the program's — so a measured
/// run is made once more against a fresh server. If no attempt is valid,
/// the one whose generator was least late is reported, marked invalid in
/// the stamp. Returns the run, its analysis and the attempts made.
fn measure(
    spec: &workload::Spec,
    reps: usize,
    schedule: &[workload::Req],
    traced: bool,
    world: &World,
    model: &rtse_rtf::RtfModel,
) -> Result<(wire::WireRun, e2e::Analysis, usize), String> {
    let attempts = if traced { 1 } else { MAX_ATTEMPTS };
    let mut best: Option<(wire::WireRun, e2e::Analysis)> = None;
    for attempt in 1..=attempts {
        let run = wire::run(spec, reps, schedule, traced).map_err(|e| e.to_string())?;
        let analysis = e2e::analyze(spec, schedule, &run, world, model);
        if analysis.valid {
            return Ok((run, analysis, attempt));
        }
        eprintln!(
            "wirebench: attempt {attempt} invalid: generator p99 lateness {:.3} ms",
            analysis.late_p99_ms
        );
        if best.as_ref().is_none_or(|(_, b)| analysis.late_p99_ms < b.late_p99_ms) {
            best = Some((run, analysis));
        }
    }
    let (run, analysis) = best.ok_or("no wire run was made")?;
    Ok((run, analysis, attempts))
}

/// The source revision, when the benchmark runs from a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
