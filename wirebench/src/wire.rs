//! The wire run: a server process deploying `rtse-edge` over
//! `rtse-serve`, and the open-loop generator that drives it over one
//! loopback connection from one thread, pipelining by request id.

use crate::trace::Trace;
use crate::workload::{Req, Spec, Workload, World, RTSE_THREADS};
use rtse_edge::edge_serve;
use rtse_edge::frame::{decode_frame, encode_frame, DecodeLimits, Frame, QueryFrame};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the receiver keeps waiting after the last request was due.
const DRAIN_GRACE: Duration = Duration::from_secs(20);
/// Longest sleep of the generator loop when nothing is due or readable.
const IDLE_POLL: Duration = Duration::from_micros(100);
/// Delay between connecting and the schedule's first due time.
const START_DELAY: Duration = Duration::from_millis(100);

/// The server role: generate the world, set up once (timed) and serve
/// until stdin closes, read the peak memory, then set up `reps − 1` more
/// times (timed, not served) and report.
///
/// The extra set-ups run after the measured window and after the memory
/// reading, so neither sees them. Protocol on stdout: `READY <addr>`, then
/// `DONE <submitted> <answered> <shed> <rejected> <rounds> <cache_hits>
/// <batches> <batched> <vmhwm_kb> <setup_s>...`.
pub fn serve_main(workload: Workload, reps: usize) -> ExitCode {
    let spec = workload.spec();
    let world = World::generate(&spec);
    let sworld = world.serve_world();
    let (serve_cfg, edge_cfg) = spec.deployment();
    let mut setups = Vec::with_capacity(reps);
    let mut report = None;
    for rep in 0..reps.max(1) {
        let start = Instant::now();
        let engine = spec.engine(&world);
        let served = edge_serve(&engine, &sworld, &serve_cfg, &edge_cfg, |edge| {
            setups.push(start.elapsed().as_secs_f64());
            if rep == 0 {
                println!("READY {}", edge.addr());
                let _ = std::io::stdout().flush();
                // Serve until the generator closes our stdin.
                let mut sink = String::new();
                let _ = std::io::stdin().read_line(&mut sink);
            }
        });
        match served {
            Ok(outcome) if rep == 0 => {
                report = Some((outcome.serve_metrics, vmhwm_kb().unwrap_or(0)))
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("wirebench server: deployment failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some((m, vmhwm)) = report else { return ExitCode::FAILURE };
    let times: Vec<String> = setups.iter().map(|s| s.to_string()).collect();
    println!(
        "DONE {} {} {} {} {} {} {} {} {vmhwm} {}",
        m.submitted,
        m.answered,
        m.shed,
        m.rejected,
        m.rounds,
        m.cache_hit_queries,
        m.batches,
        m.batched_queries,
        times.join(" "),
    );
    ExitCode::SUCCESS
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What the server reported when it stopped.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// `MetricsSnapshot` counters, in the `DONE` line's order.
    pub submitted: u64,
    pub answered: u64,
    pub shed: u64,
    pub rejected: u64,
    pub rounds: u64,
    pub cache_hits: u64,
    pub batches: u64,
    pub batched: u64,
    /// Server `VmHWM` after the served deployment drained, KiB.
    pub vmhwm_kb: u64,
    /// Every set-up's time, seconds.
    pub setups_s: Vec<f64>,
}

/// A running server process; killed and reaped if dropped early.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

impl ServerProc {
    /// Starts the server role of this executable with a cleared
    /// environment and pinned `RTSE_THREADS`, and waits for it to accept.
    /// It will set up `reps` times in all (see [`serve_main`]).
    pub fn start(spec: &Spec, reps: usize) -> std::io::Result<(Self, SocketAddr)> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", spec.name, &reps.to_string()])
            .env_clear()
            .env("RTSE_THREADS", RTSE_THREADS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or_else(|| io_err("no server stdout".into()))?;
        let mut proc = Self { child, stdin, stdout: BufReader::new(stdout) };
        let words = keep_warm(|| proc.line("READY"))?;
        let addr = words
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io_err(format!("bad READY line {words:?}")))?;
        Ok((proc, addr))
    }

    /// Reads stdout up to the line tagged `tag`; returns its other words.
    fn line(&mut self, tag: &str) -> std::io::Result<Vec<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io_err(format!("server exited before {tag}")));
            }
            let mut words = line.split_whitespace();
            if words.next() == Some(tag) {
                return Ok(words.map(str::to_string).collect());
            }
        }
    }

    /// Stops the deployment (closes its stdin) and collects its report.
    pub fn stop(mut self) -> std::io::Result<Done> {
        drop(self.stdin.take());
        let words = keep_warm(|| self.line("DONE"))?;
        let n: Vec<u64> = words.iter().take(9).filter_map(|w| w.parse().ok()).collect();
        let setups_s = words.iter().skip(9).filter_map(|w| w.parse().ok()).collect();
        let status = self.child.wait()?;
        match n.as_slice() {
            &[submitted, answered, shed, rejected, rounds, cache_hits, batches, batched, vmhwm_kb]
                if status.success() =>
            {
                Ok(Done {
                    submitted,
                    answered,
                    shed,
                    rejected,
                    rounds,
                    cache_hits,
                    batches,
                    batched,
                    vmhwm_kb,
                    setups_s,
                })
            }
            _ => Err(io_err(format!("server ended with {status}, DONE {words:?}"))),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How one request ended on the wire.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Nothing came back (or the request could not be sent).
    Missing,
    /// An answer frame, stamped when its bytes were read.
    Answer { at: Instant, frame: rtse_edge::AnswerFrame },
    /// A typed reject.
    Reject { code: rtse_edge::RejectCode },
}

/// Everything one wire run observed.
pub struct WireRun {
    /// When the schedule started: request `i` was due at `epoch + due_i`.
    pub epoch: Instant,
    /// The server's final counters.
    pub done: Done,
    /// Per request: how late the sender wrote it (`None` = not sent).
    pub late: Vec<Option<Duration>>,
    /// Per request: what came back.
    pub replies: Vec<Reply>,
    /// Transport and protocol errors (unknown or repeated request ids,
    /// undecodable bytes, write failures).
    pub transport_errors: Vec<String>,
    /// Generator spans, when traced.
    pub trace: Option<Trace>,
    /// The generator ran under `SCHED_FIFO`.
    pub fifo: bool,
}

/// Runs `schedule` against a fresh server for `spec` set up `reps` times.
pub fn run(spec: &Spec, reps: usize, schedule: &[Req], traced: bool) -> std::io::Result<WireRun> {
    let (server, addr) = ServerProc::start(spec, reps)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let epoch = Instant::now() + START_DELAY;
    let last_due = schedule.last().map_or(Duration::ZERO, |r| r.due);
    // The generator runs under `SCHED_FIFO`, as if on a client machine of
    // its own: it wakes before any server thread, so it sends on time
    // however busy the server keeps both cores. It sleeps between polls,
    // so it takes little time from the server.
    let (driven, fifo) = keep_warm(|| {
        let fifo = set_policy(SCHED_FIFO);
        let driven = drive(&stream, schedule, epoch, epoch + last_due + DRAIN_GRACE, traced);
        if fifo {
            set_policy(SCHED_OTHER);
        }
        (driven, fifo)
    });
    let _ = stream.shutdown(Shutdown::Both);
    let done = server.stop()?;
    let Driven { late, replies, errors: transport_errors, trace } = driven;
    Ok(WireRun { epoch, done, late, replies, transport_errors, trace, fifo })
}

/// `SCHED_OTHER`, the default policy.
const SCHED_OTHER: i32 = 0;
/// `SCHED_FIFO`: runs before every `SCHED_OTHER` thread of its core.
const SCHED_FIFO: i32 = 1;
/// `SCHED_IDLE`: runs only when no other thread of its core is runnable,
/// and is preempted at once when one wakes.
const SCHED_IDLE: i32 = 5;

/// Puts the calling thread under `policy` (at priority 1 for
/// `SCHED_FIFO`). Returns whether it took.
#[cfg(target_os = "linux")]
fn set_policy(policy: i32) -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { priority: i32::from(policy == SCHED_FIFO) };
    // SAFETY: pid 0 names the calling thread, and `param` outlives the call.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_policy(_policy: i32) -> bool {
    false
}

/// Runs `f` while one `SCHED_IDLE` thread per core spins, so no core of
/// the guest halts during a run and every wake-up — the generator's polls,
/// the server's batch window and edge pump — is prompt (see [`drive`]).
/// Under `SCHED_IDLE` they take no time any other thread could use. Where
/// the policy cannot be set they do not spin. Set-up and the traced phases
/// run under the same condition.
pub fn keep_warm<T>(f: impl FnOnce() -> T) -> T {
    let done = AtomicBool::new(false);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                if set_policy(SCHED_IDLE) {
                    while !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let out = f();
        done.store(true, Ordering::Release);
        out
    })
}

struct Driven {
    late: Vec<Option<Duration>>,
    replies: Vec<Reply>,
    errors: Vec<String>,
    trace: Option<Trace>,
}

/// The generator loop, on one thread: send every query that is due, read
/// whatever answers have arrived, sleep up to [`IDLE_POLL`] (never past
/// the next due time), repeat — until every request has a reply or
/// `give_up` passes.
///
/// The caller runs it under `SCHED_FIFO` inside [`keep_warm`]. On an idle
/// core of a small virtual machine the core halts, and a sleeping thread
/// wakes milliseconds late at the tail (measured: p99 3.6 ms for a 2 ms
/// sleep on an idle 2-vCPU guest); at normal priority it also waits for
/// the server's threads whenever they hold both cores (p99 send lateness
/// 3–4 ms under `fresh_rounds`). Either would be booked as latency.
fn drive(
    mut stream: &TcpStream,
    schedule: &[Req],
    epoch: Instant,
    give_up: Instant,
    traced: bool,
) -> Driven {
    let limits = DecodeLimits::for_max_roads(rtse_edge::MAX_ROADS_PER_QUERY);
    let mut out = Driven {
        late: vec![None; schedule.len()],
        replies: vec![Reply::Missing; schedule.len()],
        errors: Vec::new(),
        trace: traced.then(|| Trace::new(epoch)),
    };
    let mut outbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut inbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut received) = (0, 0);
    while received < schedule.len() {
        let now = Instant::now();
        if now >= give_up {
            break;
        }
        while let Some(req) = schedule.get(next).filter(|r| epoch + r.due <= now) {
            let start = Instant::now();
            encode_frame(
                &Frame::Query(QueryFrame {
                    request_id: next as u64 + 1,
                    deadline_ms: None,
                    max_staleness_ms: req.max_staleness_ms,
                    slot: req.slot,
                    roads: req.roads.clone(),
                }),
                &mut outbox,
            );
            out.late[next] = Some(start.saturating_duration_since(epoch + req.due));
            if let Some(t) = out.trace.as_mut() {
                t.record("gen.encode", None, next as u64 + 1, start, Instant::now());
            }
            next += 1;
        }
        if !outbox.is_empty() {
            match stream.write(&outbox) {
                Ok(n) => {
                    outbox.drain(..n);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => {
                    out.errors.push(format!("write failed: {e}"));
                    break;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                out.errors.push("server closed the connection".to_string());
                break;
            }
            Ok(n) => {
                let at = Instant::now();
                inbox.extend_from_slice(&chunk[..n]);
                match take_replies(&mut inbox, limits, at, &mut out) {
                    Ok(count) => received += count,
                    Err(e) => {
                        out.errors.push(e);
                        break;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                let due = schedule.get(next).map_or(give_up, |r| epoch + r.due);
                std::thread::sleep(due.saturating_duration_since(Instant::now()).min(IDLE_POLL));
            }
            Err(e) => {
                out.errors.push(format!("read failed: {e}"));
                break;
            }
        }
    }
    out
}

/// Decodes every complete frame at the front of `inbox` into its
/// request's reply slot; returns how many replies were new.
fn take_replies(
    inbox: &mut Vec<u8>,
    limits: DecodeLimits,
    at: Instant,
    out: &mut Driven,
) -> Result<usize, String> {
    let (mut offset, mut fresh) = (0, 0);
    loop {
        let start = Instant::now();
        let (frame, used) = match decode_frame(&inbox[offset..], limits) {
            Ok(Some(decoded)) => decoded,
            Ok(None) => break,
            Err(e) => return Err(format!("undecodable answer stream: {e}")),
        };
        offset += used;
        let (id, reply) = match frame {
            Frame::Answer(a) => (a.request_id, Reply::Answer { at, frame: a }),
            Frame::Reject(r) => (r.request_id, Reply::Reject { code: r.code }),
            other => {
                out.errors.push(format!("unexpected frame {other:?}"));
                continue;
            }
        };
        if let Some(t) = out.trace.as_mut() {
            t.record("gen.decode", None, id, start, Instant::now());
        }
        let index = usize::try_from(id).ok().and_then(|id| id.checked_sub(1));
        match index.and_then(|i| out.replies.get_mut(i)) {
            Some(slot @ Reply::Missing) => {
                *slot = reply;
                fresh += 1;
            }
            Some(_) => out.errors.push(format!("request {id} answered twice")),
            None => out.errors.push(format!("reply for unknown request {id}")),
        }
    }
    inbox.drain(..offset);
    Ok(fresh)
}
