//! Per-connection state: buffered nonblocking I/O, incremental decode,
//! pending-ticket fan-in.
//!
//! A [`Conn`] is owned by exactly one shard thread (the shard's registry
//! is a plain `Vec<Conn>`), so none of this state needs a lock — the
//! shard loop is the only reader and writer. Cross-thread coordination
//! happens one layer up, through the serving queue and the shutdown
//! flag.

use crate::frame::{
    decode_frame, encode_frame, AnswerFrame, DecodeLimits, Frame, FrameError, GoAwayCode,
    GoAwayFrame, QueryFrame, RejectCode, RejectFrame,
};
use rtse_obs::{ObsHandle, Stage};
use rtse_serve::{ServeError, ServedAnswer, Ticket};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-chunk size for the socket pump. Frames larger than this are
/// assembled across reads by the incremental decoder.
const READ_CHUNK: usize = 4096;

/// Why a connection is being closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The peer sent bytes that are not a frame (decoder is fail-closed).
    Protocol(FrameError),
    /// The peer sent a frame type only the server may send.
    UnexpectedFrame,
    /// The peer closed or reset the connection.
    PeerGone,
    /// No frame arrived within the idle timeout.
    Idle,
}

/// How one ticket-pump pass resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved {
    /// Tickets that resolved to an answer frame.
    pub answers: usize,
    /// Tickets that resolved to a typed reject frame.
    pub rejects: usize,
}

impl Resolved {
    /// Total tickets resolved this pass.
    pub(crate) fn total(&self) -> usize {
        self.answers + self.rejects
    }
}

/// What one read pump produced.
pub(crate) struct ReadOutcome {
    /// Complete queries decoded this pump, in arrival order.
    pub queries: Vec<QueryFrame>,
    /// Set when the connection must now be closed.
    pub close: Option<CloseReason>,
}

/// One accepted client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    woff: usize,
    /// In-flight requests: wire request id paired with its serve ticket.
    pending: Vec<(u64, Ticket)>,
    last_active: Instant,
    /// Records `edge.frame_decode` spans (one per complete frame) and
    /// `edge.write` spans (one per non-empty flush).
    obs: ObsHandle,
}

impl Conn {
    /// Wraps an accepted stream. The stream is switched to nonblocking
    /// mode; Nagle is disabled because frames are latency-sensitive and
    /// already batched by the serving layer.
    pub(crate) fn new(stream: TcpStream, now: Instant, obs: ObsHandle) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            pending: Vec::new(),
            last_active: now,
            obs,
        })
    }

    /// Pumps the socket: reads whatever is available, decodes every
    /// complete frame, and returns the queries (plus a close verdict if
    /// the stream ended or the bytes were not protocol).
    pub(crate) fn read_queries(&mut self, limits: DecodeLimits, now: Instant) -> ReadOutcome {
        let mut out = ReadOutcome { queries: Vec::new(), close: None };
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    out.close = Some(CloseReason::PeerGone);
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_active = now;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    out.close = Some(CloseReason::PeerGone);
                    break;
                }
            }
        }
        let mut consumed = 0;
        loop {
            let started = Instant::now();
            match decode_frame(self.rbuf.get(consumed..).unwrap_or(&[]), limits) {
                Ok(Some((Frame::Query(q), n))) => {
                    consumed += n;
                    self.obs.record_duration(Stage::EdgeFrameDecode, started.elapsed());
                    out.queries.push(q);
                }
                Ok(Some((_, _))) => {
                    // Answer/Reject/GoAway travel server → client only.
                    out.close = Some(CloseReason::UnexpectedFrame);
                    break;
                }
                Ok(None) => break,
                Err(e) => {
                    out.close = Some(CloseReason::Protocol(e));
                    break;
                }
            }
        }
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
        out
    }

    /// Registers an admitted request awaiting its serve answer.
    pub(crate) fn track(&mut self, request_id: u64, ticket: Ticket) {
        self.pending.push((request_id, ticket));
    }

    /// Polls every in-flight ticket; resolved ones are encoded into the
    /// write buffer (answer or typed reject) and dropped from the
    /// pending set.
    pub(crate) fn pump_pending(&mut self) -> Resolved {
        let mut resolved = Resolved { answers: 0, rejects: 0 };
        let mut i = 0;
        while i < self.pending.len() {
            let reply = self.pending.get(i).and_then(|(_, ticket)| ticket.poll());
            match reply {
                Some(result) => {
                    let (request_id, _) = self.pending.swap_remove(i);
                    if result.is_ok() {
                        resolved.answers += 1;
                    } else {
                        resolved.rejects += 1;
                    }
                    self.push_reply(request_id, result);
                }
                None => i += 1,
            }
        }
        resolved
    }

    /// In-flight requests currently awaiting an answer.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Encodes a serve reply (answer or typed reject) for the peer.
    pub(crate) fn push_reply(&mut self, request_id: u64, reply: Result<ServedAnswer, ServeError>) {
        let frame = match reply {
            Ok(answer) => Frame::Answer(answer_frame(request_id, answer)),
            Err(err) => Frame::Reject(reject_frame(request_id, &err)),
        };
        encode_frame(&frame, &mut self.wbuf);
    }

    /// Encodes a pre-admission typed reject (edge-side bounds check).
    pub(crate) fn push_reject(&mut self, request_id: u64, code: RejectCode, detail: String) {
        encode_frame(&Frame::Reject(RejectFrame { request_id, code, detail }), &mut self.wbuf);
    }

    /// Encodes the orderly-close notification.
    pub(crate) fn push_goaway(&mut self, code: GoAwayCode, detail: String) {
        encode_frame(&Frame::GoAway(GoAwayFrame { code, detail }), &mut self.wbuf);
    }

    /// Bytes queued for the peer but not yet written.
    pub(crate) fn unflushed(&self) -> usize {
        self.wbuf.len() - self.woff
    }

    /// Writes as much of the buffered output as the socket accepts.
    /// `Ok(true)` when the buffer fully drained; `Err` means the peer is
    /// gone and the connection must be dropped.
    pub(crate) fn flush(&mut self) -> Result<bool, CloseReason> {
        let _span =
            if self.woff < self.wbuf.len() { Some(self.obs.span(Stage::EdgeWrite)) } else { None };
        while self.woff < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => return Err(CloseReason::PeerGone),
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::PeerGone),
            }
        }
        self.wbuf.clear();
        self.woff = 0;
        Ok(true)
    }

    /// Whether the connection has been silent past the idle timeout.
    /// Connections with requests still in flight are never idle — the
    /// silence is ours, not the peer's.
    pub(crate) fn is_idle(&self, now: Instant, timeout: Duration) -> bool {
        self.pending.is_empty()
            && self.unflushed() == 0
            && now.duration_since(self.last_active) > timeout
    }

    /// Blocks until the write buffer drains or `budget` elapses — the
    /// final flush of an orderly close, where losing buffered answers
    /// would violate the no-request-dropped-answerless guarantee.
    pub(crate) fn flush_blocking(&mut self, budget: Duration) -> Result<(), CloseReason> {
        let start = Instant::now();
        loop {
            if self.flush()? {
                return Ok(());
            }
            if start.elapsed() >= budget {
                return Err(CloseReason::PeerGone);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Converts a serve answer to its wire form, moving the estimates into
/// the frame.
fn answer_frame(request_id: u64, answer: ServedAnswer) -> AnswerFrame {
    let mut roads = Vec::with_capacity(answer.roads.len());
    for road in &answer.roads {
        roads.push(road.0);
    }
    AnswerFrame {
        request_id,
        generation: answer.generation,
        age_us: duration_us(answer.age),
        wait_us: duration_us(answer.wait),
        slot: answer.slot.0,
        cache_hit: answer.cache_hit,
        roads,
        speeds: answer.estimates,
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Maps every serve rejection onto its wire code. The detail string is
/// the error's own rendering, so clients see the same message in-process
/// callers would.
fn reject_frame(request_id: u64, err: &ServeError) -> RejectFrame {
    let code = match err {
        ServeError::QueueFull { .. } => RejectCode::QueueFull,
        ServeError::DeadlineExceeded { .. } => RejectCode::DeadlineExceeded,
        ServeError::ShuttingDown => RejectCode::ShuttingDown,
        ServeError::EmptyQuery => RejectCode::EmptyQuery,
        ServeError::RoadOutOfRange { .. } => RejectCode::RoadOutOfRange,
        ServeError::SlotOutOfRange { .. } => RejectCode::SlotOutOfRange,
        ServeError::DeadlineOutOfBounds { .. } => RejectCode::DeadlineOutOfBounds,
        ServeError::StalenessOutOfBounds { .. } => RejectCode::StalenessOutOfBounds,
        ServeError::WorldMismatch { .. } => RejectCode::WorldMismatch,
        ServeError::InvalidConfig(_) | ServeError::ChannelClosed => RejectCode::Internal,
    };
    RejectFrame { request_id, code, detail: err.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_codes_cover_every_serve_error() {
        use std::time::Duration;
        let cases = [
            (ServeError::QueueFull { depth: 1 }, RejectCode::QueueFull),
            (
                ServeError::DeadlineExceeded { missed_by: Duration::ZERO },
                RejectCode::DeadlineExceeded,
            ),
            (ServeError::ShuttingDown, RejectCode::ShuttingDown),
            (ServeError::EmptyQuery, RejectCode::EmptyQuery),
            (ServeError::ChannelClosed, RejectCode::Internal),
        ];
        for (err, code) in cases {
            let frame = reject_frame(7, &err);
            assert_eq!(frame.code, code);
            assert_eq!(frame.request_id, 7);
            assert!(!frame.detail.is_empty());
        }
    }
}
