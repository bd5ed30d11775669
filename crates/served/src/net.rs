//! The daemon's connection boundary: the one accept and connection loop
//! the plain daemon and the shard front share, and the **only** place in
//! this crate that touches the host wall clock.
//!
//! `accept_loop` and its per-connection handler own everything the two
//! daemons have in common — framing, pacing, `Request::parse` errors,
//! `ping`, `shutdown`, the connection lifetime — and hand every other op
//! to the daemon's `Daemon::answer`.
//!
//! Sweep results never depend on wall time (determinism is seed- and
//! sim-time-based throughout the workspace); the clock here only bounds
//! how long a silent or trickling client can hold a connection handler
//! thread. The lint gate (`liteworp-lint` rule L004) pins the
//! `allow(D001)` sites to this file.
//!
//! Two layers of defence:
//!
//! * [`configure`] arms a short *poll tick* read timeout on the socket.
//!   Each timeout surfaces as a `WouldBlock` in the framing layer, which
//!   forwards it to the connection's [`FramePacer`].
//! * [`FramePacer`] converts ticks into policy: a client may idle up to
//!   [`IDLE_TIMEOUT`] between frames, but once a frame has started it
//!   must complete within [`FRAME_TIMEOUT`] or the read aborts with the
//!   typed [`FrameError::FrameTimeout`] — a slow-loris client trickling
//!   one byte per tick can no longer hold a handler thread for the
//!   connection lifetime.

use crate::frame::{read_frame_paced, write_frame, FrameError, ReadPacer};
use crate::proto::{err_response, ok_response, Request};
use liteworp_runner::Json;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection may sit idle between frames before the daemon
/// hangs up on it. Idle expiry surfaces as a transport `Io` error in
/// the framing layer, and the handler closes the connection silently.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Once the first byte of a frame has arrived, the rest must follow
/// within this budget (measured from the start of the read call).
pub const FRAME_TIMEOUT: Duration = Duration::from_secs(20);

/// Socket read timeout — the granularity at which a stalled read checks
/// in with the [`FramePacer`] (and at which shutdown is noticed).
pub const POLL_TICK: Duration = Duration::from_secs(1);

/// Absolute lifetime cap per connection: even a client that keeps
/// issuing requests is asked to reconnect after this long, so handler
/// threads cannot accumulate forever.
pub const CONN_LIFETIME: Duration = Duration::from_secs(3600);

/// Applies the daemon's socket policy to an accepted connection.
pub fn configure(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_nodelay(true)
}

/// Tracks one connection's absolute lifetime against [`CONN_LIFETIME`].
pub struct ConnDeadline {
    opened: Instant,
    limit: Duration,
}

impl ConnDeadline {
    /// Starts the clock for a freshly accepted connection.
    pub fn new(limit: Duration) -> ConnDeadline {
        ConnDeadline {
            // lint: allow(D001) socket-lifetime boundary: bounds how long
            // a client holds a handler thread; never feeds into results
            opened: Instant::now(),
            limit,
        }
    }

    /// Whether the connection has outlived its welcome.
    pub fn expired(&self) -> bool {
        self.opened.elapsed() >= self.limit
    }
}

/// Per-frame read pacer: construct one before each `read_frame_paced`
/// call. Waiting for a frame to *start* is bounded by the idle limit;
/// assembling a started frame is bounded by idle + frame budget from
/// the start of the call (a client cannot bank idle time to extend a
/// trickled frame beyond that sum).
pub struct FramePacer {
    started: Instant,
    idle_limit: Duration,
    frame_limit: Duration,
}

impl FramePacer {
    /// Starts the per-frame clock with the daemon's default limits.
    pub fn new() -> FramePacer {
        FramePacer::with_limits(IDLE_TIMEOUT, FRAME_TIMEOUT)
    }

    /// Starts the per-frame clock with explicit limits (tests).
    pub fn with_limits(idle_limit: Duration, frame_limit: Duration) -> FramePacer {
        FramePacer {
            // lint: allow(D001) socket-deadline boundary: bounds how long
            // one frame may take to arrive; never feeds into results
            started: Instant::now(),
            idle_limit,
            frame_limit,
        }
    }
}

impl Default for FramePacer {
    fn default() -> FramePacer {
        FramePacer::new()
    }
}

impl ReadPacer for FramePacer {
    fn tick(&self, mid_frame: bool) -> Result<(), FrameError> {
        let elapsed = self.started.elapsed();
        if mid_frame {
            if elapsed >= self.idle_limit + self.frame_limit {
                return Err(FrameError::FrameTimeout);
            }
        } else if elapsed >= self.idle_limit {
            return Err(FrameError::Io("idle timeout".to_string()));
        }
        Ok(())
    }
}

/// Granularity of [`sleep_or_shutdown`]: how late a sleeper notices a
/// shutdown at worst.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Sleeps for `total` in short steps, returning early once
/// `shutdown` is set. Returns whether shutdown was observed.
pub(crate) fn sleep_or_shutdown(shutdown: &AtomicBool, total: Duration) -> bool {
    let mut slept = Duration::ZERO;
    while slept < total {
        if shutdown.load(Ordering::SeqCst) {
            return true;
        }
        let step = SHUTDOWN_POLL.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
    shutdown.load(Ordering::SeqCst)
}

/// What a daemon supplies to the shared connection loop: its shutdown
/// state and its answers to the request ops.
pub(crate) trait Daemon: Send + Sync + 'static {
    /// Set once shutdown has begun; connections hang up at their next
    /// frame and the accept loop exits.
    fn shutdown_flag(&self) -> &AtomicBool;

    /// Starts a graceful stop (the `shutdown` op).
    fn begin_shutdown(&self);

    /// Answers one request, writing its response frame(s) to `writer`.
    /// `ping` and `shutdown` never get here: the connection loop answers
    /// them itself.
    fn answer(&self, request: Request, writer: &mut TcpStream) -> std::io::Result<()>;
}

/// Accepts connections until shutdown, serving each on its own thread.
/// `stall_accept` is a chaos hook: sleep this long after every accepted
/// connection, simulating a stalled acceptor.
pub(crate) fn accept_loop<D: Daemon>(
    listener: TcpListener,
    daemon: Arc<D>,
    stall_accept: Option<Duration>,
) {
    loop {
        let accepted = listener.accept();
        if daemon.shutdown_flag().load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        if let Some(stall) = stall_accept {
            std::thread::sleep(stall);
        }
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &*daemon);
        });
    }
}

fn handle_connection(stream: TcpStream, daemon: &impl Daemon) -> std::io::Result<()> {
    configure(&stream)?;
    let deadline = ConnDeadline::new(CONN_LIFETIME);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        if daemon.shutdown_flag().load(Ordering::SeqCst) || deadline.expired() {
            return Ok(());
        }
        // A fresh pacer per frame: idle waits between frames get the
        // idle budget, and a started frame must complete within the
        // frame budget (slow-loris defence, `FrameError::FrameTimeout`).
        let pacer = FramePacer::new();
        let payload = match read_frame_paced(&mut reader, &pacer) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),               // client hung up
            Err(FrameError::Io(_)) => return Ok(()), // idle timeout / transport death
            Err(e) => {
                // Framing errors are answered, then the connection is
                // dropped: the stream position is no longer trustworthy.
                let _ = write_frame(&mut writer, &err_response(&e.to_string()));
                return Ok(());
            }
        };
        match Request::parse(&payload) {
            Err(e) => write_frame(&mut writer, &err_response(&e))?,
            Ok(Request::Ping) => {
                write_frame(&mut writer, &ok_response([("pong", Json::from(true))]))?;
            }
            Ok(Request::Shutdown) => {
                write_frame(
                    &mut writer,
                    &ok_response([("shutting_down", Json::from(true))]),
                )?;
                writer.flush()?;
                daemon.begin_shutdown();
                return Ok(());
            }
            Ok(request) => daemon.answer(request, &mut writer)?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_or_shutdown_returns_early_once_shutdown_is_set() {
        let flag = AtomicBool::new(false);
        assert!(!sleep_or_shutdown(&flag, Duration::from_millis(1)));
        flag.store(true, Ordering::SeqCst);
        // Would sleep an hour without the flag.
        assert!(sleep_or_shutdown(&flag, Duration::from_secs(3600)));
    }

    #[test]
    fn a_fresh_deadline_is_not_expired_and_a_zero_one_is() {
        assert!(!ConnDeadline::new(CONN_LIFETIME).expired());
        assert!(ConnDeadline::new(Duration::ZERO).expired());
    }

    #[test]
    fn frame_pacer_distinguishes_idle_from_mid_frame_expiry() {
        // Zero limits: both arms expire immediately, with distinct types.
        let p = FramePacer::with_limits(Duration::ZERO, Duration::ZERO);
        assert_eq!(p.tick(true), Err(FrameError::FrameTimeout));
        assert!(matches!(p.tick(false), Err(FrameError::Io(_))));

        // Generous limits: both arms keep waiting.
        let p = FramePacer::with_limits(Duration::from_secs(60), Duration::from_secs(60));
        assert_eq!(p.tick(true), Ok(()));
        assert_eq!(p.tick(false), Ok(()));

        // Idle exhausted but frame budget open: a started frame may
        // still complete while a between-frames wait would hang up.
        let p = FramePacer::with_limits(Duration::ZERO, Duration::from_secs(60));
        assert_eq!(p.tick(true), Ok(()));
        assert!(matches!(p.tick(false), Err(FrameError::Io(_))));
    }
}
