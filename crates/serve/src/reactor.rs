//! A dependency-free nonblocking reactor: one thread multiplexing every
//! connection over `poll(2)`.
//!
//! ## Why not thread-per-connection
//!
//! The previous front end parked a connection worker for the whole duration
//! of a solve, so concurrency was bounded by thread count and every idle
//! keep-alive connection cost a stack. Here a connection is ~1 KiB of state
//! in a map: the reactor reads bytes, parses requests incrementally
//! ([`crate::http::parse_request`]), and asks the application
//! ([`App::handle`]) for either an immediate response or a *pending* slot.
//! Pending work (solves) runs on the bounded solve pool; when it finishes,
//! the worker pushes the response onto the [`Completions`] queue and writes
//! one byte into the reactor's self-wake pipe — the reactor then fans the
//! bytes out to every waiting slot. No thread ever blocks on a solve while
//! holding a connection.
//!
//! ## Readiness
//!
//! `poll(2)` is the one readiness backend because it runs on every Unix.
//! Each wait rebuilds the descriptor set from the reactor's own state (wake
//! pipe, listener, one entry per connection with its current interest) and
//! hands it to the kernel whole, so a wake costs O(descriptors). That was
//! checked against the traffic the harnesses generate: `perfbench` keeps at
//! most two keep-alive connections open, `serve_bench` at most 16 clients
//! and `serve_smoke` 8, so the set holds about 20 descriptors and rebuilding
//! it is negligible next to a request. Serving thousands of connections
//! would want a kernel-side interest set, and a workload that measures it.
//!
//! ## Keep-alive + pipelining
//!
//! Each connection keeps a FIFO of response **slots**, one per parsed
//! request, so pipelined requests are answered strictly in request order:
//! a pending head blocks later (already computed) responses from being
//! written early. Writable interest is requested only while the head slot
//! has unwritten bytes — the level-triggered wait never busy-spins on a
//! writable-but-idle socket.
//!
//! ## Lifecycle
//!
//! * per-slot deadline → the app's [`App::on_timeout`] response (504); a
//!   late completion for a timed-out slot is dropped (the solve itself
//!   still finishes on its worker and warms the caches);
//! * idle timeout reaps connections with **no** outstanding slots only;
//! * peer EOF closes the connection immediately — outstanding shared
//!   solves keep running, their delivery to this connection becomes a
//!   no-op;
//! * shutdown (via [`ReactorHandle::shutdown`]) closes the listener, stops
//!   reading, finishes every already-parsed (admitted) request — pending
//!   solves included — flushes, and only then lets the thread exit.

use crate::http::{self, ParseError, Parsed, Request, Response};
use crate::metrics::ConnGauges;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One readiness event out of [`PollSet::wait`].
#[derive(Debug, Clone, Copy)]
struct Event {
    /// The ready descriptor.
    fd: RawFd,
    /// Readable (or peer closed — reading returns 0/error, which is how
    /// EOF is observed).
    readable: bool,
    /// Writable.
    writable: bool,
    /// Error/hangup condition; the owner should read/write to collect the
    /// concrete error and close.
    error: bool,
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `nfds_t`: `unsigned long` in Linux's C libraries, `unsigned int` on
/// Android, macOS and the BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

/// The descriptor set of one `poll(2)` wait: filled with [`push`] before
/// each [`wait`], level-triggered.
///
/// [`push`]: PollSet::push
/// [`wait`]: PollSet::wait
#[derive(Default)]
struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Add `fd` to the next wait with `events` (`POLLIN`, `POLLOUT`, both
    /// or neither). Error and hangup conditions are reported regardless.
    fn push(&mut self, fd: RawFd, events: i16) {
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
    }

    /// Block up to `timeout` (forever when `None`) for readiness on the
    /// pushed descriptors, then empty the set. `events` is cleared first;
    /// a signal interruption returns successfully with no events.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> std::io::Result<()> {
        events.clear();
        // The cast is lossless: a process cannot hold more descriptors
        // than `nfds_t` counts.
        // SAFETY: `fds` is a live array of `fds.len()` pollfd records.
        let n = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as NfdsT,
                timeout_ms(timeout),
            )
        };
        let result = if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            }
        } else {
            events.extend(self.fds.iter().filter(|p| p.revents != 0).map(|p| Event {
                fd: p.fd,
                readable: p.revents & (POLLIN | POLLHUP) != 0,
                writable: p.revents & POLLOUT != 0,
                error: p.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
            }));
            Ok(())
        };
        self.fds.clear();
        result
    }
}

/// Clamp a timeout to the millisecond precision `poll(2)` takes, rounding
/// **up** so a deadline is never polled before it can fire.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

/// What the application decided about one parsed request.
pub enum Dispatch {
    /// Answer now (quick endpoints, rejections, validation errors).
    Immediate(Response),
    /// The app admitted the request for asynchronous completion; it will
    /// later call [`Completions::complete`] naming this request's waiter
    /// id. The reactor parks a response slot that keeps pipelined order.
    Pending,
}

/// A reactor work phase, reported to [`App::on_phase`] for latency
/// accounting. Phases overlap: `Dispatch` (one routed request) nests
/// inside `Read` (one readable connection's servicing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorPhase {
    /// One readable connection's servicing: socket drain + parse of every
    /// complete pipelined request + dispatch + opportunistic flush.
    Read,
    /// One [`App::handle`] call (request routing/admission).
    Dispatch,
    /// One flush of queued response bytes to a socket (writable-event and
    /// completion-delivery flushes).
    Write,
}

/// The serving application driven by the reactor. One instance serves
/// every connection; all hooks run on the reactor thread except
/// [`Completions::complete`], which solve workers call.
pub trait App: Send + Sync + 'static {
    /// Route one parsed request. `waiter` identifies the request for a
    /// later [`Completions::complete`] if the answer is [`Dispatch::Pending`].
    fn handle(self: &Arc<Self>, request: &Request, waiter: u64) -> Dispatch;
    /// A pending request exceeded its deadline; produce the timeout
    /// response (the underlying work keeps running).
    fn on_timeout(&self, waiter: u64) -> Response;
    /// A connection produced unparseable bytes; produce the error response
    /// (the connection closes after it is written).
    fn on_parse_error(&self, error: &ParseError) -> Response;
    /// A pending response was delivered to a live connection: `status` of
    /// the response, `waited` from admission to delivery.
    fn on_delivered(&self, status: u16, waited: Duration);
    /// One reactor phase took `took` of reactor-thread time. Default no-op;
    /// the server feeds these into its reactor latency histograms.
    fn on_phase(&self, phase: ReactorPhase, took: Duration) {
        let _ = (phase, took);
    }
}

/// One finished piece of pending work, fanned out to every waiter.
pub struct Completion {
    /// Waiter ids from [`App::handle`] calls that this completion answers.
    pub waiters: Vec<u64>,
    /// The shared response; encoded per connection (keep-alive vs close).
    pub response: Response,
}

/// The channel from blocking workers back into the reactor: a queue of
/// [`Completion`]s plus a self-pipe whose read end the reactor polls.
pub struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    wake_rx: Mutex<Option<UnixStream>>,
}

impl Completions {
    /// Create the queue and its wake pipe.
    pub fn new() -> std::io::Result<Arc<Completions>> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx: Mutex::new(Some(wake_rx)),
        }))
    }

    /// Publish one completion and wake the reactor. Callable from any
    /// thread; never blocks (a full pipe already guarantees a wakeup).
    pub fn complete(&self, completion: Completion) {
        self.queue
            .lock()
            .expect("completion queue lock")
            .push(completion);
        self.wake();
    }

    /// Wake the reactor without queueing anything (shutdown nudge).
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue lock"))
    }

    fn take_reader(&self) -> Option<UnixStream> {
        self.wake_rx.lock().expect("wake reader lock").take()
    }
}

/// Reactor tuning knobs (the server maps its `ServeConfig` onto these).
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Accepted-connection cap; excess connections get an immediate 503
    /// and close.
    pub max_connections: usize,
    /// Reap connections with no outstanding requests after this long.
    pub idle_timeout: Duration,
    /// Deadline for pending (solve) slots; overrun triggers
    /// [`App::on_timeout`].
    pub pending_timeout: Duration,
}

/// Handle to a spawned reactor thread.
pub struct ReactorHandle {
    stopping: Arc<AtomicBool>,
    completions: Arc<Completions>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ReactorHandle {
    /// Graceful stop: close the listener, finish admitted requests, flush,
    /// join. Idempotent. The caller must keep whatever executes pending
    /// work alive until this returns.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.completions.wake();
        if let Some(handle) = self.thread.lock().expect("reactor thread lock").take() {
            let _ = handle.join();
        }
    }
}

/// Spawn the reactor thread over a **nonblocking** listener.
pub fn spawn<A: App>(
    listener: TcpListener,
    app: Arc<A>,
    completions: Arc<Completions>,
    options: ReactorOptions,
    gauges: Arc<ConnGauges>,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let wake_rx = completions.take_reader().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "this Completions already drives a reactor",
        )
    })?;
    let stopping = Arc::new(AtomicBool::new(false));
    let reactor = Reactor {
        app,
        listener: Some(listener),
        wake_rx,
        poll_set: PollSet::default(),
        conns: HashMap::new(),
        pending: HashMap::new(),
        next_waiter: 0,
        completions: Arc::clone(&completions),
        stopping: Arc::clone(&stopping),
        options,
        gauges,
    };
    let thread = std::thread::Builder::new()
        .name("faircap-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        stopping,
        completions,
        thread: Mutex::new(Some(thread)),
    })
}

/// One queued response position on a connection. Slot order == request
/// order, which is what makes pipelining correct.
enum Slot {
    /// Encoded bytes being (or waiting to be) written.
    Ready { bytes: Vec<u8> },
    /// Waiting for a completion (or its deadline).
    Pending {
        id: u64,
        deadline: Instant,
        started: Instant,
        close: bool,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: std::net::TcpStream,
    /// Unparsed received bytes.
    buf: Vec<u8>,
    /// FIFO response slots (request order).
    slots: VecDeque<Slot>,
    /// Write progress into the head `Ready` slot.
    written: usize,
    /// No further requests will be parsed; close once slots drain.
    close_after: bool,
    /// Connection is finished; sweep deregisters and drops it.
    dead: bool,
    /// Head slot has bytes the socket would not take yet.
    want_write: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: std::net::TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            slots: VecDeque::new(),
            written: 0,
            close_after: false,
            dead: false,
            want_write: false,
            last_activity: now,
        }
    }
}

struct Reactor<A: App> {
    app: Arc<A>,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poll_set: PollSet,
    conns: HashMap<RawFd, Conn>,
    pending: HashMap<u64, RawFd>,
    next_waiter: u64,
    completions: Arc<Completions>,
    stopping: Arc<AtomicBool>,
    options: ReactorOptions,
    gauges: Arc<ConnGauges>,
}

impl<A: App> Reactor<A> {
    fn run(mut self) {
        let listener_fd = self
            .listener
            .as_ref()
            .expect("listener present at start")
            .as_raw_fd();
        let wake_fd = self.wake_rx.as_raw_fd();
        let mut events = Vec::new();
        loop {
            let stopping = self.stopping.load(Ordering::SeqCst);
            if stopping {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self
                .next_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            self.poll_set.push(wake_fd, POLLIN);
            if self.listener.is_some() {
                self.poll_set.push(listener_fd, POLLIN);
            }
            for (&fd, conn) in &self.conns {
                // Read until the connection stops parsing (its own close,
                // or the drain); write only while bytes wait on the socket.
                let read = if conn.close_after { 0 } else { POLLIN };
                let write = if conn.want_write { POLLOUT } else { 0 };
                self.poll_set.push(fd, read | write);
            }
            if self.poll_set.wait(&mut events, timeout).is_err() {
                break; // a failing poll(2) cannot make progress
            }
            let now = Instant::now();
            for event in events.drain(..) {
                if event.fd == wake_fd {
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                } else if event.fd == listener_fd {
                    self.accept_ready(now);
                } else if let Some(mut conn) = self.conns.remove(&event.fd) {
                    if event.error && !event.readable && !event.writable {
                        self.drop_conn_state(&mut conn);
                    } else {
                        if event.readable {
                            let t = Instant::now();
                            self.read_and_serve(&mut conn, event.fd, now);
                            self.app.on_phase(ReactorPhase::Read, t.elapsed());
                        }
                        if event.writable && !conn.dead {
                            let t = Instant::now();
                            flush(&mut conn, now);
                            self.app.on_phase(ReactorPhase::Write, t.elapsed());
                        }
                    }
                    self.conns.insert(event.fd, conn);
                }
            }
            self.deliver_completions();
            self.expire(Instant::now());
            self.sweep();
        }
        // Exit: tear down whatever is still open.
        for (_, mut conn) in std::mem::take(&mut self.conns) {
            self.drop_conn_state(&mut conn);
            self.gauges.bump_closed();
        }
    }

    /// First iteration after a shutdown request: close the listener and
    /// mark every connection for drain (serve admitted slots, read no
    /// more).
    fn begin_drain(&mut self) {
        if self.listener.take().is_some() {
            for conn in self.conns.values_mut() {
                conn.close_after = true;
                conn.buf.clear(); // anything unparsed is, by definition, not admitted
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.gauges.bump_accepted();
                    if stream.set_nonblocking(true).is_err() {
                        self.gauges.bump_closed();
                        continue;
                    }
                    // Keep-alive request/response exchanges are small;
                    // Nagle+delayed-ACK would add ~40 ms per turn.
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let mut conn = Conn::new(stream, now);
                    if self.conns.len() >= self.options.max_connections {
                        self.gauges.bump_rejected_over_capacity();
                        conn.slots.push_back(Slot::Ready {
                            bytes: Response::error(503, "connection limit reached").encode(true),
                        });
                        conn.close_after = true;
                    }
                    flush(&mut conn, now);
                    if conn.dead || (conn.close_after && conn.slots.is_empty()) {
                        self.gauges.bump_closed();
                    } else {
                        self.conns.insert(fd, conn);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept failure; retry on next event
            }
        }
    }

    /// Drain the socket, parse every complete pipelined request, dispatch
    /// each, and opportunistically flush.
    fn read_and_serve(&mut self, conn: &mut Conn, fd: RawFd, now: Instant) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // Peer EOF: close immediately. Outstanding shared work
                    // keeps running; delivery to this connection becomes a
                    // no-op (waiter-disconnect must not cancel a solve).
                    self.drop_conn_state(conn);
                    return;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn_state(conn);
                    return;
                }
            }
        }
        while !conn.close_after && !conn.buf.is_empty() {
            match http::parse_request(&conn.buf) {
                Ok(Parsed::Partial) => break,
                Ok(Parsed::Complete { request, consumed }) => {
                    conn.buf.drain(..consumed);
                    let close = !request.keep_alive;
                    let id = self.next_waiter;
                    self.next_waiter += 1;
                    let dispatched_at = Instant::now();
                    let dispatch = self.app.handle(&request, id);
                    self.app
                        .on_phase(ReactorPhase::Dispatch, dispatched_at.elapsed());
                    match dispatch {
                        Dispatch::Immediate(response) => {
                            conn.slots.push_back(Slot::Ready {
                                bytes: response.encode(close),
                            });
                        }
                        Dispatch::Pending => {
                            self.pending.insert(id, fd);
                            conn.slots.push_back(Slot::Pending {
                                id,
                                deadline: now + self.options.pending_timeout,
                                started: now,
                                close,
                            });
                        }
                    }
                    if close {
                        conn.close_after = true; // later pipelined bytes are ignored
                    }
                }
                Err(e) => {
                    // Framing is lost; answer once and close.
                    conn.slots.push_back(Slot::Ready {
                        bytes: self.app.on_parse_error(&e).encode(true),
                    });
                    conn.close_after = true;
                    conn.buf.clear();
                }
            }
        }
        flush(conn, now);
    }

    /// Release a connection's reactor state: forget its pending waiters
    /// (their completions will be dropped on arrival).
    fn drop_conn_state(&mut self, conn: &mut Conn) {
        if !conn.dead {
            conn.dead = true;
            for slot in &conn.slots {
                if let Slot::Pending { id, .. } = slot {
                    self.pending.remove(id);
                }
            }
            conn.slots.clear();
        }
    }

    fn deliver_completions(&mut self) {
        let now = Instant::now();
        for completion in self.completions.drain() {
            let Completion { waiters, response } = completion;
            for id in waiters {
                let Some(fd) = self.pending.remove(&id) else {
                    continue; // timed out or disconnected; drop silently
                };
                let Some(conn) = self.conns.get_mut(&fd) else {
                    continue;
                };
                for slot in conn.slots.iter_mut() {
                    if let Slot::Pending {
                        id: slot_id,
                        started,
                        close,
                        ..
                    } = slot
                    {
                        if *slot_id == id {
                            self.app.on_delivered(response.status, started.elapsed());
                            *slot = Slot::Ready {
                                bytes: response.encode(*close),
                            };
                            break;
                        }
                    }
                }
                let t = Instant::now();
                flush(conn, now);
                self.app.on_phase(ReactorPhase::Write, t.elapsed());
            }
        }
    }

    /// Convert overdue pending slots into the app's timeout response and
    /// reap idle connections (never ones with outstanding slots).
    fn expire(&mut self, now: Instant) {
        let stopping = self.stopping.load(Ordering::SeqCst);
        let mut timed_out: Vec<u64> = Vec::new();
        for conn in self.conns.values_mut() {
            for slot in conn.slots.iter_mut() {
                if let Slot::Pending {
                    id,
                    deadline,
                    close,
                    ..
                } = slot
                {
                    if *deadline <= now {
                        timed_out.push(*id);
                        let response = self.app.on_timeout(*id);
                        *slot = Slot::Ready {
                            bytes: response.encode(*close),
                        };
                    }
                }
            }
            if !timed_out.is_empty() {
                flush(conn, now);
            }
            if !stopping
                && conn.slots.is_empty()
                && now.duration_since(conn.last_activity) >= self.options.idle_timeout
            {
                conn.dead = true;
            }
        }
        for id in timed_out {
            self.pending.remove(&id);
        }
    }

    /// Close finished connections: dead ones, and drained ones that are
    /// closing or that the shutdown is waiting on.
    fn sweep(&mut self) {
        let stopping = self.stopping.load(Ordering::SeqCst);
        let dead: Vec<RawFd> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                let drained = conn.slots.is_empty() && !conn.want_write;
                conn.dead || (drained && (conn.close_after || stopping))
            })
            .map(|(&fd, _)| fd)
            .collect();
        for fd in dead {
            if let Some(mut conn) = self.conns.remove(&fd) {
                self.drop_conn_state(&mut conn);
                self.gauges.bump_closed();
            }
        }
    }

    /// The earliest instant anything scheduled needs attention: pending
    /// deadlines always; idle deadlines only while not stopping.
    fn next_deadline(&self) -> Option<Instant> {
        let stopping = self.stopping.load(Ordering::SeqCst);
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| {
            next = Some(match next {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        };
        for conn in self.conns.values() {
            for slot in &conn.slots {
                if let Slot::Pending { deadline, .. } = slot {
                    consider(*deadline);
                }
            }
            if !stopping && conn.slots.is_empty() {
                consider(conn.last_activity + self.options.idle_timeout);
            }
        }
        next
    }
}

/// Write as much of the ready head slots as the socket accepts. A pending
/// head stops the pump (pipelined order); an empty queue on a
/// `close_after` connection marks it finished.
fn flush(conn: &mut Conn, now: Instant) {
    if conn.dead {
        return;
    }
    loop {
        let done = match conn.slots.front() {
            Some(Slot::Ready { bytes }) => {
                while conn.written < bytes.len() {
                    match (&conn.stream).write(&bytes[conn.written..]) {
                        Ok(0) => {
                            conn.dead = true;
                            return;
                        }
                        Ok(n) => {
                            conn.written += n;
                            conn.last_activity = now;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            conn.want_write = true;
                            return;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.dead = true;
                            return;
                        }
                    }
                }
                true // the loop only exits early via `return`
            }
            Some(Slot::Pending { .. }) | None => {
                conn.want_write = false;
                if conn.slots.is_empty() && conn.close_after {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    conn.dead = true;
                }
                return;
            }
        };
        if done {
            conn.slots.pop_front();
            conn.written = 0;
            conn.want_write = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const BOTH: i16 = POLLIN | POLLOUT;

    /// One wait over the single descriptor `fd`.
    fn wait_on(fd: RawFd, interest: i16, timeout: Duration) -> Vec<Event> {
        let mut set = PollSet::default();
        let mut events = Vec::new();
        set.push(fd, interest);
        set.wait(&mut events, Some(timeout)).unwrap();
        assert!(set.fds.is_empty(), "a wait empties the set");
        events
    }

    #[test]
    fn poll_set_reports_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();

        // Nothing to read yet, but the socket is writable.
        let events = wait_on(fd, BOTH, Duration::from_millis(500));
        let ev = events
            .iter()
            .find(|e| e.fd == fd)
            .expect("no event for the connected socket");
        assert!(ev.writable, "fresh socket must be writable");
        assert!(!ev.readable, "nothing was sent yet");

        // After the peer writes, readable must fire.
        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wait_on(fd, BOTH, Duration::from_millis(100))
            .iter()
            .any(|e| e.fd == fd && e.readable)
        {
            assert!(Instant::now() < deadline, "readable never fired");
        }

        // Read-only interest must not report writable.
        let events = wait_on(fd, POLLIN, Duration::from_millis(100));
        assert!(
            events.iter().all(|e| e.fd != fd || !e.writable),
            "writable reported without write interest"
        );

        // Peer hangup reads as readable, so the owner observes EOF.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut sink = [0u8; 16];
        loop {
            let events = wait_on(fd, POLLIN, Duration::from_millis(100));
            if events.iter().any(|e| e.fd == fd && e.readable)
                && (&server).read(&mut sink).ok() == Some(0)
            {
                break;
            }
            assert!(Instant::now() < deadline, "EOF never surfaced");
        }
    }

    #[test]
    fn wake_pipe_unblocks_polling() {
        let completions = Completions::new().unwrap();
        let reader = completions.take_reader().unwrap();

        let remote = Arc::clone(&completions);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.complete(Completion {
                waiters: vec![7],
                response: Response::error(504, "x"),
            });
        });
        let started = Instant::now();
        let events = wait_on(reader.as_raw_fd(), POLLIN, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake did not unblock the poll"
        );
        assert!(events
            .iter()
            .any(|e| e.fd == reader.as_raw_fd() && e.readable));
        waker.join().unwrap();
        let drained = completions.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].waiters, vec![7]);
        assert!(completions.drain().is_empty());
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1500))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }

    #[test]
    fn completions_reader_is_single_take() {
        let completions = Completions::new().unwrap();
        assert!(completions.take_reader().is_some());
        assert!(completions.take_reader().is_none());
    }
}
