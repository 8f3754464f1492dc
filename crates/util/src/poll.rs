//! Readiness polling — a thin `epoll` wrapper for event-driven I/O.
//!
//! `casted-serve`'s connection layer is event-driven: one thread owns
//! every socket, sleeps in the kernel until something is actually
//! readable/writable, and never spins or `thread::sleep`-polls. The
//! workspace is hermetic (no `libc`, no `mio`), so the `epoll` calls
//! are made directly via raw syscalls with `core::arch::asm!` on the
//! two Linux architectures the project targets (x86_64, aarch64).
//!
//! On any other target [`Poller::new`] returns
//! [`std::io::ErrorKind::Unsupported`], so the workspace still builds
//! everywhere, but there is no fallback: `casted-serve` refuses to
//! start.
//!
//! ## Model
//!
//! * Sockets are registered **level-triggered** under a caller-chosen
//!   `u64` token with a read/write [`Interest`].
//! * [`Poller::wait`] blocks until at least one registered socket is
//!   ready (or the timeout expires) and appends [`Event`]s.
//! * A [`Notifier`] (a `UnixStream` pair registered internally) wakes
//!   `wait` from any thread — the worker-pool → event-loop reply path.
//!   Wakeups are drained inside `wait` and never surface as events.
//!
//! Level-triggered readiness keeps the state machine simple: a socket
//! with unread bytes keeps reporting readable, so a short read never
//! strands data, and write interest is only registered while a
//! connection has queued output (otherwise `EPOLLOUT` would
//! busy-report on every idle socket).

/// What readiness to watch a socket for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Readable only (the steady state of an idle connection).
    Read,
    /// Readable + writable (a connection with queued output).
    ReadWrite,
}

/// One readiness event from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: u64,
    /// Socket has bytes to read (or a pending accept).
    pub readable: bool,
    /// Socket can accept more output.
    pub writable: bool,
    /// Peer closed or the socket errored; the connection is dead
    /// either way — read until EOF and drop it.
    pub closed: bool,
}

pub use sys::{Notifier, Poller};

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    // ---- raw syscalls (no libc in a hermetic workspace) -----------

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    // The kernel packs `epoll_event` on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0x80000;

    /// Reserved token for the internal wakeup pipe; never surfaced.
    const NOTIFY_TOKEN: u64 = u64::MAX;

    /// An epoll instance plus the internal wakeup pair.
    pub struct Poller {
        epfd: RawFd,
        /// Read end of the wakeup pair (drained inside `wait`).
        wake_rx: UnixStream,
        /// Write end, cloned into [`Notifier`]s.
        wake_tx: UnixStream,
    }

    /// Wakes a [`Poller::wait`] from any thread.
    #[derive(Clone, Debug)]
    pub struct Notifier {
        tx: std::sync::Arc<UnixStream>,
    }

    impl Notifier {
        /// Wake the poller. A full pipe means a wakeup is already
        /// pending, which is all a wakeup means — safe to ignore.
        pub fn notify(&self) {
            use std::io::Write;
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    fn interest_bits(i: Interest) -> u32 {
        match i {
            Interest::Read => EPOLLIN | EPOLLRDHUP,
            Interest::ReadWrite => EPOLLIN | EPOLLOUT | EPOLLRDHUP,
        }
    }

    impl Poller {
        /// Create an epoll instance with an internal wakeup channel.
        pub fn new() -> io::Result<Poller> {
            let epfd = check(unsafe {
                syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0)
            })? as RawFd;
            let poller = |epfd| -> io::Result<Poller> {
                let (wake_rx, wake_tx) = UnixStream::pair()?;
                wake_rx.set_nonblocking(true)?;
                wake_tx.set_nonblocking(true)?;
                let p = Poller { epfd, wake_rx, wake_tx };
                p.ctl(EPOLL_CTL_ADD, p.wake_rx.as_raw_fd(), EPOLLIN, NOTIFY_TOKEN)?;
                Ok(p)
            };
            poller(epfd).map_err(|e| {
                unsafe { syscall6(nr::CLOSE, epfd as usize, 0, 0, 0, 0, 0) };
                e
            })
        }

        /// A cloneable handle that wakes [`Poller::wait`].
        pub fn notifier(&self) -> io::Result<Notifier> {
            Ok(Notifier {
                tx: std::sync::Arc::new(self.wake_tx.try_clone()?),
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let ev = EpollEvent { events, data: token };
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    &ev as *const EpollEvent as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        /// Register a socket under `token` with `interest`.
        pub fn add(&self, sock: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, sock.as_raw_fd(), interest_bits(interest), token)
        }

        /// Change a registered socket's interest (e.g. enable write
        /// readiness while output is queued).
        pub fn modify(&self, sock: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, sock.as_raw_fd(), interest_bits(interest), token)
        }

        /// Deregister a socket. Dropping the socket also deregisters
        /// it, but an explicit remove keeps stale events out of the
        /// queue when the fd number is about to be reused.
        pub fn remove(&self, sock: &impl AsRawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, sock.as_raw_fd(), 0, 0)
        }

        /// Block until a registered socket is ready or `timeout`
        /// expires (`None` = forever); append events to `out`.
        /// Internal wakeups are drained and not reported — a wakeup
        /// with no other ready socket returns with `out` unchanged.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout_ms: isize = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as isize,
            };
            let n = loop {
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.epfd as usize,
                        buf.as_mut_ptr() as usize,
                        buf.len(),
                        timeout_ms as usize,
                        0, // no sigmask
                        8, // sigsetsize
                    )
                };
                match check(ret) {
                    Ok(n) => break n,
                    // Interrupted by a signal: retry (the caller's
                    // timeout semantics stay approximate, which is all
                    // the serve loop needs).
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                let token = ev.data;
                if token == NOTIFY_TOKEN {
                    // Drain the wakeup pipe; its only job was to
                    // interrupt the kernel sleep.
                    use std::io::Read;
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    continue;
                }
                let bits = ev.events;
                out.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    /// Stub poller for targets without the epoll backend; construction
    /// fails with [`io::ErrorKind::Unsupported`] and callers take the
    /// portable readiness-thread path instead.
    pub struct Poller {
        _private: (),
    }

    /// Stub notifier (never constructed — [`Poller::new`] fails).
    #[derive(Clone, Debug)]
    pub struct Notifier {
        _private: (),
    }

    impl Notifier {
        /// No-op on the stub.
        pub fn notify(&self) {}
    }

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "event-driven polling is only available on Linux x86_64/aarch64",
        ))
    }

    impl Poller {
        /// Always fails on this target.
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        /// Unreachable on the stub (a `Poller` cannot be built).
        pub fn notifier(&self) -> io::Result<Notifier> {
            unsupported()
        }

        /// Unreachable on the stub.
        pub fn add<S>(&self, _sock: &S, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable on the stub.
        pub fn modify<S>(&self, _sock: &S, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable on the stub.
        pub fn remove<S>(&self, _sock: &S) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable on the stub.
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<()> {
            unsupported()
        }
    }
}

#[cfg(all(test, target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn listener_reports_readable_on_pending_accept() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(&listener, 7, Interest::Read).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(std::time::Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "no connection yet: {events:?}");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, Some(std::time::Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending accept must surface as readable: {events:?}"
        );
    }

    #[test]
    fn stream_readable_writable_and_close_events() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.add(&server_side, 42, Interest::ReadWrite).unwrap();

        // A fresh socket is writable but not readable.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(std::time::Duration::from_secs(5))).unwrap();
        let ev = events.iter().find(|e| e.token == 42).expect("event for stream");
        assert!(ev.writable && !ev.readable, "{ev:?}");

        // Bytes from the peer flip it readable (level-triggered: the
        // event repeats until the bytes are consumed).
        client.write_all(b"ping").unwrap();
        for _ in 0..2 {
            events.clear();
            poller.wait(&mut events, Some(std::time::Duration::from_secs(5))).unwrap();
            assert!(events.iter().any(|e| e.token == 42 && e.readable), "{events:?}");
        }
        let mut buf = [0u8; 8];
        let n = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Peer close surfaces as a closed event.
        drop(client);
        events.clear();
        poller.wait(&mut events, Some(std::time::Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.closed), "{events:?}");
    }

    #[test]
    fn write_interest_is_togglable() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        poller.add(&server_side, 1, Interest::Read).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(std::time::Duration::from_millis(50))).unwrap();
        assert!(
            !events.iter().any(|e| e.token == 1 && e.writable),
            "read-only interest must not report writable: {events:?}"
        );

        poller.modify(&server_side, 1, Interest::ReadWrite).unwrap();
        events.clear();
        poller.wait(&mut events, Some(std::time::Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "{events:?}");

        poller.remove(&server_side).unwrap();
        events.clear();
        poller.wait(&mut events, Some(std::time::Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "removed socket must be silent: {events:?}");
    }

    #[test]
    fn notifier_wakes_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let notifier = poller.notifier().unwrap();
        let start = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            notifier.notify();
        });
        let mut events = Vec::new();
        // Without the wakeup this would sleep the full 10 s.
        poller.wait(&mut events, Some(std::time::Duration::from_secs(10))).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        assert!(events.is_empty(), "wakeups are internal: {events:?}");
        handle.join().unwrap();
    }
}
