//! The nonblocking framed connection the event loop drives.
//!
//! `casted-serve`'s event loop (`evloop.rs`) owns each socket through
//! [`FramedConn`]: a stream registered on a [`Poller`], incremental
//! assembly of length-prefixed frames across partial reads (capped at
//! [`MAX_FRAME`]), a write buffer flushed until `WouldBlock`, and
//! write interest registered only while that buffer is nonempty
//! (level-triggered `EPOLLOUT` would otherwise report every idle
//! socket). What a frame *means* stays with the event loop's
//! per-connection job state.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

use casted_util::poll::{Interest, Poller};

use crate::protocol::{encode_response, Response, MAX_FRAME};

pub(crate) struct FramedConn {
    stream: TcpStream,
    /// Raw inbound bytes not yet assembled into a frame.
    rbuf: Vec<u8>,
    /// Outbound bytes; `wpos..` is the unwritten tail.
    wbuf: Vec<u8>,
    wpos: usize,
    write_interest: bool,
    /// Peer gone or socket failed; the owner reaps the connection.
    pub(crate) dead: bool,
    /// Assemble no more frames; go `dead` once the write buffer drains.
    pub(crate) close_after_flush: bool,
}

/// What one [`FramedConn::read`] found.
pub(crate) struct Inbound {
    /// Complete frame payloads, in arrival order.
    pub(crate) frames: Vec<Vec<u8>>,
    /// A length prefix over [`MAX_FRAME`] followed `frames`. Every byte
    /// behind it was discarded; the owner must close the connection.
    pub(crate) oversized: Option<usize>,
}

/// Accept every connection pending on a nonblocking listener.
pub(crate) fn accept_pending(listener: &TcpListener, mut each: impl FnMut(TcpStream, SocketAddr)) {
    loop {
        match listener.accept() {
            Ok((stream, addr)) => each(stream, addr),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // WouldBlock: the backlog is drained. Anything else: retry
            // on the next readiness report.
            Err(_) => return,
        }
    }
}

impl FramedConn {
    /// Make `stream` nonblocking and register it for reads under `token`.
    pub(crate) fn register(
        stream: TcpStream,
        poller: &Poller,
        token: u64,
    ) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        poller.add(&stream, token, Interest::Read)?;
        Ok(FramedConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            write_interest: false,
            dead: false,
            close_after_flush: false,
        })
    }

    pub(crate) fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Queue one length-prefixed frame for writing.
    pub(crate) fn push_frame(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    pub(crate) fn push_response(&mut self, resp: &Response) {
        self.push_frame(&encode_response(resp));
    }

    /// A client-facing side's answer to an oversized length prefix: a
    /// structured `bad frame` Err, then close — the byte stream beyond
    /// the prefix is untrustworthy.
    pub(crate) fn reject_oversized(&mut self, len: usize) {
        self.push_response(&Response::Err(format!(
            "bad frame: length {len} exceeds limit {MAX_FRAME}"
        )));
        self.close_after_flush = true;
    }

    /// Read until `WouldBlock` and assemble the complete frames. EOF or
    /// a socket error marks the connection `dead` (frames that arrived
    /// before it are still returned).
    pub(crate) fn read(&mut self) -> Inbound {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let mut inbound = Inbound {
            frames: Vec::new(),
            oversized: None,
        };
        while self.rbuf.len() >= 4 && !self.close_after_flush {
            let len = u32::from_le_bytes([self.rbuf[0], self.rbuf[1], self.rbuf[2], self.rbuf[3]])
                as usize;
            if len > MAX_FRAME {
                inbound.oversized = Some(len);
                self.rbuf.clear();
                break;
            }
            if self.rbuf.len() < 4 + len {
                break; // partial frame; more bytes next readiness
            }
            inbound.frames.push(self.rbuf[4..4 + len].to_vec());
            self.rbuf.drain(..4 + len);
        }
        inbound
    }

    /// Write until clean or `WouldBlock`, then watch for writability
    /// exactly while output remains queued.
    pub(crate) fn flush(&mut self, poller: &Poller, token: u64) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.flushed() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush {
                self.dead = true;
                return;
            }
        }
        let want_write = !self.flushed();
        if want_write != self.write_interest {
            let interest = if want_write {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if poller.modify(&self.stream, token, interest).is_ok() {
                self.write_interest = want_write;
            }
        }
    }

    /// Deregister from the poller and shut the socket down.
    pub(crate) fn close(&self, poller: &Poller) {
        let _ = poller.remove(&self.stream);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
