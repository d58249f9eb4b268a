//! Nonblocking UDP for the polling runtime.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// A nonblocking UDP socket usable from [`crate::rt`] tasks.
#[derive(Debug)]
pub struct AsyncUdpSocket {
    inner: UdpSocket,
}

impl AsyncUdpSocket {
    /// Binds and switches the socket to nonblocking mode.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let inner = UdpSocket::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(AsyncUdpSocket { inner })
    }

    /// Binds with `SO_REUSEPORT` (see [`crate::sys::bind_reuseport`]):
    /// several sockets — one per worker shard — share one address, all
    /// sending with the same source address so roster validation on the
    /// remote side is indifferent to which shard sent a frame.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<Self> {
        let inner = crate::sys::bind_reuseport(addr)?;
        inner.set_nonblocking(true)?;
        Ok(AsyncUdpSocket { inner })
    }

    /// A second handle on the same socket (`dup`): the socket stays
    /// bound, and in its `SO_REUSEPORT` group, until every handle drops.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(AsyncUdpSocket { inner: self.inner.try_clone()? })
    }

    /// The raw fd, for reactor registration
    /// ([`crate::rt::register_fd_readable`]).
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.inner.as_raw_fd()
    }

    /// Non-unix: no usable fd (`-1` makes reactor registration fail
    /// harmlessly into the timer fallback).
    #[cfg(not(unix))]
    pub fn raw_fd(&self) -> i32 {
        -1
    }

    /// The bound local address (with the OS-assigned port when bound to
    /// port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Sends each `(bytes, to)` datagram, in order, in as few system
    /// calls as the kernel allows ([`crate::sys::send_batch`]). UDP sends
    /// don't meaningfully block: a full socket buffer drops a datagram,
    /// which the kernel reports as refused, like an outright send error.
    /// The retransmission layer absorbs both like any other loss, and
    /// [`crate::transport::UdpTransport`] counts each refused datagram
    /// into its send-error ledger so none vanishes.
    pub fn send_batch(&self, datagrams: &[(&[u8], SocketAddr)]) -> crate::sys::BatchSent {
        crate::sys::send_batch(&self.inner, datagrams)
    }

    /// Non-blocking receive: `Ok(None)` when no datagram is queued.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        match self.inner.recv_from(buf) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            // Linux reports ICMP port-unreachable from a previous send
            // as ECONNREFUSED on the next receive; that's not fatal for
            // a broadcast protocol — treat as "nothing received".
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_datagram_round_trip() {
        let a = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let b = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap();
        assert!(a.send_batch(&[(b"hello", b_addr)]).refused.is_empty());
        let mut buf = [0u8; 16];
        // Poll until delivery (loopback is effectively instant).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if let Some((n, from)) = b.try_recv_from(&mut buf).unwrap() {
                assert_eq!(&buf[..n], b"hello");
                assert_eq!(from, a.local_addr().unwrap());
                break;
            }
            assert!(std::time::Instant::now() < deadline, "datagram never arrived");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    #[test]
    fn empty_queue_reports_none() {
        let s = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 8];
        assert!(s.try_recv_from(&mut buf).unwrap().is_none());
    }
}
