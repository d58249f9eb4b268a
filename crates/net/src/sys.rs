//! Thin Linux syscall bindings: `epoll`, `eventfd`, `SO_REUSEPORT`,
//! `sendmmsg`.
//!
//! Every `unsafe` block in this crate lives in this module. The rest of
//! the crate (and the workspace) stays `deny(unsafe_code)`; what is
//! exported from here is a small **safe** surface:
//!
//! * [`Epoll`] — an epoll instance: register interest in fd readability,
//!   block in `epoll_wait` until an fd is readable or a timeout passes.
//!   This is what lets the [`crate::rt`] executor sleep until a UDP
//!   datagram actually arrives instead of re-polling sockets on a
//!   100 µs–1 ms timer.
//! * [`EventFd`] — a kernel event counter registered in the epoll set so
//!   *other threads* can interrupt the executor's sleep (a sharded
//!   worker's stop signal in [`crate::shard`] needs this).
//! * [`bind_reuseport`] — a UDP socket bound with `SO_REUSEPORT`, so N
//!   worker shards can share one daemon address, and [`steer_reuseport`],
//!   which has the kernel pick each datagram's socket in that group.
//! * [`send_batch`] — many datagrams, to IPv4 and IPv6 destinations
//!   alike, in one `sendmmsg(2)` per 1 024, each refusal reported by the
//!   datagram's index. A burst of x-packets or z-combos leaves the node
//!   in one system call, and the peer's socket receives it back to back.
//!
//! The bindings are declarations of the libc symbols every Rust binary
//! already links; no new dependency is introduced. On non-Linux targets
//! the same API exists but [`Epoll::new`] / [`EventFd::new`] report
//! `Unsupported` (callers fall back to the timer bridge),
//! [`bind_reuseport`] degrades to a plain bind, [`steer_reuseport`]
//! reports `Unsupported` and [`send_batch`] loops `UdpSocket::send_to`.

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams one `sendmmsg(2)` takes (`UIO_MAXIOV`); [`send_batch`]
/// sends longer batches in chunks of this size.
pub const SEND_BATCH_MAX: usize = 1024;

/// What one [`send_batch`] did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BatchSent {
    /// System calls made.
    pub calls: u64,
    /// Indices of the datagrams the kernel refused, ascending.
    pub refused: Vec<usize>,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;
    use std::ffi::c_void;
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    // Linux UAPI constants (x86-64 values; identical on every Linux
    // architecture this workspace targets).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;
    const SO_ATTACH_REUSEPORT_CBPF: i32 = 51;
    const EINTR: i32 = 4;
    const EAGAIN: i32 = 11;

    /// `struct epoll_event`. On x86 the kernel ABI packs it to 12 bytes;
    /// elsewhere it is the natural 16-byte layout.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct sock_filter`: one classic BPF instruction.
    #[repr(C)]
    struct SockFilter {
        code: u16,
        jt: u8,
        jf: u8,
        k: u32,
    }

    /// `struct sock_fprog`: a classic BPF program.
    #[repr(C)]
    struct SockFprog {
        len: u16,
        filter: *const SockFilter,
    }

    /// `struct sockaddr_in` (16 bytes).
    #[derive(Clone, Copy)]
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6` (28 bytes).
    #[derive(Clone, Copy)]
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port_be: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    /// Either address family; [`sockaddr`] pairs it with the length the
    /// kernel reads of it.
    #[repr(C)]
    union SockAddr {
        v4: SockAddrIn,
        v6: SockAddrIn6,
    }

    fn sockaddr_in(v4: &std::net::SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET as u16,
            port_be: v4.port().to_be(),
            addr_be: u32::from_ne_bytes(v4.ip().octets()),
            zero: [0; 8],
        }
    }

    /// `addr` as the kernel reads it, and its length. The fields are the
    /// ones `UdpSocket::send_to` passes.
    fn sockaddr(addr: &SocketAddr) -> (SockAddr, u32) {
        match addr {
            SocketAddr::V4(v4) => {
                (SockAddr { v4: sockaddr_in(v4) }, size_of::<SockAddrIn>() as u32)
            }
            SocketAddr::V6(v6) => {
                let v6 = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port_be: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                (SockAddr { v6 }, size_of::<SockAddrIn6>() as u32)
            }
        }
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *const c_void,
        len: usize,
    }

    /// `struct msghdr` (the kernel's `user_msghdr`: lengths are
    /// `size_t`).
    #[repr(C)]
    struct MsgHdr {
        name: *const c_void,
        namelen: u32,
        iov: *const IoVec,
        iovlen: usize,
        control: *const c_void,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`: the kernel writes each message's sent bytes
    /// into `len`.
    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const c_void, optlen: u32)
            -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, addrlen: u32) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }

    fn last_errno() -> i32 {
        io::Error::last_os_error().raw_os_error().unwrap_or(0)
    }

    /// An epoll instance plus its registration table capacity. Closes
    /// the fd on drop.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates an epoll instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a plain flag word and returns
            // a new fd or -1; no memory is passed.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        /// Registers level-triggered read interest in `fd`; `token` is
        /// returned by [`Epoll::wait`] when the fd is readable.
        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN, data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Removes `fd` from the interest set (ignores "not registered").
        pub fn del(&self, fd: RawFd) {
            // SAFETY: kernels >= 2.6.9 accept a null event for DEL, but
            // passing a real one is portable to older ABIs.
            let mut ev = EpollEvent { events: 0, data: 0 };
            let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Blocks until at least one registered fd is readable or
        /// `timeout` passes (`None`: wait indefinitely). Appends the
        /// ready tokens to `out` and returns how many were added.
        /// `EINTR` reads as a zero-event wakeup.
        pub fn wait(&self, timeout: Option<Duration>, out: &mut Vec<u64>) -> io::Result<usize> {
            // Round up: waking *before* the earliest timer deadline
            // would spin (the executor would see nothing due and sleep
            // again for 0 ms).
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            // SAFETY: `events` is a valid writable buffer of 64 entries
            // and maxevents matches its length.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), 64, timeout_ms) };
            if n < 0 {
                if last_errno() == EINTR {
                    return Ok(0);
                }
                return Err(io::Error::last_os_error());
            }
            for ev in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct by value.
                let token = ev.data;
                out.push(token);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is an fd this struct owns exclusively.
            let _ = unsafe { close(self.fd) };
        }
    }

    /// A kernel event counter (`eventfd`), nonblocking. Registered in an
    /// [`Epoll`] set it becomes a cross-thread "wake the sleeper" doorbell:
    /// [`EventFd::signal`] from any thread makes the fd readable, which
    /// pops the sleeping thread out of `epoll_wait`; the woken side
    /// [`EventFd::drain`]s the counter back to zero.
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// Creates a nonblocking eventfd.
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: plain flag arguments; returns a new fd or -1.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        /// The raw fd, for epoll registration.
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Increments the counter, making the fd readable. Callable from
        /// any thread; a full counter (`EAGAIN`) already means "signaled"
        /// and is not an error.
        pub fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writes exactly 8 bytes from a live stack value,
            // the only width eventfd accepts.
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Resets the counter to zero (consumes all pending signals).
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            loop {
                // SAFETY: reads exactly 8 bytes into a live stack value.
                let n = unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
                if n == 8 {
                    continue; // counter was nonzero; check for a race
                }
                if n < 0 && last_errno() == EINTR {
                    continue;
                }
                break; // EAGAIN (drained) or any other condition
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is an fd this struct owns exclusively.
            let _ = unsafe { close(self.fd) };
        }
    }

    /// Binds a UDP socket to `addr` with `SO_REUSEPORT`, so several
    /// sockets (one per worker shard) can share the address. IPv4 only —
    /// everything this workspace binds is `127.0.0.1`/`0.0.0.0`.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "bind_reuseport: IPv4 addresses only",
            ));
        };
        // SAFETY: plain arguments; returns a new fd or -1.
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here on the fd must be closed on every error path; wrap
        // it immediately so drop handles that.
        // SAFETY: `fd` is a fresh, owned datagram socket.
        let sock = unsafe { UdpSocket::from_raw_fd(fd) };
        let on: i32 = 1;
        let on_ptr: *const i32 = &on;
        // SAFETY: passes a 4-byte option value the kernel copies.
        let rc =
            unsafe { setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_REUSEPORT, on_ptr.cast(), 4) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let sa = sockaddr_in(&v4);
        // SAFETY: `sa` is a properly initialized sockaddr_in and the
        // length matches its size.
        let rc = unsafe { bind(sock.as_raw_fd(), &sa, std::mem::size_of::<SockAddrIn>() as u32) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sock)
    }

    /// Attaches `ld b[offset]; and #mask; mod #modulus; ret a` to the
    /// `SO_REUSEPORT` group of the bound socket `fd`
    /// (`SO_ATTACH_REUSEPORT_CBPF`, socket(7)): each datagram goes to the
    /// socket with that index, computed from its UDP payload. Sockets are
    /// numbered in bind order, closing one moves the last into its slot,
    /// and an index out of range falls back to the 4-tuple hash.
    pub fn steer_reuseport(fd: RawFd, offset: u32, mask: u32, modulus: u32) -> io::Result<()> {
        let insn = |code, k| SockFilter { code, jt: 0, jf: 0, k };
        // BPF_LD|BPF_B|BPF_ABS, BPF_ALU|BPF_AND|BPF_K, BPF_ALU|BPF_MOD|BPF_K, BPF_RET|BPF_A
        let program = [insn(0x30, offset), insn(0x54, mask), insn(0x94, modulus), insn(0x16, 0)];
        let fprog = SockFprog { len: program.len() as u16, filter: program.as_ptr() };
        let fprog_ptr: *const SockFprog = &fprog;
        let (opt, size) = (SO_ATTACH_REUSEPORT_CBPF, size_of::<SockFprog>() as u32);
        // SAFETY: `fprog` and the `program` it points at live across the
        // call; the kernel copies and validates the program before it returns.
        let rc = unsafe { setsockopt(fd, SOL_SOCKET, opt, fprog_ptr.cast(), size) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Sends each `(bytes, to)` datagram from `socket`, in order, in one
    /// `sendmmsg(2)` per [`SEND_BATCH_MAX`]. A datagram the kernel refuses
    /// (full send buffer, unreachable or invalid destination) is
    /// reported by its index and skipped; the rest still go.
    pub fn send_batch(socket: &UdpSocket, datagrams: &[(&[u8], SocketAddr)]) -> BatchSent {
        let mut sent = BatchSent::default();
        for (chunk, part) in datagrams.chunks(SEND_BATCH_MAX).enumerate() {
            let names: Vec<(SockAddr, u32)> = part.iter().map(|(_, to)| sockaddr(to)).collect();
            let iovs: Vec<IoVec> =
                part.iter().map(|(b, _)| IoVec { base: b.as_ptr().cast(), len: b.len() }).collect();
            let mut msgs: Vec<MMsgHdr> = names
                .iter()
                .zip(&iovs)
                .map(|((name, namelen), iov)| MMsgHdr {
                    hdr: MsgHdr {
                        name: (name as *const SockAddr).cast(),
                        namelen: *namelen,
                        iov,
                        iovlen: 1,
                        control: std::ptr::null(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                })
                .collect();
            let mut next = 0;
            while next < msgs.len() {
                let rest = &mut msgs[next..];
                let (fd, msgvec, vlen) = (socket.as_raw_fd(), rest.as_mut_ptr(), rest.len());
                // SAFETY: `msgvec` is `vlen` (≤ SEND_BATCH_MAX) live, writable
                // headers, each pointing at a name in `names` and an iovec in
                // `iovs` over a datagram of `datagrams`; all outlive the call.
                let rc = unsafe { sendmmsg(fd, msgvec, vlen as u32, 0) };
                sent.calls += 1;
                if rc > 0 {
                    next += rc as usize;
                } else if rc < 0 && last_errno() == EINTR {
                    continue;
                } else {
                    // The first datagram was refused: its own error comes
                    // back, where one after it ends the call short and
                    // comes back on the next call.
                    sent.refused.push(chunk * SEND_BATCH_MAX + next);
                    next += 1;
                }
            }
        }
        sent
    }

    // EAGAIN is referenced for documentation symmetry with drain().
    const _: i32 = EAGAIN;
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "epoll is Linux-only")
    }

    /// Stub: epoll is unavailable off Linux; callers fall back to the
    /// adaptive re-poll timer bridge.
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always fails off Linux.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: i32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn del(&self, _fd: i32) {}

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _timeout: Option<Duration>, _out: &mut Vec<u64>) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub eventfd; always fails to construct off Linux.
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        /// Always fails off Linux.
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn raw_fd(&self) -> i32 {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn signal(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }

    /// Off Linux: a plain bind (no port sharing — multi-worker shards on
    /// one address are a Linux deployment feature).
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        UdpSocket::bind(addr)
    }

    /// Off Linux: no socket group to steer.
    pub fn steer_reuseport(_fd: i32, _offset: u32, _mask: u32, _modulus: u32) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "reuseport steering is Linux-only"))
    }

    /// Off Linux: one `send_to` per datagram.
    pub fn send_batch(socket: &UdpSocket, datagrams: &[(&[u8], SocketAddr)]) -> BatchSent {
        let mut sent = BatchSent::default();
        for (i, (bytes, to)) in datagrams.iter().enumerate() {
            sent.calls += 1;
            if socket.send_to(bytes, to).is_err() {
                sent.refused.push(i);
            }
        }
        sent
    }
}

pub use imp::{bind_reuseport, send_batch, steer_reuseport, Epoll, EventFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_udp_readability() {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let ep = Epoll::new().expect("epoll");
        ep.add(b.as_raw_fd(), 7).expect("add");

        // Nothing sent yet: a zero timeout returns no events.
        let mut out = Vec::new();
        let n = ep.wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert_eq!(n, 0);

        a.send_to(b"ping", b.local_addr().expect("addr")).expect("send");
        let n = ep.wait(Some(Duration::from_secs(2)), &mut out).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn eventfd_signals_through_epoll_across_threads() {
        let efd = std::sync::Arc::new(EventFd::new().expect("eventfd"));
        let ep = Epoll::new().expect("epoll");
        ep.add(efd.raw_fd(), 42).expect("add");

        let efd2 = efd.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            efd2.signal();
        });
        let mut out = Vec::new();
        let n = ep.wait(Some(Duration::from_secs(2)), &mut out).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(out, vec![42]);
        efd.drain();
        // Drained: an immediate re-wait sees nothing.
        out.clear();
        let n = ep.wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert_eq!(n, 0);
        t.join().expect("signaler");
    }

    /// Every datagram of `expect` arrives at `rx`, bytes intact, in order.
    fn assert_receives(rx: &UdpSocket, expect: &[&[u8]]) {
        rx.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let mut buf = [0u8; 64];
        for want in expect {
            let (n, _) = rx.recv_from(&mut buf).expect("datagram");
            assert_eq!(&buf[..n], *want);
        }
    }

    /// One batch to two peers on `host`'s loopback, interleaved: each
    /// peer receives its own datagrams in batch order, in one call.
    fn round_trip(host: &str) {
        let bind = |h: &str| UdpSocket::bind(format!("{h}:0")).expect("bind");
        let (tx, a, b) = (bind(host), bind(host), bind(host));
        let (to_a, to_b) = (a.local_addr().expect("addr"), b.local_addr().expect("addr"));
        let batch: Vec<(&[u8], SocketAddr)> =
            vec![(b"a0", to_a), (b"b0", to_b), (b"a1", to_a), (b"b1", to_b), (b"a2", to_a)];
        assert_eq!(send_batch(&tx, &batch), BatchSent { calls: 1, refused: vec![] });
        assert_receives(&a, &[b"a0", b"a1", b"a2"]);
        assert_receives(&b, &[b"b0", b"b1"]);
    }

    #[test]
    fn send_batch_round_trips_over_ipv4() {
        round_trip("127.0.0.1");
    }

    #[test]
    fn send_batch_round_trips_over_ipv6() {
        round_trip("[::1]");
    }

    #[test]
    fn send_batch_reports_each_refusal_and_sends_the_rest() {
        let (tx, rx) = (
            UdpSocket::bind("127.0.0.1:0").expect("tx"),
            UdpSocket::bind("127.0.0.1:0").expect("rx"),
        );
        let (to, bogus) = (rx.local_addr().expect("addr"), "127.0.0.1:0".parse().expect("addr"));
        let batch: Vec<(&[u8], SocketAddr)> =
            vec![(b"0", to), (b"x", bogus), (b"x", bogus), (b"3", to)];
        let sent = send_batch(&tx, &batch);
        assert_eq!(sent.refused, vec![1, 2]);
        assert_receives(&rx, &[b"0", b"3"]);
    }

    #[test]
    fn send_batch_splits_at_the_kernel_limit() {
        let (tx, rx) = (
            UdpSocket::bind("127.0.0.1:0").expect("tx"),
            UdpSocket::bind("127.0.0.1:0").expect("rx"),
        );
        let to = rx.local_addr().expect("addr");
        let batch: Vec<(&[u8], SocketAddr)> = vec![(b"z", to); SEND_BATCH_MAX + 1];
        assert_eq!(send_batch(&tx, &batch), BatchSent { calls: 2, refused: vec![] });
    }

    #[test]
    fn reuseport_allows_two_binds_on_one_port() {
        let first = bind_reuseport("127.0.0.1:0".parse().expect("addr")).expect("first");
        let addr = first.local_addr().expect("addr");
        let second = bind_reuseport(addr).expect("second bind on same port");
        assert_eq!(second.local_addr().expect("addr").port(), addr.port());
    }
}
