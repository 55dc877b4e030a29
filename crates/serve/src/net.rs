//! Transport abstraction: the daemon speaks identical `ctbia-serve-v1`
//! envelopes over a Unix domain socket and a TCP listener, so connection
//! handling is generic over a small `Conn` trait implemented for both
//! stream types.
//!
//! The module also owns [`bind_tcp`], the TCP twin of the UDS
//! stale-socket reclaim: the first bind attempt deliberately does *not*
//! set `SO_REUSEADDR`, so a lingering `TIME_WAIT` owner surfaces as
//! `EADDRINUSE` exactly like a stale socket file. Only after a connect
//! probe proves no live daemon is accepting do we rebind with
//! `SO_REUSEADDR` and reclaim the port. Binding eagerly with
//! `SO_REUSEADDR` (what `std::net::TcpListener::bind` always does on
//! Unix) would skip the probe and could race a daemon mid-restart.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// How long the reclaim probe waits for a live daemon to answer.
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// A bidirectional byte stream the server can serve `ctbia-serve-v1` on.
///
/// Both halves of a connection (reader thread, writer thread) need their
/// own handle, hence `try_clone_conn`; the reader polls with a read
/// timeout so it can notice shutdown, hence `set_read_timeout_conn`.
pub(crate) trait Conn: Read + Write + Send + Sized + 'static {
    /// A second independently-owned handle to the same connection.
    fn try_clone_conn(&self) -> io::Result<Self>;
    /// Read timeout used by the reader poll loop.
    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// A listener yielding [`Conn`] streams; lets one accept loop serve both
/// transports.
pub(crate) trait ConnListener: Send + 'static {
    /// The stream type this listener accepts.
    type Stream: Conn;
    /// Accepts one connection, tuned for the protocol (TCP disables
    /// Nagle so single-line request/response turns are not delayed).
    fn accept_conn(&self) -> io::Result<Self::Stream>;
}

impl ConnListener for UnixListener {
    type Stream = UnixStream;
    fn accept_conn(&self) -> io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl ConnListener for TcpListener {
    type Stream = TcpStream;
    fn accept_conn(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        let _ = stream.set_nodelay(true);
        // Mark the accepted socket reusable. Linux only lets a later
        // `SO_REUSEADDR` bind step over a `TIME_WAIT` socket if that old
        // socket was *itself* marked reusable — without this, a daemon
        // that actively closed a connection would leave `TIME_WAIT`
        // debris that pins its port against the reclaim in [`bind_tcp`].
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            plain::set_reuseaddr(stream.as_raw_fd());
        }
        Ok(stream)
    }
}

/// Binds the daemon's TCP listener with probe-then-reclaim semantics.
///
/// 1. Bind **without** `SO_REUSEADDR`. A fresh port binds immediately.
/// 2. On `EADDRINUSE`, probe with a bounded `connect`. If something
///    accepts, a live daemon owns the port: fail with `AddrInUse`.
/// 3. If the probe is refused, the `EADDRINUSE` came from `TIME_WAIT`
///    debris (a recently-dead daemon); rebind with `SO_REUSEADDR` to
///    reclaim the port.
///
/// # Errors
///
/// `AddrInUse` when a live daemon answers the probe; otherwise any
/// underlying socket error.
pub fn bind_tcp(addr: &str) -> io::Result<TcpListener> {
    let parsed: SocketAddr = addr.parse().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("tcp addr {addr:?}: {e}"),
        )
    })?;
    match plain::bind_without_reuseaddr(parsed) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            match TcpStream::connect_timeout(&parsed, PROBE_TIMEOUT) {
                Ok(_) => Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{addr} is owned by a live ctbia-serve daemon"),
                )),
                Err(probe) if probe.kind() == io::ErrorKind::ConnectionRefused => {
                    // Nobody is accepting: the port is TIME_WAIT debris.
                    // std's bind sets SO_REUSEADDR on Unix, which is the
                    // reclaim we want now that the probe has failed.
                    TcpListener::bind(parsed)
                }
                Err(_) => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// The deliberately `SO_REUSEADDR`-free first bind.
///
/// `std::net::TcpListener::bind` unconditionally sets `SO_REUSEADDR` on
/// Unix, which would let the first attempt silently steal a `TIME_WAIT`
/// port and defeat the probe. The only way to observe `EADDRINUSE` there
/// is to create the socket ourselves, so this module carries the crate's
/// one unsafe exemption for the three raw calls (`socket`/`bind`/
/// `listen`) on an IPv4 address; IPv6 falls back to the std path.
#[cfg(unix)]
#[allow(unsafe_code)]
mod plain {
    use std::io;
    use std::mem::size_of;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    /// Linux x86-64/aarch64 value; other targets use the std fallback.
    #[cfg(target_os = "linux")]
    const SOCK_CLOEXEC: i32 = 0o2000000;
    #[cfg(not(target_os = "linux"))]
    const SOCK_CLOEXEC: i32 = 0;
    const BACKLOG: i32 = 128;

    /// `struct sockaddr_in` with fields pre-swapped to network order.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: [u8; 4],
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    const SO_REUSEADDR: i32 = 2;
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "linux"))]
    const SO_REUSEADDR: i32 = 0x0004;

    /// Best-effort `SO_REUSEADDR` on an accepted socket, so its eventual
    /// `TIME_WAIT` incarnation does not pin the daemon's port (see
    /// [`super::bind_tcp`]). Failure is harmless: the reclaim just
    /// degrades to waiting out `TIME_WAIT`.
    pub(crate) fn set_reuseaddr(fd: i32) {
        let one: i32 = 1;
        // SAFETY: setsockopt reads 4 bytes from `&one`, which outlives
        // the call; `fd` is a live socket owned by the caller.
        unsafe {
            setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, size_of::<i32>() as u32);
        }
    }

    pub(super) fn bind_without_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
        let v4 = match addr {
            SocketAddr::V4(v4) => v4,
            // IPv6 listeners take the std path (SO_REUSEADDR set); the
            // daemon's probe-then-reclaim guarantee is documented for
            // the IPv4 addresses it is deployed on.
            SocketAddr::V6(_) => return TcpListener::bind(addr),
        };
        // SAFETY: plain FFI into libc socket calls. The fd is closed on
        // every error path and otherwise handed to `TcpListener` via
        // `from_raw_fd`, which assumes ownership; `sa` outlives the
        // `bind` call that borrows it.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: v4.ip().octets(),
                sin_zero: [0; 8],
            };
            if bind(fd, &sa, size_of::<SockaddrIn>() as u32) != 0 {
                let e = io::Error::last_os_error();
                close(fd);
                return Err(e);
            }
            if listen(fd, BACKLOG) != 0 {
                let e = io::Error::last_os_error();
                close(fd);
                return Err(e);
            }
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

#[cfg(not(unix))]
mod plain {
    use std::io;
    use std::net::{SocketAddr, TcpListener};

    pub(super) fn bind_without_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
        TcpListener::bind(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_tcp_takes_a_fresh_port() {
        let listener = bind_tcp("127.0.0.1:0").expect("fresh bind");
        assert!(listener.local_addr().unwrap().port() != 0);
    }

    #[test]
    fn bind_tcp_refuses_a_port_with_a_live_listener() {
        let live = bind_tcp("127.0.0.1:0").expect("first bind");
        let addr = live.local_addr().unwrap();
        // Keep the accept queue serviced so the probe connects.
        let err = bind_tcp(&addr.to_string()).expect_err("live port must refuse");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(
            err.to_string().contains("live"),
            "error should name the live daemon: {err}"
        );
        drop(live);
    }

    #[test]
    fn bind_tcp_rejects_garbage_addresses() {
        let err = bind_tcp("not-an-addr").expect_err("garbage addr");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
