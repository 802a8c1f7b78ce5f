//! Thin, auditable wrapper over `poll(2)`.
//!
//! The workspace vendors no crates, so the one foreign call the reactor
//! needs is declared here directly; the platform C library is already
//! linked into every Rust binary, so no build-system work is involved.
//! This is the only module in the crate allowed to use `unsafe`, and the
//! whole unsafe surface is a single syscall over a `#[repr(C)]` struct
//! the kernel treats as plain memory.
//!
//! `poll` is chosen over `epoll`/`kqueue` deliberately: it is POSIX, it
//! needs no extra kernel object to manage, and at the fleet sizes this
//! daemon targets (~10k sockets) the O(n) scan per wakeup is microseconds
//! — far below the cost of one evaluation. See DESIGN.md §3h.

/// Interest/readiness flag: readable.
pub const POLLIN: i16 = 0x001;
/// Interest/readiness flag: writable.
pub const POLLOUT: i16 = 0x004;
/// Readiness flag (output only): error condition.
pub const POLLERR: i16 = 0x008;
/// Readiness flag (output only): peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Readiness flag (output only): fd not open.
pub const POLLNVAL: i16 = 0x020;

/// One entry of the `poll(2)` fd array, layout-compatible with the C
/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: i32,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-reported readiness, filled by [`poll_fds`].
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    #[must_use]
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported any of `flags` (or a terminal
    /// condition, which poll reports regardless of the request).
    #[must_use]
    pub fn ready(&self, flags: i16) -> bool {
        self.revents & (flags | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[cfg(unix)]
mod imp {
    use super::PollFd;
    use std::io;

    // `nfds_t` is `unsigned long` on the platforms this builds for
    // (glibc/musl); the fd counts here are far below either width.
    #[allow(unsafe_code)]
    unsafe extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: core::ffi::c_int) -> i32;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses (`-1` =
    /// forever). Returns the number of ready entries; `EINTR` is folded
    /// into `Ok(0)` — the caller's loop re-polls.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd entries; the kernel reads `fd`/`events`
        // and writes `revents` within the given length.
        #[allow(unsafe_code)]
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{PollFd, POLLIN, POLLOUT};
    use std::io;

    /// Degenerate fallback for non-unix hosts: report everything ready
    /// after a short sleep. Nonblocking reads/writes then sort out who
    /// actually had data — correct, just busier. The crate's tests and
    /// CI only exercise the unix path.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let ms = if timeout_ms < 0 { 5 } else { timeout_ms.min(5) };
        std::thread::sleep(std::time::Duration::from_millis(ms as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events & (POLLIN | POLLOUT);
        }
        Ok(fds.len())
    }
}

pub use imp::poll_fds;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;

    #[cfg(unix)]
    #[test]
    fn poll_sees_readable_data() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut tx = TcpStream::connect(addr).expect("connect");
        let (rx, _) = listener.accept().expect("accept");

        // Nothing to read yet: poll times out with zero ready fds.
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).expect("poll"), 0);
        assert!(!fds[0].ready(POLLIN));

        tx.write_all(b"x").expect("write");
        tx.flush().expect("flush");
        let n = poll_fds(&mut fds, 2000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_hup_or_readable_on_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let tx = TcpStream::connect(addr).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        drop(tx);
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 2000).expect("poll");
        assert_eq!(n, 1);
        // EOF surfaces as POLLIN (read returns 0) and/or POLLHUP.
        assert!(fds[0].ready(POLLIN));
    }
}
