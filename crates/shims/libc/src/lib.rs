//! Minimal API-compatible stand-in for the `libc` crate.
//!
//! Declares exactly the memory-mapping surface `kq-io` and the
//! `kq-stream` mmap backing use: `mmap`/`munmap`/`madvise` and their
//! constants, `flock`, and glibc's `mallopt`, with the type aliases
//! matching the real crate so a swap to crates.io `libc` is a drop-in.
//! The symbols resolve against the system C library every Rust binary
//! already links.
//!
//! Constant values are the Linux ABI ones (this workspace's only build
//! and CI target); the whole module is `cfg(unix)` so non-unix builds of
//! dependent crates fall back to their heap paths at compile time.

#![allow(non_camel_case_types)]
#![warn(missing_docs)]

/// C `void` (opaque); pointers to it are untyped memory addresses.
pub use std::ffi::c_void;

/// C `int`.
pub type c_int = i32;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (file offset; 64-bit on every supported target).
pub type off_t = i64;

/// Pages may be read.
pub const PROT_READ: c_int = 1;
/// Private copy-on-write mapping (we never write, so never copied).
pub const MAP_PRIVATE: c_int = 2;
/// `mmap` error sentinel: `(void *) -1`.
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// `madvise` hint: expect random page references (read-ahead is disabled,
/// so a fault maps only the touched page instead of a window around it).
pub const MADV_RANDOM: c_int = 1;
/// `madvise` hint: expect sequential page references (read-ahead grows,
/// pages behind the scan become eviction candidates sooner).
pub const MADV_SEQUENTIAL: c_int = 2;
/// `madvise` hint: the range is no longer needed. For a read-only
/// file-backed mapping this drops the resident pages; a later touch
/// faults them back in from the file.
pub const MADV_DONTNEED: c_int = 4;

/// `flock` operation: shared (reader) lock.
pub const LOCK_SH: c_int = 1;
/// `flock` operation: exclusive (writer) lock.
pub const LOCK_EX: c_int = 2;
/// `flock` operation: release the lock.
pub const LOCK_UN: c_int = 8;

/// `mallopt` parameter: the allocation size from which glibc `malloc`
/// serves requests with a private `mmap` (returned to the kernel on
/// `free`) instead of carving them from an arena. Setting it also stops
/// glibc's dynamic threshold from growing.
#[cfg(target_env = "gnu")]
pub const M_MMAP_THRESHOLD: c_int = -3;

#[cfg(target_env = "gnu")]
extern "C" {
    /// Sets the glibc `malloc` tuning parameter `param` to `value`.
    /// Returns 1 on success, 0 on error.
    pub fn mallopt(param: c_int, value: c_int) -> c_int;
}

#[cfg(unix)]
extern "C" {
    /// Maps `len` bytes of the object behind `fd` at `offset` into the
    /// address space. Returns [`MAP_FAILED`] on error (errno is set).
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;

    /// Unmaps `[addr, addr+len)`. Returns 0 on success, -1 on error.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;

    /// Advises the kernel about expected access to `[addr, addr+len)`.
    /// Returns 0 on success, -1 on error (advice is best-effort; callers
    /// here ignore failures).
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;

    /// Applies or removes an advisory lock on the open file behind `fd`
    /// ([`LOCK_SH`]/[`LOCK_EX`]/[`LOCK_UN`]; blocks until granted).
    /// Advisory: only other `flock` callers observe it. The lock rides
    /// the *open file description*, so closing the fd releases it.
    /// Returns 0 on success, -1 on error.
    pub fn flock(fd: c_int, operation: c_int) -> c_int;
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn map_and_unmap_a_real_file() {
        // Round-trip the raw surface against a real file so a wrong
        // constant or signature fails here, not inside kq-stream's Drop.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("libc-shim-test-{}", std::process::id()));
        std::fs::write(&path, b"hello mapped world\n").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let fd = std::os::unix::io::AsRawFd::as_raw_fd(&file);
        let len = 19usize;
        unsafe {
            let ptr = mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0);
            assert_ne!(ptr, MAP_FAILED, "mmap failed");
            assert_eq!(madvise(ptr, len, MADV_SEQUENTIAL), 0);
            let bytes = std::slice::from_raw_parts(ptr as *const u8, len);
            assert_eq!(bytes, b"hello mapped world\n");
            assert_eq!(munmap(ptr, len), 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flock_round_trip_and_exclusion() {
        use std::os::unix::io::AsRawFd;
        let path = std::env::temp_dir().join(format!("libc-shim-flock-{}", std::process::id()));
        std::fs::write(&path, b"lock me\n").unwrap();
        let a = std::fs::File::open(&path).unwrap();
        let b = std::fs::File::open(&path).unwrap();
        unsafe {
            assert_eq!(flock(a.as_raw_fd(), LOCK_EX), 0);
            // A second shared lock on another descriptor must block, so
            // prove exclusion from a thread that only succeeds after the
            // unlock below.
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let fd_b = b.as_raw_fd();
            let t = std::thread::spawn(move || {
                assert_eq!(flock(fd_b, LOCK_SH), 0);
                tx.send(()).unwrap();
                flock(fd_b, LOCK_UN);
            });
            // Blocked while we hold the exclusive lock.
            assert!(rx
                .recv_timeout(std::time::Duration::from_millis(100))
                .is_err());
            assert_eq!(flock(a.as_raw_fd(), LOCK_UN), 0);
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("shared lock must be granted after unlock");
            t.join().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_env = "gnu")]
    #[test]
    fn mallopt_accepts_the_mmap_threshold() {
        unsafe {
            assert_eq!(mallopt(M_MMAP_THRESHOLD, 1 << 20), 1);
        }
    }
}
