//! Thin, auditable wrapper over `mmap(2)`.
//!
//! The workspace vendors no crates, so the one foreign call the artifact
//! store needs is declared here directly; the platform C library is
//! already linked into every Rust binary, so no build-system work is
//! involved. This is the only module in the crate allowed to use
//! `unsafe` (the crate is `#![deny(unsafe_code)]`), and the whole unsafe
//! surface is two syscalls plus one slice construction over memory the
//! kernel hands back — the same hand-rolled style as the serving tier's
//! `poll(2)` wrapper.
//!
//! A [`MappedBytes`] is a read-only, private, whole-file mapping exposed
//! as `&[u64]`. The `.bps` artifact format stores little-endian words at
//! 8-byte-aligned offsets in files whose length is a multiple of 8, and
//! `mmap` returns page-aligned memory, so the native word view is valid
//! wherever the mapping path is compiled in (unix, little-endian). On
//! other hosts — or when the syscall fails — [`MappedBytes::map`]
//! returns `None` and the caller falls back to an ordinary buffered
//! read with explicit little-endian decoding.
//!
//! Safety argument for readers of the mapped slice (see DESIGN.md §3i):
//! the mapping is `PROT_READ` + `MAP_PRIVATE`, so nothing in-process can
//! write through it; artifact files are published atomically
//! (`sidecar::write_atomic`) and never truncated in place, so the classic
//! `SIGBUS`-on-shrink hazard requires outside interference — callers
//! validate the file length against the artifact's own declared length
//! *before* mapping, which is also what bounds every slice below.

#[cfg(all(unix, target_endian = "little"))]
mod imp {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // Protection and flag constants from POSIX; identical on glibc and
    // musl for every architecture this builds on.
    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    // `mmap`'s C prototype takes `void *` and `off_t`; byte pointers and
    // `i64` are layout-compatible on the LP64 targets this compiles for.
    #[allow(unsafe_code)]
    unsafe extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A read-only private mapping of the first `len` bytes of a file.
    #[derive(Debug)]
    pub struct MappedBytes {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and MAP_PRIVATE — no thread can
    // write through it, so shared references across threads are sound.
    #[allow(unsafe_code)]
    unsafe impl Send for MappedBytes {}
    #[allow(unsafe_code)]
    unsafe impl Sync for MappedBytes {}

    impl MappedBytes {
        /// Maps `len` bytes of `file` read-only. Returns `None` (never an
        /// error) when the mapping cannot be made — zero length, a length
        /// that is not a whole number of words or does not fit in memory,
        /// or the syscall failing — so the caller can fall back to a
        /// plain read.
        pub fn map(file: &File, len: u64) -> Option<MappedBytes> {
            let len = usize::try_from(len).ok()?;
            if len == 0 || !len.is_multiple_of(8) {
                return None;
            }
            // SAFETY: a null addr + PROT_READ + MAP_PRIVATE request is
            // always memory-safe: the kernel either picks a fresh range
            // of this process's address space or fails. The fd outlives
            // the call, and the mapping's validity does not depend on it
            // afterwards.
            #[allow(unsafe_code)]
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void *)-1.
            if ptr as isize == -1 {
                return None;
            }
            Some(MappedBytes { ptr, len })
        }

        /// The mapped file as native little-endian words.
        pub fn words(&self) -> &[u64] {
            // SAFETY: `ptr` came from a successful mmap of `len` bytes and
            // stays valid until Drop; mappings are page-aligned, so the
            // u64 alignment holds; `len` is a multiple of 8 (checked in
            // `map`); every bit pattern is a valid u64; and the mapping is
            // read-only, so no aliasing write can exist.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts(self.ptr.cast::<u64>().cast_const(), self.len / 8)
            }
        }
    }

    impl Drop for MappedBytes {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the range mmap
            // returned, unmapped exactly once. A failure here leaks the
            // mapping, which is safe; there is nothing useful to do with
            // the error in a destructor.
            #[allow(unsafe_code)]
            unsafe {
                let _ = munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(not(all(unix, target_endian = "little")))]
mod imp {
    use std::fs::File;

    /// Degenerate fallback for hosts without a valid native word view of
    /// the on-disk format: mapping never succeeds, so callers always use
    /// the buffered-read path. Uninhabited — no value of this type can
    /// exist.
    #[derive(Debug)]
    pub enum MappedBytes {}

    impl MappedBytes {
        /// Always `None`: see the type docs.
        pub fn map(_file: &File, _len: u64) -> Option<MappedBytes> {
            None
        }

        /// Unreachable (the type is uninhabited).
        pub fn words(&self) -> &[u64] {
            match *self {}
        }
    }
}

pub use imp::MappedBytes;

/// Whether this build can memory-map artifacts at all (unix hosts whose
/// native word order matches the on-disk little-endian format).
pub const fn mmap_supported() -> bool {
    cfg!(all(unix, target_endian = "little"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn maps_a_word_file_and_reads_it_back() {
        let dir = std::env::temp_dir().join(format!("bp-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("words.bin");
        let words: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut f = std::fs::File::create(&path).expect("create");
        for w in &words {
            f.write_all(&w.to_le_bytes()).expect("write");
        }
        drop(f);
        let file = File::open(&path).expect("open");
        let map = MappedBytes::map(&file, 8000).expect("map");
        assert_eq!(map.words(), &words[..]);
        drop(file); // the mapping must outlive the fd
        assert_eq!(map.words()[999], 999u64.wrapping_mul(0x9E37_79B9));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_empty_and_misaligned_lengths() {
        let dir = std::env::temp_dir().join(format!("bp-mmap-odd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("odd.bin");
        std::fs::write(&path, [1u8, 2, 3]).expect("write");
        let file = File::open(&path).expect("open");
        assert!(MappedBytes::map(&file, 0).is_none());
        assert!(MappedBytes::map(&file, 3).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
