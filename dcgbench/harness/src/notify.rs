//! Counting trace-store opens from outside the server: every
//! `TraceStore` open probes the directory for writability by creating a
//! `.probe.*` file, so an inotify watch for `IN_CREATE` on the store
//! directory sees one event per open.

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_void};
use std::path::Path;

const IN_NONBLOCK: c_int = 0o4000;
const IN_CREATE: u32 = 0x0000_0100;
const IN_Q_OVERFLOW: u32 = 0x0000_4000;
/// `struct inotify_event` without its name: wd, mask, cookie, len.
const EVENT_HEADER: usize = 16;

extern "C" {
    fn inotify_init1(flags: c_int) -> c_int;
    fn inotify_add_watch(fd: c_int, path: *const c_char, mask: u32) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// A non-blocking inotify watch for file creation in one directory.
pub struct CreateWatch {
    fd: c_int,
}

impl CreateWatch {
    pub fn new(dir: &Path) -> Result<CreateWatch, String> {
        let path = CString::new(dir.as_os_str().as_encoded_bytes())
            .map_err(|_| format!("{} contains a NUL byte", dir.display()))?;
        // SAFETY: inotify_init1 takes no pointers; a negative return is
        // an error and is checked.
        let fd = unsafe { inotify_init1(IN_NONBLOCK) };
        if fd < 0 {
            return Err("inotify_init1 failed".into());
        }
        let watch = CreateWatch { fd };
        // SAFETY: `fd` is the inotify descriptor opened above and `path`
        // is a NUL-terminated string that outlives the call.
        let wd = unsafe { inotify_add_watch(fd, path.as_ptr(), IN_CREATE) };
        if wd < 0 {
            return Err(format!("inotify_add_watch on {} failed", dir.display()));
        }
        Ok(watch)
    }

    /// Drain the pending events; returns how many created files have a
    /// name starting with `prefix`, or an error if the kernel queue
    /// overflowed (the count would be short).
    pub fn count_created(&self, prefix: &str) -> Result<u64, String> {
        let mut buf = vec![0u8; 64 * 1024];
        let mut count = 0;
        loop {
            // SAFETY: `buf` is a live, writable allocation of `buf.len()`
            // bytes and `self.fd` is an open inotify descriptor.
            let got = unsafe { read(self.fd, buf.as_mut_ptr().cast(), buf.len()) };
            if got <= 0 {
                // Non-blocking descriptor: -1 with EAGAIN once drained.
                return Ok(count);
            }
            let got = usize::try_from(got).expect("positive read length");
            let mut off = 0;
            while off + EVENT_HEADER <= got {
                let field = |at: usize| {
                    u32::from_ne_bytes(buf[off + at..off + at + 4].try_into().expect("4 bytes"))
                };
                let mask = field(4);
                let len = field(12) as usize;
                if mask & IN_Q_OVERFLOW != 0 {
                    return Err("inotify queue overflowed".into());
                }
                let end = (off + EVENT_HEADER + len).min(got);
                let name = &buf[off + EVENT_HEADER..end];
                let name = &name[..name.iter().position(|b| *b == 0).unwrap_or(name.len())];
                if name.starts_with(prefix.as_bytes()) {
                    count += 1;
                }
                off = end;
            }
        }
    }
}

impl Drop for CreateWatch {
    fn drop(&mut self) {
        // SAFETY: `self.fd` was opened by inotify_init1 and is closed
        // exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}
