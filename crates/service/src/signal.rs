//! SIGINT/SIGTERM → graceful-shutdown flag, without a libc crate.
//!
//! The workspace vendors no `libc`/`signal-hook`, but on every Unix
//! target `std` already links the platform C library, so the C89
//! `signal()` entry point can be declared directly. The handler does
//! the only async-signal-safe thing there is to do: flip a static
//! atomic, which the server's signal watcher polls.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on the first SIGINT/SIGTERM.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::*;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// C89 `signal(2)`; the return value (previous handler) is
        /// deliberately ignored.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the C standard library function; the
        // handler only performs an atomic store, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signals to hook on non-Unix targets; `POST /shutdown` (or
    /// process kill) remains available.
    pub fn install() {}
}

/// Install the SIGINT/SIGTERM handlers (idempotent).
pub fn install_handlers() {
    imp::install();
}

/// Has a termination signal arrived since the handlers were installed?
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}
