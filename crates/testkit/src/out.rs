//! Standard output for report binaries that survives a closed reader.
//!
//! `println!` panics when stdout is a pipe whose reader has exited
//! (`bench_diff OLD NEW | head -5`), printing a backtrace for what is a
//! normal way to stop reading. [`outln!`](crate::outln!) and
//! [`out!`](crate::out!) write the same text, but after a broken pipe
//! they mark stdout closed and drop every later write, so the program
//! still finishes its work — gate verdicts, artifact writes — and its
//! exit status reports that work, not the reader. Any other write error
//! is reported on stderr and exits with status 1.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write has hit a broken pipe; later writes are dropped.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout unless its reader has gone away (see the
/// module docs). The target of [`outln!`](crate::outln!) and
/// [`out!`](crate::out!).
pub fn write(args: fmt::Arguments) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` that goes quiet when stdout's reader has gone away.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` that goes quiet when stdout's reader has gone away.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
