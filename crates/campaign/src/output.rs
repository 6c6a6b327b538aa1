//! Standard-output writing shared by the `campaign` and `dl2fence-serve`
//! binaries.

use std::io::{ErrorKind, Write as _};

/// Writes `text` to stdout and flushes it.
///
/// A closed stdout — the reader went away, as in `campaign report <dir> |
/// head -1` — ends the process quietly with status 0 instead of panicking
/// the way `print!` does; any other write error ends it with status 1.
pub fn write_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}
