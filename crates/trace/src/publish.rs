//! How a file the product writes becomes visible: [`write_atomic`], the one
//! publisher of traces, pcaps, checkpoints, reports, spool documents,
//! metrics and CSVs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Publishes `path` atomically: `write` fills a buffered sibling file,
/// `<path>.tmp`, which is flushed and renamed over `path` once it returns
/// `Ok` — a reader of `path` sees the previous content or the new, never a
/// part of either. On any failure (create, `write`'s own, flush, rename) the
/// tmp file is removed and `path` keeps what it held. `write` is also the
/// fault-injection point: a test wraps the writer it is handed.
///
/// Nothing here syncs: a caller whose file must survive a power cut (a
/// checkpoint) flushes and `sync_all`s the handed file inside `write`.
pub fn write_atomic<T, E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let result = File::create(&tmp).map_err(E::from).and_then(|file| {
        let mut file = BufWriter::new(file);
        let done = write(&mut file)?;
        file.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(done)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}
