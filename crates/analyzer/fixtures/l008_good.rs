//! L008 good fixture (as the trace crate): the one publisher, a caller
//! publishing through it, and one audited process-private scratch file.

use std::io::{BufWriter, Write};

pub fn write_atomic(
    path: &str,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let result = std::fs::File::create(&tmp).and_then(|file| {
        let mut file = BufWriter::new(file);
        write(&mut file)?;
        file.flush()?;
        std::fs::rename(&tmp, path)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

pub fn publish(path: &str, body: &[u8]) -> std::io::Result<()> {
    write_atomic(path, |file| file.write_all(body))
}

pub fn scratch(dir: &std::path::Path, body: &[u8]) -> std::io::Result<()> {
    // lumen6: allow(L008, scratch file is process-private and removed before exit; no reader can observe it)
    std::fs::write(dir.join("scratch.bin"), body)
}
