//! L008 bad fixture: files made outside the one publisher — spool writes
//! a concurrent reader can observe half-written, and a temp+rename writer
//! of its own, whose failures leave the temp file behind.

pub fn spool(path: &str, body: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, body) // line 6: fs::write
}

pub fn open_report(path: &str) -> std::io::Result<std::fs::File> {
    std::fs::File::create(path) // line 10: File::create
}

pub fn save(path: &str, body: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = format!("{path}.tmp");
    let mut f = std::fs::File::create(&tmp)?; // line 16: a second publisher
    f.write_all(body)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}
