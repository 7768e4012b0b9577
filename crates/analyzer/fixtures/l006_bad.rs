//! L006 bad fixture: lock guards held across blocking boundaries in
//! (pretend) daemon code.

use std::sync::mpsc::Receiver;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn drain(state: &Mutex<Vec<u64>>, rx: &Receiver<u64>) {
    let mut guard = lock(state);
    if let Ok(v) = rx.recv() { // line 14: .recv() with the guard live
        guard.push(v);
    }
}

pub fn backoff(state: &Mutex<Vec<u64>>) -> usize {
    let guard = lock(state);
    std::thread::sleep(Duration::from_millis(10)); // line 21: thread::sleep
    guard.len()
}

fn rotate(path: &str) -> std::io::Result<()> {
    let prev = format!("{path}.prev");
    std::fs::copy(path, &prev)?;
    std::fs::remove_file(path)
}

pub fn snapshot(state: &Mutex<Vec<u64>>, path: &str) -> std::io::Result<usize> {
    let guard = lock(state);
    let held = guard.len();
    rotate(path).map(|()| held) // line 34: transitive blocking I/O
}
