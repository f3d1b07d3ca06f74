//! The serve request journal: crash recovery for accepted requests.
//!
//! Every admitted lead request is appended as a `pending` line (its hash
//! plus its canonical wire form) *before* execution starts, and marked
//! `done` after its response is delivered. A daemon killed mid-request
//! therefore leaves the request's `pending` line behind; on restart the
//! journal is replayed — each still-pending request is re-executed (the
//! deterministic engine cache makes the result identical) and its
//! response seeded into the result cache, so a client re-sending the
//! request receives a byte-identical answer.
//!
//! The format is line-oriented and append-only between compactions:
//!
//! ```text
//! aix-serve-journal v1
//! pending 1a2b3c4d5e6f7081 {"op":"characterize","kind":"adder",...}
//! done 1a2b3c4d5e6f7081
//! ```
//!
//! A crash can tear the final append; replay therefore *skips* malformed
//! lines (counting them) instead of failing, and every open compacts the
//! file back to just the surviving `pending` entries via an atomic
//! temp-file + rename rewrite.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First line of every journal file; anything else is treated as a
/// different (or corrupt) format and the journal starts fresh.
pub const JOURNAL_HEADER: &str = "aix-serve-journal v1";

/// A stable 16-hex-digit request key (FNV-1a over the fingerprint).
#[must_use]
pub fn request_hash(fingerprint: &str) -> String {
    let hash = aix_obs::fnv1a(aix_obs::FNV_OFFSET, fingerprint.as_bytes());
    format!("{hash:016x}")
}

/// What [`RequestJournal::open`] recovered from disk.
pub struct Recovered {
    /// Still-pending requests: `(hash, canonical wire form)`, in journal
    /// order.
    pub pending: Vec<(String, String)>,
    /// Malformed (torn) lines that were skipped.
    pub torn_lines: usize,
}

/// The append-mode journal handle.
pub struct RequestJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl RequestJournal {
    /// Opens (or creates) the journal at `path`, replays its lines,
    /// compacts it to the surviving pending set, and returns that set.
    ///
    /// # Errors
    ///
    /// Returns I/O errors creating, reading, or rewriting the file.
    /// Malformed *content* is never an error — torn lines are skipped and
    /// counted, and a foreign header restarts the journal empty.
    pub fn open(path: &Path) -> std::io::Result<(Self, Recovered)> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines();
        let mut pending: HashMap<String, String> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut torn_lines = 0usize;
        if !text.is_empty() && lines.next() != Some(JOURNAL_HEADER) {
            torn_lines += 1;
        } else {
            for line in lines {
                match line.split_once(' ') {
                    Some(("pending", rest)) => match rest.split_once(' ') {
                        Some((hash, wire)) if hash.len() == 16 && wire.starts_with('{') => {
                            if pending.insert(hash.to_owned(), wire.to_owned()).is_none() {
                                order.push(hash.to_owned());
                            }
                        }
                        _ => torn_lines += 1,
                    },
                    Some(("done", hash)) if pending.remove(hash.trim()).is_some() => {}
                    _ if line.trim().is_empty() => {}
                    _ => torn_lines += 1,
                }
            }
        }
        let pending: Vec<(String, String)> = order
            .into_iter()
            .filter_map(|hash| pending.remove(&hash).map(|wire| (hash, wire)))
            .collect();

        // Compact: atomically rewrite just the header + surviving
        // pendings, so torn garbage cannot accumulate across restarts.
        // Routed through the fsync-before-rename helper so a power loss
        // mid-compaction cannot lose the pending set.
        let mut compacted = format!("{JOURNAL_HEADER}\n");
        for (hash, wire) in &pending {
            compacted.push_str(&format!("pending {hash} {wire}\n"));
        }
        aix_core::fsutil::write_atomic_under(
            path,
            &compacted,
            aix_faults::env_plan(),
            aix_faults::FaultStage::Serve,
        )?;

        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            RequestJournal {
                path: path.to_owned(),
                file: Mutex::new(file),
            },
            Recovered {
                pending,
                torn_lines,
            },
        ))
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a request as pending (call *before* execution starts).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the append.
    pub fn record_pending(&self, hash: &str, wire: &str) -> std::io::Result<()> {
        self.append(&format!("pending {hash} {wire}\n"))
    }

    /// Records a request as done (call after its response is delivered).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the append.
    pub fn record_done(&self, hash: &str) -> std::io::Result<()> {
        self.append(&format!("done {hash}\n"))
    }

    fn append(&self, line: &str) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aix-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pending_then_done_leaves_nothing_to_replay() {
        let dir = temp_dir("clean");
        let path = dir.join("serve.journal");
        {
            let (journal, recovered) = RequestJournal::open(&path).unwrap();
            assert!(recovered.pending.is_empty());
            assert_eq!(recovered.torn_lines, 0);
            let hash = request_hash("fp-a");
            journal.record_pending(&hash, "{\"op\":\"x\"}").unwrap();
            journal.record_done(&hash).unwrap();
        }
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert!(recovered.pending.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_skipped_and_the_pending_request_survives() {
        let dir = temp_dir("torn");
        let path = dir.join("serve.journal");
        let hash = request_hash("fp-b");
        {
            let (journal, _) = RequestJournal::open(&path).unwrap();
            journal.record_pending(&hash, "{\"op\":\"y\"}").unwrap();
        }
        // Simulate a crash mid-append: a torn, partial final line.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"pending 1234ab").unwrap();
        }
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert_eq!(recovered.torn_lines, 1, "the torn tail is counted");
        assert_eq!(
            recovered.pending,
            vec![(hash.clone(), "{\"op\":\"y\"}".to_owned())],
            "the intact pending entry replays"
        );
        // The compaction dropped the garbage: reopening is clean.
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert_eq!(recovered.torn_lines, 0);
        assert_eq!(recovered.pending.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn request_hashes_are_stable_and_distinct() {
        assert_eq!(request_hash("a"), request_hash("a"));
        assert_ne!(request_hash("a"), request_hash("b"));
        assert_eq!(request_hash("campaign").len(), 16);
    }
}
