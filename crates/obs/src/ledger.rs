//! The append-only run ledger (`RUNS.jsonl`).
//!
//! One compact [`RunDigest`] JSON document per line, newest last.
//! Appends are crash-safe: the whole updated file is staged next to the
//! target and atomically renamed over it (the same temp+rename
//! discipline as every other exporter), so a kill mid-append can never
//! leave a torn line — readers see either the old ledger or the new
//! one, byte-complete.

use crate::digest::RunDigest;
use std::io;
use std::path::Path;

/// Appends one digest to the ledger at `path`, creating it on first
/// use. Lines that no longer parse (hand edits, schema drift) are
/// preserved verbatim — the ledger is append-only, not self-healing.
///
/// # Errors
///
/// Propagates I/O failures from reading the existing ledger or from
/// the atomic write (missing parent directory, permissions, full disk).
pub fn ledger_append(path: &Path, digest: &RunDigest) -> io::Result<()> {
    let mut text = match std::fs::read_to_string(path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&digest.to_jsonl());
    text.push('\n');
    crate::export::atomic_write(path, &text)
}

/// Loads every parseable digest from the ledger, oldest first. Blank
/// lines are skipped; a line that fails to parse is reported with its
/// 1-based line number.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidData` naming the first
/// malformed line.
pub fn ledger_load(path: &Path) -> io::Result<Vec<RunDigest>> {
    let text = std::fs::read_to_string(path)?;
    let mut runs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let digest = RunDigest::from_json(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), idx + 1),
            )
        })?;
        runs.push(digest);
    }
    Ok(runs)
}

/// The most recent ledger entry whose fingerprint key matches
/// `digest`'s — the natural baseline for a re-run. Entries are scanned
/// newest-first; `digest` itself is never in the ledger yet when this
/// is asked, so any hit is a genuine prior run.
pub fn latest_baseline<'a>(runs: &'a [RunDigest], digest: &RunDigest) -> Option<&'a RunDigest> {
    let key = digest.fingerprint.key();
    runs.iter().rev().find(|r| r.fingerprint.key() == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_with(chip: &str, total_length: u64) -> RunDigest {
        let mut d = crate::digest::tests::sample_digest();
        d.fingerprint.chip = chip.to_string();
        d.outcome.total_length = total_length;
        d
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pacor-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("RUNS.jsonl");
        let a = digest_with("A", 10);
        let b = digest_with("B", 20);
        let a2 = digest_with("A", 30);
        for d in [&a, &b, &a2] {
            ledger_append(&path, d).expect("append");
        }
        let runs = ledger_load(&path).expect("load");
        assert_eq!(runs, vec![a.clone(), b, a2.clone()]);
        assert_eq!(latest_baseline(&runs, &a), Some(&a2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_from_a_crash_never_tears_the_ledger() {
        // Simulate a writer killed mid-stage: a garbage .tmp sits next
        // to the ledger. Appends must still land complete lines and the
        // full file must re-parse.
        let dir = temp_dir("crash");
        let path = dir.join("RUNS.jsonl");
        ledger_append(&path, &digest_with("A", 10)).expect("first append");
        std::fs::write(dir.join("RUNS.jsonl.tmp"), "{\"torn\": tr").expect("stale tmp");
        ledger_append(&path, &digest_with("A", 20)).expect("second append");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.ends_with('\n'), "ledger must end on a line boundary");
        let runs = ledger_load(&path).expect("every line parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].outcome.total_length, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_reports_the_malformed_line() {
        let dir = temp_dir("malformed");
        let path = dir.join("RUNS.jsonl");
        ledger_append(&path, &digest_with("A", 10)).expect("append");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"not\": \"a digest\"}\n");
        std::fs::write(&path, text).expect("write");
        let err = ledger_load(&path).expect_err("second line is junk");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "names line 2: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_baseline_for_an_unseen_fingerprint() {
        let runs = vec![digest_with("A", 10)];
        assert!(latest_baseline(&runs, &digest_with("B", 10)).is_none());
    }
}
