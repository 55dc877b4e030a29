//! The content-addressed on-disk cell cache.
//!
//! Completed cells are memoized under `results/cache/`, one file per cell,
//! named by the cell digest (32 hex digits). Because the key covers every
//! input that determines the result, a hit can be returned without
//! re-simulating; because files are written crash-consistently (temp
//! file, fsync, atomic rename, directory fsync) and the format is
//! versioned and trailer-closed, a concurrent or interrupted writer can
//! at worst produce a miss, never a wrong report.
//!
//! Two layers defend against corruption:
//!
//! * **Read-time**: `load` treats any unparseable entry as a miss, so a
//!   torn or bit-flipped file costs a re-simulation, never a wrong result.
//! * **Startup recovery**: [`DiskCache::recover`] scans the directory,
//!   deletes orphaned write-ahead temp files left by a crashed writer, and
//!   moves recognizably torn entries (no versioned header, no `end`
//!   trailer) into a `quarantine/` subdirectory where they can be
//!   inspected instead of silently shadowing every future lookup.
//!
//! The cache is safe to delete at any time — it is a pure memo table.

use crate::report::CellReport;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The default cache location, relative to the repository root.
pub const DEFAULT_DIR: &str = "results/cache";

/// Subdirectory torn entries are moved into by [`DiskCache::recover`].
pub const QUARANTINE_DIR: &str = "quarantine";

/// What a startup recovery scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Regular entries examined.
    pub scanned: u64,
    /// Torn or truncated entries moved to `quarantine/`.
    pub quarantined: u64,
    /// Orphaned write-ahead temp files deleted.
    pub temps_removed: u64,
}

/// A directory of memoized cell reports, keyed by cell digest.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    /// Seeded-fault hook: how many upcoming stores should fail with a
    /// synthetic I/O error. Shared across clones so a serving front end
    /// can arm faults on the cache an engine already owns.
    injected_store_faults: Arc<AtomicU64>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            injected_store_faults: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Opens the default `results/cache` directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open_default() -> io::Result<DiskCache> {
        DiskCache::open(DEFAULT_DIR)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(key)
    }

    /// Loads the report cached under `key`, or `None` on a miss (absent,
    /// unreadable, truncated, corrupt, or written by a different schema
    /// version — all equivalent: the cell re-simulates).
    pub fn load(&self, key: &str) -> Option<CellReport> {
        CellReport::from_cache_text(&self.load_text(key)?)
    }

    /// Stores `report` under `key`, crash-consistently: the text is
    /// written and fsynced to a sibling temp file, renamed into place, and
    /// the directory is fsynced, so a crash at any point leaves either the
    /// old state or the complete new entry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the write, rename, or sync fails.
    pub fn store(&self, key: &str, report: &CellReport) -> io::Result<()> {
        self.store_text(key, &report.to_cache_text())
    }

    /// Raw read of the text cached under `key` (`None` when absent or
    /// unreadable). For callers with their own versioned encodings —
    /// e.g. verification cells — which validate the text themselves.
    pub fn load_text(&self, key: &str) -> Option<String> {
        fs::read_to_string(self.path_of(key)).ok()
    }

    /// Raw crash-consistent write of `text` under `key` (write-ahead temp
    /// file + fsync + atomic rename + directory fsync, like
    /// [`DiskCache::store`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the write, rename, or sync fails — or a
    /// synthetic error when a fault was armed via
    /// [`DiskCache::fail_next_stores`].
    pub fn store_text(&self, key: &str, text: &str) -> io::Result<()> {
        if self
            .injected_store_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(io::Error::other("injected transient cache I/O fault"));
        }
        let tmp = self.dir.join(format!(".{key}.tmp.{}", std::process::id()));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            // Flush the data before the rename can make it visible; a
            // rename of an unsynced file may land with torn contents.
            file.sync_all()?;
        }
        let result = fs::rename(&tmp, self.path_of(key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
            return result;
        }
        // Invariant: an entry that is visible under its final name is
        // complete and durable. On ext4-style filesystems the rename
        // itself is only durable once the parent directory's inode is
        // flushed, so the directory fsync is load-bearing — without it a
        // power cut after the rename could resurrect a missing or partial
        // entry.
        fs::File::open(&self.dir)?.sync_all()
    }

    /// Arms the seeded-fault hook: the next `n` stores (through any clone
    /// of this cache) fail with a synthetic I/O error. Store failures are
    /// absorbed by callers as "memoization lost, correctness kept" — this
    /// hook lets chaos tests prove that.
    pub fn fail_next_stores(&self, n: u64) {
        self.injected_store_faults.store(n, Ordering::Release);
    }

    /// Scans the cache directory for crash debris: orphaned write-ahead
    /// temp files are deleted, and entries that are recognizably torn —
    /// empty, non-UTF-8, missing the versioned `ctbia-` header, or missing
    /// the closing `end` trailer — are moved into `quarantine/` for
    /// inspection. Complete entries (of any versioned schema) are left
    /// untouched. Call once at daemon startup, before serving lookups.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be read or a
    /// quarantine move fails.
    pub fn recover(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let quarantine = self.dir.join(QUARANTINE_DIR);
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.starts_with('.') && name.contains(".tmp.") {
                // A write-ahead temp file with no living writer: the
                // writer crashed between create and rename. The final
                // entry was never published, so this is pure debris.
                fs::remove_file(&path)?;
                report.temps_removed += 1;
                continue;
            }
            report.scanned += 1;
            if !entry_is_complete(&path) {
                fs::create_dir_all(&quarantine)?;
                fs::rename(&path, quarantine.join(&name))?;
                report.quarantined += 1;
            }
        }
        Ok(report)
    }
}

/// Splits versioned cache text into its `key value` records: the first
/// line must be `schema` and the records end at the `end` trailer. Any
/// anomaly — wrong header, missing trailer, a line without a space —
/// returns `None`, which every decoder treats as a cache miss.
pub fn cache_records<'a>(text: &'a str, schema: &str) -> Option<Vec<(&'a str, &'a str)>> {
    let mut lines = text.lines();
    if lines.next()? != schema {
        return None;
    }
    let mut records = Vec::new();
    for line in lines {
        if line == "end" {
            return Some(records);
        }
        records.push(line.split_once(' ')?);
    }
    None
}

/// Whether a cache file looks complete: a versioned `ctbia-` header line
/// and the `end` trailer every trailer-closed schema (cell reports,
/// verify reports) writes last. Anything else is a torn write.
fn entry_is_complete(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false; // unreadable or non-UTF-8
    };
    let Some(first) = text.lines().next() else {
        return false; // empty
    };
    first.starts_with("ctbia-") && text.ends_with("end\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_machine::Counters;

    fn tmp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("ctbia-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskCache::open(dir).unwrap()
    }

    fn report(label: &str) -> CellReport {
        CellReport {
            label: label.into(),
            digest: 7,
            counters: Counters::default(),
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = tmp_cache("roundtrip");
        let r = report("a/b");
        cache.store("00ff", &r).unwrap();
        assert_eq!(cache.load("00ff"), Some(r));
        assert_eq!(cache.load("beef"), None);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_files_are_misses() {
        let cache = tmp_cache("corrupt");
        cache.store("k", &report("x")).unwrap();
        fs::write(cache.dir().join("k"), "not a cache file").unwrap();
        assert_eq!(cache.load("k"), None);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn recovery_quarantines_torn_entries_and_keeps_complete_ones() {
        let cache = tmp_cache("recover");
        cache.store("good", &report("kept")).unwrap();
        // A torn entry: a valid prefix cut mid-write, as a kill -9 between
        // write and rename on a non-atomic filesystem would leave it.
        let full = report("torn").to_cache_text();
        fs::write(cache.dir().join("torn"), &full[..full.len() / 2]).unwrap();
        fs::write(cache.dir().join("empty"), "").unwrap();
        // An entry of a *different* versioned trailer-closed schema must
        // survive the scan untouched.
        fs::write(
            cache.dir().join("verify"),
            "ctbia-verify-v1\npairs 3\nend\n",
        )
        .unwrap();
        let scan = cache.recover().unwrap();
        assert_eq!(scan.scanned, 4);
        assert_eq!(scan.quarantined, 2);
        assert_eq!(cache.load("good"), Some(report("kept")));
        assert!(cache.dir().join("verify").is_file());
        assert!(!cache.dir().join("torn").exists());
        assert!(cache.dir().join(QUARANTINE_DIR).join("torn").is_file());
        assert!(cache.dir().join(QUARANTINE_DIR).join("empty").is_file());
        // Idempotent: a second scan finds nothing left to do.
        let rescan = cache.recover().unwrap();
        assert_eq!(rescan.quarantined, 0);
        assert_eq!(rescan.temps_removed, 0);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn recovery_removes_orphaned_write_ahead_temps() {
        let cache = tmp_cache("temps");
        cache.store("live", &report("live")).unwrap();
        let orphan = cache.dir().join(".deadbeef.tmp.99999");
        fs::write(&orphan, "half a rep").unwrap();
        let scan = cache.recover().unwrap();
        assert_eq!(scan.temps_removed, 1);
        assert_eq!(scan.quarantined, 0);
        assert!(!orphan.exists());
        assert_eq!(cache.load("live"), Some(report("live")));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn injected_store_faults_fail_exactly_n_stores() {
        let cache = tmp_cache("faults");
        let clone = cache.clone();
        cache.fail_next_stores(2);
        assert!(clone.store("a", &report("a")).is_err(), "fault 1");
        assert!(cache.store("b", &report("b")).is_err(), "fault 2");
        cache.store("c", &report("c")).unwrap();
        assert_eq!(cache.load("a"), None);
        assert_eq!(cache.load("c"), Some(report("c")));
        let _ = fs::remove_dir_all(cache.dir());
    }
}
