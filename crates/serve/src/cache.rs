//! The content-addressed result cache.
//!
//! Entries live on disk as `root/<xx>/<key>.json`, where `xx` is the
//! first two hex characters of the key (a conventional fan-out shard so
//! no single directory grows unboundedly). Each file is a
//! [`CacheDocument`] — a schema-versioned canonical-JSON envelope that
//! embeds its own payload hash, so a lookup verifies integrity before
//! trusting anything: a corrupt or truncated entry is evicted (removed
//! and counted) and reported as a miss, which makes the cache
//! self-healing — the next computation rewrites the entry.
//!
//! Writes are atomic (`tmp` + rename) so a crashed writer can never
//! leave a half-written file behind under the final name. The cache
//! only stores: which results to persist, and how concurrent misses on
//! one key single-flight, the engine decides under its batch lock.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use alberta_core::log_warn;
use alberta_report::CacheDocument;

/// The on-disk content-addressed cache.
pub struct ResultCache {
    root: PathBuf,
    evictions: AtomicU64,
    tmp_counter: AtomicU64,
}

impl ResultCache {
    /// Opens (and lazily creates) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultCache {
            root: root.into(),
            evictions: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// The on-disk path of a key's entry.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let shard = if key.len() >= 2 { &key[..2] } else { "__" };
        self.root.join(shard).join(format!("{key}.json"))
    }

    /// Corrupt entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up a key, verifying the document before trusting it. A
    /// missing file is a plain miss; an unreadable, corrupt, truncated,
    /// or misfiled document (its embedded key differs from the file
    /// name) is evicted and reported as a miss.
    pub fn lookup(&self, key: &str) -> Option<CacheDocument> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.evict(&path);
                return None;
            }
        };
        match CacheDocument::parse(&text) {
            Ok(doc) if doc.key == key => Some(doc),
            _ => {
                // Parse failure covers truncation (malformed JSON) and
                // bit flips (payload-hash mismatch) alike.
                self.evict(&path);
                None
            }
        }
    }

    /// Atomically persists a document under its key: the rendering goes
    /// to a temporary file in the same shard directory and is renamed
    /// into place, so readers only ever see complete documents.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the shard directory, writing the
    /// temporary, or renaming it.
    pub fn store(&self, doc: &CacheDocument) -> io::Result<()> {
        let path = self.path_for(&doc.key);
        let dir = path.parent().expect("entry path has a shard directory");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            doc.key,
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, doc.to_json())?;
        fs::rename(&tmp, &path)
    }

    fn evict(&self, path: &Path) {
        if fs::remove_file(path).is_ok() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            log_warn!(
                "cache",
                "evicted corrupt entry {} (self-healing: next computation rewrites it)",
                path.display()
            );
        }
    }
}
