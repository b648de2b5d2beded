//! # hetero-ckpt
//!
//! Crash-consistent checkpointing for long training runs: recovery, not
//! just survival. The supervision layer (worker retirement, the health
//! watchdog, postmortem bundles) keeps a run alive and explains its death;
//! this crate makes death cheap, by bounding the work lost to a crash to
//! one checkpoint interval.
//!
//! Three guarantees, in order of importance:
//!
//! 1. **A checkpoint on disk is never torn.** Every write goes to a
//!    temporary file in the same directory, is flushed with `fsync`, and
//!    only then renamed over the final name — the POSIX atomic-publish
//!    idiom. A crash mid-write leaves a stray temp file (ignored and
//!    cleaned on the next write), never a half-written checkpoint under
//!    the real name.
//! 2. **A damaged checkpoint is detected, not trusted.** Each file ends in
//!    a fixed-size footer carrying the payload length, a CRC32 (IEEE) of
//!    the payload, and a magic tag. Truncation, bit rot, or a torn rename
//!    on a non-atomic filesystem all fail verification, and the loader
//!    falls back to the previous generation.
//! 3. **The previous generation survives until the next one is safe.**
//!    Checkpoints form a generation chain `gen-NNNNNNNNNN.ckpt`; pruning
//!    runs only *after* a successful atomic publish and always keeps at
//!    least one older generation, so there is no instant at which the only
//!    checkpoint on disk is unverified.
//!
//! The store is payload-agnostic (any `serde`-serializable state); the
//! engine-specific snapshot types live with the engines in `hetero-core`.
//! [`Checkpointer`] wraps a store with a cadence and follows the
//! workspace's disabled-by-default observability pattern: a disabled
//! checkpointer is an `Option::None` whose every method is a no-op, so
//! un-checkpointed runs behave bit-identically.

#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Footer magic: `HCKP` little-endian. A file that does not end in these
/// four bytes is not a finished checkpoint, whatever its name says.
const MAGIC: u32 = u32::from_le_bytes(*b"HCKP");
/// Footer layout: payload length (u64 LE) + payload CRC32 (u32 LE) + magic
/// (u32 LE).
const FOOTER_LEN: usize = 8 + 4 + 4;

// --- CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) -----------------
// Hand-rolled because the workspace vendors every dependency; the standard
// table-driven byte-at-a-time form is plenty for checkpoint-sized payloads.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum Ethernet, gzip, and PNG use.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Errors ---------------------------------------------------------------

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CkptError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// The file exists but fails verification (truncated, bit-rotted, or
    /// not a checkpoint at all). The string says which check failed.
    Corrupt(String),
    /// The payload verified but did not decode as the requested state
    /// type (e.g. a checkpoint written by an incompatible version).
    Decode(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            CkptError::Decode(why) => write!(f, "checkpoint decode: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

// --- Store ----------------------------------------------------------------

/// What a successful checkpoint write reports back to the engine (for the
/// `ckpt.*` gauges and the write-latency histogram).
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// Generation number of the file just published.
    pub generation: u64,
    /// Final path of the published checkpoint.
    pub path: PathBuf,
    /// Payload + footer size in bytes.
    pub bytes: u64,
    /// Wall seconds spent serializing is the caller's business; this is
    /// the wall time of write + fsync + rename + prune.
    pub write_secs: f64,
}

/// A directory of checkpoint generations with atomic publish and verified
/// load. Payload-agnostic: callers hand it serialized bytes (or a serde
/// value via [`CkptStore::save`]) and get them back verified.
#[derive(Debug)]
pub struct CkptStore {
    dir: PathBuf,
    retain: usize,
}

impl CkptStore {
    /// Open (creating if needed) a checkpoint directory keeping `retain`
    /// generations. `retain` is clamped to at least 2 so the previous
    /// generation always survives a torn write of the newest.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CkptStore {
            dir,
            retain: retain.max(2),
        })
    }

    /// All generations currently on disk, ascending. Files that merely
    /// *look* like checkpoints (right name shape) are listed without being
    /// verified — verification happens at load.
    pub fn generations(&self) -> Vec<(u64, PathBuf)> {
        let mut gens = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return gens;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push((g, entry.path()));
                }
            }
        }
        gens.sort_by_key(|(g, _)| *g);
        gens
    }

    /// Serialize `state` as JSON and publish it as generation `gen`.
    pub fn save<T: serde::Serialize>(&self, gen: u64, state: &T) -> Result<SaveReport, CkptError> {
        let payload = serde_json::to_string(state)
            .map_err(|e| CkptError::Decode(format!("serialize: {e}")))?;
        self.save_bytes(gen, payload.as_bytes())
    }

    /// Publish raw `payload` bytes as generation `gen`: write payload +
    /// footer to a temp file, fsync, atomically rename, fsync the
    /// directory, then prune generations beyond the retention window.
    pub fn save_bytes(&self, gen: u64, payload: &[u8]) -> Result<SaveReport, CkptError> {
        let start = Instant::now();
        let final_path = self.dir.join(format!("gen-{gen:010}.ckpt"));
        let tmp_path = self.dir.join(format!(".tmp-gen-{gen:010}.ckpt"));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(payload)?;
            let mut footer = [0u8; FOOTER_LEN];
            footer[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            footer[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
            footer[12..].copy_from_slice(&MAGIC.to_le_bytes());
            f.write_all(&footer)?;
            // The data must be durable *before* the rename publishes the
            // name: rename-before-fsync can surface an empty file under
            // the final name after a power cut.
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable (the directory entry is metadata
        // of the directory, not the file).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune(gen);
        Ok(SaveReport {
            generation: gen,
            path: final_path,
            bytes: (payload.len() + FOOTER_LEN) as u64,
            write_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Drop generations older than the retention window (and any stale
    /// temp files from crashed writes). Only generations strictly older
    /// than `newest` are candidates, so a concurrent writer's fresher file
    /// is never touched.
    fn prune(&self, newest: u64) {
        let gens = self.generations();
        let keep_from = gens.len().saturating_sub(self.retain);
        for (g, path) in &gens[..keep_from] {
            if *g < newest {
                let _ = fs::remove_file(path);
            }
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(name) = name.to_str() {
                    if name.starts_with(".tmp-gen-")
                        && !name.ends_with(&format!("{newest:010}.ckpt"))
                    {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
    }

    /// Read and verify the checkpoint at `path`, returning the payload.
    pub fn read_verified(path: &Path) -> Result<Vec<u8>, CkptError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < FOOTER_LEN {
            return Err(CkptError::Corrupt(format!(
                "{} bytes is shorter than the footer",
                bytes.len()
            )));
        }
        let (payload_plus, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
        let magic = u32::from_le_bytes(footer[12..16].try_into().expect("footer slice"));
        if magic != MAGIC {
            return Err(CkptError::Corrupt("footer magic mismatch".into()));
        }
        let len = u64::from_le_bytes(footer[..8].try_into().expect("footer slice")) as usize;
        if len != payload_plus.len() {
            return Err(CkptError::Corrupt(format!(
                "footer claims {len} payload bytes, file has {}",
                payload_plus.len()
            )));
        }
        let want = u32::from_le_bytes(footer[8..12].try_into().expect("footer slice"));
        let got = crc32(payload_plus);
        if want != got {
            return Err(CkptError::Corrupt(format!(
                "crc mismatch: footer {want:#010x}, payload {got:#010x}"
            )));
        }
        bytes.truncate(len);
        Ok(bytes)
    }

    /// Decode the checkpoint at `path` into `T` (after verification).
    pub fn load_path<T: serde::Deserialize>(path: &Path) -> Result<T, CkptError> {
        let payload = Self::read_verified(path)?;
        let text = String::from_utf8(payload)
            .map_err(|_| CkptError::Corrupt("payload is not UTF-8".into()))?;
        serde_json::from_str(&text).map_err(|e| CkptError::Decode(e.to_string()))
    }

    /// Load the newest generation that verifies and decodes, walking the
    /// chain backwards past torn or corrupt files. Returns `None` when no
    /// valid checkpoint exists at all.
    pub fn load_latest<T: serde::Deserialize>(&self) -> Option<(u64, PathBuf, T)> {
        for (g, path) in self.generations().into_iter().rev() {
            if let Ok(state) = Self::load_path::<T>(&path) {
                return Some((g, path, state));
            }
        }
        None
    }
}

// --- Checkpointer ---------------------------------------------------------

/// How a [`Checkpointer`] is set up.
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Directory for the generation chain (created if missing).
    pub dir: PathBuf,
    /// Seconds between checkpoints, in whatever clock the engine runs on
    /// (virtual for the simulation/PS engines, wall for the threaded one).
    pub interval: f64,
    /// Generations to keep on disk (clamped to ≥ 2).
    pub retain: usize,
    /// Resume from the newest valid generation in `dir` before training,
    /// instead of starting fresh. A fresh start never deletes existing
    /// generations — it appends after them.
    pub resume: bool,
}

struct CheckpointerInner {
    store: CkptStore,
    interval: f64,
    resume: bool,
    next_gen: u64,
    next_at: f64,
    last_save: Option<SaveReport>,
    /// Engine clock value of the last successful save (for age gauges).
    last_saved_at: Option<f64>,
    write_errors: u64,
}

/// Cadenced checkpoint writer, handed to an engine as `RunCtx::ckpt`.
///
/// Disabled-by-default like every observability hook in this workspace: a
/// [`Checkpointer::disabled`] instance answers `false`/`None` everywhere
/// and the engine's checkpoint branches never execute, so the run is
/// bit-identical to one without checkpointing. Cheap to clone (an `Arc` —
/// or nothing at all when disabled), so a caller can keep a handle to ask
/// for [`Checkpointer::latest_path`] after the run. Internally a
/// mutex-wrapped inner — engines call it from a single coordinator
/// thread, so the lock is never contended.
pub struct Checkpointer {
    inner: Option<Arc<Mutex<CheckpointerInner>>>,
}

impl Checkpointer {
    /// The no-op checkpointer.
    pub fn disabled() -> Self {
        Checkpointer { inner: None }
    }

    /// An active checkpointer over `cfg.dir`. Never clobbers an existing
    /// chain: new generations are numbered after the newest file present.
    pub fn new(cfg: CkptConfig) -> Result<Self, CkptError> {
        let store = CkptStore::open(cfg.dir, cfg.retain)?;
        let next_gen = store.generations().last().map(|(g, _)| g + 1).unwrap_or(0);
        Ok(Checkpointer {
            inner: Some(Arc::new(Mutex::new(CheckpointerInner {
                store,
                interval: cfg.interval.max(f64::MIN_POSITIVE),
                resume: cfg.resume,
                next_gen,
                next_at: cfg.interval,
                last_save: None,
                last_saved_at: None,
                write_errors: 0,
            }))),
        })
    }

    /// Whether checkpointing is active.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a checkpoint is due at engine time `t`.
    pub fn due(&self, t: f64) -> bool {
        match &self.inner {
            Some(inner) => t >= inner.lock().expect("ckpt lock").next_at,
            None => false,
        }
    }

    /// Publish `state` as the next generation, stamped with engine time
    /// `t`. Advances the cadence whether or not the write succeeds — a
    /// sick disk must not turn every subsequent loop iteration into a
    /// doomed write. Returns `None` when disabled or on write failure
    /// (failures are tallied; see [`Checkpointer::write_errors`]).
    pub fn save<T: serde::Serialize>(&self, t: f64, state: &T) -> Option<SaveReport> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.lock().expect("ckpt lock");
        // Next checkpoint is one interval after this save, so a long
        // stall doesn't queue a burst of catch-up checkpoints.
        inner.next_at = t + inner.interval;
        let gen = inner.next_gen;
        match inner.store.save(gen, state) {
            Ok(report) => {
                inner.next_gen = gen + 1;
                inner.last_save = Some(report.clone());
                inner.last_saved_at = Some(t);
                Some(report)
            }
            Err(_) => {
                inner.write_errors += 1;
                None
            }
        }
    }

    /// The newest valid checkpoint state, when this checkpointer was
    /// configured to resume. Restores the cadence relative to the
    /// checkpoint's stored engine time via the caller passing it back to
    /// [`Checkpointer::resume_mark`].
    pub fn resume_state<T: serde::Deserialize>(&self) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let inner = inner.lock().expect("ckpt lock");
        if !inner.resume {
            return None;
        }
        inner.store.load_latest::<T>().map(|(_, _, state)| state)
    }

    /// Note that the engine resumed at engine time `t`: the next
    /// checkpoint is due one interval later, not at the fresh-start
    /// cadence origin.
    pub fn resume_mark(&self, t: f64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect("ckpt lock");
            inner.next_at = t + inner.interval;
        }
    }

    /// Path of the newest checkpoint published (or found) by this
    /// checkpointer — what a postmortem report names as "resumable from".
    pub fn latest_path(&self) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let inner = inner.lock().expect("ckpt lock");
        if let Some(r) = &inner.last_save {
            return Some(r.path.clone());
        }
        inner.store.generations().last().map(|(_, p)| p.clone())
    }

    /// Engine time of the last successful save (for age gauges).
    pub fn last_saved_at(&self) -> Option<f64> {
        self.inner
            .as_ref()?
            .lock()
            .expect("ckpt lock")
            .last_saved_at
    }

    /// How many checkpoint writes have failed since construction.
    pub fn write_errors(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.lock().expect("ckpt lock").write_errors)
            .unwrap_or(0)
    }
}

impl Clone for Checkpointer {
    fn clone(&self) -> Self {
        Checkpointer {
            inner: self.inner.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Toy {
        step: u64,
        loss: f64,
        weights: Vec<f64>,
    }

    fn toy(step: u64) -> Toy {
        Toy {
            step,
            loss: 1.0 / (step + 1) as f64,
            weights: (0..16).map(|i| i as f64 * 0.5 + step as f64).collect(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hetero-ckpt-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let store = CkptStore::open(&dir, 3).unwrap();
        store.save(0, &toy(0)).unwrap();
        let r = store.save(1, &toy(1)).unwrap();
        assert_eq!(r.generation, 1);
        assert!(r.bytes > FOOTER_LEN as u64);
        let (g, _, back) = store.load_latest::<Toy>().unwrap();
        assert_eq!(g, 1);
        assert_eq!(back, toy(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_but_keeps_two() {
        let dir = tmp_dir("retain");
        let store = CkptStore::open(&dir, 1).unwrap(); // clamped to 2
        for g in 0..5 {
            store.save(g, &toy(g)).unwrap();
        }
        let gens: Vec<u64> = store.generations().iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_rejected_and_previous_generation_wins() {
        let dir = tmp_dir("trunc");
        let store = CkptStore::open(&dir, 3).unwrap();
        store.save(0, &toy(0)).unwrap();
        let r1 = store.save(1, &toy(1)).unwrap();
        // Simulate a torn write of the newest generation.
        let bytes = fs::read(&r1.path).unwrap();
        fs::write(&r1.path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            CkptStore::load_path::<Toy>(&r1.path),
            Err(CkptError::Corrupt(_))
        ));
        let (g, _, back) = store.load_latest::<Toy>().unwrap();
        assert_eq!(g, 0);
        assert_eq!(back, toy(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_rejected_by_crc() {
        let dir = tmp_dir("bitflip");
        let store = CkptStore::open(&dir, 3).unwrap();
        let r = store.save(0, &toy(7)).unwrap();
        let mut bytes = fs::read(&r.path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x40;
        fs::write(&r.path, &bytes).unwrap();
        assert!(matches!(
            CkptStore::load_path::<Toy>(&r.path),
            Err(CkptError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_temp_files_are_ignored_and_cleaned() {
        let dir = tmp_dir("straytmp");
        let store = CkptStore::open(&dir, 3).unwrap();
        // A crash mid-write leaves a temp file behind.
        fs::write(dir.join(".tmp-gen-0000000099.ckpt"), b"half a checkpoint").unwrap();
        assert!(store.load_latest::<Toy>().is_none());
        store.save(0, &toy(0)).unwrap();
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftover.is_empty(), "stale temp files not cleaned");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_checkpointer_is_inert() {
        let c = Checkpointer::disabled();
        assert!(!c.enabled());
        assert!(!c.due(1e12));
        assert!(c.save(0.0, &toy(0)).is_none());
        assert!(c.resume_state::<Toy>().is_none());
        assert!(c.latest_path().is_none());
        assert_eq!(c.write_errors(), 0);
    }

    #[test]
    fn cadence_and_resume_flow() {
        let dir = tmp_dir("cadence");
        let c = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 1.0,
            retain: 3,
            resume: false,
        })
        .unwrap();
        assert!(!c.due(0.5));
        assert!(c.due(1.0));
        let r = c.save(1.0, &toy(1)).unwrap();
        assert_eq!(r.generation, 0);
        assert!(!c.due(1.5));
        // A stall past several intervals still schedules exactly one next.
        c.save(7.3, &toy(7)).unwrap();
        assert!(!c.due(8.0));
        assert!(c.due(8.3));
        assert_eq!(c.last_saved_at(), Some(7.3));

        // Resume: a fresh checkpointer over the same dir picks up the
        // newest state and continues the generation chain.
        let c2 = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 1.0,
            retain: 3,
            resume: true,
        })
        .unwrap();
        let back: Toy = c2.resume_state().unwrap();
        assert_eq!(back, toy(7));
        c2.resume_mark(7.3);
        assert!(!c2.due(8.0));
        let r = c2.save(8.3, &toy(8)).unwrap();
        assert_eq!(r.generation, 2, "chain continues, no clobber");
        let _ = fs::remove_dir_all(&dir);
    }
}
