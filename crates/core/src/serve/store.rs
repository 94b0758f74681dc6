//! The durable summary store: crash-safe persistence for the serve
//! cache.
//!
//! A daemon restart used to be a full cold start. This module gives the
//! [`SummaryCache`] an on-disk form so `ipcc serve --store <path>` comes
//! back warm: per-procedure MOD/REF, return-jump-function (with recorded
//! governor charges), and forward-jump-function summaries, keyed by the
//! same FNV-1a-128 own/cone digests the in-memory cache uses.
//!
//! **Durability model.** Snapshots are atomic: the whole store is
//! encoded, written to a sibling `<path>.tmp`, fsynced, and renamed over
//! `<path>` (with a best-effort directory fsync). A crash — including
//! `kill -9` mid-write — leaves either the old store or the new one,
//! never a torn file; an interrupted write can only strand a `.tmp` the
//! next snapshot overwrites.
//!
//! **Recovery model.** Loading verifies, in order: magic, format
//! version, whole-file checksum, configuration fingerprint, shape
//! fingerprint, then every record (per-record checksum and full wire
//! decode). *Any* failure — truncation, bit flip, version skew, config
//! drift — discards the store with a machine-readable
//! [`DiscardReason`] and the daemon cold-starts. A persisted store can
//! make a restart slower, never wrong: restored entries re-enter the
//! same keyed cache the identity contract already covers, and the
//! `serve-persist` oracle checks restart-warm ≡ cold bit for bit.
//!
//! **Trust model.** Checksums (FNV-1a-128, see [`ipcp_ir::hash`]) guard
//! against accidental corruption, not a malicious local user crafting a
//! store file — that user already controls the daemon's program text.
//! Decoding is panic-free on arbitrary bytes either way.
//!
//! **Fault injection.** [`IoInjector`] fails the N-th write-class
//! operation (or rename) of a snapshot deterministically — short write,
//! `ENOSPC`, `EIO`, rename failure — mirroring `--inject-panic`; the
//! kill-during-save tests sweep every injection point and assert the
//! old store still verifies.

use crate::serve::cache::{CacheKey, CachedSummary, SummaryCache};
use crate::serve::wire::{self, Reader, Writer};
use ipcp_ir::hash::hash_bytes;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "ipcp summaries", version-independent.
pub const MAGIC: [u8; 8] = *b"IPCPSUMS";

/// Format version. Bump on any layout change; old versions are
/// discarded as [`DiscardReason::VersionSkew`], never migrated.
/// Version 2: recorded `Charges` hold one counter per stage of six (the
/// binding-multigraph stage is gone).
pub const VERSION: u32 = 2;

/// Why a store file was rejected at load. Surfaced in the startup log,
/// the `stats`/`health` protocol ops, and the telemetry tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiscardReason {
    /// The file does not exist (a fresh daemon, not a failure).
    Missing,
    /// The file exists but could not be read.
    Io(String),
    /// Shorter than a complete header + trailer.
    Truncated,
    /// The magic bytes are not ours.
    BadMagic,
    /// Written by a different format version.
    VersionSkew {
        /// The version found in the file.
        found: u32,
    },
    /// Written under a different analysis configuration.
    ConfigDrift,
    /// Written for a differently shaped program.
    ShapeDrift,
    /// The whole-file checksum does not match the contents.
    BadChecksum,
    /// A record failed its checksum or wire decode.
    BadRecord,
}

impl DiscardReason {
    /// Short machine-readable label (stable; used in tables and logs).
    pub fn label(&self) -> &'static str {
        match self {
            DiscardReason::Missing => "missing",
            DiscardReason::Io(_) => "io",
            DiscardReason::Truncated => "truncated",
            DiscardReason::BadMagic => "bad-magic",
            DiscardReason::VersionSkew { .. } => "version-skew",
            DiscardReason::ConfigDrift => "config-drift",
            DiscardReason::ShapeDrift => "shape-drift",
            DiscardReason::BadChecksum => "bad-checksum",
            DiscardReason::BadRecord => "bad-record",
        }
    }
}

impl fmt::Display for DiscardReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscardReason::Missing => write!(f, "no store file"),
            DiscardReason::Io(e) => write!(f, "unreadable store: {e}"),
            DiscardReason::Truncated => write!(f, "truncated store"),
            DiscardReason::BadMagic => write!(f, "not a summary store"),
            DiscardReason::VersionSkew { found } => {
                write!(f, "format version {found}, this build writes {VERSION}")
            }
            DiscardReason::ConfigDrift => write!(f, "written under a different configuration"),
            DiscardReason::ShapeDrift => write!(f, "written for a differently shaped program"),
            DiscardReason::BadChecksum => write!(f, "whole-file checksum mismatch"),
            DiscardReason::BadRecord => write!(f, "corrupt record"),
        }
    }
}

/// Encodes the cache into the store's byte format:
///
/// ```text
/// magic[8] version[u32] config_fp[u128] shape_fp[u128] count[u64]
/// count × ( stage[u8] digest[u128] payload_len[u64] payload
///           record_checksum[u128] )
/// file_checksum[u128]        // FNV-1a-128 of every preceding byte
/// ```
///
/// Entries are emitted in the cache's FIFO order, so restore followed by
/// re-encode is byte-identical (asserted by tests — it is what makes the
/// checksums meaningful).
pub fn encode(cache: &SummaryCache, config_fp: u128, shape_fp: u128) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&MAGIC);
    w.put_u32(VERSION);
    w.put_u128(config_fp);
    w.put_u128(shape_fp);
    w.put_len(cache.len());
    for (key, summary) in cache.iter_fifo() {
        let mut rec = Writer::new();
        rec.put_u8(wire::stage_code(key.stage));
        rec.put_u128(key.digest);
        let mut payload = Writer::new();
        wire::put_summary(&mut payload, summary);
        let payload = payload.into_bytes();
        rec.put_len(payload.len());
        rec.put_bytes(&payload);
        let rec = rec.into_bytes();
        let checksum = hash_bytes(&rec);
        w.put_bytes(&rec);
        w.put_u128(checksum);
    }
    let bytes = w.into_bytes();
    let file_checksum = hash_bytes(&bytes);
    let mut w = Writer::new();
    w.put_bytes(&bytes);
    w.put_u128(file_checksum);
    w.into_bytes()
}

/// Decodes and fully verifies a store image against the expected
/// fingerprints, returning the cache entries in their persisted FIFO
/// order — or the reason the whole store must be discarded. Never
/// panics, whatever the bytes.
pub fn decode(
    bytes: &[u8],
    config_fp: u128,
    shape_fp: u128,
) -> Result<Vec<(CacheKey, CachedSummary)>, DiscardReason> {
    // Header prefix: enough to tell *why* an old or foreign file is
    // rejected before trusting anything else in it.
    let mut r = Reader::new(bytes);
    let magic = r.take(8).map_err(|_| DiscardReason::Truncated)?;
    if magic != MAGIC {
        return Err(DiscardReason::BadMagic);
    }
    let version = r.get_u32().map_err(|_| DiscardReason::Truncated)?;
    if version != VERSION {
        return Err(DiscardReason::VersionSkew { found: version });
    }
    // Whole-file integrity next: everything after this point may assume
    // the bytes are exactly what a writer of this version produced.
    if bytes.len() < 8 + 4 + 16 {
        return Err(DiscardReason::Truncated);
    }
    let body = &bytes[..bytes.len() - 16];
    let mut trailer = Reader::new(&bytes[bytes.len() - 16..]);
    let file_checksum = trailer.get_u128().map_err(|_| DiscardReason::Truncated)?;
    if hash_bytes(body) != file_checksum {
        return Err(DiscardReason::BadChecksum);
    }
    let mut r = Reader::new(&body[12..]);
    let config = r.get_u128().map_err(|_| DiscardReason::Truncated)?;
    let shape = r.get_u128().map_err(|_| DiscardReason::Truncated)?;
    if config != config_fp {
        return Err(DiscardReason::ConfigDrift);
    }
    if shape != shape_fp {
        return Err(DiscardReason::ShapeDrift);
    }
    let count = r
        .get_len(1 + 16 + 8 + 16)
        .map_err(|_| DiscardReason::Truncated)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let rec_start = body.len() - 12 - r.remaining();
        let stage_byte = r.get_u8().map_err(|_| DiscardReason::BadRecord)?;
        let stage = wire::stage_from(stage_byte).map_err(|_| DiscardReason::BadRecord)?;
        let digest = r.get_u128().map_err(|_| DiscardReason::BadRecord)?;
        let payload_len = r.get_len(1).map_err(|_| DiscardReason::BadRecord)?;
        let payload = r.take(payload_len).map_err(|_| DiscardReason::BadRecord)?;
        let rec_end = body.len() - 12 - r.remaining();
        let checksum = r.get_u128().map_err(|_| DiscardReason::BadRecord)?;
        if hash_bytes(&body[12..][rec_start..rec_end]) != checksum {
            return Err(DiscardReason::BadRecord);
        }
        let mut pr = Reader::new(payload);
        let summary = wire::get_summary(&mut pr, stage).map_err(|_| DiscardReason::BadRecord)?;
        if !pr.is_done() {
            return Err(DiscardReason::BadRecord);
        }
        entries.push((CacheKey { stage, digest }, summary));
    }
    if !r.is_done() {
        return Err(DiscardReason::BadRecord);
    }
    Ok(entries)
}

/// Which injected disk fault to fire. Parsed from
/// `--inject-io <fault>:<point>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The N-th write persists only half its bytes, then errors — a torn
    /// write, as a crash mid-`write(2)` would leave.
    ShortWrite,
    /// The N-th write-class operation fails with `ENOSPC`.
    Enospc,
    /// The N-th write-class operation fails with `EIO`.
    Eio,
    /// The N-th rename fails (the commit point itself).
    RenameFail,
}

impl IoFault {
    /// The flag spelling.
    pub fn label(self) -> &'static str {
        match self {
            IoFault::ShortWrite => "short-write",
            IoFault::Enospc => "enospc",
            IoFault::Eio => "eio",
            IoFault::RenameFail => "rename-fail",
        }
    }

    fn error(self) -> io::Error {
        match self {
            IoFault::ShortWrite => io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write (short-write)",
            ),
            // Real OS error codes so logs read like the field failures
            // they simulate.
            IoFault::Enospc => io::Error::from_raw_os_error(28),
            IoFault::Eio => io::Error::from_raw_os_error(5),
            IoFault::RenameFail => {
                io::Error::new(io::ErrorKind::PermissionDenied, "injected rename failure")
            }
        }
    }
}

/// Deterministic disk-fault injector: fails the `point`-th operation of
/// the matching class (1-based). Write-class faults count chunk writes
/// and fsyncs; `rename-fail` counts renames.
#[derive(Clone, Debug)]
pub struct IoInjector {
    fault: IoFault,
    point: u64,
    seen: u64,
}

impl IoInjector {
    /// An injector firing `fault` at operation `point` (minimum 1).
    pub fn new(fault: IoFault, point: u64) -> IoInjector {
        IoInjector {
            fault,
            point: point.max(1),
            seen: 0,
        }
    }

    /// Parses the `--inject-io` argument, e.g. `eio:3`, `rename-fail:1`.
    pub fn parse(s: &str) -> Option<IoInjector> {
        let (fault, point) = s.split_once(':')?;
        let fault = match fault {
            "short-write" => IoFault::ShortWrite,
            "enospc" => IoFault::Enospc,
            "eio" => IoFault::Eio,
            "rename-fail" => IoFault::RenameFail,
            _ => return None,
        };
        let point: u64 = point.parse().ok()?;
        if point == 0 {
            return None;
        }
        Some(IoInjector::new(fault, point))
    }

    /// The fault this injector fires.
    pub fn fault(&self) -> IoFault {
        self.fault
    }

    fn trip(&mut self, write_class: bool) -> Option<IoFault> {
        let applies = match self.fault {
            IoFault::RenameFail => !write_class,
            _ => write_class,
        };
        if !applies {
            return None;
        }
        self.seen += 1;
        (self.seen == self.point).then_some(self.fault)
    }
}

/// Size of one injector-countable write. Small enough that every store
/// in the tests spans several injection points.
const WRITE_CHUNK: usize = 256;

/// The file-backed store: a path plus an optional fault injector.
#[derive(Debug)]
pub struct SummaryStore {
    path: PathBuf,
    injector: Option<IoInjector>,
}

/// What loading found, for the startup log and telemetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadStatus {
    /// No store file yet — a fresh daemon.
    Fresh,
    /// This many records restored.
    Restored(usize),
    /// The store was discarded; the daemon cold-starts.
    Discarded(DiscardReason),
}

impl SummaryStore {
    /// A store at `path` with no fault injection.
    pub fn new(path: impl Into<PathBuf>) -> SummaryStore {
        SummaryStore {
            path: path.into(),
            injector: None,
        }
    }

    /// A store whose saves run under the given fault injector.
    pub fn with_injector(path: impl Into<PathBuf>, injector: Option<IoInjector>) -> SummaryStore {
        SummaryStore {
            path: path.into(),
            injector,
        }
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads and verifies the store against the expected fingerprints.
    /// Never fails the caller: any problem yields empty entries and a
    /// [`LoadStatus`] describing why. The rejected file is left in
    /// place — the next snapshot atomically replaces it.
    pub fn load(
        &self,
        config_fp: u128,
        shape_fp: u128,
    ) -> (Vec<(CacheKey, CachedSummary)>, LoadStatus) {
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (Vec::new(), LoadStatus::Fresh)
            }
            Err(e) => {
                return (
                    Vec::new(),
                    LoadStatus::Discarded(DiscardReason::Io(e.to_string())),
                )
            }
            Ok(mut f) => {
                if let Err(e) = f.read_to_end(&mut bytes) {
                    return (
                        Vec::new(),
                        LoadStatus::Discarded(DiscardReason::Io(e.to_string())),
                    );
                }
            }
        }
        match decode(&bytes, config_fp, shape_fp) {
            Ok(entries) => {
                let n = entries.len();
                (entries, LoadStatus::Restored(n))
            }
            Err(reason) => (Vec::new(), LoadStatus::Discarded(reason)),
        }
    }

    /// Atomically snapshots the cache: encode, write `<path>.tmp` in
    /// chunks, fsync, rename over `<path>`, best-effort directory
    /// fsync. On any error (real or injected) the previous store file
    /// is untouched; a stranded `.tmp` is cleaned up best-effort and
    /// ignored by [`SummaryStore::load`] either way. Returns the number
    /// of records written.
    pub fn save(
        &mut self,
        cache: &SummaryCache,
        config_fp: u128,
        shape_fp: u128,
    ) -> io::Result<usize> {
        let bytes = encode(cache, config_fp, shape_fp);
        let records = cache.len();
        let tmp = self.tmp_path();
        let result = self.write_tmp(&tmp, &bytes).and_then(|()| {
            if let Some(f) = self.injector.as_mut().and_then(|i| i.trip(false)) {
                return Err(f.error());
            }
            fs::rename(&tmp, &self.path)
        });
        match result {
            Ok(()) => {
                // Make the rename itself durable. Failure here is not
                // actionable (the data is safe in either file) — ignore.
                if let Some(dir) = self.path.parent() {
                    if let Ok(d) = File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
                Ok(records)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn tmp_path(&self) -> PathBuf {
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".tmp");
        self.path.with_file_name(name)
    }

    fn write_tmp(&mut self, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)?;
        for chunk in bytes.chunks(WRITE_CHUNK) {
            if let Some(fault) = self.injector.as_mut().and_then(|i| i.trip(true)) {
                if fault == IoFault::ShortWrite {
                    // Persist half the chunk so the tmp file is torn the
                    // way an interrupted write(2) leaves it.
                    let _ = f.write_all(&chunk[..chunk.len() / 2]);
                    let _ = f.sync_all();
                }
                return Err(fault.error());
            }
            f.write_all(chunk)?;
        }
        if let Some(fault) = self.injector.as_mut().and_then(|i| i.trip(true)) {
            return Err(fault.error());
        }
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::serve::engine::ServeEngine;

    const SRC: &str = "proc main() { x = 1; call mid(x); print x; }\n\
                       proc mid(a) { call leaf(a); }\n\
                       proc leaf(b) { print b + 41; }";

    fn warm_engine() -> (ServeEngine, u128, u128) {
        let config = Config::default();
        let engine = ServeEngine::new(SRC, &config).expect("engine");
        let (cfp, sfp) = engine.fingerprints();
        (engine, cfp, sfp)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipcp-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn encode_decode_restore_is_byte_idempotent() {
        let (engine, cfp, sfp) = warm_engine();
        assert!(!engine.cache().is_empty(), "warm cache expected");
        let bytes = encode(engine.cache(), cfp, sfp);
        let entries = decode(&bytes, cfp, sfp).expect("own encoding decodes");
        assert_eq!(entries.len(), engine.cache().len());
        let restored = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
        assert_eq!(encode(&restored, cfp, sfp), bytes);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (engine, cfp, sfp) = warm_engine();
        let bytes = encode(engine.cache(), cfp, sfp);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], cfp, sfp).is_err(),
                "prefix of {cut}/{} bytes accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (engine, cfp, sfp) = warm_engine();
        let bytes = encode(engine.cache(), cfp, sfp);
        // Every byte is covered by the whole-file checksum (or is the
        // checksum itself), so any single flip must be caught.
        let step = (bytes.len() / 97).max(1);
        for i in (0..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode(&corrupt, cfp, sfp).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    fn reason(res: Result<Vec<(CacheKey, CachedSummary)>, DiscardReason>) -> DiscardReason {
        match res {
            Err(r) => r,
            Ok(entries) => panic!("decoded {} entries, expected a discard", entries.len()),
        }
    }

    #[test]
    fn discard_reasons_are_distinguished() {
        let (engine, cfp, sfp) = warm_engine();
        let bytes = encode(engine.cache(), cfp, sfp);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            reason(decode(&bad_magic, cfp, sfp)),
            DiscardReason::BadMagic
        );

        let mut skew = bytes.clone();
        skew[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            reason(decode(&skew, cfp, sfp)),
            DiscardReason::VersionSkew { found: VERSION + 1 }
        );

        assert_eq!(
            reason(decode(&bytes, cfp ^ 1, sfp)),
            DiscardReason::ConfigDrift
        );
        assert_eq!(
            reason(decode(&bytes, cfp, sfp ^ 1)),
            DiscardReason::ShapeDrift
        );

        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0xFF;
        assert_eq!(
            reason(decode(&flipped, cfp, sfp)),
            DiscardReason::BadChecksum
        );

        assert_eq!(reason(decode(&[], cfp, sfp)), DiscardReason::Truncated);
        assert_eq!(
            reason(decode(b"not a store file at all", cfp, sfp)),
            DiscardReason::BadMagic
        );
    }

    #[test]
    fn file_store_round_trips_and_ignores_stranded_tmp() {
        let (engine, cfp, sfp) = warm_engine();
        let dir = tmp_dir("roundtrip");
        let mut store = SummaryStore::new(dir.join("cache.store"));
        // A stranded tmp from a "crashed" previous save is inert.
        fs::write(dir.join("cache.store.tmp"), b"garbage").expect("write tmp");
        let n = store.save(engine.cache(), cfp, sfp).expect("save");
        assert_eq!(n, engine.cache().len());
        let (entries, status) = store.load(cfp, sfp);
        assert_eq!(status, LoadStatus::Restored(n));
        assert_eq!(entries.len(), n);
        let (none, status) = SummaryStore::new(dir.join("absent")).load(cfp, sfp);
        assert!(none.is_empty());
        assert_eq!(status, LoadStatus::Fresh);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_at_every_point_leave_the_old_store_intact() {
        let (engine, cfp, sfp) = warm_engine();
        let dir = tmp_dir("faults");
        let path = dir.join("cache.store");
        SummaryStore::new(&path)
            .save(engine.cache(), cfp, sfp)
            .expect("baseline save");
        let baseline = fs::read(&path).expect("baseline bytes");

        // ≥20 kill-during-save iterations: every write-class point the
        // snapshot actually has, for each write fault, plus the rename.
        let n_points = baseline.len().div_ceil(WRITE_CHUNK) + 1; // chunks + fsync
        let mut iterations = 0;
        for fault in [IoFault::ShortWrite, IoFault::Enospc, IoFault::Eio] {
            for point in 1..=n_points as u64 {
                let mut store =
                    SummaryStore::with_injector(&path, Some(IoInjector::new(fault, point)));
                let err = store
                    .save(engine.cache(), cfp, sfp)
                    .expect_err("fault must surface");
                assert!(
                    fault != IoFault::Enospc || err.raw_os_error() == Some(28),
                    "ENOSPC should carry the real errno"
                );
                assert_eq!(fs::read(&path).expect("store survives"), baseline);
                assert!(!dir.join("cache.store.tmp").exists(), "tmp cleaned up");
                let (entries, status) = store.load(cfp, sfp);
                assert!(matches!(status, LoadStatus::Restored(_)));
                assert!(!entries.is_empty());
                iterations += 1;
            }
        }
        {
            let mut store =
                SummaryStore::with_injector(&path, Some(IoInjector::new(IoFault::RenameFail, 1)));
            store
                .save(engine.cache(), cfp, sfp)
                .expect_err("rename fault must surface");
            assert_eq!(fs::read(&path).expect("store survives"), baseline);
            iterations += 1;
        }
        assert!(iterations >= 20, "only {iterations} fault points swept");

        // After the faults clear, the next snapshot succeeds.
        let mut store = SummaryStore::new(&path);
        store.save(engine.cache(), cfp, sfp).expect("clean save");
        assert_eq!(fs::read(&path).expect("bytes"), baseline);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injector_parsing() {
        let inj = IoInjector::parse("eio:3").expect("parses");
        assert_eq!(inj.fault(), IoFault::Eio);
        assert_eq!(inj.point, 3);
        assert_eq!(
            IoInjector::parse("rename-fail:1").map(|i| i.fault()),
            Some(IoFault::RenameFail)
        );
        for bad in ["", "eio", "eio:", "eio:0", "eio:x", "sparks:2", ":3"] {
            assert!(IoInjector::parse(bad).is_none(), "{bad:?} parsed");
        }
    }
}
