//! `ipcc serve` — the crash-isolated incremental analysis service.
//!
//! This module is the library half of the daemon: everything except the
//! transport. The CLI layers a JSON-lines protocol (stdin/stdout and a
//! Unix socket), admission control, and signal handling on top of
//! [`ServeEngine`]; the tier-1 tests and the `serve-identity` fuzz
//! oracle drive the engine directly.
//!
//! * [`json`] — a minimal, bounded JSON parser/serializer (the protocol
//!   wire format; no external dependencies);
//! * [`cache`] — the content-hash-keyed [`SummaryCache`] with its
//!   snapshot–validate–commit transaction overlay, and the [`Memo`] hook
//!   the pipeline consults before each per-procedure unit. Serve runs no
//!   stages of its own: a request is
//!   [`Analysis::run_memoized`](crate::Analysis::run_memoized) — the one
//!   pipeline driver, on the request's `--jobs` pool — differentially
//!   bit-identical to a cold [`crate::Analysis::run`];
//! * [`engine`] — the typed request engine: `analyze`, `constants`,
//!   `explain`, `update`, `load`, plus telemetry;
//! * [`workers`] — the multi-worker read engine: an epoch-gated,
//!   Mutex-free snapshot cell ([`EpochCell`]) and the read-request
//!   thread pool ([`ReadPool`]) behind `--serve-workers`;
//! * [`wire`] — panic-free binary codecs for the persisted summaries
//!   (MOD/REF and return jump functions);
//! * [`store`] — the durable on-disk snapshot of the cache's MOD/REF and
//!   return-jump entries (atomic
//!   write-temp/fsync/rename saves, fully checksummed loads that
//!   discard with a reason and cold-start on any mismatch, plus the
//!   deterministic disk-fault injector behind `--inject-io`).
//!
//! See `docs/SERVE.md` for the protocol and the service contract, and
//! `docs/ROBUSTNESS.md` for the durability contract.

pub mod cache;
pub mod engine;
pub mod json;
pub mod store;
pub mod wire;
pub mod workers;

pub use cache::{
    cacheable, config_fingerprint, same_results, shape_fingerprint, CacheKey, CacheStats, CacheTxn,
    CachedSummary, Memo, RunPath, SummaryCache, SummaryStage,
};
pub use engine::{
    config_from_overrides, own_hashes, ConstantsReport, EngineStats, RequestOutcome, ServeEngine,
    ServeError,
};
pub use json::{Json, Object};
pub use store::{DiscardReason, IoFault, IoInjector, LoadStatus, SummaryStore};
pub use workers::{EpochCell, PoolCounters, ReadJob, ReadPool, Snapshot};
