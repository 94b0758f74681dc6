//! `ipcc serve` — the transport layer of the incremental analysis
//! daemon.
//!
//! The engine ([`ipcp::serve::ServeEngine`]) owns all analysis state and
//! runs on the main thread. Transports — a stdin reader and, with
//! `--socket`, a Unix-socket acceptor — parse nothing: they push raw
//! request lines through a *bounded* channel (the admission control) and
//! carry a reply sink back to their origin. Everything a request can do
//! wrong becomes a structured JSON error response; no serve-path code
//! calls `process::exit`.
//!
//! Requests split into two classes at dequeue. *Read* requests
//! (`health`, `stats`, `explain`, and `constants` without a `config`
//! override — plus `batch` frames made only of those) answer from the
//! published [`Snapshot`] and run concurrently on the
//! `--serve-workers` [`ReadPool`]. *Writer* requests (`update`, `load`,
//! `analyze`, anything carrying `config`) run on the main thread under
//! an exclusive epoch: the pool is quiesced first, the engine mutates,
//! and a fresh snapshot is published before the next read executes. A
//! `batch` frame carries up to [`MAX_BATCH`] requests and returns one
//! reply frame with a per-item `results` array (items after an
//! in-batch `shutdown` are shed explicitly). See the "Concurrency"
//! section of `docs/SERVE.md`.
//!
//! Robustness envelope, outermost first:
//!
//! * **Admission.** The channel holds at most `--max-inflight` requests;
//!   a full channel sheds immediately with an `overloaded` response, and
//!   a request older than `--queue-ms` when dequeued is shed rather than
//!   served stale.
//! * **Deadlines.** `--request-deadline-ms` (or a per-request
//!   `config.deadline_ms` override) bounds each analyzing request from its
//!   start, `update` and `load` included, and never picks its path; stages
//!   that time out answer ⊥ and the response carries `degraded: true` —
//!   constants are never invented under pressure.
//! * **Quarantine.** Panics inside analysis units degrade per-procedure;
//!   a request-level panic (quarantine disabled by override) is caught at
//!   the request boundary, answered as `"kind": "panic"`, and provably
//!   leaves the warm state and summary cache untouched.
//! * **Drain.** SIGTERM/SIGINT or a `shutdown` request stop admission and
//!   drain queued requests under `--drain-ms`; whatever cannot drain in
//!   time is shed with `shutting_down`.
//! * **Persistence.** With `--store`, the summary cache's MOD/REF and
//!   return-jump entries are restored (after full verification — any
//!   mismatch is a logged cold start, never a wrong answer) at boot and
//!   snapshotted atomically on drain and every `--snapshot-every-n`
//!   requests; the boot run rebuilds the symbolic forms. Snapshot failures are
//!   logged and counted, never fatal. See `docs/ROBUSTNESS.md` for the
//!   durability contract.
//!
//! Protocol reference: `docs/SERVE.md`.

use crate::args::ServeOpts;
use ipcp::serve::json;
use ipcp::serve::{
    config_from_overrides, DiscardReason, IoInjector, Json, LoadStatus, Object, PoolCounters,
    ReadPool, RequestOutcome, RunPath, ServeEngine, ServeError, Snapshot, SummaryStore,
};
use ipcp::Config;
use ipcp_suite::Rng;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Set by the C signal handler; polled by the worker loop.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    TERM.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    extern "C" {
        // POSIX signal(2) via the C ABI — no crates, no masks to manage;
        // the handler is a single atomic store.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
}

/// Where a request's response goes.
#[derive(Clone)]
enum Sink {
    Stdout,
    Conn(Arc<Mutex<UnixStream>>),
}

impl Sink {
    /// Best-effort line write: a transport that died mid-request must
    /// not take the daemon with it.
    fn send_line(&self, line: &str) {
        match self {
            Sink::Stdout => {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
            Sink::Conn(stream) => {
                if let Ok(mut s) = stream.lock() {
                    let _ = writeln!(s, "{line}");
                    let _ = s.flush();
                }
            }
        }
    }
}

/// One admitted request: the raw line, its reply sink, and when it was
/// accepted (for the queue deadline).
struct Incoming {
    line: String,
    sink: Sink,
    at: Instant,
}

/// Transport-shared counters (the worker owns everything else).
#[derive(Default)]
struct Shared {
    /// Requests shed at admission or by the queue/drain deadlines.
    shed: AtomicU64,
    /// Requests currently queued or being processed.
    in_flight: AtomicU64,
}

/// A full error-response object (also a `batch` `results` item).
fn err_json(id: &Json, kind: &str, message: &str) -> Json {
    let mut err = Object::new();
    err.set("kind", Json::from(kind));
    err.set("message", Json::from(message));
    let mut o = Object::new();
    o.set("id", id.clone());
    o.set("ok", Json::from(false));
    o.set("error", Json::from(err));
    Json::from(o)
}

/// A full success-response object (also a `batch` `results` item).
fn ok_json(id: &Json, payload: Object) -> Json {
    let mut o = Object::new();
    o.set("id", id.clone());
    o.set("ok", Json::from(true));
    for (k, v) in payload.into_entries() {
        o.set_owned(k, v);
    }
    Json::from(o)
}

fn error_response(id: &Json, kind: &str, message: &str) -> String {
    err_json(id, kind, message).to_string()
}

fn ok_response(id: &Json, payload: Object) -> String {
    ok_json(id, payload).to_string()
}

/// The `id` of an already-parsed request (protocol ids are the reply
/// correlator; `null` when absent).
fn req_id(req: &Json) -> Json {
    req.as_object()
        .and_then(|o| o.get("id"))
        .cloned()
        .unwrap_or(Json::Null)
}

/// Pulls the request id out of a raw line for shed responses written
/// off-worker. Falls back to `null` when the line is not even JSON.
fn peek_id(line: &str) -> Json {
    json::parse(line)
        .ok()
        .and_then(|j| j.as_object().and_then(|o| o.get("id")).cloned())
        .unwrap_or(Json::Null)
}

/// Store telemetry shared with the read workers, so pooled `stats`
/// replies report persistence state without touching the main thread.
struct StoreCounters {
    /// Successful snapshots this process wrote.
    snapshots: AtomicU64,
    /// Snapshot attempts that failed (logged, never fatal).
    snapshot_failures: AtomicU64,
    /// Records restored at boot (fixed after boot).
    recovered: u64,
    /// Why the boot-time store was discarded, if it was (fixed).
    discarded: Option<DiscardReason>,
}

/// The daemon-side persistence state: the store plus its telemetry.
/// Owned by the main thread — snapshots only ever run between requests
/// or on writer turns, where the cache is quiescent by construction.
struct StoreState {
    store: SummaryStore,
    counters: Arc<StoreCounters>,
    /// Total-served watermark of the last `--snapshot-every-n` trigger.
    served_at_snapshot: u64,
}

impl StoreState {
    /// Atomically snapshots the engine's cache, logging (not failing)
    /// on error. Returns what a `snapshot` response reports.
    fn snapshot(&mut self, engine: &ServeEngine) -> Result<usize, String> {
        let (cfp, sfp) = engine.fingerprints();
        match self.store.save(engine.cache(), cfp, sfp) {
            Ok(records) => {
                self.counters.snapshots.fetch_add(1, Ordering::SeqCst);
                Ok(records)
            }
            Err(e) => {
                self.counters
                    .snapshot_failures
                    .fetch_add(1, Ordering::SeqCst);
                let msg = format!("snapshot to {} failed: {e}", self.store.path().display());
                eprintln!("serve: {msg}");
                Err(msg)
            }
        }
    }

    /// Snapshots when `--snapshot-every-n` says it is due.
    /// `total_served` counts every frame the daemon finished — pooled
    /// reads included (via the pool's `completed` counter), so the
    /// cadence is checked on each main-loop tick rather than per
    /// request. A failed snapshot keeps the watermark, so the next tick
    /// retries.
    fn maybe_snapshot(&mut self, engine: &ServeEngine, total_served: u64, every_n: Option<u64>) {
        let due =
            every_n.is_some_and(|n| total_served.saturating_sub(self.served_at_snapshot) >= n);
        if due && self.snapshot(engine).is_ok() {
            self.served_at_snapshot = total_served;
        }
    }
}

/// The reply of a request that ran an analysis: its outcome plus the SCC
/// units the solve ran and the path the run took (a warm read reports the
/// outcome alone).
fn run_payload(outcome: &RequestOutcome) -> Object {
    let mut o = outcome_payload(outcome);
    o.set("solved_units", Json::from(outcome.solved_units));
    o.set("path", Json::from(outcome.path.label()));
    o
}

fn outcome_payload(outcome: &RequestOutcome) -> Object {
    let mut o = Object::new();
    o.set("degraded", Json::from(outcome.degraded));
    o.set("cache_hits", Json::from(outcome.hits));
    o.set("cache_persisted_hits", Json::from(outcome.persisted_hits));
    o.set("cache_misses", Json::from(outcome.misses));
    o.set("cache_carried", Json::from(outcome.carried));
    o.set("cache_bypassed", Json::from(outcome.bypassed));
    o.set(
        "events",
        Json::Array(
            outcome
                .events
                .iter()
                .map(|e| Json::from(e.to_string()))
                .collect(),
        ),
    );
    o.set(
        "quarantined",
        Json::Array(
            outcome
                .quarantined
                .iter()
                .map(|q| Json::from(q.as_str()))
                .collect(),
        ),
    );
    o
}

/// Upper bound on requests one `batch` frame may carry.
const MAX_BATCH: usize = 1024;

/// Everything the read path needs besides the snapshot itself; shared
/// (one `Arc`) between the pool closures and the drain-time inline
/// reads.
struct ReadCtx {
    shared: Arc<Shared>,
    /// The pool's counters — `read_errors` feeds the `stats` payload's
    /// `errors` field alongside the engine's writer-side count.
    counters: Arc<PoolCounters>,
    store: Option<Arc<StoreCounters>>,
    started: Instant,
    queue_deadline: Duration,
}

/// Whether a single request object is a pure read: answerable from the
/// published snapshot, mutating nothing. `constants` stops being a read
/// the moment it carries a `config` override (the override path runs a
/// one-off analysis through the shared cache).
fn is_read_op(req: &Object) -> bool {
    match req.get("op").and_then(Json::as_str) {
        Some("health") | Some("stats") | Some("explain") => true,
        Some("constants") => req.get("config").is_none(),
        _ => false,
    }
}

/// Whether a whole parsed frame goes to the read pool: a single read
/// op, or a well-formed `batch` made only of read ops. Anything else —
/// writers, mixed or oversized batches, malformed shapes — takes the
/// serialized writer path, which answers (or rejects) it inline.
fn is_read_frame(req: &Json) -> bool {
    let Some(o) = req.as_object() else {
        return false;
    };
    match o.get("op").and_then(Json::as_str) {
        Some("batch") => match o.get("requests").and_then(Json::as_array) {
            Some(items) if items.len() <= MAX_BATCH => items
                .iter()
                .all(|it| it.as_object().is_some_and(is_read_op)),
            _ => false,
        },
        _ => is_read_op(o),
    }
}

/// Where a dequeued frame executes.
enum Route {
    /// Not even JSON: answer inline with the parse error.
    Malformed(String),
    /// Pure reads — concurrent, against the published snapshot.
    Read(Json),
    /// Everything else — serialized on the main thread.
    Writer(Json),
}

fn classify(line: &str) -> Route {
    match json::parse(line) {
        Err(e) => Route::Malformed(format!("malformed JSON: {e}")),
        Ok(req) if is_read_frame(&req) => Route::Read(req),
        Ok(req) => Route::Writer(req),
    }
}

/// Serves one read op from the snapshot. The payloads mirror what the
/// single-threaded daemon answered: `constants`/`explain` render through
/// the same engine helpers (byte-identical by construction), and the
/// telemetry ops read the counters published with the snapshot.
fn read_payload(
    snap: &Snapshot,
    ctx: &ReadCtx,
    draining: bool,
    req: &Object,
) -> Result<Object, ServeError> {
    let op = str_field(req, "op")?;
    match op {
        "health" => {
            let mut o = Object::new();
            o.set(
                "status",
                Json::from(if draining { "draining" } else { "ok" }),
            );
            o.set(
                "uptime_ms",
                Json::from(ctx.started.elapsed().as_millis() as u64),
            );
            o.set(
                "in_flight",
                Json::from(ctx.shared.in_flight.load(Ordering::SeqCst)),
            );
            o.set("shed", Json::from(ctx.shared.shed.load(Ordering::SeqCst)));
            o.set("cache_hits", Json::from(snap.cache.hits));
            o.set("cache_misses", Json::from(snap.cache.misses));
            o.set("cache_entries", Json::from(snap.cache_len));
            o.set("cache_recovered", Json::from(snap.cache.recovered));
            o.set(
                "cache_persisted_hits",
                Json::from(snap.cache.persisted_hits),
            );
            o.set("degraded_last", Json::from(snap.outcome.degraded));
            Ok(o)
        }
        "stats" => {
            let stats = snap.stats;
            let cache = snap.cache;
            let errors = stats.errors + ctx.counters.read_errors.load(Ordering::SeqCst);
            let t = &snap.analysis.timings;
            let mut o = Object::new();
            o.set("requests", Json::from(stats.requests));
            o.set("updates", Json::from(stats.updates));
            o.set("spliced_updates", Json::from(stats.spliced_updates));
            o.set("loads", Json::from(stats.loads));
            o.set("solved_units", Json::from(stats.solved_units));
            o.set("live_runs", Json::from(stats.runs_on(RunPath::Live)));
            let mut plain = Object::new();
            for path in RunPath::ALL.into_iter().filter(|&p| p != RunPath::Live) {
                plain.set(path.label(), Json::from(stats.runs_on(path)));
            }
            o.set("plain_runs", Json::from(plain));
            o.set("errors", Json::from(errors));
            o.set("degraded_requests", Json::from(stats.degraded_requests));
            o.set("panics_contained", Json::from(stats.panics_contained));
            o.set("shed", Json::from(ctx.shared.shed.load(Ordering::SeqCst)));
            o.set("cache_hits", Json::from(cache.hits));
            o.set("cache_misses", Json::from(cache.misses));
            o.set("cache_evictions", Json::from(cache.evictions));
            o.set("cache_bypasses", Json::from(cache.bypasses));
            o.set("cache_entries", Json::from(snap.cache_len));
            o.set("cache_recovered", Json::from(cache.recovered));
            o.set("cache_persisted_hits", Json::from(cache.persisted_hits));
            o.set("cache_carried", Json::from(cache.carried));
            if let Some(rate) = cache.hit_rate() {
                o.set("cache_hit_rate", Json::Float(rate));
            }
            if let Some(sc) = ctx.store.as_ref() {
                o.set(
                    "store_snapshots",
                    Json::from(sc.snapshots.load(Ordering::SeqCst)),
                );
                o.set(
                    "store_snapshot_failures",
                    Json::from(sc.snapshot_failures.load(Ordering::SeqCst)),
                );
                o.set("store_recovered", Json::from(sc.recovered));
                o.set(
                    "store_discarded",
                    match &sc.discarded {
                        None => Json::Null,
                        Some(reason) => Json::from(reason.label()),
                    },
                );
            }
            let mut timings = Object::new();
            timings.set("modref_us", Json::from(t.modref.wall.as_micros() as u64));
            timings.set("retjump_us", Json::from(t.retjump.wall.as_micros() as u64));
            timings.set("jump_us", Json::from(t.jump.wall.as_micros() as u64));
            timings.set("solve_us", Json::from(t.solve.wall.as_micros() as u64));
            o.set("last_timings", Json::from(timings));
            Ok(o)
        }
        "constants" => {
            let proc = match req.get("proc") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| ServeError::BadRequest("`proc` must be a string".into()))?,
                ),
            };
            let report = snap.constants(proc)?;
            let mut o = outcome_payload(&snap.outcome);
            let report = report.to_json();
            if let Some(fields) = report.as_object() {
                for (k, v) in fields.iter() {
                    o.set(k, v.clone());
                }
            }
            Ok(o)
        }
        "explain" => {
            let proc = str_field(req, "proc")?;
            let slot = match req.get("slot") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| ServeError::BadRequest("`slot` must be a string".into()))?,
                ),
            };
            let depth = match req.get("depth") {
                None => 3,
                Some(v) => v.as_i64().filter(|&d| d >= 0).ok_or_else(|| {
                    ServeError::BadRequest("`depth` must be a non-negative integer".into())
                })? as usize,
            };
            let text = snap.explain(proc, slot, depth)?;
            let mut o = Object::new();
            o.set("text", Json::from(text));
            Ok(o)
        }
        other => Err(ServeError::BadRequest(format!(
            "unknown op `{other}` on the read path"
        ))),
    }
}

/// One read request (a frame or a `batch` item) to a full response
/// object. Structured errors bump the pool's `read_errors`.
fn read_item(snap: &Snapshot, ctx: &ReadCtx, draining: bool, item: &Json) -> Json {
    let (id, result) = match item.as_object() {
        None => (
            Json::Null,
            Err(ServeError::BadRequest(
                "request must be a JSON object".into(),
            )),
        ),
        Some(o) => {
            let id = o.get("id").cloned().unwrap_or(Json::Null);
            (id, read_payload(snap, ctx, draining, o))
        }
    };
    match result {
        Ok(payload) => ok_json(&id, payload),
        Err(e) => {
            ctx.counters.read_errors.fetch_add(1, Ordering::SeqCst);
            err_json(&id, e.kind(), &e.to_string())
        }
    }
}

/// Serves one read frame — a single op, or a read-only `batch` answered
/// item by item against one snapshot (so every item in the batch sees
/// the same epoch).
fn serve_read_frame(snap: &Snapshot, ctx: &ReadCtx, draining: bool, req: &Json) -> String {
    let Some(o) = req.as_object() else {
        return error_response(&Json::Null, "bad_request", "request must be a JSON object");
    };
    if o.get("op").and_then(Json::as_str) == Some("batch") {
        let id = req_id(req);
        let results: Vec<Json> = o
            .get("requests")
            .and_then(Json::as_array)
            .map(|items| {
                items
                    .iter()
                    .map(|it| read_item(snap, ctx, draining, it))
                    .collect()
            })
            .unwrap_or_default();
        let mut payload = Object::new();
        payload.set("results", Json::Array(results));
        ok_response(&id, payload)
    } else {
        read_item(snap, ctx, draining, req).to_string()
    }
}

/// The daemon. Blocks until stdin closes, SIGTERM/SIGINT arrives, or a
/// `shutdown` request is served; returns the number of requests shed so
/// the caller can report it.
pub fn serve(src: &str, config: &Config, opts: &ServeOpts) -> Result<(), String> {
    let ServeOpts {
        socket,
        max_inflight,
        queue_ms,
        drain_ms,
        request_deadline_ms,
        serve_workers,
        ..
    } = opts.clone();
    let (mut engine, mut store) = boot_engine(src, config, opts)?;
    engine.set_request_deadline(request_deadline_ms.map(Duration::from_millis));
    install_signal_handlers();

    let shared = Arc::new(Shared::default());
    let mut pool = ReadPool::new(serve_workers, engine.snapshot());
    let ctx = Arc::new(ReadCtx {
        shared: Arc::clone(&shared),
        counters: pool.counters(),
        store: store.as_ref().map(|st| Arc::clone(&st.counters)),
        started: Instant::now(),
        queue_deadline: Duration::from_millis(queue_ms),
    });
    let (tx, rx) = mpsc::sync_channel::<Incoming>(max_inflight);
    let stdin_closed = Arc::new(AtomicBool::new(false));

    {
        let tx = tx.clone();
        let shared = Arc::clone(&shared);
        let stdin_closed = Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                admit(&tx, &shared, line, Sink::Stdout);
            }
            stdin_closed.store(true, Ordering::SeqCst);
        });
    }

    let mut socket_path = None;
    if let Some(path) = socket.as_deref() {
        let listener = bind_socket(path)?;
        socket_path = Some(path.to_string());
        let tx = tx.clone();
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let tx = tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let Ok(write_half) = conn.try_clone() else {
                        return;
                    };
                    let sink = Sink::Conn(Arc::new(Mutex::new(write_half)));
                    for line in BufReader::new(conn).lines() {
                        let Ok(line) = line else { break };
                        if line.trim().is_empty() {
                            continue;
                        }
                        admit(&tx, &shared, line, sink.clone());
                    }
                });
            }
        });
    }
    drop(tx);

    let mut shutdown = false;
    // Writer/inline frames finished on the main thread; pooled frames
    // are counted by the pool's `completed`. The sum drives the
    // `--snapshot-every-n` cadence.
    let mut inline_served: u64 = 0;

    // Serve until a shutdown signal, then fall through to the drain.
    // Stdin EOF ends a stdin-only daemon; with a socket configured it
    // just retires the stdin transport (daemons under a supervisor run
    // with stdin on /dev/null), and the socket keeps serving.
    let stdin_eof_stops = socket_path.is_none();
    while !shutdown {
        if TERM.load(Ordering::SeqCst) || (stdin_eof_stops && stdin_closed.load(Ordering::SeqCst)) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(inc) => {
                if inc.at.elapsed() > ctx.queue_deadline {
                    shared.shed.fetch_add(1, Ordering::SeqCst);
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    inc.sink.send_line(&error_response(
                        &peek_id(&inc.line),
                        "overloaded",
                        "request exceeded the queue deadline before processing",
                    ));
                    inline_served += 1;
                } else {
                    match classify(&inc.line) {
                        Route::Malformed(msg) => {
                            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                            inc.sink
                                .send_line(&error_response(&Json::Null, "bad_request", &msg));
                            inline_served += 1;
                        }
                        Route::Read(req) => {
                            // Concurrent: the queue-deadline check happens
                            // when the job actually executes.
                            let ctx = Arc::clone(&ctx);
                            let sink = inc.sink.clone();
                            let at = inc.at;
                            pool.submit(Box::new(move |snap| {
                                let response = if at.elapsed() > ctx.queue_deadline {
                                    ctx.shared.shed.fetch_add(1, Ordering::SeqCst);
                                    error_response(
                                        &req_id(&req),
                                        "overloaded",
                                        "request exceeded the queue deadline before processing",
                                    )
                                } else {
                                    serve_read_frame(snap, &ctx, false, &req)
                                };
                                ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                                sink.send_line(&response);
                            }));
                        }
                        Route::Writer(req) => {
                            // Exclusive epoch: every in-flight read finishes
                            // (and its reply flushes) before the engine
                            // mutates; the next snapshot publishes before
                            // any later read runs.
                            pool.quiesce();
                            handle_writer(
                                &mut engine,
                                &ctx,
                                &inc.sink,
                                &req,
                                &mut shutdown,
                                false,
                                &mut store,
                            );
                            pool.publish(engine.snapshot());
                            inline_served += 1;
                        }
                    }
                }
                if let Some(st) = store.as_mut() {
                    let total = inline_served + ctx.counters.completed.load(Ordering::SeqCst);
                    st.maybe_snapshot(&engine, total, opts.snapshot_every_n);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Pooled reads complete asynchronously: check the
                // snapshot cadence on idle ticks too.
                if let Some(st) = store.as_mut() {
                    let total = inline_served + ctx.counters.completed.load(Ordering::SeqCst);
                    st.maybe_snapshot(&engine, total, opts.snapshot_every_n);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Entering the drain: let every pooled read flush its reply, then
    // retire the workers. Drain-time reads are served inline against a
    // fresh snapshot — same rendering path, zero idle threads.
    pool.quiesce();
    pool.shutdown();

    // Graceful drain: serve whatever is already queued, under a deadline;
    // shed the rest explicitly. New connections may still enqueue during
    // the drain — they get `shutting_down` like everything else past the
    // deadline, or service if they make it in time.
    let drain_until = Instant::now() + Duration::from_millis(drain_ms);
    loop {
        let now = Instant::now();
        if now >= drain_until {
            // Past the deadline: shed synchronously, do not analyze.
            while let Ok(inc) = rx.try_recv() {
                shared.shed.fetch_add(1, Ordering::SeqCst);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                inc.sink.send_line(&error_response(
                    &peek_id(&inc.line),
                    "shutting_down",
                    "daemon is shutting down",
                ));
            }
            break;
        }
        match rx.recv_timeout(drain_until - now) {
            Ok(inc) => {
                let mut ignored = false;
                handle(&mut engine, &ctx, inc, &mut ignored, true, &mut store);
                inline_served += 1;
                if let Some(st) = store.as_mut() {
                    let total = inline_served + ctx.counters.completed.load(Ordering::SeqCst);
                    st.maybe_snapshot(&engine, total, opts.snapshot_every_n);
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Snapshot-on-drain: persist whatever the session learned. A failure
    // here is logged and counted like any other snapshot failure — the
    // previous store file, if any, is still intact and verifiable.
    if let Some(st) = store.as_mut() {
        let _ = st.snapshot(&engine);
    }

    if let Some(path) = socket_path {
        let _ = std::fs::remove_file(path);
    }
    let shed = shared.shed.load(Ordering::SeqCst);
    let stats = engine.stats();
    let cache = engine.cache_stats();
    let store_note = match &store {
        None => String::new(),
        Some(st) => format!(
            "; store {} snapshot(s), {} failed, {} recovered",
            st.counters.snapshots.load(Ordering::SeqCst),
            st.counters.snapshot_failures.load(Ordering::SeqCst),
            st.counters.recovered
        ),
    };
    eprintln!(
        "serve: {} request(s), {} degraded, {} panic(s) contained, {} shed; \
         cache {}/{} hit/miss ({} persisted){store_note}",
        stats.requests,
        stats.degraded_requests,
        stats.panics_contained,
        shed,
        cache.hits,
        cache.misses,
        cache.persisted_hits,
    );
    Ok(())
}

/// Builds the engine, restoring the summary cache from `--store` when
/// one is configured. Store problems of any kind are a logged cold
/// start, never a boot failure.
fn boot_engine(
    src: &str,
    config: &Config,
    opts: &ServeOpts,
) -> Result<(ServeEngine, Option<StoreState>), String> {
    let Some(path) = opts.store.as_deref() else {
        let engine =
            ServeEngine::new(src, config).map_err(|e| format!("error: starting daemon: {e}"))?;
        return Ok((engine, None));
    };
    // The spelling was validated at argument-parse time.
    let injector = opts.inject_io.as_deref().and_then(IoInjector::parse);
    let mut summary_store = SummaryStore::with_injector(path, injector);
    let (engine, status) = ServeEngine::new_with_store(src, config, &mut summary_store)
        .map_err(|e| format!("error: starting daemon: {e}"))?;
    let mut recovered = 0;
    let mut discarded = None;
    match status {
        LoadStatus::Fresh => eprintln!("serve: store {path}: no prior store, starting cold"),
        LoadStatus::Restored(n) => {
            recovered = n as u64;
            eprintln!("serve: store {path}: restored {n} summaries");
        }
        LoadStatus::Discarded(reason) => {
            eprintln!(
                "serve: store {path}: discarded ({}): {reason}; starting cold",
                reason.label()
            );
            discarded = Some(reason);
        }
    }
    let state = StoreState {
        store: summary_store,
        counters: Arc::new(StoreCounters {
            snapshots: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            recovered,
            discarded,
        }),
        served_at_snapshot: 0,
    };
    Ok((engine, Some(state)))
}

/// Binds the daemon's Unix socket, reclaiming a stale socket file left
/// by a crashed daemon: on `AddrInUse`, probe with a connect — if
/// something accepts, a live daemon owns the path and binding fails; if
/// nothing does, the file is an orphan and is unlinked and rebound.
fn bind_socket(path: &str) -> Result<UnixListener, String> {
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(format!(
                    "error: binding {path}: another daemon is already listening"
                ));
            }
            std::fs::remove_file(path)
                .map_err(|e| format!("error: removing stale socket {path}: {e}"))?;
            UnixListener::bind(path).map_err(|e| format!("error: binding {path}: {e}"))
        }
        Err(e) => Err(format!("error: binding {path}: {e}")),
    }
}

/// Admission control: try to enqueue, shed with an explicit response on
/// overflow. Runs on transport threads.
fn admit(tx: &SyncSender<Incoming>, shared: &Shared, line: String, sink: Sink) {
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    let inc = Incoming {
        line,
        sink,
        at: Instant::now(),
    };
    match tx.try_send(inc) {
        Ok(()) => {}
        Err(TrySendError::Full(inc)) => {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.shed.fetch_add(1, Ordering::SeqCst);
            inc.sink.send_line(&error_response(
                &peek_id(&inc.line),
                "overloaded",
                "admission queue is full; retry later",
            ));
        }
        Err(TrySendError::Disconnected(inc)) => {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.shed.fetch_add(1, Ordering::SeqCst);
            inc.sink.send_line(&error_response(
                &peek_id(&inc.line),
                "shutting_down",
                "daemon is shutting down",
            ));
        }
    }
}

/// Serves one admitted request inline on the main thread — the drain
/// path, where the pool is already retired. Reads render against a
/// fresh snapshot through the same builders the pool uses.
fn handle(
    engine: &mut ServeEngine,
    ctx: &ReadCtx,
    inc: Incoming,
    shutdown: &mut bool,
    draining: bool,
    store: &mut Option<StoreState>,
) {
    if inc.at.elapsed() > ctx.queue_deadline {
        ctx.shared.shed.fetch_add(1, Ordering::SeqCst);
        ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        inc.sink.send_line(&error_response(
            &peek_id(&inc.line),
            "overloaded",
            "request exceeded the queue deadline before processing",
        ));
        return;
    }
    match classify(&inc.line) {
        Route::Malformed(msg) => {
            ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            inc.sink
                .send_line(&error_response(&Json::Null, "bad_request", &msg));
        }
        Route::Read(req) => {
            let snap = engine.snapshot();
            let response = serve_read_frame(&snap, ctx, draining, &req);
            ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            inc.sink.send_line(&response);
        }
        Route::Writer(req) => {
            handle_writer(engine, ctx, &inc.sink, &req, shutdown, draining, store)
        }
    }
}

/// Serves one writer frame on the main thread. The caller has already
/// quiesced the pool (live path) or retired it (drain path), so the
/// engine mutates under an exclusive epoch; the caller republishes the
/// snapshot afterwards.
fn handle_writer(
    engine: &mut ServeEngine,
    ctx: &ReadCtx,
    sink: &Sink,
    req: &Json,
    shutdown: &mut bool,
    draining: bool,
    store: &mut Option<StoreState>,
) {
    let id = req_id(req);
    let is_batch = req
        .as_object()
        .and_then(|o| o.get("op"))
        .and_then(Json::as_str)
        == Some("batch");
    let result = if is_batch {
        match req.as_object() {
            None => Err(ServeError::BadRequest(
                "request must be a JSON object".into(),
            )),
            Some(o) => batch_writer(engine, ctx, o, shutdown, draining, store),
        }
    } else {
        dispatch(engine, req, shutdown, store)
    };
    let response = match result {
        Ok(payload) => ok_response(&id, payload),
        Err(e) => error_response(&id, e.kind(), &e.to_string()),
    };
    ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    sink.send_line(&response);
}

/// A `batch` frame that reached the writer path: it carries at least
/// one writer item (or a malformed one), so the whole frame executes
/// serialized, item by item, in order. Read items still render through
/// the snapshot builders (one fresh snapshot each, since a preceding
/// writer item may have mutated the engine). An in-batch `shutdown`
/// sheds every later item explicitly — the protocol's partial-shed
/// outcome.
fn batch_writer(
    engine: &mut ServeEngine,
    ctx: &ReadCtx,
    req: &Object,
    shutdown: &mut bool,
    draining: bool,
    store: &mut Option<StoreState>,
) -> Result<Object, ServeError> {
    let items = req
        .get("requests")
        .and_then(Json::as_array)
        .ok_or_else(|| ServeError::BadRequest("batch needs a `requests` array".into()))?;
    if items.len() > MAX_BATCH {
        return Err(ServeError::BadRequest(format!(
            "batch carries {} requests (max {MAX_BATCH})",
            items.len()
        )));
    }
    let mut results = Vec::with_capacity(items.len());
    for item in items {
        let id = req_id(item);
        if *shutdown {
            results.push(err_json(
                &id,
                "shutting_down",
                "daemon is shutting down; batch item shed",
            ));
            continue;
        }
        let is_read = item.as_object().is_some_and(is_read_op);
        if is_read {
            let snap = engine.snapshot();
            results.push(read_item(&snap, ctx, draining, item));
        } else {
            results.push(match dispatch(engine, item, shutdown, store) {
                Ok(payload) => ok_json(&id, payload),
                Err(e) => err_json(&id, e.kind(), &e.to_string()),
            });
        }
    }
    let mut payload = Object::new();
    payload.set("results", Json::Array(results));
    Ok(payload)
}

/// The request's `config` overrides applied to the daemon's base
/// configuration; `None` without overrides. The engine stamps the
/// daemon's request deadline on a configuration that sets none.
fn request_config(engine: &ServeEngine, req: &Object) -> Result<Option<Config>, ServeError> {
    let Some(value) = req.get("config") else {
        return Ok(None);
    };
    let overrides = value
        .as_object()
        .ok_or_else(|| ServeError::BadRequest("`config` must be an object of overrides".into()))?;
    config_from_overrides(*engine.config(), overrides).map(Some)
}

fn str_field<'a>(req: &'a Object, key: &str) -> Result<&'a str, ServeError> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("request needs a string `{key}` field")))
}

/// Serves one writer op on the engine. Pure reads never reach this
/// function: single read frames and read-only batches go to the pool,
/// drain-time reads go through [`serve_read_frame`], and read items
/// inside a writer batch are routed by [`batch_writer`]. What remains
/// is everything that can mutate (or needs a one-off analysis).
fn dispatch(
    engine: &mut ServeEngine,
    req: &Json,
    shutdown: &mut bool,
    store: &mut Option<StoreState>,
) -> Result<Object, ServeError> {
    let req = req
        .as_object()
        .ok_or_else(|| ServeError::BadRequest("request must be a JSON object".into()))?;
    let op = str_field(req, "op")?;
    match op {
        "analyze" => {
            let config = request_config(engine, req)?;
            let outcome = engine.analyze(config)?;
            Ok(run_payload(&outcome))
        }
        "constants" => {
            // Only a `constants` with `config` overrides reaches the
            // writer path (`is_read_op` sends the others to the snapshot),
            // so this is always a one-off analysis.
            let config = request_config(engine, req)?.unwrap_or(*engine.config());
            let proc = match req.get("proc") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| ServeError::BadRequest("`proc` must be a string".into()))?,
                ),
            };
            let (report, outcome) = engine.constants(proc, config)?;
            let mut o = run_payload(&outcome);
            let report = report.to_json();
            if let Some(fields) = report.as_object() {
                for (k, v) in fields.iter() {
                    o.set(k, v.clone());
                }
            }
            Ok(o)
        }
        "update" => {
            let proc = str_field(req, "proc")?.to_string();
            let body = str_field(req, "body")?.to_string();
            let outcome = engine.update(&proc, &body)?;
            Ok(run_payload(&outcome))
        }
        "load" => {
            let source = str_field(req, "source")?.to_string();
            let outcome = engine.load(&source)?;
            Ok(run_payload(&outcome))
        }
        "snapshot" => {
            let Some(st) = store.as_mut() else {
                return Err(ServeError::BadRequest(
                    "no store configured (start the daemon with --store <path>)".into(),
                ));
            };
            let mut o = Object::new();
            match st.snapshot(engine) {
                Ok(records) => {
                    o.set("snapshotted", Json::from(true));
                    o.set("records", Json::from(records));
                }
                Err(msg) => {
                    // A failed snapshot is still a served request: the
                    // previous store file is intact, so report and go on.
                    o.set("snapshotted", Json::from(false));
                    o.set("message", Json::from(msg));
                }
            }
            Ok(o)
        }
        "shutdown" => {
            *shutdown = true;
            let mut o = Object::new();
            o.set("status", Json::from("draining"));
            Ok(o)
        }
        // A top-level batch is intercepted before dispatch; one arriving
        // here is an item inside another batch.
        "batch" => Err(ServeError::BadRequest("batch requests cannot nest".into())),
        other => Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
    }
}

/// Backoff delays are capped here so a long retry ladder degrades into
/// polling, not into unbounded sleeps.
const RETRY_CAP_MS: u64 = 5_000;

/// The deterministic backoff schedule for `--retries`: attempt `i`
/// sleeps `min(cap, base << i)` plus a jitter of up to half that,
/// drawn from the in-tree [`Rng`] seeded with `seed`. Pure, so the
/// exact schedule is unit-testable and reproducible.
fn backoff_schedule(retries: u32, base_ms: u64, cap_ms: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00_B0FF_u64);
    (0..retries)
        .map(|i| {
            let exp = base_ms.saturating_mul(1u64.checked_shl(i).unwrap_or(u64::MAX));
            let delay = exp.min(cap_ms);
            delay + rng.below(delay / 2 + 1)
        })
        .collect()
}

/// One lockstep client connection: a write half plus a buffered reader
/// over its clone.
struct Client {
    write: UnixStream,
    read: BufReader<UnixStream>,
}

impl Client {
    fn open(socket: &str) -> std::io::Result<Client> {
        let write = UnixStream::connect(socket)?;
        let read = BufReader::new(write.try_clone()?);
        Ok(Client { write, read })
    }

    /// Opens a connection, sleeping through `schedule` on refusal. The
    /// final error is the one reported.
    fn open_with_backoff(socket: &str, schedule: &[u64]) -> Result<Client, String> {
        let mut last = None;
        for (i, delay) in schedule
            .iter()
            .map(Some)
            .chain(std::iter::once(None))
            .enumerate()
        {
            match Client::open(socket) {
                Ok(client) => {
                    if i > 0 {
                        eprintln!(
                            "connect: {socket}: connected after {i} retr{}",
                            if i == 1 { "y" } else { "ies" }
                        );
                    }
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
            let Some(delay) = delay else { break };
            std::thread::sleep(Duration::from_millis(*delay));
        }
        Err(format!(
            "error: connecting {socket}: {}",
            last.map(|e| e.to_string()).unwrap_or_default()
        ))
    }

    /// Sends one request line, returns the one response line, or `None`
    /// on a dead connection (EOF / write failure).
    fn exchange(&mut self, line: &str) -> Option<String> {
        writeln!(self.write, "{line}").ok()?;
        self.write.flush().ok()?;
        let mut response = String::new();
        match self.read.read_line(&mut response) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(response.trim_end_matches('\n').to_string()),
        }
    }
}

/// Whether a response line is an explicit shed the client may retry
/// (`overloaded` admission rejections and `shutting_down` drains).
fn is_retryable_shed(response: &str) -> bool {
    let Ok(parsed) = json::parse(response) else {
        return false;
    };
    let kind = parsed
        .as_object()
        .and_then(|o| o.get("error"))
        .and_then(Json::as_object)
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    matches!(kind, Some("overloaded") | Some("shutting_down"))
}

/// Client mode (`ipcc serve --connect <socket>`): forward stdin lines to
/// a running daemon, print every response line to stdout. Exits when
/// stdin closes and all responses have been received.
///
/// With `retries = 0` requests are pipelined: stdin is streamed to the
/// daemon while a reader thread prints responses as they arrive. With
/// `retries > 0` the client runs in lockstep (one request, one
/// response) so it can retry refused connections, explicit
/// `overloaded`/`shutting_down` sheds, and mid-session EOFs with the
/// capped, jittered exponential backoff of [`backoff_schedule`].
pub fn connect(socket: &str, retries: u32, retry_ms: u64) -> Result<(), String> {
    if retries == 0 {
        return connect_pipelined(socket);
    }
    let schedule = backoff_schedule(retries, retry_ms, RETRY_CAP_MS, hash_seed(socket));
    let mut client = Client::open_with_backoff(socket, &schedule)?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut response = client.exchange(&line);
        for delay in &schedule {
            match &response {
                // A shed is a complete response from a live daemon:
                // back off, then resend on the same connection.
                Some(r) if is_retryable_shed(r) => {
                    std::thread::sleep(Duration::from_millis(*delay));
                    response = client.exchange(&line);
                }
                // A dead connection (daemon crashed or restarted
                // mid-session): back off, reconnect, resend.
                None => {
                    std::thread::sleep(Duration::from_millis(*delay));
                    if let Ok(next) = Client::open(socket) {
                        client = next;
                        response = client.exchange(&line);
                    }
                }
                Some(_) => break,
            }
        }
        match response {
            Some(r) => println!("{r}"),
            None => {
                return Err(format!(
                    "error: {socket}: connection lost; retries exhausted"
                ))
            }
        }
    }
    Ok(())
}

/// A stable per-socket-path jitter seed (FNV-1a over the path bytes).
fn hash_seed(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The original pipelined client (`--retries 0`, the default).
fn connect_pipelined(socket: &str) -> Result<(), String> {
    let stream =
        UnixStream::connect(socket).map_err(|e| format!("error: connecting {socket}: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("error: cloning socket: {e}"))?;
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            println!("{line}");
        }
    });
    let mut write_half = stream;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        writeln!(write_half, "{line}").map_err(|e| format!("error: writing request: {e}"))?;
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("error: closing socket: {e}"))?;
    let _ = reader.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_monotone_in_base() {
        let a = backoff_schedule(5, 50, 5_000, 7);
        let b = backoff_schedule(5, 50, 5_000, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        // Attempt i's delay lies in [min(cap, base * 2^i), 1.5x that].
        for (i, &delay) in a.iter().enumerate() {
            let exp = (50u64 << i).min(5_000);
            assert!(delay >= exp, "attempt {i}: {delay} < {exp}");
            assert!(delay <= exp + exp / 2, "attempt {i}: {delay} too jittered");
        }
        // The cap really does bound a long ladder.
        let long = backoff_schedule(20, 100, 1_000, 3);
        assert!(long.iter().all(|&d| d <= 1_500), "{long:?}");
        // Different seeds jitter differently (with overwhelming odds).
        let c = backoff_schedule(5, 50, 5_000, 8);
        assert_ne!(a, c);
        assert!(backoff_schedule(0, 50, 5_000, 7).is_empty());
    }

    #[test]
    fn shed_detection_only_matches_retryable_kinds() {
        assert!(is_retryable_shed(
            r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"m"}}"#
        ));
        assert!(is_retryable_shed(
            r#"{"id":1,"ok":false,"error":{"kind":"shutting_down","message":"m"}}"#
        ));
        assert!(!is_retryable_shed(
            r#"{"id":1,"ok":false,"error":{"kind":"bad_request","message":"m"}}"#
        ));
        assert!(!is_retryable_shed(r#"{"id":1,"ok":true}"#));
        assert!(!is_retryable_shed("not json at all"));
    }

    fn scratch_socket(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ipcc-serve-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn bind_socket_reclaims_a_stale_socket_file() {
        let path = scratch_socket("stale.sock");
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        // A socket file with no listener behind it — what a kill -9'd
        // daemon leaves. Bind and drop so only the file remains.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "dropping the listener keeps the file");
        let reclaimed = bind_socket(&path_s).expect("stale socket must be reclaimed");
        drop(reclaimed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_socket_refuses_a_live_daemon() {
        let path = scratch_socket("live.sock");
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let live = UnixListener::bind(&path).expect("first bind");
        // Keep the listener alive: the second daemon must refuse, not
        // steal the socket.
        let err = bind_socket(&path_s).expect_err("live socket must not be stolen");
        assert!(err.contains("already listening"), "{err}");
        drop(live);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_socket_reports_unbindable_paths() {
        let err = bind_socket("/nonexistent-dir-ipcc/x.sock").expect_err("bad dir");
        assert!(err.contains("error: binding"), "{err}");
    }
}
