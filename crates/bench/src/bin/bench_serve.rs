//! `bench_serve` — the serve-tier benchmark: boots the real `ipcc`
//! daemon over generated [`ScaleSpec`] programs and measures the
//! service-level numbers the CI gates care about:
//!
//! * **cold boot** — spawn → first `ok` health reply over the socket;
//! * **warm edits** — an `update` + re-`constants` round trip per edit
//!   (the incremental path, never a cold re-analysis; an untimed read
//!   before the first edit computes the boot substitution total), the summary
//!   cache's misses per edit and the SCC units each edit's `VAL` solve
//!   ran (`edit_solved`, the cone size), from `stats` before and after;
//! * **read throughput** — N unbatched `constants` reads (one round
//!   trip each) vs. the same reads packed into `batch` frames;
//! * **restart** — the daemon runs with `--store`: a `snapshot` op after
//!   the reads (`snapshot_ms`, and the file's size as `store_kb`), then a
//!   second daemon boots from that store (`restart_ms`, spawn → first
//!   `ok` health reply, like `cold_boot_ms`);
//! * **in-process edits** — `ServeEngine::update` timed in this process
//!   at `--jobs 1`, without the socket: `update_us` is the p50 of 40
//!   literal bumps of the middle procedure's `v0 = <lit>` prologue, and
//!   `update_call_us` the p50 of 10 rounds that add a call to a leaf
//!   procedure and then drop it (20 updates). Both are per tier, so
//!   every row of a tier carries the same pair;
//! * **identity** — per-request replies must be byte-identical between
//!   the batched and unbatched passes, the full read transcript (plus a
//!   final whole-program `constants`) must digest-match across every
//!   `--serve-workers` count, and the restarted daemon's whole-program
//!   `constants` must equal the one before the restart.
//!
//! One row per (tier, workers) cell lands in `BENCH_serve.json`, shaped
//! like the other bench reports so `bench_trend` tracks it across runs.
//!
//! Knobs (all environment variables):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `IPCP_SERVE_TIERS` | `1k` | comma list of `1k`, `10k`, `100k` |
//! | `IPCP_SERVE_WORKERS` | `1,4` | comma list of `--serve-workers` values |
//! | `IPCP_SERVE_READS` | `400` | reads per throughput pass |
//! | `IPCP_SERVE_BATCH` | `50` | requests per `batch` frame |
//! | `IPCP_SERVE_EDITS` | `5` | warm `update` rounds |
//! | `IPCP_SERVE_MAX_EDIT_MS` | off | fail if any edit round exceeds this |
//! | `IPCP_SERVE_MIN_BATCH_SPEEDUP` | `2.0` | floor, enforced at the 1k tier |
//! | `IPCP_SERVE_BOOT_TIMEOUT_MS` | `900000` | give up waiting for boot |

use std::io::{BufRead, BufReader, Write as IoWrite};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ipcp::serve::engine::ServeEngine;
use ipcp::serve::json::{self, Json};
use ipcp::Config;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::ProgramSource;
use ipcp_suite::{generate_scale, ScaleSource, ScaleSpec};

/// Same tier specs as `bench_scale` — the serve numbers and the batch
/// analysis numbers must describe the same programs.
const TIERS: &[(&str, &str)] = &[
    ("1k", "procs=1k,shape=mixed,recursion=8,seed=101"),
    ("10k", "procs=10k,shape=mixed,recursion=8,seed=102"),
    ("100k", "procs=100k,shape=mixed,recursion=8,seed=103"),
];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn tiers() -> Vec<(&'static str, &'static str)> {
    let sel = std::env::var("IPCP_SERVE_TIERS").unwrap_or_else(|_| "1k".to_owned());
    let names: Vec<&str> = sel
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    TIERS
        .iter()
        .filter(|(name, _)| names.contains(name))
        .copied()
        .collect()
}

fn worker_sweep() -> Vec<usize> {
    let sel = std::env::var("IPCP_SERVE_WORKERS").unwrap_or_else(|_| "1,4".to_owned());
    let mut out: Vec<usize> = sel
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&w| w >= 1)
        .collect();
    if out.is_empty() {
        out.push(1);
    }
    out
}

/// A running daemon plus the line-oriented socket client driving it.
struct Daemon {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    /// Spawns `ipcc serve` over `program` with the summary store at
    /// `store` and waits for the first `ok` health reply. Returns the
    /// daemon and the measured boot time.
    fn boot(
        program: &std::path::Path,
        sock: &std::path::Path,
        store: &std::path::Path,
        workers: usize,
    ) -> Result<(Daemon, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe.parent().ok_or("bench binary has no parent dir")?;
        let ipcc = dir.join("ipcc");
        if !ipcc.exists() {
            return Err(format!(
                "{} not found (build ipcp-cli first)",
                ipcc.display()
            ));
        }
        let t0 = Instant::now();
        let child = Command::new(&ipcc)
            .arg("serve")
            .arg(program)
            .args(["--socket"])
            .arg(sock)
            .args(["--serve-workers", &workers.to_string()])
            .args(["--max-inflight", "4096", "--queue-ms", "600000"])
            .arg("--store")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning ipcc serve: {e}"))?;
        let timeout =
            Duration::from_millis(env_usize("IPCP_SERVE_BOOT_TIMEOUT_MS", 900_000) as u64);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                // A 1 ms poll keeps `cold_boot_ms` and `restart_ms` within
                // a millisecond of the bind.
                Err(_) if t0.elapsed() < timeout => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("daemon never bound {}: {e}", sock.display())),
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut d = Daemon {
            child,
            reader,
            writer: stream,
        };
        let health = d.request(r#"{"id": 0, "op": "health"}"#)?;
        if !health.contains("\"ok\":true") {
            return Err(format!("boot health reply not ok: {health}"));
        }
        Ok((d, t0.elapsed()))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("socket write: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("socket read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the socket".to_owned());
        }
        Ok(line.trim_end().to_owned())
    }

    /// One request, one reply (the caller guarantees no other requests
    /// are in flight on this connection).
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    /// Graceful shutdown: `shutdown` op, then reap the child and
    /// require exit status 0.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.request(r#"{"id": "bye", "op": "shutdown"}"#)?;
        drop(self.writer);
        drop(self.reader);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited nonzero: {status}"));
        }
        Ok(())
    }
}

/// Extracts the string id of a reply object (ids here are all strings).
/// The daemon's lifetime summary-cache misses and solved SCC units, from
/// a `stats` request.
fn misses_and_solved(d: &mut Daemon) -> Result<(i64, i64), String> {
    let reply = d.request(r#"{"id": "stats", "op": "stats"}"#)?;
    let stats = json::parse(&reply).ok();
    let stats = stats.as_ref().and_then(|j| j.as_object());
    let get = |key: &str| stats.and_then(|o| o.get(key)?.as_i64());
    get("cache_misses")
        .zip(get("solved_units"))
        .ok_or_else(|| format!("stats reply lacks cache_misses or solved_units: {reply}"))
}

fn reply_id(reply: &str) -> Result<String, String> {
    let parsed = json::parse(reply).map_err(|e| format!("bad reply {reply}: {e}"))?;
    let Json::Object(obj) = parsed else {
        return Err(format!("reply is not an object: {reply}"));
    };
    match obj.get("id") {
        Some(Json::Str(s)) => Ok(s.clone()),
        other => Err(format!("reply id is not a string ({other:?}): {reply}")),
    }
}

/// The deterministic edit stream: round `e` rewrites procedure
/// `p{1 + e % (procs-1)}`, bumping the literal in its `v0 = <lit>;`
/// prologue line by `e + 1`. Same spec + same round ⇒ same body text,
/// so every workers cell replays an identical session.
fn edited_body(source: &ScaleSource, round: usize) -> Result<(String, String), String> {
    let procs = source.spec().procs;
    if procs < 2 {
        return Err("edit stream needs at least 2 procedures".to_owned());
    }
    let idx = 1 + round % (procs - 1);
    let mut body = String::new();
    source.chunk(idx + 1, &mut body);
    let at = body
        .find("v0 = ")
        .ok_or_else(|| format!("p{idx} has no v0 prologue"))?;
    let lit_start = at + "v0 = ".len();
    let semi = body[lit_start..]
        .find(';')
        .ok_or_else(|| format!("p{idx} prologue line is unterminated"))?;
    let lit: i64 = body[lit_start..lit_start + semi]
        .trim()
        .parse()
        .map_err(|e| format!("p{idx} prologue literal: {e}"))?;
    let bumped = lit.wrapping_add(round as i64 + 1);
    body.replace_range(lit_start..lit_start + semi, &bumped.to_string());
    Ok((format!("p{idx}"), body))
}

/// Edit round `e`'s `update` request and the procedure it edits.
fn update_request(source: &ScaleSource, e: usize) -> Result<(String, String), String> {
    let (proc_name, body) = edited_body(source, e)?;
    let mut req = json::Object::new();
    req.set("id", Json::Str(format!("e{e}")));
    req.set("op", Json::Str("update".to_owned()));
    req.set("proc", Json::Str(proc_name.clone()));
    req.set("body", Json::Str(body));
    Ok((proc_name, Json::Object(req).to_string()))
}

/// `body` with the literal of its `v0 = <lit>;` prologue replaced by
/// `lit + delta`.
fn bump_prologue(body: &str, delta: i64) -> Result<String, String> {
    let at = body.find("v0 = ").ok_or("no v0 prologue")?;
    let lit_start = at + "v0 = ".len();
    let semi = body[lit_start..]
        .find(';')
        .ok_or("prologue line is unterminated")?;
    let lit: i64 = body[lit_start..lit_start + semi]
        .trim()
        .parse()
        .map_err(|e| format!("prologue literal: {e}"))?;
    let mut out = body.to_owned();
    out.replace_range(
        lit_start..lit_start + semi,
        &lit.wrapping_add(delta).to_string(),
    );
    Ok(out)
}

/// The in-process edit latencies of one tier, in µs: the p50 of 40
/// literal bumps of the middle procedure, and the p50 of 10 rounds that
/// add a call from one leaf procedure to another and drop it again.
fn in_process_updates(source: &ScaleSource, text: &str) -> Result<(u128, u128), String> {
    let config = Config::default().with_jobs(1);
    let mut engine = ServeEngine::new(text, &config).map_err(|e| e.to_string())?;
    let procs = source.spec().procs;
    let chunk = |idx: usize| {
        let mut body = String::new();
        source.chunk(idx + 1, &mut body);
        body
    };
    let p50 = |mut times: Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2].as_micros()
    };
    let timed = |engine: &mut ServeEngine, name: &str, body: &str| {
        let t = Instant::now();
        let out = engine.update(name, body).map_err(|e| e.to_string());
        out.map(|_| t.elapsed())
    };
    let mid = procs / 2;
    let body = chunk(mid);
    let mut bumps = Vec::new();
    for round in 0..40 {
        let bumped = bump_prologue(&body, round + 1)?;
        bumps.push(timed(&mut engine, &format!("p{mid}"), &bumped)?);
    }
    // Two reachable leaves from the middle on: the call from the first to
    // the second adds an edge and no cycle.
    let leaves: Vec<(usize, usize)> = {
        let (module, cg) = (&engine.mcfg().module, &engine.analysis().cg);
        (mid..procs)
            .chain(1..mid)
            .filter_map(|idx| {
                let p = module.proc_named(&format!("p{idx}"))?;
                let leaf = cg.reachable[p.id.index()] && cg.calls_from(p.id).is_empty();
                leaf.then_some((idx, p.arity()))
            })
            .take(2)
            .collect()
    };
    let [(leaf, _), (callee, arity)] = leaves[..] else {
        return Err("the program has fewer than two reachable leaves".to_owned());
    };
    let args: Vec<String> = (1..=arity).map(|k| k.to_string()).collect();
    let plain = chunk(leaf);
    let at = plain
        .rfind("    print ")
        .ok_or("leaf has no print epilogue")?;
    let mut with_call = plain.clone();
    with_call.insert_str(at, &format!("    call p{callee}({});\n", args.join(", ")));
    let mut calls = Vec::new();
    for _ in 0..10 {
        calls.push(timed(&mut engine, &format!("p{leaf}"), &with_call)?);
        calls.push(timed(&mut engine, &format!("p{leaf}"), &plain)?);
    }
    Ok((p50(bumps), p50(calls)))
}

/// One (tier, workers) measurement row.
struct CellRow {
    cold_boot_ms: u128,
    snapshot_ms: u128,
    store_kb: u64,
    restart_ms: u128,
    edit_ms: u128,
    edit_max_ms: u128,
    edit_misses: f64,
    edit_solved: f64,
    unbatched_read_us: u128,
    batched_read_us: u128,
    batch_speedup: f64,
    identical_in_cell: bool,
    digest: String,
}

#[allow(clippy::too_many_lines)]
fn run_cell(
    tier: &str,
    spec_str: &str,
    workers: usize,
    program: &std::path::Path,
    failures: &mut Vec<String>,
) -> Result<CellRow, String> {
    let spec = ScaleSpec::parse(spec_str)?;
    let source = ScaleSource::new(spec);
    let reads = env_usize("IPCP_SERVE_READS", 400).max(1);
    let batch = env_usize("IPCP_SERVE_BATCH", 50).clamp(1, 1024);
    let edits = env_usize("IPCP_SERVE_EDITS", 5);
    let procs = source.spec().procs;

    let sock = program.with_extension(format!("w{workers}.sock"));
    let store = program.with_extension(format!("w{workers}.store"));
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_file(&store);
    let (mut d, boot) = Daemon::boot(program, &sock, &store, workers)?;

    // The read set: `constants` over a rotating window of procedures.
    let read_reqs: Vec<(String, String)> = (0..reads)
        .map(|i| {
            let p = 1 + i % (procs - 1);
            (
                format!("r{i}"),
                format!(r#"{{"id": "r{i}", "op": "constants", "proc": "p{p}"}}"#),
            )
        })
        .collect();

    // Warm-up, untimed: one read computes the boot analysis's
    // substitution total, which every later snapshot carries forward
    // (recounting only the procedures an edit moved), so neither the
    // edit rounds nor the read passes pay the whole-program count.
    let warm = d.request(&read_reqs[0].1)?;
    if !warm.contains("\"ok\":true") {
        return Err(format!("warm-up read failed: {warm}"));
    }

    // Warm edits: update + re-read the edited procedure, per round.
    let (misses_before, solved_before) = misses_and_solved(&mut d)?;
    let mut edit_total = Duration::ZERO;
    let mut edit_max = Duration::ZERO;
    for e in 0..edits {
        let (proc_name, req) = update_request(&source, e)?;
        let t = Instant::now();
        let reply = d.request(&req)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("edit round {e} rejected: {reply}"));
        }
        let reread = d.request(&format!(
            r#"{{"id": "e{e}r", "op": "constants", "proc": "{proc_name}"}}"#
        ))?;
        if !reread.contains("\"ok\":true") {
            return Err(format!("post-edit read {e} failed: {reread}"));
        }
        let dt = t.elapsed();
        edit_total += dt;
        edit_max = edit_max.max(dt);
    }
    let (misses_after, solved_after) = misses_and_solved(&mut d)?;
    let per_edit = |n: i64| n as f64 / edits.max(1) as f64;
    let edit_misses = per_edit(misses_after - misses_before);
    let edit_solved = per_edit(solved_after - solved_before);

    // Unbatched pass: one request per frame, reply awaited before the
    // next send — the way an unbatched client actually drives the
    // daemon. Best of `reps` passes; parsing happens off the clock.
    let reps = env_usize("IPCP_BENCH_REPS", 3).max(1);
    let mut raw_unbatched: Vec<String> = Vec::new();
    let mut unbatched_wall = Duration::MAX;
    for _ in 0..reps {
        let mut raw: Vec<String> = Vec::with_capacity(reads);
        let t0 = Instant::now();
        for (_, line) in &read_reqs {
            raw.push(d.request(line)?);
        }
        unbatched_wall = unbatched_wall.min(t0.elapsed());
        raw_unbatched = raw;
    }
    let mut unbatched: Vec<(String, String)> = Vec::with_capacity(reads);
    for reply in raw_unbatched {
        unbatched.push((reply_id(&reply)?, reply));
    }

    // Batched pass: the same reads packed into `batch` frames, one
    // round trip per frame. Best of `reps`; the reply frames are
    // exploded into per-item payloads off the clock.
    let frames: Vec<String> = read_reqs
        .chunks(batch)
        .enumerate()
        .map(|(f, chunk)| {
            let items: Vec<String> = chunk.iter().map(|(_, l)| l.clone()).collect();
            format!(
                r#"{{"id": "B{f}", "op": "batch", "requests": [{}]}}"#,
                items.join(", ")
            )
        })
        .collect();
    let mut raw_batched: Vec<String> = Vec::new();
    let mut batched_wall = Duration::MAX;
    for _ in 0..reps {
        let mut raw: Vec<String> = Vec::with_capacity(frames.len());
        let t1 = Instant::now();
        for frame in &frames {
            raw.push(d.request(frame)?);
        }
        batched_wall = batched_wall.min(t1.elapsed());
        raw_batched = raw;
    }
    let mut batched: Vec<(String, String)> = Vec::with_capacity(reads);
    for reply in &raw_batched {
        let parsed = json::parse(reply).map_err(|e| format!("bad batch reply: {e}"))?;
        let results = parsed
            .as_object()
            .and_then(|o| o.get("results"))
            .and_then(Json::as_array)
            .ok_or_else(|| format!("batch reply has no results: {reply}"))?;
        for item in results {
            let text = item.to_string();
            batched.push((reply_id(&text)?, text));
        }
    }

    // In-cell identity: the batched and unbatched passes answered the
    // same requests against the same warm state — every per-id payload
    // must be byte-identical.
    let mut by_id: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
    for (id, text) in &unbatched {
        by_id.insert(id, text);
    }
    let mut identical_in_cell = batched.len() == unbatched.len();
    for (id, text) in &batched {
        if by_id.get(id.as_str()) != Some(&text.as_str()) {
            identical_in_cell = false;
            failures.push(format!(
                "tier {tier} workers={workers}: batched reply for {id} diverges from unbatched"
            ));
            break;
        }
    }

    // Cross-cell digest: the ordered read transcript plus a final
    // whole-program constants report. Every workers count must match.
    let mut hasher = Fnv128::new();
    let mut sorted: Vec<&(String, String)> = unbatched.iter().collect();
    sorted.sort();
    for (id, text) in sorted {
        hasher.write(id.as_bytes());
        hasher.write(text.as_bytes());
    }
    let full = d.request(r#"{"id": "full", "op": "constants"}"#)?;
    if !full.contains("\"ok\":true") {
        return Err(format!("final whole-program constants failed: {full}"));
    }
    hasher.write(full.as_bytes());
    let digest = format!("{:032x}", hasher.finish());

    // Restart: snapshot the warm daemon, then boot a second one from the
    // store over the program file. After the same edits, its
    // whole-program constants must be the first one's.
    let t = Instant::now();
    let snap = d.request(r#"{"id": "snap", "op": "snapshot"}"#)?;
    let snapshot = t.elapsed();
    if !snap.contains("\"snapshotted\":true") {
        return Err(format!("snapshot failed: {snap}"));
    }
    let store_kb = std::fs::metadata(&store)
        .map_err(|e| format!("reading {}: {e}", store.display()))?
        .len()
        / 1024;
    d.shutdown()?;
    let _ = std::fs::remove_file(&sock);
    let (mut r, restart) = Daemon::boot(program, &sock, &store, workers)?;
    for e in 0..edits {
        let reply = r.request(&update_request(&source, e)?.1)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!(
                "edit round {e} rejected after the restart: {reply}"
            ));
        }
    }
    let restarted = r.request(r#"{"id": "full", "op": "constants"}"#)?;
    r.shutdown()?;
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_file(&store);
    // Compare the analysis payload only: the reply also carries cache
    // counters, which a warm restart changes.
    let payload = |reply: &str| reply.find("\"procs\"").map(|at| reply[at..].to_owned());
    let identical_restart = payload(&restarted).is_some() && payload(&restarted) == payload(&full);
    if !identical_restart {
        failures.push(format!(
            "tier {tier} workers={workers}: constants differ across a restart from the store"
        ));
    }

    let per_read = |wall: Duration| wall.as_micros() / reads as u128;
    let unbatched_read_us = per_read(unbatched_wall).max(1);
    let batched_read_us = per_read(batched_wall).max(1);
    Ok(CellRow {
        cold_boot_ms: boot.as_millis(),
        snapshot_ms: snapshot.as_millis(),
        store_kb,
        restart_ms: restart.as_millis(),
        edit_ms: if edits == 0 {
            0
        } else {
            edit_total.as_millis() / edits as u128
        },
        edit_max_ms: edit_max.as_millis(),
        edit_misses,
        edit_solved,
        unbatched_read_us,
        batched_read_us,
        batch_speedup: unbatched_read_us as f64 / batched_read_us as f64,
        identical_in_cell: identical_in_cell && identical_restart,
        digest,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tiers = tiers();
    if tiers.is_empty() {
        return Err("IPCP_SERVE_TIERS selected no known tier (have: 1k, 10k, 100k)".into());
    }
    let sweep = worker_sweep();
    let max_edit_ms = std::env::var("IPCP_SERVE_MAX_EDIT_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u128>().ok());
    let min_speedup = env_f64("IPCP_SERVE_MIN_BATCH_SPEEDUP", 2.0);

    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:<6} {:>7} {:>9} {:>8} {:>10} {:>12} {:>10} {:>8} {:>8} {:>9} {:>10}",
        "tier",
        "workers",
        "boot_ms",
        "edit_ms",
        "edit_max",
        "unbatch_us",
        "batch_us",
        "speedup",
        "snap_ms",
        "store_kb",
        "restart_ms"
    );
    for &(tier, spec_str) in &tiers {
        let spec = ScaleSpec::parse(spec_str)?;
        let dir = std::env::temp_dir();
        let program = dir.join(format!("ipcp_serve_bench_{tier}.ft"));
        let text = generate_scale(&spec);
        std::fs::write(&program, &text)?;
        let n_procs = spec.procs;
        let (update_us, update_call_us) = in_process_updates(&ScaleSource::new(spec), &text)
            .map_err(|e| format!("tier {tier}: in-process updates: {e}"))?;
        drop(text);
        println!("{tier:<6} in-process update_us {update_us} update_call_us {update_call_us}");

        let mut digests: Vec<(usize, String)> = Vec::new();
        let mut cell_rows: Vec<(usize, CellRow)> = Vec::new();
        for &workers in &sweep {
            let cell = run_cell(tier, spec_str, workers, &program, &mut failures)
                .map_err(|e| format!("tier {tier} workers={workers}: {e}"))?;
            println!(
                "{:<6} {:>7} {:>9} {:>8} {:>10} {:>12} {:>10} {:>8.2} {:>8} {:>9} {:>10}",
                tier,
                workers,
                cell.cold_boot_ms,
                cell.edit_ms,
                cell.edit_max_ms,
                cell.unbatched_read_us,
                cell.batched_read_us,
                cell.batch_speedup,
                cell.snapshot_ms,
                cell.store_kb,
                cell.restart_ms,
            );
            if let Some(limit) = max_edit_ms {
                if cell.edit_max_ms > limit {
                    failures.push(format!(
                        "tier {tier} workers={workers}: edit round took {} ms, ceiling {limit} ms",
                        cell.edit_max_ms
                    ));
                }
            }
            if tier == "1k" && cell.batch_speedup < min_speedup {
                failures.push(format!(
                    "tier {tier} workers={workers}: batch speedup {:.2}x below floor {min_speedup}x",
                    cell.batch_speedup
                ));
            }
            digests.push((workers, cell.digest.clone()));
            cell_rows.push((workers, cell));
        }
        let _ = std::fs::remove_file(&program);

        // The identity contract across worker counts: every cell
        // replayed the same session and must have produced the same
        // transcript digest.
        let cross_identical = digests.windows(2).all(|w| w[0].1 == w[1].1);
        if !cross_identical {
            failures.push(format!("tier {tier}: worker counts diverged: {digests:?}"));
        }
        for (workers, cell) in &cell_rows {
            let identical = cross_identical && cell.identical_in_cell;
            rows.push(format!(
                concat!(
                    "    {{\"program\": \"serve-{t}\", \"tier\": \"{t}\", \"spec\": \"{s}\", ",
                    "\"jobs\": {w}, \"n_procs\": {n}, \"cold_boot_ms\": {boot}, ",
                    "\"snapshot_ms\": {snap}, \"store_kb\": {kb}, \"restart_ms\": {restart}, ",
                    "\"edit_ms\": {edit}, \"edit_max_ms\": {emax}, \"edit_misses\": {em:.1}, ",
                    "\"edit_solved\": {es:.1}, \"update_us\": {uu}, \"update_call_us\": {uc}, ",
                    "\"unbatched_read_us\": {ub}, \"batched_read_us\": {b}, ",
                    "\"batch_speedup\": {sp:.2}, \"identical\": {id}}}"
                ),
                t = tier,
                s = spec_str,
                w = workers,
                n = n_procs,
                boot = cell.cold_boot_ms,
                snap = cell.snapshot_ms,
                kb = cell.store_kb,
                restart = cell.restart_ms,
                edit = cell.edit_ms,
                emax = cell.edit_max_ms,
                em = cell.edit_misses,
                es = cell.edit_solved,
                uu = update_us,
                uc = update_call_us,
                ub = cell.unbatched_read_us,
                b = cell.batched_read_us,
                sp = cell.batch_speedup,
                id = identical,
            ));
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs_list = sweep
        .iter()
        .map(|j| j.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json_text = format!(
        "{{\n  \"jobs\": [{jobs_list}],\n  \"cores\": {cores},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_serve.json", &json_text)?;
    println!("wrote BENCH_serve.json (workers=[{jobs_list}], cores={cores})");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        return Err(format!("{} serve gate failure(s)", failures.len()).into());
    }
    Ok(())
}
