//! The untraced end-to-end run: the real `ipcc` binary, driven the way
//! a user drives it. Analyze workloads spawn one `ipcc analyze` process
//! per sample; serve workloads boot one `ipcc serve` daemon and talk to
//! it over its stdin/stdout as a closed loop (one request in flight).

use crate::inputs::{self, EditStream, ReadStream};
use crate::oracle;
use crate::report::Report;
use crate::stats::{fits_another, median, ms, quantile};
use crate::Ctx;
use ipcp::serve::json::{self, Json};
use ipcp_suite::ScaleSource;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// `constants` reads per `batch` frame on `serve-read-10k`.
pub const BATCH: usize = 1024;
/// Every this-many-th read frame is kept for the batched ≡ unbatched check.
const KEEP_EVERY: u64 = 40;
/// At most this many frames are re-read unbatched.
const KEEP_MAX: usize = 8;

/// One finished child process.
pub struct Finished {
    pub wall: Duration,
    pub success: bool,
    pub status: String,
    pub maxrss_kb: u64,
    pub stdout: String,
}

/// Runs `cmd` to completion with stdout captured and reports its wall
/// time (spawn to reap) and its own peak RSS from `wait4(2)`.
pub fn run_process(cmd: &mut Command) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, maxrss_kb) = match reap(&child) {
        Ok(done) => done,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };
    let wall = t0.elapsed();
    read.map_err(|e| format!("reading the output of {cmd:?}: {e}"))?;
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        wall,
        success,
        status: format!("wait status {status:#x}"),
        maxrss_kb,
        stdout,
    })
}

/// `struct rusage` on LP64 Linux: two `timeval`s, then 14 longs, the
/// first of which is `ru_maxrss` in kilobytes.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns its wait status and peak RSS. `Child::wait`
/// would discard the resource usage the kernel reports at reap time.
fn reap(child: &Child) -> Result<(i32, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|e| format!("pid out of range: {e}"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are live, writable and laid out as the C ABI expects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage.maxrss.max(0) as u64));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// The `total` line of `--emit counts` output.
pub fn counts_total(out: &str) -> Option<u64> {
    let last = out.lines().last()?;
    let mut words = last.split_whitespace();
    (words.next()? == "total").then_some(())?;
    words.next()?.parse().ok()
}

/// `analyze-10k` (`jobs = 1`) and `analyze-10k-j2` (`jobs = 2`).
pub fn analyze(ctx: &Ctx, jobs: usize, report: &mut Report) -> Result<(), String> {
    let source = inputs::source(ctx.seed, ctx.procs)?;
    let text = inputs::program_text(&source, &BTreeMap::new());
    let prog = ctx.work.join(format!("analyze-{}.ft", ctx.seed));
    std::fs::write(&prog, &text).map_err(|e| format!("{}: {e}", prog.display()))?;
    let jobs_arg = jobs.to_string();
    let mut expected: Option<String> = None;
    let mut sample = |report: &mut Report| -> Result<Finished, String> {
        let run = run_process(
            Command::new(&ctx.ipcc)
                .arg("analyze")
                .arg(&prog)
                .args(["--jobs", &jobs_arg, "--emit", "counts"]),
        )?;
        report.check(run.success, || {
            format!("ipcc analyze exited with {}", run.status)
        });
        let first = expected.get_or_insert_with(|| run.stdout.clone());
        report.check(*first == run.stdout, || {
            "`--emit counts` output differs between samples".to_owned()
        });
        Ok(run)
    };

    let mut setup = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        setup.push(sample(report)?.wall.as_secs_f64());
    }
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let t0 = Instant::now();
    while fits_another(t0, walls.len(), ctx.seconds) {
        let run = sample(report)?;
        walls.push(ms(run.wall));
        rss.push(run.maxrss_kb as f64 / 1024.0);
    }
    let window = t0.elapsed().as_secs_f64();
    let out = expected.unwrap_or_default();
    let total = counts_total(&out).ok_or("`--emit counts` printed no total line")?;

    report.metric("setup_s", median(&setup), "s", setup.len());
    report.keyed(
        "latency_p50_ms",
        "analyze_p50_ms",
        median(&walls),
        "ms",
        walls.len(),
    );
    report.row("analyze_p90_ms", quantile(&walls, 0.9), "ms", walls.len());
    report.row(
        "analyses_per_s",
        walls.len() as f64 / window,
        "1/s",
        walls.len(),
    );
    report.metric("peak_rss_mb", median(&rss), "MB", rss.len());
    report.metric(
        "constants_substituted",
        total as f64,
        "count",
        walls.len() + setup.len(),
    );

    // Off the clock: jobs 1 ≡ N against an in-process sequential run, and
    // the interpreter oracle.
    if jobs != 1 {
        let reference = oracle::counts_in_process(&text)?;
        report.check(reference == out, || {
            format!("`--jobs {jobs}` counts differ from the sequential in-process analysis")
        });
    }
    oracle::interpreter(ctx, jobs, report)
}

/// A running `ipcc serve` daemon on stdin/stdout.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and sends `health` at once: the reply arrives
    /// when boot is done, so the returned time is spawn → first `ok`
    /// reply with no polling.
    pub fn boot(ipcc: &Path, prog: &Path) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(ipcc)
            .arg("serve")
            .arg(prog)
            .args(["--jobs", "1", "--serve-workers", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning ipcc serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon {
            child,
            stdin: Some(stdin),
            stdout,
        };
        let reply = d.request(r#"{"id": "boot", "op": "health"}"#)?;
        let boot = t0.elapsed();
        if !reply.contains(r#""status":"ok""#) {
            return Err(format!("boot health reply is not ok: {reply}"));
        }
        Ok((d, boot))
    }

    /// One request line, one reply line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let stdin = self.stdin.as_mut().ok_or("daemon stdin is closed")?;
        stdin
            .write_all(framed.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("reading from the daemon: {e}"))?;
        if n == 0 {
            return Err("the daemon closed its stdout".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// The daemon's `VmHWM` (peak RSS) in kilobytes.
    pub fn vm_hwm_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// `shutdown`, close stdin, and require exit status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request(r#"{"id": "bye", "op": "shutdown"}"#)?;
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if !reply.contains(r#""ok":true"#) || !status.success() {
            return Err(format!("daemon shutdown: reply {reply}, {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was abandoned on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Writes the workload's program and boots the daemon
/// [`SETUP_ROUNDS`] times; the last one stays up.
fn serve_setup(ctx: &Ctx, source: &ScaleSource, report: &mut Report) -> Result<Daemon, String> {
    let prog = ctx.work.join(format!("serve-{}.ft", ctx.seed));
    std::fs::write(&prog, inputs::program_text(source, &BTreeMap::new()))
        .map_err(|e| format!("{}: {e}", prog.display()))?;
    let mut boots = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, boot) = Daemon::boot(&ctx.ipcc, &prog)?;
        report.attempted += 1;
        boots.push(boot.as_secs_f64());
        daemon = Some(d);
    }
    report.metric("setup_s", median(&boots), "s", boots.len());
    Ok(daemon.expect("at least one boot"))
}

fn ok(reply: &str) -> bool {
    reply.contains(r#""ok":true"#)
}

fn parse_object(reply: &str) -> Result<json::Object, String> {
    match json::parse(reply) {
        Ok(Json::Object(o)) => Ok(o),
        Ok(_) => Err(format!("reply is not an object: {reply}")),
        Err(e) => Err(format!("bad reply {reply}: {e}")),
    }
}

fn int_field(o: &json::Object, key: &str) -> Result<i64, String> {
    o.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("reply has no integer `{key}`"))
}

/// The `stats` op's cache counters: (hits, misses, evictions).
fn cache_counters(d: &mut Daemon) -> Result<(i64, i64, i64), String> {
    let stats = parse_object(&d.request(r#"{"id": "stats", "op": "stats"}"#)?)?;
    Ok((
        int_field(&stats, "cache_hits")?,
        int_field(&stats, "cache_misses")?,
        int_field(&stats, "cache_evictions")?,
    ))
}

/// The final whole-program `constants` reply: its `substituted` total
/// and its per-procedure constants rendered the way
/// `ipcc analyze --emit constants` prints them.
fn whole_program(d: &mut Daemon) -> Result<(i64, String), String> {
    let reply = parse_object(&d.request(r#"{"id": "all", "op": "constants"}"#)?)?;
    let substituted = int_field(&reply, "substituted")?;
    let procs = reply
        .get("procs")
        .and_then(Json::as_array)
        .ok_or("whole-program constants reply has no procs")?;
    let mut text = String::new();
    for p in procs {
        let p = p.as_object().ok_or("procs entry is not an object")?;
        let name = p
            .get("proc")
            .and_then(Json::as_str)
            .ok_or("procs entry has no name")?;
        let consts = p
            .get("constants")
            .and_then(Json::as_array)
            .ok_or("procs entry has no constants")?;
        if consts.is_empty() {
            continue;
        }
        let mut pairs = Vec::new();
        for c in consts {
            let c = c.as_object().ok_or("constants entry is not an object")?;
            let slot = c
                .get("slot")
                .and_then(Json::as_str)
                .ok_or("constant has no slot")?;
            let value = int_field(c, "value")?;
            pairs.push(format!("{slot} = {value}"));
        }
        text.push_str(&format!("CONSTANTS({name}) = {{ {} }}\n", pairs.join(", ")));
    }
    text.push_str(&format!("total constants substituted: {substituted}\n"));
    Ok((substituted, text))
}

fn cache_rows(report: &mut Report, before: (i64, i64, i64), after: (i64, i64, i64), ops: usize) {
    let hits = (after.0 - before.0) as f64;
    let misses = (after.1 - before.1) as f64;
    let evictions = (after.2 - before.2) as f64;
    let lookups = hits + misses;
    report.row(
        "cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
        ops,
    );
    report.row(
        "cache_misses_per_op",
        misses / ops.max(1) as f64,
        "count",
        ops,
    );
    report.row(
        "cache_evictions_per_op",
        evictions / ops.max(1) as f64,
        "count",
        ops,
    );
}

/// `serve-edit-10k`: `update` + re-read round trips.
pub fn serve_edit(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let source = inputs::source(ctx.seed, ctx.procs)?;
    let mut d = serve_setup(ctx, &source, report)?;
    let mut edits = EditStream::new(&source, ctx.seed);
    let mut round = 0usize;
    let mut edit_once = |d: &mut Daemon, report: &mut Report| -> Result<Duration, String> {
        let edit = edits.next_edit()?;
        let id = format!("e{round}");
        round += 1;
        let t = Instant::now();
        let updated = d.request(&inputs::update_request(&id, &edit))?;
        let reread = d.request(&inputs::constants_request(&format!("{id}r"), &edit.proc))?;
        let dt = t.elapsed();
        report.check(ok(&updated), || format!("update {id} failed: {updated}"));
        report.check(ok(&reread), || format!("re-read {id} failed: {reread}"));
        Ok(dt)
    };

    edit_once(&mut d, report)?; // warm-up, untimed
    let before = cache_counters(&mut d)?;
    // Edits are timed in consecutive pairs: with the summary cache smaller
    // than the program's summaries, its contents alternate between two
    // states and so does the cost of an edit. A pair is one whole cycle.
    let mut walls = Vec::new();
    let t0 = Instant::now();
    while walls.len() % 2 == 1 || fits_another(t0, walls.len() / 2, ctx.seconds) {
        walls.push(ms(edit_once(&mut d, report)?));
    }
    let window = t0.elapsed().as_secs_f64();
    let pairs: Vec<f64> = walls.chunks(2).map(|p| (p[0] + p[1]) / 2.0).collect();
    let after = cache_counters(&mut d)?;
    let (substituted, warm) = whole_program(&mut d)?;
    let rss = d.vm_hwm_kb()? as f64 / 1024.0;
    d.shutdown()?;

    report.keyed(
        "latency_p50_ms",
        "edit_p50_ms",
        median(&pairs),
        "ms",
        pairs.len(),
    );
    report.row("edit_p90_ms", quantile(&walls, 0.9), "ms", walls.len());
    report.row(
        "edits_per_s",
        walls.len() as f64 / window,
        "1/s",
        walls.len(),
    );
    report.metric("peak_rss_mb", rss, "MB", 1);
    report.metric("constants_substituted", substituted as f64, "count", 1);
    cache_rows(report, before, after, walls.len());

    // Off the clock: the warm answer must equal a cold analysis of the
    // final edited text.
    let edited = ctx.work.join(format!("serve-{}-edited.ft", ctx.seed));
    std::fs::write(&edited, inputs::program_text(&source, &edits.bodies))
        .map_err(|e| format!("{}: {e}", edited.display()))?;
    let cold = run_process(Command::new(&ctx.ipcc).arg("analyze").arg(&edited).args([
        "--jobs",
        "1",
        "--emit",
        "constants",
    ]))?;
    report.check(cold.success && cold.stdout == warm, || {
        "warm constants after the edits differ from a cold `ipcc analyze` of the edited text"
            .to_owned()
    });
    oracle::interpreter(ctx, 1, report)
}

/// `serve-read-10k`: fixed-size `batch` frames of `constants` reads.
pub fn serve_read(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let source = inputs::source(ctx.seed, ctx.procs)?;
    let mut d = serve_setup(ctx, &source, report)?;
    let mut reads = ReadStream::new(&source, ctx.seed);
    let before = cache_counters(&mut d)?;

    let (warm, _) = inputs::batch_frame(&mut reads, 0, 0, BATCH);
    let reply = d.request(&warm)?;
    report.check(ok(&reply), || format!("warm-up frame failed: {reply}"));

    let mut walls = Vec::new();
    let mut kept: Vec<(Vec<String>, String)> = Vec::new();
    let mut items = 0u64;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed() < ctx.seconds {
        let frame = walls.len() as u64 + 1;
        let (line, procs) = inputs::batch_frame(&mut reads, frame, items, BATCH);
        let t = Instant::now();
        let reply = d.request(&line)?;
        walls.push(ms(t.elapsed()));
        items += BATCH as u64;
        // A frame reply is `ok` itself and once per item.
        let oks = reply.matches(r#""ok":true"#).count();
        report.attempted += BATCH as u64;
        if oks != BATCH + 1 || reply.contains(r#""ok":false"#) {
            report.failed += BATCH as u64;
            report
                .problems
                .push(format!("frame {frame} has failed items"));
        }
        if frame.is_multiple_of(KEEP_EVERY) && kept.len() < KEEP_MAX {
            kept.push((procs, reply));
        }
    }
    let window = t0.elapsed().as_secs_f64();
    let after = cache_counters(&mut d)?;
    let (substituted, _) = whole_program(&mut d)?;

    // Off the clock: batched ≡ unbatched on the kept frames, and every
    // item reports the whole-program substitution total.
    for (procs, reply) in &kept {
        let frame = parse_object(reply)?;
        let results = frame
            .get("results")
            .and_then(Json::as_array)
            .ok_or("batch reply has no results")?;
        report.check(results.len() == procs.len(), || {
            "batch reply item count".to_owned()
        });
        for (item, proc) in results.iter().zip(procs) {
            let obj = item.as_object().ok_or("batch item is not an object")?;
            let id = obj
                .get("id")
                .and_then(Json::as_str)
                .ok_or("batch item has no id")?;
            let single = d.request(&inputs::constants_request(id, proc))?;
            let same = json::parse(&single).map(|j| j.to_string()) == Ok(item.to_string());
            report.check(same, || {
                format!("batched reply for {id} differs from unbatched")
            });
            let sub = int_field(obj, "substituted")?;
            report.check(sub == substituted, || {
                format!("{id} reports {sub} substituted, the whole program {substituted}")
            });
        }
    }
    let rss = d.vm_hwm_kb()? as f64 / 1024.0;
    d.shutdown()?;

    report.keyed(
        "latency_p50_ms",
        "read_batch_p50_ms",
        median(&walls),
        "ms",
        walls.len(),
    );
    report.row(
        "read_batch_p90_ms",
        quantile(&walls, 0.9),
        "ms",
        walls.len(),
    );
    report.row("reads_per_s", items as f64 / window, "1/s", walls.len());
    report.metric("peak_rss_mb", rss, "MB", 1);
    report.metric("constants_substituted", substituted as f64, "count", 1);
    cache_rows(report, before, after, walls.len());
    oracle::interpreter(ctx, 1, report)
}
