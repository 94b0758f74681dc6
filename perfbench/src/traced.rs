//! The traced run: each workload replayed in this process through the
//! layers' public functions, with a span around every call and
//! allocation counts per span. End-to-end numbers never come from here.
//!
//! Every round replays the analysis pipeline twice — once untraced, once
//! traced — so `trace.overhead_pct` compares like with like, then
//! replays the call graph, MOD/REF, streaming front end and SSA layers
//! on their own. On analyze workloads each round also runs one real
//! `ipcc analyze` process, the wall time the pipeline's spans must
//! account for. Serve workloads go on to replay the daemon's engine calls.

use crate::e2e::{counts_total, run_process, Daemon, BATCH};
use crate::inputs::{self, EditStream, ReadStream};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, ms, quantile, us};
use crate::{Ctx, Workload};
use ipcp::serve::json::{self, Json, Object};
use ipcp::serve::{ConstantsReport, ReadPool, RequestOutcome, ServeEngine};
use ipcp::{Analysis, Config, CostReport};
use ipcp_analysis::{build_call_graph, compute_modref};
use ipcp_ir::program::SlotLayout;
use ipcp_ir::{lower_module, parse_and_resolve, resolve_streaming, ModuleCfg, ProcId};
use ipcp_ssa::symbolic::evaluate;
use ipcp_ssa::{build_ssa, ModKills, OpaqueCalls};
use ipcp_suite::ScaleSource;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.resolve_ms", "ms"),
    ("ir.resolve_mb_per_s", "MB/s"),
    ("ir.lower_ms", "ms"),
    ("ir.allocs", "count"),
    ("ir.alloc_mb", "MB"),
    ("ir.stream_resolve_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.modref_ms", "ms"),
    ("ssa.build_ms", "ms"),
    ("ssa.symbolic_ms", "ms"),
    ("ssa.values", "count"),
    ("ssa.build_allocs", "count"),
    ("ssa.symbolic_allocs", "count"),
    ("core.analyze_ms", "ms"),
    ("core.modref_ms", "ms"),
    ("core.retjump_ms", "ms"),
    ("core.jump_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.substitute_ms", "ms"),
    ("core.allocs", "count"),
    ("core.stage_coverage", "ratio"),
    ("core.solver_iterations", "count"),
    ("core.jf_const", "count"),
    ("core.jf_passthrough", "count"),
    ("core.jf_poly", "count"),
    ("core.jf_bottom", "count"),
    ("core.constants_substituted", "count"),
    ("par.retjump_utilization", "ratio"),
    ("par.jump_utilization", "ratio"),
    ("par.solve_utilization", "ratio"),
    ("par.replayed", "count"),
    ("serve.boot_ms", "ms"),
    ("serve.update_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.first_read_ms", "ms"),
    ("serve.edit_p90_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.misses_per_edit", "count"),
    ("serve.evictions_per_edit", "count"),
    ("serve.update_allocs", "count"),
    ("serve.json_parse_us", "us"),
    ("serve.json_write_us", "us"),
    ("serve.read_item_us", "us"),
    ("serve.wire_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// Metrics that are counts of work, or ratios of counts, and must repeat
/// exactly between two runs of the same workload, seed and operation
/// count at `--jobs 1`.
pub fn is_exact(name: &str) -> bool {
    name == "serve.cache_hit_ratio"
        || PER_LAYER
            .iter()
            .any(|&(n, unit)| n == name && unit == "count")
}

/// Largest share, either way, of an `ipcc analyze` process's wall time
/// that the `ir.*`, `core.analyze` and `core.substitute` spans of the
/// in-process pipeline may leave unaccounted (median over rounds). The
/// process also starts, reads the file, prints and exits, and its fresh
/// heap pays page faults the warm in-process pipeline does not.
const MAX_UNACCOUNTED_PCT: f64 = 25.0;
/// Smallest share of the `Analysis::run` span the four stage timings
/// must cover. The rest is work between the stage timers: the call
/// graph, the slot layout and, largest, MOD/REF propagation, which runs
/// after the `modref` timer stops (about a tenth of the span at 10k).
const MIN_STAGE_COVERAGE: f64 = 0.85;
/// Frames the traced read replay records at most (keeps the span file
/// small); edits are bounded by `--seconds` alone.
const MAX_TRACED_FRAMES: u64 = 100;
/// Wall time of the daemon read pass that measures `serve.wire_us`.
const WIRE_WINDOW: Duration = Duration::from_secs(2);

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.0.entry(name).or_default().push(value);
    }
}

/// Runs the traced replay of `workload` and returns its spans. Serve
/// workloads stop after `ops` edits or frames when it is set (tests),
/// otherwise when `--seconds` is spent. `wire` (the `ipcc` binary is at
/// hand) runs the real program too: one `ipcc analyze` process per round
/// on analyze workloads, for `trace.unaccounted_pct`, and the daemon on
/// `serve-read-10k`, for `serve.wire_us`.
pub fn run(
    ctx: &Ctx,
    workload: Workload,
    wire: bool,
    report: &mut Report,
) -> Result<Tracer, String> {
    let source = inputs::source(ctx.seed, ctx.procs)?;
    let text = inputs::program_text(&source, &BTreeMap::new());
    let prog = ctx.work.join(format!("traced-{}.ft", ctx.seed));
    std::fs::write(&prog, &text).map_err(|e| format!("{}: {e}", prog.display()))?;
    let jobs_arg = workload.jobs().to_string();
    let config = Config::builder()
        .jobs(workload.jobs())
        .build()
        .map_err(|e| e.to_string())?;
    let mut t = Tracer::new(true);
    let mut s = Samples::default();
    let started = Instant::now();
    let mut first_counts: Option<Vec<(&'static str, f64)>> = None;
    // Warm-up: the first pipeline in a process pays page faults for
    // memory later ones reuse, which would bias whichever replay ran first.
    let mut off = Tracer::new(false);
    drop(pipeline(&mut off, &text, &config, 0)?);
    for round in 0u64.. {
        // Alternate which replay goes first.
        let untraced_first = round % 2 == 0;
        let mut untraced = Duration::ZERO;
        let mut untraced_run = |off: &mut Tracer| -> Result<(), String> {
            let w = Instant::now();
            let out = pipeline(off, &text, &config, round)?;
            untraced = w.elapsed();
            drop(out);
            Ok(())
        };
        if untraced_first {
            untraced_run(&mut off)?;
        }
        let w = Instant::now();
        let (mcfg, analysis, substituted) = pipeline(&mut t, &text, &config, round)?;
        let traced = w.elapsed();
        // The same work as one real process, right after the traced
        // replay so both see the machine in the same state.
        let process = if wire && !workload.serves() {
            let run = run_process(
                Command::new(&ctx.ipcc)
                    .arg("analyze")
                    .arg(&prog)
                    .args(["--jobs", &jobs_arg, "--emit", "counts"]),
            )?;
            report.check(
                run.success && counts_total(&run.stdout) == Some(substituted as u64),
                || format!("round {round}: `ipcc analyze` disagrees with the in-process pipeline"),
            );
            Some(run.wall)
        } else {
            None
        };
        if !untraced_first {
            untraced_run(&mut off)?;
        }
        s.push(
            "trace.overhead_pct",
            (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
        );
        let counts = pipeline_metrics(
            &mut t,
            &mut s,
            (&mcfg, &analysis),
            substituted,
            text.len() as f64,
            process,
            report,
        );
        layers(&mut t, &mut s, &source, &mcfg, round)?;
        let counts: Vec<_> = counts
            .into_iter()
            .chain(last_counts(&t, &["ssa.build", "ssa.symbolic"]))
            .collect();
        match &first_counts {
            None => first_counts = Some(counts),
            // Allocation counts only repeat on the sequential path.
            Some(_) if workload.jobs() != 1 => {}
            Some(first) => {
                report.check(*first == counts, || {
                    format!("round {round} counts differ from round 0")
                });
            }
        }
        let done = ctx.ops.is_some() || started.elapsed() >= ctx.seconds;
        if workload.serves() || done {
            break;
        }
    }
    if let Some(u) = s.0.get("trace.unaccounted_pct") {
        let u = median(u);
        report.check(u.abs() <= MAX_UNACCOUNTED_PCT, || {
            format!("ir + core spans leave {u:.1}% of the `ipcc analyze` process unaccounted")
        });
    }
    match workload {
        Workload::ServeEdit => serve_edit(ctx, &mut t, &mut s, &source, &text, &config, started)?,
        Workload::ServeRead => serve_read(
            ctx,
            &mut t,
            &mut s,
            (&source, &text),
            &config,
            started,
            wire,
        )?,
        Workload::Analyze | Workload::AnalyzeJ2 => {}
    }
    for &(name, unit) in PER_LAYER {
        let values = s.0.get(name).map(Vec::as_slice).unwrap_or_default();
        let value = if values.is_empty() {
            0.0
        } else {
            median(values)
        };
        report.metric(name, value, unit, values.len());
    }
    Ok(t)
}

/// The allocation counts of the latest spans named in `names`.
fn last_counts(t: &Tracer, names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|&n| (n, t.last(n).map_or(0.0, |s| s.alloc.allocs as f64)))
        .collect()
}

/// Front end, analysis and substitution: the calls one
/// `ipcc analyze --emit counts` process makes on the program text, under
/// a `pipeline` span.
fn pipeline(
    t: &mut Tracer,
    text: &str,
    config: &Config,
    req: u64,
) -> Result<(ModuleCfg, Analysis, usize), String> {
    t.span("pipeline", req, |t| {
        let module = t
            .span("ir.resolve", req, |_| parse_and_resolve(text))
            .map_err(|d| format!("the generated program does not resolve: {d:?}"))?;
        let mcfg = t.span("ir.lower", req, |_| lower_module(&module));
        drop(module);
        let analysis = t.span("core.analyze", req, |_| Analysis::run(&mcfg, config));
        let substituted = t.span("core.substitute", req, |_| analysis.substitute(&mcfg).total);
        Ok((mcfg, analysis, substituted))
    })
}

/// Records the `ir`, `core` and `par` metrics of the pipeline just
/// traced, reconciles its spans with `Analysis::run` and with the wall
/// time of the `process` that did the same work, and returns its exact
/// counts.
fn pipeline_metrics(
    t: &mut Tracer,
    s: &mut Samples,
    (mcfg, analysis): (&ModuleCfg, &Analysis),
    substituted: usize,
    bytes: f64,
    process: Option<Duration>,
    report: &mut Report,
) -> Vec<(&'static str, f64)> {
    let tm = analysis.timings;
    t.synthesize(
        "core.analyze",
        &[
            ("core.modref", tm.modref.wall),
            ("core.retjump", tm.retjump.wall),
            ("core.jump", tm.jump.wall),
            ("core.solve", tm.solve.wall),
        ],
    );
    let span = |name: &str| t.last(name).expect("the pipeline recorded this span");
    let (resolve, lower) = (span("ir.resolve"), span("ir.lower"));
    let (analyze, subst) = (span("core.analyze"), span("core.substitute"));

    s.push("ir.resolve_ms", ms(resolve.dur()));
    s.push(
        "ir.resolve_mb_per_s",
        bytes / MIB / resolve.dur().as_secs_f64(),
    );
    s.push("ir.lower_ms", ms(lower.dur()));
    let ir_allocs = (resolve.alloc.allocs + lower.alloc.allocs) as f64;
    s.push("ir.allocs", ir_allocs);
    s.push(
        "ir.alloc_mb",
        (resolve.alloc.bytes + lower.alloc.bytes) as f64 / MIB,
    );
    s.push("core.analyze_ms", ms(analyze.dur()));
    s.push("core.modref_ms", ms(tm.modref.wall));
    s.push("core.retjump_ms", ms(tm.retjump.wall));
    s.push("core.jump_ms", ms(tm.jump.wall));
    s.push("core.solve_ms", ms(tm.solve.wall));
    s.push("core.substitute_ms", ms(subst.dur()));
    s.push("core.allocs", analyze.alloc.allocs as f64);
    let stages = tm.modref.wall + tm.retjump.wall + tm.jump.wall + tm.solve.wall;
    let coverage = stages.as_secs_f64() / analyze.dur().as_secs_f64();
    s.push("core.stage_coverage", coverage);
    if let Some(process) = process {
        let covered = resolve.dur() + lower.dur() + analyze.dur() + subst.dur();
        let unaccounted = 1.0 - covered.as_secs_f64() / process.as_secs_f64();
        s.push("trace.unaccounted_pct", unaccounted * 100.0);
    }
    report.check(coverage >= MIN_STAGE_COVERAGE, || {
        format!("stage timings cover only {coverage:.3} of Analysis::run")
    });

    let cost = CostReport::collect(mcfg, analysis);
    let counts = vec![
        ("ir.allocs", ir_allocs),
        ("core.allocs", analyze.alloc.allocs as f64),
        ("core.solver_iterations", analysis.vals.iterations as f64),
        ("core.jf_const", cost.jf_const as f64),
        ("core.jf_passthrough", cost.jf_pass_through as f64),
        ("core.jf_poly", cost.jf_polynomial as f64),
        ("core.jf_bottom", cost.jf_bottom as f64),
        ("core.constants_substituted", substituted as f64),
        (
            "par.replayed",
            (tm.modref.replayed + tm.retjump.replayed + tm.jump.replayed + tm.solve.replayed)
                as f64,
        ),
    ];
    for &(name, v) in &counts {
        if name != "ir.allocs" && name != "core.allocs" {
            s.push(name, v);
        }
    }
    s.push("par.retjump_utilization", tm.retjump.utilization());
    s.push("par.jump_utilization", tm.jump.utilization());
    s.push("par.solve_utilization", tm.solve.utilization());
    counts
}

/// Call graph, MOD/REF, the streaming front end, then SSA construction
/// and symbolic evaluation of every reachable procedure, each layer on
/// its own. The symbolic replay treats calls as opaque, where the
/// pipeline consults return jump functions. `ipcc` itself never streams:
/// `resolve_streaming` regenerates and parses each chunk twice from the
/// `ScaleSource`, so its time is no part of any end-to-end metric.
fn layers(
    t: &mut Tracer,
    s: &mut Samples,
    source: &ScaleSource,
    mcfg: &ModuleCfg,
    req: u64,
) -> Result<(), String> {
    t.span("layers", req, |t| {
        t.span("ir.stream_resolve", req, |_| resolve_streaming(source))
            .map_err(|d| format!("the generated program does not stream-resolve: {d:?}"))?;
        let cg = t.span("analysis.callgraph", req, |_| build_call_graph(mcfg));
        let modref = t.span("analysis.modref", req, |_| compute_modref(mcfg, &cg));
        let kills = ModKills(&modref);
        let layout = SlotLayout::new(&mcfg.module);
        let reachable: Vec<ProcId> = (0..mcfg.module.procs.len())
            .filter(|&p| cg.reachable[p])
            .map(ProcId::from)
            .collect();
        let ssas: Vec<_> = t.span("ssa.build", req, |_| {
            reachable
                .iter()
                .map(|&p| build_ssa(mcfg, p, &kills))
                .collect()
        });
        let syms: Vec<_> = t.span("ssa.symbolic", req, |_| {
            ssas.iter()
                .map(|ssa| evaluate(mcfg, ssa, &layout, &OpaqueCalls))
                .collect()
        });
        s.push(
            "ssa.values",
            ssas.iter().map(|x| x.len()).sum::<usize>() as f64,
        );
        drop(syms);
        Ok::<_, String>(())
    })?;
    for (span, metric, allocs) in [
        ("ir.stream_resolve", "ir.stream_resolve_ms", None),
        ("analysis.callgraph", "analysis.callgraph_ms", None),
        ("analysis.modref", "analysis.modref_ms", None),
        ("ssa.build", "ssa.build_ms", Some("ssa.build_allocs")),
        (
            "ssa.symbolic",
            "ssa.symbolic_ms",
            Some("ssa.symbolic_allocs"),
        ),
    ] {
        let sp = t.last(span).expect("the layer replay recorded this span");
        let (d, a) = (ms(sp.dur()), sp.alloc.allocs as f64);
        s.push(metric, d);
        if let Some(name) = allocs {
            s.push(name, a);
        }
    }
    Ok(())
}

/// Whether a serve loop should run another operation.
fn more(ctx: &Ctx, started: Instant, done: u64, min: u64) -> bool {
    match ctx.ops {
        Some(n) => done < n as u64,
        None => done < min || started.elapsed() < ctx.seconds,
    }
}

fn boot(
    t: &mut Tracer,
    s: &mut Samples,
    text: &str,
    config: &Config,
) -> Result<ServeEngine, String> {
    let engine = t
        .span("serve.boot", 0, |_| ServeEngine::new(text, config))
        .map_err(|e| format!("ServeEngine::new: {e}"))?;
    s.push(
        "serve.boot_ms",
        ms(t.last("serve.boot").expect("recorded").dur()),
    );
    Ok(engine)
}

/// A reply object as the daemon builds one: id, `ok`, then `fields`.
fn reply(id: &Json, fields: Object) -> Json {
    let mut o = Object::new();
    o.set("id", id.clone());
    o.set("ok", Json::from(true));
    for (k, v) in fields.into_entries() {
        o.set_owned(k, v);
    }
    Json::from(o)
}

/// A `constants` reply as the daemon builds one: the snapshot's request
/// outcome, then the report.
fn constants_reply(id: &Json, outcome: &RequestOutcome, report: &ConstantsReport) -> Json {
    let mut o = Object::new();
    o.set("degraded", Json::from(outcome.degraded));
    o.set("cache_hits", Json::from(outcome.hits));
    o.set("cache_persisted_hits", Json::from(outcome.persisted_hits));
    o.set("cache_misses", Json::from(outcome.misses));
    o.set("cache_bypassed", Json::from(outcome.bypassed));
    let events = outcome.events.iter().map(|e| Json::from(e.to_string()));
    o.set("events", Json::Array(events.collect()));
    let quarantined = outcome.quarantined.iter().map(|q| Json::from(q.as_str()));
    o.set("quarantined", Json::Array(quarantined.collect()));
    if let Json::Object(fields) = report.to_json() {
        for (k, v) in fields.into_entries() {
            o.set_owned(k, v);
        }
    }
    reply(id, o)
}

fn str_of<'a>(o: &'a Json, key: &str) -> Result<&'a str, String> {
    o.as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request has no string `{key}`"))
}

/// One edit through the engine, as the daemon serves an `update`
/// followed by a `constants` read of the edited procedure.
fn edit_once(
    t: &mut Tracer,
    engine: &mut ServeEngine,
    edits: &mut EditStream<'_>,
    req: u64,
) -> Result<(), String> {
    let line = inputs::update_request(&format!("e{req}"), &edits.next_edit()?);
    t.span("serve.request", req, |t| {
        let parsed = t.span("serve.json_parse", req, |_| json::parse(&line))?;
        let (proc, body) = (str_of(&parsed, "proc")?, str_of(&parsed, "body")?);
        t.span("serve.update", req, |_| engine.update(proc, body))
            .map_err(|e| format!("update {proc}: {e}"))?;
        let snap = t.span("serve.snapshot", req, |_| engine.snapshot());
        let read = t
            .span("serve.first_read", req, |_| snap.constants(Some(proc)))
            .map_err(|e| format!("constants {proc}: {e}"))?;
        let id = Json::from(format!("e{req}r"));
        t.span("serve.json_write", req, |_| {
            constants_reply(&id, &snap.outcome, &read).to_string()
        });
        Ok(())
    })
}

/// The `serve-edit-10k` replay: the edit stream through
/// `ServeEngine::update`, a fresh snapshot, and the first read of it.
fn serve_edit(
    ctx: &Ctx,
    t: &mut Tracer,
    s: &mut Samples,
    source: &ScaleSource,
    text: &str,
    config: &Config,
    started: Instant,
) -> Result<(), String> {
    let mut engine = boot(t, s, text, config)?;
    let mut edits = EditStream::new(source, ctx.seed);
    edit_once(&mut Tracer::new(false), &mut engine, &mut edits, 0)?; // warm-up, as end to end
    let mut requests = Vec::new();
    let mut done = 0u64;
    while more(ctx, started, done, 3) {
        let before = engine.cache_stats();
        edit_once(t, &mut engine, &mut edits, done + 1)?;
        let after = engine.cache_stats();
        done += 1;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        s.push(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        s.push("serve.misses_per_edit", misses as f64);
        s.push(
            "serve.evictions_per_edit",
            (after.evictions - before.evictions) as f64,
        );
        for (span, metric) in [
            ("serve.update", "serve.update_ms"),
            ("serve.snapshot", "serve.snapshot_ms"),
            ("serve.first_read", "serve.first_read_ms"),
        ] {
            s.push(metric, ms(t.last(span).expect("recorded").dur()));
        }
        s.push(
            "serve.update_allocs",
            t.last("serve.update").expect("recorded").alloc.allocs as f64,
        );
        s.push(
            "serve.json_parse_us",
            us(t.last("serve.json_parse").expect("recorded").dur()),
        );
        s.push(
            "serve.json_write_us",
            us(t.last("serve.json_write").expect("recorded").dur()),
        );
        requests.push(ms(t.last("serve.request").expect("recorded").dur()));
    }
    s.push("serve.edit_p90_ms", quantile(&requests, 0.9));
    Ok(())
}

/// One `batch` frame through the read path: parse, one
/// `Snapshot::constants` per item under the pool's epoch gate, write.
fn frame_once(t: &mut Tracer, pool: &ReadPool, line: &str, req: u64) -> Result<String, String> {
    t.span("serve.frame", req, |t| {
        let parsed = t.span("serve.json_parse", req, |_| json::parse(line))?;
        let items = parsed
            .as_object()
            .and_then(|o| o.get("requests"))
            .and_then(Json::as_array)
            .ok_or("frame has no requests")?;
        // Every item of a frame reads the same published snapshot.
        let outcome = pool.read(|snap| snap.outcome.clone());
        let mut results = Vec::with_capacity(items.len());
        for item in items {
            let proc = str_of(item, "proc")?;
            let read = t
                .span("serve.read_item", req, |_| {
                    pool.read(|snap| snap.constants(Some(proc)))
                })
                .map_err(|e| format!("constants {proc}: {e}"))?;
            let id = item
                .as_object()
                .and_then(|o| o.get("id"))
                .cloned()
                .unwrap_or(Json::Null);
            results.push((id, read));
        }
        Ok(t.span("serve.json_write", req, |_| {
            let results: Vec<Json> = results
                .iter()
                .map(|(id, r)| constants_reply(id, &outcome, r))
                .collect();
            let mut payload = Object::new();
            payload.set("results", Json::from(results));
            reply(&Json::from(format!("b{req}")), payload).to_string()
        }))
    })
}

/// The `serve-read-10k` replay: the read stream through the read path,
/// then (with `wire`) the same frames through a real daemon, whose extra
/// per-item time over the in-process path is `serve.wire_us`.
fn serve_read(
    ctx: &Ctx,
    t: &mut Tracer,
    s: &mut Samples,
    (source, text): (&ScaleSource, &str),
    config: &Config,
    started: Instant,
    wire: bool,
) -> Result<(), String> {
    let engine = boot(t, s, text, config)?;
    let snap = t.span("serve.snapshot", 0, |_| engine.snapshot());
    s.push(
        "serve.snapshot_ms",
        ms(t.last("serve.snapshot").expect("recorded").dur()),
    );
    let pool = ReadPool::new(1, snap);
    let mut reads = ReadStream::new(source, ctx.seed);
    let first = reads.next_proc();
    t.span("serve.first_read", 0, |_| {
        pool.read(|snap| snap.constants(Some(&first)))
    })
    .map_err(|e| format!("constants {first}: {e}"))?;
    s.push(
        "serve.first_read_ms",
        ms(t.last("serve.first_read").expect("recorded").dur()),
    );

    let mut done = 0u64;
    while done < MAX_TRACED_FRAMES && more(ctx, started, done, 10) {
        let (line, _) = inputs::batch_frame(&mut reads, done + 1, done * BATCH as u64, BATCH);
        frame_once(t, &pool, &line, done + 1)?;
        done += 1;
        s.push(
            "serve.json_parse_us",
            us(t.last("serve.json_parse").expect("recorded").dur()),
        );
        s.push(
            "serve.json_write_us",
            us(t.last("serve.json_write").expect("recorded").dur()),
        );
    }
    let items: Vec<f64> = t
        .spans
        .iter()
        .filter(|sp| sp.name == "serve.read_item")
        .map(|sp| us(sp.dur()))
        .collect();
    s.0.insert("serve.read_item_us", items);

    if wire {
        // The in-process side of the difference runs untraced, so span
        // bookkeeping does not count as wire time.
        let mut off = Tracer::new(false);
        let mut walls = Vec::new();
        for frame in 0..done {
            let (line, _) = inputs::batch_frame(&mut reads, frame, frame * BATCH as u64, BATCH);
            let w = Instant::now();
            frame_once(&mut off, &pool, &line, frame)?;
            walls.push(us(w.elapsed()));
        }
        drop(pool);
        drop(engine);
        let in_process = median(&walls) / BATCH as f64;
        let prog = ctx.work.join(format!("traced-{}.ft", ctx.seed));
        let (mut d, _) = Daemon::boot(&ctx.ipcc, &prog)?;
        let mut walls = Vec::new();
        let t0 = Instant::now();
        for frame in 0u64.. {
            let (line, _) = inputs::batch_frame(&mut reads, frame, frame * BATCH as u64, BATCH);
            let w = Instant::now();
            let reply = d.request(&line)?;
            if frame > 0 {
                walls.push(us(w.elapsed()));
            }
            if !reply.starts_with(r#"{"id":"b"#) || reply.contains(r#""ok":false"#) {
                return Err(format!("wire frame {frame} failed"));
            }
            if walls.len() >= 50 && t0.elapsed() >= WIRE_WINDOW {
                break;
            }
        }
        d.shutdown()?;
        s.push("serve.wire_us", median(&walls) / BATCH as f64 - in_process);
    }
    Ok(())
}
