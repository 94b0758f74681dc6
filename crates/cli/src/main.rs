//! `ipcc` — the command-line driver for the FT interprocedural constant
//! propagation toolchain. See `ipcc help` or [`args::HELP`].

mod args;
mod serve;

use args::{Command, Emit};
use ipcp::{clone_by_constants, complete_propagation, Analysis, AnalysisHealth, Config, IpcpError};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::interp::{run_module, ExecLimits};
use ipcp_ir::program::{ProcId, SlotLayout};
use std::io::Read as _;
use std::process::ExitCode;

/// A dispatch failure carrying its exit code: 1 for diagnostics and
/// runtime errors, 2 for usage errors, 3 for strict-mode budget
/// exhaustion (see `EXIT CODES` in [`args::HELP`]).
struct Failure {
    code: u8,
    msg: String,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { code: 1, msg }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

/// Prints degradation telemetry to stderr and, under `--strict`, promotes
/// it to an exit-code-3 failure.
fn check_health(health: &AnalysisHealth, strict: bool) -> Result<(), Failure> {
    for e in &health.events {
        eprintln!("warning: analysis degraded: {e}");
    }
    IpcpError::check_strict(strict, health).map_err(|e| Failure {
        code: 3,
        msg: format!("error: {e}"),
    })
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("error: reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("error: {path}: {e}"))
    }
}

fn load(path: &str) -> Result<(String, ModuleCfg), String> {
    let src = read_source(path)?;
    let module = ipcp_ir::parse_and_resolve(&src).map_err(|diags| {
        let rendered: Vec<String> = diags.iter().map(|d| d.render(&src)).collect();
        rendered.join("\n")
    })?;
    Ok((src, ipcp_ir::lower_module_owned(module)))
}

fn dispatch(cmd: Command) -> Result<(), Failure> {
    match cmd {
        Command::Help => {
            print!("{}", args::HELP);
            Ok(())
        }
        Command::Fmt { file } => {
            let src = read_source(&file)?;
            let prog = ipcp_ir::lang::parse_program(&src).map_err(|diags| {
                let rendered: Vec<String> = diags.iter().map(|d| d.render(&src)).collect();
                rendered.join("\n")
            })?;
            print!("{}", ipcp_ir::lang::pretty::program(&prog));
            Ok(())
        }
        Command::Run { file, inputs } => {
            let (_, mcfg) = load(&file)?;
            let exec = run_module(&mcfg.module, &inputs, &ExecLimits::default())
                .map_err(|e| format!("runtime error: {e}"))?;
            for v in exec.output {
                println!("{v}");
            }
            Ok(())
        }
        Command::Cfg { file, proc } => {
            let (_, mcfg) = load(&file)?;
            for (pid, cfg) in mcfg.iter() {
                let p = mcfg.module.proc(pid);
                if proc.as_deref().is_some_and(|want| want != p.name) {
                    continue;
                }
                print!("{}", cfg.display(&mcfg.module, pid));
            }
            Ok(())
        }
        Command::CallGraph { file } => {
            let (_, mcfg) = load(&file)?;
            let cg = ipcp_analysis::build_call_graph(&mcfg);
            for e in &cg.edges {
                println!(
                    "{} --{}--> {}",
                    mcfg.module.proc(e.caller).name,
                    e.site,
                    mcfg.module.proc(e.callee).name
                );
            }
            for (pi, proc) in mcfg.module.procs.iter().enumerate() {
                if !cg.reachable[pi] {
                    println!("; unreachable: {}", proc.name);
                }
            }
            Ok(())
        }
        Command::Analyze { file, config, emit } => {
            let (_, mcfg) = load(&file)?;
            let analysis = Analysis::run(&mcfg, &config);
            emit_analysis(&mcfg, &analysis, emit);
            check_health(&analysis.health, config.strict)
        }
        Command::Complete { file, config } => {
            let (_, mcfg) = load(&file)?;
            let plain_analysis = Analysis::run(&mcfg, &config);
            let plain = plain_analysis.substitution_counts(&mcfg).total;
            let result = complete_propagation(&mcfg, &config);
            println!("plain propagation:    {plain} constants substituted");
            println!(
                "complete propagation: {} constants substituted",
                result.substitution.total
            );
            println!(
                "dce rounds: {}   statements removed: {}",
                result.dce_rounds, result.statements_removed
            );
            check_health(&plain_analysis.health, config.strict)
        }
        Command::Clone {
            file,
            config,
            budget,
        } => {
            let (_, mcfg) = load(&file)?;
            let before = Analysis::run(&mcfg, &config)
                .substitution_counts(&mcfg)
                .total;
            let result = clone_by_constants(&mcfg, &config, budget);
            let after = Analysis::run(&result.module, &config)
                .substitution_counts(&result.module)
                .total;
            println!("clones created: {}", result.n_clones);
            for (pi, n) in result.clones_of.iter().enumerate() {
                if *n > 0 {
                    println!("  {} x{}", mcfg.module.procs[pi].name, n);
                }
            }
            println!("constants substituted: {before} -> {after}");
            check_health(&result.health, config.strict)
        }
        Command::Explain {
            file,
            config,
            proc,
            slot,
            depth,
        } => {
            let (_, mcfg) = load(&file)?;
            let analysis = Analysis::run(&mcfg, &config);
            let p = mcfg
                .module
                .proc_named(&proc)
                .ok_or_else(|| Failure::from(format!("error: no procedure named `{proc}`")))?;
            let layout = SlotLayout::new(&mcfg.module);
            let n_slots = layout.n_slots(p.arity());
            let pid = p.id;
            for s in 0..n_slots {
                let name = layout.slot_name(&mcfg.module, pid, s);
                if slot.as_deref().is_some_and(|want| want != name) {
                    continue;
                }
                print!("{}", ipcp::explain::render(&mcfg, &analysis, pid, s, depth));
            }
            check_health(&analysis.health, config.strict)
        }
        Command::Integrate { file, budget } => {
            let (_, mcfg) = load(&file)?;
            let jf = Analysis::run(&mcfg, &Config::polynomial())
                .substitution_counts(&mcfg)
                .total;
            let (integrated, result) = ipcp::integrate_and_count(&mcfg, &Config::default(), budget);
            println!(
                "inlined {} call(s) in {} round(s)",
                result.inlined_calls, result.rounds
            );
            println!("jump functions (polynomial): {jf} constants substituted");
            println!("integration + intraprocedural: {integrated} constants substituted");
            println!("(integrated counts may double-count duplicated code)");
            Ok(())
        }
        Command::Reduce {
            file,
            config,
            check,
            max_tests,
        } => {
            let src = read_source(&file)?;
            // The suite's grammar-aware pass drops whole procedures,
            // blocks, and call arguments before byte-level ddmin runs.
            let prepass = ipcp_suite::prop::structural_pass;
            match ipcp::reduce_with_prepass(&src, &config, &check, max_tests, Some(&prepass)) {
                None => Err(Failure::from(format!(
                    "error: `{file}` does not reproduce a `{}` failure (nothing to reduce)",
                    check.label()
                ))),
                Some(out) => {
                    eprintln!(
                        "reduce[{}]: {} -> {} bytes in {} test(s)",
                        check.label(),
                        out.original_bytes,
                        out.reduced_bytes,
                        out.tests
                    );
                    println!("{}", out.source);
                    Ok(())
                }
            }
        }
        Command::Fuzz {
            config,
            props,
            seed,
            cases,
            time_budget_ms,
            corpus,
            inputs,
            shrink_tests,
            gens,
        } => fuzz(
            config,
            &props,
            seed,
            cases,
            time_budget_ms,
            corpus.as_deref(),
            inputs,
            shrink_tests,
            &gens,
        ),
        Command::Serve { file, config, opts } => {
            let src = read_source(&file)?;
            serve::serve(&src, &config, &opts).map_err(Failure::from)
        }
        Command::ServeConnect {
            socket,
            retries,
            retry_ms,
        } => serve::connect(&socket, retries, retry_ms).map_err(Failure::from),
        Command::Tables => {
            // Reuses the suite directly so `ipcc tables` works anywhere.
            tables();
            Ok(())
        }
    }
}

/// `ipcc fuzz`: replays any persisted corpus first, then drives seeded
/// generated cases through the property harness, printing every
/// minimized counterexample with its replay line and persisting it to
/// the corpus directory. Any counterexample exits 1.
#[allow(clippy::too_many_arguments)]
fn fuzz(
    config: Config,
    props: &[String],
    seed: u64,
    cases: usize,
    time_budget_ms: Option<u64>,
    corpus: Option<&str>,
    inputs: Vec<i64>,
    shrink_tests: usize,
    gens: &[String],
) -> Result<(), Failure> {
    use ipcp_suite::prop;

    // Parse-time validation guarantees every name resolves.
    let boxed: Vec<Box<dyn ipcp_suite::Property>> = props
        .iter()
        .filter_map(|name| prop::property(name))
        .collect();
    let refs: Vec<&dyn ipcp_suite::Property> = boxed.iter().map(Box::as_ref).collect();
    let flags = args::render_config_flags(&config);
    let mut checker = ipcp_suite::Checker::new(seed);
    checker.cases = cases;
    checker.deadline = time_budget_ms.map(ipcp::Deadline::after_ms);
    checker.shrink_tests = shrink_tests;
    checker.ctx.config = config;
    if !inputs.is_empty() {
        checker.ctx.inputs = inputs;
    }

    let mut found = Vec::new();

    // Corpus replay: previously minimized reproducers must stay fixed.
    // A missing directory just means no corpus yet.
    if let Some(dir) = corpus {
        let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "ft"))
                    .collect()
            })
            .unwrap_or_default();
        entries.sort();
        for path in entries {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let label = path.display().to_string();
            found.extend(checker.check_source(&label, &src, &refs));
        }
    }

    // Whole-program scale generations (`--gen scale:<spec>`): a corpus
    // source with a very different shape from the random cases — real
    // call-graph structure (SCCs, fan-out, depth) at whatever size the
    // spec asks for. Specs were validated at parse time.
    for gen in gens {
        if let Some(spec_str) = gen.strip_prefix("scale:") {
            if let Ok(spec) = ipcp_suite::ScaleSpec::parse(spec_str) {
                let src = ipcp_suite::generate_scale(&spec);
                found.extend(checker.check_source(gen, &src, &refs));
            }
        }
    }

    let report = checker.run(&refs);
    eprintln!(
        "fuzz: seed {seed}: {} generated case(s) x {} propert{}{}",
        report.cases,
        refs.len(),
        if refs.len() == 1 { "y" } else { "ies" },
        if report.timed_out {
            " (time budget reached)"
        } else {
            ""
        },
    );
    found.extend(report.counterexamples);

    if found.is_empty() {
        return Ok(());
    }
    for cx in &found {
        eprint!("{}", cx.render(&flags));
    }
    if let Some(dir) = corpus {
        persist_corpus(dir, &found, &flags);
    }
    Err(Failure {
        code: 1,
        msg: format!("error: {} counterexample(s) found", found.len()),
    })
}

/// Writes each generative counterexample's minimized source to
/// `<corpus>/<property>-<case seed>.ft` next to a `.repro` file carrying
/// the full report and replay line. Corpus-replay failures are already
/// on disk and are skipped.
fn persist_corpus(dir: &str, found: &[ipcp_suite::Counterexample], flags: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create corpus dir {dir}: {e}");
        return;
    }
    for cx in found {
        let Some(case_seed) = cx.case_seed else {
            continue;
        };
        let stem = format!("{}-{case_seed}", cx.property);
        let ft = std::path::Path::new(dir).join(format!("{stem}.ft"));
        let repro = std::path::Path::new(dir).join(format!("{stem}.repro"));
        if let Err(e) = std::fs::write(&ft, &cx.minimized) {
            eprintln!("warning: cannot write {}: {e}", ft.display());
            continue;
        }
        if let Err(e) = std::fs::write(&repro, cx.render(flags)) {
            eprintln!("warning: cannot write {}: {e}", repro.display());
        }
        eprintln!("corpus: wrote {}", ft.display());
    }
}

fn emit_analysis(mcfg: &ModuleCfg, analysis: &Analysis, emit: Emit) {
    let layout = SlotLayout::new(&mcfg.module);
    match emit {
        Emit::Constants => {
            print!("{}", analysis.vals.display(mcfg, &layout));
            let substituted = analysis.substitution_counts(mcfg);
            println!("total constants substituted: {}", substituted.total);
        }
        Emit::Counts => {
            let substituted = analysis.substitution_counts(mcfg);
            for (pi, n) in substituted.counts.iter().enumerate() {
                println!("{:<24} {n}", mcfg.module.procs[pi].name);
            }
            println!("{:<24} {}", "total", substituted.total);
        }
        Emit::Substituted => {
            let substituted = analysis.substitute(mcfg);
            for (pid, cfg) in substituted.module.iter() {
                print!("{}", cfg.display(&substituted.module.module, pid));
            }
        }
        Emit::Report => {
            print!("{}", ipcp::CostReport::collect(mcfg, analysis));
        }
        Emit::Source => {
            let substituted = analysis.substitute(mcfg);
            print!("{}", substituted.to_source(&mcfg.module));
        }
        Emit::JumpFns => {
            for (pi, sites) in analysis.jump_fns.sites.iter().enumerate() {
                let caller = ProcId::from(pi);
                for (si, fns) in sites.iter().enumerate() {
                    let Some(fns) = fns.as_ref().filter(|f| !f.is_empty()) else {
                        continue;
                    };
                    let rendered: Vec<String> = fns.iter().map(|jf| jf.to_string()).collect();
                    println!(
                        "{} cs{si}: [{}]",
                        mcfg.module.proc(caller).name,
                        rendered.join(", ")
                    );
                }
            }
        }
    }
}

/// One `Serve cache` table row.
struct ServeCacheRow {
    /// Cold-start misses.
    cold: u64,
    /// Warm-rerun hits.
    warm: u64,
    /// Hit/miss split after appending a statement to the last procedure
    /// — the canonical "touch one procedure" probe, so `edit_hit` is the
    /// summary reuse an editor-driven daemon sees.
    edit_hit: u64,
    edit_miss: u64,
    /// How many of those requests degraded.
    deg: u64,
    /// Records restored from a snapshot taken after the edit.
    recovered: u64,
    /// Startup hits a restarted daemon served from those records — the
    /// restart payoff of `--store`.
    persisted_hit: u64,
    /// The discard label a one-byte-corrupted snapshot reports.
    discarded: &'static str,
}

fn serve_cache_row(src: &str) -> Result<ServeCacheRow, String> {
    use ipcp::serve::store::{decode, encode};
    use ipcp::serve::{ServeEngine, SummaryCache};

    let mut engine = ServeEngine::new(src, &Config::polynomial()).map_err(|e| e.to_string())?;
    let cold = engine.last_outcome().misses;
    let warm = engine.analyze(None).map_err(|e| e.to_string())?.hits;
    let name = engine
        .proc_names()
        .last()
        .ok_or_else(|| "program has no procedures".to_string())?
        .to_string();
    let text = engine
        .proc_text(&name)
        .ok_or_else(|| format!("no text for `{name}`"))?;
    let brace = text
        .rfind('}')
        .ok_or_else(|| format!("`{name}` has no body"))?;
    let fragment = format!("{}    print 0;\n{}", &text[..brace], &text[brace..]);
    let edited = engine.update(&name, &fragment).map_err(|e| e.to_string())?;

    // The persistence leg: snapshot through the on-disk wire format,
    // restart from it, and probe what a corrupted snapshot reports.
    let (cfp, sfp) = engine.fingerprints();
    let bytes = encode(engine.cache(), cfp, sfp);
    let entries = decode(&bytes, cfp, sfp).map_err(|r| r.to_string())?;
    let recovered = entries.len() as u64;
    let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
    let restarted = ServeEngine::new_with_cache(&engine.source(), &Config::polynomial(), cache)
        .map_err(|e| e.to_string())?;
    let persisted_hit = restarted.last_outcome().persisted_hits;
    let mut bad = bytes;
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    let discarded = match decode(&bad, cfp, sfp) {
        Err(reason) => reason.label(),
        Ok(_) => "accepted?!",
    };

    Ok(ServeCacheRow {
        cold,
        warm,
        edit_hit: edited.hits,
        edit_miss: edited.misses,
        deg: engine.stats().degraded_requests,
        recovered,
        persisted_hit,
        discarded,
    })
}

fn tables() {
    use ipcp::{complete_propagation as complete, count_intraprocedural, JumpFnKind};
    use ipcp_suite::paper_programs;

    println!("Table 2: constants found through use of jump functions");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "program", "poly", "pass", "intra", "literal", "poly/nr", "pass/nr"
    );
    for p in paper_programs() {
        let mcfg = p.module_cfg();
        let count = |c: &Config| Analysis::run(&mcfg, c).substitution_counts(&mcfg).total;
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}",
            p.name,
            count(&Config::default().with_jump_fn(JumpFnKind::Polynomial)),
            count(&Config::default().with_jump_fn(JumpFnKind::PassThrough)),
            count(&Config::default().with_jump_fn(JumpFnKind::IntraproceduralConstant)),
            count(&Config::default().with_jump_fn(JumpFnKind::Literal)),
            count(
                &Config::default()
                    .with_jump_fn(JumpFnKind::Polynomial)
                    .with_return_jfs(false)
            ),
            count(
                &Config::default()
                    .with_jump_fn(JumpFnKind::PassThrough)
                    .with_return_jfs(false)
            ),
        );
    }
    println!();
    println!("Table 3: polynomial vs other propagation techniques");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>7} {:>5} {:>5}",
        "program", "no-mod", "with-mod", "complete", "intra", "deg", "quar"
    );
    for p in paper_programs() {
        let mcfg = p.module_cfg();
        let a = Analysis::run(&mcfg, &Config::polynomial());
        println!(
            "{:<10} {:>8} {:>8} {:>9} {:>7} {:>5} {:>5}",
            p.name,
            Analysis::run(&mcfg, &Config::polynomial().with_mod(false))
                .substitution_counts(&mcfg)
                .total,
            a.substitution_counts(&mcfg).total,
            complete(&mcfg, &Config::polynomial()).substitution.total,
            count_intraprocedural(&mcfg, &a).total,
            a.health.events.len(),
            a.quarantined.iter().filter(|&&q| q).count(),
        );
    }
    println!();
    println!("Serve cache: summary reuse across a warm daemon (ipcc serve)");
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>9} {:>7} {:>7} {:>5} {:>8} {:>12}",
        "program",
        "cold_miss",
        "warm_hit",
        "edit_hit",
        "edit_miss",
        "reuse%",
        "deg_req",
        "recov",
        "pers_hit",
        "discard"
    );
    for p in paper_programs() {
        match serve_cache_row(p.source) {
            Ok(r) => {
                let reuse = if r.edit_hit + r.edit_miss > 0 {
                    100.0 * r.edit_hit as f64 / (r.edit_hit + r.edit_miss) as f64
                } else {
                    0.0
                };
                println!(
                    "{:<10} {:>9} {:>8} {:>8} {:>9} {:>6.0}% {:>7} {:>5} {:>8} {:>12}",
                    p.name,
                    r.cold,
                    r.warm,
                    r.edit_hit,
                    r.edit_miss,
                    reuse,
                    r.deg,
                    r.recovered,
                    r.persisted_hit,
                    r.discarded
                );
            }
            Err(e) => println!("{:<10} serve row unavailable: {e}", p.name),
        }
    }
    println!();
    let auto_jobs = Config::default().effective_jobs();
    println!("Per-stage wall time, sequential vs --jobs {auto_jobs} (machine-dependent)");
    println!("{}", ipcp::PhaseReport::header());
    for p in paper_programs() {
        let mcfg = p.module_cfg();
        for jobs in [1, auto_jobs] {
            let t = Analysis::run(&mcfg, &Config::polynomial().with_jobs(jobs)).timings;
            println!("{}", ipcp::PhaseReport::collect(&t).render_row(p.name));
            if auto_jobs == 1 {
                break;
            }
        }
    }
}
