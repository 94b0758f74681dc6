//! Minimal, dependency-free argument parsing for `ipcc`.

use ipcp::{Config, Deadline, JumpFnKind, ReduceCheck, Stage};
use std::fmt;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `ipcc analyze <file> [options]`
    Analyze {
        /// Input path (`-` for stdin).
        file: String,
        /// Analysis configuration (strict mode included: `Config::strict`).
        config: Config,
        /// What to print.
        emit: Emit,
    },
    /// `ipcc run <file> [--input a,b,c]`
    Run {
        /// Input path.
        file: String,
        /// `read` stream values.
        inputs: Vec<i64>,
    },
    /// `ipcc fmt <file>` — parse and pretty-print.
    Fmt {
        /// Input path.
        file: String,
    },
    /// `ipcc cfg <file> [--proc name]` — dump lowered control-flow graphs.
    Cfg {
        /// Input path.
        file: String,
        /// Restrict to one procedure.
        proc: Option<String>,
    },
    /// `ipcc callgraph <file>` — dump the call multigraph.
    CallGraph {
        /// Input path.
        file: String,
    },
    /// `ipcc complete <file> [options]` — complete propagation report.
    Complete {
        /// Input path.
        file: String,
        /// Analysis configuration.
        config: Config,
    },
    /// `ipcc clone <file> [--budget N] [options]` — constant-driven cloning.
    Clone {
        /// Input path.
        file: String,
        /// Analysis configuration.
        config: Config,
        /// Maximum clones to create.
        budget: usize,
    },
    /// `ipcc explain <file> --proc <name> [--slot <name>] [--depth N]`
    Explain {
        /// Input path.
        file: String,
        /// Analysis configuration.
        config: Config,
        /// Procedure to explain.
        proc: String,
        /// Slot (formal/global) name; all slots when omitted.
        slot: Option<String>,
        /// Recursion depth through supporting slots.
        depth: usize,
    },
    /// `ipcc integrate <file> [--budget N]` — Wegman–Zadeck procedure
    /// integration comparison.
    Integrate {
        /// Input path.
        file: String,
        /// Statement-count growth budget.
        budget: usize,
    },
    /// `ipcc reduce <file> --check <kind>` — shrink a failing input to a
    /// minimal reproducer with delta debugging.
    Reduce {
        /// Input path.
        file: String,
        /// Analysis configuration (including any injected faults).
        config: Config,
        /// The failure class to preserve while shrinking.
        check: ReduceCheck,
        /// Predicate-evaluation budget for the search.
        max_tests: usize,
    },
    /// `ipcc fuzz [--props a,b] [--seed N]` — run the shrinking property
    /// harness on seeded generated programs.
    Fuzz {
        /// Analysis configuration the properties check under.
        config: Config,
        /// Property registry names to check (validated at parse time).
        props: Vec<String>,
        /// Base case seed; case `i` uses `seed + i`.
        seed: u64,
        /// Generated cases to run.
        cases: usize,
        /// Optional wall-clock budget for the whole run.
        time_budget_ms: Option<u64>,
        /// Corpus directory: `*.ft` entries are replayed before the
        /// generative run, and minimized counterexamples are persisted.
        corpus: Option<String>,
        /// Inputs fed to the soundness oracle's interpreter runs.
        inputs: Vec<i64>,
        /// Probe-evaluation budget per shrink.
        shrink_tests: usize,
        /// Extra deterministic corpus sources (`--gen scale:<spec>`,
        /// repeatable), checked before the generative run.
        gens: Vec<String>,
    },
    /// `ipcc serve <file> [options]` — the long-lived incremental
    /// analysis daemon (JSON-lines over stdin/stdout and a Unix socket).
    Serve {
        /// Initial program path (`-` for stdin).
        file: String,
        /// Base analysis configuration for every request.
        config: Config,
        /// Daemon options (transport, admission, persistence).
        opts: ServeOpts,
    },
    /// `ipcc serve --connect <socket>` — client mode: forward stdin
    /// JSON lines to a running daemon's socket, print its responses.
    ServeConnect {
        /// Socket path of the daemon.
        socket: String,
        /// Retries for refused connections and explicit sheds
        /// (`overloaded` / `shutting_down`); 0 disables retrying.
        retries: u32,
        /// Base backoff delay in milliseconds (doubles per attempt,
        /// capped, jittered).
        retry_ms: u64,
    },
    /// `ipcc tables` — regenerate the study's tables on the builtin suite.
    Tables,
    /// `ipcc help` / `--help`.
    Help,
}

/// Every `ipcc serve` daemon option (everything but the program and the
/// analysis configuration), bundled so the transport layer takes one
/// argument instead of eight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOpts {
    /// Unix socket path to also listen on.
    pub socket: Option<String>,
    /// Admission bound: queued + running requests beyond this are shed
    /// with an explicit `overloaded` response.
    pub max_inflight: usize,
    /// Queue deadline: a request that waited longer than this before
    /// processing started is shed instead of served stale.
    pub queue_ms: u64,
    /// Drain deadline for graceful shutdown (SIGTERM/`shutdown`).
    pub drain_ms: u64,
    /// Default per-request wall-clock deadline (the degradation
    /// ladder's top rung), applied at request-processing time.
    pub request_deadline_ms: Option<u64>,
    /// Path of the durable summary store (`--store`); `None` disables
    /// persistence.
    pub store: Option<String>,
    /// Snapshot the store every N served requests (as well as on
    /// drain); `None` snapshots only on drain.
    pub snapshot_every_n: Option<u64>,
    /// Validated `--inject-io <fault>:<point>` spelling (testing only);
    /// parsed again by the store's [`ipcp::serve::IoInjector`].
    pub inject_io: Option<String>,
    /// Read-worker threads (`--serve-workers`): `constants`/`explain`/
    /// `health`/`stats` requests without overrides execute concurrently
    /// on this many threads; writer requests take an exclusive epoch.
    pub serve_workers: usize,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            socket: None,
            max_inflight: 8,
            queue_ms: 1_000,
            drain_ms: 2_000,
            request_deadline_ms: None,
            store: None,
            snapshot_every_n: None,
            inject_io: None,
            serve_workers: 1,
        }
    }
}

/// What `analyze` prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Emit {
    /// The `CONSTANTS(p)` sets (default).
    #[default]
    Constants,
    /// The constant-substituted program (CFG form).
    Substituted,
    /// Per-procedure substitution counts.
    Counts,
    /// The jump functions of every reachable call site.
    JumpFns,
    /// The §3.1.5 cost report (shapes, support sizes, solver counters).
    Report,
    /// The transformed source text (§4.1's optional output).
    Source,
}

/// A command-line error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The help text.
pub const HELP: &str = "\
ipcc — interprocedural constant propagation for FT programs

USAGE:
    ipcc <COMMAND> [ARGS]

COMMANDS:
    analyze <file>    run the analysis and print CONSTANTS(p) per procedure
    run <file>        execute the program with the reference interpreter
    fmt <file>        parse and pretty-print the program
    cfg <file>        print the lowered control-flow graphs
    callgraph <file>  print the call multigraph
    complete <file>   run complete propagation (propagate + DCE to fixpoint)
    clone <file>      constant-driven procedure cloning report
    explain <file>    show where a slot's constant (or ⊥) came from
    integrate <file>  Wegman-Zadeck procedure integration comparison
    reduce <file>     shrink a failing input to a minimal reproducer
    fuzz              check properties on seeded random programs, shrinking
                      any counterexample to a minimal replayable reproducer
    serve <file>      long-lived incremental analysis daemon (JSON lines on
                      stdin/stdout, optionally a Unix socket)
    tables            regenerate the paper's Tables 1-3 on the builtin suite
    help              show this message

ANALYSIS OPTIONS (analyze / complete / clone / explain / reduce / fuzz):
    --jump-fn <literal|intra|pass|poly>   forward jump function (default: pass)
    --no-mod                              disable MOD information
    --no-return-jfs                       disable return jump functions
    --compose-return-jfs                  extension: symbolic composition
    --zero-globals                        extension: globals are 0 at main
    --gated                               extension: gated generation
    --pruned-ssa                          engineering: liveness-pruned SSA
    --jobs <N>, -j <N>                    worker threads for the per-procedure
                                          phases and the transformation
                                          drivers (0 = auto-detect, the
                                          default; env IPCP_JOBS overrides
                                          auto; results are bit-identical
                                          for every N)
    --emit <constants|substituted|counts|jumpfns|report|source>  analyze output

BUDGET OPTIONS (analyze / complete / clone / explain / reduce / fuzz):
    --max-poly-terms <N>                  cap polynomial jump-function terms
    --max-solver-iterations <N>           cap solver procedure re-evaluations
    --strict                              exit 3 if the run degraded at all

ROBUSTNESS OPTIONS (analyze / complete / clone / explain / reduce / fuzz):
    --deadline-ms <N>       wall-clock deadline; results degrade soundly
    --no-quarantine         disable per-procedure fault isolation
    --inject-panic <stage>:<proc>   panic in one procedure's unit (testing)

OTHER OPTIONS:
    run:    --input <a,b,c>   comma-separated integers for `read`
    clone:  --budget <N>      max clones (default 16)
    reduce: --check <panic|quarantine|degraded|unsound>  failure to preserve
            --input <a,b,c>   oracle inputs for --check unsound
            --max-tests <N>   predicate budget (default 2000)
    fuzz:   --props <a,b,...>       properties to check, from: panic-free,
                                    soundness, jobs-identity,
                                    wavefront-worklist, exit-consistency,
                                    serve-identity, serve-persist,
                                    stream-identity (default: all of them);
                                    serve-identity edits procedures with
                                    swap_operator, splice_statement,
                                    perturb_call_arity, bump_literal,
                                    add_global_write,
                                    bind_global_by_reference and
                                    perturb_actual
            --seed <N>              base case seed (default 1); case i runs
                                    seed N+i, so failures replay exactly
                                    with `--seed <case seed> --cases 1`
            --cases <N>             generated cases to run (default 256)
            --time-budget-ms <N>    stop generating when the budget expires
            --corpus <DIR>          replay *.ft files in DIR first; persist
                                    minimized counterexamples there
            --input <a,b,c>         oracle inputs for the soundness property
            --shrink-tests <N>      probe budget per shrink (default 800)
            --gen scale:<spec>      also check one whole-program scale
                                    generation (e.g. scale:procs=200,
                                    shape=power-law,seed=9); repeatable
    serve:  --socket <PATH>         also listen on a Unix socket
            --serve-workers <N>     read-worker threads: warm `constants`/
                                    `explain`/`health`/`stats` requests run
                                    concurrently; `update`/`load` take an
                                    exclusive epoch (default 1)
            --max-inflight <N>      admission bound; excess requests get an
                                    explicit `overloaded` response (default 8)
            --queue-ms <N>          shed requests queued longer than this
                                    (default 1000)
            --drain-ms <N>          graceful-shutdown drain deadline
                                    (default 2000)
            --request-deadline-ms <N>  default per-request deadline; timed-out
                                    stages answer ⊥ and mark `degraded`
            --store <PATH>          durable summary store: restored (after full
                                    verification) at startup, snapshotted on
                                    drain; corrupt or mismatched stores are
                                    discarded with a logged reason and the
                                    daemon cold-starts
            --snapshot-every-n <N>  also snapshot every N served requests
            --inject-io <fault>:<point>  fail the point-th store write with
                                    short-write | enospc | eio | rename-fail
                                    (deterministic fault injection, testing)
            --connect <PATH>        client mode: forward stdin JSON lines to a
                                    running daemon and print its responses
            --retries <N>           with --connect: retry refused connections
                                    and overloaded/shutting_down sheds up to N
                                    times (default 0: fail fast)
            --retry-ms <N>          base backoff delay for --retries; doubles
                                    per attempt, capped and jittered
                                    (default 50)
            (analysis/budget/robustness options set the base configuration;
             see docs/SERVE.md for the request protocol and persistence)

EXIT CODES:
    0  success
    1  diagnostics, a runtime error, a fuzz counterexample, or a reduce
       target that does not fail
    2  usage error
    3  analysis budgets or the deadline degraded the run and --strict was given

Use `-` as <file> to read from standard input.
";

fn parse_config(args: &mut Vec<String>) -> Result<Config, UsageError> {
    let mut builder = Config::builder();
    let mut rest = Vec::new();
    let drained: Vec<String> = std::mem::take(args);
    let mut it = drained.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jump-fn" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--jump-fn needs a value".into()))?;
                let kind = match v.as_str() {
                    "literal" => JumpFnKind::Literal,
                    "intra" | "intraprocedural" => JumpFnKind::IntraproceduralConstant,
                    "pass" | "pass-through" => JumpFnKind::PassThrough,
                    "poly" | "polynomial" => JumpFnKind::Polynomial,
                    other => return Err(UsageError(format!("unknown jump function `{other}`"))),
                };
                builder = builder.jump_fn_impl(kind);
            }
            "--no-mod" => builder = builder.mod_info(false),
            "--no-return-jfs" => builder = builder.return_jfs(false),
            "--compose-return-jfs" => builder = builder.compose_return_jfs(true),
            "--zero-globals" => builder = builder.zero_globals(true),
            "--gated" => builder = builder.gated(true),
            "--pruned-ssa" => builder = builder.pruned_ssa(true),
            "--strict" => builder = builder.strict(true),
            "--no-quarantine" => builder = builder.quarantine(false),
            "--jobs" | "-j" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--jobs needs a value".into()))?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad job count `{v}`")))?;
                builder = builder.jobs(jobs);
            }
            "--deadline-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--deadline-ms needs a value".into()))?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad deadline `{v}`")))?;
                builder = builder.deadline(Deadline::after_ms(ms));
            }
            "--inject-panic" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--inject-panic needs <stage>:<proc>".into()))?;
                let (stage_s, proc_s) = v.split_once(':').ok_or_else(|| {
                    UsageError(format!("--inject-panic wants <stage>:<proc>, got `{v}`"))
                })?;
                let stage = Stage::ALL
                    .into_iter()
                    .find(|s| s.label() == stage_s)
                    .ok_or_else(|| UsageError(format!("unknown stage `{stage_s}`")))?;
                let proc = proc_s
                    .parse()
                    .map_err(|_| UsageError(format!("bad procedure index `{proc_s}`")))?;
                builder = builder.inject_panic(stage, proc);
            }
            "--max-poly-terms" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--max-poly-terms needs a value".into()))?;
                let n = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad term cap `{v}`")))?;
                builder = builder.max_poly_terms(n);
            }
            "--max-solver-iterations" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--max-solver-iterations needs a value".into()))?;
                let n = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad iteration cap `{v}`")))?;
                builder = builder.max_solver_iterations(n);
            }
            _ => rest.push(a),
        }
    }
    *args = rest;
    // The builder rejects incompatible combinations (e.g. --jobs 4 with
    // --no-quarantine) with a message naming the conflict and the fix.
    builder.build().map_err(|e| UsageError(e.to_string()))
}

/// Renders `config`'s non-default analysis flags, each preceded by one
/// space, so a fuzz counterexample's replay line reproduces the exact
/// configuration. Deadlines (absolute instants) and budget fault
/// injection (no CLI spelling) are omitted; `ipcc fuzz` re-supplies the
/// time budget itself.
pub fn render_config_flags(config: &Config) -> String {
    let d = Config::default();
    let mut s = String::new();
    if config.jump_fn != d.jump_fn {
        let name = match config.jump_fn {
            JumpFnKind::Literal => "literal",
            JumpFnKind::IntraproceduralConstant => "intra",
            JumpFnKind::PassThrough => "pass",
            JumpFnKind::Polynomial => "poly",
        };
        s.push_str(&format!(" --jump-fn {name}"));
    }
    if !config.use_mod {
        s.push_str(" --no-mod");
    }
    if !config.use_return_jfs {
        s.push_str(" --no-return-jfs");
    }
    if config.compose_return_jfs {
        s.push_str(" --compose-return-jfs");
    }
    if config.assume_zero_globals {
        s.push_str(" --zero-globals");
    }
    if config.gated_jump_fns {
        s.push_str(" --gated");
    }
    if config.pruned_ssa {
        s.push_str(" --pruned-ssa");
    }
    if config.jobs != d.jobs {
        s.push_str(&format!(" --jobs {}", config.jobs));
    }
    if config.strict {
        s.push_str(" --strict");
    }
    if !config.quarantine {
        s.push_str(" --no-quarantine");
    }
    if config.limits.max_poly_terms != d.limits.max_poly_terms {
        s.push_str(&format!(
            " --max-poly-terms {}",
            config.limits.max_poly_terms
        ));
    }
    if config.limits.max_solver_iterations != d.limits.max_solver_iterations {
        s.push_str(&format!(
            " --max-solver-iterations {}",
            config.limits.max_solver_iterations
        ));
    }
    if let Some(inj) = config.panic_injection {
        s.push_str(&format!(
            " --inject-panic {}:{}",
            inj.stage.label(),
            inj.proc
        ));
    }
    s
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, UsageError> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(UsageError(format!("{flag} needs a value")));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_file(args: &mut Vec<String>, cmd: &str) -> Result<String, UsageError> {
    let positional: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.starts_with("--"))
        .map(|(i, _)| i)
        .collect();
    match positional.as_slice() {
        [i] => Ok(args.remove(*i)),
        [] => Err(UsageError(format!("`ipcc {cmd}` needs an input file"))),
        _ => Err(UsageError(format!("`ipcc {cmd}` takes exactly one file"))),
    }
}

fn expect_empty(args: &[String]) -> Result<(), UsageError> {
    match args.first() {
        None => Ok(()),
        Some(a) => Err(UsageError(format!("unrecognized argument `{a}`"))),
    }
}

/// Parses `argv[1..]`.
///
/// # Errors
///
/// [`UsageError`] with a message suitable for printing to stderr.
pub fn parse(mut args: Vec<String>) -> Result<Command, UsageError> {
    let Some(cmd) = (if args.is_empty() {
        None
    } else {
        Some(args.remove(0))
    }) else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "analyze" => {
            let config = parse_config(&mut args)?;
            let emit = match take_flag_value(&mut args, "--emit")?.as_deref() {
                None | Some("constants") => Emit::Constants,
                Some("substituted") => Emit::Substituted,
                Some("counts") => Emit::Counts,
                Some("jumpfns") | Some("jump-fns") => Emit::JumpFns,
                Some("report") => Emit::Report,
                Some("source") => Emit::Source,
                Some(other) => return Err(UsageError(format!("unknown emit mode `{other}`"))),
            };
            let file = take_file(&mut args, "analyze")?;
            expect_empty(&args)?;
            Ok(Command::Analyze { file, config, emit })
        }
        "run" => {
            let inputs = match take_flag_value(&mut args, "--input")? {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|_| UsageError(format!("bad input value `{s}`")))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let file = take_file(&mut args, "run")?;
            expect_empty(&args)?;
            Ok(Command::Run { file, inputs })
        }
        "fmt" => {
            let file = take_file(&mut args, "fmt")?;
            expect_empty(&args)?;
            Ok(Command::Fmt { file })
        }
        "cfg" => {
            let proc = take_flag_value(&mut args, "--proc")?;
            let file = take_file(&mut args, "cfg")?;
            expect_empty(&args)?;
            Ok(Command::Cfg { file, proc })
        }
        "callgraph" => {
            let file = take_file(&mut args, "callgraph")?;
            expect_empty(&args)?;
            Ok(Command::CallGraph { file })
        }
        "complete" => {
            let config = parse_config(&mut args)?;
            let file = take_file(&mut args, "complete")?;
            expect_empty(&args)?;
            Ok(Command::Complete { file, config })
        }
        "clone" => {
            let config = parse_config(&mut args)?;
            let budget = match take_flag_value(&mut args, "--budget")? {
                None => 16,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad budget `{v}`")))?,
            };
            let file = take_file(&mut args, "clone")?;
            expect_empty(&args)?;
            Ok(Command::Clone {
                file,
                config,
                budget,
            })
        }
        "explain" => {
            let config = parse_config(&mut args)?;
            let proc = take_flag_value(&mut args, "--proc")?
                .ok_or_else(|| UsageError("explain needs --proc <name>".into()))?;
            let slot = take_flag_value(&mut args, "--slot")?;
            let depth = match take_flag_value(&mut args, "--depth")? {
                None => 3,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad depth `{v}`")))?,
            };
            let file = take_file(&mut args, "explain")?;
            expect_empty(&args)?;
            Ok(Command::Explain {
                file,
                config,
                proc,
                slot,
                depth,
            })
        }
        "integrate" => {
            let budget = match take_flag_value(&mut args, "--budget")? {
                None => 10_000,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad budget `{v}`")))?,
            };
            let file = take_file(&mut args, "integrate")?;
            expect_empty(&args)?;
            Ok(Command::Integrate { file, budget })
        }
        "reduce" => {
            let config = parse_config(&mut args)?;
            let inputs: Vec<i64> = match take_flag_value(&mut args, "--input")? {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|_| UsageError(format!("bad input value `{s}`")))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let check = match take_flag_value(&mut args, "--check")?.as_deref() {
                None | Some("panic") => ReduceCheck::Panic,
                Some("quarantine") => ReduceCheck::Quarantine,
                Some("degraded") => ReduceCheck::Degraded,
                Some("unsound") => ReduceCheck::Unsound { inputs },
                Some(other) => return Err(UsageError(format!("unknown check `{other}`"))),
            };
            let max_tests = match take_flag_value(&mut args, "--max-tests")? {
                None => 2_000,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad test budget `{v}`")))?,
            };
            let file = take_file(&mut args, "reduce")?;
            expect_empty(&args)?;
            Ok(Command::Reduce {
                file,
                config,
                check,
                max_tests,
            })
        }
        "fuzz" => {
            let config = parse_config(&mut args)?;
            let registry = ipcp_suite::prop::property_names();
            let props: Vec<String> = match take_flag_value(&mut args, "--props")? {
                None => registry.iter().map(|s| (*s).to_string()).collect(),
                Some(list) => {
                    let named: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if named.is_empty() {
                        return Err(UsageError(
                            "--props needs at least one property name".into(),
                        ));
                    }
                    for name in &named {
                        if !registry.contains(&name.as_str()) {
                            return Err(UsageError(format!(
                                "unknown property `{name}` (have: {})",
                                registry.join(", ")
                            )));
                        }
                    }
                    named
                }
            };
            let seed = match take_flag_value(&mut args, "--seed")? {
                None => 1,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad seed `{v}`")))?,
            };
            let cases = match take_flag_value(&mut args, "--cases")? {
                None => 256,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad case count `{v}`")))?,
            };
            let time_budget_ms = match take_flag_value(&mut args, "--time-budget-ms")? {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad time budget `{v}`")))?,
                ),
            };
            let shrink_tests = match take_flag_value(&mut args, "--shrink-tests")? {
                None => 800,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("bad shrink budget `{v}`")))?,
            };
            let corpus = take_flag_value(&mut args, "--corpus")?;
            let inputs: Vec<i64> = match take_flag_value(&mut args, "--input")? {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|_| UsageError(format!("bad input value `{s}`")))
                    })
                    .collect::<Result<_, _>>()?,
            };
            // `--gen` is repeatable; each value is validated at parse
            // time so a typo'd spec fails before any fuzzing runs.
            let mut gens = Vec::new();
            while let Some(gen) = take_flag_value(&mut args, "--gen")? {
                match gen.strip_prefix("scale:") {
                    Some(spec) => {
                        ipcp_suite::ScaleSpec::parse(spec)
                            .map_err(|e| UsageError(format!("bad --gen spec: {e}")))?;
                    }
                    None => {
                        return Err(UsageError(format!(
                            "unknown generator `{gen}` (have: scale:<spec>)"
                        )));
                    }
                }
                gens.push(gen);
            }
            expect_empty(&args)?;
            Ok(Command::Fuzz {
                config,
                props,
                seed,
                cases,
                time_budget_ms,
                corpus,
                inputs,
                shrink_tests,
                gens,
            })
        }
        "serve" => {
            if let Some(socket) = take_flag_value(&mut args, "--connect")? {
                let retries = match take_flag_value(&mut args, "--retries")? {
                    None => 0,
                    Some(v) => v
                        .parse()
                        .map_err(|_| UsageError(format!("bad retry count `{v}`")))?,
                };
                let retry_ms = match take_flag_value(&mut args, "--retry-ms")? {
                    None => 50,
                    Some(v) => {
                        let ms: u64 = v
                            .parse()
                            .map_err(|_| UsageError(format!("bad retry delay `{v}`")))?;
                        if ms == 0 {
                            return Err(UsageError("--retry-ms must be at least 1".into()));
                        }
                        ms
                    }
                };
                expect_empty(&args)?;
                return Ok(Command::ServeConnect {
                    socket,
                    retries,
                    retry_ms,
                });
            }
            // Serve-specific flags come out before parse_config so the
            // daemon owns --request-deadline-ms (a per-request relative
            // deadline) instead of the absolute --deadline-ms, whose one
            // instant would expire for every request after it.
            if args.iter().any(|a| a == "--deadline-ms") {
                let msg = "serve takes no --deadline-ms; use --request-deadline-ms <N>";
                return Err(UsageError(msg.into()));
            }
            let mut opts = ServeOpts {
                socket: take_flag_value(&mut args, "--socket")?,
                ..ServeOpts::default()
            };
            if let Some(v) = take_flag_value(&mut args, "--max-inflight")? {
                let n: usize = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad admission bound `{v}`")))?;
                if n == 0 {
                    return Err(UsageError("--max-inflight must be at least 1".into()));
                }
                opts.max_inflight = n;
            }
            if let Some(v) = take_flag_value(&mut args, "--serve-workers")? {
                let n: usize = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad worker count `{v}`")))?;
                if n == 0 {
                    return Err(UsageError("--serve-workers must be at least 1".into()));
                }
                if n > 64 {
                    return Err(UsageError("--serve-workers is capped at 64".into()));
                }
                opts.serve_workers = n;
            }
            if let Some(v) = take_flag_value(&mut args, "--queue-ms")? {
                opts.queue_ms = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad queue deadline `{v}`")))?;
            }
            if let Some(v) = take_flag_value(&mut args, "--drain-ms")? {
                opts.drain_ms = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad drain deadline `{v}`")))?;
            }
            if let Some(v) = take_flag_value(&mut args, "--request-deadline-ms")? {
                opts.request_deadline_ms = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad request deadline `{v}`")))?,
                );
            }
            opts.store = take_flag_value(&mut args, "--store")?;
            if let Some(v) = take_flag_value(&mut args, "--snapshot-every-n")? {
                let n: u64 = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad snapshot interval `{v}`")))?;
                if n == 0 {
                    return Err(UsageError("--snapshot-every-n must be at least 1".into()));
                }
                opts.snapshot_every_n = Some(n);
            }
            if let Some(v) = take_flag_value(&mut args, "--inject-io")? {
                if ipcp::serve::IoInjector::parse(&v).is_none() {
                    return Err(UsageError(format!(
                        "--inject-io wants <fault>:<point> with fault one of \
                         short-write, enospc, eio, rename-fail and point >= 1, \
                         got `{v}`"
                    )));
                }
                opts.inject_io = Some(v);
            }
            if opts.snapshot_every_n.is_some() && opts.store.is_none() {
                return Err(UsageError("--snapshot-every-n needs --store <path>".into()));
            }
            if opts.inject_io.is_some() && opts.store.is_none() {
                return Err(UsageError("--inject-io needs --store <path>".into()));
            }
            let config = parse_config(&mut args)?;
            let file = take_file(&mut args, "serve")?;
            expect_empty(&args)?;
            Ok(Command::Serve { file, config, opts })
        }
        "tables" => {
            expect_empty(&args)?;
            Ok(Command::Tables)
        }
        other => Err(UsageError(format!(
            "unknown command `{other}` (try `ipcc help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, UsageError> {
        parse(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_serve_with_options() {
        let cmd = p(&[
            "serve",
            "--socket",
            "/tmp/i.sock",
            "--max-inflight",
            "4",
            "--queue-ms",
            "500",
            "--request-deadline-ms",
            "250",
            "--jump-fn",
            "poly",
            "x.ft",
        ])
        .unwrap();
        match cmd {
            Command::Serve { file, config, opts } => {
                assert_eq!(file, "x.ft");
                assert_eq!(config.jump_fn, JumpFnKind::Polynomial);
                assert_eq!(opts.socket.as_deref(), Some("/tmp/i.sock"));
                assert_eq!(opts.max_inflight, 4);
                assert_eq!(opts.queue_ms, 500);
                assert_eq!(opts.drain_ms, 2_000);
                assert_eq!(opts.request_deadline_ms, Some(250));
                assert_eq!(opts.store, None);
                assert_eq!(opts.snapshot_every_n, None);
                assert_eq!(opts.inject_io, None);
                assert_eq!(opts.serve_workers, 1);
            }
            other => panic!("{other:?}"),
        }
        match p(&["serve", "--serve-workers", "4", "x.ft"]).unwrap() {
            Command::Serve { opts, .. } => assert_eq!(opts.serve_workers, 4),
            other => panic!("{other:?}"),
        }
        // The daemon's --request-deadline-ms must not reach parse_config:
        // a relative per-request deadline is not an absolute analysis one,
        // and the absolute one is refused.
        assert!(p(&["serve", "--deadline-ms", "5", "x.ft"]).is_err());
        match p(&["serve", "x.ft"]).unwrap() {
            Command::Serve { config, opts, .. } => {
                assert!(config.deadline.is_none());
                assert_eq!(opts, ServeOpts::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve_persistence_flags() {
        match p(&[
            "serve",
            "--store",
            "/tmp/i.store",
            "--snapshot-every-n",
            "3",
            "--inject-io",
            "enospc:2",
            "x.ft",
        ])
        .unwrap()
        {
            Command::Serve { opts, .. } => {
                assert_eq!(opts.store.as_deref(), Some("/tmp/i.store"));
                assert_eq!(opts.snapshot_every_n, Some(3));
                assert_eq!(opts.inject_io.as_deref(), Some("enospc:2"));
            }
            other => panic!("{other:?}"),
        }
        // Validation: injector spellings and interval bounds are checked
        // at parse time, and both riders need the store itself.
        assert!(p(&["serve", "--store", "s", "--snapshot-every-n", "0", "x.ft"]).is_err());
        assert!(p(&[
            "serve",
            "--store",
            "s",
            "--inject-io",
            "gamma-ray:1",
            "x.ft"
        ])
        .is_err());
        assert!(p(&["serve", "--store", "s", "--inject-io", "eio:0", "x.ft"]).is_err());
        assert!(p(&["serve", "--snapshot-every-n", "2", "x.ft"]).is_err());
        assert!(p(&["serve", "--inject-io", "eio:1", "x.ft"]).is_err());
    }

    #[test]
    fn serve_connect_and_bad_bounds() {
        match p(&["serve", "--connect", "/tmp/i.sock"]).unwrap() {
            Command::ServeConnect {
                socket,
                retries,
                retry_ms,
            } => {
                assert_eq!(socket, "/tmp/i.sock");
                assert_eq!(retries, 0);
                assert_eq!(retry_ms, 50);
            }
            other => panic!("{other:?}"),
        }
        match p(&[
            "serve",
            "--connect",
            "/tmp/i.sock",
            "--retries",
            "5",
            "--retry-ms",
            "20",
        ])
        .unwrap()
        {
            Command::ServeConnect {
                retries, retry_ms, ..
            } => {
                assert_eq!(retries, 5);
                assert_eq!(retry_ms, 20);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "--connect", "s", "--retries", "often"]).is_err());
        assert!(p(&["serve", "--connect", "s", "--retry-ms", "0"]).is_err());
        assert!(p(&["serve", "--max-inflight", "0", "x.ft"]).is_err());
        assert!(p(&["serve", "--queue-ms", "soon", "x.ft"]).is_err());
        assert!(p(&["serve", "--serve-workers", "0", "x.ft"]).is_err());
        assert!(p(&["serve", "--serve-workers", "65", "x.ft"]).is_err());
        assert!(p(&["serve", "--serve-workers", "many", "x.ft"]).is_err());
        assert!(p(&["serve"]).is_err());
    }

    #[test]
    fn parses_analyze_with_options() {
        let cmd = p(&[
            "analyze",
            "--jump-fn",
            "poly",
            "--no-mod",
            "--emit",
            "counts",
            "x.ft",
        ])
        .unwrap();
        match cmd {
            Command::Analyze { file, config, emit } => {
                assert_eq!(file, "x.ft");
                assert_eq!(config.jump_fn, JumpFnKind::Polynomial);
                assert!(!config.use_mod);
                assert_eq!(emit, Emit::Counts);
                assert!(!config.strict);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_budget_flags() {
        let cmd = p(&[
            "analyze",
            "--strict",
            "--max-poly-terms",
            "2",
            "--max-solver-iterations",
            "99",
            "x.ft",
        ])
        .unwrap();
        match cmd {
            Command::Analyze { config, .. } => {
                assert!(config.strict);
                assert_eq!(config.limits.max_poly_terms, 2);
                assert_eq!(config.limits.max_solver_iterations, 99);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["analyze", "--max-poly-terms", "x.ft"]).is_err());
        assert!(p(&["analyze", "--max-solver-iterations", "lots", "x.ft"]).is_err());
    }

    #[test]
    fn defaults_are_the_paper_defaults() {
        match p(&["analyze", "x.ft"]).unwrap() {
            Command::Analyze { config, emit, .. } => {
                assert_eq!(config, Config::default());
                assert_eq!(emit, Emit::Constants);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_run_inputs() {
        match p(&["run", "--input", "1,2,-3", "x.ft"]).unwrap() {
            Command::Run { inputs, .. } => assert_eq!(inputs, vec![1, 2, -3]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(p(&["analyze"]).is_err());
        assert!(p(&["run"]).is_err());
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert!(p(&["analyze", "--wat", "x.ft"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["analyze", "--jump-fn", "quantum", "x.ft"]).is_err());
    }

    #[test]
    fn help_variants() {
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
        assert_eq!(p(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_robustness_flags() {
        match p(&["analyze", "--no-quarantine", "--deadline-ms", "250", "x.ft"]).unwrap() {
            Command::Analyze { config, .. } => {
                assert!(!config.quarantine);
                assert!(config.deadline.is_some());
            }
            other => panic!("{other:?}"),
        }
        match p(&["analyze", "--inject-panic", "jump:2", "x.ft"]).unwrap() {
            Command::Analyze { config, .. } => {
                let inj = config.panic_injection.unwrap();
                assert_eq!(inj.stage, Stage::Jump);
                assert_eq!(inj.proc, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["analyze", "--deadline-ms", "soon", "x.ft"]).is_err());
        assert!(p(&["analyze", "--inject-panic", "jump", "x.ft"]).is_err());
        assert!(p(&["analyze", "--inject-panic", "warp:0", "x.ft"]).is_err());
    }

    #[test]
    fn parses_jobs_flag() {
        for spelling in [
            &["analyze", "--jobs", "4", "x.ft"],
            &["analyze", "-j", "4", "x.ft"],
        ] {
            match p(spelling).unwrap() {
                Command::Analyze { config, .. } => {
                    assert_eq!(config.jobs, 4);
                    assert_eq!(config.effective_jobs(), 4);
                }
                other => panic!("{other:?}"),
            }
        }
        // 0 means auto-detect and stays valid.
        match p(&["analyze", "--jobs", "0", "x.ft"]).unwrap() {
            Command::Analyze { config, .. } => assert_eq!(config.jobs, 0),
            other => panic!("{other:?}"),
        }
        assert!(p(&["analyze", "--jobs", "many", "x.ft"]).is_err());
        assert!(p(&["analyze", "--jobs"]).is_err());
    }

    #[test]
    fn builder_validation_reaches_the_cli() {
        // Parallel workers without quarantine cannot honor the
        // panic-propagation contract; the builder refuses the combination.
        let err = p(&["analyze", "--jobs", "4", "--no-quarantine", "x.ft"]).unwrap_err();
        assert!(err.0.contains("quarantine"), "{err}");
        let err = p(&["analyze", "--compose-return-jfs", "--no-return-jfs", "x.ft"]).unwrap_err();
        assert!(err.0.contains("return"), "{err}");
        // Each conflict alone is fine.
        assert!(p(&["analyze", "--jobs", "1", "--no-quarantine", "x.ft"]).is_ok());
        assert!(p(&["analyze", "--compose-return-jfs", "x.ft"]).is_ok());
    }

    #[test]
    fn parses_reduce() {
        match p(&["reduce", "--check", "unsound", "--input", "4,5", "x.ft"]).unwrap() {
            Command::Reduce {
                file,
                check,
                max_tests,
                ..
            } => {
                assert_eq!(file, "x.ft");
                assert_eq!(check, ReduceCheck::Unsound { inputs: vec![4, 5] });
                assert_eq!(max_tests, 2_000);
            }
            other => panic!("{other:?}"),
        }
        match p(&[
            "reduce",
            "--check",
            "quarantine",
            "--max-tests",
            "9",
            "x.ft",
        ])
        .unwrap()
        {
            Command::Reduce {
                check, max_tests, ..
            } => {
                assert_eq!(check, ReduceCheck::Quarantine);
                assert_eq!(max_tests, 9);
            }
            other => panic!("{other:?}"),
        }
        match p(&["reduce", "x.ft"]).unwrap() {
            Command::Reduce { check, .. } => assert_eq!(check, ReduceCheck::Panic),
            other => panic!("{other:?}"),
        }
        assert!(p(&["reduce", "--check", "vibes", "x.ft"]).is_err());
    }

    #[test]
    fn parses_fuzz() {
        match p(&["fuzz"]).unwrap() {
            Command::Fuzz {
                props,
                seed,
                cases,
                time_budget_ms,
                corpus,
                shrink_tests,
                ..
            } => {
                assert_eq!(props, ipcp_suite::prop::property_names());
                assert_eq!(seed, 1);
                assert_eq!(cases, 256);
                assert_eq!(time_budget_ms, None);
                assert_eq!(corpus, None);
                assert_eq!(shrink_tests, 800);
            }
            other => panic!("{other:?}"),
        }
        match p(&[
            "fuzz",
            "--props",
            "soundness,panic-free",
            "--seed",
            "77",
            "--cases",
            "9",
            "--time-budget-ms",
            "1500",
            "--corpus",
            "c",
            "--input",
            "1,2",
            "--jump-fn",
            "poly",
        ])
        .unwrap()
        {
            Command::Fuzz {
                config,
                props,
                seed,
                cases,
                time_budget_ms,
                corpus,
                inputs,
                ..
            } => {
                assert_eq!(props, vec!["soundness", "panic-free"]);
                assert_eq!(seed, 77);
                assert_eq!(cases, 9);
                assert_eq!(time_budget_ms, Some(1500));
                assert_eq!(corpus.as_deref(), Some("c"));
                assert_eq!(inputs, vec![1, 2]);
                assert_eq!(config.jump_fn, JumpFnKind::Polynomial);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuzz_rejects_unknown_properties() {
        let err = p(&["fuzz", "--props", "soundness,vibes"]).unwrap_err();
        assert!(err.0.contains("unknown property `vibes`"), "{err}");
        assert!(err.0.contains("soundness"), "lists the registry: {err}");
        assert!(p(&["fuzz", "--props", ","]).is_err());
        assert!(p(&["fuzz", "--seed", "many"]).is_err());
        assert!(p(&["fuzz", "extra.ft"]).is_err());
    }

    #[test]
    fn fuzz_gen_is_repeatable_and_validated_at_parse_time() {
        match p(&[
            "fuzz",
            "--gen",
            "scale:procs=200,shape=power-law,seed=9",
            "--gen",
            "scale:procs=50",
        ])
        .unwrap()
        {
            Command::Fuzz { gens, .. } => {
                assert_eq!(
                    gens,
                    vec!["scale:procs=200,shape=power-law,seed=9", "scale:procs=50"]
                );
            }
            other => panic!("{other:?}"),
        }
        match p(&["fuzz"]).unwrap() {
            Command::Fuzz { gens, .. } => assert!(gens.is_empty()),
            other => panic!("{other:?}"),
        }
        let err = p(&["fuzz", "--gen", "chaos:procs=1"]).unwrap_err();
        assert!(err.0.contains("unknown generator"), "{err}");
        let err = p(&["fuzz", "--gen", "scale:procs=zero"]).unwrap_err();
        assert!(err.0.contains("bad --gen spec"), "{err}");
        assert!(p(&["fuzz", "--gen", "scale:procs=999999999"]).is_err());
    }

    #[test]
    fn config_flags_render_for_replay_lines() {
        assert_eq!(render_config_flags(&Config::default()), "");
        let cfg = p(&[
            "analyze",
            "--jump-fn",
            "poly",
            "--no-mod",
            "--strict",
            "--max-poly-terms",
            "2",
            "--inject-panic",
            "jump:1",
            "x.ft",
        ])
        .map(|cmd| match cmd {
            Command::Analyze { config, .. } => config,
            other => panic!("{other:?}"),
        })
        .unwrap();
        assert_eq!(
            render_config_flags(&cfg),
            " --jump-fn poly --no-mod --strict --max-poly-terms 2 --inject-panic jump:1"
        );
        // Round-trip: re-parsing the rendered flags rebuilds the config.
        let mut argv = vec!["analyze".to_string()];
        argv.extend(
            render_config_flags(&cfg)
                .split_whitespace()
                .map(str::to_string),
        );
        argv.push("x.ft".to_string());
        match parse(argv).unwrap() {
            Command::Analyze { config, .. } => assert_eq!(config, cfg),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clone_budget() {
        match p(&["clone", "--budget", "3", "x.ft"]).unwrap() {
            Command::Clone { budget, .. } => assert_eq!(budget, 3),
            other => panic!("{other:?}"),
        }
        match p(&["clone", "x.ft"]).unwrap() {
            Command::Clone { budget, .. } => assert_eq!(budget, 16),
            other => panic!("{other:?}"),
        }
    }
}
