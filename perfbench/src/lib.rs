//! The repository benchmark: end-to-end runs of the real `ipcc` binary
//! and traced in-process replays of the same workloads. `run.py` builds
//! and invokes it; `README.md` explains the workloads and metrics.

pub mod alloc;
pub mod e2e;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Analyze,
    AnalyzeJ2,
    ServeEdit,
    ServeRead,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Analyze,
        Workload::AnalyzeJ2,
        Workload::ServeEdit,
        Workload::ServeRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze-10k",
            Workload::AnalyzeJ2 => "analyze-10k-j2",
            Workload::ServeEdit => "serve-edit-10k",
            Workload::ServeRead => "serve-read-10k",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The pinned `--jobs` of the analysis.
    pub fn jobs(self) -> usize {
        match self {
            Workload::AnalyzeJ2 => 2,
            _ => 1,
        }
    }

    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeEdit | Workload::ServeRead)
    }
}

/// Everything a run needs besides its workload.
pub struct Ctx {
    /// The `ipcc` binary under test; required by the untraced run.
    pub ipcc: PathBuf,
    /// Where generated programs and the span file go.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    /// Overrides the 10k program size (tests).
    pub procs: Option<usize>,
    /// Runs exactly this many traced operations instead of filling
    /// `seconds` (tests).
    pub ops: Option<usize>,
}

const USAGE: &str =
    "usage: perfbench --workload <analyze-10k|analyze-10k-j2|serve-edit-10k|serve-read-10k> \
--seed <n> --seconds <n> --trace <0|1> --work <dir> [--ipcc <path>] [--procs <n>] [--ops <n>]";

struct Args {
    workload: Workload,
    trace: bool,
    ipcc: Option<PathBuf>,
    ctx: Ctx,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let mut take = |key: &str| flags.remove(key);
    let number = |key: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|v| {
            v.parse()
                .map_err(|_| format!("--{key}: `{v}` is not a whole number"))
        })
        .transpose()
    };
    let workload = take("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = number("seed", take("seed"))?.unwrap_or(102);
    let seconds = number("seconds", take("seconds"))?.ok_or("--seconds is required")?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let work = PathBuf::from(take("work").ok_or("--work is required")?);
    let ipcc = take("ipcc").map(PathBuf::from);
    let procs = number("procs", take("procs"))?.map(|n| n as usize);
    let ops = number("ops", take("ops"))?.map(|n| n as usize);
    if let Some(key) = flags.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(Args {
        workload,
        trace,
        ctx: Ctx {
            ipcc: ipcc.clone().unwrap_or_default(),
            work,
            seed,
            seconds: Duration::from_secs(seconds),
            procs,
            ops,
        },
        ipcc,
    })
}

/// Runs one workload and prints its table and, last, its result line.
/// Exits 1 when any check failed, 2 on bad arguments.
pub fn cli(argv: Vec<String>) -> ExitCode {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!("perfbench: {}: {e}", args.ctx.work.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let name = args.workload.name();
    let outcome = if args.trace {
        traced::run(&args.ctx, args.workload, args.ipcc.is_some(), &mut report).and_then(|t| {
            for (span, (n, total, own)) in t.summary() {
                println!("  span {span:<22} n={n:<6} total {total:>11.3} ms  self {own:>11.3} ms");
            }
            let path = args
                .ctx
                .work
                .join(format!("trace-{name}-{}.json", args.ctx.seed));
            std::fs::write(&path, t.chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("  spans written to {}", path.display());
            Ok(())
        })
    } else if args.ipcc.is_none() {
        Err("the untraced run needs --ipcc".to_owned())
    } else {
        match args.workload {
            Workload::Analyze | Workload::AnalyzeJ2 => {
                e2e::analyze(&args.ctx, args.workload.jobs(), &mut report)
            }
            Workload::ServeEdit => e2e::serve_edit(&args.ctx, &mut report),
            Workload::ServeRead => e2e::serve_read(&args.ctx, &mut report),
        }
    };
    if let Err(e) = outcome {
        report.abort(e);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    print!("{}", report.table(name));
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
