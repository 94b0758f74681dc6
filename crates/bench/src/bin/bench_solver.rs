//! Measures the wavefront `VAL` solver against the classic §4.1 FIFO
//! worklist it replaced, and verifies along the way that both reach the
//! same `VAL` fixpoint (`"identical": true`; the binary exits with an
//! error otherwise).
//!
//! Two timings per workload (jump functions are built once; only the
//! propagation is timed):
//!
//! * `seq_us` — the wavefront [`solve`];
//! * `worklist_us` — [`solve_worklist_reference`], the retained §4.1
//!   solver.
//!
//! `speedup` is `worklist_us / seq_us`, an *algorithmic* win: the
//! worklist re-evaluates a procedure every time a meet lowers one of its
//! slots, while the dependency-levelled wavefront evaluates each
//! activated SCC once with all caller meets already applied.
//!
//! Writes `BENCH_solver.json` into the current directory.

use ipcp::{solve, solve_worklist_reference, Analysis, Config, Governor, Lattice, ValSets};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::SlotLayout;
use ipcp_suite::{generate, GenConfig};
use std::time::{Duration, Instant};

/// The `wide` workload: `w` procedures per layer, `l` layers, each
/// procedure fanning out to `f` procedures of the next layer, plus `t`
/// call chains of staggered lengths that each re-lower one global after
/// layer 2 has already propagated its first value downward. This is the
/// FIFO worst case: every late-arriving wave re-evaluates the whole
/// subtree below layer 2, once per wave, while the dependency-levelled
/// wavefront schedules layer 2 *after* all the chains and evaluates each
/// procedure exactly once. (It is also genuinely wide: every layer is one
/// level of `w` independent units.)
fn gen_wide(w: usize, l: usize, f: usize, t: usize) -> String {
    let mut s = String::new();
    // One "wave" global per chain (re-assigned at the chain tail) plus
    // pass-through globals that stay constant but fatten every VAL vector.
    for k in 0..t {
        s.push_str(&format!("global gw{k}; "));
    }
    for k in 0..4 {
        s.push_str(&format!("global gp{k}; "));
    }
    s.push_str("proc main() { ");
    for k in 0..t {
        s.push_str(&format!("gw{k} = 1; "));
    }
    for k in 0..4 {
        s.push_str(&format!("gp{k} = {}; ", 10 + k));
    }
    // The layer calls come first: the chain tails re-assign the wave
    // globals, and the analysis's return jump functions are precise
    // enough that calling the chains first would correctly update main's
    // own globals instead of creating a cross-path conflict.
    for j in 0..w {
        s.push_str(&format!("call l1_{j}({j}); "));
    }
    for k in 0..t {
        s.push_str(&format!("call c{k}_0(); "));
    }
    s.push_str("} ");
    // Chain k has length l + 2 + k * (l + 1): each wave fully cascades
    // through the layers before the next one lands.
    for k in 0..t {
        let len = l + 2 + k * (l + 1);
        for st in 0..len {
            if st + 1 < len {
                s.push_str(&format!("proc c{k}_{st}() {{ call c{k}_{}(); }} ", st + 1));
            } else {
                s.push_str(&format!("proc c{k}_{st}() {{ gw{k} = 2; "));
                for j in 0..w {
                    s.push_str(&format!("call l2_{j}({j}); "));
                }
                s.push_str("} ");
            }
        }
    }
    for layer in 1..=l {
        for j in 0..w {
            s.push_str(&format!("proc l{layer}_{j}(x) {{ print x + gw0; "));
            if layer < l {
                for e in 0..f {
                    s.push_str(&format!("call l{}_{}(x); ", layer + 1, (j + e * 7) % w));
                }
            }
            s.push_str("} ");
        }
    }
    s
}

/// One workload: a name plus the source it expands to.
struct Workload {
    name: &'static str,
    source: fn() -> String,
    n_procs_hint: usize,
}

fn wide_source() -> String {
    gen_wide(96, 5, 8, 8)
}

fn deep_source() -> String {
    generate(
        &GenConfig {
            n_procs: 120,
            n_globals: 8,
            stmts_per_proc: 64,
            max_depth: 4,
        },
        23,
    )
}

fn mixed_source() -> String {
    generate(
        &GenConfig {
            n_procs: 240,
            n_globals: 10,
            stmts_per_proc: 40,
            max_depth: 3,
        },
        37,
    )
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wide",
        source: wide_source,
        n_procs_hint: 0,
    },
    Workload {
        name: "deep",
        source: deep_source,
        n_procs_hint: 120,
    },
    Workload {
        name: "mixed",
        source: mixed_source,
        n_procs_hint: 240,
    },
];

/// Repetitions per configuration: best-of-5 by default, overridable via
/// `IPCP_BENCH_REPS` (the CI identity gate runs with a low count — it
/// cares about `identical`, not stable timings).
fn reps() -> u32 {
    std::env::var("IPCP_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Best-of-[`reps`] wall time for the wavefront, returning the last
/// result so the caller can compare it with the worklist's.
fn time_wavefront(
    mcfg: &ModuleCfg,
    a: &Analysis,
    layout: &SlotLayout,
    config: &Config,
) -> (Duration, ValSets) {
    let n = mcfg.module.procs.len();
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps() {
        let mut gov = Governor::new(config);
        let mut quarantined = vec![false; n];
        let t0 = Instant::now();
        let (v, _) = solve(
            mcfg,
            &a.cg,
            layout,
            &a.jump_fns,
            Lattice::Bottom,
            config,
            &mut gov,
            &mut quarantined,
        );
        best = best.min(t0.elapsed());
        last = Some(v);
    }
    let v = last.unwrap_or_default();
    (best, v)
}

/// Best-of-[`reps`] wall time for the worklist reference.
fn time_worklist(mcfg: &ModuleCfg, a: &Analysis, layout: &SlotLayout) -> (Duration, ValSets) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps() {
        let mut gov = Governor::unlimited();
        let t0 = Instant::now();
        let v =
            solve_worklist_reference(mcfg, &a.cg, layout, &a.jump_fns, Lattice::Bottom, &mut gov);
        best = best.min(t0.elapsed());
        last = Some(v);
    }
    let v = last.unwrap_or_default();
    (best, v)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = Config::polynomial();
    let mut rows = Vec::new();
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "program", "procs", "seq_us", "worklist_us", "speedup", "wf_iter", "wl_iter"
    );
    for w in WORKLOADS {
        let src = (w.source)();
        let module = ipcp_ir::parse_and_resolve(&src)
            .map_err(|d| format!("generated program failed to parse: {d:?}"))?;
        let mcfg = ipcp_ir::lower_module(&module);
        let n_procs = if w.n_procs_hint > 0 {
            w.n_procs_hint
        } else {
            mcfg.module.procs.len()
        };
        // Jump functions are built once; only the propagation is timed.
        let analysis = Analysis::run(&mcfg, &config);
        let layout = SlotLayout::new(&mcfg.module);

        let (seq_t, seq_v) = time_wavefront(&mcfg, &analysis, &layout, &config);
        let (wl_t, wl_v) = time_worklist(&mcfg, &analysis, &layout);

        // The wavefront must reach the worklist's VAL fixpoint.
        if !seq_v.same_rows(&wl_v) {
            return Err(format!(
                "wavefront fixpoint diverged from the worklist reference on `{}`",
                w.name
            )
            .into());
        }

        let speedup = wl_t.as_secs_f64() / seq_t.as_secs_f64().max(1e-9);
        println!(
            "{:<8} {:>6} {:>10} {:>12} {:>7.2}x {:>8} {:>8}",
            w.name,
            n_procs,
            seq_t.as_micros(),
            wl_t.as_micros(),
            speedup,
            seq_v.iterations,
            wl_v.iterations,
        );
        rows.push(format!(
            concat!(
                "    {{\"program\": \"{}\", \"n_procs\": {}, \"seq_us\": {}, ",
                "\"worklist_us\": {}, \"speedup\": {:.3}, ",
                "\"wavefront_iterations\": {}, ",
                "\"worklist_iterations\": {}, \"identical\": true}}"
            ),
            w.name,
            n_procs,
            seq_t.as_micros(),
            wl_t.as_micros(),
            speedup,
            seq_v.iterations,
            wl_v.iterations,
        ));
    }

    let reps = reps();
    // The host's core count, recorded like every bench file's.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"reps\": {reps},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_solver.json", &json)?;
    println!("wrote BENCH_solver.json (cores={cores}, best of {reps})");
    Ok(())
}
