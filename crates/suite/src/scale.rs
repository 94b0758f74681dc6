//! The whole-program scale generator behind the 1k/10k/100k benchmark
//! tiers (`bench_scale`, `ci.sh scale-smoke`, and `ipcc fuzz --gen`).
//!
//! [`generate`](crate::generate) produces small, feature-dense programs
//! for property tests; this module produces *large* programs with
//! controlled call-graph shape — the axis the 1986 framework was built
//! for and the existing suite never stresses. A [`ScaleSpec`] names a
//! procedure count (up to 200k), a [`ScaleShape`] (deep SCC chains, wide
//! fan-out, power-law degree mix, or a blend), and a recursion fraction;
//! the generator turns it into a deterministic FT program whose
//! condensation depth, degree distribution, and cycle population track
//! the spec (asserted by `tests/scale.rs` via [`scale_stats`]).
//!
//! Two properties matter beyond shape:
//!
//! * **Chunked regeneration.** A [`ScaleSource`] derives procedure `i`'s
//!   text from `seed` and `i` alone (the only resident state is the
//!   [`ScalePlan`]'s edge lists), so it implements
//!   [`ipcp_ir::ProgramSource`] and a 100k-procedure module can be
//!   built, hashed, and resolved by `resolve_streaming` without the
//!   whole source text or AST in memory. [`generate_scale`] is the
//!   resident projection: the concatenation of all chunks.
//! * **Guaranteed termination.** Loops have small constant bounds, and
//!   every recursive cycle is guarded by a *fuel* formal (`f0` of each
//!   cycle member): the back edge is `if (f0 > 0) { call …(f0 - 1, …) }`
//!   and every call into a cycle from outside passes a small literal
//!   fuel. Formals are never assigned, so the fuel measure strictly
//!   decreases around every cycle.

use crate::rng::Rng;
use ipcp_analysis::build_call_graph;
use ipcp_ir::{ModuleCfg, ProgramSource};
use std::fmt;
use std::fmt::Write as _;

/// Call-graph shape of a generated program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleShape {
    /// Long dependence chains: procedure `q` is called by `q-1` or `q-2`,
    /// so the condensation has O(n) levels — the worst case for the
    /// level-scheduled return-jump stage.
    DeepChains,
    /// A shallow 16-ary call tree: few levels, hundreds of procedures
    /// per level — the level-scheduled stage's best case.
    WideFanout,
    /// Heavy-tailed out-degrees: most procedures call one or two others,
    /// a few hubs call dozens (the shape real call graphs approximate).
    PowerLaw,
    /// A per-procedure blend of the other three.
    Mixed,
}

impl ScaleShape {
    fn parse(s: &str) -> Option<ScaleShape> {
        Some(match s {
            "deep-chains" => ScaleShape::DeepChains,
            "wide-fanout" => ScaleShape::WideFanout,
            "power-law" => ScaleShape::PowerLaw,
            "mixed" => ScaleShape::Mixed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            ScaleShape::DeepChains => "deep-chains",
            ScaleShape::WideFanout => "wide-fanout",
            ScaleShape::PowerLaw => "power-law",
            ScaleShape::Mixed => "mixed",
        }
    }

    /// Cap on one procedure's planned callee count (keeps every chunk's
    /// text bounded regardless of program size).
    fn degree_cap(self) -> usize {
        match self {
            ScaleShape::DeepChains => 6,
            ScaleShape::WideFanout => 24,
            ScaleShape::PowerLaw => 64,
            ScaleShape::Mixed => 48,
        }
    }
}

/// Knobs for the scale generator. Parse one from `procs=…` syntax with
/// [`ScaleSpec::parse`]; [`fmt::Display`] renders the canonical form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Total procedures including `main` (1 ..= 200_000).
    pub procs: usize,
    /// Scalar globals (0 ..= 16). Every procedure imports every scalar
    /// global (the FORTRAN COMMON model), so this multiplies table sizes.
    pub globals: usize,
    /// Filler statements per procedure body (0 ..= 64), before the call
    /// statements the plan dictates.
    pub stmts: usize,
    /// Call-graph shape.
    pub shape: ScaleShape,
    /// Percentage of procedures placed in recursive cycles (0 ..= 50).
    pub recursion_pct: usize,
    /// RNG seed: same spec + seed, byte-identical program, forever.
    pub seed: u64,
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            procs: 1_000,
            globals: 4,
            stmts: 6,
            shape: ScaleShape::Mixed,
            recursion_pct: 8,
            seed: 1,
        }
    }
}

impl fmt::Display for ScaleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "procs={},globals={},stmts={},shape={},recursion={},seed={}",
            self.procs,
            self.globals,
            self.stmts,
            self.shape.name(),
            self.recursion_pct,
            self.seed
        )
    }
}

impl ScaleSpec {
    /// Parses a comma-separated `key=value` spec, e.g.
    /// `procs=10k,shape=power-law,recursion=10,seed=7`. Unset keys keep
    /// their [`Default`] values; `procs` accepts a `k` suffix.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key for unknown keys,
    /// malformed values, and out-of-range values.
    pub fn parse(s: &str) -> Result<ScaleSpec, String> {
        let mut spec = ScaleSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("scale spec: `{part}` is not key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            let int = |what: &str, v: &str| -> Result<usize, String> {
                let (num, mult) = match v.strip_suffix('k') {
                    Some(n) if what == "procs" => (n, 1_000),
                    _ => (v, 1),
                };
                num.parse::<usize>()
                    .map(|n| n * mult)
                    .map_err(|_| format!("scale spec: bad {what} value `{v}`"))
            };
            match key {
                "procs" => spec.procs = int("procs", value)?,
                "globals" => spec.globals = int("globals", value)?,
                "stmts" => spec.stmts = int("stmts", value)?,
                "recursion" => spec.recursion_pct = int("recursion", value)?,
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("scale spec: bad seed `{value}`"))?;
                }
                "shape" => {
                    spec.shape = ScaleShape::parse(value).ok_or_else(|| {
                        format!(
                            "scale spec: unknown shape `{value}` \
                             (have: deep-chains, wide-fanout, power-law, mixed)"
                        )
                    })?;
                }
                other => return Err(format!("scale spec: unknown key `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.procs == 0 || self.procs > 200_000 {
            return Err(format!(
                "scale spec: procs={} not in 1..=200000",
                self.procs
            ));
        }
        if self.globals > 16 {
            return Err(format!(
                "scale spec: globals={} not in 0..=16",
                self.globals
            ));
        }
        if self.stmts > 64 {
            return Err(format!("scale spec: stmts={} not in 0..=64", self.stmts));
        }
        if self.recursion_pct > 50 {
            return Err(format!(
                "scale spec: recursion={} not in 0..=50",
                self.recursion_pct
            ));
        }
        Ok(())
    }
}

/// The resident skeleton of a planned program: who calls whom, arities,
/// and cycle membership. Bodies are *not* stored — procedure `i`'s text
/// is a pure function of `(spec, plan edges, seed, i)`.
#[derive(Clone, Debug)]
pub struct ScalePlan {
    /// Formal-parameter count per procedure (0 for `main`).
    arity: Vec<u8>,
    /// Forward (DAG) callees per procedure, ascending, deduplicated.
    callees: Vec<Vec<u32>>,
    /// `Some(start)` for the last member of a cycle: the guarded
    /// back-edge target.
    back_edge: Vec<Option<u32>>,
    /// Whether the procedure is a cycle member (its `f0` is fuel).
    in_group: Vec<bool>,
}

impl ScalePlan {
    /// Procedures in recursive cycles (for stats-free shape checks).
    pub fn procs_in_cycles(&self) -> usize {
        self.in_group.iter().filter(|&&g| g).count()
    }

    /// Planned forward edges plus back edges.
    pub fn n_edges(&self) -> usize {
        self.callees.iter().map(Vec::len).sum::<usize>()
            + self.back_edge.iter().filter(|b| b.is_some()).count()
    }
}

/// SplitMix64 finalizer: decorrelates per-procedure seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build_plan(spec: &ScaleSpec) -> ScalePlan {
    let n = spec.procs;
    let mut rng = Rng::new(spec.seed ^ 0x5CA1_E000);
    let cap = spec.shape.degree_cap();

    let mut arity = vec![0u8; n];
    for a in arity.iter_mut().skip(1) {
        *a = 1 + rng.below(3) as u8; // 1..=3; slot 0 doubles as fuel
    }

    // Recursion groups: contiguous runs of 2..=4 procedures, spread
    // evenly so every region of the index space (and thus every shape's
    // layer structure) gets its share of cycles.
    let mut in_group = vec![false; n];
    let mut back_edge = vec![None; n];
    let want = (n.saturating_sub(1)) * spec.recursion_pct / 100;
    let n_groups = (want / 3)
        .max(usize::from(want >= 2))
        .min(n.saturating_sub(1) / 6);
    if let Some(stride) = (n - 1).checked_div(n_groups) {
        for g in 0..n_groups {
            let start = 1 + g * stride;
            let size = (2 + rng.below(3) as usize).min(n - start);
            if size < 2 {
                continue;
            }
            for member in in_group.iter_mut().skip(start).take(size) {
                *member = true;
            }
            back_edge[start + size - 1] = Some(start as u32);
        }
    }

    // Spanning edges: every procedure q ≥ 1 gets one caller with a
    // smaller index, so the whole program is reachable from main. The
    // shape picks the preferred parent; a linear probe repairs picks
    // whose callee list is already at the cap (a probe always succeeds:
    // only (q-1)/cap of the q candidates can be full).
    let mut callees: Vec<Vec<u32>> = vec![Vec::new(); n];
    for q in 1..n {
        let shape = match spec.shape {
            ScaleShape::Mixed => match rng.below(3) {
                0 => ScaleShape::DeepChains,
                1 => ScaleShape::WideFanout,
                _ => ScaleShape::PowerLaw,
            },
            s => s,
        };
        let preferred = match shape {
            ScaleShape::DeepChains => q.saturating_sub(1 + rng.below(2) as usize),
            ScaleShape::WideFanout => (q - 1) / 16,
            ScaleShape::PowerLaw | ScaleShape::Mixed => {
                // Cubic bias toward low indices: hubs accrete children.
                let u = rng.below(1 << 16) as f64 / 65536.0;
                (q as f64 * u * u * u) as usize
            }
        };
        let mut p = preferred.min(q - 1);
        while callees[p].len() >= cap {
            p = (p + 1) % q;
        }
        callees[p].push(q as u32);
    }

    // In-group forward edges close each cycle's path: member j calls
    // member j+1 (fuel passes through), the last member calls the first
    // under the guard.
    for q in 1..n.saturating_sub(1) {
        if in_group[q] && in_group[q + 1] && back_edge[q].is_none() {
            let t = (q + 1) as u32;
            if !callees[q].contains(&t) && callees[q].len() < cap {
                callees[q].push(t);
            }
        }
    }

    // Degree noise: extra forward edges to strictly later procedures.
    for (q, out) in callees.iter_mut().enumerate() {
        let extra = match spec.shape {
            ScaleShape::DeepChains => usize::from(rng.chance(1, 6)),
            ScaleShape::WideFanout => rng.below(2) as usize,
            ScaleShape::PowerLaw | ScaleShape::Mixed => {
                let burst = if rng.chance(1, 40) {
                    rng.below(12) as usize
                } else {
                    0
                };
                rng.below(2) as usize + burst
            }
        };
        for _ in 0..extra {
            if q + 1 >= n || out.len() >= cap {
                break;
            }
            let t = (q + 1 + rng.below((n - q - 1) as u64) as usize) as u32;
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out.sort_unstable();
    }

    ScalePlan {
        arity,
        callees,
        back_edge,
        in_group,
    }
}

/// A planned program as a chunked [`ProgramSource`]: chunk 0 is the
/// global declarations, chunk `i ≥ 1` is procedure `i - 1`. Chunks are
/// regenerated on demand from the seed — only the plan is resident.
#[derive(Clone, Debug)]
pub struct ScaleSource {
    spec: ScaleSpec,
    plan: ScalePlan,
}

impl ScaleSource {
    /// Plans a program. O(procs) time and memory (edge lists only).
    pub fn new(spec: ScaleSpec) -> ScaleSource {
        let plan = build_plan(&spec);
        ScaleSource { spec, plan }
    }

    /// The spec this source was planned from.
    pub fn spec(&self) -> &ScaleSpec {
        &self.spec
    }

    /// The planned call-graph skeleton.
    pub fn plan(&self) -> &ScalePlan {
        &self.plan
    }

    fn emit_globals(&self, out: &mut String) {
        for gi in 0..self.spec.globals {
            let _ = writeln!(out, "global g{gi};");
        }
    }

    fn emit_proc(&self, idx: usize, out: &mut String) {
        let mut rng = Rng::new(self.spec.seed ^ mix64(idx as u64 + 1));
        let arity = self.plan.arity[idx] as usize;
        let fuel = self.plan.in_group[idx];
        let name = if idx == 0 {
            "main".to_owned()
        } else {
            format!("p{idx}")
        };
        let params: Vec<String> = (0..arity).map(|k| format!("f{k}")).collect();
        let _ = writeln!(out, "proc {name}({}) {{", params.join(", "));

        let mut scope = Scope {
            arity,
            locals: 0,
            globals: self.spec.globals,
        };
        // main seeds the globals with literal constants — the values the
        // interprocedural propagation carries through the whole graph.
        if idx == 0 {
            for gi in 0..self.spec.globals {
                let v = rng.range(1, 99);
                let _ = writeln!(out, "    g{gi} = {v};");
            }
        }
        // A constant-valued prologue so every body contributes
        // propagation facts (and the expression pool is never empty).
        let c = rng.range(-9, 99);
        let _ = writeln!(out, "    v0 = {c};");
        scope.locals = 1;
        for _ in 0..self.spec.stmts {
            self.emit_filler(&mut rng, &mut scope, 1, out);
        }
        for k in 0..self.plan.callees[idx].len() {
            let t = self.plan.callees[idx][k] as usize;
            let line = self.call_line(&mut rng, &scope, idx, t);
            let _ = writeln!(out, "    {line}");
        }
        if let Some(start) = self.plan.back_edge[idx] {
            // The cycle's guarded back edge: fuel strictly decreases, so
            // the recursion terminates under execution.
            let line = self.back_edge_line(&mut rng, &scope, start as usize);
            let _ = writeln!(out, "    if (f0 > 0) {{");
            let _ = writeln!(out, "        {line}");
            let _ = writeln!(out, "    }}");
        }
        let e = self.expr(&mut rng, &scope, 2);
        let _ = writeln!(out, "    print {e};");
        let _ = writeln!(out, "}}");
        // `fuel` reserved the f0 slot; silence the unused-variable lint
        // by reading it here rather than special-casing the emitter.
        let _ = fuel;
    }

    /// One filler statement. Formals are **never** assigned (the fuel
    /// invariant) and globals are never passed by reference, so the
    /// FORTRAN aliasing rule holds by construction.
    fn emit_filler(&self, rng: &mut Rng, scope: &mut Scope, indent: usize, out: &mut String) {
        let pad = "    ".repeat(indent);
        match rng.below(10) {
            0..=4 => {
                let target = self.lvalue(rng, scope);
                let e = self.expr(rng, scope, 2);
                let _ = writeln!(out, "{pad}{target} = {e};");
            }
            5 | 6 => {
                let e = self.expr(rng, scope, 2);
                let _ = writeln!(out, "{pad}print {e};");
            }
            7 | 8 => {
                let c = self.cond(rng, scope);
                let target = self.lvalue(rng, scope);
                let e = self.expr(rng, scope, 1);
                let _ = writeln!(out, "{pad}if ({c}) {{");
                let _ = writeln!(out, "{pad}    {target} = {e};");
                if rng.chance(1, 3) {
                    let target = self.lvalue(rng, scope);
                    let e = self.expr(rng, scope, 1);
                    let _ = writeln!(out, "{pad}}} else {{");
                    let _ = writeln!(out, "{pad}    {target} = {e};");
                }
                let _ = writeln!(out, "{pad}}}");
            }
            _ => {
                let lo = rng.range(0, 1);
                let hi = rng.range(1, 3);
                let target = self.lvalue(rng, scope);
                let e = self.expr(rng, scope, 1);
                let _ = writeln!(out, "{pad}do t{indent} = {lo}, {hi} {{");
                let _ = writeln!(out, "{pad}    {target} = {e};");
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }

    /// A call statement for the planned forward edge `caller → callee`.
    fn call_line(&self, rng: &mut Rng, scope: &Scope, caller: usize, callee: usize) -> String {
        let callee_arity = self.plan.arity[callee] as usize;
        let mut byref_used: Vec<String> = Vec::new();
        let mut args = Vec::with_capacity(callee_arity);
        for k in 0..callee_arity {
            if k == 0 && self.plan.in_group[callee] {
                // Fuel slot. The in-group forward edge passes the
                // caller's own fuel through (a pass-through jump
                // function); every entry from outside passes a small
                // literal, bounding the cycle's iteration count.
                let same_group = self.plan.in_group[caller] && callee == caller + 1;
                args.push(if same_group {
                    "f0".to_owned()
                } else {
                    rng.range(1, 3).to_string()
                });
                if same_group {
                    byref_used.push("f0".to_owned());
                }
                continue;
            }
            args.push(match rng.below(10) {
                0..=3 => rng.range(-20, 20).to_string(),
                4..=6 => {
                    // By reference when a fresh scalar is available —
                    // never a global, never the same name twice.
                    match self.byref_candidate(rng, scope, &byref_used) {
                        Some(v) => {
                            byref_used.push(v.clone());
                            v
                        }
                        None => rng.range(-20, 20).to_string(),
                    }
                }
                _ => format!("0 + {}", self.expr(rng, scope, 1)),
            });
        }
        format!("call p{callee}({});", args.join(", "))
    }

    /// The guarded back-edge call closing a cycle: `f0 - 1` fuel, the
    /// rest literals (the guard context makes anything richer noise).
    fn back_edge_line(&self, rng: &mut Rng, _scope: &Scope, target: usize) -> String {
        let arity = self.plan.arity[target] as usize;
        let mut args = vec!["f0 - 1".to_owned()];
        for _ in 1..arity {
            args.push(rng.range(-20, 20).to_string());
        }
        format!("call p{target}({});", args.join(", "))
    }

    /// A local or formal scalar not yet passed by reference in this call.
    fn byref_candidate(&self, rng: &mut Rng, scope: &Scope, used: &[String]) -> Option<String> {
        let n = scope.locals + scope.arity;
        if n == 0 {
            return None;
        }
        let k = rng.below(n as u64) as usize;
        let name = if k < scope.locals {
            format!("v{k}")
        } else {
            format!("f{}", k - scope.locals)
        };
        (!used.contains(&name)).then_some(name)
    }

    /// An assignable scalar: a local (fresh or existing) or a global —
    /// never a formal (see [`ScaleSource::emit_filler`]).
    fn lvalue(&self, rng: &mut Rng, scope: &mut Scope) -> String {
        if rng.chance(3, 10) || (scope.locals == 0 && scope.globals == 0) {
            scope.locals += 1;
            return format!("v{}", scope.locals - 1);
        }
        let n = scope.locals + scope.globals;
        let k = rng.below(n as u64) as usize;
        if k < scope.locals {
            format!("v{k}")
        } else {
            format!("g{}", k - scope.locals)
        }
    }

    /// A readable scalar: a literal, local, formal, or global.
    fn operand(&self, rng: &mut Rng, scope: &Scope) -> String {
        let n = scope.locals + scope.arity + scope.globals;
        if n == 0 || rng.chance(2, 5) {
            return rng.range(-50, 50).to_string();
        }
        let k = rng.below(n as u64) as usize;
        if k < scope.locals {
            format!("v{k}")
        } else if k < scope.locals + scope.arity {
            format!("f{}", k - scope.locals)
        } else {
            format!("g{}", k - scope.locals - scope.arity)
        }
    }

    fn expr(&self, rng: &mut Rng, scope: &Scope, depth: usize) -> String {
        if depth == 0 || rng.chance(2, 5) {
            return self.operand(rng, scope);
        }
        let a = self.expr(rng, scope, depth - 1);
        let b = self.expr(rng, scope, depth - 1);
        match rng.below(10) {
            0..=3 => format!("({a} + {b})"),
            4..=6 => format!("({a} - {b})"),
            7 => format!("({a} * {b})"),
            8 => format!("({a} / {})", rng.range(2, 9)),
            _ => format!("({a} % {})", rng.range(2, 9)),
        }
    }

    fn cond(&self, rng: &mut Rng, scope: &Scope) -> String {
        let a = self.expr(rng, scope, 1);
        let b = self.expr(rng, scope, 1);
        let op = ["==", "!=", "<", "<=", ">", ">="][rng.below(6) as usize];
        format!("{a} {op} {b}")
    }
}

struct Scope {
    arity: usize,
    locals: usize,
    globals: usize,
}

impl ProgramSource for ScaleSource {
    fn n_chunks(&self) -> usize {
        self.spec.procs + 1
    }

    fn chunk(&self, i: usize, out: &mut String) {
        if i == 0 {
            self.emit_globals(out);
        } else {
            self.emit_proc(i - 1, out);
        }
    }
}

/// The resident projection of a planned program: all chunks of
/// [`ScaleSource::new`]`(spec)` concatenated in order. The streaming and
/// resident paths therefore see byte-identical text by construction.
pub fn generate_scale(spec: &ScaleSpec) -> String {
    let source = ScaleSource::new(*spec);
    let mut out = String::new();
    let mut buf = String::new();
    for i in 0..source.n_chunks() {
        buf.clear();
        source.chunk(i, &mut buf);
        out.push_str(&buf);
    }
    out
}

/// Measured call-graph shape of a lowered module — what the generator
/// tests assert against a [`ScaleSpec`]'s intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleStats {
    /// Procedures in the module.
    pub n_procs: usize,
    /// Call-graph edges (call sites).
    pub n_edges: usize,
    /// Strongly connected components.
    pub n_sccs: usize,
    /// SCCs with more than one member.
    pub n_multi_sccs: usize,
    /// Procedures inside some cycle (multi-member SCC or self-loop).
    pub procs_in_cycles: usize,
    /// Levels in the SCC condensation (longest chain of SCCs).
    pub depth: usize,
    /// Largest per-procedure callee count.
    pub max_out_degree: usize,
    /// Median per-procedure callee count.
    pub median_out_degree: usize,
    /// Procedures reachable from the entry.
    pub reachable: usize,
}

/// Computes [`ScaleStats`] from a lowered module via the analysis
/// crate's call graph (Tarjan condensation).
pub fn scale_stats(mcfg: &ModuleCfg) -> ScaleStats {
    let cg = build_call_graph(mcfg);
    let n = mcfg.module.procs.len();
    let mut out_degree: Vec<usize> = (0..n)
        .map(|p| cg.calls_from(ipcp_ir::ProcId::from(p)).len())
        .collect();
    let max_out_degree = out_degree.iter().copied().max().unwrap_or(0);
    out_degree.sort_unstable();
    let median_out_degree = out_degree.get(n / 2).copied().unwrap_or(0);

    let n_multi_sccs = cg.sccs.iter().filter(|s| s.len() > 1).count();
    let procs_in_cycles = (0..n)
        .filter(|&p| cg.is_recursive(ipcp_ir::ProcId::from(p)))
        .count();

    // Condensation depth: sccs are in bottom-up (callees-first) order,
    // so one forward pass computes the longest SCC chain.
    let mut depth_of = vec![1usize; cg.sccs.len()];
    let mut depth = if cg.sccs.is_empty() { 0 } else { 1 };
    for (si, scc) in cg.sccs.iter().enumerate() {
        for &p in scc {
            for e in cg.calls_from(p) {
                let cs = cg.scc_of[e.callee.index()];
                if cs != si {
                    depth_of[si] = depth_of[si].max(depth_of[cs] + 1);
                }
            }
        }
        depth = depth.max(depth_of[si]);
    }

    ScaleStats {
        n_procs: n,
        n_edges: cg.n_edges(),
        n_sccs: cg.sccs.len(),
        n_multi_sccs,
        procs_in_cycles,
        depth,
        max_out_degree,
        median_out_degree,
        reachable: cg.reachable.iter().filter(|&&r| r).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn stats_for(spec: &ScaleSpec) -> ScaleStats {
        let src = generate_scale(spec);
        let m = parse_and_resolve(&src)
            .unwrap_or_else(|e| panic!("scale program failed to resolve: {e}"));
        scale_stats(&lower_module(&m))
    }

    #[test]
    fn every_shape_resolves_at_small_scale() {
        for shape in [
            ScaleShape::DeepChains,
            ScaleShape::WideFanout,
            ScaleShape::PowerLaw,
            ScaleShape::Mixed,
        ] {
            for seed in 1..4 {
                let spec = ScaleSpec {
                    procs: 120,
                    shape,
                    seed,
                    ..ScaleSpec::default()
                };
                let stats = stats_for(&spec);
                assert_eq!(stats.n_procs, 120, "{shape:?} seed {seed}");
                assert_eq!(stats.reachable, 120, "{shape:?} seed {seed}");
            }
        }
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let spec = ScaleSpec::parse("procs=10k,shape=power-law,recursion=10,seed=7").unwrap();
        assert_eq!(spec.procs, 10_000);
        assert_eq!(spec.shape, ScaleShape::PowerLaw);
        assert_eq!(spec.recursion_pct, 10);
        assert_eq!(spec.seed, 7);
        assert_eq!(ScaleSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(ScaleSpec::parse("").unwrap(), ScaleSpec::default());

        assert!(ScaleSpec::parse("procs=0").is_err());
        assert!(ScaleSpec::parse("procs=300k").is_err());
        assert!(ScaleSpec::parse("shape=banyan").is_err());
        assert!(ScaleSpec::parse("recursion=90").is_err());
        assert!(ScaleSpec::parse("frobs=2").is_err());
        assert!(ScaleSpec::parse("procs").is_err());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = ScaleSpec {
            procs: 200,
            ..ScaleSpec::default()
        };
        assert_eq!(generate_scale(&spec), generate_scale(&spec));
        let other = ScaleSpec { seed: 2, ..spec };
        assert_ne!(generate_scale(&spec), generate_scale(&other));
    }

    #[test]
    fn chunks_concatenate_to_the_resident_text() {
        let spec = ScaleSpec {
            procs: 64,
            ..ScaleSpec::default()
        };
        let source = ScaleSource::new(spec);
        let mut concat = String::new();
        let mut buf = String::new();
        for i in 0..source.n_chunks() {
            buf.clear();
            source.chunk(i, &mut buf);
            concat.push_str(&buf);
        }
        assert_eq!(concat, generate_scale(&spec));
    }

    #[test]
    fn generated_programs_terminate() {
        use ipcp_ir::interp::{run_module, ExecLimits};
        let limits = ExecLimits {
            max_steps: 2_000_000,
            ..Default::default()
        };
        for seed in 1..6 {
            let spec = ScaleSpec {
                procs: 60,
                recursion_pct: 20,
                seed,
                ..ScaleSpec::default()
            };
            let src = generate_scale(&spec);
            let m = parse_and_resolve(&src).unwrap();
            match run_module(&m, &[], &limits) {
                Ok(_) => {}
                // Arithmetic faults are possible in random programs; what
                // must never happen is fuel exhaustion (nontermination).
                Err(e) => assert_ne!(
                    e,
                    ipcp_ir::interp::ExecError::OutOfFuel,
                    "seed {seed} looped"
                ),
            }
        }
    }

    #[test]
    fn recursion_fraction_materializes_as_cycles() {
        let spec = ScaleSpec {
            procs: 1_000,
            recursion_pct: 10,
            ..ScaleSpec::default()
        };
        let stats = stats_for(&spec);
        assert!(
            stats.procs_in_cycles >= 50 && stats.procs_in_cycles <= 200,
            "want ~10% of 1000 in cycles, got {}",
            stats.procs_in_cycles
        );
        assert!(stats.n_multi_sccs >= 15, "{}", stats.n_multi_sccs);

        let flat = ScaleSpec {
            recursion_pct: 0,
            ..spec
        };
        assert_eq!(stats_for(&flat).procs_in_cycles, 0);
    }
}
