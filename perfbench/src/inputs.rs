//! Workload inputs, all derived from `--seed`: the generated program,
//! the edit stream and the read stream. The program under test receives
//! only these generated texts and request lines.

use ipcp_ir::ProgramSource;
use ipcp_suite::{Rng, ScaleSource, ScaleSpec};
use std::collections::BTreeMap;

/// The 10k tier of `BENCH_scale.json`, minus its seed.
pub const TIER: &str = "procs=10k,shape=mixed,recursion=8";

/// The program of a workload: the 10k tier spec at `seed`, or a smaller
/// program of the same shape when `procs` overrides the size (tests).
pub fn source(seed: u64, procs: Option<usize>) -> Result<ScaleSource, String> {
    let mut spec = ScaleSpec::parse(&format!("{TIER},seed={seed}"))?;
    if let Some(n) = procs {
        spec.procs = n;
    }
    Ok(ScaleSource::new(spec))
}

/// The whole text of `source`, with `edits` replacing the procedures
/// they name (chunk `i + 1` holds procedure `i`).
pub fn program_text(source: &ScaleSource, edits: &BTreeMap<usize, String>) -> String {
    let mut out = String::new();
    let mut buf = String::new();
    for i in 0..source.n_chunks() {
        match i.checked_sub(1).and_then(|p| edits.get(&p)) {
            Some(body) => out.push_str(body),
            None => {
                buf.clear();
                source.chunk(i, &mut buf);
                out.push_str(&buf);
            }
        }
    }
    out
}

/// The seeded stream of literal-bump edits: each one picks a procedure
/// other than `main` and adds `round + 1` to the literal of its
/// `v0 = <lit>;` prologue, the same rewrite `bench_serve` makes. Bodies
/// are tracked, so a procedure edited twice is bumped twice.
pub struct EditStream<'a> {
    source: &'a ScaleSource,
    rng: Rng,
    round: u64,
    /// Current text of every procedure edited so far, by index.
    pub bodies: BTreeMap<usize, String>,
}

/// One edit: the procedure's name and its whole new definition.
pub struct Edit {
    pub proc: String,
    pub body: String,
}

impl<'a> EditStream<'a> {
    pub fn new(source: &'a ScaleSource, seed: u64) -> EditStream<'a> {
        EditStream {
            source,
            rng: Rng::new(seed ^ 0xED17_0000),
            round: 0,
            bodies: BTreeMap::new(),
        }
    }

    pub fn next_edit(&mut self) -> Result<Edit, String> {
        let procs = self.source.spec().procs;
        if procs < 2 {
            return Err("the edit stream needs at least two procedures".into());
        }
        let idx = 1 + self.rng.below(procs as u64 - 1) as usize;
        let mut body = match self.bodies.get(&idx) {
            Some(b) => b.clone(),
            None => {
                let mut b = String::new();
                self.source.chunk(idx + 1, &mut b);
                b
            }
        };
        let at = body
            .find("v0 = ")
            .ok_or_else(|| format!("p{idx} has no v0 prologue"))?
            + "v0 = ".len();
        let len = body[at..]
            .find(';')
            .ok_or_else(|| format!("p{idx} prologue is unterminated"))?;
        let lit: i64 = body[at..at + len]
            .trim()
            .parse()
            .map_err(|e| format!("p{idx} prologue literal: {e}"))?;
        self.round += 1;
        let bumped = lit.wrapping_add(self.round as i64);
        body.replace_range(at..at + len, &bumped.to_string());
        self.bodies.insert(idx, body.clone());
        Ok(Edit {
            proc: format!("p{idx}"),
            body,
        })
    }
}

/// The seeded stream of read targets: procedure names other than `main`.
pub struct ReadStream {
    rng: Rng,
    procs: u64,
}

impl ReadStream {
    pub fn new(source: &ScaleSource, seed: u64) -> ReadStream {
        ReadStream {
            rng: Rng::new(seed ^ 0x00EA_D000),
            procs: source.spec().procs.max(2) as u64,
        }
    }

    pub fn next_proc(&mut self) -> String {
        format!("p{}", 1 + self.rng.below(self.procs - 1))
    }
}

/// A `batch` frame of `size` seeded `constants` reads, with item ids
/// `r<first>`, `r<first + 1>`, …. Returns the frame and its targets.
pub fn batch_frame(
    reads: &mut ReadStream,
    frame: u64,
    first: u64,
    size: usize,
) -> (String, Vec<String>) {
    let mut procs = Vec::with_capacity(size);
    let mut line = format!(r#"{{"id": "b{frame}", "op": "batch", "requests": ["#);
    for k in 0..size {
        let proc = reads.next_proc();
        if k > 0 {
            line.push_str(", ");
        }
        line.push_str(&constants_request(&format!("r{}", first + k as u64), &proc));
        procs.push(proc);
    }
    line.push_str("]}");
    (line, procs)
}

/// One `constants` request line for `proc`.
pub fn constants_request(id: &str, proc: &str) -> String {
    format!(r#"{{"id": "{id}", "op": "constants", "proc": "{proc}"}}"#)
}

/// One `update` request line.
pub fn update_request(id: &str, edit: &Edit) -> String {
    let mut req = ipcp::serve::Object::new();
    req.set("id", ipcp::serve::Json::from(id));
    req.set("op", ipcp::serve::Json::from("update"));
    req.set("proc", ipcp::serve::Json::from(edit.proc.as_str()));
    req.set("body", ipcp::serve::Json::from(edit.body.as_str()));
    ipcp::serve::Json::from(req).to_string()
}
