//! Front-end golden corpus: the exact observable output of the lexer,
//! parser and resolver on a fixed set of inputs, pinned in
//! `tests/golden/frontend_*.txt`.
//!
//! For every input the corpus records the rendered diagnostics (message,
//! `line:col` and byte span) of `parse_program`, of `parse_and_resolve`
//! and of `resolve_streaming` over per-procedure chunks
//! ([`ipcp_suite::proc_chunks`]). For inputs that resolve it records a
//! digest of `to_source()` and of `format!("{:?}", module)`, which
//! captures every `vars` order and every span. The suite programs also
//! keep their full `to_source()` text, so a diff there reads directly.
//!
//! Inputs: the suite, the three `ipcp_suite::mutate` mutators over it,
//! the byte-soup and token-soup seeds of `roundtrip.rs`, and the 1k scale
//! tier (streamed both through its own generator chunks and through
//! `proc_chunks`).
//!
//! After an intended front-end change, rewrite the files with
//! `cargo test -p ipcp-suite --test frontend_golden -- --ignored bless`
//! and review the diff.

use std::fmt::{self, Write as _};
use std::path::PathBuf;

use ipcp_ir::hash::{hash_str, Fnv128};
use ipcp_ir::lang::parse_program;
use ipcp_ir::{parse_and_resolve, resolve_streaming, Diagnostics, Module, ProgramSource};
use ipcp_suite::{generate_scale, mutate, proc_chunks, Rng, ScaleSource, ScaleSpec, PROGRAMS};

/// The 1k tier of `bench_scale`.
const SCALE_1K: &str = "procs=1k,shape=mixed,recursion=8,seed=101";

/// Streams `Debug` output into a digest instead of a `String`.
struct DigestWriter(Fnv128);

impl fmt::Write for DigestWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn debug_digest(module: &Module) -> u128 {
    let mut w = DigestWriter(Fnv128::new());
    write!(w, "{module:?}").expect("digest writes cannot fail");
    w.0.finish()
}

/// The diagnostics' count and the digest of their full rendering (one
/// per line), then the first few lines verbatim: soup inputs carry
/// hundreds of lex errors each. `src` resolves `line:col`; streamed spans
/// are chunk-relative, so they are rendered as byte ranges only.
fn render_diags(out: &mut String, diags: &Diagnostics, src: Option<&str>) {
    const SHOWN: usize = 2;
    let mut all = String::new();
    for d in diags.iter() {
        let at = match src {
            Some(src) => {
                // Byte-based: soup spans may split a multi-byte character.
                let upto = &src.as_bytes()[..(d.span.start as usize).min(src.len())];
                let line_start = upto.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
                format!("{line}:{} ", upto.len() - line_start + 1)
            }
            None => String::new(),
        };
        let _ = writeln!(
            all,
            "  {} {at}@{}..{}: {:?}",
            d.severity, d.span.start, d.span.end, d.message
        );
    }
    let _ = writeln!(
        out,
        "  {} diagnostics digest={:032x}",
        diags.len(),
        hash_str(&all)
    );
    for line in all.lines().take(SHOWN) {
        let _ = writeln!(out, "{line}");
    }
}

fn render_module(
    out: &mut String,
    label: &str,
    result: Result<Module, Diagnostics>,
    src: Option<&str>,
) -> Option<String> {
    match result {
        Ok(m) => {
            let text = m.to_source();
            let _ = writeln!(
                out,
                "{label}: ok source={:032x} debug={:032x}",
                hash_str(&text),
                debug_digest(&m)
            );
            Some(text)
        }
        Err(d) => {
            let _ = writeln!(out, "{label}: err");
            render_diags(out, &d, src);
            None
        }
    }
}

/// Appends the golden record of one input; returns the resident
/// `to_source()` when the input resolves.
fn record(out: &mut String, id: &str, src: &str) -> Option<String> {
    let _ = writeln!(out, "== {id} input={:032x}", hash_str(src));
    match parse_program(src) {
        Ok(_) => out.push_str("parse_program: ok\n"),
        Err(d) => {
            out.push_str("parse_program: err\n");
            render_diags(out, &d, Some(src));
        }
    }
    let text = render_module(out, "resident", parse_and_resolve(src), Some(src));
    let chunks = proc_chunks(src);
    let streamed = resolve_streaming(&chunks[..]).map(|s| s.module);
    render_module(out, &format!("streamed[{}]", chunks.len()), streamed, None);
    text
}

fn suite_corpus() -> String {
    let mut out = String::new();
    let mut texts = String::new();
    for p in PROGRAMS {
        if let Some(text) = record(&mut out, &format!("suite/{}", p.name), p.source) {
            let _ = write!(texts, "-- to_source suite/{}\n{text}", p.name);
        }
    }
    out.push_str(&texts);
    out
}

fn mutant_corpus() -> String {
    type Mutator = fn(&str, &mut Rng) -> String;
    const MUTATORS: [(&str, Mutator); 3] = [
        ("swap_operator", mutate::swap_operator),
        ("splice_statement", mutate::splice_statement),
        ("perturb_call_arity", mutate::perturb_call_arity),
    ];
    let mut out = String::new();
    for p in PROGRAMS {
        for (mname, mutator) in MUTATORS {
            for k in 0..4u64 {
                let src = mutator(p.source, &mut Rng::new(k));
                record(&mut out, &format!("mutant/{}/{mname}/{k}", p.name), &src);
            }
        }
    }
    out
}

/// The same inputs as `roundtrip.rs`'s `front_end_never_panics` and
/// `tokeny_soup_never_panics`.
fn soup_corpus() -> String {
    let mut out = String::new();
    let mut rng = Rng::new(0xF00D);
    for i in 0..256 {
        let len = rng.below(200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let input = String::from_utf8_lossy(&bytes);
        record(&mut out, &format!("bytes/{i}"), &input);
    }
    const WORDS: &[&str] = &[
        "proc", "do", "if", "{", "}", ";", "(", ")", "=", "x", "42", "+", "call",
    ];
    let mut rng = Rng::new(0x50CE);
    for i in 0..256 {
        let n = rng.below(64) as usize;
        let words: Vec<&str> = (0..n)
            .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize])
            .collect();
        record(&mut out, &format!("tokens/{i}"), &words.join(" "));
    }
    out
}

fn scale_corpus() -> String {
    let spec = ScaleSpec::parse(SCALE_1K).expect("valid spec");
    let src = generate_scale(&spec);
    let mut out = String::new();
    record(&mut out, "scale/1k", &src);
    let source = ScaleSource::new(spec);
    let streamed = resolve_streaming(&source).map(|s| s.module);
    render_module(
        &mut out,
        &format!("generator-streamed[{}]", source.n_chunks()),
        streamed,
        None,
    );
    out
}

type Corpus = fn() -> String;

const CORPORA: [(&str, Corpus); 4] = [
    ("suite", suite_corpus),
    ("mutants", mutant_corpus),
    ("soup", soup_corpus),
    ("scale", scale_corpus),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("frontend_{name}.txt"))
}

#[test]
fn front_end_output_matches_the_golden_corpus() {
    for (name, corpus) in CORPORA {
        let path = golden_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run the `bless` test)", path.display()));
        let got = corpus();
        if got != want {
            let (line, (g, w)) = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .unwrap_or((
                    got.lines().count().min(want.lines().count()),
                    ("<end>", "<end>"),
                ));
            panic!(
                "{} differs at line {}:\n  got:  {g}\n  want: {w}",
                path.display(),
                line + 1
            );
        }
    }
}

/// Rewrites the golden files from the current front end.
#[test]
#[ignore = "rewrites the golden files; run by hand after an intended change"]
fn bless() {
    for (name, corpus) in CORPORA {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, corpus()).expect("write golden file");
    }
}
