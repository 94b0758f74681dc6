//! Streaming front end: build, hash, and resolve a module chunk by
//! chunk, without the whole source text resident and without any AST.
//!
//! [`resolve_streaming`] drives the incremental resolver
//! ([`crate::program`]) over one [`ProgramSource`] chunk at a time, in two
//! passes:
//!
//! 1. **Signatures + digests** — each chunk is generated, FNV-128-hashed
//!    ([`crate::hash`], the same keys the serve summary cache uses), and
//!    pre-scanned: its global declarations and procedure headers are
//!    parsed, each body is skipped by counting braces, and the signature
//!    table is declared from them.
//! 2. **Bodies** — each chunk is regenerated and parsed once more, and the
//!    grammar writes every procedure body straight into its compact,
//!    resolved [`Proc`](crate::program::Proc) against the table.
//!
//! Peak residency is therefore one chunk's text plus the growing resolved
//! module. The price is generating every chunk twice; chunk sources are
//! required to be cheap to re-iterate (the scale generator in
//! `ipcp-suite` regenerates any chunk from its seed in microseconds).
//! `parse_and_resolve` is the one-chunk case of the same driver.
//!
//! Diagnostics are those of parsing every chunk in full: when a chunk
//! fails to parse, the report is, chunk by chunk, its lex errors (or else
//! its parse errors) and the declaration errors of the chunks that do
//! parse; no body is resolved. Otherwise it is the declaration errors,
//! then each body's resolve errors, then the whole-module checks.
//!
//! Spans in a streamed module are **chunk-relative** (each chunk is
//! parsed as its own little program), so `Module` equality against the
//! resident path is not byte-for-byte on spans; the differential tests
//! compare `to_source()` output and analysis results instead, which is
//! the actual contract — the analysis never consults spans for values.
//!
//! ```
//! use ipcp_ir::stream::resolve_streaming;
//!
//! let chunks = ["global n;\n", "proc main() { n = 1; call f(n); }\n", "proc f(x) { print x; }\n"];
//! let streamed = resolve_streaming(&chunks[..])?;
//! assert_eq!(streamed.module.procs.len(), 2);
//! assert_eq!(streamed.chunk_digests.len(), 3);
//! # Ok::<(), ipcp_ir::Diagnostics>(())
//! ```

use crate::error::Diagnostics;
use crate::hash::{hash_str, Fnv128};
use crate::lang;
use crate::program::{Module, Resolver};
use crate::span::Span;

/// A re-iterable chunk producer: chunk `i` holds zero or more complete
/// top-level declarations (globals and/or procedures), and concatenating
/// all chunks in order yields the full program text.
///
/// Implementations must be **deterministic** — [`resolve_streaming`]
/// requests every chunk twice (signatures pass, bodies pass) and the two
/// readings must agree. They should also be cheap: the whole point of
/// streaming is that a chunk can be regenerated on demand instead of
/// being kept resident.
pub trait ProgramSource {
    /// Number of chunks.
    fn n_chunks(&self) -> usize;

    /// Appends chunk `i`'s FT text to `out` (`out` is empty on entry).
    fn chunk(&self, i: usize, out: &mut String);
}

/// Any slice of string-likes is a chunk source — the degenerate resident
/// adapter used by tests and by callers that already hold split text.
impl<T: AsRef<str>> ProgramSource for [T] {
    fn n_chunks(&self) -> usize {
        self.len()
    }

    fn chunk(&self, i: usize, out: &mut String) {
        out.push_str(self[i].as_ref());
    }
}

/// A module resolved through the streaming path, with the content
/// digests computed along the way.
#[derive(Clone, Debug)]
pub struct StreamedModule {
    /// The resolved module — identical (up to chunk-relative spans) to
    /// what `parse_and_resolve` produces on the concatenated text.
    pub module: Module,
    /// FNV-128 digest of each chunk's text, in chunk order (the same
    /// per-procedure content keys the serve summary cache computes).
    pub chunk_digests: Vec<u128>,
    /// Merkle combination of [`StreamedModule::chunk_digests`] in order:
    /// a whole-program content fingerprint.
    pub digest: u128,
    /// Total bytes of source text across all chunks.
    pub total_bytes: usize,
    /// Largest single chunk in bytes — the text high-water mark of the
    /// streaming front end.
    pub peak_chunk_bytes: usize,
}

/// Resolves a chunked program without materializing the whole source
/// text. See the module docs for the two-pass protocol.
///
/// # Errors
///
/// Returns the accumulated [`Diagnostics`] if any chunk fails to parse
/// (all chunks are still visited, so one report carries every error) or
/// if whole-module resolution fails (unknown callees, arity mismatches,
/// missing `main`, …) — exactly the errors the resident path reports.
pub fn resolve_streaming<S: ProgramSource + ?Sized>(
    source: &S,
) -> Result<StreamedModule, Diagnostics> {
    let mut chunk_digests = Vec::with_capacity(source.n_chunks());
    let mut module_hasher = Fnv128::new();
    let mut total_bytes = 0usize;
    let mut peak_chunk_bytes = 0usize;
    let module = resolve_chunks(source, |chunk| {
        let digest = hash_str(chunk);
        chunk_digests.push(digest);
        module_hasher.write_u128(digest);
        total_bytes += chunk.len();
        peak_chunk_bytes = peak_chunk_bytes.max(chunk.len());
    })?;
    Ok(StreamedModule {
        module,
        chunk_digests,
        digest: module_hasher.finish(),
        total_bytes,
        peak_chunk_bytes,
    })
}

/// The two passes over `source`; `seen` observes each chunk's text as the
/// signatures pass reads it. `parse_and_resolve` is the one-chunk case.
pub(crate) fn resolve_chunks<S: ProgramSource + ?Sized>(
    source: &S,
    mut seen: impl FnMut(&str),
) -> Result<Module, Diagnostics> {
    let n = source.n_chunks();
    let mut resolver = Resolver::new();
    let mut buf = String::new();

    // Pass 1: globals and procedure signatures, bodies skipped.
    for i in 0..n {
        buf.clear();
        source.chunk(i, &mut buf);
        seen(&buf);
        match lang::scan_items(&buf) {
            Some(items) => resolver.declare(&items),
            None => return Err(chunk_errors(source, &mut buf)),
        }
    }

    // Pass 2: parse each chunk's bodies straight into resolved procedures.
    let mut procs = Vec::with_capacity(resolver.n_procs());
    for i in 0..n {
        buf.clear();
        source.chunk(i, &mut buf);
        if resolver.resolve_bodies(&buf, &mut procs).is_err() {
            return Err(chunk_errors(source, &mut buf));
        }
    }
    if procs.len() != resolver.n_procs() {
        return Err(chunk_errors(source, &mut buf));
    }
    resolver.finish(procs)
}

/// The report for a program one of whose chunks does not parse: chunk by
/// chunk, its lex or parse errors, or else the errors of declaring its
/// globals and procedures, in chunk order — the signatures pass as it
/// reads when every chunk is parsed in full. Declarations of chunks that
/// fail are never declared, and no resolve error is reported.
fn chunk_errors<S: ProgramSource + ?Sized>(source: &S, buf: &mut String) -> Diagnostics {
    let mut resolver = Resolver::new();
    let table = Resolver::new();
    for i in 0..source.n_chunks() {
        buf.clear();
        source.chunk(i, buf);
        match table.parse_items(buf) {
            Ok(items) => resolver.declare(&items),
            Err(diags) => resolver.absorb_diags(diags),
        }
    }
    let mut diags = resolver.into_diags();
    if !diags.has_errors() {
        // Both readings parsed: the source broke its determinism contract.
        diags.error(
            "program source changed between the signature and body passes",
            Span::dummy(),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_resolve;

    const CHUNKS: [&str; 3] = [
        "global n;\n",
        "proc main() {\n    n = 40 + 2;\n    call f(n, 7);\n}\n",
        "proc f(a, b) {\n    print a * b;\n}\n",
    ];

    #[test]
    fn streamed_module_matches_resident_resolution() {
        let streamed = resolve_streaming(&CHUNKS[..]).unwrap();
        let resident = parse_and_resolve(&CHUNKS.concat()).unwrap();
        // Spans are chunk-relative in the streamed module, so compare
        // the span-free projection: the pretty-printed source.
        assert_eq!(streamed.module.to_source(), resident.to_source());
        assert_eq!(streamed.module.procs.len(), resident.procs.len());
        assert_eq!(streamed.module.entry, resident.entry);
    }

    #[test]
    fn digests_are_per_chunk_and_merkle_combined() {
        let streamed = resolve_streaming(&CHUNKS[..]).unwrap();
        assert_eq!(streamed.chunk_digests.len(), 3);
        for (i, chunk) in CHUNKS.iter().enumerate() {
            assert_eq!(streamed.chunk_digests[i], hash_str(chunk));
        }
        let mut h = Fnv128::new();
        for d in &streamed.chunk_digests {
            h.write_u128(*d);
        }
        assert_eq!(streamed.digest, h.finish());
        assert_eq!(
            streamed.total_bytes,
            CHUNKS.iter().map(|c| c.len()).sum::<usize>()
        );
        assert_eq!(
            streamed.peak_chunk_bytes,
            CHUNKS.iter().map(|c| c.len()).max().unwrap()
        );
    }

    #[test]
    fn forward_and_backward_cross_chunk_calls_resolve() {
        let chunks = [
            "proc main() { call later(1); call earlier(2); }\n",
            "proc earlier(x) { print x; }\n",
            "proc later(y) { call earlier(y); }\n",
        ];
        let streamed = resolve_streaming(&chunks[..]).unwrap();
        assert_eq!(streamed.module.procs.len(), 3);
    }

    #[test]
    fn parse_errors_from_every_chunk_are_accumulated() {
        let chunks = ["proc main() { x = ; }\n", "proc f( { }\n"];
        let err = resolve_streaming(&chunks[..]).unwrap_err();
        assert!(err.has_errors());
        assert!(err.len() >= 2, "want both chunks' errors, got {err}");
    }

    #[test]
    fn resolution_errors_match_the_resident_path() {
        let chunks = ["proc main() { call nope(1); }\n"];
        let err = resolve_streaming(&chunks[..]).unwrap_err();
        assert!(err.to_string().contains("unknown procedure"));
        let chunks = ["proc helper(a) { print a; }\n"];
        let err = resolve_streaming(&chunks[..]).unwrap_err();
        assert!(err.to_string().contains("no `main`"));
        let chunks = ["proc main() { call f(1, 2); }\n", "proc f(a) { }\n"];
        let err = resolve_streaming(&chunks[..]).unwrap_err();
        assert!(err.to_string().contains("expects 1 argument"));
    }

    /// Diagnostics as `(message, start, end)`, or `ok`.
    fn outcome<T>(r: Result<T, Diagnostics>) -> Vec<(String, u32, u32)> {
        match r {
            Ok(_) => vec![("ok".to_owned(), 0, 0)],
            Err(d) => d
                .iter()
                .map(|d| (d.message.clone(), d.span.start, d.span.end))
                .collect(),
        }
    }

    fn msgs(r: Vec<(String, u32, u32)>) -> Vec<String> {
        r.into_iter().map(|(m, _, _)| m).collect()
    }

    #[test]
    fn braces_and_proc_inside_comments_do_not_split_bodies() {
        let chunks = [
            "global g; # { proc bogus() {\n",
            "proc main() { // } proc x() }\n  g = 1; # }}}\n  call f(g); // {\n}\n# proc f() {\n",
            "proc f(a) { print a; } // }\n",
        ];
        let resident = parse_and_resolve(&chunks.concat()).unwrap();
        let streamed = resolve_streaming(&chunks[..]).unwrap().module;
        assert_eq!(resident.procs.len(), 2);
        assert_eq!(resident.to_source(), streamed.to_source());
        assert_eq!(
            resident.to_source(),
            "global g;\n\nproc main() {\n    g = 1;\n    call f(g);\n}\n\nproc f(a) {\n    print a;\n}\n"
        );
    }

    #[test]
    fn a_chunk_with_unbalanced_braces_is_a_parse_error_of_that_chunk() {
        // Split mid-body: each chunk is parsed as its own program.
        let chunks = ["proc main() { call f(1);\n", "}\nproc f(a) { print a; }\n"];
        assert_eq!(
            outcome(parse_and_resolve(&chunks.concat())),
            outcome(Ok(()))
        );
        assert_eq!(
            outcome(resolve_streaming(&chunks[..])),
            [
                ("expected `}`, found `<eof>`".to_owned(), 25, 25),
                ("expected `proc` or `global`, found `}`".to_owned(), 0, 1),
            ]
        );
        // One `}` too many closes the body early; the stray one is an
        // item-level error in the resident and the streamed path alike.
        let chunks = ["proc main() { } }\n", "proc f() { }\n"];
        let want = [("expected `proc` or `global`, found `}`".to_owned(), 16, 17)];
        assert_eq!(outcome(parse_and_resolve(&chunks.concat())), want);
        assert_eq!(outcome(resolve_streaming(&chunks[..])), want);
    }

    #[test]
    fn a_lex_error_hides_parse_errors_only_within_its_own_chunk() {
        let chunks = ["proc main() { x = ; }\n", "proc f() { y = 1 $ 2; }\n"];
        let lex_only = [("unrecognized character `$`".to_owned(), 39, 40)];
        assert_eq!(outcome(parse_and_resolve(&chunks.concat())), lex_only);
        assert_eq!(outcome(resolve_streaming(&[chunks.concat()][..])), lex_only);
        assert_eq!(
            outcome(resolve_streaming(&chunks[..])),
            [
                ("expected expression, found `;`".to_owned(), 18, 19),
                ("unrecognized character `$`".to_owned(), 17, 18),
            ]
        );
    }

    #[test]
    fn a_parse_error_in_one_chunk_suppresses_resolution_of_the_others() {
        let chunks = ["proc main() { call nope(); }\n", "proc f( { }\n"];
        let parse_only = vec!["expected identifier, found `{`".to_owned()];
        assert_eq!(
            msgs(outcome(parse_and_resolve(&chunks.concat()))),
            parse_only
        );
        assert_eq!(msgs(outcome(resolve_streaming(&chunks[..]))), parse_only);
        // Declarations of the chunks that did parse are still checked
        // (and reported in chunk order) before the streamed path stops.
        let chunks = ["global g; global g;\n", "proc main( { }\n"];
        assert_eq!(
            msgs(outcome(parse_and_resolve(&chunks.concat()))),
            ["expected identifier, found `{`"]
        );
        assert_eq!(
            msgs(outcome(resolve_streaming(&chunks[..]))),
            ["duplicate global `g`", "expected identifier, found `{`"]
        );
    }

    #[test]
    fn a_duplicate_procedure_declared_after_its_first_call() {
        let chunks = [
            "proc main() { call f(1, 2); }\n",
            "proc f(a) { print a; }\n",
            "proc f(a, b) { print a + b; }\n",
        ];
        let want = vec![
            "duplicate procedure `f`".to_owned(),
            "`f` expects 1 argument, got 2".to_owned(),
        ];
        assert_eq!(msgs(outcome(parse_and_resolve(&chunks.concat()))), want);
        assert_eq!(msgs(outcome(resolve_streaming(&chunks[..]))), want);
        // The first declaration wins the name: a matching call resolves
        // to it, and the duplicate still aborts the module.
        let chunks = [
            "proc main() { call f(1); }\n",
            "proc f(a) { }\n",
            "proc f(a, b) { }\n",
        ];
        let want = vec!["duplicate procedure `f`".to_owned()];
        assert_eq!(msgs(outcome(parse_and_resolve(&chunks.concat()))), want);
        assert_eq!(msgs(outcome(resolve_streaming(&chunks[..]))), want);
    }

    #[test]
    fn a_body_too_deep_to_parse_reports_what_the_parser_reports() {
        // The pre-scan accepts the balanced body; the body pass fails.
        let src = format!(
            "proc main() {{ {} print 1; {} }}\n",
            "if (1) {".repeat(300),
            "}".repeat(300)
        );
        let want = outcome(crate::lang::parse_program(&src));
        assert!(want[0].0.contains("nesting exceeds"), "{want:?}");
        assert_eq!(outcome(parse_and_resolve(&src)), want);
        assert_eq!(outcome(resolve_streaming(&[src][..])), want);
    }

    #[test]
    fn empty_and_globals_only_chunks_are_fine() {
        let chunks = ["", "global g;\n", "", "proc main() { g = 1; print g; }\n"];
        let streamed = resolve_streaming(&chunks[..]).unwrap();
        assert_eq!(streamed.module.globals.len(), 1);
        assert_eq!(streamed.module.procs.len(), 1);
    }
}
