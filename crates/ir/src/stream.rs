//! Streaming front end: build, hash, and resolve a module chunk by
//! chunk, without the whole source text or unresolved AST resident.
//!
//! The resident path (`parse_and_resolve`) materializes the full source
//! string and the full `ast::Program` before resolution begins — at the
//! 100k-procedure scale tier that is tens of megabytes of text plus a
//! proportionally larger AST held simultaneously. This module feeds the
//! *existing* parser one [`ProgramSource`] chunk at a time and drives the
//! incremental resolver ([`crate::program`]) in two passes:
//!
//! 1. **Signatures + digests** — each chunk is generated, FNV-128-hashed
//!    ([`crate::hash`], the same keys the serve summary cache uses), and
//!    parsed; only the global declarations and procedure signatures
//!    (name, arity) are retained. The chunk's text and AST are dropped.
//! 2. **Bodies** — each chunk is regenerated and re-parsed, and every
//!    procedure body is immediately resolved against the signature table
//!    into its compact [`Proc`](crate::program::Proc) form.
//!
//! Peak residency is therefore one chunk's text + AST plus the growing
//! resolved module — the representation every downstream consumer needs
//! anyway — instead of text + AST + module for the whole program at once.
//! The price is generating and parsing every chunk twice; chunk sources
//! are required to be cheap to re-iterate (the scale generator in
//! `ipcp-suite` regenerates any chunk from its seed in microseconds).
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
use crate::program::{Module, ProcId, Resolver};

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
/// text or AST. See the module docs for the two-pass protocol.
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
    let n = source.n_chunks();
    let mut resolver = Resolver::new();
    let mut buf = String::new();
    let mut chunk_digests = Vec::with_capacity(n);
    let mut module_hasher = Fnv128::new();
    let mut total_bytes = 0usize;
    let mut peak_chunk_bytes = 0usize;
    let mut parse_failed = false;

    // Pass 1: digests, globals, and procedure signatures.
    for i in 0..n {
        buf.clear();
        source.chunk(i, &mut buf);
        let digest = hash_str(&buf);
        chunk_digests.push(digest);
        module_hasher.write_u128(digest);
        total_bytes += buf.len();
        peak_chunk_bytes = peak_chunk_bytes.max(buf.len());
        match lang::parse_program(&buf) {
            Ok(ast) => {
                for g in &ast.globals {
                    resolver.declare_global(g);
                }
                for p in &ast.procs {
                    resolver.declare_proc(&p.name, p.params.len(), p.span);
                }
            }
            Err(diags) => {
                parse_failed = true;
                resolver.absorb_diags(diags);
            }
        }
    }
    if parse_failed {
        return Err(resolver.into_diags());
    }

    // Pass 2: re-parse each chunk and resolve its bodies immediately;
    // the chunk's AST dies at the end of each iteration.
    let mut procs = Vec::new();
    for i in 0..n {
        buf.clear();
        source.chunk(i, &mut buf);
        // Pass 1 accepted every chunk, so a failure here means the
        // source violated its determinism contract between passes.
        let ast = lang::parse_program(&buf)?;
        for p in &ast.procs {
            let id = ProcId::from(procs.len());
            let resolved = resolver.resolve_proc_body(id, p);
            procs.push(std::sync::Arc::new(resolved));
        }
    }

    let module = resolver.finish(procs)?;
    Ok(StreamedModule {
        module,
        chunk_digests,
        digest: module_hasher.finish(),
        total_bytes,
        peak_chunk_bytes,
    })
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

    #[test]
    fn empty_and_globals_only_chunks_are_fine() {
        let chunks = ["", "global g;\n", "", "proc main() { g = 1; print g; }\n"];
        let streamed = resolve_streaming(&chunks[..]).unwrap();
        assert_eq!(streamed.module.globals.len(), 1);
        assert_eq!(streamed.module.procs.len(), 1);
    }
}
