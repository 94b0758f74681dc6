//! Two traced runs of the same workload, seed and operation count at
//! `--jobs 1` must report identical counts: allocations per layer,
//! cache counters, jump-function kinds and `constants_substituted`.
//! That is what lets a later change cite one of them as evidence.

use ipcp::serve::json::{self, Json};
use perfbench::traced::is_exact;
use std::collections::BTreeMap;
use std::process::Command;

/// The exact-count metrics of one traced run on a 300-procedure program
/// of the workload's shape, with four serve operations.
fn counts(workload: &str) -> BTreeMap<String, String> {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repeat");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .args(["--procs", "300", "--ops", "4", "--work"])
        .arg(&work)
        .output()
        .expect("the harness runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    let metrics = result
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(Json::as_object)
        .expect("a metrics object");
    metrics
        .iter()
        .filter(|(name, _)| is_exact(name))
        .map(|(name, m)| {
            let value = m.as_object().and_then(|o| o.get("value")).expect("a value");
            (name.to_owned(), value.to_string())
        })
        .collect()
}

fn assert_repeats(workload: &str, nonzero: &[&str]) {
    let (first, second) = (counts(workload), counts(workload));
    assert_eq!(first, second, "{workload}: counts differ between two runs");
    for name in nonzero {
        let v = first
            .get(*name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_ne!(v, "0", "{workload}: {name} is zero");
    }
}

#[test]
fn analyze_counts_repeat_exactly() {
    assert_repeats(
        "analyze-10k",
        &[
            "ir.allocs",
            "ssa.build_allocs",
            "core.allocs",
            "core.jf_const",
            "core.constants_substituted",
        ],
    );
}

#[test]
fn serve_edit_counts_repeat_exactly() {
    assert_repeats(
        "serve-edit-10k",
        &[
            "serve.update_allocs",
            "serve.misses_per_edit",
            "core.constants_substituted",
        ],
    );
}

#[test]
fn serve_read_counts_repeat_exactly() {
    assert_repeats(
        "serve-read-10k",
        &["core.allocs", "core.constants_substituted"],
    );
}

/// `analyze-10k-j2` runs the same pipeline through the `par` pool; its
/// allocation counts may differ, but what the analysis finds may not.
#[test]
fn analyze_j2_finds_what_jobs_1_finds() {
    let (one, two) = (counts("analyze-10k"), counts("analyze-10k-j2"));
    for name in [
        "ssa.values",
        "core.jf_const",
        "core.jf_passthrough",
        "core.jf_poly",
        "core.jf_bottom",
        "core.constants_substituted",
    ] {
        assert_eq!(one.get(name), two.get(name), "{name} differs at --jobs 2");
    }
}
