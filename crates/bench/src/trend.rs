//! Cross-run bench-trend comparison: the library behind `bench_trend`
//! and the `ci.sh bench-trend` stage.
//!
//! The bench binaries (`bench_par`, `bench_solver`, `bench_scale`) each
//! write a JSON report with a `workloads` array of rows. This module
//! compares a fresh set of those reports against the previous run's
//! (downloaded as a CI artifact) and classifies what it finds:
//!
//! * **failure** — a fresh row carries `"identical": false` (the
//!   determinism gate broke: job counts reached different fixpoints),
//!   or a report is unparseable;
//! * **warning** — a wall-time/RSS metric regressed beyond the
//!   threshold percentage (`IPCP_BENCH_TREND_PCT`, default 15). Timing
//!   on shared CI runners is noisy, so regressions warn rather than
//!   fail — the summary table makes a persistent trend visible;
//! * **note** — context that gates nothing: a missing baseline (first
//!   run, expired artifact), rows whose identity has no counterpart
//!   (workload renamed or re-tuned), a metric column the baseline row
//!   lacks (added since), or a metric that *improved* beyond the
//!   threshold.
//!
//! Rows are matched structurally, not by schema: a row's identity is
//! every string-valued field plus `jobs` / `n_procs`, and its metrics
//! are every field ending in `_us` / `_ms` / `_kb` plus the RSS fields. All
//! four current report shapes (and future ones that follow the same
//! convention) compare without per-file code.

use ipcp::serve::json::{self, Json};
use std::fmt;
use std::path::Path;

/// The reports every run is expected to produce, in gate order.
pub const BENCH_FILES: &[&str] = &[
    "BENCH_par.json",
    "BENCH_solver.json",
    "BENCH_scale.json",
    "BENCH_serve.json",
];

/// Outcome of a trend comparison. Failures gate; warnings and notes
/// inform.
#[derive(Debug, Default)]
pub struct TrendReport {
    /// Determinism breaches and unreadable reports — these fail CI.
    pub failures: Vec<String>,
    /// Threshold-crossing regressions — visible, not gating.
    pub warnings: Vec<String>,
    /// Non-gating context (missing baselines, improvements).
    pub notes: Vec<String>,
}

impl TrendReport {
    /// True when nothing gate-worthy was found.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn merge(&mut self, other: TrendReport) {
        self.failures.extend(other.failures);
        self.warnings.extend(other.warnings);
        self.notes.extend(other.notes);
    }
}

impl fmt::Display for TrendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.failures {
            writeln!(f, "FAIL: {line}")?;
        }
        for line in &self.warnings {
            writeln!(f, "WARN: {line}")?;
        }
        for line in &self.notes {
            writeln!(f, "note: {line}")?;
        }
        Ok(())
    }
}

/// A row's identity within its report: every string field plus the two
/// integer fields that distinguish configurations of one workload.
fn row_key(row: &json::Object) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in row.iter() {
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Int(i) if k == "jobs" || k == "n_procs" => parts.push(format!("{k}={i}")),
            _ => {}
        }
    }
    parts.join(",")
}

/// Is `key` a trend-tracked metric (time, memory, store size, cache
/// misses, or solved units per edit)?
fn is_metric(key: &str) -> bool {
    key.ends_with("_us")
        || key.ends_with("_ms")
        || key.ends_with("_kb")
        || key.ends_with("_misses")
        || key.ends_with("_solved")
        || key == "rss_mb"
        || key == "rss_bytes"
}

/// A metric's value: an integer or a per-edit average.
fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn rows(parsed: &Json) -> Vec<&json::Object> {
    let mut out = Vec::new();
    if let Some(obj) = parsed.as_object() {
        if let Some(workloads) = obj.get("workloads").and_then(Json::as_array) {
            for w in workloads {
                if let Some(row) = w.as_object() {
                    out.push(row);
                }
            }
        }
    }
    out
}

/// Compares one fresh report (`new`) against its previous-run
/// counterpart (`old`, `None` when no baseline exists).
pub fn compare_report(file: &str, old: Option<&str>, new: &str, pct: f64) -> TrendReport {
    let mut report = TrendReport::default();
    let new_parsed = match json::parse(new) {
        Ok(p) => p,
        Err(e) => {
            report
                .failures
                .push(format!("{file}: unparseable fresh report: {e}"));
            return report;
        }
    };
    let new_rows = rows(&new_parsed);
    if new_rows.is_empty() {
        report
            .failures
            .push(format!("{file}: fresh report has no workload rows"));
        return report;
    }

    // Gate 1: the determinism contract. `identical` is written by the
    // bench binary after comparing fixpoints across job counts; false
    // anywhere means the parallel schedule became observable.
    for row in &new_rows {
        if row.get("identical").and_then(Json::as_bool) == Some(false) {
            report.failures.push(format!(
                "{file}: \"identical\": false on row [{}]",
                row_key(row)
            ));
        }
    }

    // Gate 2: metric trend against the baseline, when one exists.
    let Some(old_text) = old else {
        report
            .notes
            .push(format!("{file}: no baseline — skipping trend comparison"));
        return report;
    };
    let old_parsed = match json::parse(old_text) {
        Ok(p) => p,
        Err(e) => {
            // A corrupt baseline shouldn't gate a fresh run.
            report.notes.push(format!(
                "{file}: unparseable baseline ({e}) — skipping trend"
            ));
            return report;
        }
    };
    let old_rows = rows(&old_parsed);

    for row in &new_rows {
        let key = row_key(row);
        let Some(old_row) = old_rows.iter().find(|r| row_key(r) == key) else {
            report
                .notes
                .push(format!("{file}: no baseline row for [{key}]"));
            continue;
        };
        for (k, v) in row.iter() {
            if !is_metric(k) {
                continue;
            }
            let Some(new_v) = number(v) else {
                continue;
            };
            // A column added since the baseline was written has nothing
            // to trend against yet; it starts its history with this run.
            let Some(old_v) = old_row.get(k).and_then(number) else {
                report.notes.push(format!(
                    "{file}: new metric {k} on [{key}] (no baseline value)"
                ));
                continue;
            };
            if old_v <= 0.0 {
                continue;
            }
            let change = 100.0 * (new_v - old_v) / old_v;
            if change > pct {
                report.warnings.push(format!(
                    "{file}: {k} regressed {change:+.1}% ({old_v} -> {new_v}) on [{key}]"
                ));
            } else if change < -pct {
                report.notes.push(format!(
                    "{file}: {k} improved {change:+.1}% ({old_v} -> {new_v}) on [{key}]"
                ));
            }
        }
    }
    report
}

/// Compares every report in [`BENCH_FILES`]: fresh copies from
/// `new_dir`, baselines from `old_dir`. Missing fresh reports are notes
/// (a lane may not produce all three); if *none* exist the comparison
/// fails — the stage was wired up wrong.
pub fn compare_dirs(old_dir: &Path, new_dir: &Path, pct: f64) -> TrendReport {
    let mut report = TrendReport::default();
    let mut seen = 0usize;
    for file in BENCH_FILES {
        let new_text = match std::fs::read_to_string(new_dir.join(file)) {
            Ok(t) => t,
            Err(_) => {
                report
                    .notes
                    .push(format!("{file}: not produced by this run — skipped"));
                continue;
            }
        };
        seen += 1;
        let old_text = std::fs::read_to_string(old_dir.join(file)).ok();
        report.merge(compare_report(file, old_text.as_deref(), &new_text, pct));
    }
    if seen == 0 {
        report.failures.push(format!(
            "no bench reports found in {} (expected at least one of: {})",
            new_dir.display(),
            BENCH_FILES.join(", ")
        ));
    }
    report
}

/// The regression threshold: `IPCP_BENCH_TREND_PCT`, default 15.
pub fn threshold_pct() -> f64 {
    std::env::var("IPCP_BENCH_TREND_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|p: &f64| *p > 0.0)
        .unwrap_or(15.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[&str]) -> String {
        format!(
            "{{\n  \"jobs\": [1, 4],\n  \"workloads\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    const ROW_OK: &str =
        r#"{"program": "scale-1k", "jobs": 1, "wall_ms": 100, "rss_mb": 40, "identical": true}"#;

    #[test]
    fn identical_false_fails_even_without_a_baseline() {
        let bad = report(&[
            ROW_OK,
            r#"{"program": "scale-1k", "jobs": 4, "wall_ms": 90, "rss_mb": 40, "identical": false}"#,
        ]);
        let r = compare_report("BENCH_scale.json", None, &bad, 15.0);
        assert!(!r.ok());
        assert_eq!(r.failures.len(), 1, "{r}");
        assert!(r.failures[0].contains("identical"), "{r}");
        assert!(r.failures[0].contains("jobs=4"), "{r}");
    }

    #[test]
    fn regression_beyond_threshold_warns_but_does_not_fail() {
        let old = report(&[ROW_OK]);
        let new = report(&[
            r#"{"program": "scale-1k", "jobs": 1, "wall_ms": 130, "rss_mb": 40, "identical": true}"#,
        ]);
        let r = compare_report("BENCH_scale.json", Some(&old), &new, 15.0);
        assert!(r.ok(), "{r}");
        assert_eq!(r.warnings.len(), 1, "{r}");
        assert!(r.warnings[0].contains("wall_ms"), "{r}");
        assert!(r.warnings[0].contains("+30.0%"), "{r}");

        // The same delta under a looser threshold is clean.
        let r = compare_report("BENCH_scale.json", Some(&old), &new, 50.0);
        assert!(r.ok() && r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn improvement_beyond_threshold_is_a_note() {
        let old = report(&[ROW_OK]);
        let new = report(&[
            r#"{"program": "scale-1k", "jobs": 1, "wall_ms": 50, "rss_mb": 40, "identical": true}"#,
        ]);
        let r = compare_report("BENCH_scale.json", Some(&old), &new, 15.0);
        assert!(r.ok() && r.warnings.is_empty(), "{r}");
        assert!(r.notes.iter().any(|n| n.contains("improved")), "{r}");
    }

    #[test]
    fn missing_baseline_and_unmatched_rows_are_notes() {
        let new = report(&[ROW_OK]);
        let r = compare_report("BENCH_scale.json", None, &new, 15.0);
        assert!(r.ok() && r.warnings.is_empty(), "{r}");
        assert!(r.notes[0].contains("no baseline"), "{r}");

        let old =
            report(&[r#"{"program": "scale-2k", "jobs": 1, "wall_ms": 100, "identical": true}"#]);
        let r = compare_report("BENCH_scale.json", Some(&old), &new, 15.0);
        assert!(r.ok() && r.warnings.is_empty(), "{r}");
        assert!(r.notes[0].contains("no baseline row"), "{r}");
    }

    #[test]
    fn metric_missing_from_the_baseline_is_a_note() {
        let old = report(&[ROW_OK]);
        let new = report(&[
            r#"{"program": "scale-1k", "jobs": 1, "wall_ms": 100, "substitute_ms": 9, "rss_mb": 40, "identical": true}"#,
        ]);
        let r = compare_report("BENCH_scale.json", Some(&old), &new, 15.0);
        assert!(r.ok() && r.warnings.is_empty(), "{r}");
        assert_eq!(r.notes.len(), 1, "{r}");
        assert!(r.notes[0].contains("new metric substitute_ms"), "{r}");
    }

    #[test]
    fn store_size_is_tracked_like_a_time() {
        let old = report(&[
            r#"{"program": "serve-1k", "jobs": 1, "store_kb": 100, "restart_ms": 50, "identical": true}"#,
        ]);
        let new = report(&[
            r#"{"program": "serve-1k", "jobs": 1, "store_kb": 130, "restart_ms": 50, "identical": true}"#,
        ]);
        let r = compare_report("BENCH_serve.json", Some(&old), &new, 15.0);
        assert_eq!(r.warnings.len(), 1, "{r}");
        assert!(r.warnings[0].contains("store_kb"), "{r}");
    }

    #[test]
    fn rows_match_on_identity_not_position() {
        let old = report(&[
            r#"{"program": "wide", "jobs": 4, "seq_us": 500, "identical": true}"#,
            r#"{"program": "wide", "jobs": 2, "seq_us": 100, "identical": true}"#,
        ]);
        let new = report(&[r#"{"program": "wide", "jobs": 2, "seq_us": 130, "identical": true}"#]);
        let r = compare_report("BENCH_par.json", Some(&old), &new, 15.0);
        // Matched jobs=2 (100 -> 130, +30%), not positionally jobs=4.
        assert_eq!(r.warnings.len(), 1, "{r}");
        assert!(r.warnings[0].contains("+30.0%"), "{r}");
    }

    #[test]
    fn unparseable_fresh_report_fails_but_corrupt_baseline_does_not() {
        let r = compare_report("BENCH_par.json", None, "not json", 15.0);
        assert!(!r.ok());
        let new = report(&[ROW_OK]);
        let r = compare_report("BENCH_par.json", Some("not json"), &new, 15.0);
        assert!(r.ok(), "{r}");
        assert!(r.notes[0].contains("unparseable baseline"), "{r}");
    }

    #[test]
    fn compare_dirs_handles_missing_files() {
        let base = std::env::temp_dir().join(format!("ipcp-trend-test-{}", std::process::id()));
        let old_dir = base.join("old");
        let new_dir = base.join("new");
        std::fs::create_dir_all(&old_dir).unwrap();
        std::fs::create_dir_all(&new_dir).unwrap();

        // Empty new dir: nothing to gate on — that is a failure.
        let r = compare_dirs(&old_dir, &new_dir, 15.0);
        assert!(!r.ok(), "{r}");

        // One fresh report, no baselines: ok with notes.
        std::fs::write(new_dir.join("BENCH_par.json"), report(&[ROW_OK])).unwrap();
        let r = compare_dirs(&old_dir, &new_dir, 15.0);
        assert!(r.ok(), "{r}");
        assert!(r.notes.iter().any(|n| n.contains("no baseline")), "{r}");

        // Injected identical:false in the fresh report: failure.
        std::fs::write(
            new_dir.join("BENCH_scale.json"),
            report(&[r#"{"program": "scale-1k", "jobs": 4, "wall_ms": 90, "identical": false}"#]),
        )
        .unwrap();
        let r = compare_dirs(&old_dir, &new_dir, 15.0);
        assert!(!r.ok(), "{r}");

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn threshold_default_is_fifteen() {
        // Can't set env safely in parallel tests; just check the default
        // path when the variable is absent or garbage.
        if std::env::var("IPCP_BENCH_TREND_PCT").is_err() {
            assert_eq!(threshold_pct(), 15.0);
        }
    }
}
