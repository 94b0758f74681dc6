//! What one run reports: named metrics with units and sample counts,
//! the operation tally, and every correctness problem found.

/// One reported number.
pub struct Metric {
    /// The name printed in the table (the workload's own vocabulary, e.g.
    /// `edit_p50_ms`).
    pub name: String,
    /// The name in the result line's `metrics` object, when the metric
    /// is one of `BENCHMARK.json`'s; `None` for table-only rows.
    pub key: Option<&'static str>,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: processes, requests, and correctness checks.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    /// A metric that goes into the result line under `key` and into the
    /// table under `name`.
    pub fn keyed(
        &mut self,
        key: &'static str,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            key: Some(key),
            value,
            unit,
            samples,
        });
    }

    /// A metric whose table name is also its result-line key.
    pub fn metric(&mut self, key: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.keyed(key, key, value, unit, samples);
    }

    /// A table-only row.
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            key: None,
            value,
            unit,
            samples,
        });
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
        ok
    }

    /// Records a failure that ended the run early.
    pub fn abort(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable table: every metric with its unit and sample
    /// count, then the error rate and any problems.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("workload {workload}\n");
        out.push_str(&format!(
            "  {:<28} {:>16} {:<8} {:>8}  {}\n",
            "metric", "value", "unit", "samples", "result key"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<28} {:>16.4} {:<8} {:>8}  {}\n",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.key.unwrap_or("-")
            ));
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<28} {:>16.4} {:<8} {:>8}  -\n",
            "error_rate", rate, "ratio", self.attempted
        ));
        for p in &self.problems {
            out.push_str(&format!("  FAIL: {p}\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every keyed
    /// metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let key = m.key?;
                Some(format!(
                    r#""{key}": {{"value": {}, "unit": "{}"}}"#,
                    json_number(m.value),
                    m.unit
                ))
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
