//! Metrics, operation ledger, run records and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reported metric: a median (or a percentile) over `samples` readings.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Readings the value summarises.
    pub samples: usize,
    /// First and third quartile of the readings (equal to `value` for a
    /// single reading or a derived figure).
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// Median of `xs` with its quartiles.
    pub fn median(name: impl Into<String>, unit: &'static str, xs: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: quantile(xs, 0.5),
            samples: xs.len(),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
        }
    }

    /// The `q`-quantile of `xs`.
    pub fn percentile(name: impl Into<String>, unit: &'static str, xs: &[f64], q: f64) -> Metric {
        let v = quantile(xs, q);
        Metric {
            name: name.into(),
            unit,
            value: v,
            samples: xs.len(),
            q1: v,
            q3: v,
        }
    }

    /// A figure derived from `samples` readings (a ratio, a rate, a count).
    pub fn derived(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            q1: value,
            q3: value,
        }
    }
}

/// Linear-interpolation quantile of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Outcome of checking one operation's output.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Pass,
    /// A numerical bound was missed (relative error above ε, an error
    /// ratio above its gate). The operation counts as failed; the
    /// measurement itself still describes the intended computation.
    Bound(String),
    /// An exact check failed: the output differs from its reference, or the
    /// workload did not run the code it exists to measure. The operation
    /// counts as failed and the run is marked not correct.
    Wrong(String),
}

/// Operations attempted and failed, with the distinct failure messages.
#[derive(Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub exact_ok: bool,
    pub failures: BTreeMap<String, u64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            exact_ok: true,
            failures: BTreeMap::new(),
        }
    }
}

impl Ledger {
    /// Record one operation and the verdict of its checks.
    pub fn op(&mut self, verdict: Verdict) {
        self.attempted += 1;
        let msg = match verdict {
            Verdict::Pass => return,
            Verdict::Bound(m) => m,
            Verdict::Wrong(m) => {
                self.exact_ok = false;
                m
            }
        };
        self.failed += 1;
        *self.failures.entry(msg).or_default() += 1;
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    /// Free-form lines for the human-readable report (ranks, paths taken).
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of a traced run's spans.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Keep exactly the `declared` metrics, in their order. A declared
    /// metric the workload did not measure reads 0 with no samples; one
    /// measured under another unit, or not declared at all, is dropped.
    /// Returns the names of the missing and of the undeclared metrics.
    pub fn conform(&mut self, declared: &[crate::Declared]) -> (Vec<String>, Vec<String>) {
        let mut measured = std::mem::take(&mut self.metrics);
        let mut missing = Vec::new();
        for d in declared {
            let found = measured
                .iter()
                .position(|m| m.name == d.name && m.unit == d.unit);
            self.metrics.push(match found {
                Some(i) => measured.swap_remove(i),
                None => {
                    missing.push(d.name.clone());
                    Metric::derived(d.name.clone(), d.unit, 0.0, 0)
                }
            });
        }
        let undeclared = measured.into_iter().map(|m| m.name).collect();
        (missing, undeclared)
    }

    /// Correct when every exact check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.ledger.exact_ok && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Where run records and traces are written: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU model and logical CPU count of the host.
pub fn host_fingerprint() -> (String, usize) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (model, nproc)
}

/// Commit of the checkout, read from `.git` without running git; "unknown"
/// when the sources are not a git work tree.
pub fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(git.join(reference)) {
        return id;
    }
    read(git.join("packed-refs"))
        .and_then(|s| {
            s.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.ledger.attempted,
        o.ledger.failed,
        metrics.join(", ")
    )
}

/// The run record: host fingerprint, threads, seed, commit, sample counts
/// and quartiles of every metric, failures by message.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub kernel_threads: usize,
}

pub fn record_json(info: &RunInfo<'_>, o: &Outcome) -> String {
    let (cpu, nproc) = host_fingerprint();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_num(m.value),
                json_num(m.q1),
                json_num(m.q3),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = o
        .ledger
        .failures
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"cpu\": {}, \"nproc\": {nproc}}}, \"kernel_threads\": {}, \"commit\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": {{{}}}, \
         \"metrics\": [{}]}}",
        json_str(info.workload),
        info.seed,
        json_num(info.seconds),
        info.traced,
        json_str(&cpu),
        info.kernel_threads,
        json_str(&commit()),
        o.correct(),
        o.ledger.attempted,
        o.ledger.failed,
        failures.join(", "),
        metrics.join(", ")
    )
}

/// Human-readable table: name, median, unit, sample count, quartiles.
pub fn table(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<34} {:>14} {:<6} {:>7} {:>14} {:>14}",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    for m in &o.metrics {
        let _ = writeln!(
            s,
            "{:<34} {:>14.6} {:<6} {:>7} {:>14.6} {:>14.6}",
            m.name, m.value, m.unit, m.samples, m.q1, m.q3
        );
    }
    let _ = writeln!(
        s,
        "operations: {} attempted, {} failed",
        o.ledger.attempted, o.ledger.failed
    );
    for (msg, n) in &o.ledger.failures {
        let _ = writeln!(s, "  failed x{n}: {msg}");
    }
    for n in &o.notes {
        let _ = writeln!(s, "note: {n}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn ledger_separates_bound_misses_from_wrong_answers() {
        let mut l = Ledger::default();
        l.op(Verdict::Pass);
        l.op(Verdict::Bound("err > eps".into()));
        assert!(l.exact_ok);
        l.op(Verdict::Wrong("crc".into()));
        assert!(!l.exact_ok);
        assert_eq!((l.attempted, l.failed), (3, 2));
    }

    #[test]
    fn conform_orders_fills_and_drops() {
        let d = |name: &str| crate::Declared {
            name: name.into(),
            unit: "s",
            higher_is_better: false,
        };
        let mut o = Outcome::default();
        o.push(Metric::derived("b", "s", 2.0, 1));
        o.push(Metric::derived("extra", "s", 3.0, 1));
        let (missing, undeclared) = o.conform(&[d("a"), d("b")]);
        assert_eq!(
            (missing, undeclared),
            (vec!["a".into()], vec!["extra".into()])
        );
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!((o.metrics[0].value, o.metrics[0].samples), (0.0, 0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.ledger.op(Verdict::Pass);
        o.push(Metric::derived("setup_s", "s", 0.5, 3));
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
