//! The workspace's benchmark: four workloads, each checked on every run,
//! with end-to-end metrics from plain runs and per-layer metrics from
//! traced runs. Every workload reports the same metric names (see
//! [`end_to_end`] and [`per_layer`]); README.md has the glossary.

pub mod calib;
pub mod compress;
pub mod report;
pub mod serving;
pub mod trace;

use std::time::Instant;

use report::{Metric, Outcome, Verdict};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["compress", "dist-compress", "query", "update"];

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Declared {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn lower(name: impl Into<String>, unit: &'static str) -> Declared {
    Declared {
        name: name.into(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: impl Into<String>, unit: &'static str) -> Declared {
    Declared {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// The end-to-end metrics of a plain run, the same four on every workload.
/// One *operation* is a workload's unit of work: a round of its compress
/// variants, one query, or one update cycle (see README.md). Operation
/// times are in units of the run's reference time (see [`calib`]).
pub fn end_to_end() -> Vec<Declared> {
    vec![
        lower("setup_s", "s"),
        lower("peak_rss_mb", "MiB"),
        lower("op_p50_ref", "ref"),
        lower("op_mean_ref", "ref"),
    ]
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order. Every
/// traced run reports all of them; a layer the workload does not run
/// reads 0.
pub fn per_layer() -> Vec<Declared> {
    let mut d = Vec::new();
    let modes = compress::CompressParams::full().dims.len();
    for v in compress::SEQ_VARIANTS.map(compress::Variant::label) {
        d.push(lower(format!("core.{v}.compress_s"), "s"));
        d.push(lower(format!("linalg.{v}.factor_s"), "s"));
        d.push(higher(format!("linalg.{v}.factor_gflops"), "GF/s"));
        d.push(lower(format!("linalg.{v}.small_svd_s"), "s"));
        d.push(lower(format!("tensor.{v}.ttm_s"), "s"));
        for k in 0..modes {
            d.push(lower(format!("core.{v}.mode{k}_s"), "s"));
        }
        d.push(lower(format!("core.{v}.residual_s"), "s"));
        d.push(lower(format!("linalg.{v}.kernel_calls"), "count"));
    }
    d.push(lower("core.compress_err_ratio", "ratio"));
    for v in compress::DIST_VARIANTS.map(compress::Variant::label) {
        d.push(lower(format!("mpisim.{v}.run_s"), "s"));
        for what in ["redistribute", "factor", "small_svd", "ttm"] {
            d.push(lower(format!("dtensor.{v}.{what}_s"), "s"));
        }
        d.push(lower(format!("mpisim.{v}.comm_s"), "s"));
        d.push(lower(format!("mpisim.{v}.msgs"), "count"));
        d.push(lower(format!("mpisim.{v}.bytes"), "B"));
        d.push(lower(format!("mpisim.{v}.modeled_s"), "s"));
        d.push(lower(format!("mpisim.{v}.spawn_s"), "s"));
    }
    d.push(lower("serve.p99_ms", "ms"));
    d.push(higher("serve.hit_ratio", "ratio"));
    d.push(lower("serve.evictions", "count"));
    d.push(lower("serve.miss_p50_ms", "ms"));
    d.push(lower("serve.miss_p99_ms", "ms"));
    d.push(lower("linalg.query.gemm_s", "s"));
    d.push(lower("linalg.query.gemm_calls", "count"));
    d.push(lower("serve.hit_p50_ms", "ms"));
    for k in serving::KINDS {
        d.push(lower(format!("serve.{k}_p50_ms"), "ms"));
    }
    d.push(lower("serve.modeled_flops_per_query", "flop"));
    for p in serving::CYCLE.map(|p| p.label()) {
        d.push(lower(format!("stream.{p}_step_ms"), "ms"));
        d.push(lower(format!("stream.{p}_append_ms"), "ms"));
        d.push(higher(format!("stream.{p}_count"), "count"));
    }
    d.push(lower("stream.err_ratio", "ratio"));
    d.push(lower("core.publish_ms", "ms"));
    d.push(lower("serve.open_ms", "ms"));
    d.push(lower("serve.swap_ms", "ms"));
    d.push(lower("trace.overhead", "ratio"));
    d.push(lower("trace.unexplained_share", "ratio"));
    d
}

/// The end-to-end metrics of a plain run: set-up time (median of the
/// repeated set-ups), peak resident set size, and the median and mean of
/// the run's operations (`op_secs` holds each operation's seconds) over the
/// run's reference time. The notes keep the operation times in seconds.
pub fn push_end_to_end(o: &mut Outcome, setup: &[f64], op_secs: &[f64]) {
    o.push(Metric::median("setup_s", "s", setup));
    o.push(Metric::derived(
        "peak_rss_mb",
        "MiB",
        report::peak_rss_mb(),
        1,
    ));
    let reference = calib::samples();
    let unit = report::quantile(&reference, 0.5);
    let rel: Vec<f64> = op_secs.iter().map(|s| s / unit).collect();
    let mean = op_secs.iter().sum::<f64>() / op_secs.len() as f64;
    o.push(Metric::median("op_p50_ref", "ref", &rel));
    o.push(Metric::derived(
        "op_mean_ref",
        "ref",
        mean / unit,
        op_secs.len(),
    ));
    o.notes.push(format!(
        "reference time {:.6} ms (median of {}); operation p50 {:.6} ms, mean {:.6} ms",
        unit * 1e3,
        reference.len(),
        report::quantile(op_secs, 0.5) * 1e3,
        mean * 1e3
    ));
}

/// Each run builds its inputs at least this many times, and keeps building
/// until [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Short set-ups repeat until this much time has passed, so their median
/// rests on more readings.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Build the inputs repeatedly (see [`SETUP_REPEATS`]), keep the last, and
/// return the seconds each build took.
pub fn repeated_setup<S>(mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(build()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

/// Run `round` until `seconds` have passed, and at least once.
pub fn rounds_until(seconds: f64, mut round: impl FnMut()) {
    let t = Instant::now();
    loop {
        round();
        if t.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Which inputs a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The shapes the benchmark is defined on.
    Full,
    /// Small shapes for the benchmark's own tests.
    Tiny,
}

/// Run one workload; `None` for an unknown name. The outcome holds exactly
/// the declared metrics of its kind (see [`report::Outcome::conform`]).
pub fn run(workload: &str, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    calib::reset();
    let mut o = run_workload(workload, scale, seed, seconds, traced)?;
    let declared = if traced { per_layer() } else { end_to_end() };
    let (missing, undeclared) = o.conform(&declared);
    // A plain run must measure every end-to-end metric; a traced run
    // leaves at 0 the layers its workload does not run.
    if !traced && !missing.is_empty() {
        o.ledger
            .op(Verdict::Wrong(format!("not measured: {missing:?}")));
    }
    if !undeclared.is_empty() {
        o.ledger
            .op(Verdict::Wrong(format!("not declared: {undeclared:?}")));
    }
    Some(o)
}

fn run_workload(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Option<Outcome> {
    use compress::{run_compress, run_dist, CompressParams, DistParams};
    use serving::{run_query, run_update, QueryParams, UpdateParams};
    let full = scale == Scale::Full;
    Some(match workload {
        "compress" => {
            let p = if full {
                CompressParams::full()
            } else {
                CompressParams::tiny()
            };
            run_compress(&p, seed, seconds, traced)
        }
        "dist-compress" => {
            let p = if full {
                DistParams::full()
            } else {
                DistParams::tiny()
            };
            run_dist(&p, seed, seconds, traced)
        }
        "query" => {
            let p = if full {
                QueryParams::full()
            } else {
                QueryParams::tiny()
            };
            run_query(&p, seed, seconds, traced)
        }
        "update" => {
            let p = if full {
                UpdateParams::full()
            } else {
                UpdateParams::tiny()
            };
            run_update(&p, seed, seconds, traced)
        }
        _ => return None,
    })
}
