//! `query` and `update`: the serving tier, alone and beside writes.
//!
//! `query` answers a seeded synthetic trace one request at a time (closed
//! loop, one client) from a store whose mode-0 partials overflow the
//! contraction cache, so both the cache-hit path and the miss path run.
//! `update` grows a time mode through `StreamState::append` with slabs
//! built to land in every drift band, publishes each generation, reopens
//! and hot-swaps it into the engine, then answers a block of queries
//! against the new generation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tucker_core::{SthosvdConfig, TuckerTensor};
use tucker_linalg::{perf, splitmix64_at, Matrix};
use tucker_serve::{
    synthetic_store, synthetic_trace, tensor_crc, Engine, EngineConfig, Query, QueryKind,
    TuckerStore, WorkloadConfig,
};
use tucker_stream::{append_dense, StreamConfig, StreamState, UpdatePath};
use tucker_tensor::Tensor;

use crate::compress::{identical, push_trace_health};
use crate::report::{quantile, Metric, Outcome, Verdict};
use crate::trace::{span_if, Tracer};
use crate::{push_end_to_end, repeated_setup, rounds_until};

/// A query's answer checksum, kept for the check after the timed region.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub query: Query,
    pub crc: u32,
}

/// Compare sampled answers with a reference engine's; one verdict each.
pub fn check_samples(reference: &mut Engine<f64>, samples: &[Sample], what: &str) -> Vec<Verdict> {
    samples
        .iter()
        .map(|s| match reference.execute(&s.query) {
            Ok(out) if tensor_crc(&out.tensor) == s.crc => Verdict::Pass,
            Ok(_) => Verdict::Wrong(format!("{what}: answer differs from the reference engine")),
            Err(e) => Verdict::Wrong(format!("{what}: reference engine failed: {e}")),
        })
        .collect()
}

fn kind_label(k: QueryKind) -> &'static str {
    match k {
        QueryKind::Element => "element",
        QueryKind::Fiber => "fiber",
        QueryKind::Slice => "slice",
        QueryKind::Strided => "strided",
        QueryKind::Hyperslab => "hyperslab",
    }
}

/// Query kinds a per-kind latency is reported for. `synthetic_trace`
/// generates no slice queries, so no slice latency can be measured.
pub const KINDS: [&str; 4] = ["element", "fiber", "strided", "hyperslab"];

/// Readings of the queries answered so far.
#[derive(Default)]
struct QueryStats {
    // Plain queries only.
    lat_s: Vec<f64>,
    busy_s: f64,
    // Traced queries only.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    flops: Vec<f64>,
    lookups: (u64, u64),
    evictions: Vec<f64>,
    gemm_s: Vec<f64>,
    gemm_calls: Vec<f64>,
    traced_busy_s: f64,
    traced_count: usize,
}

/// Answer `qs` one at a time. Plain blocks time each call; traced blocks
/// also wrap it in a span, classify it as a cache hit or miss by the
/// engine's counters, and read the kernel counters of the block. Every
/// call is one operation in the ledger; a failed call fails it.
#[allow(clippy::too_many_arguments)]
fn answer_block<'a>(
    engine: &mut Engine<f64>,
    qs: impl Iterator<Item = (u64, &'a Query)>,
    tr: Option<&Tracer>,
    stats: &mut QueryStats,
    samples: &mut Vec<Sample>,
    sample_seed: u64,
    o: &mut Outcome,
    root: &str,
) {
    let run = |engine: &mut Engine<f64>, stats: &mut QueryStats| {
        let evictions_before = engine.cache_stats().evictions;
        if tr.is_some() {
            perf::enable();
        }
        for (idx, q) in qs {
            let before = engine.cache_stats();
            let t = Instant::now();
            let out = span_if(tr, "serve.query", || engine.execute(q));
            let secs = t.elapsed().as_secs_f64();
            if tr.is_none() {
                crate::calib::tick();
            }
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    o.ledger.op(Verdict::Wrong(format!("query failed: {e}")));
                    continue;
                }
            };
            o.ledger.op(Verdict::Pass);
            if splitmix64_at(sample_seed, idx, 7).is_multiple_of(32) {
                samples.push(Sample {
                    query: q.clone(),
                    crc: tensor_crc(&out.tensor),
                });
            }
            if tr.is_none() {
                stats.lat_s.push(secs);
                stats.busy_s += secs;
                continue;
            }
            stats.traced_busy_s += secs;
            stats.traced_count += 1;
            let after = engine.cache_stats();
            let missed = after.misses > before.misses;
            stats.lookups.0 += after.hits - before.hits;
            stats.lookups.1 += after.misses - before.misses;
            if missed {
                &mut stats.miss_ms
            } else {
                &mut stats.hit_ms
            }
            .push(secs * 1e3);
            let kind = kind_label(q.kind(engine.store().dims()));
            stats.by_kind.entry(kind).or_default().push(secs * 1e3);
            stats.flops.push(out.cost.flops);
        }
        if tr.is_some() {
            let kernels = perf::drain().unwrap_or_default();
            let gemm = kernels.get("gemm").copied().unwrap_or_default();
            stats.gemm_s.push(gemm.secs);
            stats.gemm_calls.push(gemm.calls as f64);
            stats
                .evictions
                .push((engine.cache_stats().evictions - evictions_before) as f64);
        }
    };
    span_if(tr, root, || run(engine, stats));
}

/// Per-layer query metrics: the p99 of the plain queries, and what the
/// traced blocks saw.
fn push_query_layers(o: &mut Outcome, s: &QueryStats, per_block: bool) {
    let plain_ms: Vec<f64> = s.lat_s.iter().map(|x| x * 1e3).collect();
    o.push(Metric::percentile("serve.p99_ms", "ms", &plain_ms, 0.99));
    let (hits, misses) = s.lookups;
    o.push(Metric::derived(
        "serve.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    ));
    o.push(Metric::median("serve.hit_p50_ms", "ms", &s.hit_ms));
    for k in KINDS {
        o.push(Metric::median(
            format!("serve.{k}_p50_ms"),
            "ms",
            s.by_kind.get(k).map_or(&[][..], |v| v),
        ));
    }
    o.push(Metric::derived(
        "serve.modeled_flops_per_query",
        "flop",
        s.flops.iter().sum::<f64>() / s.flops.len().max(1) as f64,
        s.flops.len(),
    ));
    if per_block {
        o.push(Metric::median("serve.evictions", "count", &s.evictions));
        o.push(Metric::median("serve.miss_p50_ms", "ms", &s.miss_ms));
        o.push(Metric::percentile(
            "serve.miss_p99_ms",
            "ms",
            &s.miss_ms,
            0.99,
        ));
        o.push(Metric::median("linalg.query.gemm_s", "s", &s.gemm_s));
        o.push(Metric::median(
            "linalg.query.gemm_calls",
            "count",
            &s.gemm_calls,
        ));
    }
}

// ------------------------------------------------------------------- query

/// Store shape, trace and pass length of the `query` workload.
#[derive(Clone, Debug)]
pub struct QueryParams {
    pub dims: Vec<usize>,
    pub ranks: Vec<usize>,
    /// Requests in the trace. Long enough that a run rarely answers one
    /// twice, so the seed's draw of query kinds averages out.
    pub trace_len: usize,
    /// Requests per pass: the warm-up answers the first pass, and the timed
    /// passes walk the trace one pass at a time, wrapping around.
    pub pass_len: usize,
    /// Contraction-cache budget, chosen so the store's partials overflow it.
    pub cache_budget: usize,
}

impl QueryParams {
    /// Mode-0 partials of this store overflow the default 64 MiB cache.
    pub fn full() -> Self {
        QueryParams {
            dims: vec![4096, 96, 80],
            ranks: vec![32, 24, 20],
            trace_len: 12_000,
            pass_len: 1200,
            cache_budget: EngineConfig::default().cache_budget,
        }
    }

    pub fn tiny() -> Self {
        QueryParams {
            dims: vec![256, 16, 12],
            ranks: vec![8, 6, 5],
            trace_len: 800,
            pass_len: 200,
            cache_budget: 64 << 10,
        }
    }
}

/// The `query` workload. One operation is one query.
pub fn run_query(p: &QueryParams, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let ((tucker, trace, mut engine), setup) = repeated_setup(|| {
        let tucker: TuckerTensor<f64> = synthetic_store(&p.dims, &p.ranks);
        let wl = WorkloadConfig {
            dims: p.dims.clone(),
            ranks: p.ranks.clone(),
            requests: p.trace_len,
            seed,
            ..WorkloadConfig::default()
        };
        let trace: Vec<Query> = synthetic_trace(&wl).into_iter().map(|r| r.query).collect();
        let cfg = EngineConfig {
            cache_budget: p.cache_budget,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(TuckerStore::from_tucker(tucker.clone()), cfg);
        for q in &trace[..p.pass_len] {
            let _ = std::hint::black_box(engine.execute(q));
        }
        (tucker, trace, engine)
    });
    let tr = Tracer::default();
    let mut stats = QueryStats::default();
    let mut samples = Vec::new();
    let mut pass = 0u64;
    let chunks: Vec<&[Query]> = trace.chunks(p.pass_len).collect();
    let mut round = 0usize;
    rounds_until(seconds, || {
        // A traced pass answers the same requests as the plain one before it.
        let chunk = chunks[round % chunks.len()];
        round += 1;
        for traced_pass in std::iter::once(false).chain(traced.then_some(true)) {
            let qs = chunk
                .iter()
                .enumerate()
                .map(|(i, q)| (pass * 1_000_003 + i as u64, q));
            let t = traced_pass.then_some(&tr);
            answer_block(
                &mut engine,
                qs,
                t,
                &mut stats,
                &mut samples,
                seed,
                &mut o,
                "serve.pass",
            );
            pass += 1;
        }
    });
    let mut reference = Engine::new(
        TuckerStore::from_tucker(tucker),
        EngineConfig {
            cache_budget: 0,
            ..EngineConfig::default()
        },
    );
    for v in check_samples(&mut reference, &samples, "query") {
        o.ledger.op(v);
    }
    o.notes.push(format!(
        "{} sampled answers checked against a cache-free engine",
        samples.len()
    ));
    if !traced {
        push_end_to_end(&mut o, &setup, &stats.lat_s);
        return o;
    }
    push_query_layers(&mut o, &stats, true);
    let plain = stats.busy_s / stats.lat_s.len().max(1) as f64;
    let traced_mean = stats.traced_busy_s / stats.traced_count.max(1) as f64;
    push_trace_health(
        &mut o,
        &tr,
        traced_mean / plain - 1.0,
        tr.leaf_unexplained("serve.pass"),
    );
    o
}

// ------------------------------------------------------------------ update

/// Shape of the `update` workload: a `[rows, d, d]` stream whose time mode
/// (mode 0) grows by `slab_rows` per append.
#[derive(Clone, Debug)]
pub struct UpdateParams {
    pub initial_rows: usize,
    pub slab_rows: usize,
    pub d: usize,
    pub rank: usize,
    /// Queries answered after each swap.
    pub block: usize,
}

impl UpdateParams {
    pub fn full() -> Self {
        UpdateParams {
            initial_rows: 96,
            slab_rows: 16,
            d: 40,
            rank: 8,
            block: 100,
        }
    }

    pub fn tiny() -> Self {
        UpdateParams {
            initial_rows: 24,
            slab_rows: 8,
            d: 12,
            rank: 3,
            block: 20,
        }
    }
}

/// The append order of one cycle, one slab per drift band: pure noise
/// (drift near 1, Full), model rows plus noise (drift near 0.25, Refresh),
/// then model rows (drift near the model noise, Fast).
pub const CYCLE: [UpdatePath; 3] = [UpdatePath::Full, UpdatePath::Refresh, UpdatePath::Fast];

/// The paths one cycle took must be exactly [`CYCLE`].
pub fn paths_verdict(taken: &[UpdatePath]) -> Verdict {
    if taken == CYCLE {
        Verdict::Pass
    } else {
        Verdict::Wrong(format!("update: paths {taken:?}, expected {CYCLE:?}"))
    }
}

/// Final incremental error over recompute error, gated at 1.1.
pub fn err_ratio_verdict(ratio: f64) -> Verdict {
    if ratio.is_finite() && ratio <= 1.1 {
        Verdict::Pass
    } else {
        Verdict::Bound("update: incremental error above 1.1x the recompute error".into())
    }
}

/// Uniform value in [-0.5, 0.5) from a counter hash.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (splitmix64_at(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Rows `[from, from + rows)` of a rank-`r` model with geometrically
/// decaying terms plus noise of relative size 1e-4.
fn model_rows(p: &UpdateParams, seed: u64, from: usize, rows: usize) -> Tensor<f64> {
    let d = p.d;
    let factor = |mode: u64, n: usize| {
        Matrix::from_fn(n, p.rank, |i, t| {
            unit(seed.wrapping_add(101 * mode), i as u64, t as u64)
        })
    };
    let (b, c) = (factor(1, d), factor(2, d));
    Tensor::from_fn(&[rows, d, d], |idx| {
        let row = (from + idx[0]) as u64;
        let mut v = 0.0;
        for t in 0..p.rank {
            v +=
                0.5f64.powi(t as i32) * unit(seed, row, t as u64) * b[(idx[1], t)] * c[(idx[2], t)];
        }
        let lin = (row * d as u64 + idx[1] as u64) * d as u64 + idx[2] as u64;
        v + 1e-4 * unit(seed ^ 0x00FF_00FF, lin, 2)
    })
}

/// Noise rows scaled to `scale` times `like`'s norm.
fn noise_like(like: &Tensor<f64>, seed: u64, scale: f64) -> Tensor<f64> {
    let mut lin = 0u64;
    let mut n = Tensor::from_fn(like.dims(), |_| {
        lin += 1;
        unit(seed ^ 0xA5A5_5A5A, lin, 3)
    });
    let k = scale * like.norm() / n.norm();
    n.data_mut().iter_mut().for_each(|v| *v *= k);
    n
}

fn add(a: &Tensor<f64>, b: &Tensor<f64>) -> Tensor<f64> {
    Tensor::from_data(
        a.dims(),
        a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect(),
    )
}

struct UpdateInputs {
    initial: TuckerTensor<f64>,
    history: Tensor<f64>,
    slabs: Vec<Tensor<f64>>,
    cfg: StreamConfig,
    queries: Vec<Query>,
    engine: Engine<f64>,
}

/// Per-path step times of the plain cycles, append times of the traced ones.
#[derive(Default)]
struct UpdateLayers {
    step_ms: BTreeMap<&'static str, Vec<f64>>,
    append_ms: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    drift: BTreeMap<&'static str, f64>,
    plain_cycle_s: Vec<f64>,
    traced_cycle_s: Vec<f64>,
    /// Seconds each plain cycle spent in its steps and queries, without
    /// the checks.
    busy_cycle_s: Vec<f64>,
}

/// A work file under the benchmark's output directory, removed on drop.
struct WorkFile(PathBuf);

impl WorkFile {
    fn new(tag: &str) -> std::io::Result<WorkFile> {
        let dir = crate::report::out_dir().join("work");
        std::fs::create_dir_all(&dir)?;
        Ok(WorkFile(
            dir.join(format!("{tag}-{}.tkr", std::process::id())),
        ))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The history a cycle ends with: the initial rows and every slab.
fn full_history(inp: &UpdateInputs) -> Tensor<f64> {
    inp.slabs
        .iter()
        .fold(inp.history.clone(), |h, s| append_dense(&h, s, 0))
}

/// The `update` workload. One operation is a cycle: three appends, each
/// published, reopened, swapped in and queried.
pub fn run_update(p: &UpdateParams, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let file = match WorkFile::new("update") {
        Ok(f) => f,
        Err(e) => {
            o.ledger.op(Verdict::Wrong(format!(
                "update: cannot create the work file: {e}"
            )));
            return o;
        }
    };
    let (mut inp, setup) = repeated_setup(|| {
        let t0 = p.initial_rows;
        let s = p.slab_rows;
        let x0 = model_rows(p, seed, 0, t0);
        let full = noise_like(&model_rows(p, seed, t0, s), seed, 0.3);
        let refresh_model = model_rows(p, seed, t0 + s, s);
        let refresh = add(
            &refresh_model,
            &noise_like(&refresh_model, seed.wrapping_add(1), 0.25),
        );
        let fast = model_rows(p, seed, t0 + 2 * s, s);
        let svd = SthosvdConfig::with_ranks(vec![p.rank; 3]);
        let cfg = StreamConfig::new(0, svd.clone());
        let initial = tucker_core::sthosvd(&x0, &svd).expect("initial compression");
        let wl = WorkloadConfig {
            dims: vec![t0, p.d, p.d],
            ranks: vec![p.rank; 3],
            requests: 3 * p.block * 8,
            seed,
            ..WorkloadConfig::default()
        };
        let queries = synthetic_trace(&wl).into_iter().map(|r| r.query).collect();
        let engine = Engine::new(
            TuckerStore::from_tucker(initial.clone()),
            EngineConfig::default(),
        );
        UpdateInputs {
            initial,
            history: x0,
            slabs: vec![full, refresh, fast],
            cfg,
            queries,
            engine,
        }
    });

    let tr = Tracer::default();
    let mut qstats = QueryStats::default();
    let mut layers = UpdateLayers::default();
    let mut first_final: Option<(TuckerTensor<f64>, Verdict, f64)> = None;
    let mut next_query = 0usize;
    let mut generation = 0u64;
    rounds_until(seconds, || {
        for traced_cycle in std::iter::once(false).chain(traced.then_some(true)) {
            let t_cycle = Instant::now();
            let t = traced_cycle.then_some(&tr);
            let state = StreamState::from_parts(
                inp.initial.clone(),
                generation,
                inp.cfg.clone(),
                Some(inp.history.clone()),
            );
            let mut state = match state {
                Ok(s) => s,
                Err(e) => {
                    o.ledger
                        .op(Verdict::Wrong(format!("update: stream state: {e}")));
                    return;
                }
            };
            let mut taken = Vec::new();
            let mut busy = 0.0;
            for slab in &inp.slabs {
                // Append, publish, reopen and swap: the time until the new
                // generation can answer queries.
                let started = Instant::now();
                let step = span_if(t, "update.step", || -> Result<_, String> {
                    let t_append = Instant::now();
                    let report = span_if(t, "stream.append", || state.append(slab));
                    let append_ms = t_append.elapsed().as_secs_f64() * 1e3;
                    let report = report.map_err(|e| format!("append: {e}"))?;
                    span_if(t, "core.publish", || state.publish(file.path()))
                        .map_err(|e| format!("publish: {e}"))?;
                    let store = span_if(t, "serve.open", || TuckerStore::<f64>::open(file.path()))
                        .map_err(|e| format!("open: {e}"))?;
                    span_if(t, "serve.swap", || inp.engine.swap_store(store));
                    Ok((report, append_ms))
                });
                let step_s = started.elapsed().as_secs_f64();
                if !traced_cycle {
                    crate::calib::tick();
                }
                let step_ms = step_s * 1e3;
                let (report, append_ms) = match step {
                    Ok(r) => r,
                    Err(e) => {
                        o.ledger.op(Verdict::Wrong(format!("update: {e}")));
                        continue;
                    }
                };
                o.ledger
                    .op(if inp.engine.store().generation() == report.generation {
                        Verdict::Pass
                    } else {
                        Verdict::Wrong("update: swapped store has the wrong generation".into())
                    });
                taken.push(report.path);
                let label = report.path.label();
                *layers.counts.entry(label).or_default() += 1.0;
                layers.drift.insert(label, report.drift);
                let by_path = if traced_cycle {
                    &mut layers.append_ms
                } else {
                    &mut layers.step_ms
                };
                by_path.entry(label).or_default().push(if traced_cycle {
                    append_ms
                } else {
                    step_ms
                });

                // Queries against the new generation; afterwards a fresh
                // engine on the published file answers the sampled ones.
                let n = inp.queries.len();
                let qs =
                    (next_query..next_query + p.block).map(|k| (k as u64, &inp.queries[k % n]));
                let mut samples = Vec::new();
                let queries_before = qstats.busy_s;
                answer_block(
                    &mut inp.engine,
                    qs,
                    t,
                    &mut qstats,
                    &mut samples,
                    seed,
                    &mut o,
                    "update.queries",
                );
                next_query += p.block;
                busy += step_s + (qstats.busy_s - queries_before);
                match TuckerStore::<f64>::open(file.path()) {
                    Ok(store) => {
                        let mut fresh = Engine::new(store, EngineConfig::default());
                        for v in check_samples(&mut fresh, &samples, "update") {
                            o.ledger.op(v);
                        }
                    }
                    Err(e) => o
                        .ledger
                        .op(Verdict::Wrong(format!("update: reopen failed: {e}"))),
                }
            }
            generation = state.generation();
            o.ledger.op(paths_verdict(&taken));
            // Every cycle appends the same slabs to the same start, so a
            // final decomposition bit-identical to the first cycle's shares
            // its error check.
            let final_tk = state.into_tucker();
            let verdict = match &first_final {
                Some((tk, v, _)) if identical(tk, &final_tk) => v.clone(),
                _ => {
                    let history = full_history(&inp);
                    let inc = final_tk.relative_error(&history);
                    let rec = tucker_core::sthosvd(&history, &inp.cfg.svd)
                        .map_or(f64::NAN, |tk| tk.relative_error(&history));
                    let ratio = inc / rec;
                    let v = err_ratio_verdict(ratio);
                    if first_final.is_none() {
                        first_final = Some((final_tk, v.clone(), ratio));
                    }
                    v
                }
            };
            o.ledger.op(verdict);
            let secs = t_cycle.elapsed().as_secs_f64();
            if traced_cycle {
                layers.traced_cycle_s.push(secs);
            } else {
                layers.plain_cycle_s.push(secs);
                layers.busy_cycle_s.push(busy);
            }
        }
    });

    let ratio = first_final.as_ref().map_or(f64::NAN, |f| f.2);
    o.notes
        .push(format!("slab drift by path: {:?}", layers.drift));
    o.notes.push(format!("stream.err_ratio {ratio:.4}"));
    if !traced {
        push_end_to_end(&mut o, &setup, &layers.busy_cycle_s);
        return o;
    }
    o.push(Metric::derived("stream.err_ratio", "ratio", ratio, 1));
    for path in CYCLE {
        let lb = path.label();
        let xs = layers.step_ms.get(lb).map_or(&[][..], |v| v);
        o.push(Metric::median(format!("stream.{lb}_step_ms"), "ms", xs));
        let xs = layers.append_ms.get(lb).map_or(&[][..], |v| v);
        o.push(Metric::median(format!("stream.{lb}_append_ms"), "ms", xs));
        let count = layers.counts.get(lb).copied().unwrap_or(0.0);
        o.push(Metric::derived(
            format!("stream.{lb}_count"),
            "count",
            count,
            1,
        ));
    }
    let ms = |name: &str| {
        tr.durations(name)
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<_>>()
    };
    o.push(Metric::median("core.publish_ms", "ms", &ms("core.publish")));
    o.push(Metric::median("serve.open_ms", "ms", &ms("serve.open")));
    o.push(Metric::median("serve.swap_ms", "ms", &ms("serve.swap")));
    push_query_layers(&mut o, &qstats, false);
    let overhead =
        quantile(&layers.traced_cycle_s, 0.5) / quantile(&layers.plain_cycle_s, 0.5) - 1.0;
    let worst = tr
        .leaf_unexplained("update.step")
        .max(tr.leaf_unexplained("update.queries"));
    push_trace_health(&mut o, &tr, overhead, worst);
    o
}
