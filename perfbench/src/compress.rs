//! `compress` and `dist-compress`: ST-HOSVD on the paper's surrogates.
//!
//! `compress` runs `sthosvd_with_info` (the `tucker compress` path) on the
//! SP surrogate for all four variants; its traced run rebuilds the per-mode
//! loop from public pieces and proves the rebuild bit-identical, so the
//! layer split describes the same computation. `dist-compress` runs
//! `sthosvd_parallel` on two simulated ranks for the paper's central pair,
//! QR-f32 and Gram-f64, and splits each run with the simulator's own
//! per-phase statistics.

use std::time::Instant;

use tucker_core::svd_driver::{gram_of_unfolding, lq_of_unfolding};
use tucker_core::truncate::{choose_rank, mode_threshold};
use tucker_core::{
    sthosvd_parallel, sthosvd_with_info, ModeOrder, ParallelOutput, SthosvdConfig, SvdMethod,
    Truncation, TuckerTensor,
};
use tucker_dtensor::{DistTensor, ProcessorGrid};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::{perf, svd_left, Matrix, Scalar};
use tucker_mpisim::{RankStats, SimOutput, Simulator, ThreadTopology};
use tucker_tensor::{ttm, Tensor};

use crate::report::{quantile, Metric, Outcome, Verdict};
use crate::trace::{span_if, Tracer};
use crate::{push_end_to_end, repeated_setup, rounds_until};

/// One of the paper's four (algorithm × precision) variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    pub method: SvdMethod,
    pub single: bool,
}

impl Variant {
    pub const GRAM_F64: Variant = Variant {
        method: SvdMethod::Gram,
        single: false,
    };
    pub const GRAM_F32: Variant = Variant {
        method: SvdMethod::Gram,
        single: true,
    };
    pub const QR_F64: Variant = Variant {
        method: SvdMethod::Qr,
        single: false,
    };
    pub const QR_F32: Variant = Variant {
        method: SvdMethod::Qr,
        single: true,
    };

    pub fn label(self) -> &'static str {
        match (self.method, self.single) {
            (SvdMethod::Gram, false) => "gram_f64",
            (SvdMethod::Gram, true) => "gram_f32",
            (SvdMethod::Qr, false) => "qr_f64",
            _ => "qr_f32",
        }
    }

    fn config(self, eps: f64) -> SthosvdConfig {
        SthosvdConfig::with_tolerance(eps)
            .method(self.method)
            .order(ModeOrder::Backward)
    }
}

/// The accuracy check: the achieved error must not exceed ε.
pub fn error_verdict(label: &str, err: f64, eps: f64) -> Verdict {
    if err.is_finite() && err <= eps {
        Verdict::Pass
    } else {
        Verdict::Bound(format!("{label}: relative error above eps={eps:e}"))
    }
}

/// Exact copy of a decomposition in f64 (f32 values widen exactly).
pub fn to_f64<T: Scalar>(tk: &TuckerTensor<T>) -> TuckerTensor<f64> {
    TuckerTensor {
        core: tk.core.cast(),
        factors: tk
            .factors
            .iter()
            .map(|u| Matrix::from_fn(u.rows(), u.cols(), |i, j| u[(i, j)].to_f64()))
            .collect(),
    }
}

/// Bit-for-bit equality of two decompositions.
pub fn identical(a: &TuckerTensor<f64>, b: &TuckerTensor<f64>) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.core.dims() == b.core.dims()
        && same(a.core.data(), b.core.data())
        && a.factors.len() == b.factors.len()
        && a.factors
            .iter()
            .zip(&b.factors)
            .all(|(u, v)| u.rows() == v.rows() && u.cols() == v.cols() && same(u.data(), v.data()))
}

/// Checks one output: the first output of a variant is reconstructed and
/// measured; a later one that is bit-identical to it shares its verdict,
/// any other is measured afresh.
struct Checker {
    eps: f64,
    first: Vec<Option<(TuckerTensor<f64>, f64)>>,
    /// Largest error seen per variant slot.
    worst: Vec<f64>,
}

impl Checker {
    fn new(eps: f64, slots: usize) -> Self {
        Checker {
            eps,
            first: vec![None; slots],
            worst: vec![0.0; slots],
        }
    }

    fn check(
        &mut self,
        slot: usize,
        label: &str,
        x64: &Tensor<f64>,
        tk: TuckerTensor<f64>,
    ) -> Verdict {
        let err = match &self.first[slot] {
            Some((first, err)) if identical(first, &tk) => *err,
            _ => {
                // In f64 against the f64 input, whatever the working precision.
                let err = tk.relative_error(x64);
                if self.first[slot].is_none() {
                    self.first[slot] = Some((tk, err));
                }
                err
            }
        };
        self.worst[slot] = self.worst[slot].max(err);
        error_verdict(label, err, self.eps)
    }

    fn err_ratio(&self) -> f64 {
        self.worst.iter().fold(0.0, |a, &e| a.max(e)) / self.eps
    }
}

// ---------------------------------------------------------------- compress

/// Shape and tolerance of the `compress` workload.
#[derive(Clone, Debug)]
pub struct CompressParams {
    pub dims: Vec<usize>,
    pub eps: f64,
}

impl CompressParams {
    /// The SP surrogate at the fig9 shape, ε = 1e-4.
    pub fn full() -> Self {
        CompressParams {
            dims: vec![36, 36, 36, 11, 20],
            eps: 1e-4,
        }
    }

    pub fn tiny() -> Self {
        CompressParams {
            dims: vec![8, 8, 8, 4, 5],
            eps: 1e-4,
        }
    }
}

pub const SEQ_VARIANTS: [Variant; 4] = [
    Variant::GRAM_F64,
    Variant::GRAM_F32,
    Variant::QR_F64,
    Variant::QR_F32,
];

struct SeqInputs {
    x64: Tensor<f64>,
    x32: Tensor<f32>,
}

/// Per-layer readings of one traced compress.
#[derive(Default)]
struct Layers {
    factor: Vec<f64>,
    gflops: Vec<f64>,
    small_svd: Vec<f64>,
    ttm: Vec<f64>,
    modes: Vec<Vec<f64>>,
    residual: Vec<f64>,
    calls: Vec<f64>,
    traced: Vec<f64>,
}

/// Flops of the factorization of an `m × n` unfolding: the SYRK Gram
/// (`m²n`) or the LQ (`2nm² − ⅔m³` for `m ≤ n`).
pub fn factor_flops(method: SvdMethod, m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    match method {
        SvdMethod::Gram => m * m * n,
        _ if m <= n => 2.0 * n * m * m - 2.0 / 3.0 * m * m * m,
        _ => 2.0 * m * n * n - 2.0 / 3.0 * n * n * n,
    }
}

/// `sthosvd_with_info` rebuilt from its public pieces, one span per layer.
/// Returns the decomposition and the flops of the factorizations.
pub fn recompose<T: Scalar>(
    x: &Tensor<T>,
    cfg: &SthosvdConfig,
    tr: &Tracer,
    label: &str,
) -> tucker_linalg::Result<(TuckerTensor<T>, f64)> {
    cfg.validate()?;
    let Truncation::Tolerance(eps) = cfg.truncation else {
        panic!("the compress workload truncates by tolerance");
    };
    let nmodes = x.ndims();
    let order = cfg.mode_order.resolve(nmodes);
    let (norm_x, mut y) = tr.span(format!("core.{label}.prologue"), || (x.norm(), x.clone()));
    let threshold = mode_threshold(eps, norm_x, nmodes);
    let mut factors: Vec<Option<Matrix<T>>> = (0..nmodes).map(|_| None).collect();
    let mut flops = 0.0;
    for (k, &n) in order.iter().enumerate() {
        tr.span(
            format!("core.{label}.mode{k}"),
            || -> tucker_linalg::Result<()> {
                let m = y.dims()[n];
                flops += factor_flops(cfg.method, m, y.len() / m);
                let (u, sigma) = match cfg.method {
                    SvdMethod::Gram => {
                        let g = tr.span(format!("linalg.{label}.factor"), || {
                            gram_of_unfolding(&y, n)
                        });
                        tr.span(format!("linalg.{label}.small_svd"), || {
                            gram_svd_from_gram(&g)
                        })?
                    }
                    SvdMethod::Qr => {
                        let l = tr.span(format!("linalg.{label}.factor"), || {
                            lq_of_unfolding(&y, n, cfg.tslq)
                        });
                        tr.span(format!("linalg.{label}.small_svd"), || svd_left(l.as_ref()))?
                    }
                    other => panic!("no recomposition for {other:?}"),
                };
                let r_n = choose_rank(&sigma, threshold).min(u.cols());
                let u_n = u.truncate_cols(r_n);
                y = tr.span(format!("tensor.{label}.ttm"), || {
                    ttm(&y, n, u_n.as_ref(), true)
                });
                factors[n] = Some(u_n);
                Ok(())
            },
        )?;
    }
    let factors = factors
        .into_iter()
        .map(|f| f.expect("every mode processed"))
        .collect();
    Ok((TuckerTensor { core: y, factors }, flops))
}

/// Time one `sthosvd_with_info` call.
fn timed_compress<T: Scalar>(x: &Tensor<T>, cfg: &SthosvdConfig) -> (f64, Option<TuckerTensor<T>>) {
    let t = Instant::now();
    let out = sthosvd_with_info(std::hint::black_box(x), cfg);
    let secs = t.elapsed().as_secs_f64();
    (secs, out.ok().map(|o| o.tucker))
}

/// One traced compress: the rebuilt loop under spans and the kernel
/// counters, checked bit-identical against the plain driver's output.
fn traced_compress<T: Scalar>(
    x: &Tensor<T>,
    cfg: &SthosvdConfig,
    tr: &Tracer,
    v: Variant,
    plain: Option<&TuckerTensor<T>>,
    nmodes: usize,
    layers: &mut Layers,
) -> Verdict {
    let label = v.label();
    let spans_before = tr.spans().len();
    perf::enable();
    let t = Instant::now();
    let rebuilt = tr.span(format!("core.{label}.compress"), || {
        recompose(x, cfg, tr, label)
    });
    let total = t.elapsed().as_secs_f64();
    let kernels = perf::drain().unwrap_or_default();
    let Ok((tk, flops)) = rebuilt else {
        return Verdict::Wrong(format!("{label}: rebuilt loop returned an error"));
    };
    let spans = tr.spans().split_off(spans_before);
    let sum = |name: String| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum()
    };
    let factor = sum(format!("linalg.{label}.factor"));
    layers.factor.push(factor);
    layers.gflops.push(flops / factor / 1e9);
    layers
        .small_svd
        .push(sum(format!("linalg.{label}.small_svd")));
    layers.ttm.push(sum(format!("tensor.{label}.ttm")));
    layers.modes.resize(nmodes, Vec::new());
    let mut in_modes = 0.0;
    for (k, mode) in layers.modes.iter_mut().enumerate() {
        let s = sum(format!("core.{label}.mode{k}"));
        in_modes += s;
        mode.push(s);
    }
    layers.residual.push(total - in_modes);
    layers
        .calls
        .push(kernels.values().map(|k| k.calls).sum::<u64>() as f64);
    layers.traced.push(total);
    match plain {
        Some(p) if identical(&to_f64(p), &to_f64(&tk)) => Verdict::Pass,
        _ => Verdict::Wrong(format!(
            "{label}: rebuilt loop differs from sthosvd_with_info"
        )),
    }
}

/// The `compress` workload. One operation is a round: one compress of
/// each variant, in [`SEQ_VARIANTS`] order.
pub fn run_compress(p: &CompressParams, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let (inputs, setup) = repeated_setup(|| {
        let x64: Tensor<f64> = tucker_data::sp_surrogate(&p.dims, seed);
        let x32 = x64.cast::<f32>();
        SeqInputs { x64, x32 }
    });
    let tr = Tracer::default();
    let mut checker = Checker::new(p.eps, SEQ_VARIANTS.len());
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); SEQ_VARIANTS.len()];
    let mut rounds: Vec<f64> = Vec::new();
    let mut layers: Vec<Layers> = SEQ_VARIANTS.iter().map(|_| Layers::default()).collect();
    let mut ranks: Vec<Vec<usize>> = vec![Vec::new(); SEQ_VARIANTS.len()];
    let nmodes = p.dims.len();

    rounds_until(seconds, || {
        let mut round = 0.0;
        for (slot, &v) in SEQ_VARIANTS.iter().enumerate() {
            let cfg = v.config(p.eps);
            let label = v.label();
            macro_rules! one {
                ($x:expr) => {{
                    let (secs, tk) = timed_compress($x, &cfg);
                    crate::calib::tick();
                    plain[slot].push(secs);
                    round += secs;
                    let verdict = match &tk {
                        Some(tk) => {
                            ranks[slot] = tk.ranks();
                            checker.check(slot, label, &inputs.x64, to_f64(tk))
                        }
                        None => {
                            Verdict::Wrong(format!("{label}: sthosvd_with_info returned an error"))
                        }
                    };
                    o.ledger.op(verdict);
                    if traced {
                        let v = traced_compress(
                            $x,
                            &cfg,
                            &tr,
                            v,
                            tk.as_ref(),
                            nmodes,
                            &mut layers[slot],
                        );
                        o.ledger.op(v);
                    }
                }};
            }
            if v.single {
                one!(&inputs.x32)
            } else {
                one!(&inputs.x64)
            }
        }
        rounds.push(round);
    });

    for (slot, v) in SEQ_VARIANTS.iter().enumerate() {
        o.notes
            .push(format!("{}: ranks {:?}", v.label(), ranks[slot]));
    }
    for (slot, v) in SEQ_VARIANTS.iter().enumerate() {
        o.notes.push(format!(
            "core.{}.compress_s {:.6}",
            v.label(),
            quantile(&plain[slot], 0.5)
        ));
    }
    o.notes.push(format!(
        "core.compress_err_ratio {:.4}",
        checker.err_ratio()
    ));
    if !traced {
        push_end_to_end(&mut o, &setup, &rounds);
        return o;
    }
    for (slot, v) in SEQ_VARIANTS.iter().enumerate() {
        let l = &layers[slot];
        let lb = v.label();
        o.push(Metric::median(
            format!("core.{lb}.compress_s"),
            "s",
            &plain[slot],
        ));
        o.push(Metric::median(
            format!("linalg.{lb}.factor_s"),
            "s",
            &l.factor,
        ));
        o.push(Metric::median(
            format!("linalg.{lb}.factor_gflops"),
            "GF/s",
            &l.gflops,
        ));
        o.push(Metric::median(
            format!("linalg.{lb}.small_svd_s"),
            "s",
            &l.small_svd,
        ));
        o.push(Metric::median(format!("tensor.{lb}.ttm_s"), "s", &l.ttm));
        for (k, m) in l.modes.iter().enumerate() {
            o.push(Metric::median(format!("core.{lb}.mode{k}_s"), "s", m));
        }
        o.push(Metric::median(
            format!("core.{lb}.residual_s"),
            "s",
            &l.residual,
        ));
        o.push(Metric::median(
            format!("linalg.{lb}.kernel_calls"),
            "count",
            &l.calls,
        ));
    }
    o.push(Metric::derived(
        "core.compress_err_ratio",
        "ratio",
        checker.err_ratio(),
        SEQ_VARIANTS.len(),
    ));
    let traced_sum: f64 = layers.iter().map(|l| quantile(&l.traced, 0.5)).sum();
    let plain_sum: f64 = plain.iter().map(|s| quantile(s, 0.5)).sum();
    let worst = SEQ_VARIANTS
        .iter()
        .map(|v| tr.leaf_unexplained(&format!("core.{}.compress", v.label())))
        .fold(0.0, f64::max);
    push_trace_health(&mut o, &tr, traced_sum / plain_sum - 1.0, worst);
    o
}

/// The traced run's health: tracing overhead (traced over plain, minus
/// one), the reconciliation check on the largest share of a root's run
/// total that its layer tree leaves unexplained, and the spans for the run
/// record.
pub fn push_trace_health(o: &mut Outcome, tr: &Tracer, overhead: f64, worst: f64) {
    o.ledger.op(if worst <= crate::trace::RESIDUAL {
        Verdict::Pass
    } else {
        Verdict::Wrong(format!(
            "layer tree leaves {:.1}% of its root's time unexplained (limit {:.0}%)",
            worst * 100.0,
            crate::trace::RESIDUAL * 100.0
        ))
    });
    o.push(Metric::derived("trace.overhead", "ratio", overhead, 1));
    o.push(Metric::derived(
        "trace.unexplained_share",
        "ratio",
        worst,
        1,
    ));
    o.spans = Some(tr.to_json());
}

// ----------------------------------------------------------- dist-compress

/// Shape, tolerance and grids of the `dist-compress` workload.
#[derive(Clone, Debug)]
pub struct DistParams {
    pub dims: Vec<usize>,
    pub eps: f64,
    pub qr_grid: Vec<usize>,
    pub gram_grid: Vec<usize>,
}

impl DistParams {
    /// The HCCI surrogate at the fig8 shape, ε = 1e-4, QR-f32 on
    /// `[2,1,1,1]` and Gram-f64 on `[1,1,1,2]`.
    pub fn full() -> Self {
        DistParams {
            dims: vec![60, 60, 33, 60],
            eps: 1e-4,
            qr_grid: vec![2, 1, 1, 1],
            gram_grid: vec![1, 1, 1, 2],
        }
    }

    pub fn tiny() -> Self {
        DistParams {
            dims: vec![12, 12, 8, 12],
            ..Self::full()
        }
    }
}

pub const DIST_VARIANTS: [Variant; 2] = [Variant::QR_F32, Variant::GRAM_F64];

struct DistInputs {
    x64: Tensor<f64>,
    qr_blocks: Vec<DistTensor<f32>>,
    gram_blocks: Vec<DistTensor<f64>>,
}

fn scatter<T: Scalar>(x: &Tensor<T>, grid: &[usize]) -> Vec<DistTensor<T>> {
    let g = ProcessorGrid::new(grid);
    (0..g.total())
        .map(|r| DistTensor::scatter_from(x, &g, r))
        .collect()
}

/// Assemble the global core from every rank's block.
fn assemble<T: Scalar>(blocks: &[&DistTensor<T>]) -> Tensor<T> {
    let dims = blocks[0].global_dims().to_vec();
    let ranges: Vec<Vec<std::ops::Range<usize>>> = blocks
        .iter()
        .map(|b| (0..dims.len()).map(|n| b.owned_range(n)).collect())
        .collect();
    let mut local = vec![0usize; dims.len()];
    Tensor::from_fn(&dims, |g| {
        let owner = ranges
            .iter()
            .position(|r| r.iter().zip(g).all(|(r, &i)| r.contains(&i)))
            .expect("the blocks tile the core");
        for (n, l) in local.iter_mut().enumerate() {
            *l = g[n] - ranges[owner][n].start;
        }
        blocks[owner].local().get(&local)
    })
}

/// Per-rank results of one simulated run, reduced to the global output.
fn gather_output<T: Scalar>(
    out: &SimOutput<tucker_linalg::Result<ParallelOutput<T>>>,
) -> Option<TuckerTensor<T>> {
    let ok: Vec<&ParallelOutput<T>> = out.results.iter().filter_map(|r| r.as_ref().ok()).collect();
    if ok.len() != out.results.len() {
        return None;
    }
    let cores: Vec<&DistTensor<T>> = ok.iter().map(|r| &r.core).collect();
    Some(TuckerTensor {
        core: assemble(&cores),
        factors: ok[0].factors.clone(),
    })
}

/// Per-layer readings of one simulated run, from the slowest rank's phases.
#[derive(Default)]
struct DistLayers {
    redistribute: Vec<f64>,
    factor: Vec<f64>,
    small_svd: Vec<f64>,
    ttm: Vec<f64>,
    comm: Vec<f64>,
    msgs: Vec<f64>,
    bytes: Vec<f64>,
    modeled: Vec<f64>,
    spawn: Vec<f64>,
    /// Run walls and the part of them the phases above cover, summed.
    run_wall: f64,
    covered: f64,
}

impl DistLayers {
    fn add<R>(&mut self, v: Variant, run_wall: f64, out: &SimOutput<R>) {
        let slowest: &RankStats = out
            .stats
            .iter()
            .max_by(|a, b| a.total.wall.total_cmp(&b.total.wall))
            .expect("at least one rank");
        let wall = |name: &str| slowest.phase(name).map_or(0.0, |p| p.wall);
        let (factor, small, collective) = match v.method {
            SvdMethod::Gram => ("Gram", "EVD", "Gram/allreduce"),
            _ => ("LQ", "SVD", "LQ/reduce"),
        };
        let exchange = wall("Redistribute/exchange");
        let comm = exchange + wall(collective) + wall("TTM/reduce_scatter");
        let redistribute = wall("Redistribute") - exchange;
        let factor_s = wall(factor) - wall("Redistribute") - wall(collective);
        let ttm_s = wall("TTM") - wall("TTM/reduce_scatter");
        let small_svd = wall(small);
        let spawn = run_wall - slowest.total.wall;
        self.redistribute.push(redistribute);
        self.factor.push(factor_s);
        self.small_svd.push(small_svd);
        self.ttm.push(ttm_s);
        self.comm.push(comm);
        self.spawn.push(spawn);
        let b = out.breakdown();
        self.msgs.push(b.total_msgs as f64);
        self.bytes.push(b.total_bytes as f64);
        self.modeled.push(b.modeled_time);
        self.run_wall += run_wall;
        self.covered += spawn + redistribute + factor_s + small_svd + ttm_s + comm;
    }
}

/// One simulated run of `sthosvd_parallel` on `blocks`.
fn dist_op<T: Scalar>(
    blocks: &[DistTensor<T>],
    cfg: &SthosvdConfig,
) -> (f64, SimOutput<tucker_linalg::Result<ParallelOutput<T>>>) {
    let sim = Simulator::new(blocks.len()).with_threads(ThreadTopology::Partitioned);
    let t = Instant::now();
    let out = sim.run(|ctx| sthosvd_parallel(ctx, &blocks[ctx.rank()], cfg));
    (t.elapsed().as_secs_f64(), out)
}

/// The `dist-compress` workload. One operation is a round: one simulated
/// run of each variant, in [`DIST_VARIANTS`] order.
pub fn run_dist(p: &DistParams, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let (inputs, setup) = repeated_setup(|| {
        let x64: Tensor<f64> = tucker_data::hcci_surrogate(&p.dims, seed);
        let qr_blocks = scatter(&x64.cast::<f32>(), &p.qr_grid);
        let gram_blocks = scatter(&x64, &p.gram_grid);
        DistInputs {
            x64,
            qr_blocks,
            gram_blocks,
        }
    });
    let tr = Tracer::default();
    let mut checker = Checker::new(p.eps, DIST_VARIANTS.len());
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); DIST_VARIANTS.len()];
    let mut rounds: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<Vec<f64>> = vec![Vec::new(); DIST_VARIANTS.len()];
    let mut layers: Vec<DistLayers> = DIST_VARIANTS
        .iter()
        .map(|_| DistLayers::default())
        .collect();

    rounds_until(seconds, || {
        let mut round = 0.0;
        for (slot, &v) in DIST_VARIANTS.iter().enumerate() {
            let cfg = v.config(p.eps);
            let label = v.label();
            // A traced round adds a second run under a span, so the
            // overhead of tracing is measured against the plain one.
            for with_span in std::iter::once(false).chain(traced.then_some(true)) {
                macro_rules! one {
                    ($blocks:expr) => {{
                        let span = format!("mpisim.{label}.run");
                        let (wall, out) =
                            span_if(with_span.then_some(&tr), &span, || dist_op($blocks, &cfg));
                        crate::calib::tick();
                        let verdict = match gather_output(&out) {
                            Some(tk) => checker.check(slot, label, &inputs.x64, to_f64(&tk)),
                            None => Verdict::Wrong(format!("{label}: a rank returned an error")),
                        };
                        o.ledger.op(verdict);
                        if with_span {
                            traced_walls[slot].push(wall);
                            layers[slot].add(v, wall, &out);
                        } else {
                            walls[slot].push(wall);
                            round += wall;
                        }
                    }};
                }
                if v.single {
                    one!(&inputs.qr_blocks)
                } else {
                    one!(&inputs.gram_blocks)
                }
            }
        }
        rounds.push(round);
    });

    for (slot, v) in DIST_VARIANTS.iter().enumerate() {
        o.notes.push(format!(
            "mpisim.{}.run_s {:.6}",
            v.label(),
            quantile(&walls[slot], 0.5)
        ));
    }
    o.notes.push(format!(
        "core.compress_err_ratio {:.4}",
        checker.err_ratio()
    ));
    if !traced {
        push_end_to_end(&mut o, &setup, &rounds);
        return o;
    }
    for (slot, v) in DIST_VARIANTS.iter().enumerate() {
        let l = &layers[slot];
        let lb = v.label();
        o.push(Metric::median(
            format!("mpisim.{lb}.run_s"),
            "s",
            &walls[slot],
        ));
        o.push(Metric::median(
            format!("dtensor.{lb}.redistribute_s"),
            "s",
            &l.redistribute,
        ));
        o.push(Metric::median(
            format!("dtensor.{lb}.factor_s"),
            "s",
            &l.factor,
        ));
        o.push(Metric::median(
            format!("dtensor.{lb}.small_svd_s"),
            "s",
            &l.small_svd,
        ));
        o.push(Metric::median(format!("dtensor.{lb}.ttm_s"), "s", &l.ttm));
        o.push(Metric::median(format!("mpisim.{lb}.comm_s"), "s", &l.comm));
        o.push(Metric::median(
            format!("mpisim.{lb}.msgs"),
            "count",
            &l.msgs,
        ));
        o.push(Metric::median(format!("mpisim.{lb}.bytes"), "B", &l.bytes));
        o.push(Metric::median(
            format!("mpisim.{lb}.modeled_s"),
            "s",
            &l.modeled,
        ));
        o.push(Metric::median(
            format!("mpisim.{lb}.spawn_s"),
            "s",
            &l.spawn,
        ));
    }
    o.push(Metric::derived(
        "core.compress_err_ratio",
        "ratio",
        checker.err_ratio(),
        DIST_VARIANTS.len(),
    ));
    let traced_sum: f64 = traced_walls.iter().map(|s| quantile(s, 0.5)).sum();
    let plain_sum: f64 = walls.iter().map(|s| quantile(s, 0.5)).sum();
    let worst = layers
        .iter()
        .map(|l| crate::trace::unexplained(l.run_wall, l.covered))
        .fold(0.0, f64::max);
    push_trace_health(&mut o, &tr, traced_sum / plain_sum - 1.0, worst);
    o
}
