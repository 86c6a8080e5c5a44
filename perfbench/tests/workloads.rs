//! The benchmark's own tests: `BENCHMARK.json` declares what the code
//! reports, every workload emits every declared metric, every output check
//! fires on a corrupted result, and the traced trees reconcile.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use perfbench::compress::{error_verdict, identical, recompose, to_f64, CompressParams, Variant};
use perfbench::report::{Outcome, Verdict};
use perfbench::serving::{check_samples, err_ratio_verdict, paths_verdict, Sample, CYCLE};
use perfbench::trace::{Tracer, RESIDUAL};
use perfbench::{end_to_end, per_layer, run, Declared, Scale, WORKLOADS};
use tucker_core::{sthosvd_with_info, ModeOrder, SthosvdConfig, SvdMethod};
use tucker_serve::{synthetic_store, Engine, EngineConfig, ModeSel, Query, TuckerStore};
use tucker_stream::UpdatePath;
use tucker_tensor::Tensor;

/// String value of `"key": "..."` in `item`.
fn field<'a>(item: &'a str, key: &str) -> &'a str {
    let at = item.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
    &item[at..at + item[at..].find('"').expect("value closes")]
}

/// One metric list (`end_to_end` or `per_layer`) of BENCHMARK.json.
fn manifest(list: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|item| {
            let (n, u, b) = (
                field(item, "name"),
                field(item, "unit"),
                field(item, "better"),
            );
            (n.to_string(), u.to_string(), b.to_string())
        })
        .collect()
}

fn as_manifest(d: Vec<Declared>) -> Vec<(String, String, String)> {
    d.into_iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (d.name, d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    assert_eq!(manifest("end_to_end"), as_manifest(end_to_end()));
    assert_eq!(manifest("per_layer"), as_manifest(per_layer()));
}

/// Names of `o`'s metrics, checked finite; with `measured`, the ones read
/// from at least one sample.
fn emitted(o: &Outcome, measured: bool) -> Vec<String> {
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    o.metrics
        .iter()
        .filter(|m| !measured || m.samples > 0)
        .map(|m| m.name.clone())
        .collect()
}

#[test]
fn tiny_runs_emit_every_declared_metric() {
    let names = |d: Vec<Declared>| d.into_iter().map(|d| d.name).collect::<Vec<_>>();
    let mut layers = BTreeSet::new();
    for w in WORKLOADS {
        let plain = run(w, Scale::Tiny, 3, 0.05, false).expect("known workload");
        let traced = run(w, Scale::Tiny, 3, 0.05, true).expect("known workload");
        assert!(
            plain.ledger.attempted > 0 && traced.ledger.attempted > 0,
            "{w}"
        );
        // Traced tiny runs may not reconcile: fixed costs dominate there.
        assert!(plain.ledger.exact_ok, "{w}: {:?}", plain.ledger.failures);
        // Every workload measures every end-to-end metric, never as 0.
        assert_eq!(emitted(&plain, true), names(end_to_end()), "{w}");
        assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{w}");
        assert_eq!(emitted(&traced, false), names(per_layer()), "{w}");
        layers.extend(emitted(&traced, true));
    }
    // Each per-layer metric is measured by some workload.
    assert_eq!(layers, names(per_layer()).into_iter().collect());
}

/// At the benchmark's own shapes (one round each), so it takes a while.
#[test]
fn traced_trees_reconcile_within_the_residual() {
    for w in WORKLOADS {
        let o = run(w, Scale::Full, 5, 0.01, true).expect("known workload");
        let share = o.get("trace.unexplained_share").expect("reported").value;
        assert!(share <= RESIDUAL, "{w}: {share}");
        assert!(o.ledger.exact_ok, "{w}: {:?}", o.ledger.failures);
    }
}

fn small_tensor() -> Tensor<f64> {
    tucker_data::sp_surrogate(&[8, 8, 8, 4, 5], 9)
}

#[test]
fn accuracy_check_fires_on_a_corrupted_decomposition() {
    let x = small_tensor();
    let cfg = SthosvdConfig::with_tolerance(1e-4).order(ModeOrder::Backward);
    let tk = to_f64(&sthosvd_with_info(&x, &cfg).unwrap().tucker);
    let err = tk.relative_error(&x);
    assert_eq!(error_verdict("qr_f64", err, 1e-4), Verdict::Pass);
    let mut bad = tk.clone();
    bad.core.data_mut()[0] *= 1.01;
    let err = bad.relative_error(&x);
    assert!(matches!(
        error_verdict("qr_f64", err, 1e-4),
        Verdict::Bound(_)
    ));
}

#[test]
fn recomposition_is_bit_identical_and_the_check_sees_one_ulp() {
    let x = small_tensor();
    let x32 = x.cast::<f32>();
    let tr = Tracer::default();
    for v in [
        Variant::GRAM_F64,
        Variant::QR_F64,
        Variant::GRAM_F32,
        Variant::QR_F32,
    ] {
        let cfg = SthosvdConfig::with_tolerance(CompressParams::tiny().eps)
            .method(v.method)
            .order(ModeOrder::Backward);
        let (plain, rebuilt) = if v.single {
            let p = to_f64(&sthosvd_with_info(&x32, &cfg).unwrap().tucker);
            (p, to_f64(&recompose(&x32, &cfg, &tr, v.label()).unwrap().0))
        } else {
            let p = to_f64(&sthosvd_with_info(&x, &cfg).unwrap().tucker);
            (p, to_f64(&recompose(&x, &cfg, &tr, v.label()).unwrap().0))
        };
        assert!(identical(&plain, &rebuilt), "{}", v.label());
        let mut bad = rebuilt;
        let u = &mut bad.factors[1];
        u[(0, 0)] = f64::from_bits(u[(0, 0)].to_bits() ^ 1);
        assert!(!identical(&plain, &bad), "{}", v.label());
    }
    assert_eq!(SvdMethod::Qr, Variant::QR_F32.method);
}

fn engine(cache_budget: usize) -> Engine<f64> {
    let tk = synthetic_store::<f64>(&[64, 10, 8], &[6, 5, 4]);
    Engine::new(
        TuckerStore::from_tucker(tk),
        EngineConfig {
            cache_budget,
            ..EngineConfig::default()
        },
    )
}

#[test]
fn answer_check_fires_on_a_corrupted_checksum() {
    let q = Query {
        sel: vec![
            ModeSel::Range(0, 32),
            ModeSel::Index(3),
            ModeSel::Range(1, 5),
        ],
    };
    let mut served = engine(64 << 20);
    let crc = tucker_serve::tensor_crc(&served.execute(&q).unwrap().tensor);
    let good = [Sample {
        query: q.clone(),
        crc,
    }];
    let bad = [Sample {
        query: q,
        crc: crc ^ 1,
    }];
    let mut reference = engine(0);
    assert_eq!(
        check_samples(&mut reference, &good, "query"),
        vec![Verdict::Pass]
    );
    assert!(matches!(
        check_samples(&mut reference, &bad, "query")[0],
        Verdict::Wrong(_)
    ));
}

#[test]
fn update_checks_fire_on_wrong_paths_and_ratios() {
    assert_eq!(paths_verdict(&CYCLE), Verdict::Pass);
    let fast_only = [UpdatePath::Fast, UpdatePath::Fast, UpdatePath::Fast];
    assert!(matches!(paths_verdict(&fast_only), Verdict::Wrong(_)));
    assert_eq!(err_ratio_verdict(1.02), Verdict::Pass);
    assert!(matches!(err_ratio_verdict(1.2), Verdict::Bound(_)));
    assert!(matches!(err_ratio_verdict(f64::NAN), Verdict::Bound(_)));
}

#[test]
fn reconciliation_check_fires_on_uncovered_time() {
    let tr = Tracer::default();
    tr.span("root", || {
        tr.span("leaf", || std::hint::black_box((0..1000).sum::<u64>()));
        std::thread::sleep(std::time::Duration::from_millis(20));
    });
    let mut o = Outcome::default();
    perfbench::compress::push_trace_health(&mut o, &tr, 0.0, tr.leaf_unexplained("root"));
    assert!(!o.ledger.exact_ok);
    assert_eq!(o.ledger.failed, 1);
}
