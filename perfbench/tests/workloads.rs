//! Every workload, run briefly in both modes: the run prints exactly the
//! metrics `BENCHMARK.json` lists, every operation passes its checks, and
//! the default seed reproduces the committed digests traced and untraced.

use std::path::{Path, PathBuf};
use uvf_accel::{mitigation_shootout, Mitigation, ShootoutConfig};
use uvf_perfbench::fixture::{self, CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C};
use uvf_perfbench::runner::{run, RunConfig, Workload};
use uvf_perfbench::spec::{CommittedDigests, Spec};
use uvf_perfbench::workloads::{Accelerator, Characterize, Serve};
use uvf_trace::Tracer;

fn check_workload<W: Workload>() {
    let spec = Spec::load(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json");
    let committed = CommittedDigests::load(Path::new("digests.json")).expect("digests.json");
    let cfg = RunConfig {
        seed: committed.seed,
        seconds: 0.2,
        out_dir: PathBuf::from(".bench_out").join(format!("test-{}", W::NAME)),
    };
    for (trace, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
        let out = run::<W>(&cfg, trace, wanted, Some(&committed)).expect("run");
        assert!(out.correct, "{}: {:?}", W::NAME, out.log);
        assert_eq!(out.tally.failed, 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, listed);
        assert_eq!(
            Some(out.digests.as_slice()),
            committed.for_workload(W::NAME),
            "{} digests drifted from perfbench/digests.json",
            W::NAME
        );
        if trace {
            let layers = &out.artifacts[0].1;
            assert!(layers.contains("Component"), "{layers}");
        }
    }
}

#[test]
fn characterize_emits_every_metric() {
    check_workload::<Characterize>();
}

#[test]
fn accelerator_emits_every_metric() {
    check_workload::<Accelerator>();
}

#[test]
fn serve_emits_every_metric() {
    check_workload::<Serve>();
}

/// The workload measures the network `repro --quick` reports: its clean
/// error and the quick shoot-out's recovery floors.
#[test]
fn fixture_is_the_quick_repro_network() {
    let fx = fixture::build(&Tracer::disabled());
    assert!(
        (fx.nominal_error - 0.0288).abs() < 1e-12,
        "{}",
        fx.nominal_error
    );
    let cfg = ShootoutConfig::vc707_default(
        CHIP_SEED,
        EVAL_RUN_SEED,
        EVAL_TEMPERATURE_C,
        fx.weights.len() - 1,
    );
    let report = mitigation_shootout(&cfg, &fx.qnet, &fx.weights, &fx.data).expect("shoot-out");
    let floor = |m| report.curve(m).recovery_floor_mv(0.0);
    assert_eq!(floor(Mitigation::None), Some(570));
    assert_eq!(floor(Mitigation::Ecc), Some(530));
    assert_eq!(floor(Mitigation::Icbp), Some(540));
    assert_eq!(floor(Mitigation::EccIcbp), Some(530));
}
