//! Golden-vector tests for the byte-stable sinks.
//!
//! The JSONL event log and the Prometheus exposition are *interfaces*:
//! downstream tooling parses them, and the run manifests point at them by
//! path. These tests pin their exact bytes against checked-in vectors
//! under `tests/data/`, so any serialization drift — field order, number
//! formatting, a renamed event — fails loudly instead of silently
//! breaking replay tooling.
//!
//! Regenerate the vectors after an *intentional* format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p uvf-trace --test golden_sinks
//! ```
//!
//! and review the diff like any other API change.

use std::path::PathBuf;
use std::sync::Arc;

use uvf_characterize::prelude::{Harness, RecoveryPolicy, SweepConfig, Tracer};
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};
use uvf_trace::{parse_exposition, JsonlSink, PrometheusSink};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Compare `actual` against the golden file, or rewrite the golden when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        println!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", name));
    if expected != actual {
        // Locate the first divergent line for a readable failure.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "{name}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "{name}: line counts differ",
        );
        panic!("{name}: bytes differ only in line endings or trailing data");
    }
}

/// The JSONL log of a small fixed sweep, byte for byte. The sink omits
/// `Timing` events and the `wall_ns` annex by design, so an identical
/// sweep must produce an identical log file.
#[test]
fn jsonl_log_of_a_fixed_sweep_is_golden() {
    let kind = PlatformKind::Zc702;
    let platform = kind.descriptor();
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(platform.vccbram.vmin.0 + 20))
        .build();
    let log = std::env::temp_dir().join(format!("uvf-golden-sweep-{}.jsonl", std::process::id()));
    let sink = Arc::new(JsonlSink::create(&log).expect("create log"));
    let tracer = Tracer::builder().sink(sink).build();
    let mut harness = Harness::new(Board::new(platform), cfg, RecoveryPolicy::default())
        .expect("valid config")
        .with_tracer(tracer.clone());
    harness.run().expect("sweep completes");
    tracer.flush();
    let actual = std::fs::read_to_string(&log).expect("read log");
    std::fs::remove_file(&log).ok();
    assert!(!actual.is_empty(), "sweep produced no events");
    assert_golden("sweep_zc702.jsonl", &actual);
}

/// The Prometheus exposition over a scripted, fully deterministic event
/// sequence (counters and fixed-duration timings — span-end wall clocks
/// are nondeterministic by nature and excluded on purpose).
#[test]
fn prometheus_exposition_of_scripted_events_is_golden() {
    let prom = Arc::new(PrometheusSink::new());
    let tracer = Tracer::builder().sink(prom.clone()).build();
    for _ in 0..5 {
        tracer.counter("runs", 1);
    }
    tracer.counter("faults", 1234);
    tracer.counter("power_cycles", 2);
    // One sample per histogram decade the fixed buckets distinguish.
    for ns in [900, 9_000, 90_000, 900_000, 9_000_000] {
        tracer.timing("bram_scan", ns, 64);
    }
    tracer.timing("bram_scan", 900, 64);
    tracer.flush();
    let actual = prom.render();
    parse_exposition(&actual).expect("exposition parses");
    assert_golden("scripted.prom", &actual);
}

/// The mitigation counters (`uvf_ecc_corrected_total`,
/// `uvf_ecc_escaped_total`) in both sinks, over the scripted sequence an
/// ECC-mode read-back emits per ladder rung: two counters plus a census
/// instant. New series are an interface too — dashboards sum the
/// corrected/escaped rates — so their names and rendering are pinned
/// here like the rest.
#[test]
fn ecc_mitigation_counters_are_golden_in_both_sinks() {
    let log = std::env::temp_dir().join(format!("uvf-golden-ecc-{}.jsonl", std::process::id()));
    let jsonl = Arc::new(JsonlSink::create(&log).expect("create log"));
    let prom = Arc::new(PrometheusSink::new());
    let tracer = Tracer::builder().sink(jsonl).sink(prom.clone()).build();
    // Three ladder rungs, as the shoot-out reports them: corrections
    // grow down the rail, escapes wake up near Vcrash.
    for (v_mv, corrected, escaped) in [(560u64, 41u64, 0u64), (550, 388, 3), (540, 3120, 95)] {
        tracer.counter("ecc_corrected", corrected);
        tracer.counter("ecc_escaped", escaped);
        tracer.instant(
            "ecc_census_level",
            vec![
                ("platform", "vc707".to_string().into()),
                ("v_mv", v_mv.into()),
                ("corrected", corrected.into()),
                ("escaped", escaped.into()),
            ],
        );
    }
    tracer.flush();
    let actual_log = std::fs::read_to_string(&log).expect("read log");
    std::fs::remove_file(&log).ok();
    assert_golden("ecc_counters.jsonl", &actual_log);

    let exposition = prom.render();
    parse_exposition(&exposition).expect("exposition parses");
    // The self-documenting totals the issue pins by name.
    assert!(exposition.contains("uvf_ecc_corrected_total 3549"));
    assert!(exposition.contains("uvf_ecc_escaped_total 98"));
    assert_golden("ecc_counters.prom", &exposition);
}

/// The aggregated *fleet* exposition over a scripted three-worker event
/// sequence: counters summed across workers, the shared histogram
/// bucket-merged (one sample per decade from each worker, shifted so the
/// merge is visible in the bucket counts), gauges last-write-wins per
/// worker with a `worker="N"` label, plus the server-level series the
/// campaign observatory adds on top.
#[test]
fn aggregated_fleet_exposition_is_golden() {
    use uvf_trace::{Event, EventKind};
    let agg = PrometheusSink::new();
    let scripted = |kind: EventKind, name: &'static str| Event {
        seq: 0,
        kind,
        name: name.into(),
        span: None,
        parent: None,
        sim_ms: None,
        wall_ns: None,
        fields: Vec::new(),
    };
    for (i, worker) in [41u64, 42, 43].iter().enumerate() {
        agg.record_from(
            *worker,
            &scripted(
                EventKind::Counter {
                    delta: 100 + i as u64,
                },
                "runs",
            ),
        );
        agg.record_from(
            *worker,
            &scripted(EventKind::Counter { delta: 7 }, "faults"),
        );
        agg.record_from(
            *worker,
            &scripted(
                EventKind::Gauge {
                    value: 540 + 10 * i as u64,
                },
                "v_mv",
            ),
        );
        for ns in [900u64, 9_000, 90_000, 900_000, 9_000_000] {
            agg.record_from(
                *worker,
                &scripted(
                    EventKind::Timing {
                        ns: ns << i,
                        ops: 64,
                    },
                    "bram_scan",
                ),
            );
        }
    }
    agg.add("jobs_done", 3);
    agg.set_gauge("fvm_cache_size", 5);
    agg.set_worker_gauge("worker_liveness", 41, 1);
    agg.set_worker_gauge("worker_liveness", 42, 1);
    agg.set_worker_gauge("worker_liveness", 43, 0);
    agg.observe_ns("queue_wait", 2_000);
    agg.observe_ns("queue_wait", 3_000_000);
    let actual = agg.render();
    parse_exposition(&actual).expect("fleet exposition parses");
    assert_golden("fleet.prom", &actual);
}
