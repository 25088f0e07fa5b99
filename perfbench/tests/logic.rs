//! The benchmark's own logic: percentiles, self time, failure accounting
//! and the metric list.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use uvf_perfbench::layers::LayerSink;
use uvf_perfbench::runner::{
    check_digests, select, timed, OpOutput, RunConfig, Tally, Workload, SHOULD_MOVE,
};
use uvf_perfbench::spec::Spec;
use uvf_perfbench::stats::{median, percentile, samples_beyond};
use uvf_trace::{Event, EventKind, Sink, Tracer};

#[test]
fn p90_is_only_a_tail_with_ten_samples_beyond() {
    // A hundred samples is the fewest with ten beyond the 90th percentile.
    assert!((1..100).all(|n| samples_beyond(n, 0.9) < 10));
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(0, 0.9), 0);
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    assert_eq!(percentile(&samples, 0.5), Some(50.0));
    assert_eq!(median(&samples), Some(50.5));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
}

fn span_event(
    kind: EventKind,
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    wall: u64,
) -> Event {
    Event {
        seq: 0,
        kind,
        name: Cow::Borrowed(name),
        span: Some(id),
        parent,
        sim_ms: None,
        wall_ns: (wall > 0).then_some(wall),
        fields: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_nested_layer_spans_through_crate_spans() {
    // a.outer (100) ⊃ crate (30) ⊃ b.inner (20); a.outer ⊃ b.inner (10).
    let sink = LayerSink::new();
    let start = |id, name, parent| span_event(EventKind::SpanStart, id, name, parent, 0);
    let end = |id, name, parent, wall| span_event(EventKind::SpanEnd, id, name, parent, wall);
    for e in [
        start(1, "a.outer", None),
        start(2, "crate", Some(1)),
        start(3, "b.inner", Some(2)),
        end(3, "b.inner", Some(2), 20),
        end(2, "crate", Some(1), 30),
        start(4, "b.inner", Some(1)),
        end(4, "b.inner", Some(1), 10),
        end(1, "a.outer", None, 100),
    ] {
        sink.record(&e);
    }
    let report = sink.report();
    let outer = report.span("a.outer");
    assert_eq!((outer.self_ns, outer.total_ns, outer.calls), (70, 100, 1));
    let inner = report.span("b.inner");
    assert_eq!((inner.self_ns, inner.total_ns, inner.calls), (30, 30, 2));
    // Crate spans report inclusive time and are not attributed again.
    assert_eq!(report.span("crate").total_ns, 30);
    assert_eq!(report.attributed_ns(), 100);
    assert_eq!(report.events, 8);
    let text = report.render("t", 125, 5, "die");
    assert!(text.contains("(unattributed)"), "{text}");
    assert!(text.contains("Crate spans"), "{text}");

    // Time known to repeat work attributed elsewhere comes off the span.
    let mut report = report;
    report.discount("a.outer", 30);
    let outer = report.span("a.outer");
    assert_eq!((outer.self_ns, outer.total_ns), (40, 70));
    assert_eq!(report.attributed_ns(), 70);
    report.discount("a.outer", 1_000);
    assert_eq!(report.span("a.outer").self_ns, 0);
}

#[test]
fn self_times_of_real_spans_add_up_to_the_root() {
    let sink = Arc::new(LayerSink::new());
    let tracer = Tracer::builder().sink(sink.clone()).build();
    {
        let _outer = tracer.span("x.outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = tracer.span("y.inner");
            tracer.counter("y.count", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = tracer.span("z.worker");
            });
        });
    }
    let r = sink.report();
    let (outer, inner) = (r.span("x.outer"), r.span("y.inner"));
    assert_eq!(outer.self_ns + inner.self_ns, outer.total_ns);
    assert!(inner.self_ns >= 2_000_000);
    assert_eq!(r.counter("y.count"), 3);
    // The other thread's span overlaps the main thread's and is kept apart.
    assert!(r.span("z.worker").concurrent);
    assert_eq!(r.attributed_ns(), outer.total_ns);
}

/// Fails every fourth operation.
#[derive(PartialEq)]
struct Flaky;

impl Workload for Flaky {
    const NAME: &'static str = "flaky";
    const ITEM: &'static str = "item";
    const OP: &'static str = "op";
    const LATENCY_OF: &'static str = "op";
    const DIGEST_OPS: u64 = 8;
    const SETUP_REPS: usize = 1;

    fn load() -> (usize, usize) {
        (1, 0)
    }

    fn setup(_cfg: &RunConfig, _tracer: &Tracer) -> Result<Flaky, String> {
        Ok(Flaky)
    }

    fn op(&mut self, index: u64, _tracer: &Tracer) -> Result<OpOutput, String> {
        if index % 4 == 3 {
            Err("broken".into())
        } else {
            Ok(OpOutput {
                items: 2,
                digest: index + 100,
                latencies_ms: Vec::new(),
            })
        }
    }
}

/// Two latency measurements per operation, each standing for five items.
#[derive(PartialEq)]
struct Batched;

impl Workload for Batched {
    const NAME: &'static str = "batched";
    const ITEM: &'static str = "item";
    const OP: &'static str = "op";
    const LATENCY_OF: &'static str = "item";
    const DIGEST_OPS: u64 = 4;
    const SETUP_REPS: usize = 1;

    fn load() -> (usize, usize) {
        (1, 0)
    }

    fn setup(_cfg: &RunConfig, _tracer: &Tracer) -> Result<Batched, String> {
        Ok(Batched)
    }

    fn op(&mut self, _index: u64, _tracer: &Tracer) -> Result<OpOutput, String> {
        Ok(OpOutput {
            items: 10,
            digest: 1,
            latencies_ms: vec![(1.0, 5), (2.0, 5)],
        })
    }
}

#[test]
fn the_tail_rule_counts_measurements_not_the_items_they_stand_for() {
    let phase = timed(&mut Batched, 0.0, &Tracer::disabled());
    assert_eq!(phase.ops, 4);
    // Percentiles weigh each measurement by its items ...
    assert_eq!(phase.latencies_ms.len(), 40);
    assert_eq!(percentile(&phase.latencies_ms, 0.5), Some(1.0));
    assert_eq!(percentile(&phase.latencies_ms, 0.9), Some(2.0));
    // ... but only eight distinct values back them: no resolved tail.
    assert_eq!(phase.latency_measurements, 8);
    assert!(samples_beyond(phase.latency_measurements, 0.9) < 10);
}

#[test]
fn fail_ratio_counts_errors_and_digest_mismatches_once() {
    let mut phase = timed(&mut Flaky, 0.0, &Tracer::disabled());
    assert_eq!(phase.ops, 8);
    assert_eq!((phase.tally.attempted, phase.tally.failed), (8, 2));
    assert_eq!(phase.items, 12);
    assert_eq!(
        phase.latencies_ms.len(),
        6,
        "failed operations have no latency"
    );
    assert_eq!(phase.digests[3], 0);
    assert_eq!(phase.tally.fail_ratio(), 0.25);

    // Ops 1 and 5 disagree with the committed digests; ops 3 and 7
    // already failed and are not charged twice.
    let committed = [100, 999, 102, 777, 104, 555, 106, 0];
    check_digests(&mut phase, &committed, "flaky");
    assert_eq!((phase.tally.attempted, phase.tally.failed), (8, 4));

    let mut total = Tally::default();
    total.merge(&phase.tally);
    total.fail("replay".into());
    assert_eq!((total.attempted, total.failed), (9, 5));
    assert!(total.errors.len() <= 5);
    assert_eq!(Tally::default().fail_ratio(), 0.0);
}

fn spec() -> Spec {
    Spec::load(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_per_layer_metric_says_what_it_should_move() {
    let spec = spec();
    for m in &spec.per_layer {
        assert!(
            SHOULD_MOVE.iter().any(|(n, _)| *n == m.name),
            "{} has no SHOULD_MOVE entry",
            m.name
        );
    }
    for (n, _) in SHOULD_MOVE {
        assert!(
            spec.per_layer.iter().any(|m| m.name == *n),
            "{n} is not in BENCHMARK.json"
        );
    }
    assert_eq!(spec.workloads, ["characterize", "accelerator", "serve"]);
}

#[test]
fn select_refuses_missing_extra_and_mislabelled_metrics() {
    let spec = spec();
    let all = |unit_of_first: &str| {
        spec.end_to_end
            .iter()
            .enumerate()
            .map(|(i, m)| uvf_perfbench::runner::Metric {
                name: m.name.clone(),
                value: 1.0,
                unit: if i == 0 {
                    unit_of_first.into()
                } else {
                    m.unit.clone()
                },
            })
            .collect::<Vec<_>>()
    };
    assert!(select(all("s"), &spec.end_to_end).is_ok());
    assert!(select(all("ms"), &spec.end_to_end).is_err());
    let mut missing = all("s");
    missing.pop();
    assert!(select(missing, &spec.end_to_end).is_err());
    let mut extra = all("s");
    extra.push(uvf_perfbench::runner::Metric {
        name: "bogus".into(),
        value: 1.0,
        unit: "s".into(),
    });
    assert!(select(extra, &spec.end_to_end).is_err());
}
