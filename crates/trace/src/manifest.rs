//! The run manifest: one small JSON document that makes a finished run
//! auditable — which experiment, which config fingerprint, which
//! platform/seed, where the event log lives, and where the wall time went.

use crate::event::{Event, EventKind};
use crate::json::{write_atomic, Json, JsonError};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

crate::json_record! {
    /// Wall time attributed to one top-level phase of a run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseTime {
        pub name: String,
        pub wall_ns: u64,
    }
}

crate::json_record! {
    /// Metadata describing one completed run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Manifest: JsonError {
        /// Experiment name (e.g. `fig3`, `table2`).
        pub name: String,
        /// Fingerprint of the configuration that produced the run; two runs
        /// with equal fingerprints are replaying the same experiment.
        pub config_fingerprint: u64,
        pub platform: String,
        pub seed: u64,
        /// Path of the JSONL event log, when one was written.
        pub event_log: Option<String>,
        /// Total events emitted during the run.
        pub events: u64,
        /// End-to-end wall time of the run.
        pub wall_ns_total: u64,
        /// Wall-time breakdown by top-level span, in completion order.
        pub phases: Vec<PhaseTime>,
        /// Final counter totals, by name.
        pub counters: BTreeMap<String, u64>,
    }
}

/// Gathers the two manifest fields that need a run's whole event stream:
/// the event total and the phases — every *root* span's end (no parent),
/// in completion order. It keeps only those, so however many events a run
/// emits, no early phase is pushed out before the manifest is built.
#[derive(Default)]
pub struct RunTally {
    events: AtomicU64,
    phases: Mutex<Vec<PhaseTime>>,
}

impl RunTally {
    /// Events seen so far, of every kind.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The phases seen so far, in completion order.
    #[must_use]
    pub fn phases(&self) -> Vec<PhaseTime> {
        self.phases.lock().expect("run tally poisoned").clone()
    }
}

impl Sink for RunTally {
    fn record(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let (EventKind::SpanEnd, None, Some(wall_ns)) =
            (&event.kind, event.parent, event.wall_ns)
        {
            self.phases
                .lock()
                .expect("run tally poisoned")
                .push(PhaseTime {
                    name: event.name.to_string(),
                    wall_ns,
                });
        }
    }
}

impl Manifest {
    /// Parse a manifest previously produced by [`Manifest::to_json_string`].
    pub fn parse(text: &str) -> Result<Manifest, JsonError> {
        Manifest::from_json(&Json::parse(text)?)
    }

    /// Write the manifest and a trailing newline atomically
    /// ([`write_atomic`]).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), &(self.to_json_string() + "\n"))
    }

    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Manifest> {
        let text = std::fs::read_to_string(path)?;
        Manifest::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::tracer::Tracer;
    use std::sync::Arc;

    fn sample() -> Manifest {
        Manifest {
            name: "fig3".into(),
            config_fingerprint: 0xDEAD_BEEF_1234,
            platform: "KC705".into(),
            seed: 42,
            event_log: Some("out/fig3.jsonl".into()),
            events: 128,
            wall_ns_total: 9_000_000,
            phases: vec![
                PhaseTime {
                    name: "sweep".into(),
                    wall_ns: 7_000_000,
                },
                PhaseTime {
                    name: "report".into(),
                    wall_ns: 2_000_000,
                },
            ],
            counters: BTreeMap::from([("runs".to_string(), 60), ("crashes".to_string(), 2)]),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let m = sample();
        let text = m.to_json_string();
        // The bytes the hand-written encoder wrote before the codec.
        assert_eq!(
            text,
            r#"{"name":"fig3","config_fingerprint":244837814047284,"platform":"KC705","seed":42,"event_log":"out/fig3.jsonl","events":128,"wall_ns_total":9000000,"phases":[{"name":"sweep","wall_ns":7000000},{"name":"report","wall_ns":2000000}],"counters":{"crashes":2,"runs":60}}"#
        );
        assert_eq!(Manifest::parse(&text).unwrap(), m);
        // And byte-stable on re-serialization.
        assert_eq!(Manifest::parse(&text).unwrap().to_json_string(), text);
        // A decode failure names its key.
        let bad = text.replace(r#""runs":60"#, r#""runs":"60""#);
        assert_eq!(
            Manifest::parse(&bad).unwrap_err().msg,
            "counters.runs is not a u64"
        );
        let bad = text.replace(r#""wall_ns":7000000"#, r#""wall":7000000"#);
        assert_eq!(
            Manifest::parse(&bad).unwrap_err().msg,
            "phases.wall_ns missing"
        );
    }

    #[test]
    fn optional_event_log_round_trips_when_absent() {
        let mut m = sample();
        m.event_log = None;
        let text = m.to_json_string();
        assert!(!text.contains("event_log"));
        assert_eq!(Manifest::parse(&text).unwrap(), m);
    }

    #[test]
    fn save_and_load_are_atomic_peers() {
        let dir = std::env::temp_dir().join(format!("uvf-trace-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run_manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        assert!(
            !dir.join("run_manifest.json.tmp").exists(),
            "temp cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phases_come_from_root_span_ends() {
        let mk = |seq, kind, name: &'static str, parent, wall| Event {
            seq,
            kind,
            name: name.into(),
            span: Some(seq),
            parent,
            sim_ms: None,
            wall_ns: wall,
            fields: Vec::new(),
        };
        let events = vec![
            mk(0, EventKind::SpanStart, "sweep", None, None),
            mk(1, EventKind::SpanEnd, "inner", Some(0), Some(5)),
            mk(2, EventKind::SpanEnd, "sweep", None, Some(100)),
            mk(3, EventKind::SpanEnd, "report", None, Some(20)),
        ];
        let tally = RunTally::default();
        for e in &events {
            tally.record(e);
        }
        assert_eq!(tally.events(), 4);
        assert_eq!(
            tally.phases(),
            vec![
                PhaseTime {
                    name: "sweep".into(),
                    wall_ns: 100
                },
                PhaseTime {
                    name: "report".into(),
                    wall_ns: 20
                },
            ]
        );
    }

    #[test]
    fn an_early_root_span_survives_a_long_run() {
        let tally = Arc::new(RunTally::default());
        let t = Tracer::builder().sink(tally.clone()).build();
        {
            let _s = t.span("train_fixture");
            t.instant("epoch_done", vec![]);
        }
        for i in 0..20_000u64 {
            t.timing("mask_apply", 100 + i, 64);
        }
        {
            let _s = t.span("mitigation_shootout");
        }
        let names: Vec<String> = tally.phases().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["train_fixture", "mitigation_shootout"]);
        assert_eq!(tally.events(), 20_005);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Manifest::parse("[]").is_err());
        assert!(Manifest::parse("{\"name\":\"x\"}").is_err());
        assert!(Manifest::parse("not json").is_err());
    }
}
