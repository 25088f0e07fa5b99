//! Experiment records and crash-safe checkpoints.
//!
//! A [`SweepRecord`] is both the scientific output of a Listing-1 sweep and
//! the unit of crash-resilience: the harness serializes it (plus a small
//! cursor) to JSON after every few runs, atomically, so a sweep interrupted
//! by a board hang — or by the host process dying — resumes exactly where
//! it stopped and finishes bit-identical to an uninterrupted one.
//!
//! Every record here is a [`json_record!`](uvf_trace::json_record)
//! declaration: its fields, in wire order, are its codec. Only the gates
//! are written by hand — the schema version each document leads with,
//! the checkpoint's configuration fingerprint and the FVM census's BRAM
//! count.

use crate::json::{Json, JsonError};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use uvf_faults::{FaultModel, FaultVariationMap};
use uvf_fpga::seedmix::{fnv1a, mix};
use uvf_fpga::{DataPattern, Millivolts, PlatformKind, Rail};
use uvf_trace::codec::{self, DecodeError, DecodeErrorKind, Plain, Text, Value, Via};
use uvf_trace::write_atomic;

/// Schema version of the checkpoint/record JSON.
///
/// History:
/// * **v1** — original schema, no explicit version field on the record
///   itself (only checkpoints carried one).
/// * **v2** — the record document leads with `version`, and every level
///   carries `rail_uw`: the modeled draw of the swept rail at that level
///   in integer microwatts (`uvf-power`, quantized at the
///   `uvf_fpga::RailDraw` seam).
///
/// Decoders reject any other version loudly ([`RecordError::Schema`]);
/// a checkpoint from an older build must never resume into a silently
/// reinterpreted record.
pub const RECORD_VERSION: u64 = 2;

uvf_trace::json_record! {
    /// One read-out run at one voltage level.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RunRecord {
        pub run: u32,
        /// Observable faults counted in this run (whole BRAM pool).
        pub faults: u64,
    }
}

uvf_trace::json_record! {
    /// All runs at one voltage level.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LevelRecord {
        pub v_mv: u32,
        /// Modeled draw of the swept rail at this level, integer microwatts
        /// (schema v2). A pure function of `(platform, rail, v_mv,
        /// temperature_c)`, so resume recomputes the identical value.
        pub rail_uw: u64,
        /// `true` when the sweep ended here: the board hung at this level and
        /// retries were exhausted, so the level's data is partial.
        pub crashed: bool,
        pub runs: Vec<RunRecord>,
    }
}
impl LevelRecord {
    #[must_use]
    pub fn any_faults(&self) -> bool {
        self.runs.iter().any(|r| r.faults > 0)
    }

    /// Median fault count over the level's runs (the paper's statistic).
    #[must_use]
    pub fn median_faults(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let mut counts: Vec<u64> = self.runs.iter().map(|r| r.faults).collect();
        counts.sort_unstable();
        let n = counts.len();
        if n % 2 == 1 {
            counts[n / 2] as f64
        } else {
            (counts[n / 2 - 1] + counts[n / 2]) as f64 / 2.0
        }
    }

    /// Median rate in the paper's unit.
    #[must_use]
    pub fn median_faults_per_mbit(&self, total_mbit: f64) -> f64 {
        self.median_faults() / total_mbit
    }
}

uvf_trace::json_record! {
    /// Why the sweep stopped descending.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SweepOutcome tag "kind" {
        /// Interrupted mid-sweep (checkpointed); resume to continue.
        InProgress => "in_progress",
        /// The board hung at the level below `vcrash_mv` and retries were
        /// exhausted: `vcrash_mv` is the lowest *operational* level (Fig. 1).
        CrashFound { vcrash_mv: u32 } => "crash_found",
        /// The configured floor was reached without a terminal hang.
        FloorReached => "floor_reached",
    }
}

uvf_trace::json_record! {
    /// Telemetry of one detected hang + recovery.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CrashEvent {
        /// Level being measured when the board hung.
        pub v_mv: u32,
        /// Run index the hang interrupted.
        pub run: u32,
        /// Retry attempt (0 = first encounter at this run).
        pub attempt: u32,
        /// Simulated time at detection.
        pub sim_ms: u64,
        /// How long the watchdog waited before declaring the hang.
        pub detected_ms: u64,
        /// Exponential backoff applied before the power-cycle retry.
        pub backoff_ms: u64,
    }
}

uvf_trace::json_record! {
    /// Full record of one guardband sweep (Listing 1 + crash telemetry).
    /// Its document leads with [`RECORD_VERSION`] ([`SweepRecord::to_json`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepRecord {
        pub platform: PlatformKind as Text,
        pub rail: Rail as Text,
        pub pattern: DataPattern as Text,
        pub chip_seed: u64,
        pub start_mv: u32,
        pub floor_mv: u32,
        pub step_mv: u32,
        pub runs_per_level: u32,
        pub temperature_c: f64,
        pub noise_band_mv: u32,
        /// Levels in sweep order (descending voltage).
        pub levels: Vec<LevelRecord>,
        pub crash_events: Vec<CrashEvent>,
        pub outcome: SweepOutcome,
        /// Power cycles across the whole sweep, surviving resume.
        pub power_cycles: u32,
    }
}

impl SweepRecord {
    /// Configuration fingerprint: a checkpoint may only resume a sweep with
    /// the same science-relevant parameters.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        mix(&[
            RECORD_VERSION,
            str_key(&self.platform.to_string()),
            str_key(&self.rail.to_string()),
            str_key(&self.pattern.to_string()),
            self.chip_seed,
            u64::from(self.start_mv),
            u64::from(self.floor_mv),
            u64::from(self.step_mv),
            u64::from(self.runs_per_level),
            self.temperature_c.to_bits(),
            u64::from(self.noise_band_mv),
        ])
    }

    /// Highest voltage level at which any run observed a fault: `Vmin`.
    #[must_use]
    pub fn vmin(&self) -> Option<Millivolts> {
        self.levels
            .iter()
            .find(|l| !l.crashed && l.any_faults())
            .map(|l| Millivolts(l.v_mv))
    }

    /// Lowest operational voltage, if the sweep found the crash boundary.
    #[must_use]
    pub fn vcrash(&self) -> Option<Millivolts> {
        match self.outcome {
            SweepOutcome::CrashFound { vcrash_mv } => Some(Millivolts(vcrash_mv)),
            _ => None,
        }
    }

    /// Guardband fraction of nominal down to `Vmin` (Fig. 1).
    #[must_use]
    pub fn guardband_fraction(&self) -> Option<f64> {
        let vmin = self.vmin()?;
        Some(f64::from(Millivolts::NOMINAL.0 - vmin.0) / f64::from(Millivolts::NOMINAL.0))
    }

    /// The record document: [`RECORD_VERSION`], then the fields.
    #[must_use]
    pub fn to_json(&self) -> Json {
        codec::lead(vec![("version", Json::UInt(RECORD_VERSION))], self)
    }

    pub fn from_json(v: &Json) -> Result<SweepRecord, RecordError> {
        match v.get("version").and_then(Json::as_u64) {
            Some(RECORD_VERSION) => {}
            Some(other) => {
                return Err(schema(&format!(
                    "unsupported record schema version {other} (this build reads v{RECORD_VERSION})"
                )))
            }
            None => {
                return Err(schema(&format!(
                    "record has no schema version (pre-v2 format); \
                     this build reads v{RECORD_VERSION} — re-run the sweep"
                )))
            }
        }
        Ok(SweepRecord::decode(v)?)
    }

    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// FNV-1a hash over the canonical JSON bytes: a cheap content
    /// identity for manifests — two records hash equal iff their
    /// byte-stable serializations are equal.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.to_json_string().as_bytes())
    }
}

/// A [`SweepRecord`] nested as its versioned document (a checkpoint's
/// `record`), so its version gate runs on decode.
enum VersionedRecord {}

impl Via<SweepRecord> for VersionedRecord {
    fn put(out: &mut Vec<(String, Json)>, key: &str, record: &SweepRecord) {
        codec::push(out, key, Some(record.to_json()));
    }

    fn get(v: &Json, key: &str) -> Result<SweepRecord, DecodeError> {
        codec::field(v, key, |json| {
            let record = SweepRecord::from_json(json.ok_or(DecodeErrorKind::Missing)?);
            record.map_err(|e| match e {
                RecordError::Schema(msg) => DecodeErrorKind::Invalid(msg).into(),
                other => DecodeErrorKind::Invalid(other.to_string()).into(),
            })
        })
    }
}

uvf_trace::json_record! {
    /// Checkpoint = record-so-far + resume cursor. The cursor is tiny on
    /// purpose: everything positional (current level, next run) is derivable
    /// from the record itself; only the retry attempt counter and the simulated
    /// clock are extra state. Its document leads with [`RECORD_VERSION`] and
    /// the record's fingerprint ([`Checkpoint::to_json_string`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Checkpoint {
        /// Retry attempt at the current (level, run) position.
        pub attempt: u32,
        /// Simulated milliseconds elapsed across the whole sweep.
        pub clock_ms: u64,
        pub record: SweepRecord as VersionedRecord,
    }
}

impl Checkpoint {
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let head = vec![
            ("version", Json::UInt(RECORD_VERSION)),
            ("fingerprint", Json::UInt(self.record.fingerprint())),
        ];
        codec::lead(head, self).to_string()
    }

    pub fn parse(text: &str) -> Result<Checkpoint, RecordError> {
        let v = Json::parse(text)?;
        let version: u64 = Plain::get(&v, "version")?;
        if version != RECORD_VERSION {
            return Err(schema(&format!("unsupported checkpoint version {version}")));
        }
        let checkpoint = Checkpoint::decode(&v)?;
        let stored: u64 = Plain::get(&v, "fingerprint")?;
        let computed = checkpoint.record.fingerprint();
        if stored != computed {
            return Err(RecordError::FingerprintMismatch { stored, computed });
        }
        Ok(checkpoint)
    }

    /// Atomic write ([`write_atomic`]): neither a process crash mid-write
    /// nor a host crash right after the rename can leave a torn checkpoint
    /// behind.
    pub fn save(&self, path: &Path) -> Result<(), RecordError> {
        write_atomic(path, &self.to_json_string()).map_err(|e| io_err(path, &e))
    }

    pub fn load(path: &Path) -> Result<Checkpoint, RecordError> {
        let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        Checkpoint::parse(&text)
    }
}

uvf_trace::json_record! {
    /// Persisted Fault Variation Map: the per-BRAM weak-cell census of one die
    /// at one reference voltage (`uvf_faults::FaultVariationMap`), serialized
    /// with the same byte-stable JSON as sweep records so ICBP placements can
    /// be derived offline from a characterization artifact instead of a live
    /// model. Its document leads with [`RECORD_VERSION`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FvmRecord {
        pub platform: PlatformKind as Text,
        pub chip_seed: u64,
        pub v_ref_mv: u32,
        /// Weak-cell count per BRAM, indexed by `BramId`.
        pub counts: Vec<u32>,
    }
}

impl FvmRecord {
    /// Capture the census of a live fault model at `v_ref`.
    #[must_use]
    pub fn capture(model: &FaultModel, v_ref: Millivolts) -> FvmRecord {
        FvmRecord::from_map(&model.variation_map(v_ref))
    }

    #[must_use]
    pub fn from_map(map: &FaultVariationMap) -> FvmRecord {
        FvmRecord {
            platform: map.platform(),
            chip_seed: map.chip_seed(),
            v_ref_mv: map.v_ref().0,
            counts: map.counts().to_vec(),
        }
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        codec::lead(vec![("version", Json::UInt(RECORD_VERSION))], self)
    }

    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    pub fn from_json(v: &Json) -> Result<FvmRecord, RecordError> {
        let version: u64 = Plain::get(v, "version")?;
        if version != RECORD_VERSION {
            return Err(schema(&format!("unsupported FVM record version {version}")));
        }
        let record = FvmRecord::decode(v)?;
        if record.counts.len() != record.platform.descriptor().bram_count {
            return Err(schema("counts length does not match the platform"));
        }
        Ok(record)
    }

    pub fn parse(text: &str) -> Result<FvmRecord, RecordError> {
        FvmRecord::from_json(&Json::parse(text)?)
    }

    /// Atomic write, same discipline as [`Checkpoint::save`].
    pub fn save(&self, path: &Path) -> Result<(), RecordError> {
        write_atomic(path, &self.to_json_string()).map_err(|e| io_err(path, &e))
    }

    pub fn load(path: &Path) -> Result<FvmRecord, RecordError> {
        let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        FvmRecord::parse(&text)
    }
}

/// Errors of record/checkpoint (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    Json(JsonError),
    Schema(String),
    FingerprintMismatch { stored: u64, computed: u64 },
    Io { path: PathBuf, msg: String },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Json(e) => write!(f, "record JSON: {e}"),
            RecordError::Schema(msg) => write!(f, "record schema: {msg}"),
            RecordError::FingerprintMismatch { stored, computed } => write!(
                f,
                "checkpoint fingerprint mismatch (stored {stored:#x}, computed {computed:#x})"
            ),
            RecordError::Io { path, msg } => {
                write!(f, "checkpoint I/O on {}: {msg}", path.display())
            }
        }
    }
}

impl Error for RecordError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecordError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for RecordError {
    fn from(e: JsonError) -> RecordError {
        RecordError::Json(e)
    }
}

impl From<DecodeError> for RecordError {
    fn from(e: DecodeError) -> RecordError {
        RecordError::Schema(e.to_string())
    }
}

/// Stable key for a short lowercase name (config fingerprinting).
fn str_key(s: &str) -> u64 {
    s.bytes().fold(0u64, |acc, b| (acc << 8) | u64::from(b))
}

/// A [`RecordError::Schema`] with `msg`: a gate's rejection.
#[must_use]
fn schema(msg: &str) -> RecordError {
    RecordError::Schema(msg.to_string())
}

fn io_err(path: &Path, e: &std::io::Error) -> RecordError {
    RecordError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> SweepRecord {
        SweepRecord {
            platform: PlatformKind::Vc707,
            rail: Rail::Vccbram,
            pattern: DataPattern::AllOnes,
            chip_seed: 0x7c70_7001_d1e5_eed1,
            start_mv: 1000,
            floor_mv: 450,
            step_mv: 10,
            runs_per_level: 3,
            temperature_c: 25.0,
            noise_band_mv: 0,
            levels: vec![
                LevelRecord {
                    v_mv: 1000,
                    rail_uw: 2_410_000,
                    crashed: false,
                    runs: vec![RunRecord { run: 0, faults: 0 }],
                },
                LevelRecord {
                    v_mv: 610,
                    rail_uw: 118_100,
                    crashed: false,
                    runs: vec![
                        RunRecord { run: 0, faults: 1 },
                        RunRecord { run: 1, faults: 2 },
                        RunRecord { run: 2, faults: 4 },
                    ],
                },
            ],
            crash_events: vec![CrashEvent {
                v_mv: 530,
                run: 1,
                attempt: 2,
                sim_ms: 12345,
                detected_ms: 250,
                backoff_ms: 400,
            }],
            outcome: SweepOutcome::CrashFound { vcrash_mv: 540 },
            power_cycles: 3,
        }
    }

    /// `sample_record`'s bytes as the hand-written encoder wrote them
    /// before the record codec.
    const SAMPLE_JSON: &str = r#"{"version":2,"platform":"vc707","rail":"vccbram","pattern":"ffff","chip_seed":8966790011213442769,"start_mv":1000,"floor_mv":450,"step_mv":10,"runs_per_level":3,"temperature_c":25.0,"noise_band_mv":0,"levels":[{"v_mv":1000,"rail_uw":2410000,"crashed":false,"runs":[{"run":0,"faults":0}]},{"v_mv":610,"rail_uw":118100,"crashed":false,"runs":[{"run":0,"faults":1},{"run":1,"faults":2},{"run":2,"faults":4}]}],"crash_events":[{"v_mv":530,"run":1,"attempt":2,"sim_ms":12345,"detected_ms":250,"backoff_ms":400}],"outcome":{"kind":"crash_found","vcrash_mv":540},"power_cycles":3}"#;

    fn schema_error(text: &str) -> String {
        match SweepRecord::from_json(&Json::parse(text).unwrap()) {
            Err(RecordError::Schema(msg)) => msg,
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = sample_record();
        let text = rec.to_json_string();
        assert_eq!(text, SAMPLE_JSON);
        let back = SweepRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_json_string(), text, "byte-stable");
        for (outcome, wire) in [
            (SweepOutcome::InProgress, r#"{"kind":"in_progress"}"#),
            (SweepOutcome::FloorReached, r#"{"kind":"floor_reached"}"#),
        ] {
            let rec = SweepRecord {
                outcome,
                ..sample_record()
            };
            let text = rec.to_json_string();
            assert!(text.ends_with(&format!(r#""outcome":{wire},"power_cycles":3}}"#)));
            assert_eq!(
                SweepRecord::from_json(&Json::parse(&text).unwrap()),
                Ok(rec)
            );
        }
        // A bad field is named, however deep it sits.
        assert_eq!(
            schema_error(&text.replace(r#""faults":4"#, r#""faults":-4"#)),
            "levels.runs.faults is not a u64"
        );
        assert_eq!(
            schema_error(&text.replace(r#""vcrash_mv":540"#, r#""vcrash_mv":5400000000"#)),
            "outcome.vcrash_mv is not a u32"
        );
        assert_eq!(
            schema_error(&text.replace("crash_found", "melted")),
            r#"unknown outcome.kind "melted""#
        );
        assert_eq!(
            schema_error(&text.replace(r#""rail":"vccbram""#, r#""rail":"vcc""#)),
            r#"unknown rail "vcc""#
        );
        assert_eq!(
            schema_error(&text.replace(r#""power_cycles":3"#, r#""cycles":3"#)),
            "power_cycles missing"
        );
    }

    #[test]
    fn fvm_record_roundtrips_byte_stable_and_rehydrates() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let rec = FvmRecord::capture(&model, platform.vccbram.vcrash);
        assert_eq!(rec.counts.len(), platform.bram_count);

        let text = rec.to_json_string();
        let back = FvmRecord::parse(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_json_string(), text, "byte-stable");

        // The parsed record carries the live census, BRAM for BRAM.
        let live = model.variation_map(platform.vccbram.vcrash);
        assert_eq!(back.counts, live.counts());
    }

    #[test]
    fn fvm_record_rejects_wrong_bram_count() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let mut rec = FvmRecord::capture(&model, platform.vccbram.vcrash);
        rec.counts.pop();
        let text = rec.to_json_string();
        assert!(matches!(
            FvmRecord::parse(&text),
            Err(RecordError::Schema(_))
        ));
    }

    #[test]
    fn fvm_record_saves_and_loads_atomically() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let rec = FvmRecord::capture(&model, platform.vccbram.vcrash);
        let path = std::env::temp_dir().join(format!("uvf-fvm-{}.json", std::process::id()));
        rec.save(&path).unwrap();
        assert_eq!(FvmRecord::load(&path).unwrap(), rec);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn landmarks_derived_from_record() {
        let rec = sample_record();
        assert_eq!(rec.vmin(), Some(Millivolts(610)));
        assert_eq!(rec.vcrash(), Some(Millivolts(540)));
        assert!((rec.guardband_fraction().unwrap() - 0.39).abs() < 1e-9);
    }

    #[test]
    fn median_is_the_papers_statistic() {
        let level = &sample_record().levels[1];
        assert_eq!(level.median_faults(), 2.0);
        let even = LevelRecord {
            v_mv: 600,
            crashed: false,
            rail_uw: 130_000,
            runs: vec![
                RunRecord { run: 0, faults: 2 },
                RunRecord { run: 1, faults: 4 },
            ],
        };
        assert_eq!(even.median_faults(), 3.0);
    }

    #[test]
    fn record_json_leads_with_the_schema_version() {
        let text = sample_record().to_json_string();
        assert!(
            text.starts_with("{\"version\":2,"),
            "record must be self-describing: {}",
            &text[..40.min(text.len())]
        );
    }

    #[test]
    fn v1_record_without_version_is_rejected_loudly() {
        // A v1 document has no version field and no rail_uw on levels.
        let v2 = sample_record().to_json_string();
        let v1 = v2
            .replace("\"version\":2,", "")
            .replace("\"rail_uw\":2410000,", "")
            .replace("\"rail_uw\":118100,", "");
        let err = SweepRecord::from_json(&Json::parse(&v1).unwrap()).unwrap_err();
        match err {
            RecordError::Schema(msg) => {
                assert!(msg.contains("no schema version"), "{msg}");
            }
            other => panic!("expected a schema error, got {other}"),
        }
    }

    #[test]
    fn future_record_version_is_rejected_loudly() {
        let text = sample_record()
            .to_json_string()
            .replacen("\"version\":2", "\"version\":3", 1);
        let err = SweepRecord::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        match err {
            RecordError::Schema(msg) => {
                assert!(msg.contains("unsupported record schema version 3"), "{msg}");
            }
            other => panic!("expected a schema error, got {other}"),
        }
    }

    #[test]
    fn v1_checkpoint_cannot_resume_into_this_build() {
        // Resume across a schema bump must fail loudly, never corrupt:
        // the outer checkpoint version gate fires before the record is
        // even looked at.
        let cp = Checkpoint {
            record: sample_record(),
            attempt: 0,
            clock_ms: 5,
        };
        let v1_text = cp
            .to_json_string()
            .replacen("\"version\":2", "\"version\":1", 1);
        let err = Checkpoint::parse(&v1_text).unwrap_err();
        match err {
            RecordError::Schema(msg) => {
                assert!(msg.contains("unsupported checkpoint version 1"), "{msg}");
            }
            other => panic!("expected a schema error, got {other}"),
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_fingerprint_guard() {
        let cp = Checkpoint {
            record: sample_record(),
            attempt: 1,
            clock_ms: 98765,
        };
        let text = cp.to_json_string();
        assert_eq!(
            text,
            format!(
                r#"{{"version":2,"fingerprint":18434189666035312366,"attempt":1,"clock_ms":98765,"record":{SAMPLE_JSON}}}"#
            )
        );
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, cp);
        // The nested record keeps its own version gate.
        let nested = text.replacen(r#""record":{"version":2"#, r#""record":{"version":3"#, 1);
        assert!(matches!(
            Checkpoint::parse(&nested),
            Err(RecordError::Schema(msg)) if msg.contains("unsupported record schema version 3")
        ));

        // Tampering with a config field breaks the fingerprint.
        let tampered = text.replace("\"step_mv\":10", "\"step_mv\":20");
        assert!(matches!(
            Checkpoint::parse(&tampered),
            Err(RecordError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_save_load_is_atomic() {
        let dir = std::env::temp_dir().join(format!("uvf-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let cp = Checkpoint {
            record: sample_record(),
            attempt: 0,
            clock_ms: 1,
        };
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        assert!(
            !dir.join("sweep.json.tmp").exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        assert!(matches!(
            Checkpoint::parse("{not json"),
            Err(RecordError::Json(_))
        ));
        assert!(matches!(
            Checkpoint::parse("{\"version\":99}"),
            Err(RecordError::Schema(_))
        ));
    }
}
