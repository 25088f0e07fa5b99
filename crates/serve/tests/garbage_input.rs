//! Parsers answer garbage with typed errors, never a panic.
//!
//! Each parser gets a valid input built from real artifacts — a crashed
//! sweep's checkpoint, a die's FVM census, a wire stream holding every
//! protocol message, a Prometheus exposition, a run manifest, a SECDED
//! BRAM image, a worker's event line, a campaign manifest — and then thousands of deterministic mutations of it,
//! drawn from [`SplitMix64`]: byte flips, truncations and JSON
//! punctuation splices. A panic fails the test and names the mutation.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use uvf_characterize::prelude::*;
use uvf_characterize::record::Checkpoint;
use uvf_faults::{ecc, FaultModel};
use uvf_fpga::eccmode::{self, ECC_CODEWORDS_PER_BRAM, ECC_DATA_WORDS};
use uvf_fpga::seedmix::SplitMix64;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail, BRAM_ROWS};
use uvf_serve::protocol::Message;
use uvf_trace::{parse_exposition, Event, Manifest, PhaseTime, PrometheusSink, Tracer};

const MUTATIONS: u64 = 1500;

/// Fragments that steer a JSON parser into its less-travelled paths.
const SPLICES: [&[u8]; 16] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b":",
    b",",
    b"\"",
    b"\\",
    b"-",
    b"1e999",
    b"null",
    b"\\u",
    b"\\ud800",
    b"18446744073709551616",
    b"[[[[[[[[",
    b"\xff",
];

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// One mutation of `valid`, and the name of its kind.
fn mutate(rng: &mut SplitMix64, valid: &[u8]) -> (&'static str, Vec<u8>) {
    let mut bytes = valid.to_vec();
    match rng.next_u64() % 3 {
        0 => {
            for _ in 0..=below(rng, 4) {
                let at = below(rng, bytes.len());
                bytes[at] ^= 1 << below(rng, 8);
            }
            ("flip", bytes)
        }
        1 => {
            bytes.truncate(below(rng, bytes.len()));
            ("truncate", bytes)
        }
        _ => {
            for _ in 0..=below(rng, 3) {
                let at = below(rng, bytes.len() + 1);
                let splice = SPLICES[below(rng, SPLICES.len())];
                // Replace up to a few bytes, or insert when `cut` is 0.
                let cut = below(rng, 4).min(bytes.len() - at);
                bytes.splice(at..at + cut, splice.iter().copied());
            }
            ("splice", bytes)
        }
    }
}

/// Feed `MUTATIONS` mutants of `valid` to `parse`, which must never panic
/// and must reject more than half of them.
fn fuzz(label: &str, seed: u64, valid: &[u8], parse: impl Fn(&[u8]) -> bool) {
    assert!(parse(valid), "{label}: the unmutated input must parse");
    let mut rng = SplitMix64::new(seed);
    let mut rejected = 0;
    for i in 0..MUTATIONS {
        let (kind, input) = mutate(&mut rng, valid);
        match catch_unwind(AssertUnwindSafe(|| parse(&input))) {
            Ok(true) => {}
            Ok(false) => rejected += 1,
            Err(_) => panic!(
                "{label}: mutation {i} ({kind}) panicked on {:.300}",
                String::from_utf8_lossy(&input)
            ),
        }
    }
    assert!(
        rejected > MUTATIONS / 2,
        "{label}: only {rejected} mutants rejected"
    );
}

/// A finished ZC702 sweep that crashed, recovered and hit the boundary.
fn crashed_record() -> (SweepRecord, u64) {
    let kind = PlatformKind::Zc702;
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build();
    let mut h = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap();
    h.run().unwrap();
    assert!(!h.record().crash_events.is_empty());
    (h.record().clone(), h.clock_ms())
}

fn fvm_text() -> String {
    let p = PlatformKind::Zc702.descriptor();
    FvmRecord::from_map(&FaultModel::new(p).variation_map(p.vccbram.vmin)).to_json_string()
}

#[test]
fn checkpoint_parse_never_panics() {
    let (record, clock_ms) = crashed_record();
    let text = Checkpoint {
        record,
        attempt: 1,
        clock_ms,
    }
    .to_json_string();
    fuzz("checkpoint", 1, text.as_bytes(), |b| {
        Checkpoint::parse(&String::from_utf8_lossy(b)).is_ok()
    });
}

#[test]
fn fvm_record_parse_never_panics() {
    fuzz("fvm record", 2, fvm_text().as_bytes(), |b| {
        FvmRecord::parse(&String::from_utf8_lossy(b)).is_ok()
    });
}

#[test]
fn message_frames_never_panic() {
    let (record, clock_ms) = crashed_record();
    let spec = CampaignJob::new(PlatformKind::Kc705A, SweepConfig::quick(Rail::Vccbram, 3));
    let messages = [
        Message::Hello { worker: 42 },
        Message::JobRequest { worker: 42 },
        Message::JobAssign {
            job: 2,
            spec,
            policy: RecoveryPolicy::default(),
            checkpoint_dir: Some("/tmp/ckpt".into()),
        },
        Message::NoJob { done: false },
        Message::Event {
            job: 2,
            line: r#"{"seq":0,"kind":"instant","name":"crash"}"#.into(),
        },
        Message::JobDone {
            job: 2,
            record: record.to_json_string(),
            sim_ms: clock_ms,
        },
        Message::JobFailed {
            job: 2,
            error: "board on fire".into(),
        },
        Message::GetFvm {
            platform: PlatformKind::Zc702,
            chip_seed: 0xFEED,
            temp_mc: -1_500,
            v_ref_mv: 540,
        },
        Message::Fvm { record: fvm_text() },
        Message::Subscribe {
            from_seq: 17,
            queue_cap: 0,
        },
        Message::EventBatch {
            first_seq: 17,
            lines: vec![r#"{"seq":17,"kind":"instant","name":"job_done"}"#.into()],
            dropped: 3,
            done: true,
        },
        Message::Unsubscribe,
    ];
    let mut wire = Vec::new();
    for msg in &messages {
        msg.write_to(&mut wire).unwrap();
    }
    // Read frames the way a connection does: until a clean close or the
    // first error, which drops the connection.
    fuzz("frames", 3, &wire, |b| {
        let mut reader = Cursor::new(b);
        let mut read = 0;
        loop {
            match Message::read_from(&mut reader) {
                Ok(Some(_)) => read += 1,
                Ok(None) => return read == messages.len(),
                Err(_) => return false,
            }
        }
    });
}

/// Frames whose string ends inside a multibyte run, or on a lone
/// backslash, are typed errors; the same frame, terminated, reads back.
#[test]
fn multibyte_string_frames_fail_typed() {
    let frame = |payload: &str| {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload.as_bytes());
        wire
    };
    let head = r#"{"type":"event","job":1,"line":"µs 日本語 🦀"#;
    let ok = frame(&format!("{head}\"}}"));
    let read = Message::read_from(&mut ok.as_slice()).unwrap();
    assert_eq!(
        read,
        Some(Message::Event {
            job: 1,
            line: "µs 日本語 🦀".into()
        })
    );
    for (label, payload) in [
        ("unterminated after a multibyte run", head.to_string()),
        ("trailing lone backslash", format!("{head}\\")),
    ] {
        let wire = frame(&payload);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Message::read_from(&mut wire.as_slice())
        }))
        .unwrap_or_else(|_| panic!("{label}: panicked"));
        let err = result.expect_err(label);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{label}: {err}"
        );
        assert!(
            err.to_string()
                .contains(&format!("JSON error at byte {}", payload.len())),
            "{label}: the error names the end of the frame: {err}"
        );
    }
}

/// A census query for a platform the protocol does not know is a corrupt
/// frame: a typed `InvalidData` error naming the key, so the server drops
/// the peer. The same frame naming a real platform reads back.
#[test]
fn unknown_platform_census_query_fails_typed() {
    let frame = |platform: &str| {
        let payload = format!(
            r#"{{"type":"get_fvm","platform":"{platform}","chip_seed":0,"temp_mc":0,"v_ref_mv":0}}"#
        );
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload.as_bytes());
        wire
    };
    let ok = frame(&PlatformKind::Zc702.to_string());
    assert_eq!(
        Message::read_from(&mut ok.as_slice()).unwrap(),
        Some(Message::GetFvm {
            platform: PlatformKind::Zc702,
            chip_seed: 0,
            temp_mc: 0,
            v_ref_mv: 0,
        })
    );
    let bad = frame("no-such-board");
    let err = Message::read_from(&mut bad.as_slice()).expect_err("unknown platform");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("platform"), "{err}");
}

#[test]
fn prometheus_exposition_parse_never_panics() {
    // Every family kind the sink renders: counters, a gauge, and the
    // histograms of a span and of a timing.
    let prom = Arc::new(PrometheusSink::new());
    let tracer = Tracer::builder().sink(prom.clone()).build();
    tracer.counter("weights_written", 101_632);
    tracer.counter("ecc_corrected", 388);
    tracer.gauge("rail_power_uw", 118_100);
    for ns in [900, 90_000, 9_000_000] {
        tracer.timing("mask_apply", ns, 1024);
    }
    {
        let _s = tracer.span("weights_read_back");
    }
    tracer.flush();
    let text = prom.render();
    fuzz("exposition", 4, text.as_bytes(), |b| {
        parse_exposition(&String::from_utf8_lossy(b)).is_ok()
    });
}

#[test]
fn manifest_parse_never_panics() {
    let manifest = Manifest {
        name: "mitigation".into(),
        config_fingerprint: 0x9e37_79b9_7f4a_7c15,
        platform: "vc707".into(),
        seed: 21,
        event_log: Some("repro-out/mitigation_events.jsonl".into()),
        events: 4_242,
        wall_ns_total: 7_000_000_000,
        phases: vec![
            PhaseTime {
                name: "train_fixture".into(),
                wall_ns: 19_800_000_000,
            },
            PhaseTime {
                name: "mitigation_shootout".into(),
                wall_ns: 10_700_000_000,
            },
        ],
        counters: BTreeMap::from([
            ("ecc_corrected".to_string(), 1_070_718),
            ("weights_written".to_string(), 18_090_496),
        ]),
    };
    let text = manifest.to_json_string();
    assert_eq!(Manifest::parse(&text).expect("round trip"), manifest);
    fuzz("manifest", 5, text.as_bytes(), |b| {
        Manifest::parse(&String::from_utf8_lossy(b)).is_ok()
    });
}

/// The line a worker streams and the server and `repro watch` parse back:
/// every optional key and every field type.
#[test]
fn event_line_parse_never_panics() {
    let line = r#"{"seq":17,"kind":"timing","name":"mask_apply","span":3,"parent":1,"sim_ms":1234,"ns":900,"ops":1024,"fields":{"platform":"vc707","v_mv":540,"temp_mc":-1500,"error":0.0272,"crashed":true}}"#;
    assert_eq!(
        Event::parse_jsonl(line).map(|e| e.to_jsonl()),
        Ok(line.into())
    );
    fuzz("event line", 7, line.as_bytes(), |b| {
        Event::parse_jsonl(&String::from_utf8_lossy(b)).is_ok()
    });
}

/// The manifest a campaign writes: a crashed sweep and one that reached
/// its floor.
#[test]
fn campaign_manifest_parse_never_panics() {
    let mut campaign = Campaign::new(RecoveryPolicy::default());
    let vmin = PlatformKind::Zc702.descriptor().vccbram.vmin.0;
    for floor in [0, vmin] {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(1)
            .start(Millivolts(vmin + 10));
        let cfg = cfg.floor(Millivolts(floor)).build();
        campaign.push(CampaignJob::new(PlatformKind::Zc702, cfg));
    }
    let entries = campaign.run_sequential().unwrap();
    let text = CampaignManifest::from_entries(&entries).to_json_string();
    fuzz("campaign manifest", 8, text.as_bytes(), |b| {
        CampaignManifest::parse(&String::from_utf8_lossy(b)).is_ok()
    });
}

#[test]
fn ecc_decode_image_never_panics() {
    // A full SECDED BRAM image of distinct codewords, as stored bytes.
    let mut clean = [0u16; BRAM_ROWS];
    for cw in 0..ECC_CODEWORDS_PER_BRAM {
        let coded = ecc::encode((cw as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        eccmode::store_codeword(&mut clean, cw, coded.data, coded.parity);
    }
    let bytes: Vec<u8> = clean.iter().flat_map(|w| w.to_le_bytes()).collect();
    // A mutant is "accepted" when every codeword decodes clean to the
    // stored data; a short image reads back zero-filled, a long one cut.
    fuzz("ecc image", 6, &bytes, |b| {
        let mut image = [0u16; BRAM_ROWS];
        for (w, pair) in image.iter_mut().zip(b.chunks(2)) {
            *w = u16::from_le_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
        }
        let mut decoded = Vec::new();
        let stats = ecc::decode_image(&image, &clean, ECC_CODEWORDS_PER_BRAM, &mut decoded);
        assert_eq!(stats.words, ECC_CODEWORDS_PER_BRAM as u64);
        assert_eq!(decoded.len(), ECC_CODEWORDS_PER_BRAM * ECC_DATA_WORDS);
        assert!(stats.corrected + stats.detected + stats.miscorrected <= stats.words);
        stats.raw_flips == 0
    });
}
