//! A VC707 VCCBRAM guardband sweep that survives its own crash.
//!
//! The sweep descends in 10 mV steps. Below Vcrash the board acknowledges
//! the lethal rail setting and silently hangs; the harness watchdog notices
//! the dead read, power-cycles, retries with backoff, and — once retries
//! are exhausted — reports the crash boundary. A JSON checkpoint is
//! written throughout, so killing this process mid-sweep and re-running
//! it resumes instead of restarting.
//!
//! Run with: `cargo run --release -p uvf-characterize --example
//! crash_resilient_sweep`

use uvf_characterize::{GuardbandReport, Harness, RecoveryPolicy, SweepConfig};
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

fn main() {
    let platform = PlatformKind::Vc707.descriptor();
    // Start a little above Vmin so the demo runs in seconds; use
    // `SweepConfig::listing1` for the full from-nominal campaign.
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(10)
        .start(Millivolts(platform.vccbram.vmin.0 + 30))
        .build();

    let checkpoint = std::env::temp_dir().join("uvf-vc707-vccbram.json");
    let board = Board::new(platform);
    let mut harness = Harness::new(board, cfg, RecoveryPolicy::default())
        .and_then(|h| h.with_checkpoint_path(&checkpoint))
        .unwrap_or_else(|e| {
            eprintln!("harness setup failed: {e}");
            std::process::exit(1);
        });

    println!(
        "sweeping {} VCCBRAM from {} (checkpoint: {})",
        platform.kind,
        cfg.start,
        checkpoint.display()
    );

    match harness.run() {
        Ok(outcome) => {
            let record = harness.record();
            for level in &record.levels {
                println!(
                    "  {:>4} mV  median faults {:>6}  {}",
                    level.v_mv,
                    level.median_faults(),
                    if level.crashed { "CRASHED" } else { "" }
                );
            }
            for ev in &record.crash_events {
                println!(
                    "  crash @ {} mV run {} attempt {} (detected after {} ms, backoff {} ms)",
                    ev.v_mv, ev.run, ev.attempt, ev.detected_ms, ev.backoff_ms
                );
            }
            println!("outcome: {outcome:?}");
            println!("{}", GuardbandReport::from_record(record));
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }

    std::fs::remove_file(&checkpoint).ok();
}
