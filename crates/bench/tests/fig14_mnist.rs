//! The paper's §V story end to end on the VC707, at paper scale, on one
//! trained MNIST accelerator: the registry's network rows (fig12, fig13,
//! fig14 and mitigation) run once, in-process, with `--check`'s artifact
//! validation, and each test below applies one `uvf_bench::registry`
//! gate (or gate piece) to the metrics they reported or pins their event
//! logs' digests.
//!
//! * Fig. 14 — the network at nominal voltage hits the ~2.56 % error
//!   landmark; undervolting to `Vcrash` degrades it; ICBP — re-placing
//!   the most vulnerable layer onto the chip's least-faulty BRAM window —
//!   recovers to within half a point of nominal with zero extra BRAMs.
//! * Fig. 12 — the voltage–accuracy–power Pareto sweep has a frontier with
//!   a pinned knee, and is bit-identical across runs.
//!
//! Training the 1.5M-weight network is the expensive part, so the rows
//! run once behind a `OnceLock` and every test in this binary shares
//! them. (The small `--quick` network is too fault-tolerant for this
//! shape; `registry.rs` runs it against its digests.)

mod common;

use std::sync::OnceLock;

use common::{assert_pinned, ctx, pass, run_rows, Outcome, NET_ROWS};
use uvf_bench::registry::{
    check_fig12_frontier, check_fig12_ladder, check_fig13, check_fig13_calibration_filter,
    check_fig14, check_mitigation, CmdSummary,
};

fn rows() -> &'static [(&'static str, Outcome)] {
    static ROWS: OnceLock<Vec<(&'static str, Outcome)>> = OnceLock::new();
    ROWS.get_or_init(|| run_rows(false, |name| NET_ROWS.contains(&name)))
}

/// The paper-scale run of `name`: its metrics and its log's digest.
fn row(name: &str) -> (&'static CmdSummary, u64) {
    common::row(rows(), false, name)
}

/// The pinned (`NET_SEED`, `CHIP_SEED`, `EVAL_RUN_SEED`) triple must
/// still pass the exact CANDIDATE filter of the `calibrate_seed_chip_run`
/// scan, so a dataset / trainer / fault-model change that silently
/// invalidates the constants fails here.
#[test]
fn pinned_constants_pass_the_calibration_filter() {
    pass(check_fig13_calibration_filter(row("fig13").0));
}

/// Nominal on the 2.56 % landmark, visible degradation at `Vcrash`, the
/// output layer dominant (Fig. 13), and ICBP back within half a point of
/// nominal on the same BRAM budget (Fig. 14).
#[test]
fn fig14_shape_on_vc707() {
    let paper = ctx(false);
    pass(check_fig13(&paper, row("fig13").0));
    pass(check_fig14(&paper, row("fig14").0));
}

/// The Fig. 13/14 records match the digests pinned by earlier runs.
#[test]
fn fig14_is_bit_identical_across_runs() {
    assert_pinned(
        false,
        &[("fig13", row("fig13").1), ("fig14", row("fig14").1)],
    );
}

/// Nominal first, then `Vmin` + 50 = 660 mV down to `Vcrash` = 540 mV in
/// 10 mV steps, with power strictly falling.
#[test]
fn sweep_covers_nominal_through_vcrash() {
    pass(check_fig12_ladder(&ctx(false), row("fig12").0));
}

/// An ordered minimize-both frontier whose knee is pinned at 550 mV.
#[test]
fn frontier_has_a_pinned_knee() {
    pass(check_fig12_frontier(&ctx(false), row("fig12").0));
}

/// Every Fig. 12 point matches the digest pinned by earlier runs.
#[test]
fn sweep_is_bit_identical_across_reruns() {
    assert_pinned(false, &[("fig12", row("fig12").1)]);
}

/// ECC+ICBP holds nominal deeper than ICBP alone, on records pinned by
/// earlier runs.
#[test]
fn mitigation_shootout_passes_its_gate_and_digest() {
    let (summary, digest) = row("mitigation");
    pass(check_mitigation(&ctx(false), summary));
    assert_pinned(false, &[("mitigation", digest)]);
}
