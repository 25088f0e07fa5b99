//! The §V-B power landmarks of the VC707, one test per headline number:
//! fig10 runs once through the registry, and each test applies its piece
//! of `uvf_bench::registry::check_fig10`, the one home of their bounds.

use std::sync::OnceLock;

use uvf_bench::registry::{
    check_fig10_further_reduction, check_fig10_share, check_fig10_vmin_reduction, run_experiment,
    CmdSummary, Ctx,
};

fn fig10() -> &'static CmdSummary {
    static FIG10: OnceLock<CmdSummary> = OnceLock::new();
    FIG10.get_or_init(|| {
        let out = std::env::temp_dir().join(format!("uvf-landmarks-{}", std::process::id()));
        let summary = run_experiment("fig10", &mut Ctx::new(false, true, out.clone()));
        std::fs::remove_dir_all(&out).ok();
        summary.unwrap_or_else(|msg| panic!("fig10: {msg}"))
    })
}

fn pass(gate: Result<(), String>) {
    if let Err(msg) = gate {
        panic!("{msg}");
    }
}

#[test]
fn vc707_bram_rail_is_24_1_percent_at_nominal() {
    pass(check_fig10_share(fig10()));
}

#[test]
fn vc707_rail_reduction_at_vmin_exceeds_10x() {
    pass(check_fig10_vmin_reduction(fig10()));
}

#[test]
fn vc707_further_reduction_at_vcrash_is_about_40_percent() {
    pass(check_fig10_further_reduction(fig10()));
}
