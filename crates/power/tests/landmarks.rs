//! Power-model invariants and breakdown-report golden bytes.
//!
//! Every platform saves power monotonically down the ladder, and the
//! VTR-style report renders byte-identically.
//! The §V-B headline numbers (24.1 %, >10× at Vmin, 40 % further at
//! Vcrash) are gated by `uvf_bench::registry::check_fig10`, which tier-1
//! runs through `crates/bench/tests/registry.rs`.
//! Regenerate the golden after an intentional format change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p uvf-power --test landmarks
//! ```

use std::path::PathBuf;

use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_power::ChipPowerModel;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/data");
        std::fs::write(&path, actual).expect("write golden");
        println!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "{name}: first divergence at line {}", i + 1);
    }
    assert_eq!(expected, actual, "{name}: trailing bytes differ");
}

fn vc707() -> ChipPowerModel {
    ChipPowerModel::for_platform(PlatformKind::Vc707)
}

#[test]
fn every_platform_monotonically_saves_power_down_the_ladder() {
    for kind in PlatformKind::ALL {
        let m = ChipPowerModel::for_platform(kind);
        let spec = m.rail(Rail::Vccbram);
        let mut prev = f64::INFINITY;
        let mut v = spec.landmarks.nominal;
        while v >= spec.landmarks.vcrash {
            let p = spec.sample(v, 25.0).total_w();
            assert!(p < prev, "{kind}: power not monotone at {v}");
            prev = p;
            v = Millivolts(v.0 - 10);
        }
    }
}

#[test]
fn breakdown_report_bytes_are_golden() {
    let m = vc707();
    let nominal = m.breakdown(|r| m.rail(r).landmarks.nominal, 25.0).render();
    assert_golden("breakdown_vc707_nominal.txt", &nominal);

    // And at Vmin on the swept rail — the report the fig11 subcommand
    // emits alongside the nominal one.
    let vmin = m.rail(Rail::Vccbram).landmarks.vmin;
    let at_vmin = m
        .breakdown(
            |r| {
                if r == Rail::Vccbram {
                    vmin
                } else {
                    Millivolts::NOMINAL
                }
            },
            25.0,
        )
        .render();
    assert_golden("breakdown_vc707_vmin.txt", &at_vmin);
}
