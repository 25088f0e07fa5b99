//! VTR-style hierarchical power-breakdown report.
//!
//! Mirrors the `stereovision0.power` report VTR's power analyzer emits:
//! a "Power Breakdown" banner, then one row per component with columns
//! `Component / Power (W) / %-Total / %-Dynamic / Method`, children
//! indented one space per level. Here the hierarchy is chip → rail →
//! {dynamic, static}, and the Method column names the model term that
//! produced the number.
//!
//! Rendering is fully deterministic — numbers go through a hand-rolled
//! `%.4g` equivalent whose exponent search is plain f64 arithmetic (no
//! `log10`, whose last-bit behavior varies across libm builds) — so the
//! report bytes are pinned by a golden file under `tests/data/`.

use crate::model::ChipPowerModel;
use uvf_fpga::voltage::{Millivolts, Rail};

/// One line of the report. `depth` is the indent level (0 = the chip
/// total), `pct_total` is relative to the report's own operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    pub name: String,
    pub depth: usize,
    pub power_w: f64,
    pub pct_total: f64,
    pub pct_dynamic: f64,
    pub method: &'static str,
}

/// A rendered-or-renderable hierarchical power report.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    rows: Vec<BreakdownRow>,
}

impl PowerBreakdown {
    /// Evaluate `model` at the operating point given by `v_of` and build
    /// the chip → rail → {dynamic, static} hierarchy.
    #[must_use]
    pub fn of_model(
        model: &ChipPowerModel,
        v_of: impl Fn(Rail) -> Millivolts,
        temperature_c: f64,
    ) -> PowerBreakdown {
        let samples: Vec<_> = model
            .rails()
            .iter()
            .map(|spec| (spec.rail, spec.sample(v_of(spec.rail), temperature_c)))
            .collect();
        let total_w: f64 = samples.iter().map(|(_, s)| s.total_w()).sum();
        let total_dyn: f64 = samples.iter().map(|(_, s)| s.dynamic_w).sum();
        let mut rows = vec![BreakdownRow {
            name: "Total".to_string(),
            depth: 0,
            power_w: total_w,
            pct_total: 1.0,
            pct_dynamic: total_dyn / total_w,
            method: "",
        }];
        for (rail, s) in &samples {
            rows.push(BreakdownRow {
                name: rail.to_string().to_ascii_uppercase(),
                depth: 1,
                power_w: s.total_w(),
                pct_total: s.total_w() / total_w,
                pct_dynamic: s.dynamic_fraction(),
                method: "analytic",
            });
            rows.push(BreakdownRow {
                name: "Dynamic".to_string(),
                depth: 2,
                power_w: s.dynamic_w,
                pct_total: s.dynamic_w / total_w,
                pct_dynamic: 1.0,
                method: "quadratic",
            });
            rows.push(BreakdownRow {
                name: "Static".to_string(),
                depth: 2,
                power_w: s.static_w,
                pct_total: s.static_w / total_w,
                pct_dynamic: 0.0,
                method: "exp-leakage",
            });
        }
        PowerBreakdown { rows }
    }

    /// Chip total at the report's operating point, watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.rows[0].power_w
    }

    /// `%-Total` of the first row whose name matches (rail names are
    /// uppercase, e.g. `"VCCBRAM"`).
    #[must_use]
    pub fn share(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.pct_total)
    }

    /// Render the VTR-style text block (byte-deterministic).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&banner("Power Breakdown"));
        out.push_str(&format!(
            "{:<32}{:<12}{:<12}{:<12}{:<12}\n\n",
            "Component", "Power (W)", "%-Total", "%-Dynamic", "Method"
        ));
        for row in &self.rows {
            let name = format!("{}{}", " ".repeat(row.depth), row.name);
            out.push_str(
                format!(
                    "{:<32}{:<12}{:<12}{:<12}{:<12}\n",
                    name,
                    fmt_g4(row.power_w),
                    fmt_g4(row.pct_total),
                    fmt_g4(row.pct_dynamic),
                    row.method
                )
                .trim_end(),
            );
            out.push('\n');
        }
        out
    }
}

/// An 80-column `---- title ----` banner like VTR's section headers.
fn banner(title: &str) -> String {
    let body = format!(" {title} ");
    let dashes = 80usize.saturating_sub(body.len());
    let left = dashes / 2;
    format!(
        "{}{}{}\n",
        "-".repeat(left),
        body,
        "-".repeat(dashes - left)
    )
}

/// `%.4g` for the report's value range (no exponent notation needed):
/// 4 significant digits, trailing zeros trimmed.
fn fmt_g4(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let mut a = v.abs();
    let mut exp = 0i32;
    while a >= 10.0 {
        a /= 10.0;
        exp += 1;
    }
    while a < 1.0 {
        a *= 10.0;
        exp -= 1;
    }
    let decimals = (3 - exp).max(0) as usize;
    let s = format!("{v:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::platform::PlatformKind;

    #[test]
    fn fmt_g4_matches_printf_g() {
        assert_eq!(fmt_g4(0.06461), "0.06461");
        assert_eq!(fmt_g4(1.0), "1");
        assert_eq!(fmt_g4(10.0), "10");
        assert_eq!(fmt_g4(0.3882), "0.3882");
        assert_eq!(fmt_g4(0.0004793), "0.0004793");
        assert_eq!(fmt_g4(2.41), "2.41");
        assert_eq!(fmt_g4(0.0), "0");
    }

    #[test]
    fn nominal_breakdown_reports_the_paper_share() {
        let m = ChipPowerModel::for_platform(PlatformKind::Vc707);
        let b = m.breakdown(|r| m.rail(r).landmarks.nominal, 25.0);
        assert!((b.total_w() - 10.0).abs() < 1e-12);
        let share = b.share("VCCBRAM").unwrap();
        assert!((share - 0.241).abs() < 1e-12, "share {share}");
        assert!(b.share("VCCXYZ").is_none());
    }

    #[test]
    fn rows_sum_to_the_total() {
        let m = ChipPowerModel::for_platform(PlatformKind::Kc705A);
        let b = m.breakdown(|_| Millivolts(1000), 25.0);
        let rail_sum: f64 = b
            .rows
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.power_w)
            .sum();
        assert!((rail_sum - b.total_w()).abs() < 1e-9);
        let pct_sum: f64 = b
            .rows
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.pct_total)
            .sum();
        assert!((pct_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_deterministic() {
        let m = ChipPowerModel::for_platform(PlatformKind::Zc702);
        let v = |_| Millivolts(630);
        assert_eq!(m.breakdown(v, 25.0).render(), m.breakdown(v, 25.0).render());
    }
}
