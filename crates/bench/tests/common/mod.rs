//! The registry's digest table, its runner and the helpers that apply
//! gate pieces, shared by `registry.rs` (every row at quick scale, the
//! platform rows at paper scale) and `fig14_mnist.rs` (the paper-scale
//! network rows).
//!
//! Each experiment's `.jsonl` event log is pinned by its FNV-1a digest,
//! so any record drift fails tier-1 even when no landmark moves.
//! Regenerate the table after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p uvf-bench --test registry --test fig14_mnist
//! ```
//!
//! and say why in the change log. Each binary rewrites the cells it ran.

use std::path::PathBuf;

use uvf_bench::registry::{run_experiment, CmdSummary, Ctx, REGISTRY};
use uvf_fpga::seedmix::fnv1a;

/// `(experiment, quick-scale digest, paper-scale digest)` of every
/// experiment's `.jsonl`, in registry order.
#[rustfmt::skip]
pub const DIGESTS: &[(&str, u64, u64)] = &[
    ("table1", 0x6f1cc2fb1c12cfd2, 0x6f1cc2fb1c12cfd2),
    ("fig1", 0x30aa18b31430a5ac, 0x59e5e2e6a7265f18),
    ("fig3", 0x31299a86c313afbf, 0xc6e3d7420592b971),
    ("fig4", 0x009a3b984d008b96, 0x70ec38837489dcbe),
    ("fig5", 0x9a1bb2832437b507, 0x9a1bb2832437b507),
    ("table2", 0x1f255272637ee37f, 0x0563221ed3691c48),
    ("fig8", 0x0d8d918d49f677c0, 0x5d163f86a465e90f),
    ("fig10", 0xbb394c64df342064, 0xbb394c64df342064),
    ("fig11", 0xab8af68cbc8e8eee, 0xab8af68cbc8e8eee),
    ("fig12", 0x6304b0a081417b63, 0x13b0da8ef9478f9f),
    ("fig13", 0x01d88b009cf2d430, 0x9c153c9c39f7409f),
    ("fig14", 0x8238fb3d17ca4597, 0xc9365330339f7098),
    ("mitigation", 0xcb75c974536941a4, 0x28f773bce0e477cd),
];

/// The rows that train and read the §V network: at paper scale they run
/// in `fig14_mnist.rs`, on the one trained network its tests share.
pub const NET_ROWS: [&str; 4] = ["fig12", "fig13", "fig14", "mitigation"];

/// One row's outcome: the metrics its gate judges and its log's digest,
/// or why the run or its artifacts failed.
pub type Outcome = Result<(CmdSummary, u64), String>;

pub fn scale(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "paper"
    }
}

fn out_dir(quick: bool) -> PathBuf {
    std::env::temp_dir().join(format!(
        "uvf-registry-{}-{}",
        scale(quick),
        std::process::id()
    ))
}

/// A context at `quick` or paper scale with `--check` set: the one the
/// rows ran in, and the one their gates take.
pub fn ctx(quick: bool) -> Ctx {
    Ctx::new(quick, true, out_dir(quick))
}

/// Run the `all` experiments `rows` picks, in registry order, into a
/// fresh directory of their own with `--check`'s artifact validation, and
/// return each one's outcome. The directory is removed afterwards; under
/// `UPDATE_GOLDEN` the digests of the rows that ran are blessed.
pub fn run_rows(quick: bool, rows: fn(&str) -> bool) -> Vec<(&'static str, Outcome)> {
    let mut ctx = ctx(quick);
    std::fs::remove_dir_all(&ctx.out).ok();
    let outcomes: Vec<(&'static str, Outcome)> = REGISTRY
        .iter()
        .filter(|e| e.in_all && rows(e.name))
        .map(|e| {
            let outcome = run_experiment(e.name, &mut ctx).and_then(|summary| {
                let log = std::fs::read(ctx.out.join(format!("{}.jsonl", e.name)))
                    .map_err(|err| format!("event log: {err}"))?;
                Ok((summary, fnv1a(&log)))
            });
            (e.name, outcome)
        })
        .collect();
    std::fs::remove_dir_all(&ctx.out).ok();
    if blessing() {
        let digests: Vec<(&str, u64)> = outcomes
            .iter()
            .filter_map(|(name, outcome)| outcome.as_ref().ok().map(|(_, d)| (*name, *d)))
            .collect();
        bless(quick, &digests);
    }
    outcomes
}

/// The run of `name` among `rows` at `quick` or paper scale: its metrics
/// and its log's digest. Panics if the row failed or did not run.
pub fn row<'a>(
    rows: &'a [(&'static str, Outcome)],
    quick: bool,
    name: &str,
) -> (&'a CmdSummary, u64) {
    let (_, outcome) = rows
        .iter()
        .find(|(row, _)| *row == name)
        .unwrap_or_else(|| panic!("{} {name} did not run", scale(quick)));
    match outcome {
        Ok((summary, digest)) => (summary, *digest),
        Err(msg) => panic!("{} {name}: {msg}", scale(quick)),
    }
}

/// Panic with a gate's error.
pub fn pass(gate: Result<(), String>) {
    if let Err(msg) = gate {
        panic!("{msg}");
    }
}

fn blessing() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Assert each `(experiment, digest)` is the table's cell at `quick` or
/// paper scale (a no-op while blessing: the table is being rewritten).
pub fn assert_pinned(quick: bool, digests: &[(&str, u64)]) {
    if blessing() {
        return;
    }
    let drifted: Vec<String> = digests
        .iter()
        .filter(|&&(name, digest)| {
            let pinned = DIGESTS
                .iter()
                .find(|row| row.0 == name)
                .map(|&(_, q, p)| if quick { q } else { p });
            pinned != Some(digest)
        })
        .map(|(name, digest)| format!("{name}: {} {digest:#018x}", scale(quick)))
        .collect();
    assert!(
        drifted.is_empty(),
        "event logs drifted from the digest table (bless with UPDATE_GOLDEN=1): {drifted:#?}"
    );
}

/// Rewrite the `quick` or paper cell of each `(experiment, digest)` in
/// the table of this file, keeping every other cell.
fn bless(quick: bool, digests: &[(&str, u64)]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/common/mod.rs");
    let text = std::fs::read_to_string(&path).expect("read test source");
    let rewritten: String = text
        .lines()
        .map(|line| {
            let measured = digests
                .iter()
                .find(|(name, _)| line.starts_with(&format!("    ({name:?}, 0x")));
            match measured {
                Some(&(name, digest)) => {
                    let cells: Vec<&str> = line.trim_end_matches("),").split(", ").collect();
                    let cell = format!("{digest:#018x}");
                    let (q, p) = if quick {
                        (cell.as_str(), cells[2])
                    } else {
                        (cells[1], cell.as_str())
                    };
                    format!("    ({name:?}, {q}, {p}),\n")
                }
                None => format!("{line}\n"),
            }
        })
        .collect();
    std::fs::write(&path, rewritten).expect("write test source");
    println!(
        "regenerated the {} digests of {} rows in {}",
        scale(quick),
        digests.len(),
        path.display()
    );
}
