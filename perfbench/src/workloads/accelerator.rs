//! `accelerator`: the §V evaluation of the trained network on one VC707
//! die, repeated with a new run seed per pass.
//!
//! One pass runs what `repro fig13 fig14 fig12 mitigation` run: the
//! per-layer vulnerability at `Vcrash` plus the ICBP read-back, the
//! voltage–accuracy–power sweep, and the four-mode mitigation shoot-out.
//! Read-back, SECDED decode and classification carry the load; sweeps and
//! probe scans do nothing. The chip repeats, so reuse of its die (through
//! `FvmCache`), delta read-back and skipping unchanged classifications
//! would all show here.

use crate::digest::Digest;
use crate::fixture::{self, Fixture, CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C};
use crate::runner::{OpOutput, Replayed, RunConfig, Workload};
use std::time::{Duration, Instant};
use uvf_accel::{
    layer_vulnerability_traced, mitigation_shootout_traced, voltage_accuracy_power_sweep,
    LayerFaults, MappedNetwork, Mitigation, MitigationShootout, ParetoConfig, Placement,
    ShootoutConfig,
};
use uvf_faults::ecc::{self, EccStats};
use uvf_faults::{FaultModel, ReadCondition};
use uvf_fpga::eccmode::{ECC_DATA_WORDS, ECC_WORDS_PER_BRAM};
use uvf_fpga::{Board, Millivolts, Platform, PlatformKind, Rail, BRAM_ROWS};
use uvf_trace::Tracer;

#[derive(Debug, PartialEq)]
pub struct Accelerator {
    seed: u64,
    fx: Fixture,
    /// The shoot-out of pass 0, which the traced run replays call by call.
    first_shootout: Option<MitigationShootout>,
}

/// Run seed of pass `index`: pass 0 of seed 0 scores the read `repro`
/// scores.
#[must_use]
pub fn pass_run_seed(seed: u64, index: u64) -> u64 {
    EVAL_RUN_SEED
        .wrapping_add(seed.wrapping_mul(1_000_003))
        .wrapping_add(index)
}

fn check_error(what: &str, e: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&e) {
        Ok(())
    } else {
        Err(format!("{what}: error {e} outside [0, 1]"))
    }
}

/// Charge the wall time since `start` evenly to the `rungs` a public call
/// evaluated: a call cannot be timed per rung from outside, so the call is
/// one measurement standing for its rungs.
fn per_rung(latencies: &mut Vec<(f64, u64)>, start: Instant, rungs: u64) {
    let ms = start.elapsed().as_secs_f64() * 1e3 / rungs.max(1) as f64;
    latencies.push((ms, rungs));
}

fn digest_ecc(d: &mut Digest, s: Option<EccStats>) {
    match s {
        None => d.u64(u64::MAX),
        Some(s) => d
            .u64(s.words)
            .u64(s.raw_flips)
            .u64(s.corrected)
            .u64(s.detected)
            .u64(s.miscorrected),
    };
}

impl Accelerator {
    /// The shoot-out configuration of the pass with `run_seed`.
    fn shootout_config(&self, run_seed: u64) -> ShootoutConfig {
        ShootoutConfig::vc707_default(
            CHIP_SEED,
            run_seed,
            EVAL_TEMPERATURE_C,
            self.fx.weights.len() - 1,
        )
    }

    /// Figs. 13 and 14: per-layer vulnerability at `Vcrash`, then the
    /// dominant layer moved by ICBP and read back once more. Returns the
    /// rungs evaluated.
    fn vulnerability(&self, run_seed: u64, d: &mut Digest, tracer: &Tracer) -> Result<u64, String> {
        let fx = &self.fx;
        let platform = Platform::new(PlatformKind::Vc707);
        let mut board = {
            let _s = tracer.span("fpga.board_build");
            Board::with_chip_seed(platform, CHIP_SEED)
        };
        let model = {
            let _s = tracer.span("faults.model_build");
            tracer.counter("faults.model_builds", 1);
            FaultModel::with_chip_seed(platform, CHIP_SEED)
        };
        let cond = {
            let _s = tracer.span("faults.mask_build");
            model.resolve(&ReadCondition {
                v: platform.vccbram.vcrash,
                temperature_c: EVAL_TEMPERATURE_C,
                run_seed,
            })
        };
        let placement = {
            let _s = tracer.span("accel.placement");
            Placement::contiguous(&fx.weights)
        };
        let mapped = {
            let _s = tracer.span("accel.load");
            MappedNetwork::load_traced(&mut board, &fx.qnet, placement, tracer)
                .map_err(|e| format!("load: {e:?}"))?
        };
        let report = {
            let _s = tracer.span("accel.ladder");
            layer_vulnerability_traced(&mapped, &board, &model, &cond, &fx.data.test, tracer)
                .map_err(|e| format!("vulnerability: {e:?}"))?
        };
        if report.baseline != fx.nominal_error {
            return Err(format!(
                "vulnerability baseline {} != nominal {}",
                report.baseline, fx.nominal_error
            ));
        }
        d.f64(report.baseline).f64(report.degraded);
        check_error("vulnerability", report.degraded)?;
        for &e in &report.per_layer {
            check_error("vulnerability layer", e)?;
            d.f64(e);
        }

        let fvm = {
            let _s = tracer.span("faults.variation_map");
            model.variation_map(cond.condition().v)
        };
        let icbp = {
            let _s = tracer.span("accel.placement");
            Placement::icbp(&fx.weights, &fvm, report.dominant_layer())
        };
        let mut board = {
            let _s = tracer.span("fpga.board_build");
            Board::with_chip_seed(platform, CHIP_SEED)
        };
        let remapped = {
            let _s = tracer.span("accel.load");
            MappedNetwork::load_traced(&mut board, &fx.qnet, icbp, tracer)
                .map_err(|e| format!("icbp load: {e:?}"))?
        };
        let net = {
            let _s = tracer.span("accel.readback");
            remapped
                .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, tracer)
                .map_err(|e| format!("icbp read: {e:?}"))?
        };
        let icbp_error = {
            let _s = tracer.span("nn.classify");
            net.error_on(&fx.data.test)
        };
        check_error("icbp", icbp_error)?;
        d.f64(icbp_error);
        Ok(2 + report.per_layer.len() as u64 + 1)
    }

    /// Replay the pass-0 shoot-out one public call at a time: die, map,
    /// placement, load, then per rung the masks, the SECDED decode, the
    /// read-back and the classification. Every rung must reproduce the
    /// report. The read-back builds the same masks and runs the same decode
    /// again inside; that repeat is returned as `repeated_ns`.
    fn replay_shootout(&self, tracer: &Tracer) -> Result<Replayed, String> {
        let fx = &self.fx;
        let reference = self
            .first_shootout
            .as_ref()
            .ok_or("no shoot-out recorded to replay")?;
        let cfg = reference.config;
        let platform = Platform::new(cfg.platform);
        let rail = platform.rail(Rail::Vccbram);
        let model = {
            let _s = tracer.span("faults.model_build");
            tracer.counter("faults.model_builds", 1);
            FaultModel::with_chip_seed(platform, cfg.chip_seed)
        };
        let fvm = {
            let _s = tracer.span("faults.variation_map");
            model.variation_map(rail.vcrash)
        };
        let floor_mv = rail.vcrash.0.saturating_sub(cfg.descend_below_vcrash_mv);
        let mut ladder: Vec<Option<Millivolts>> = vec![None];
        let mut v = rail.vmin.0 + cfg.start_above_vmin_mv;
        while v >= floor_mv {
            ladder.push(Some(Millivolts(v)));
            let Some(next) = v.checked_sub(cfg.step_mv.max(1)) else {
                break;
            };
            v = next;
        }

        let mut rungs = 0u64;
        let mut repeated = Duration::ZERO;
        let (mut scratch, mut decoded) = ([0u16; BRAM_ROWS], Vec::new());
        for m in Mitigation::ALL {
            let curve = reference.curve(m);
            if curve.points.len() + 1 != ladder.len() {
                return Err(format!(
                    "{m}: report has {} rungs, ladder {}",
                    curve.points.len() + 1,
                    ladder.len()
                ));
            }
            let capacity = if m.uses_ecc() {
                ECC_WORDS_PER_BRAM
            } else {
                BRAM_ROWS
            };
            let placement = {
                let _s = tracer.span("accel.placement");
                if m.uses_icbp() {
                    Placement::icbp_with_capacity(&fx.weights, &fvm, cfg.protected_layer, capacity)
                } else {
                    Placement::contiguous_with_capacity(&fx.weights, capacity)
                }
            };
            let mut board = {
                let _s = tracer.span("fpga.board_build");
                Board::with_chip_seed(platform, cfg.chip_seed)
            };
            let mapped = {
                let _s = tracer.span("accel.load");
                if m.uses_ecc() {
                    MappedNetwork::load_ecc_traced(&mut board, &fx.qnet, placement, tracer)
                } else {
                    MappedNetwork::load_traced(&mut board, &fx.qnet, placement, tracer)
                }
                .map_err(|e| format!("{m} load: {e:?}"))?
            };
            let mut previous = None;
            for (k, &level) in ladder.iter().enumerate() {
                let (cond, masks) = {
                    let _s = tracer.span("faults.mask_build");
                    let cond = level.map(|v| {
                        model.resolve(&ReadCondition {
                            v,
                            temperature_c: cfg.temperature_c,
                            run_seed: cfg.run_seed,
                        })
                    });
                    let t0 = Instant::now();
                    let masks: Vec<_> = match &cond {
                        None => Vec::new(),
                        Some(c) => (0..fx.weights.len())
                            .flat_map(|l| mapped.placement().layer(l).iter())
                            .map(|&b| model.fault_mask(b, c))
                            .collect(),
                    };
                    repeated += t0.elapsed();
                    tracer.counter("faults.masks_built", masks.len() as u64);
                    (cond, masks)
                };
                let replayed_ecc = if m.uses_ecc() {
                    let t0 = Instant::now();
                    let _s = tracer.span("faults.ecc_decode");
                    let mut stats = EccStats::default();
                    let mut mask = masks.iter();
                    for (l, layer) in fx.qnet.layers().iter().enumerate() {
                        let n = layer.weights.len();
                        for (i, &bram) in mapped.placement().layer(l).iter().enumerate() {
                            let clean = board.read_bram(bram).map_err(|e| format!("{e:?}"))?;
                            let take = (n - i * ECC_WORDS_PER_BRAM).min(ECC_WORDS_PER_BRAM);
                            let codewords = take.div_ceil(ECC_DATA_WORDS);
                            decoded.clear();
                            stats.merge(&match mask.next() {
                                Some(mk) => ecc::corrupt_and_decode(
                                    mk,
                                    clean,
                                    codewords,
                                    &mut scratch,
                                    &mut decoded,
                                ),
                                None => ecc::decode_image(clean, clean, codewords, &mut decoded),
                            });
                        }
                    }
                    tracer.counter("faults.ecc_words", stats.words);
                    tracer.counter("faults.ecc_corrected", stats.corrected);
                    tracer.counter("faults.ecc_escaped", stats.escaped());
                    repeated += t0.elapsed();
                    Some(stats)
                } else {
                    None
                };
                let net = {
                    let _s = tracer.span("accel.readback");
                    if m.uses_ecc() {
                        let (net, stats) = mapped
                            .read_back_ecc_traced(
                                &board,
                                &model,
                                cond.as_ref(),
                                LayerFaults::All,
                                tracer,
                            )
                            .map_err(|e| format!("{m} read: {e:?}"))?;
                        if Some(stats) != replayed_ecc {
                            return Err(format!(
                                "{m} rung {k}: read-back tallies {stats:?}, replayed decode {replayed_ecc:?}"
                            ));
                        }
                        net
                    } else {
                        mapped
                            .read_back_traced(
                                &board,
                                &model,
                                cond.as_ref(),
                                LayerFaults::All,
                                tracer,
                            )
                            .map_err(|e| format!("{m} read: {e:?}"))?
                    }
                };
                if previous.as_ref() != Some(&net) {
                    tracer.counter("accel.changed_rungs", 1);
                }
                tracer.counter("accel.replayed_rungs", 1);
                let error = {
                    let _s = tracer.span("nn.classify");
                    net.error_on(&fx.data.test)
                };
                let (want, want_ecc) = match k {
                    0 => (curve.nominal_error, replayed_ecc),
                    _ => (curve.points[k - 1].error, curve.points[k - 1].ecc),
                };
                if error != want || replayed_ecc != want_ecc {
                    return Err(format!(
                        "{m} rung {k}: replay error {error} / {replayed_ecc:?}, report {want} / {want_ecc:?}"
                    ));
                }
                previous = Some(net);
                rungs += 1;
            }
        }
        Ok(Replayed {
            items: rungs,
            repeated_ns: u64::try_from(repeated.as_nanos()).unwrap_or(u64::MAX),
        })
    }
}

impl Workload for Accelerator {
    const NAME: &'static str = "accelerator";
    const ITEM: &'static str = "rung";
    const OP: &'static str = "pass";
    const LATENCY_OF: &'static str = "rung";
    const DIGEST_OPS: u64 = 1;
    const SETUP_REPS: usize = 5;

    fn load() -> (usize, usize) {
        (1, 0)
    }

    /// Dataset generation, training and quantization of the fixture.
    fn setup(cfg: &RunConfig, tracer: &Tracer) -> Result<Accelerator, String> {
        Ok(Accelerator {
            seed: cfg.seed,
            fx: fixture::build(tracer),
            first_shootout: None,
        })
    }

    fn op(&mut self, index: u64, tracer: &Tracer) -> Result<OpOutput, String> {
        let run_seed = pass_run_seed(self.seed, index);
        let fx = &self.fx;
        let mut d = Digest::new();
        let mut latencies = Vec::new();
        let start = Instant::now();
        let mut rungs = self.vulnerability(run_seed, &mut d, tracer)?;
        per_rung(&mut latencies, start, rungs);

        let start = Instant::now();
        let sweep = {
            let _s = tracer.span("accel.ladder");
            let cfg = ParetoConfig::vc707_default(CHIP_SEED, run_seed, EVAL_TEMPERATURE_C);
            voltage_accuracy_power_sweep(&cfg, &fx.qnet, &fx.weights, &fx.data)
                .map_err(|e| format!("pareto sweep: {e:?}"))?
        };
        let nominal = sweep.points.first().ok_or("empty sweep")?;
        if nominal.error != fx.nominal_error {
            return Err(format!(
                "sweep nominal error {} != {}",
                nominal.error, fx.nominal_error
            ));
        }
        for p in &sweep.points {
            check_error("sweep", p.error)?;
            d.u64(u64::from(p.v_mv)).u64(p.rail_uw).f64(p.error);
        }
        d.u64(sweep.knee as u64);
        rungs += sweep.points.len() as u64;
        per_rung(&mut latencies, start, sweep.points.len() as u64);

        let start = Instant::now();
        let shootout = {
            let _s = tracer.span("accel.ladder");
            mitigation_shootout_traced(
                &self.shootout_config(run_seed),
                &fx.qnet,
                &fx.weights,
                &fx.data,
                tracer,
            )
            .map_err(|e| format!("shoot-out: {e:?}"))?
        };
        for curve in &shootout.curves {
            if curve.nominal_error != fx.nominal_error {
                return Err(format!(
                    "{} nominal error {} != {}",
                    curve.mitigation, curve.nominal_error, fx.nominal_error
                ));
            }
            d.str(curve.mitigation.name()).f64(curve.nominal_error);
            for p in &curve.points {
                check_error(curve.mitigation.name(), p.error)?;
                d.u64(u64::from(p.v_mv)).f64(p.error);
                digest_ecc(&mut d, p.ecc);
            }
            rungs += 1 + curve.points.len() as u64;
        }
        let shootout_rungs = shootout
            .curves
            .iter()
            .map(|c| 1 + c.points.len() as u64)
            .sum();
        per_rung(&mut latencies, start, shootout_rungs);
        if index == 0 {
            self.first_shootout = Some(shootout);
        }
        Ok(OpOutput {
            items: rungs,
            digest: d.finish(),
            latencies_ms: latencies,
        })
    }

    fn replay(&mut self, tracer: &Tracer) -> Result<Replayed, String> {
        let _s = tracer.span("accel.replay");
        self.replay_shootout(tracer)
    }
}
