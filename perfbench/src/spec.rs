//! The two files the benchmark reads: `BENCHMARK.json` (which metrics a
//! run must print, with their units) and the committed output digests of
//! the default seed.

use std::path::Path;
use uvf_trace::Json;

/// One metric a run must print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` a run needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_list(v: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: {key} missing"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

impl Spec {
    /// # Errors
    /// When the file is missing or lacks a required list.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let v = read_json(path)?;
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: workloads missing")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without name".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metric_list(&v, "end_to_end")?,
            per_layer: metric_list(&v, "per_layer")?,
        })
    }
}

/// Per-operation digests committed for one seed, per workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedDigests {
    pub seed: u64,
    pub by_workload: Vec<(String, Vec<u64>)>,
}

impl CommittedDigests {
    /// # Errors
    /// When the file is missing or malformed.
    pub fn load(path: &Path) -> Result<CommittedDigests, String> {
        let v = read_json(path)?;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("digests: seed missing")?;
        let Some(Json::Obj(fields)) = v.get("ops") else {
            return Err("digests: ops missing".into());
        };
        let by_workload = fields
            .iter()
            .map(|(name, list)| {
                let digests = list
                    .as_arr()
                    .ok_or("digests: ops entry is not a list")?
                    .iter()
                    .map(|d| {
                        d.as_str()
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| format!("digests: bad digest in {name}"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                Ok((name.clone(), digests))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CommittedDigests { seed, by_workload })
    }

    #[must_use]
    pub fn for_workload(&self, name: &str) -> Option<&[u64]> {
        self.by_workload
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// The file [`CommittedDigests::load`] reads.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let ops = self
            .by_workload
            .iter()
            .map(|(name, digests)| {
                let list = digests
                    .iter()
                    .map(|d| format!("\"{d:016x}\""))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("    \"{name}\": [{list}]")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"seed\": {},\n  \"ops\": {{\n{ops}\n  }}\n}}\n",
            self.seed
        )
    }
}
