//! The pinned reference cycle counts every run is checked against.

use std::collections::BTreeMap;

/// Location of the pinned suite baseline, relative to the repository root.
pub const PATH: &str = "BENCH_baseline.json";

/// One pinned cell of the suite matrix.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub cycles: u64,
    /// Committed instructions (block slots of committed blocks), recovered
    /// from the pinned IPC. `sweep` checks it against the stats snapshot
    /// of every run, which is what lets the service drain count the
    /// instructions of its completed jobs from the baseline.
    pub insts: u64,
}

pub struct Baseline {
    cells: BTreeMap<(String, usize), Cell>,
}

impl Baseline {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))?;
        let doc: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not JSON: {e:?}"))?;
        let mut cells = BTreeMap::new();
        let workloads = doc
            .get("workloads")
            .as_array()
            .ok_or_else(|| format!("{path}: no `workloads` array"))?;
        for w in workloads {
            let name = w
                .get("name")
                .as_str()
                .ok_or_else(|| format!("{path}: workload without a name"))?;
            for run in w.get("runs").as_array().into_iter().flatten() {
                let (Some(cores), Some(cycles), Some(ipc)) = (
                    run.get("cores").as_u64(),
                    run.get("cycles").as_u64(),
                    run.get("ipc").as_f64(),
                ) else {
                    return Err(format!("{path}: malformed run of `{name}`"));
                };
                let insts = (ipc * cycles as f64).round() as u64;
                cells.insert((name.to_string(), cores as usize), Cell { cycles, insts });
            }
        }
        Ok(Baseline { cells })
    }

    pub fn cell(&self, workload: &str, cores: usize) -> Option<Cell> {
        self.cells.get(&(workload.to_string(), cores)).copied()
    }
}
