//! Sweep runner and result emission (CSV + aligned ASCII tables).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
use a2a_netsim::{
    models, simulate_min_of, simulate_min_of_sharded, CostModel, ShardOptions, SimReport,
};
use a2a_topo::{presets, Machine, ProcGrid};
use serde::{Deserialize, Serialize};

/// Per-process block sizes the paper sweeps (4 B – 4096 B).
pub const DEFAULT_SIZES: [u64; 6] = [4, 16, 64, 256, 1024, 4096];

/// Group sizes (processes per leader/group) the paper evaluates.
pub const PAPER_GROUP_SIZES: [usize; 3] = [4, 8, 16];

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Machine preset: "dane" | "amber" | "tuolumne".
    pub machine: String,
    /// Node count (paper figures use 32 unless scaling nodes).
    pub nodes: usize,
    /// Full-size nodes (112/96 ppn) or scaled (32 ppn, same hierarchy).
    pub full_scale: bool,
    /// Independent jittered runs; the minimum is reported (paper: 3).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Simulator worker threads (shards). 1 = the sequential engine;
    /// 0 = the host's available parallelism. Any value produces
    /// byte-identical results — this only changes wall-clock.
    pub workers: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            machine: "dane".into(),
            nodes: 32,
            full_scale: false,
            runs: 3,
            seed: 1,
            workers: 1,
        }
    }
}

impl RunConfig {
    pub fn grid(&self) -> ProcGrid {
        ProcGrid::new(machine_for(&self.machine, self.nodes, self.full_scale))
    }

    pub fn model(&self) -> CostModel {
        models::for_machine(&self.machine)
    }

    /// Resolved worker count (0 = available parallelism, capped at nodes).
    pub fn resolved_workers(&self) -> usize {
        let w = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.workers
        };
        w.clamp(1, self.nodes)
    }

    /// The run-header line recorded in figure CSV/JSON output: the machine
    /// shape plus the shard/worker layout of the simulator that produced
    /// the data.
    pub fn run_header(&self) -> String {
        let grid = self.grid();
        let workers = self.resolved_workers();
        format!(
            "machine={} nodes={} ppn={} ranks={} scale={} runs={} seed={} workers={} shards={} engine={}",
            self.machine,
            self.nodes,
            grid.machine().ppn(),
            grid.world_size(),
            if self.full_scale { "full" } else { "small" },
            self.runs,
            self.seed,
            workers,
            workers,
            if workers > 1 { "sharded" } else { "sequential" },
        )
    }
}

/// The machine shape for a preset at a node count. Scaled machines keep
/// the socket/NUMA hierarchy with 4 cores per NUMA domain (32 ppn).
pub fn machine_for(name: &str, nodes: usize, full_scale: bool) -> Machine {
    if full_scale {
        match name {
            "amber" => presets::amber(nodes),
            "tuolumne" => presets::tuolumne(nodes),
            _ => presets::dane(nodes),
        }
    } else {
        match name {
            // MI300A: 4 APUs x 1 NUMA, scaled to 8 cores each.
            "tuolumne" => Machine::custom("tuolumne", nodes, 4, 1, 8),
            // Sapphire Rapids: 2 sockets x 4 NUMA, scaled to 4 cores each.
            other => Machine::custom(other, nodes, 2, 4, 4),
        }
    }
}

/// Simulate one algorithm at one size: min of `runs` jittered executions.
/// `workers > 1` routes through the sharded parallel engine, which is
/// byte-identical to the sequential one for any worker count.
pub fn run_min(
    algo: &dyn AlltoallAlgorithm,
    grid: &ProcGrid,
    model: &CostModel,
    s: u64,
    runs: usize,
    seed: u64,
    workers: usize,
) -> SimReport {
    let sched = AlgoSchedule::new(algo, A2AContext::new(grid.clone(), s));
    if workers == 1 {
        simulate_min_of(&sched, grid, model, runs, seed)
            .unwrap_or_else(|e| panic!("{} (s={s}): {e}", algo.name()))
    } else {
        let sopts = ShardOptions::with_workers(workers);
        simulate_min_of_sharded(&sched, grid, model, runs, seed, &sopts)
            .unwrap_or_else(|e| panic!("{} (s={s}): {e}", algo.name()))
    }
}

/// One plotted line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    pub label: String,
    /// (x, µs) points; x is block bytes or node count depending on figure.
    pub points: Vec<(f64, f64)>,
}

/// One regenerated figure (or breakdown table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureData {
    /// e.g. "fig10".
    pub name: String,
    /// Paper caption, for the report.
    pub title: String,
    /// "bytes" or "nodes".
    pub x_label: String,
    /// Provenance line ([`RunConfig::run_header`]): machine shape and the
    /// shard/worker layout of the engine that produced the data. Emitted
    /// as a `#` comment ahead of the CSV header and carried in the JSON.
    pub run_header: Option<String>,
    pub series: Vec<Series>,
}

impl FigureData {
    /// Aligned ASCII rendering: one row per x, one column per series.
    pub fn table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.name, self.title);
        if let Some(h) = &self.run_header {
            let _ = writeln!(out, "# {h}");
        }
        let _ = write!(out, "{:>10}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>26}", truncate(&s.label, 26));
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x:>10}");
            for s in &self.series {
                match s.points.iter().find(|p| p.0 == x) {
                    Some(&(_, us)) => {
                        let _ = write!(out, " {us:>26.2}");
                    }
                    None => {
                        let _ = write!(out, " {:>26}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering (one row per x, one column per series).
    pub fn csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = String::new();
        if let Some(h) = &self.run_header {
            let _ = writeln!(out, "# {h}");
        }
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.points.iter().find(|p| p.0 == x) {
                    Some(&(_, us)) => {
                        let _ = write!(out, ",{us:.3}");
                    }
                    None => out.push(','),
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Write `<name>.csv` and `<name>.json` under `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.name)), self.csv())?;
        fs::write(
            dir.join(format!("{}.json", self.name)),
            serde_json::to_string_pretty(self).expect("figure serializes"),
        )?;
        Ok(())
    }

    /// The series minimizing µs at `x`, if any.
    pub fn winner_at(&self, x: f64) -> Option<(&str, f64)> {
        self.series
            .iter()
            .filter_map(|s| {
                s.points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|&(_, us)| (s.label.as_str(), us))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// µs of a labeled series at `x`.
    pub fn value(&self, label: &str, x: f64) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == label)?
            .points
            .iter()
            .find(|p| p.0 == x)
            .map(|&(_, us)| us)
    }
}

pub(crate) fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("..{}", &s[s.len() - (n - 2)..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_core::PairwiseAlltoall;

    #[test]
    fn machine_scaling_preserves_hierarchy() {
        let m = machine_for("dane", 4, false);
        assert_eq!(m.sockets_per_node, 2);
        assert_eq!(m.numa_per_socket, 4);
        assert_eq!(m.ppn(), 32);
        let f = machine_for("dane", 4, true);
        assert_eq!(f.ppn(), 112);
        let t = machine_for("tuolumne", 4, false);
        assert_eq!(t.sockets_per_node, 4);
        assert_eq!(t.ppn(), 32);
    }

    #[test]
    fn run_min_is_min() {
        let cfg = RunConfig {
            nodes: 2,
            runs: 3,
            ..Default::default()
        };
        let grid = cfg.grid();
        let model = cfg.model();
        let rep = run_min(&PairwiseAlltoall, &grid, &model, 64, 3, 1, 1);
        let single = run_min(&PairwiseAlltoall, &grid, &model, 64, 1, 1, 1);
        // Jittered minimum should be within noise of the exact run.
        assert!((rep.total_us - single.total_us).abs() / single.total_us < 0.2);
    }

    #[test]
    fn figure_rendering() {
        let fig = FigureData {
            name: "figX".into(),
            title: "test".into(),
            x_label: "bytes".into(),
            run_header: None,
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(4.0, 10.0), (16.0, 20.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(4.0, 12.0)],
                },
            ],
        };
        let t = fig.table();
        assert!(t.contains("figX"));
        assert!(t.contains("10.00"));
        let c = fig.csv();
        assert!(c.starts_with("bytes,a,b"));
        assert_eq!(fig.winner_at(4.0).unwrap().0, "a");
        assert_eq!(fig.value("b", 4.0), Some(12.0));
        assert_eq!(fig.value("b", 16.0), None);
    }
}
