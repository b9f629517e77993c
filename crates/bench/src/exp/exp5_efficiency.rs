//! Exp-5 (Fig. 8): running time as the budget grows — GAS vs BASE+.
//!
//! The headline efficiency claim: GAS's reuse amortizes follower
//! computation across rounds, finishing in a fraction of BASE+'s time
//! (≈ 20 % on the paper's Facebook/Google). Both solvers are dispatched
//! through the engine registry and read as the unified
//! [`Outcome`](antruss_core::engine::Outcome) — the run's own `elapsed`
//! replaces hand timing.

use std::fmt::Write as _;

use crate::fmt_secs;
use crate::table::Table;

use super::exp3_effectiveness::budget_grid;
use super::{run_solver, ExpConfig};

/// Runs Exp-5 and returns the report.
pub fn exp5(cfg: &ExpConfig) -> String {
    let grid = budget_grid(cfg.budget);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Exp-5 / Fig. 8 — efficiency vs budget (grid {grid:?})\n"
    );
    let engine_cfg = cfg.engine_config();

    for &id in &cfg.datasets {
        let g = cfg.load(id);
        let _ = writeln!(report, "[{}] (|E| = {})", id.profile().name, g.num_edges());
        let mut table = Table::new(["b", "t(GAS)", "t(BASE+)", "speedup"]);
        for &b in &grid {
            let mut run_cfg = engine_cfg.clone();
            run_cfg.budget = b;
            let gas = run_solver("gas", &g, &run_cfg);
            let bplus_cell;
            let speedup;
            if g.num_edges() <= cfg.bplus_max_edges {
                let bplus = run_solver("base+", &g, &run_cfg);
                speedup = format!(
                    "{:.1}x",
                    bplus.elapsed.as_secs_f64() / gas.elapsed.as_secs_f64().max(1e-9)
                );
                bplus_cell = fmt_secs(bplus.elapsed);
            } else {
                bplus_cell = "-".to_string();
                speedup = "-".to_string();
            }
            table.row([b.to_string(), fmt_secs(gas.elapsed), bplus_cell, speedup]);
        }
        report.push_str(&table.render());
        report.push('\n');
    }
    report.push_str("Paper shape: GAS below BASE+ everywhere, gap widening with b.\n");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_datasets::DatasetId;

    #[test]
    fn quick_exp5_runs() {
        let mut cfg = ExpConfig::quick();
        cfg.datasets = vec![DatasetId::College];
        let report = exp5(&cfg);
        assert!(report.contains("t(GAS)"));
        assert!(report.contains("speedup"));
    }
}
