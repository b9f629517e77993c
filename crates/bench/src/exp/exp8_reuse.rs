//! Exp-8 (Fig. 10): how much round-1 work is reusable in later rounds.
//!
//! Candidates with at least one seed entering each round ≥ 2 are
//! classified by GAS's route-level reuse: fully reusable (no trussness
//! level searched again), partially reusable (some levels), or
//! non-reusable (every level). The paper counts tree nodes instead and
//! reports > 80 % fully reusable on Facebook and Gowalla; route-level
//! reuse keeps more, since it drops a level only when the anchoring
//! changed an edge on or beside its route. The classification rides on
//! the unified
//! [`Outcome`](antruss_core::engine::Outcome)'s per-round reports.

use antruss_core::metrics::ReuseClassCounts;
use std::fmt::Write as _;

use crate::table::Table;

use super::{run_solver, ExpConfig};

/// Runs Exp-8 and returns the report.
pub fn exp8(cfg: &ExpConfig) -> String {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Exp-8 / Fig. 10 — reuse classification over rounds 2..{} \n",
        cfg.budget
    );
    let mut table = Table::new(["Dataset", "FR", "PR", "NR", "candidates/round"]);
    let engine_cfg = cfg.engine_config();
    for &id in &cfg.datasets {
        let g = cfg.load(id);
        let out = run_solver("gas", &g, &engine_cfg);
        let mut total = ReuseClassCounts::default();
        let mut rounds = 0usize;
        for r in &out.rounds {
            if let Some(c) = r.reuse_classes {
                total.merge(&c);
                rounds += 1;
            }
        }
        let (fr, pr, nr) = total.fractions();
        table.row([
            id.profile().name.to_string(),
            format!("{:.1}%", fr * 100.0),
            format!("{:.1}%", pr * 100.0),
            format!("{:.1}%", nr * 100.0),
            match total.total().checked_div(rounds) {
                Some(per_round) => per_round.to_string(),
                None => "-".to_string(),
            },
        ]);
    }
    report.push_str(&table.render());
    report.push_str("\nPaper shape: FR > 80% (Facebook 81.7%, Gowalla 83.5%).\n");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_datasets::DatasetId;

    #[test]
    fn quick_exp8_reports_fractions() {
        let mut cfg = ExpConfig::quick();
        cfg.datasets = vec![DatasetId::Facebook];
        cfg.scale = 0.05;
        cfg.budget = 4;
        let report = exp8(&cfg);
        assert!(report.contains("FR"));
        assert!(report.contains('%'));
    }
}
