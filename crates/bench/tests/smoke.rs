//! Smoke tests for the figure/table reproductions: every catalog scenario
//! runs end to end, in-process, at a miniature scale.
//!
//! The pipelines run directly through `run_scenario` — one tiny trial
//! per cell — inside plain `cargo test -q`. Flag handling of `ldp repro`
//! is covered by the `#[ignore]`-gated spawn tests in
//! `crates/sim/tests/cli_smoke.rs`.

use ldp_sim::scenario::{catalog, run_scenario, RunScale, ScaleSpec};

/// Runs one catalog figure with a single tiny trial per cell and asserts
/// a structurally complete report.
fn smoke(id: &str) {
    let scenario = catalog::scenario(id).unwrap_or_else(|e| panic!("{id}: {e}"));
    let scale = RunScale {
        trials: 1,
        seed: 7,
        scale: ScaleSpec::Fraction(0.002),
    };
    let report = run_scenario(&scenario, &scale).unwrap_or_else(|e| panic!("{id}: {e}"));
    assert!(!report.cells.is_empty(), "{id}: no cells");
    for cell in &report.cells {
        assert!(!cell.metrics.is_empty(), "{id}/{}: no metrics", cell.id);
        for (metric, stats) in &cell.metrics {
            assert_eq!(stats.count, 1, "{id}/{}/{metric}", cell.id);
            assert!(
                stats.mean.is_finite(),
                "{id}/{}/{metric}: non-finite mean",
                cell.id
            );
        }
    }
    assert!(!report.grids.is_empty(), "{id}: no grids");
    for grid in &report.grids {
        assert!(!grid.table.is_empty(), "{id}/{}: empty table", grid.title);
    }
}

macro_rules! smoke_tests {
    ($($name:ident => $figure:literal),* $(,)?) => {$(
        #[test]
        fn $name() {
            smoke($figure);
        }
    )*};
}

smoke_tests! {
    fig3_pipeline_runs_one_tiny_trial => "fig3",
    fig4_pipeline_runs_one_tiny_trial => "fig4",
    fig5_pipeline_runs_one_tiny_trial => "fig5",
    fig6_pipeline_runs_one_tiny_trial => "fig6",
    fig7_pipeline_runs_one_tiny_trial => "fig7",
    fig8_pipeline_runs_one_tiny_trial => "fig8",
    fig9_pipeline_runs_one_tiny_trial => "fig9",
    fig10_pipeline_runs_one_tiny_trial => "fig10",
    table1_pipeline_runs_one_tiny_trial => "table1",
    ablations_pipeline_runs_one_tiny_trial => "ablations",
    kv_extension_pipeline_runs_one_tiny_trial => "kv_extension",
    stream_online_pipeline_runs_one_tiny_trial => "stream_online",
    stream_windowed_pipeline_runs_one_tiny_trial => "stream_windowed",
    defense_arms_pipeline_runs_one_tiny_trial => "defense_arms",
}

#[test]
fn repro_covers_every_figure_exactly_once() {
    // `ldp repro` iterates FIGURE_IDS verbatim; guard the index.
    let mut seen = std::collections::HashSet::new();
    for id in catalog::FIGURE_IDS {
        assert!(seen.insert(id), "duplicate figure id {id}");
        catalog::scenario(id).unwrap();
    }
    assert_eq!(seen.len(), 14);
}
