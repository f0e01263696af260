//! The figure catalog: every table/figure of the paper's evaluation (plus
//! the ablation and key-value extension experiments) as declarative
//! [`Scenario`] definitions.
//!
//! `ldp repro --figure <id>` is a thin shell over this module: it parses
//! flags, fetches the scenario by id, and hands it to
//! [`run_scenario`](crate::scenario::run_scenario). The golden regression
//! suite (`tests/golden_repro.rs`) runs the same definitions at the
//! `small` preset, so the catalog — not the CLI — is the single source
//! of truth for what each figure computes.

use ldp_attacks::AttackKind;
use ldp_common::sampling::{zipf_weights, AliasTable};
use ldp_common::{Domain, Result};
use ldp_datasets::DatasetKind;
use ldp_kv::{KvProtocol, KvRecover, M2ga};
use ldp_protocols::{LdpFrequencyProtocol, ProtocolKind};
use ldprecover::{
    ArmKind, ArmSet, Detection, KMeansDefense, LdpRecover, MaliciousSumModel, PostProcess,
};

use crate::config::{ExperimentConfig, PipelineOptions};
use crate::metrics::mse;
use crate::pipeline::run_aggregation;
use crate::scenario::spec::{Cell, Entry, GridSpec, Metric, RowSpec, Scenario, StatFormat};

/// The β grid of Figs. 7, 8, 10.
pub const BETA_GRID_WIDE: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];
/// The β grid of Figs. 5–6.
pub const BETA_GRID_FINE: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.1];
/// The ε grid of Figs. 5–6.
pub const EPSILON_GRID: [f64; 5] = [0.1, 0.2, 0.4, 0.8, 1.6];
/// The η grid of Figs. 5–6.
pub const ETA_GRID: [f64; 5] = [0.01, 0.05, 0.1, 0.2, 0.4];
/// The ξ (sample-rate) grid of Fig. 9.
pub const XI_GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Every scenario id, in the paper's presentation order (extensions
/// after the paper's own figures).
pub const FIGURE_IDS: [&str; 14] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "kv_extension",
    "stream_online",
    "stream_windowed",
    "defense_arms",
];

/// Builds the scenario for a figure id.
///
/// # Errors
/// [`ldp_common::LdpError::InvalidParameter`] for unknown ids; otherwise
/// propagates construction failures (none for the shipped catalog).
pub fn scenario(id: &str) -> Result<Scenario> {
    match id {
        "fig3" => Ok(fig3()),
        "fig4" => Ok(fig4()),
        "fig5" => Ok(parameter_sweeps(
            "fig5",
            DatasetKind::Ipums,
            "Figure 5: parameter impact on recovery from AA (IPUMS)",
            "GRR @ beta=0.05, eta=0.4: LDPRecover ≈ 1.42e-4 vs poisoned ≈ 8.78e-2 (full scale)",
        )),
        "fig6" => Ok(parameter_sweeps(
            "fig6",
            DatasetKind::Fire,
            "Figure 6: parameter impact on recovery from AA (Fire)",
            "same shapes as Fig. 5 at lower MSE levels (larger n, flatter distribution)",
        )),
        "fig7" => Ok(fig7()),
        "table1" => Ok(table1()),
        "fig8" => Ok(fig8()),
        "fig9" => fig9(),
        "fig10" => Ok(fig10()),
        "ablations" => ablations(),
        "kv_extension" => Ok(kv_extension()),
        "stream_online" => Ok(stream_online()),
        "stream_windowed" => Ok(stream_windowed()),
        "defense_arms" => Ok(defense_arms()),
        other => Err(ldp_common::LdpError::invalid(format!(
            "unknown figure '{other}' (known: {})",
            FIGURE_IDS.join(", ")
        ))),
    }
}

/// Builds the whole catalog, in presentation order.
///
/// # Errors
/// Propagates [`scenario`] failures (none for the shipped catalog).
pub fn all() -> Result<Vec<Scenario>> {
    FIGURE_IDS.iter().map(|id| scenario(id)).collect()
}

/// A paper-default config, with β zeroed for the unpoisoned baseline.
fn cfg(
    dataset: DatasetKind,
    protocol: ProtocolKind,
    attack: Option<AttackKind>,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(dataset, protocol, attack);
    if attack.is_none() {
        config.beta = 0.0;
    }
    config
}

fn fig3() -> Scenario {
    let combos: [(AttackKind, ProtocolKind); 7] = [
        (AttackKind::Manip { h: 10 }, ProtocolKind::Grr),
        (AttackKind::Mga { r: 10 }, ProtocolKind::Grr),
        (AttackKind::Mga { r: 10 }, ProtocolKind::Oue),
        (AttackKind::Mga { r: 10 }, ProtocolKind::Olh),
        (AttackKind::Adaptive, ProtocolKind::Grr),
        (AttackKind::Adaptive, ProtocolKind::Oue),
        (AttackKind::Adaptive, ProtocolKind::Olh),
    ];
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for dataset in DatasetKind::ALL {
        let mut rows = Vec::new();
        for (attack, protocol) in combos {
            let config = cfg(dataset, protocol, Some(attack));
            let id = format!("{}/{}", dataset.name(), config.label());
            rows.push(RowSpec {
                label: config.label(),
                entries: vec![
                    Entry::stat(&id, Metric::MseBefore),
                    Entry::stat(&id, Metric::mse(ArmKind::Detection)),
                    Entry::stat(&id, Metric::mse(ArmKind::Recover)),
                    Entry::stat(&id, Metric::mse(ArmKind::RecoverStar)),
                ],
            });
            cells.push(Cell::experiment(
                id,
                config,
                PipelineOptions::full_comparison(),
            ));
        }
        grids.push(GridSpec {
            title: format!("Fig. 3 ({dataset} dataset)"),
            row_header: "cell".into(),
            columns: vec![
                "MSE before".into(),
                "MSE Detection".into(),
                "MSE LDPRecover".into(),
                "MSE LDPRecover*".into(),
            ],
            rows,
        });
    }
    Scenario {
        id: "fig3",
        title: "Figure 3: MSE across attacks, protocols, and recovery methods",
        paper_anchor: "before ≈ 1e-2; LDPRecover/LDPRecover* ≈ 1e-3..1e-4; Detection in between",
        cells,
        grids,
        notes: vec![],
    }
}

fn fig4() -> Scenario {
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for dataset in DatasetKind::ALL {
        let mut rows = Vec::new();
        for protocol in ProtocolKind::ALL {
            let config = cfg(dataset, protocol, Some(AttackKind::Mga { r: 10 }));
            let id = format!("{}/{}", dataset.name(), config.label());
            rows.push(RowSpec {
                label: config.label(),
                entries: vec![
                    Entry::stat(&id, Metric::FgBefore),
                    Entry::stat(&id, Metric::fg(ArmKind::Detection)),
                    Entry::stat(&id, Metric::fg(ArmKind::Recover)),
                    Entry::stat(&id, Metric::fg(ArmKind::RecoverStar)),
                ],
            });
            cells.push(Cell::experiment(
                id,
                config,
                PipelineOptions::full_comparison(),
            ));
        }
        grids.push(GridSpec {
            title: format!("Fig. 4 ({dataset} dataset)"),
            row_header: "cell".into(),
            columns: vec![
                "FG before".into(),
                "FG Detection".into(),
                "FG LDPRecover".into(),
                "FG LDPRecover*".into(),
            ],
            rows,
        });
    }
    Scenario {
        id: "fig4",
        title: "Figure 4: frequency gain under MGA (r = 10)",
        paper_anchor: "IPUMS before: GRR ≈ 8, OUE/OLH ≈ 4; Fire GRR ≈ 30; recovered ≈ 0, star ≤ 0",
        cells,
        grids,
        notes: vec![],
    }
}

/// The Fig. 5 / Fig. 6 β/ε/η sweeps for one dataset. Cells that differ
/// only in η are fused into one aggregation-sharing sweep by the engine.
fn parameter_sweeps(
    id: &'static str,
    dataset: DatasetKind,
    title: &'static str,
    paper_anchor: &'static str,
) -> Scenario {
    let columns = || {
        vec![
            "MSE before".into(),
            "MSE LDPRecover".into(),
            "MSE LDPRecover*".into(),
        ]
    };
    let mse_entries = |cell: &str| {
        vec![
            Entry::stat(cell, Metric::MseBefore),
            Entry::stat(cell, Metric::mse(ArmKind::Recover)),
            Entry::stat(cell, Metric::mse(ArmKind::RecoverStar)),
        ]
    };
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for protocol in ProtocolKind::ALL {
        let base = || cfg(dataset, protocol, Some(AttackKind::Adaptive));
        let mut push_grid = |axis: &str, values: &[f64], set: fn(&mut ExperimentConfig, f64)| {
            let mut rows = Vec::new();
            for &value in values {
                let mut config = base();
                set(&mut config, value);
                let cell_id = format!("{protocol}/{axis}={value}");
                rows.push(RowSpec {
                    label: format!("{value}"),
                    entries: mse_entries(&cell_id),
                });
                cells.push(Cell::experiment(
                    cell_id,
                    config,
                    PipelineOptions::recovery_only(),
                ));
            }
            grids.push(GridSpec {
                title: format!("AA-{protocol} ({dataset}): impact of {axis}"),
                row_header: axis.into(),
                columns: columns(),
                rows,
            });
        };
        push_grid("beta", &BETA_GRID_FINE, |c, v| c.beta = v);
        push_grid("epsilon", &EPSILON_GRID, |c, v| c.epsilon = v);
        push_grid("eta", &ETA_GRID, |c, v| c.eta = v);
    }
    Scenario {
        id,
        title,
        paper_anchor,
        cells,
        grids,
        notes: vec![],
    }
}

fn fig7() -> Scenario {
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut rows = Vec::new();
        for &beta in &BETA_GRID_WIDE {
            let mut config = cfg(
                DatasetKind::Ipums,
                protocol,
                Some(AttackKind::Mga { r: 10 }),
            );
            config.beta = beta;
            let id = format!("{protocol}/beta={beta}");
            rows.push(RowSpec {
                label: format!("{beta}"),
                entries: vec![
                    Entry::stat(&id, Metric::malicious_mse(ArmKind::Recover)),
                    Entry::stat(&id, Metric::malicious_mse(ArmKind::RecoverStar)),
                ],
            });
            cells.push(Cell::experiment(
                id,
                config,
                PipelineOptions::recovery_only(),
            ));
        }
        grids.push(GridSpec {
            title: format!("Fig. 7 ({protocol}, IPUMS)"),
            row_header: "beta".into(),
            columns: vec![
                "malicious-MSE LDPRecover".into(),
                "malicious-MSE LDPRecover*".into(),
            ],
            rows,
        });
    }
    Scenario {
        id: "fig7",
        title: "Figure 7: accuracy of the estimated malicious frequencies (IPUMS, MGA)",
        paper_anchor: "LDPRecover* beats LDPRecover by ≥ 1 order of magnitude across beta",
        cells,
        grids,
        notes: vec![],
    }
}

fn fig8() -> Scenario {
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut rows = Vec::new();
        for &beta in &BETA_GRID_WIDE {
            let mut mga = cfg(
                DatasetKind::Ipums,
                protocol,
                Some(AttackKind::Mga { r: 10 }),
            );
            mga.beta = beta;
            let mut ipa = mga.clone();
            ipa.attack = Some(AttackKind::MgaIpa { r: 10 });
            let mga_id = format!("{protocol}/MGA/beta={beta}");
            let ipa_id = format!("{protocol}/MGA-IPA/beta={beta}");
            rows.push(RowSpec {
                label: format!("{beta}"),
                entries: vec![
                    Entry::stat(&mga_id, Metric::MseBefore),
                    Entry::stat(&ipa_id, Metric::MseBefore),
                    Entry::stat(&ipa_id, Metric::MseGenuine),
                ],
            });
            cells.push(Cell::experiment(mga_id, mga, PipelineOptions::default()));
            cells.push(Cell::experiment(ipa_id, ipa, PipelineOptions::default()));
        }
        grids.push(GridSpec {
            title: format!("Fig. 8 ({protocol}, IPUMS)"),
            row_header: "beta".into(),
            columns: vec!["MSE MGA".into(), "MSE MGA-IPA".into(), "noise floor".into()],
            rows,
        });
    }
    Scenario {
        id: "fig8",
        title: "Figure 8: general MGA vs input-poisoning MGA-IPA (IPUMS)",
        paper_anchor: "GRR: MGA MSE 6.07e-2..1.08 vs MGA-IPA 5.16e-4..6.21e-4 (paper, full scale)",
        cells,
        grids,
        notes: vec![],
    }
}

fn fig9() -> Result<Scenario> {
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut rows = Vec::new();
        for &xi in &XI_GRID {
            let config = cfg(
                DatasetKind::Ipums,
                protocol,
                Some(AttackKind::MgaIpa { r: 10 }),
            );
            // Keep the clustering cost bounded: G = 20 subsets of rate ξ.
            let options = PipelineOptions {
                arms: ArmSet::new([ArmKind::Recover, ArmKind::Kmeans, ArmKind::RecoverKm]),
                kmeans: KMeansDefense::new(20, xi)?,
                ..Default::default()
            };
            let id = format!("{protocol}/xi={xi}");
            rows.push(RowSpec {
                label: format!("{xi}"),
                entries: vec![
                    Entry::stat(&id, Metric::MseBefore),
                    Entry::stat(&id, Metric::mse(ArmKind::Kmeans)),
                    Entry::stat(&id, Metric::mse(ArmKind::RecoverKm)),
                ],
            });
            cells.push(Cell::experiment(id, config, options));
        }
        grids.push(GridSpec {
            title: format!("Fig. 9 ({protocol}, IPUMS)"),
            row_header: "xi".into(),
            columns: vec![
                "MSE before".into(),
                "MSE k-means".into(),
                "MSE LDPRecover-KM".into(),
            ],
            rows,
        });
    }
    Ok(Scenario {
        id: "fig9",
        title: "Figure 9: LDPRecover-KM vs k-means under MGA-IPA (IPUMS)",
        paper_anchor: "LDPRecover-KM ≈ 48.9% better than k-means alone for GRR (paper)",
        cells,
        grids,
        notes: vec![],
    })
}

fn fig10() -> Scenario {
    let mut cells = Vec::new();
    let mut grids = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut rows = Vec::new();
        let mut protocol_cells = Vec::new();
        for &beta in &BETA_GRID_WIDE {
            let mut config = cfg(
                DatasetKind::Ipums,
                protocol,
                Some(AttackKind::MultiAdaptive { attackers: 5 }),
            );
            config.beta = beta;
            let id = format!("{protocol}/beta={beta}");
            rows.push(RowSpec {
                label: format!("{beta}"),
                entries: vec![
                    Entry::stat(&id, Metric::MseBefore),
                    Entry::stat(&id, Metric::mse(ArmKind::Recover)),
                    Entry::Improvement { cell: id.clone() },
                ],
            });
            protocol_cells.push(id.clone());
            cells.push(Cell::experiment(id, config, PipelineOptions::default()));
        }
        rows.push(RowSpec {
            label: "average".into(),
            entries: vec![
                Entry::Blank,
                Entry::Blank,
                Entry::MeanImprovement {
                    cells: protocol_cells,
                },
            ],
        });
        grids.push(GridSpec {
            title: format!("Fig. 10 (MUL-AA-{protocol}, IPUMS)"),
            row_header: "beta".into(),
            columns: vec![
                "MSE before".into(),
                "MSE LDPRecover".into(),
                "improvement".into(),
            ],
            rows,
        });
    }
    Scenario {
        id: "fig10",
        title: "Figure 10: multi-attacker adaptive poisoning (5 attackers, IPUMS)",
        paper_anchor: "LDPRecover ≈ 80.2% average MSE improvement for GRR (paper)",
        cells,
        grids,
        notes: vec![],
    }
}

fn table1() -> Scenario {
    /// The paper's Table I values (full scale): per protocol,
    /// `[ipums_before, ipums_after, fire_before, fire_after]`.
    const PAPER: [(ProtocolKind, [f64; 4]); 3] = [
        (ProtocolKind::Grr, [5.89e-4, 5.31e-4, 1.68e-3, 3.62e-5]),
        (ProtocolKind::Oue, [3.81e-5, 5.33e-4, 2.93e-5, 3.64e-5]),
        (ProtocolKind::Olh, [1.21e-6, 5.30e-4, 6.87e-7, 3.63e-5]),
    ];
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for (protocol, paper_vals) in PAPER {
        for (di, dataset) in DatasetKind::ALL.into_iter().enumerate() {
            let config = cfg(dataset, protocol, None);
            let id = format!("{protocol}/{}", dataset.name());
            rows.push(RowSpec {
                label: format!("{protocol} / {}", dataset.name()),
                entries: vec![
                    Entry::stat(&id, Metric::MseBefore),
                    Entry::Text(format!("{:.2e}", paper_vals[di * 2])),
                    Entry::stat(&id, Metric::mse(ArmKind::Recover)),
                    Entry::Text(format!("{:.2e}", paper_vals[di * 2 + 1])),
                ],
            });
            cells.push(Cell::experiment(id, config, PipelineOptions::default()));
        }
    }
    Scenario {
        id: "table1",
        title: "Table I: LDPRecover on unpoisoned frequencies (beta = 0)",
        paper_anchor: "recovery helps GRR, hurts OUE/OLH (see module docs for the paper's numbers)",
        cells,
        grids: vec![GridSpec {
            title: "Table I".into(),
            row_header: "LDP / dataset".into(),
            columns: vec![
                "Before-Rec (measured)".into(),
                "Before-Rec (paper)".into(),
                "After-Rec (measured)".into(),
                "After-Rec (paper)".into(),
            ],
            rows,
        }],
        notes: vec![
            "paper values are full-scale; at --scale s the measured noise floor is \
             ≈ 1/s × the paper's.",
        ],
    }
}

/// Shared per-trial front half of the ablation cells: aggregate one
/// IPUMS trial under the given protocol/attack at the context's scale.
fn ablation_aggregates(
    protocol: ProtocolKind,
    attack: AttackKind,
    trial: usize,
    ctx: &crate::scenario::spec::CellCtx,
) -> Result<crate::pipeline::TrialAggregates> {
    let mut config = cfg(DatasetKind::Ipums, protocol, Some(attack));
    config.scale = ctx.fraction(DatasetKind::Ipums);
    let mut rng = ctx.trial_rng(trial);
    run_aggregation(&config, &PipelineOptions::default(), &mut rng)
}

fn ablations() -> Result<Scenario> {
    let mut cells = Vec::new();
    let mut grids = Vec::new();

    // Ablation 1 — malicious-sum model (Eq. 21 vs collision-aware) on OLH,
    // where the paper's constant ignores hash collisions.
    let mut rows = Vec::new();
    for (label, attack) in [
        ("AA-OLH", AttackKind::Adaptive),
        ("MGA-OLH", AttackKind::Mga { r: 10 }),
    ] {
        let id = format!("sum-model/{label}");
        rows.push(RowSpec {
            label: label.into(),
            entries: vec![
                Entry::stat(&id, Metric::Custom("mse_paper")),
                Entry::stat(&id, Metric::Custom("mse_aware")),
                Entry::stat(&id, Metric::Custom("malicious_mse_paper")),
                Entry::stat(&id, Metric::Custom("malicious_mse_aware")),
            ],
        });
        cells.push(Cell::custom(id, move |trial, ctx| {
            let agg = ablation_aggregates(ProtocolKind::Olh, attack, trial, ctx)?;
            let params = agg.params();
            let mal_true = agg.malicious_true_freqs.as_ref().expect("attacked");
            let mut out = Vec::new();
            for (mse_name, mal_name, model) in [
                ("mse_paper", "malicious_mse_paper", MaliciousSumModel::Paper),
                (
                    "mse_aware",
                    "malicious_mse_aware",
                    MaliciousSumModel::CollisionAware,
                ),
            ] {
                let outcome = LdpRecover::new(0.2)?
                    .with_sum_model(model)
                    .recover(&agg.poisoned_freqs, params)?;
                out.push((mse_name, mse(&outcome.frequencies, &agg.true_freqs)));
                out.push((mal_name, mse(&outcome.malicious_estimate, mal_true)));
            }
            Ok(out)
        }));
    }
    grids.push(GridSpec {
        title: "Ablation 1: malicious-sum model on OLH (IPUMS)".into(),
        row_header: "attack".into(),
        columns: vec![
            "MSE paper-sum (Eq.21)".into(),
            "MSE collision-aware".into(),
            "malicious-MSE paper".into(),
            "malicious-MSE aware".into(),
        ],
        rows,
    });

    // Ablation 2 — refinement solver (Algorithm 1 vs alternatives) on GRR.
    const SOLVERS: [(&str, &str, PostProcess); 4] = [
        ("norm-sub (Alg. 1)", "mse_norm_sub", PostProcess::NormSub),
        (
            "simplex projection",
            "mse_simplex",
            PostProcess::SimplexProjection,
        ),
        (
            "clip+normalize",
            "mse_clip_norm",
            PostProcess::ClipNormalize,
        ),
        ("base-cut", "mse_base_cut", PostProcess::BaseCut),
    ];
    let mut solver_cells = Vec::new();
    for (label, attack) in [
        ("AA", AttackKind::Adaptive),
        ("MGA", AttackKind::Mga { r: 10 }),
    ] {
        let id = format!("solver/{label}");
        solver_cells.push(id.clone());
        cells.push(Cell::custom(id, move |trial, ctx| {
            let agg = ablation_aggregates(ProtocolKind::Grr, attack, trial, ctx)?;
            let params = agg.params();
            let mut out = Vec::new();
            for (_, metric, solver) in SOLVERS {
                let outcome = LdpRecover::new(0.2)?
                    .with_post_process(solver)
                    .recover(&agg.poisoned_freqs, params)?;
                out.push((metric, mse(&outcome.frequencies, &agg.true_freqs)));
            }
            Ok(out)
        }));
    }
    grids.push(GridSpec {
        title: "Ablation 2: refinement solver on GRR (IPUMS)".into(),
        row_header: "solver".into(),
        columns: vec!["MSE AA-GRR".into(), "MSE MGA-GRR".into()],
        rows: SOLVERS
            .iter()
            .map(|(label, metric, _)| RowSpec {
                label: (*label).into(),
                entries: solver_cells
                    .iter()
                    .map(|cell| Entry::stat(cell, Metric::Custom(metric)))
                    .collect(),
            })
            .collect(),
    });

    // Ablation 3 — D₁ uniform fallback on AA-OUE, where Eq. (26)'s
    // positive-frequency heuristic degenerates.
    let mut rows = Vec::new();
    for (label, attack) in [
        ("AA-OUE", AttackKind::Adaptive),
        ("AA-camo-OUE", AttackKind::AdaptiveCamouflaged),
    ] {
        let id = format!("d1/{label}");
        rows.push(RowSpec {
            label: label.into(),
            entries: vec![
                Entry::stat(&id, Metric::Custom("mse_exact")),
                Entry::stat(&id, Metric::Custom("mse_fallback")),
            ],
        });
        cells.push(Cell::custom(id, move |trial, ctx| {
            let agg = ablation_aggregates(ProtocolKind::Oue, attack, trial, ctx)?;
            let params = agg.params();
            let paper = LdpRecover::new(0.2)?.recover(&agg.poisoned_freqs, params)?;
            let fallback = LdpRecover::new(0.2)?
                .with_d1_fallback(0.1)
                .recover(&agg.poisoned_freqs, params)?;
            Ok(vec![
                ("mse_exact", mse(&paper.frequencies, &agg.true_freqs)),
                ("mse_fallback", mse(&fallback.frequencies, &agg.true_freqs)),
            ])
        }));
    }
    grids.push(GridSpec {
        title: "Ablation 3: D1 uniform fallback on OUE (IPUMS)".into(),
        row_header: "attack".into(),
        columns: vec![
            "MSE paper-exact".into(),
            "MSE with D1 fallback (10%)".into(),
        ],
        rows,
    });

    // Ablation 4 — MGA padding: attack strength vs detectability. Both
    // variants support all targets; padding changes the popcount
    // signature, not the r-target one.
    cells.push(Cell::custom("mga-padding", |trial, ctx| {
        use ldp_attacks::{Mga, PoisoningAttack};
        let domain = Domain::new(102)?;
        let protocol = ProtocolKind::Oue.build(0.5, domain)?;
        let mut rng = ctx.trial_rng(trial);
        let targets: Vec<usize> = (20..30).collect();
        let detection = Detection::new(targets.clone())?;
        let m = 2_000;
        let mut out = Vec::new();
        for (support_name, flagged_name, attack) in [
            (
                "padded_support",
                "padded_flagged_pct",
                Mga::new(targets.clone()),
            ),
            (
                "unpadded_support",
                "unpadded_flagged_pct",
                Mga::new(targets.clone()).without_padding(),
            ),
        ] {
            let reports = attack.craft(&protocol, m, &mut rng);
            let avg_support: f64 = reports
                .iter()
                .map(|r| targets.iter().filter(|&&t| protocol.supports(r, t)).count() as f64)
                .sum::<f64>()
                / m as f64;
            let flagged = detection
                .keep_mask(&protocol, &reports)
                .iter()
                .filter(|&&keep| !keep)
                .count();
            out.push((support_name, avg_support));
            out.push((flagged_name, 100.0 * flagged as f64 / m as f64));
        }
        Ok(out)
    }));
    grids.push(GridSpec {
        title: "Ablation 4: MGA-OUE padding (both support all targets; padding \
                changes the popcount signature, not the r-target one)"
            .into(),
        row_header: "variant".into(),
        columns: vec!["targets/report".into(), "flagged by detection (%)".into()],
        rows: vec![
            RowSpec {
                label: "padded (default)".into(),
                entries: vec![
                    Entry::stat_fmt(
                        "mga-padding",
                        Metric::Custom("padded_support"),
                        StatFormat::Fixed1,
                    ),
                    Entry::stat_fmt(
                        "mga-padding",
                        Metric::Custom("padded_flagged_pct"),
                        StatFormat::Percent1,
                    ),
                ],
            },
            RowSpec {
                label: "un-padded".into(),
                entries: vec![
                    Entry::stat_fmt(
                        "mga-padding",
                        Metric::Custom("unpadded_support"),
                        StatFormat::Fixed1,
                    ),
                    Entry::stat_fmt(
                        "mga-padding",
                        Metric::Custom("unpadded_flagged_pct"),
                        StatFormat::Percent1,
                    ),
                ],
            },
        ],
    });

    Ok(Scenario {
        id: "ablations",
        title: "Ablations: malicious-sum model, solver, D1 fallback, MGA padding",
        paper_anchor: "",
        cells,
        grids,
        notes: vec![],
    })
}

/// Key-value extension constants (see the `ldp-kv` crate docs).
const KV_DOMAIN: usize = 50;
const KV_BASE_USERS: usize = 200_000;
const KV_EPSILON: f64 = 2.0;

fn kv_extension() -> Scenario {
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for &beta in &BETA_GRID_WIDE {
        let id = format!("kv/beta={beta}");
        rows.push(RowSpec {
            label: format!("{beta}"),
            entries: vec![
                Entry::stat(&id, Metric::Custom("fg_before")),
                Entry::stat(&id, Metric::Custom("fg_after")),
                Entry::stat(&id, Metric::Custom("mean_shift_before")),
                Entry::stat(&id, Metric::Custom("mean_shift_after")),
                Entry::stat(&id, Metric::Custom("probe_recall")),
            ],
        });
        cells.push(Cell::custom(id, move |trial, ctx| {
            let n = ((KV_BASE_USERS as f64) * ctx.base_fraction())
                .round()
                .max(1.0) as usize;
            let m = ldp_common::population::malicious_count(beta, n);
            let domain = Domain::new(KV_DOMAIN)?;
            let kv = KvProtocol::new(KV_EPSILON, domain)?;
            let weights = zipf_weights(KV_DOMAIN, 1.0);
            let sampler = AliasTable::new(&weights)?;
            let mean_of = |k: usize| if k.is_multiple_of(2) { 0.4 } else { -0.4 };

            let mut rng = ctx.trial_rng(trial);
            let mut reports = Vec::with_capacity(n + m);
            for _ in 0..n {
                let key = sampler.sample(&mut rng);
                reports.push(kv.perturb(key, mean_of(key), &mut rng)?);
            }
            let clean = kv.estimate(&kv.aggregate(&reports)?)?;

            let target = KV_DOMAIN - 1;
            let attack = M2ga::new(vec![target]);
            reports.extend(attack.craft(&kv, m, &mut rng));
            let agg = kv.aggregate(&reports)?;
            let poisoned = kv.estimate(&agg)?;
            let recovered = KvRecover::default().recover(&kv, &agg)?;

            let probe_recall = if m > 0 {
                (recovered.malicious_probes[target] / m as f64).min(2.0)
            } else {
                1.0
            };
            Ok(vec![
                (
                    "fg_before",
                    poisoned.frequencies[target] - clean.frequencies[target],
                ),
                (
                    "fg_after",
                    recovered.frequencies[target] - clean.frequencies[target],
                ),
                (
                    "mean_shift_before",
                    poisoned.means[target] - mean_of(target),
                ),
                (
                    "mean_shift_after",
                    recovered.means[target] - mean_of(target),
                ),
                ("probe_recall", probe_recall),
            ])
        }));
    }
    Scenario {
        id: "kv_extension",
        title: "Extension: key-value LDP (PrivKV-style) under M2GA + LDPRecover-KV",
        paper_anchor: "future work of the base paper; d=50, eps=2.0, Zipf(1) keys, means ±0.4",
        cells,
        grids: vec![GridSpec {
            title: "Key-value extension (target = rarest key)".into(),
            row_header: "beta".into(),
            columns: vec![
                "FG before".into(),
                "FG after".into(),
                "mean shift before".into(),
                "mean shift after".into(),
                "probe-anomaly recall".into(),
            ],
            rows,
        }],
        notes: vec![
            "the probe-anomaly baseline breaks down once attackers spread across \
             ≥ d/2 targeted keys (documented breakdown point of the median defense).",
        ],
    }
}

/// Streaming scenario shape: a fixed epoch horizon so the per-epoch
/// metric names (and therefore the golden file) are static.
const STREAM_EPOCHS: usize = 4;
/// Shards of the streaming scenario cells (merge-exactness means the
/// numbers are shard-layout-independent; 2 exercises the merge path).
const STREAM_SHARDS: usize = 2;
/// Per-epoch metric keys of the poisoned ("before") trajectory.
const STREAM_BEFORE_KEYS: [&str; STREAM_EPOCHS] = [
    "mse_before_e1",
    "mse_before_e2",
    "mse_before_e3",
    "mse_before_e4",
];
/// Per-epoch metric keys of the recovered trajectory.
const STREAM_RECOVER_KEYS: [&str; STREAM_EPOCHS] = [
    "mse_recovered_e1",
    "mse_recovered_e2",
    "mse_recovered_e3",
    "mse_recovered_e4",
];

fn stream_online() -> Scenario {
    use crate::stream::{StreamEngine, StreamSpec};

    let mut cells = Vec::new();
    let mut before_rows = Vec::new();
    let mut recover_rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for (label, attack) in [
            ("MGA", AttackKind::Mga { r: 10 }),
            ("AA", AttackKind::Adaptive),
        ] {
            let id = format!("stream/{label}-{protocol}");
            before_rows.push(RowSpec {
                label: format!("{label}-{protocol}"),
                entries: STREAM_BEFORE_KEYS
                    .iter()
                    .map(|key| Entry::stat(&id, Metric::Custom(key)))
                    .collect(),
            });
            recover_rows.push(RowSpec {
                label: format!("{label}-{protocol}"),
                entries: STREAM_RECOVER_KEYS
                    .iter()
                    .map(|key| Entry::stat(&id, Metric::Custom(key)))
                    .collect(),
            });
            cells.push(Cell::custom(id, move |trial, ctx| {
                let corpus = DatasetKind::Ipums.total_users() as f64;
                let users_per_epoch = ((corpus * ctx.fraction(DatasetKind::Ipums))
                    / STREAM_EPOCHS as f64)
                    .round()
                    .max(STREAM_SHARDS as f64) as usize;
                let spec = StreamSpec {
                    dataset: DatasetKind::Ipums,
                    protocol,
                    epsilon: 0.5,
                    attack: Some(attack),
                    beta: 0.05,
                    eta: 0.2,
                    shards: STREAM_SHARDS,
                    epochs: STREAM_EPOCHS,
                    users_per_epoch,
                    seed: ldp_common::rng::derive_seed(ctx.seed, trial as u64),
                    window: crate::stream::WindowMode::Cumulative,
                };
                let mut engine = StreamEngine::new(spec)?;
                engine.run_to_completion()?;
                let mut out = Vec::with_capacity(2 * STREAM_EPOCHS + 1);
                for (point, (&before, &recovered)) in engine
                    .trajectory()
                    .iter()
                    .zip(STREAM_BEFORE_KEYS.iter().zip(STREAM_RECOVER_KEYS.iter()))
                {
                    out.push((before, point.mse_before));
                    out.push((recovered, point.mse_recovered));
                }
                let last = engine.trajectory().last().expect("epochs ran");
                out.push(("mse_genuine_final", last.mse_genuine));
                Ok(out)
            }));
        }
    }
    let epoch_columns = || (1..=STREAM_EPOCHS).map(|e| format!("epoch {e}")).collect();
    Scenario {
        id: "stream_online",
        title: "Extension: online recovery trajectories under streaming ingestion (IPUMS)",
        paper_anchor: "the paper's one-shot server, run per epoch: recovered MSE tracks \
                       the shrinking noise floor while the poisoned MSE stays attack-bound",
        cells,
        grids: vec![
            GridSpec {
                title: format!(
                    "Online MSE before recovery ({STREAM_SHARDS} shards × {STREAM_EPOCHS} epochs)"
                ),
                row_header: "cell".into(),
                columns: epoch_columns(),
                rows: before_rows,
            },
            GridSpec {
                title: format!(
                    "Online MSE after LDPRecover ({STREAM_SHARDS} shards × {STREAM_EPOCHS} epochs)"
                ),
                row_header: "cell".into(),
                columns: epoch_columns(),
                rows: recover_rows,
            },
        ],
        notes: vec![
            "each epoch ingests 1/4 of the preset's population; estimates use all \
             reports seen so far, so both curves fall ≈ 1/reports while the attack \
             keeps the before-curve offset above the recovered one.",
        ],
    }
}

/// Windowed-recovery variant of [`stream_online`]: the same epoch grid
/// under a 2-epoch sliding window and an exponentially-decaying window,
/// the two non-cumulative [`WindowMode`](crate::stream::WindowMode)s of
/// the streaming engine. Where the cumulative trajectory's MSE
/// falls ≈ 1/reports, a bounded window pins the effective sample size, so
/// these curves flatten — the catalog keeps both shapes under golden
/// regression.
fn stream_windowed() -> Scenario {
    use crate::stream::{StreamEngine, StreamSpec, WindowMode};

    let windows = [
        ("sliding2", WindowMode::Sliding(2)),
        ("decay", WindowMode::Decay(0.75)),
    ];
    let mut cells = Vec::new();
    let mut before_rows = Vec::new();
    let mut recover_rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for (label, window) in windows {
            let id = format!("streamw/{label}-{protocol}");
            before_rows.push(RowSpec {
                label: format!("{label}-{protocol}"),
                entries: STREAM_BEFORE_KEYS
                    .iter()
                    .map(|key| Entry::stat(&id, Metric::Custom(key)))
                    .collect(),
            });
            recover_rows.push(RowSpec {
                label: format!("{label}-{protocol}"),
                entries: STREAM_RECOVER_KEYS
                    .iter()
                    .map(|key| Entry::stat(&id, Metric::Custom(key)))
                    .collect(),
            });
            cells.push(Cell::custom(id, move |trial, ctx| {
                let corpus = DatasetKind::Ipums.total_users() as f64;
                let users_per_epoch = ((corpus * ctx.fraction(DatasetKind::Ipums))
                    / STREAM_EPOCHS as f64)
                    .round()
                    .max(STREAM_SHARDS as f64) as usize;
                let spec = StreamSpec {
                    dataset: DatasetKind::Ipums,
                    protocol,
                    epsilon: 0.5,
                    attack: Some(AttackKind::Adaptive),
                    beta: 0.05,
                    eta: 0.2,
                    shards: STREAM_SHARDS,
                    epochs: STREAM_EPOCHS,
                    users_per_epoch,
                    seed: ldp_common::rng::derive_seed(ctx.seed, trial as u64),
                    window,
                };
                let mut engine = StreamEngine::new(spec)?;
                engine.run_to_completion()?;
                let mut out = Vec::with_capacity(2 * STREAM_EPOCHS + 1);
                for (point, (&before, &recovered)) in engine
                    .trajectory()
                    .iter()
                    .zip(STREAM_BEFORE_KEYS.iter().zip(STREAM_RECOVER_KEYS.iter()))
                {
                    out.push((before, point.mse_before));
                    out.push((recovered, point.mse_recovered));
                }
                let last = engine.trajectory().last().expect("epochs ran");
                out.push(("mse_genuine_final", last.mse_genuine));
                Ok(out)
            }));
        }
    }
    let epoch_columns = || (1..=STREAM_EPOCHS).map(|e| format!("epoch {e}")).collect();
    Scenario {
        id: "stream_windowed",
        title: "Extension: windowed online recovery (sliding / decaying, IPUMS, AA)",
        paper_anchor: "the paper's recovery run on a bounded recent-history window instead \
                       of the full stream: the noise floor stops shrinking once the window \
                       saturates",
        cells,
        grids: vec![
            GridSpec {
                title: format!(
                    "Windowed MSE before recovery ({STREAM_SHARDS} shards × {STREAM_EPOCHS} epochs)"
                ),
                row_header: "cell".into(),
                columns: epoch_columns(),
                rows: before_rows,
            },
            GridSpec {
                title: format!(
                    "Windowed MSE after LDPRecover ({STREAM_SHARDS} shards × {STREAM_EPOCHS} epochs)"
                ),
                row_header: "cell".into(),
                columns: epoch_columns(),
                rows: recover_rows,
            },
        ],
        notes: vec![
            "sliding:2 keeps only the last two epochs' counts; decay:0.75 discounts each \
             older epoch by λ — both recover on the windowed aggregate, so late-stream \
             estimates track recent traffic instead of averaging the attack away.",
        ],
    }
}

/// The open-registry comparison grid: every count-only arm — including
/// the normalization baselines that exist purely as `DefenseArm` impls +
/// registry entries — side by side on the paper's default cell, across
/// protocols and the two attack families. This is the scenario that keeps
/// the open arm surface exercised by the nightly statistical gates.
fn defense_arms() -> Scenario {
    /// The count-only arm grid of this scenario (report-free, so every
    /// cell rides the batched aggregation path).
    const ARM_GRID: [ArmKind; 4] = [
        ArmKind::Recover,
        ArmKind::RecoverStar,
        ArmKind::NormSub,
        ArmKind::BaseCut,
    ];
    let mut cells = Vec::new();
    let mut mse_rows = Vec::new();
    let mut fg_rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for (label, attack) in [
            ("MGA", AttackKind::Mga { r: 10 }),
            ("AA", AttackKind::Adaptive),
        ] {
            let config = cfg(DatasetKind::Ipums, protocol, Some(attack));
            let id = format!("arms/{label}-{protocol}");
            let mut mse_entries = vec![Entry::stat(&id, Metric::MseBefore)];
            mse_entries.extend(
                ARM_GRID
                    .iter()
                    .map(|&arm| Entry::stat(&id, Metric::mse(arm))),
            );
            mse_rows.push(RowSpec {
                label: format!("{label}-{protocol}"),
                entries: mse_entries,
            });
            if label == "MGA" {
                let mut fg_entries = vec![Entry::stat(&id, Metric::FgBefore)];
                fg_entries.extend(
                    ARM_GRID
                        .iter()
                        .map(|&arm| Entry::stat(&id, Metric::fg(arm))),
                );
                fg_rows.push(RowSpec {
                    label: format!("{label}-{protocol}"),
                    entries: fg_entries,
                });
            }
            cells.push(Cell::experiment(
                id,
                config,
                PipelineOptions::with_arms(ArmSet::new(ARM_GRID)),
            ));
        }
    }
    let columns = |lead: &str| {
        let mut cols = vec![format!("{lead} before")];
        cols.extend(ARM_GRID.iter().map(|arm| format!("{lead} {}", arm.label())));
        cols
    };
    Scenario {
        id: "defense_arms",
        title: "Extension: the open defense-arm registry, count-only arms side by side (IPUMS)",
        paper_anchor: "LDPRecover/LDPRecover* as in Fig. 3/4; the normalization baselines \
                       repair the simplex constraint but not the attack bias",
        cells,
        grids: vec![
            GridSpec {
                title: "Defense arms: MSE".into(),
                row_header: "cell".into(),
                columns: columns("MSE"),
                rows: mse_rows,
            },
            GridSpec {
                title: "Defense arms: frequency gain (targeted cells)".into(),
                row_header: "cell".into(),
                columns: columns("FG"),
                rows: fg_rows,
            },
        ],
        notes: vec![
            "norm-sub / base-cut are the standalone normalization baselines of the open \
             registry (`--arms norm-sub,base-cut`): pure refinements of the poisoned \
             estimate, no malicious-frequency learning.",
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::CellKind;

    #[test]
    fn every_figure_builds_and_validates_structurally() {
        for id in FIGURE_IDS {
            let s = scenario(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(s.id, id);
            assert!(!s.cells.is_empty(), "{id}: no cells");
            assert!(!s.grids.is_empty(), "{id}: no grids");
            // Structural validation is part of run_scenario; exercise it
            // without executing cells by checking ids + references here.
            let ids: std::collections::HashSet<&str> =
                s.cells.iter().map(|c| c.id.as_str()).collect();
            assert_eq!(ids.len(), s.cells.len(), "{id}: duplicate cell ids");
            for grid in &s.grids {
                for row in &grid.rows {
                    assert_eq!(row.entries.len(), grid.columns.len(), "{id}/{}", grid.title);
                    for entry in &row.entries {
                        for cell in entry.referenced_cells() {
                            assert!(ids.contains(cell), "{id}: dangling '{cell}'");
                        }
                    }
                }
            }
        }
        assert!(scenario("fig99").is_err());
        assert_eq!(all().unwrap().len(), FIGURE_IDS.len());
    }

    #[test]
    fn catalog_covers_the_papers_grid_dimensions() {
        // Fig. 3: 7 attack×protocol combos × 2 datasets.
        assert_eq!(scenario("fig3").unwrap().cells.len(), 14);
        // Fig. 5/6: 3 protocols × (β + ε + η) grids of 5.
        assert_eq!(scenario("fig5").unwrap().cells.len(), 45);
        // Fig. 8: 3 protocols × 5 β × {MGA, MGA-IPA}.
        assert_eq!(scenario("fig8").unwrap().cells.len(), 30);
        // Table I: 3 protocols × 2 datasets, all unpoisoned.
        let table1 = scenario("table1").unwrap();
        assert_eq!(table1.cells.len(), 6);
        for cell in &table1.cells {
            match &cell.kind {
                CellKind::Experiment { config, .. } => {
                    assert!(config.attack.is_none());
                    assert_eq!(config.beta, 0.0);
                }
                CellKind::Custom(_) => panic!("table1 has no custom cells"),
            }
        }
        // Ablations: 2 sum-model + 2 solver + 2 fallback + 1 padding.
        assert_eq!(scenario("ablations").unwrap().cells.len(), 7);
        // KV extension: one custom cell per wide-β point.
        assert_eq!(scenario("kv_extension").unwrap().cells.len(), 5);
        // Streaming: 3 protocols × {MGA, AA} online-recovery cells.
        assert_eq!(scenario("stream_online").unwrap().cells.len(), 6);
        // Windowed streaming: 3 protocols × {sliding:2, decay:0.75}.
        assert_eq!(scenario("stream_windowed").unwrap().cells.len(), 6);
        // Open arm registry: 3 protocols × {MGA, AA} comparison cells.
        assert_eq!(scenario("defense_arms").unwrap().cells.len(), 6);
    }

    #[test]
    fn defense_arms_cells_select_the_normalization_baselines() {
        let s = scenario("defense_arms").unwrap();
        for cell in &s.cells {
            match &cell.kind {
                CellKind::Experiment { options, .. } => {
                    assert!(options.arms.contains(ArmKind::NormSub), "{}", cell.id);
                    assert!(options.arms.contains(ArmKind::BaseCut), "{}", cell.id);
                    assert!(
                        !options.needs_reports(),
                        "{}: the grid must stay count-only (batched aggregation)",
                        cell.id
                    );
                }
                CellKind::Custom(_) => panic!("defense_arms has no custom cells"),
            }
        }
    }

    #[test]
    fn stream_scenario_produces_full_trajectories() {
        // One cheap run: every cell yields the full per-epoch metric set
        // and the recovered curve ends at or below the poisoned one for
        // the targeted MGA cells (which poison hardest).
        let scale = crate::scenario::spec::RunScale {
            trials: 2,
            seed: 11,
            scale: crate::scenario::spec::ScaleSpec::Fraction(0.004),
        };
        let report = crate::scenario::run_scenario(&stream_online(), &scale).unwrap();
        for cell in &report.cells {
            for key in STREAM_BEFORE_KEYS.iter().chain(&STREAM_RECOVER_KEYS) {
                assert!(
                    report.metric(&cell.id, key).is_some(),
                    "{}: missing {key}",
                    cell.id
                );
            }
            assert!(report.metric(&cell.id, "mse_genuine_final").is_some());
        }
        let mga_before = report.metric("stream/MGA-GRR", "mse_before_e4").unwrap();
        let mga_after = report.metric("stream/MGA-GRR", "mse_recovered_e4").unwrap();
        assert!(
            mga_after.mean < mga_before.mean,
            "online recovery must beat the poisoned estimate: {} vs {}",
            mga_after.mean,
            mga_before.mean
        );
    }

    #[test]
    fn windowed_stream_scenario_produces_full_trajectories() {
        let scale = crate::scenario::spec::RunScale {
            trials: 1,
            seed: 11,
            scale: crate::scenario::spec::ScaleSpec::Fraction(0.004),
        };
        let report = crate::scenario::run_scenario(&stream_windowed(), &scale).unwrap();
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            for key in STREAM_BEFORE_KEYS.iter().chain(&STREAM_RECOVER_KEYS) {
                assert!(
                    report.metric(&cell.id, key).is_some(),
                    "{}: missing {key}",
                    cell.id
                );
            }
            assert!(report.metric(&cell.id, "mse_genuine_final").is_some());
        }
    }
}
