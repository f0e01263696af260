//! Declarative experiment configuration.

use ldp_attacks::AttackKind;
use ldp_common::{LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldprecover::{ArmKind, ArmSet, KMeansDefense, MaliciousSumModel, PostProcess};
use serde::{Deserialize, Serialize};

/// The workspace-wide default master seed (`0x1DB05EED`, "LDP seed").
pub const DEFAULT_SEED: u64 = 0x1DB0_5EED;

/// One cell of the paper's evaluation grid.
///
/// Defaults mirror §VI-A: ε = 0.5, β = 0.05, η = 0.2, 10 trials,
/// full-scale population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Which evaluation workload.
    pub dataset: DatasetKind,
    /// Which LDP protocol.
    pub protocol: ProtocolKind,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// The poisoning attack, or `None` for the unpoisoned baseline
    /// (Table I).
    pub attack: Option<AttackKind>,
    /// Fraction of malicious users β = m/(n+m).
    pub beta: f64,
    /// The recovery methods' assumed ratio η = m/n.
    pub eta: f64,
    /// Number of independent trials to average over.
    pub trials: usize,
    /// Population scale factor in (0, 1] (see `Dataset::subsample`).
    pub scale: f64,
    /// Master seed; per-trial streams are derived from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's default cell for a given dataset/protocol/attack.
    pub fn paper_default(
        dataset: DatasetKind,
        protocol: ProtocolKind,
        attack: Option<AttackKind>,
    ) -> Self {
        Self {
            dataset,
            protocol,
            epsilon: 0.5,
            attack,
            beta: 0.05,
            eta: 0.2,
            trials: 10,
            scale: 1.0,
            seed: DEFAULT_SEED,
        }
    }

    /// Validates the numeric ranges.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for out-of-range ε, β, η, scale, a
    /// zero trial count, β > 0 without an attack, attack parameters the
    /// dataset's domain cannot hold (see [`AttackKind::validate`]), or an
    /// attacked cell whose population (`⌈n·scale⌉`,
    /// [`DatasetKind::users_at_scale`]) is too small for β to give it a
    /// malicious user ([`ldp_common::population::check_poisoned`]).
    pub fn validate(&self) -> Result<()> {
        if self.trials == 0 {
            return Err(LdpError::invalid("trials must be ≥ 1"));
        }
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(LdpError::invalid(format!(
                "scale must be in (0,1], got {}",
                self.scale
            )));
        }
        check_cell(
            self.dataset,
            self.epsilon,
            self.attack,
            self.beta,
            self.eta,
            self.dataset.users_at_scale(self.scale),
            &format!("{} at scale {}", self.dataset, self.scale),
        )
    }

    /// Number of malicious users for `n` genuine ones:
    /// `m = round(β/(1−β)·n)` (so that β = m/(n+m)), via the canonical
    /// [`ldp_common::population::malicious_count`]. Zero without an
    /// attack — β alone does not poison.
    pub fn malicious_count(&self, genuine: usize) -> usize {
        malicious_users(self.attack, self.beta, genuine)
    }

    /// Human-readable cell label, e.g. `"MGA-GRR"` (the paper's x-axis
    /// naming) or `"unpoisoned-GRR"`.
    pub fn label(&self) -> String {
        cell_label(self.attack, self.protocol)
    }
}

/// The checks every cell shares, offline ([`ExperimentConfig::validate`])
/// or streaming (`StreamSpec::validate`), after each has checked its own
/// fields: ε, β, η, the attack, and whether `genuine` users (the cell's
/// smallest genuine population, named by `population` in the error) give
/// the attack a malicious user.
pub(crate) fn check_cell(
    dataset: DatasetKind,
    epsilon: f64,
    attack: Option<AttackKind>,
    beta: f64,
    eta: f64,
    genuine: usize,
    population: &str,
) -> Result<()> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(LdpError::invalid(format!("epsilon = {epsilon}")));
    }
    if !(0.0..1.0).contains(&beta) {
        return Err(LdpError::invalid(format!(
            "beta must be in [0,1), got {beta}"
        )));
    }
    if !(eta.is_finite() && eta >= 0.0) {
        return Err(LdpError::invalid(format!("eta = {eta}")));
    }
    match attack {
        None if beta > 0.0 => Err(LdpError::invalid(
            "beta > 0 requires an attack; set beta = 0 for the unpoisoned baseline",
        )),
        None => Ok(()),
        Some(attack) => {
            attack.validate(dataset.domain())?;
            ldp_common::population::check_poisoned(beta, genuine, population)
        }
    }
}

/// The one malicious-count rule of both engines (see
/// [`ExperimentConfig::malicious_count`]).
pub(crate) fn malicious_users(attack: Option<AttackKind>, beta: f64, genuine: usize) -> usize {
    match attack {
        Some(_) => ldp_common::population::malicious_count(beta, genuine),
        None => 0,
    }
}

/// The one cell label of both engines (see [`ExperimentConfig::label`]).
pub(crate) fn cell_label(attack: Option<AttackKind>, protocol: ProtocolKind) -> String {
    match attack {
        Some(attack) => format!("{}-{protocol}", attack.label()),
        None => format!("unpoisoned-{protocol}"),
    }
}

/// How the genuine population is aggregated into support counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Simulate each user individually (`perturb` + `accumulate` per
    /// report): `O(n·d)`, required whenever an arm consumes raw reports.
    PerUser,
    /// Sample the aggregate support-count vector directly
    /// (`batch_aggregate`): `O(d)`–`O(d·log n)` closed-form for all five
    /// protocols (GRR/OUE/SUE/HR/OLH). Statistically equivalent to
    /// `PerUser` (exact per-item marginals) but consumes different RNG
    /// draws, so the two modes are not bitwise interchangeable.
    /// Incompatible with arms that need per-user reports (Detection,
    /// k-means).
    Batched,
    /// `Batched` whenever no configured arm retains reports, `PerUser`
    /// otherwise — the default, and what the sweep binaries run.
    #[default]
    Auto,
}

impl AggregationMode {
    /// Resolves the mode against the pipeline's report-retention needs.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `Batched` is forced while an
    /// arm needs raw reports — batched aggregation never materializes
    /// them, so the combination cannot be honored.
    pub fn use_batched(self, needs_reports: bool) -> Result<bool> {
        match self {
            AggregationMode::PerUser => Ok(false),
            AggregationMode::Auto => Ok(!needs_reports),
            AggregationMode::Batched if needs_reports => Err(LdpError::invalid(
                "Batched aggregation retains no per-user reports; \
                 the Detection / k-means arms need PerUser (or Auto)",
            )),
            AggregationMode::Batched => Ok(true),
        }
    }

    /// Parses `"per-user" | "batched" | "auto"` (case-insensitive).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names.
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "per-user" | "peruser" | "per_user" => Ok(AggregationMode::PerUser),
            "batched" | "batch" => Ok(AggregationMode::Batched),
            "auto" => Ok(AggregationMode::Auto),
            other => Err(LdpError::invalid(format!(
                "unknown aggregation mode '{other}' (per-user|batched|auto)"
            ))),
        }
    }
}

impl std::fmt::Display for AggregationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggregationMode::PerUser => "per-user",
            AggregationMode::Batched => "batched",
            AggregationMode::Auto => "auto",
        })
    }
}

/// Which defense arms a pipeline run executes, plus the knobs they share.
///
/// The arm selection is a registry-driven [`ArmSet`]: a defense joins the
/// comparison by its registry name, never through a boolean field (see
/// `ldprecover::arm`).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOptions {
    /// The defense arms to run, in canonical registry order.
    pub arms: ArmSet,
    /// Clustering configuration for the k-means arms (ignored unless
    /// [`ArmKind::Kmeans`] / [`ArmKind::RecoverKm`] is selected).
    pub kmeans: KMeansDefense,
    /// Number of identified targets for untargeted attacks in the
    /// partial-knowledge arms (the paper uses r/2 = 5).
    pub star_top_k: usize,
    /// Malicious-sum model ablation (default: the paper's Eq. 21).
    pub sum_model: MaliciousSumModel,
    /// Refinement ablation (default: norm-sub, the paper's Algorithm 1).
    pub post_process: PostProcess,
    /// How to aggregate the genuine population (default: [`AggregationMode::Auto`]).
    pub aggregation: AggregationMode,
}

impl Default for PipelineOptions {
    /// Plain LDPRecover only — the arm every historical run included.
    fn default() -> Self {
        Self {
            arms: ArmSet::default(),
            kmeans: KMeansDefense::default(),
            star_top_k: 5,
            sum_model: MaliciousSumModel::default(),
            post_process: PostProcess::default(),
            aggregation: AggregationMode::default(),
        }
    }
}

impl PipelineOptions {
    /// The full method set of the paper's Fig. 3/4: before + Detection +
    /// LDPRecover + LDPRecover\*.
    pub fn full_comparison() -> Self {
        Self {
            arms: ArmSet::new([ArmKind::Recover, ArmKind::RecoverStar, ArmKind::Detection]),
            ..Self::default()
        }
    }

    /// Recovery-only (the Fig. 5/6 parameter sweeps).
    pub fn recovery_only() -> Self {
        Self {
            arms: ArmSet::new([ArmKind::Recover, ArmKind::RecoverStar]),
            ..Self::default()
        }
    }

    /// An explicit arm selection with every other knob at its default.
    pub fn with_arms(arms: ArmSet) -> Self {
        Self {
            arms,
            ..Self::default()
        }
    }

    /// Whether any selected arm needs per-report retention.
    pub fn needs_reports(&self) -> bool {
        self.arms.needs_reports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentConfig {
        ExperimentConfig::paper_default(
            DatasetKind::Ipums,
            ProtocolKind::Grr,
            Some(AttackKind::Adaptive),
        )
    }

    #[test]
    fn paper_defaults_match_section_vi() {
        let c = base();
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.beta, 0.05);
        assert_eq!(c.eta, 0.2);
        assert_eq!(c.trials, 10);
        assert_eq!(c.scale, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_ranges() {
        for mutate in [
            |c: &mut ExperimentConfig| c.epsilon = 0.0,
            |c: &mut ExperimentConfig| c.beta = 1.0,
            |c: &mut ExperimentConfig| c.beta = -0.1,
            |c: &mut ExperimentConfig| c.eta = -1.0,
            |c: &mut ExperimentConfig| c.trials = 0,
            |c: &mut ExperimentConfig| c.scale = 0.0,
            |c: &mut ExperimentConfig| c.scale = 1.2,
            |c: &mut ExperimentConfig| c.attack = None, // beta stays 0.05
            |c: &mut ExperimentConfig| c.attack = Some(AttackKind::Mga { r: 0 }),
            |c: &mut ExperimentConfig| c.attack = Some(AttackKind::Manip { h: 0 }),
            |c: &mut ExperimentConfig| c.attack = Some(AttackKind::MultiAdaptive { attackers: 0 }),
            |c: &mut ExperimentConfig| {
                c.dataset = DatasetKind::Fire;
                c.attack = Some(AttackKind::Mga { r: 491 }); // d = 490
            },
            // ⌈389,894 · 10⁻⁵⌉ = 4 users: round(0.05/0.95 · 4) = 0.
            |c: &mut ExperimentConfig| c.scale = 0.00001,
        ] {
            let mut c = base();
            mutate(&mut c);
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    /// IPUMS at scale 3·10⁻⁵ has 12 users and one malicious user, so the
    /// attacked cell validates (at 10⁻⁵, 4 users and none, it does not:
    /// see `validation_catches_bad_ranges`); an unattacked cell of any
    /// size stays legal.
    #[test]
    fn attacked_cells_need_a_malicious_user() {
        let mut c = base();
        c.scale = 0.00003;
        assert_eq!(DatasetKind::Ipums.users_at_scale(c.scale), 12);
        assert_eq!(c.malicious_count(12), 1);
        assert!(c.validate().is_ok());
        c.attack = None;
        c.beta = 0.0;
        c.scale = 0.00001;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn unpoisoned_baseline_is_legal() {
        let mut c = base();
        c.attack = None;
        c.beta = 0.0;
        assert!(c.validate().is_ok());
        assert_eq!(c.malicious_count(1000), 0);
        assert_eq!(c.label(), "unpoisoned-GRR");
    }

    #[test]
    fn malicious_count_inverts_beta() {
        let mut c = base();
        c.beta = 0.05;
        let n = 389_894usize;
        let m = c.malicious_count(n);
        let beta_realized = m as f64 / (n + m) as f64;
        assert!((beta_realized - 0.05).abs() < 1e-6, "beta={beta_realized}");
    }

    #[test]
    fn labels_match_figure_axes() {
        let c = base();
        assert_eq!(c.label(), "AA-GRR");
        let mut c2 = base();
        c2.attack = Some(AttackKind::Mga { r: 10 });
        c2.protocol = ProtocolKind::Oue;
        assert_eq!(c2.label(), "MGA-OUE");
    }

    #[test]
    fn options_report_retention() {
        assert!(!PipelineOptions::recovery_only().needs_reports());
        assert!(PipelineOptions::full_comparison().needs_reports());
        let km = PipelineOptions::with_arms(ArmSet::new([ArmKind::Recover, ArmKind::Kmeans]));
        assert!(km.needs_reports());
    }

    #[test]
    fn preset_arm_sets_mirror_the_paper() {
        assert_eq!(PipelineOptions::default().arms.kinds(), &[ArmKind::Recover]);
        assert_eq!(
            PipelineOptions::recovery_only().arms.kinds(),
            &[ArmKind::Recover, ArmKind::RecoverStar]
        );
        assert_eq!(
            PipelineOptions::full_comparison().arms.kinds(),
            &[ArmKind::Recover, ArmKind::RecoverStar, ArmKind::Detection]
        );
        assert_eq!(PipelineOptions::default().star_top_k, 5);
    }

    #[test]
    fn aggregation_mode_resolution() {
        // Auto switches on report retention.
        assert!(AggregationMode::Auto.use_batched(false).unwrap());
        assert!(!AggregationMode::Auto.use_batched(true).unwrap());
        // Explicit modes are honored…
        assert!(!AggregationMode::PerUser.use_batched(false).unwrap());
        assert!(!AggregationMode::PerUser.use_batched(true).unwrap());
        assert!(AggregationMode::Batched.use_batched(false).unwrap());
        // …except the impossible combination, which errors loudly.
        assert!(AggregationMode::Batched.use_batched(true).is_err());
        // Auto is the default everywhere.
        assert_eq!(
            PipelineOptions::default().aggregation,
            AggregationMode::Auto
        );
        assert_eq!(
            PipelineOptions::full_comparison().aggregation,
            AggregationMode::Auto
        );
    }

    #[test]
    fn aggregation_mode_parse_and_display() {
        for (name, mode) in [
            ("per-user", AggregationMode::PerUser),
            ("PerUser", AggregationMode::PerUser),
            ("batched", AggregationMode::Batched),
            ("BATCH", AggregationMode::Batched),
            ("auto", AggregationMode::Auto),
        ] {
            assert_eq!(AggregationMode::parse(name).unwrap(), mode);
        }
        assert!(AggregationMode::parse("vectorized").is_err());
        assert_eq!(
            AggregationMode::parse(&AggregationMode::Batched.to_string()).unwrap(),
            AggregationMode::Batched
        );
    }
}
