//! The defense arms the evaluation compares, and the string-keyed registry
//! the simulation and CLI layers select them through.
//!
//! LDPRecover's evaluation is a *comparison of defenses*: LDPRecover and
//! LDPRecover\* (§V), report-filtering detection (Cao et al.), k-means
//! subset clustering (Du et al.) with LDPRecover-KM (§VII-B), and two
//! plain normalization baselines. The set is closed: [`ArmKind`] names
//! every arm, and [`Arm::run`] dispatches on it.
//!
//! * [`ArmKind`] / [`ArmSet`] — the registry (`ArmKind::parse`,
//!   `ArmSet::parse`) behind `ldp --arms recover,detection,norm-sub` and
//!   the scenario catalog's arm grids. Each kind declares what it consumes
//!   beyond the poisoned estimate ([`ArmKind::needs_reports`],
//!   [`ArmKind::needs_targets`]).
//! * [`Arm`] — one executable step of an [`ArmSet`], built by
//!   [`ArmSet::build`]; the two k-means kinds share one step.
//! * [`ArmContext`] — everything the server side has at recovery time:
//!   the poisoned frequency estimate, protocol parameters, optionally the
//!   retained per-user reports and their support totals, the protocol
//!   instance, and an identified target set.
//! * [`ArmOutcome`] / [`ArmOutput`] — named recovered-frequency outputs
//!   with an optional malicious-estimate side channel, or a *documented
//!   statistical degeneracy* ([`ArmOutcome::Degenerate`]) that callers
//!   skip without failing the trial. Real errors (shape mismatches, bad
//!   configuration) stay `Err` and propagate.

use ldp_common::{LdpError, Result};
use ldp_protocols::{AnyProtocol, PureParams, Report};
use rand::Rng;

use crate::kmeans::KMeansDefense;
use crate::malicious::MaliciousSumModel;
use crate::recover::LdpRecover;
use crate::solve::PostProcess;

/// Everything the server side has at recovery time — the input of every
/// [`Arm::run`].
///
/// Only `poisoned`, `params`, and `eta` always exist; the rest depends on
/// the aggregation mode (reports), the attack (targets), and the caller.
/// An arm whose declared inputs ([`ArmKind::needs_reports`]) are missing
/// returns a clear error; one that lacks an identified target set
/// degenerates instead.
#[derive(Debug, Clone, Copy)]
pub struct ArmContext<'a> {
    /// The poisoned aggregated frequency estimate `f̃_Z` (debiased).
    pub poisoned: &'a [f64],
    /// The protocol's pure-parameter view (`p`, `q`, domain).
    pub params: PureParams,
    /// The full protocol instance, when the caller has one (needed by
    /// report-consuming arms, which must re-interpret encodings).
    pub protocol: Option<&'a AnyProtocol>,
    /// Retained per-user reports (genuine then malicious), when the
    /// aggregation path kept them.
    pub reports: Option<&'a [Report]>,
    /// The support counts of all of `reports` (their fold), when the
    /// caller has them: the per-user trial's poisoned counts. Detection
    /// subtracts its flagged reports from them; without them it folds the
    /// reports first.
    pub report_totals: Option<&'a [u64]>,
    /// The identified target set for partial-knowledge arms (oracle
    /// targets for targeted attacks, top-k-increase identification
    /// otherwise).
    pub targets: Option<&'a [usize]>,
    /// The recovery methods' assumed malicious/genuine ratio `η = m/n`.
    pub eta: f64,
    /// Malicious-sum model for learning-based arms (paper Eq. 21 default).
    pub sum_model: MaliciousSumModel,
    /// Refinement step for learning-based arms (norm-sub default).
    pub post_process: PostProcess,
}

impl<'a> ArmContext<'a> {
    /// A minimal context: poisoned estimate, parameters, and `η`. Other
    /// inputs default to absent / the paper's defaults.
    pub fn new(poisoned: &'a [f64], params: PureParams, eta: f64) -> Self {
        Self {
            poisoned,
            params,
            protocol: None,
            reports: None,
            report_totals: None,
            targets: None,
            eta,
            sum_model: MaliciousSumModel::default(),
            post_process: PostProcess::default(),
        }
    }

    /// Attaches the protocol instance.
    pub fn with_protocol(mut self, protocol: &'a AnyProtocol) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Attaches retained per-user reports.
    pub fn with_reports(mut self, reports: &'a [Report]) -> Self {
        self.reports = Some(reports);
        self
    }

    /// Attaches the support totals of the attached reports.
    pub fn with_report_totals(mut self, totals: &'a [u64]) -> Self {
        self.report_totals = Some(totals);
        self
    }

    /// Attaches an identified target set.
    pub fn with_targets(mut self, targets: &'a [usize]) -> Self {
        self.targets = Some(targets);
        self
    }

    /// Overrides the malicious-sum model.
    pub fn with_sum_model(mut self, model: MaliciousSumModel) -> Self {
        self.sum_model = model;
        self
    }

    /// Overrides the refinement step.
    pub fn with_post_process(mut self, post: PostProcess) -> Self {
        self.post_process = post;
        self
    }

    /// The [`LdpRecover`] instance this context configures (the shared
    /// front end of every estimator-based arm).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for an invalid `η`.
    pub fn recoverer(&self) -> Result<LdpRecover> {
        Ok(LdpRecover::new(self.eta)?
            .with_sum_model(self.sum_model)
            .with_post_process(self.post_process))
    }
}

/// One named frequency estimate an arm produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmOutput {
    /// The arm's recovered/defended frequency estimate.
    pub frequencies: Vec<f64>,
    /// The malicious frequency estimate `f̃′_Y` the arm learned, when it
    /// learns one that is comparable to the true aggregated `f̃_Y`
    /// (the Fig. 7 side channel). Arms whose internal malicious direction
    /// is a heuristic rather than an estimate leave this `None`.
    pub malicious_estimate: Option<Vec<f64>>,
    /// Whether frequency gain (paper Eq. 37) is a meaningful statistic
    /// for this arm's output — the metric layer derives `fg_{key}` only
    /// when set.
    pub track_fg: bool,
}

impl ArmOutput {
    /// An output that is just a frequency vector (no malicious side
    /// channel), with FG tracking on.
    pub fn frequencies_only(frequencies: Vec<f64>) -> Self {
        Self {
            frequencies,
            malicious_estimate: None,
            track_fg: true,
        }
    }
}

/// What one [`Arm::run`] yields.
///
/// Arms usually emit a single output keyed by their metric key; families
/// that share one expensive pass (the k-means defenses, where one
/// clustering serves both the plain estimate and LDPRecover-KM) emit
/// several. The keys become metric names downstream: `mse_{key}`,
/// `fg_{key}`, `malicious_mse_{key}`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArmOutcome {
    /// Named outputs, in presentation order.
    Outputs(Vec<(String, ArmOutput)>),
    /// A *documented* statistical degeneracy (e.g. the detection baseline
    /// flagged every report, or no target set could be identified): the
    /// arm is skipped this trial, the trial itself succeeds. Anything
    /// that is not one of these known small-sample cases must be an
    /// `Err`, never a `Degenerate`.
    Degenerate {
        /// Human-readable description of the degeneracy.
        reason: String,
    },
}

impl ArmOutcome {
    /// A single-output outcome under `key`.
    pub fn single(key: impl Into<String>, output: ArmOutput) -> Self {
        ArmOutcome::Outputs(vec![(key.into(), output)])
    }

    /// A degenerate outcome with the given reason.
    pub fn degenerate(reason: impl Into<String>) -> Self {
        ArmOutcome::Degenerate {
            reason: reason.into(),
        }
    }
}

/// The string-keyed registry of defense arms.
///
/// | kind | name (CLI) | metric key | knowledge assumed | reports? |
/// |------|------------|------------|-------------------|----------|
/// | [`Recover`](ArmKind::Recover) | `recover` | `recover` | none | no |
/// | [`RecoverStar`](ArmKind::RecoverStar) | `recover-star` | `star` | target set | no |
/// | [`Detection`](ArmKind::Detection) | `detection` | `detection` | target set | yes |
/// | [`Kmeans`](ArmKind::Kmeans) | `kmeans` | `kmeans` | none | yes |
/// | [`RecoverKm`](ArmKind::RecoverKm) | `recover-km` | `recover_km` | none | yes |
/// | [`NormSub`](ArmKind::NormSub) | `norm-sub` | `norm_sub` | none | no |
/// | [`BaseCut`](ArmKind::BaseCut) | `base-cut` | `base_cut` | none | no |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArmKind {
    /// LDPRecover proper (paper Algorithm 1, no attack knowledge).
    Recover,
    /// LDPRecover\* (partial knowledge: identified target set).
    /// Degenerates when no target set exists — e.g. an unpoisoned trial,
    /// where there is nothing to know.
    RecoverStar,
    /// The report-filtering detection baseline (Cao et al.): remove
    /// reports whose target support is implausible for a genuine user,
    /// re-estimate from survivors. Degenerates only when no target set
    /// exists or every report is flagged.
    Detection,
    /// The k-means subset-clustering defense (Du et al., Fig. 9).
    Kmeans,
    /// LDPRecover-KM: recovery on the k-means cluster structure (§VII-B).
    RecoverKm,
    /// Standalone norm-sub normalization of the poisoned estimate (the
    /// Algorithm-1 refinement run as a defense of its own — the "just
    /// project back to the simplex" baseline).
    NormSub,
    /// Standalone Base-Cut normalization (Wang et al., NDSS 2020): zero
    /// sub-uniform estimates, renormalize.
    BaseCut,
}

impl ArmKind {
    /// Every registered arm, in canonical execution/presentation order.
    pub const ALL: [ArmKind; 7] = [
        ArmKind::Recover,
        ArmKind::RecoverStar,
        ArmKind::Detection,
        ArmKind::Kmeans,
        ArmKind::RecoverKm,
        ArmKind::NormSub,
        ArmKind::BaseCut,
    ];

    /// The registry/CLI name.
    pub const fn name(self) -> &'static str {
        match self {
            ArmKind::Recover => "recover",
            ArmKind::RecoverStar => "recover-star",
            ArmKind::Detection => "detection",
            ArmKind::Kmeans => "kmeans",
            ArmKind::RecoverKm => "recover-km",
            ArmKind::NormSub => "norm-sub",
            ArmKind::BaseCut => "base-cut",
        }
    }

    /// The snake_case key metric names derive from (`mse_{key}`, …).
    /// Chosen so the historical metric names are reproduced exactly
    /// (`star` → `mse_star`, `recover_km` → `mse_recover_km`).
    pub const fn metric_key(self) -> &'static str {
        match self {
            ArmKind::Recover => "recover",
            ArmKind::RecoverStar => "star",
            ArmKind::Detection => "detection",
            ArmKind::Kmeans => "kmeans",
            ArmKind::RecoverKm => "recover_km",
            ArmKind::NormSub => "norm_sub",
            ArmKind::BaseCut => "base_cut",
        }
    }

    /// Human-readable label (the paper's method names, for table headers).
    pub const fn label(self) -> &'static str {
        match self {
            ArmKind::Recover => "LDPRecover",
            ArmKind::RecoverStar => "LDPRecover*",
            ArmKind::Detection => "Detection",
            ArmKind::Kmeans => "k-means",
            ArmKind::RecoverKm => "LDPRecover-KM",
            ArmKind::NormSub => "norm-sub",
            ArmKind::BaseCut => "base-cut",
        }
    }

    /// Whether the arm consumes the retained per-user [`Report`]s and the
    /// protocol instance (report filtering, subset clustering). Such arms
    /// force per-user aggregation and are ineligible in count-only
    /// settings like the streaming engine.
    pub const fn needs_reports(self) -> bool {
        matches!(
            self,
            ArmKind::Detection | ArmKind::Kmeans | ArmKind::RecoverKm
        )
    }

    /// Whether the arm consumes an identified target set (the
    /// partial-knowledge scenario of paper §V-D); selecting one triggers
    /// the target-identification step.
    pub const fn needs_targets(self) -> bool {
        matches!(self, ArmKind::RecoverStar | ArmKind::Detection)
    }

    /// Parses a registry name (case-insensitive; `_` and `-` are
    /// interchangeable, and the historical metric keys are accepted as
    /// aliases, e.g. `star`).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names; the message lists
    /// every valid arm.
    pub fn parse(s: &str) -> Result<Self> {
        let canon = s.trim().to_ascii_lowercase().replace('_', "-");
        for kind in ArmKind::ALL {
            if canon == kind.name() || canon == kind.metric_key().replace('_', "-") {
                return Ok(kind);
            }
        }
        Err(LdpError::invalid(format!(
            "unknown defense arm '{s}' (valid arms: {})",
            ArmKind::ALL.map(ArmKind::name).join(", ")
        )))
    }
}

impl std::fmt::Display for ArmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered, de-duplicated selection of registry arms.
///
/// Construction canonicalizes to [`ArmKind::ALL`] order, so execution
/// order — and therefore RNG draw order — never depends on how the set
/// was written down (`--arms detection,recover` ≡ `--arms
/// recover,detection`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmSet {
    kinds: Vec<ArmKind>,
}

impl Default for ArmSet {
    /// Just LDPRecover — the arm every historical pipeline run included.
    fn default() -> Self {
        ArmSet::new([ArmKind::Recover])
    }
}

impl ArmSet {
    /// Builds a set from any iterator of kinds (duplicates collapse, order
    /// canonicalizes).
    pub fn new(kinds: impl IntoIterator<Item = ArmKind>) -> Self {
        let requested: Vec<ArmKind> = kinds.into_iter().collect();
        let kinds = ArmKind::ALL
            .into_iter()
            .filter(|k| requested.contains(k))
            .collect();
        Self { kinds }
    }

    /// The empty set (no arms run — aggregation-only trials).
    pub fn empty() -> Self {
        Self { kinds: Vec::new() }
    }

    /// Parses a comma-separated arm list (e.g. `"recover,detection,norm-sub"`).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for an empty list or any unknown
    /// name (see [`ArmKind::parse`]).
    pub fn parse(s: &str) -> Result<Self> {
        let names: Vec<&str> = s
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        if names.is_empty() {
            return Err(LdpError::invalid(format!(
                "empty arm list (valid arms: {})",
                ArmKind::ALL.map(ArmKind::name).join(", ")
            )));
        }
        Ok(ArmSet::new(
            names
                .into_iter()
                .map(ArmKind::parse)
                .collect::<Result<Vec<_>>>()?,
        ))
    }

    /// The selected kinds, in canonical order.
    pub fn kinds(&self) -> &[ArmKind] {
        &self.kinds
    }

    /// Whether the set contains a kind.
    pub fn contains(&self, kind: ArmKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Whether no arm is selected.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether any selected arm consumes raw reports (forces per-user
    /// aggregation).
    pub fn needs_reports(&self) -> bool {
        self.kinds.iter().any(|k| k.needs_reports())
    }

    /// Whether any selected arm consumes an identified target set
    /// (triggers the identification step).
    pub fn needs_targets(&self) -> bool {
        self.kinds.iter().any(|k| k.needs_targets())
    }

    /// The executable steps, in canonical order.
    ///
    /// The two k-means kinds fuse into one step so a set containing both
    /// pays for (and draws RNG for) exactly one clustering pass — the
    /// historical behaviour the differential goldens pin bit-for-bit.
    pub fn build(&self, kmeans: &KMeansDefense) -> Vec<Arm> {
        let fused = self.contains(ArmKind::Kmeans) && self.contains(ArmKind::RecoverKm);
        self.kinds
            .iter()
            .filter(|&&kind| !(fused && kind == ArmKind::RecoverKm))
            .map(|&kind| Arm {
                kind,
                kmeans: *kmeans,
                emit_recover_km: fused && kind == ArmKind::Kmeans,
            })
            .collect()
    }
}

impl std::fmt::Display for ArmSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        f.write_str(&names.join(","))
    }
}

/// Why a target-consuming arm degenerates without an identified target set.
const NO_TARGETS: &str =
    "no identified target set (unpoisoned trial or identification unavailable)";

/// One executable step of an [`ArmSet`]: a registry kind plus the
/// configuration its run needs. Built by [`ArmSet::build`].
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    kind: ArmKind,
    kmeans: KMeansDefense,
    /// A `Kmeans` step that also emits LDPRecover-KM from the same
    /// clustering pass (both k-means kinds selected).
    emit_recover_km: bool,
}

impl Arm {
    /// The registry/CLI name of the step's kind (a fused k-means step is
    /// named `kmeans`).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Runs the defense on one trial's context.
    ///
    /// Only the k-means step draws from `rng` (its G subsets, then Lloyd's
    /// initial centroids); every other arm leaves it untouched. Generic over
    /// the RNG like [`KMeansDefense::run`], so the subset draws run inline.
    ///
    /// # Errors
    /// Real failures only (shape mismatches, missing protocol or reports
    /// for a report-consuming arm, numerical breakdown); documented
    /// small-sample degeneracies return `Ok(ArmOutcome::Degenerate { .. })`
    /// instead.
    pub fn run<R: Rng + ?Sized>(&self, ctx: &ArmContext<'_>, rng: &mut R) -> Result<ArmOutcome> {
        match self.kind {
            ArmKind::Recover | ArmKind::RecoverStar => {
                let outcome = match (self.kind, ctx.targets) {
                    (ArmKind::Recover, _) => ctx.recoverer()?.recover(ctx.poisoned, ctx.params)?,
                    (_, Some(targets)) => {
                        ctx.recoverer()?
                            .recover_with_targets(ctx.poisoned, ctx.params, targets)?
                    }
                    (_, None) => return Ok(ArmOutcome::degenerate(NO_TARGETS)),
                };
                Ok(ArmOutcome::single(
                    self.kind.metric_key(),
                    ArmOutput {
                        frequencies: outcome.frequencies,
                        malicious_estimate: Some(outcome.malicious_estimate),
                        track_fg: true,
                    },
                ))
            }
            ArmKind::Detection => {
                let Some(targets) = ctx.targets else {
                    return Ok(ArmOutcome::degenerate(NO_TARGETS));
                };
                let protocol = ctx.protocol.ok_or_else(|| {
                    LdpError::invalid(
                        "the detection arm needs the protocol instance in its context",
                    )
                })?;
                let reports = ctx.reports.ok_or_else(|| {
                    LdpError::invalid(
                        "the detection arm consumes raw reports; aggregate per-user (or Auto)",
                    )
                })?;
                let detection = crate::detection::Detection::new(targets.to_vec())?;
                let mask = detection.keep_mask(protocol, reports);
                if !mask.iter().any(|&keep| keep) {
                    return Ok(ArmOutcome::degenerate(
                        "every report was flagged as malicious (small-sample degeneracy)",
                    ));
                }
                let frequencies = match ctx.report_totals {
                    Some(totals) => crate::detection::Detection::estimate_from_totals(
                        protocol, reports, &mask, totals,
                    )?,
                    None => {
                        crate::detection::Detection::estimate_from_mask(protocol, reports, &mask)?
                    }
                };
                Ok(ArmOutcome::single(
                    ArmKind::Detection.metric_key(),
                    ArmOutput::frequencies_only(frequencies),
                ))
            }
            ArmKind::Kmeans | ArmKind::RecoverKm => {
                let protocol = ctx.protocol.ok_or_else(|| {
                    LdpError::invalid(
                        "the k-means arms need the protocol instance in their context",
                    )
                })?;
                let reports = ctx.reports.ok_or_else(|| {
                    LdpError::invalid(
                        "the k-means arms consume raw reports; aggregate per-user (or Auto)",
                    )
                })?;
                let outcome = self.kmeans.run(protocol, reports, rng)?;
                // The centroid difference is a heuristic direction, not an
                // estimate of `f̃_Y`, and these Fig. 9 arms are scored on
                // MSE: no malicious side channel, no FG.
                let mse_only = |frequencies| ArmOutput {
                    frequencies,
                    malicious_estimate: None,
                    track_fg: false,
                };
                let recover_km = if self.kind == ArmKind::RecoverKm || self.emit_recover_km {
                    let recovered =
                        KMeansDefense::recover_from_outcome(&ctx.recoverer()?, &outcome)?;
                    Some(recovered.frequencies)
                } else {
                    None
                };
                let mut outputs = Vec::new();
                if self.kind == ArmKind::Kmeans {
                    outputs.push((
                        ArmKind::Kmeans.metric_key().to_string(),
                        mse_only(outcome.genuine_estimate),
                    ));
                }
                if let Some(frequencies) = recover_km {
                    outputs.push((
                        ArmKind::RecoverKm.metric_key().to_string(),
                        mse_only(frequencies),
                    ));
                }
                Ok(ArmOutcome::Outputs(outputs))
            }
            ArmKind::NormSub => Ok(ArmOutcome::single(
                ArmKind::NormSub.metric_key(),
                ArmOutput::frequencies_only(PostProcess::NormSub.apply(ctx.poisoned)?),
            )),
            ArmKind::BaseCut => Ok(ArmOutcome::single(
                ArmKind::BaseCut.metric_key(),
                ArmOutput::frequencies_only(PostProcess::BaseCut.apply(ctx.poisoned)?),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::vecmath::is_probability_vector;
    use ldp_common::Domain;
    use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
    use rand::RngCore;

    fn grr_params(d: usize, eps: f64) -> PureParams {
        let e = eps.exp();
        let denom = d as f64 - 1.0 + e;
        PureParams::new(e / denom, 1.0 / denom, Domain::new(d).unwrap()).unwrap()
    }

    /// The single step `build` makes for one kind.
    fn arm(kind: ArmKind) -> Arm {
        ArmSet::new([kind]).build(&KMeansDefense::default())[0]
    }

    fn outputs(outcome: ArmOutcome) -> Vec<(String, ArmOutput)> {
        match outcome {
            ArmOutcome::Outputs(outputs) => outputs,
            ArmOutcome::Degenerate { reason } => panic!("unexpected degeneracy: {reason}"),
        }
    }

    #[test]
    fn registry_names_and_keys_are_unique_and_parse_round_trips() {
        let mut names = std::collections::HashSet::new();
        let mut keys = std::collections::HashSet::new();
        for kind in ArmKind::ALL {
            assert!(names.insert(kind.name()), "duplicate name {kind}");
            assert!(keys.insert(kind.metric_key()), "duplicate key {kind}");
            assert_eq!(ArmKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(ArmKind::parse(kind.metric_key()).unwrap(), kind, "alias");
            assert_eq!(
                ArmKind::parse(&kind.name().to_ascii_uppercase()).unwrap(),
                kind
            );
        }
    }

    #[test]
    fn parse_rejects_unknown_arms_listing_the_registry() {
        let err = ArmKind::parse("frobnicate").unwrap_err().to_string();
        for kind in ArmKind::ALL {
            assert!(err.contains(kind.name()), "error must list {kind}: {err}");
        }
        assert!(ArmSet::parse("").is_err());
        assert!(ArmSet::parse("recover,nope").is_err());
    }

    #[test]
    fn arm_set_canonicalizes_order_and_dedups() {
        let set = ArmSet::parse("detection, recover, detection,recover-star").unwrap();
        assert_eq!(
            set.kinds(),
            &[ArmKind::Recover, ArmKind::RecoverStar, ArmKind::Detection]
        );
        assert_eq!(set.to_string(), "recover,recover-star,detection");
        assert_eq!(
            set,
            ArmSet::parse("recover-star,detection,recover").unwrap()
        );
        assert!(ArmSet::empty().is_empty());
        assert_eq!(ArmSet::default().kinds(), &[ArmKind::Recover]);
    }

    #[test]
    fn requirement_rollups() {
        let set = ArmSet::new([ArmKind::Recover, ArmKind::NormSub]);
        assert!(!set.needs_reports() && !set.needs_targets());
        let set = ArmSet::new([ArmKind::Recover, ArmKind::RecoverStar]);
        assert!(set.needs_targets() && !set.needs_reports());
        let set = ArmSet::new([ArmKind::Detection]);
        assert!(set.needs_reports() && set.needs_targets());
        let set = ArmSet::new([ArmKind::RecoverKm]);
        assert!(set.needs_reports() && !set.needs_targets());
    }

    #[test]
    fn declared_inputs_match_what_run_uses() {
        let domain = Domain::new(12).unwrap();
        let protocol = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(8);
        let reports: Vec<Report> = (0..600)
            .map(|i| protocol.perturb(i % 12, &mut rng))
            .collect();
        let mut acc = CountAccumulator::new(domain);
        acc.add_all(&protocol, &reports);
        let poisoned = acc.frequencies(protocol.params()).unwrap();
        let targets = [3usize, 7];
        for kind in ArmKind::ALL {
            // (a) Counts and targets only: exactly the count-only arms run.
            let counts_only =
                ArmContext::new(&poisoned, protocol.params(), 0.2).with_targets(&targets);
            let mut rng = rng_from_seed(9);
            let result = arm(kind).run(&counts_only, &mut rng);
            assert_eq!(result.is_ok(), !kind.needs_reports(), "{kind}");
            // (b) ... and they draw nothing from the RNG.
            if !kind.needs_reports() {
                assert_eq!(rng.next_u64(), rng_from_seed(9).next_u64(), "{kind}");
            }
            // (c) Protocol and reports but no targets: exactly the
            // target-consuming arms degenerate.
            let no_targets = ArmContext::new(&poisoned, protocol.params(), 0.2)
                .with_protocol(&protocol)
                .with_reports(&reports);
            let outcome = arm(kind).run(&no_targets, &mut rng_from_seed(10));
            assert_eq!(
                matches!(outcome, Ok(ArmOutcome::Degenerate { .. })),
                kind.needs_targets(),
                "{kind}"
            );
            assert!(outcome.is_ok(), "{kind}");
        }
    }

    #[test]
    fn kmeans_kinds_fuse_into_one_executable() {
        let both = ArmSet::new([ArmKind::Recover, ArmKind::Kmeans, ArmKind::RecoverKm]);
        let arms = both.build(&KMeansDefense::default());
        assert_eq!(arms.len(), 2, "recover + one fused k-means family");
        assert_eq!(arms[1].name(), "kmeans");
        let only_km = ArmSet::new([ArmKind::RecoverKm]).build(&KMeansDefense::default());
        assert_eq!(only_km.len(), 1);
        assert_eq!(only_km[0].name(), "recover-km");
    }

    #[test]
    fn recover_arm_matches_direct_ldprecover() {
        let params = grr_params(6, 0.5);
        let poisoned = vec![0.4, 0.25, 0.2, 0.1, 0.05, -0.02];
        let ctx = ArmContext::new(&poisoned, params, 0.2);
        let mut rng = rng_from_seed(1);
        let outs = outputs(arm(ArmKind::Recover).run(&ctx, &mut rng).unwrap());
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "recover");
        let direct = LdpRecover::new(0.2)
            .unwrap()
            .recover(&poisoned, params)
            .unwrap();
        assert_eq!(outs[0].1.frequencies, direct.frequencies);
        assert_eq!(
            outs[0].1.malicious_estimate.as_deref(),
            Some(direct.malicious_estimate.as_slice())
        );
        assert!(outs[0].1.track_fg);
    }

    #[test]
    fn star_arm_degenerates_without_targets_and_matches_with() {
        let params = grr_params(10, 0.5);
        let poisoned = vec![0.08; 10];
        let mut rng = rng_from_seed(2);
        let ctx = ArmContext::new(&poisoned, params, 0.2);
        assert!(matches!(
            arm(ArmKind::RecoverStar).run(&ctx, &mut rng).unwrap(),
            ArmOutcome::Degenerate { .. }
        ));
        let targets = [1usize, 4];
        let ctx = ctx.with_targets(&targets);
        let outs = outputs(arm(ArmKind::RecoverStar).run(&ctx, &mut rng).unwrap());
        let direct = LdpRecover::new(0.2)
            .unwrap()
            .recover_with_targets(&poisoned, params, &targets)
            .unwrap();
        assert_eq!(outs[0].0, "star");
        assert_eq!(outs[0].1.frequencies, direct.frequencies);
    }

    #[test]
    fn detection_arm_distinguishes_degenerate_from_error() {
        let domain = Domain::new(4).unwrap();
        let protocol = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let poisoned = vec![0.25; 4];
        let mut rng = rng_from_seed(3);
        // Every report names a target → documented degeneracy, not an error.
        let reports = vec![Report::Grr(0), Report::Grr(3)];
        let targets = [0usize, 1, 2, 3];
        let ctx = ArmContext::new(&poisoned, protocol.params(), 0.2)
            .with_protocol(&protocol)
            .with_reports(&reports)
            .with_targets(&targets);
        assert!(matches!(
            arm(ArmKind::Detection).run(&ctx, &mut rng).unwrap(),
            ArmOutcome::Degenerate { .. }
        ));
        // Missing reports with targets present → a real error.
        let ctx = ArmContext::new(&poisoned, protocol.params(), 0.2)
            .with_protocol(&protocol)
            .with_targets(&targets);
        assert!(arm(ArmKind::Detection).run(&ctx, &mut rng).is_err());
        // Survivors exist → a real estimate, identical to Detection::recover.
        let targets = [0usize];
        let reports = vec![Report::Grr(0), Report::Grr(3), Report::Grr(2)];
        let ctx = ArmContext::new(&poisoned, protocol.params(), 0.2)
            .with_protocol(&protocol)
            .with_reports(&reports)
            .with_targets(&targets);
        let outs = outputs(arm(ArmKind::Detection).run(&ctx, &mut rng).unwrap());
        let direct = crate::detection::Detection::new(targets.to_vec())
            .unwrap()
            .recover(&protocol, &reports)
            .unwrap();
        assert_eq!(outs[0].1.frequencies, direct);
        assert!(outs[0].1.malicious_estimate.is_none());
    }

    #[test]
    fn kmeans_family_emits_requested_outputs_from_one_pass() {
        let domain = Domain::new(12).unwrap();
        let protocol = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(4);
        let mut reports: Vec<Report> = (0..2000)
            .map(|i| protocol.perturb(i % 12, &mut rng))
            .collect();
        for _ in 0..100 {
            reports.push(protocol.perturb(7, &mut rng));
        }
        let poisoned = {
            let mut acc = CountAccumulator::new(domain);
            acc.add_all(&protocol, &reports);
            acc.frequencies(protocol.params()).unwrap()
        };
        let ctx = ArmContext::new(&poisoned, protocol.params(), 0.1)
            .with_protocol(&protocol)
            .with_reports(&reports);
        let defense = KMeansDefense::new(10, 0.3).unwrap();
        let fused = ArmSet::new([ArmKind::Kmeans, ArmKind::RecoverKm]).build(&defense);
        assert_eq!(fused.len(), 1);
        let mut rng_a = rng_from_seed(5);
        let outs = outputs(fused[0].run(&ctx, &mut rng_a).unwrap());
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].0, "kmeans");
        assert_eq!(outs[1].0, "recover_km");
        assert!(is_probability_vector(&outs[1].1.frequencies, 1e-9));
        assert!(!outs[0].1.track_fg && !outs[1].1.track_fg);
        // Same seed, kmeans-only: identical clustering, identical estimate.
        let solo = ArmSet::new([ArmKind::Kmeans]).build(&defense)[0];
        let mut rng_b = rng_from_seed(5);
        let solo_outs = outputs(solo.run(&ctx, &mut rng_b).unwrap());
        assert_eq!(solo_outs.len(), 1);
        assert_eq!(solo_outs[0].1.frequencies, outs[0].1.frequencies);
    }

    #[test]
    fn normalization_arms_match_their_solvers() {
        let params = grr_params(5, 0.5);
        let poisoned = vec![0.6, -0.2, 0.5, 0.3, -0.05];
        let ctx = ArmContext::new(&poisoned, params, 0.2);
        let mut rng = rng_from_seed(6);
        let ns = outputs(arm(ArmKind::NormSub).run(&ctx, &mut rng).unwrap());
        assert_eq!(ns[0].0, "norm_sub");
        assert_eq!(ns[0].1.frequencies, crate::solve::norm_sub(&poisoned));
        let bc = outputs(arm(ArmKind::BaseCut).run(&ctx, &mut rng).unwrap());
        assert_eq!(bc[0].0, "base_cut");
        assert_eq!(bc[0].1.frequencies, crate::solve::base_cut(&poisoned));
        // Non-finite input is a real error, never a silent degrade.
        let bad = vec![f64::NAN; 5];
        let ctx = ArmContext::new(&bad, params, 0.2);
        assert!(arm(ArmKind::NormSub).run(&ctx, &mut rng).is_err());
    }
}
