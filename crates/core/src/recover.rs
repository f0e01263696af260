//! The LDPRecover pipeline (paper Algorithm 1).
//!
//! Composes the three steps: malicious frequency learning (Step 2, from
//! the protocol constants alone or from the known target set), the genuine
//! frequency estimator (Step 1), and the constraint-inference refinement
//! (Step 3). [`LdpRecover`] is the configuration object, with one entry
//! point per knowledge scenario of §V-D: [`LdpRecover::recover`] (none)
//! and [`LdpRecover::recover_with_targets`] (the target set, LDPRecover\*).
//! [`RecoveryOutcome`] retains every intermediate artifact the paper's
//! evaluation measures (recovered frequencies for Fig. 3/5/6, malicious
//! estimates for Fig. 7).

use ldp_common::{LdpError, Result};
use ldp_protocols::PureParams;
use serde::{Deserialize, Serialize};

use crate::estimator::{check_eta, genuine_estimate};
use crate::malicious::{partial_knowledge_estimate, MaliciousSumModel};
use crate::solve::PostProcess;

/// Configured frequency-recovery method.
///
/// Defaults follow the paper's evaluation: `η = 0.2`, Eq. (21) malicious
/// sum, norm-sub refinement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdpRecover {
    eta: f64,
    sum_model: MaliciousSumModel,
    post_process: PostProcess,
    /// Minimum `|D₁|/d` before the non-knowledge spread falls back to
    /// uniform-over-D (0 = the paper's exact Eq. 26 behaviour).
    d1_fallback_fraction: f64,
}

/// Everything a recovery run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The recovered frequencies `f′_X` (non-negative, summing to 1 unless
    /// [`PostProcess::None`] was configured).
    pub frequencies: Vec<f64>,
    /// The pre-refinement genuine estimate `f̃_X` (Eq. 27 / Eq. 31).
    pub estimated_genuine: Vec<f64>,
    /// The malicious frequency estimate `f̃′_Y` / `f̃*_Y` used by the
    /// estimator — the quantity Fig. 7 compares against ground truth.
    pub malicious_estimate: Vec<f64>,
    /// The learned sum `Σ_v f̃_Y(v)` (Eq. 21 or the collision-aware form).
    pub malicious_sum: f64,
}

impl LdpRecover {
    /// Creates the recovery method with the assumed malicious/genuine user
    /// ratio `η = m/n` (the paper defaults to 0.2 — deliberately larger
    /// than the true ratio, which the server does not know).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `η` is negative or non-finite.
    pub fn new(eta: f64) -> Result<Self> {
        check_eta(eta)?;
        Ok(Self {
            eta,
            sum_model: MaliciousSumModel::Paper,
            post_process: PostProcess::NormSub,
            d1_fallback_fraction: 0.0,
        })
    }

    /// Overrides the malicious-sum model (ablation; see
    /// [`MaliciousSumModel`]).
    pub fn with_sum_model(mut self, model: MaliciousSumModel) -> Self {
        self.sum_model = model;
        self
    }

    /// Overrides the refinement step (ablation; see [`PostProcess`]).
    pub fn with_post_process(mut self, post: PostProcess) -> Self {
        self.post_process = post;
        self
    }

    /// Enables the `D₁` uniform fallback (extension; see
    /// [`crate::malicious::non_knowledge_estimate_with_fallback`]): when
    /// fewer than `fraction·d` items have positive poisoned frequency, the
    /// malicious sum is spread over the whole domain instead. 0 disables
    /// (the paper's exact behaviour).
    pub fn with_d1_fallback(mut self, fraction: f64) -> Self {
        self.d1_fallback_fraction = fraction;
        self
    }

    /// Supplies an explicit malicious frequency vector instead of learning
    /// one — the hook the k-means integration (LDPRecover-KM, §VII-B) uses.
    ///
    /// # Errors
    /// Propagates estimator validation (length mismatch).
    pub fn recover_with_malicious(
        &self,
        poisoned: &[f64],
        malicious: &[f64],
    ) -> Result<RecoveryOutcome> {
        let estimated_genuine = genuine_estimate(poisoned, malicious, self.eta)?;
        let frequencies = self.post_process.apply(&estimated_genuine)?;
        Ok(RecoveryOutcome {
            frequencies,
            estimated_genuine,
            malicious_estimate: malicious.to_vec(),
            malicious_sum: malicious.iter().sum(),
        })
    }

    /// Runs LDPRecover on the poisoned frequency vector: the non-knowledge
    /// scenario.
    ///
    /// # Errors
    /// * [`LdpError::DomainMismatch`] when `poisoned.len() != d`.
    /// * [`LdpError::EmptyInput`] for an empty input.
    pub fn recover(&self, poisoned: &[f64], params: PureParams) -> Result<RecoveryOutcome> {
        self.recover_inner(poisoned, params, None)
    }

    /// Runs LDPRecover\* on the poisoned frequency vector: the
    /// partial-knowledge scenario, where the attacker-selected items
    /// `targets` are known.
    ///
    /// # Errors
    /// Everything [`LdpRecover::recover`] rejects, plus target validation.
    pub fn recover_with_targets(
        &self,
        poisoned: &[f64],
        params: PureParams,
        targets: &[usize],
    ) -> Result<RecoveryOutcome> {
        self.recover_inner(poisoned, params, Some(targets))
    }

    /// Shared body of the two public entry points.
    fn recover_inner(
        &self,
        poisoned: &[f64],
        params: PureParams,
        targets: Option<&[usize]>,
    ) -> Result<RecoveryOutcome> {
        params
            .domain()
            .check_len(poisoned, "poisoned frequencies")?;
        if poisoned.is_empty() {
            return Err(LdpError::EmptyInput("poisoned frequencies"));
        }
        let malicious_sum = self.sum_model.sum(params);
        let malicious_estimate = match targets {
            None => crate::malicious::non_knowledge_estimate_with_fallback(
                poisoned,
                malicious_sum,
                self.d1_fallback_fraction,
            )?,
            Some(targets) => partial_knowledge_estimate(params, targets, malicious_sum)?,
        };
        let estimated_genuine = genuine_estimate(poisoned, &malicious_estimate, self.eta)?;
        let frequencies = self.post_process.apply(&estimated_genuine)?;
        Ok(RecoveryOutcome {
            frequencies,
            estimated_genuine,
            malicious_estimate,
            malicious_sum,
        })
    }

    /// The assumed ratio `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::vecmath::is_probability_vector;
    use ldp_common::Domain;

    fn grr_params(d: usize, eps: f64) -> PureParams {
        let e = eps.exp();
        let denom = d as f64 - 1.0 + e;
        PureParams::new(e / denom, 1.0 / denom, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn rejects_invalid_eta() {
        assert!(LdpRecover::new(-0.1).is_err());
        assert!(LdpRecover::new(f64::NAN).is_err());
        assert!(LdpRecover::new(0.0).is_ok());
    }

    #[test]
    fn output_is_a_probability_vector() {
        let params = grr_params(6, 0.5);
        let poisoned = vec![0.4, 0.25, 0.2, 0.1, 0.05, -0.02];
        let out = LdpRecover::new(0.2)
            .unwrap()
            .recover(&poisoned, params)
            .unwrap();
        assert!(is_probability_vector(&out.frequencies, 1e-9));
        assert_eq!(out.frequencies.len(), 6);
        assert_eq!(out.malicious_estimate.len(), 6);
        assert!((out.malicious_sum - params.malicious_frequency_sum()).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        let params = grr_params(4, 0.5);
        let rec = LdpRecover::new(0.2).unwrap();
        assert!(rec.recover(&[0.5, 0.5], params).is_err());
    }

    #[test]
    fn eta_zero_reduces_to_plain_post_processing() {
        // With η = 0 the estimator is the identity; recovery is then just
        // Algorithm 1's refinement of the poisoned frequencies.
        let params = grr_params(4, 0.5);
        let poisoned = vec![0.5, 0.3, 0.3, -0.1];
        let out = LdpRecover::new(0.0)
            .unwrap()
            .recover(&poisoned, params)
            .unwrap();
        let direct = crate::solve::norm_sub(&poisoned);
        for (a, b) in out.frequencies.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_knowledge_uses_target_model() {
        let params = grr_params(10, 0.5);
        let poisoned = vec![0.08; 10];
        let recover = LdpRecover::new(0.2).unwrap();
        let out = recover
            .recover_with_targets(&poisoned, params, &[1, 4])
            .unwrap();
        // Targets carry the positive malicious share, so their recovered
        // frequencies must be *reduced* relative to non-targets.
        assert!(out.frequencies[1] < out.frequencies[0]);
        assert!(out.frequencies[4] < out.frequencies[0]);
        assert!(matches!(out.malicious_estimate[1], x if x > 0.0));
        assert!(matches!(out.malicious_estimate[0], x if x < 0.0));
        // Target validation applies.
        assert!(recover
            .recover_with_targets(&poisoned, params, &[99])
            .is_err());
    }

    #[test]
    fn recover_with_malicious_uses_supplied_vector() {
        let poisoned = vec![0.5, 0.5];
        let malicious = vec![1.0, 0.0];
        let out = LdpRecover::new(0.5)
            .unwrap()
            .recover_with_malicious(&poisoned, &malicious)
            .unwrap();
        // Estimator: 1.5·0.5 − 0.5·1 = 0.25 and 1.5·0.5 − 0 = 0.75.
        assert!((out.estimated_genuine[0] - 0.25).abs() < 1e-12);
        assert!((out.estimated_genuine[1] - 0.75).abs() < 1e-12);
        assert!(is_probability_vector(&out.frequencies, 1e-9));
    }

    #[test]
    fn recovery_reduces_error_in_a_synthetic_poisoning() {
        // End-to-end sanity in expectation space (no sampling noise):
        // true genuine f_X, malicious mass concentrated on one item, the
        // paper's mixture (Eq. 14), then recovery. MSE after must beat
        // MSE before.
        let d = 20usize;
        let params = grr_params(d, 0.5);
        let mut f_x = vec![1.0 / d as f64; d];
        f_x[0] = 0.3;
        ldp_common::vecmath::normalize_to_simplex_sum(&mut f_x);

        // Malicious: all reports encode item 7 → f̃_Y(7) = (1−q)/(p−q)…
        // in the paper's single-support model: (1 − q)/(p−q) at 7 and
        // −q/(p−q) elsewhere.
        let q = params.q();
        let pq = params.p() - params.q();
        let mut f_y = vec![-q / pq; d];
        f_y[7] = (1.0 - q) / pq;

        let beta = 0.05;
        let eta_true: f64 = beta / (1.0 - beta);
        let poisoned: Vec<f64> = f_x
            .iter()
            .zip(&f_y)
            .map(|(&x, &y)| (x + eta_true * y) / (1.0 + eta_true))
            .collect();

        let out = LdpRecover::new(0.2)
            .unwrap()
            .recover(&poisoned, params)
            .unwrap();
        let mse_before = ldp_common::vecmath::mse(&poisoned, &f_x);
        let mse_after = ldp_common::vecmath::mse(&out.frequencies, &f_x);
        assert!(
            mse_after < mse_before,
            "after={mse_after}, before={mse_before}"
        );
    }
}
