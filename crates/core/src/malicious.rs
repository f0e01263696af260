//! Step 2 — malicious frequency learning (paper §V-C, §V-D).
//!
//! The server never observes `f̃_Y` directly. Under the adaptive attack
//! model, however, its *sum* is a protocol constant (Eq. 20/21):
//!
//! ```text
//! Σ_v f̃_Y(v) = (1 − q·d)/(p − q)
//! ```
//!
//! because each crafted report bypasses perturbation (supporting exactly the
//! one encoded item) while aggregation still debiases it as if genuine.
//!
//! * **Non-knowledge** (Eq. 26): split `D` into `D₀ = {v : f̃_Z(v) ≤ 0}`
//!   (implausible attack victims) and `D₁ = D \ D₀`; spread the sum
//!   uniformly over `D₁`.
//! * **Partial knowledge** (Eq. 28–30): with the target set `T` known,
//!   assign non-targets `−q·d/(|D′|(p−q))` and split the remainder
//!   uniformly over the targets.
//!
//! [`MaliciousSumModel`] additionally offers a collision-aware OLH variant
//! (an extension beyond the paper; Ablation 1 of `ldp repro --figure
//! ablations` compares it with Eq. 21): OLH clean encodings also support
//! hash-colliding items, making the true sum `(1−q)/(p−q)`.

use ldp_common::{LdpError, Result};
use ldp_protocols::PureParams;
use serde::{Deserialize, Serialize};

/// Which closed form the learning step uses for `Σ_v f̃_Y(v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MaliciousSumModel {
    /// The paper's Eq. (21): `(1 − q·d)/(p − q)`. Exact for GRR and OUE
    /// clean encodings; for OLH it ignores hash collisions.
    #[default]
    Paper,
    /// Collision-aware variant: `(1 − q)/(p − q)`, the exact expectation for
    /// single-item clean encodings whose support set includes each other
    /// item independently with probability `q` (OLH).
    CollisionAware,
}

impl MaliciousSumModel {
    /// Evaluates the malicious frequency sum for the given protocol.
    pub fn sum(self, params: PureParams) -> f64 {
        match self {
            MaliciousSumModel::Paper => params.malicious_frequency_sum(),
            MaliciousSumModel::CollisionAware => (1.0 - params.q()) / (params.p() - params.q()),
        }
    }
}

/// Non-knowledge malicious estimate (Eq. 26): uniform over
/// `D₁ = {v : f̃_Z(v) > 0}`, zero elsewhere.
///
/// Falls back to uniform over the whole domain when every poisoned
/// frequency is non-positive (a degenerate estimate can occur at tiny `n`).
///
/// # Errors
/// [`LdpError::EmptyInput`] when `poisoned` is empty.
pub fn non_knowledge_estimate(poisoned: &[f64], malicious_sum: f64) -> Result<Vec<f64>> {
    non_knowledge_estimate_with_fallback(poisoned, malicious_sum, 0.0)
}

/// [`non_knowledge_estimate`] with a robustness knob (extension beyond the
/// paper): when `|D₁| < min_fraction·d`, spread the sum uniformly over the
/// *whole* domain instead.
///
/// Rationale: Eq. (26)'s "positive poisoned frequency ⇒ plausibly attacked"
/// heuristic inverts for OUE-style encodings, where single-support
/// malicious reports *depress* every frequency; a nearly-empty `D₁` then
/// concentrates an enormous per-item correction on one or two items and
/// recovery degenerates to a near-one-hot vector. The uniform fallback
/// restores the norm-sub shift-invariance and recovers the distribution's
/// shape. `min_fraction = 0` reproduces the paper exactly.
///
/// # Errors
/// [`LdpError::EmptyInput`] when `poisoned` is empty;
/// [`LdpError::InvalidParameter`] when `min_fraction ∉ [0, 1]`.
pub fn non_knowledge_estimate_with_fallback(
    poisoned: &[f64],
    malicious_sum: f64,
    min_fraction: f64,
) -> Result<Vec<f64>> {
    if poisoned.is_empty() {
        return Err(LdpError::EmptyInput("poisoned frequencies"));
    }
    if !(0.0..=1.0).contains(&min_fraction) {
        return Err(LdpError::invalid(format!(
            "d1 fallback fraction must be in [0,1], got {min_fraction}"
        )));
    }
    let d = poisoned.len();
    let d1: Vec<usize> = (0..d).filter(|&v| poisoned[v] > 0.0).collect();
    let mut estimate = vec![0.0; d];
    if d1.is_empty() || (d1.len() as f64) < min_fraction * d as f64 {
        let share = malicious_sum / d as f64;
        estimate.fill(share);
        return Ok(estimate);
    }
    let share = malicious_sum / d1.len() as f64;
    for v in d1 {
        estimate[v] = share;
    }
    Ok(estimate)
}

/// Partial-knowledge malicious estimate (Eq. 30): with target set `T`,
///
/// ```text
/// f̃*_Y(v) = −q·d / (|D′|(p−q))                        for v ∈ D′ = D \ T
/// f̃*_Y(v) = (Σ_D f̃_Y − Σ_{D′} f̃_Y)/|D′′|             for v ∈ D′′ = T
/// ```
///
/// where `Σ_{D′} f̃_Y = −q·d/(p−q)` per Eq. (28). When `T = D` the entire
/// sum is spread uniformly over the targets.
///
/// # Errors
/// [`LdpError::InvalidParameter`] when `targets` is empty or contains
/// out-of-domain / duplicate items.
pub fn partial_knowledge_estimate(
    params: PureParams,
    targets: &[usize],
    malicious_sum: f64,
) -> Result<Vec<f64>> {
    let d = params.d();
    if targets.is_empty() {
        return Err(LdpError::invalid("partial knowledge requires ≥ 1 target"));
    }
    let mut is_target = vec![false; d];
    for &t in targets {
        if t >= d {
            return Err(LdpError::invalid(format!(
                "target {t} outside domain of size {d}"
            )));
        }
        if std::mem::replace(&mut is_target[t], true) {
            return Err(LdpError::invalid(format!("duplicate target {t}")));
        }
    }

    let q = params.q();
    let pq = params.p() - params.q();
    let non_target_count = d - targets.len();
    let mut estimate = vec![0.0; d];
    if non_target_count == 0 {
        let share = malicious_sum / d as f64;
        estimate.fill(share);
        return Ok(estimate);
    }

    // Eq. (28): the (approximate) total malicious mass on non-targets.
    let non_target_sum = -q * d as f64 / pq;
    let non_target_share = non_target_sum / non_target_count as f64;
    // Eq. (29): the remainder lands on the targets.
    let target_share = (malicious_sum - non_target_sum) / targets.len() as f64;
    for (v, slot) in estimate.iter_mut().enumerate() {
        *slot = if is_target[v] {
            target_share
        } else {
            non_target_share
        };
    }
    Ok(estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::Domain;

    fn params(d: usize) -> PureParams {
        // GRR-style at ε = 0.5.
        let e = 0.5f64.exp();
        let denom = d as f64 - 1.0 + e;
        PureParams::new(e / denom, 1.0 / denom, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn sum_models_agree_for_binary_domain() {
        // d = 1 would make them equal; check they differ for large d.
        let pp = params(100);
        let paper = MaliciousSumModel::Paper.sum(pp);
        let aware = MaliciousSumModel::CollisionAware.sum(pp);
        assert!(paper < aware);
        let expect_paper = (1.0 - pp.q() * 100.0) / (pp.p() - pp.q());
        assert!((paper - expect_paper).abs() < 1e-12);
        let expect_aware = (1.0 - pp.q()) / (pp.p() - pp.q());
        assert!((aware - expect_aware).abs() < 1e-12);
    }

    #[test]
    fn non_knowledge_spreads_uniformly_over_positive_items() {
        let poisoned = [0.5, -0.1, 0.3, 0.0, 0.2];
        let est = non_knowledge_estimate(&poisoned, 2.0).unwrap();
        // D1 = {0, 2, 4}: share 2/3 each; D0 = {1, 3}: zero.
        assert!((est[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(est[1], 0.0);
        assert!((est[2] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(est[3], 0.0);
        assert!((est[4] - 2.0 / 3.0).abs() < 1e-12);
        let total: f64 = est.iter().sum();
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_knowledge_handles_all_non_positive() {
        let est = non_knowledge_estimate(&[-0.1, 0.0], 3.0).unwrap();
        assert!((est[0] - 1.5).abs() < 1e-12);
        assert!((est[1] - 1.5).abs() < 1e-12);
        assert!(non_knowledge_estimate(&[], 1.0).is_err());
    }

    #[test]
    fn non_knowledge_preserves_negative_sums() {
        // For OUE the sum constant is very negative; the spread must keep it.
        let poisoned = [0.2, 0.8];
        let est = non_knowledge_estimate(&poisoned, -100.0).unwrap();
        assert!((est.iter().sum::<f64>() + 100.0).abs() < 1e-9);
    }

    #[test]
    fn fallback_triggers_on_small_d1() {
        // Two of five items positive = 40% < 50% threshold ⇒ uniform.
        let poisoned = [0.5, -0.1, 0.3, -0.2, -0.05];
        let est = non_knowledge_estimate_with_fallback(&poisoned, 2.0, 0.5).unwrap();
        assert!(est.iter().all(|&x| (x - 0.4).abs() < 1e-12));
        // 40% ≥ 30% threshold ⇒ paper behaviour.
        let est = non_knowledge_estimate_with_fallback(&poisoned, 2.0, 0.3).unwrap();
        assert_eq!(est[1], 0.0);
        assert!((est[0] - 1.0).abs() < 1e-12);
        // Invalid fraction rejected.
        assert!(non_knowledge_estimate_with_fallback(&poisoned, 2.0, 1.5).is_err());
        assert!(non_knowledge_estimate_with_fallback(&poisoned, 2.0, -0.1).is_err());
    }

    #[test]
    fn partial_knowledge_matches_equation_30() {
        let pp = params(10);
        let sum = MaliciousSumModel::Paper.sum(pp);
        let targets = vec![2usize, 7];
        let est = partial_knowledge_estimate(pp, &targets, sum).unwrap();

        let q = pp.q();
        let pq = pp.p() - pp.q();
        let non_target_each = -q * 10.0 / (8.0 * pq);
        // Eq. (29)/(30): target share = (sum + qd/(p−q))/r = 1/(r(p−q)).
        let target_each = 1.0 / (2.0 * pq);
        for (v, &actual) in est.iter().enumerate() {
            let expect = if targets.contains(&v) {
                target_each
            } else {
                non_target_each
            };
            assert!(
                (actual - expect).abs() < 1e-12,
                "item {v}: est={actual}, expect={expect}"
            );
        }
        // Totals must add back to the learned sum.
        assert!((est.iter().sum::<f64>() - sum).abs() < 1e-9);
    }

    #[test]
    fn partial_knowledge_validates_targets() {
        let pp = params(5);
        assert!(partial_knowledge_estimate(pp, &[], 1.0).is_err());
        assert!(partial_knowledge_estimate(pp, &[5], 1.0).is_err());
        assert!(partial_knowledge_estimate(pp, &[1, 1], 1.0).is_err());
    }

    #[test]
    fn partial_knowledge_all_targets_degenerates_to_uniform() {
        let pp = params(4);
        let est = partial_knowledge_estimate(pp, &[0, 1, 2, 3], 2.0).unwrap();
        assert!(est.iter().all(|&x| (x - 0.5).abs() < 1e-12));
    }
}
