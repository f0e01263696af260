//! The Detection baseline (paper §VI-A.5).
//!
//! Adapted from the countermeasures of Cao et al.: given the (partial
//! knowledge) target set, the server removes every report whose support of
//! the targets is statistically implausible for a genuine user, then
//! re-estimates frequencies from the survivors. The paper's one-line
//! description — "identifies users as malicious if their reported data
//! matches the target items" — is made precise per protocol:
//!
//! * A genuine report supports each target independently with probability
//!   at most `q` (non-holders) or `p` (the single held item), so the number
//!   of *targets* supported is stochastically dominated by
//!   `1 + Binomial(r−1, q)`-ish mass. We flag a report when its target
//!   support count reaches the smallest threshold `τ` with
//!   `P[Binomial(r, q) ≥ τ] ≤ fpr` (default 1%).
//! * For GRR (`r` targets, single-item support) this reduces to `τ = 1`:
//!   any report naming a target is removed — exactly the indiscriminate
//!   behaviour the paper criticizes ("genuine users with the target items
//!   are incorrectly removed").
//! * For OUE, precise-MGA reports support all `r` targets and are caught
//!   with certainty once `τ ≤ r`; for OLH the seed-searched reports support
//!   most targets and overwhelmingly exceed `τ`.

use ldp_common::{LdpError, Result};
use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, Report};
use serde::{Deserialize, Serialize};

/// Detection baseline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    targets: Vec<usize>,
    /// Acceptable false-positive rate for genuine reports.
    fpr: f64,
}

impl Detection {
    /// Creates the baseline for a known target set (default 1% FPR budget).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the target set is empty.
    pub fn new(targets: Vec<usize>) -> Result<Self> {
        if targets.is_empty() {
            return Err(LdpError::invalid("Detection requires at least one target"));
        }
        Ok(Self { targets, fpr: 0.01 })
    }

    /// Overrides the false-positive-rate budget (must lie in (0, 1)).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for out-of-range budgets.
    pub fn with_fpr(mut self, fpr: f64) -> Result<Self> {
        if !(fpr > 0.0 && fpr < 1.0) {
            return Err(LdpError::invalid(format!(
                "fpr must be in (0,1), got {fpr}"
            )));
        }
        self.fpr = fpr;
        Ok(self)
    }

    /// The support-count threshold `τ`: smallest `τ ≥ 1` such that a
    /// genuine non-holder (target support ~ Binomial(r, q)) is flagged with
    /// probability ≤ `fpr` — capped at the maximum target support a single
    /// report can physically provide (1 for GRR, whose reports name one
    /// item; `r` for the vector/hash encodings). The GRR cap recovers the
    /// paper's literal rule: remove any report matching a target item.
    pub fn threshold(&self, protocol: &AnyProtocol) -> usize {
        let r = self.targets.len();
        let q = protocol.params().q();
        let max_support = match protocol {
            AnyProtocol::Grr(_) => 1,
            AnyProtocol::Oue(_)
            | AnyProtocol::Olh(_)
            | AnyProtocol::Sue(_)
            | AnyProtocol::Hr(_) => r,
        };
        // Walk the binomial upper tail until it dips below the budget.
        let mut tau = r + 1; // sentinel: nothing flagged
        for t in (1..=r).rev() {
            if binomial_upper_tail(r, q, t) <= self.fpr {
                tau = t;
            } else {
                break;
            }
        }
        tau.min(max_support)
    }

    /// Keep-mask over reports: `false` means flagged as malicious.
    pub fn keep_mask(&self, protocol: &AnyProtocol, reports: &[Report]) -> Vec<bool> {
        let tau = self.threshold(protocol);
        reports
            .iter()
            .map(|report| {
                let support = self
                    .targets
                    .iter()
                    .filter(|&&t| protocol.supports(report, t))
                    .count();
                support < tau
            })
            .collect()
    }

    /// Removes flagged reports and re-estimates frequencies from the rest.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] when every report is flagged (degenerate
    /// small-sample case).
    pub fn recover(&self, protocol: &AnyProtocol, reports: &[Report]) -> Result<Vec<f64>> {
        let mask = self.keep_mask(protocol, reports);
        Self::estimate_from_mask(protocol, reports, &mask)
    }

    /// Re-estimates frequencies from the reports a keep-mask retains —
    /// the shared back half of [`Detection::recover`], exposed so callers
    /// that inspect the mask first (e.g. to classify the all-flagged
    /// degeneracy) do not re-implement the accumulation.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] when the mask keeps nothing.
    ///
    /// # Panics
    /// Panics if the mask and the reports differ in length.
    pub fn estimate_from_mask(
        protocol: &AnyProtocol,
        reports: &[Report],
        mask: &[bool],
    ) -> Result<Vec<f64>> {
        Self::fold_kept(protocol, reports, mask).frequencies(protocol.params())
    }

    /// The support counts of the reports `mask` keeps, folded through the
    /// protocol's batch kernel (HR's transform, OLH's hash lanes).
    fn fold_kept(
        protocol: &AnyProtocol,
        reports: &[Report],
        mask: &[bool],
    ) -> ldp_protocols::CountAccumulator {
        assert_eq!(mask.len(), reports.len(), "one keep flag per report");
        let mut counts = vec![0u64; protocol.domain().size()];
        let kept = reports.iter().zip(mask).filter(|(_, &keep)| keep);
        protocol.accumulate_reports(kept.clone().map(|(r, _)| r), &mut counts);
        ldp_protocols::CountAccumulator::from_parts(counts, kept.count())
    }

    /// The configured targets.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }
}

/// Exact binomial upper tail `P[Binomial(n, p) ≥ k]`, computed by direct
/// summation (the `n ≤ r` here is tiny).
fn binomial_upper_tail(n: usize, p: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let mut tail = 0.0f64;
    // pmf(i) computed iteratively: pmf(0) = (1-p)^n,
    // pmf(i+1) = pmf(i) · (n-i)/(i+1) · p/(1-p).
    let mut pmf = (1.0 - p).powi(n as i32);
    if p >= 1.0 {
        return 1.0; // all mass at n ≥ k
    }
    let ratio = p / (1.0 - p);
    for i in 0..=n {
        if i >= k {
            tail += pmf;
        }
        if i < n {
            pmf *= (n - i) as f64 / (i + 1) as f64 * ratio;
        }
    }
    tail.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;
    use ldp_protocols::ProtocolKind;

    #[test]
    fn binomial_tail_exact_small_cases() {
        // Binomial(2, 0.5): P[≥1] = 0.75, P[≥2] = 0.25.
        assert!((binomial_upper_tail(2, 0.5, 1) - 0.75).abs() < 1e-12);
        assert!((binomial_upper_tail(2, 0.5, 2) - 0.25).abs() < 1e-12);
        assert_eq!(binomial_upper_tail(2, 0.5, 0), 1.0);
        assert_eq!(binomial_upper_tail(2, 0.5, 3), 0.0);
    }

    #[test]
    fn grr_threshold_is_one() {
        // GRR: q = 1/(d−1+e^ε) is small, so even one supported target is
        // already implausible at the 1% level for moderate d.
        let domain = Domain::new(102).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let det = Detection::new((0..10).collect()).unwrap();
        assert_eq!(det.threshold(&proto), 1);
    }

    #[test]
    fn oue_threshold_is_moderate() {
        // OUE at ε = 0.5: q ≈ 0.378; Binomial(10, .378) rarely reaches 9.
        let domain = Domain::new(490).unwrap();
        let proto = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let det = Detection::new((0..10).collect()).unwrap();
        let tau = det.threshold(&proto);
        assert!((7..=10).contains(&tau), "tau={tau}");
    }

    #[test]
    fn flags_precise_mga_reports_and_keeps_most_genuine() {
        use ldp_attacks::Mga;
        let domain = Domain::new(102).unwrap();
        let mut rng = rng_from_seed(1);
        for kind in ProtocolKind::ALL {
            let proto = kind.build(0.5, domain).unwrap();
            let targets: Vec<usize> = (20..30).collect();
            let det = Detection::new(targets.clone()).unwrap();

            let malicious = Mga::new(targets.clone()).craft(&proto, 400, &mut rng);
            let genuine: Vec<Report> = (0..2000)
                .map(|i| proto.perturb(i % 102, &mut rng))
                .collect();

            let mal_kept = det
                .keep_mask(&proto, &malicious)
                .iter()
                .filter(|&&k| k)
                .count();
            let gen_kept = det
                .keep_mask(&proto, &genuine)
                .iter()
                .filter(|&&k| k)
                .count();
            // GRR: every crafted report names a target → all flagged.
            // OUE: crafted reports support all targets → all flagged.
            // OLH: the seed search often tops out below the binomial
            // threshold, so detection is leaky there (consistent with the
            // paper's finding that Detection underperforms LDPRecover).
            let mal_budget = match kind {
                ProtocolKind::Olh => 0.85,
                _ => 0.05,
            };
            assert!(
                (mal_kept as f64) < mal_budget * 400.0,
                "{kind:?}: kept {mal_kept}/400 malicious"
            );
            // Genuine survivors: the GRR rule also strips genuine reports
            // landing on targets (~10·q + holders), but the bulk survives.
            assert!(
                (gen_kept as f64) > 0.7 * 2000.0,
                "{kind:?}: kept {gen_kept}/2000 genuine"
            );
        }
    }

    /// The batch-kernel fold of the kept reports against folding each kept
    /// report on its own, for all five protocols, with MGA reports mixed
    /// into genuine ones and masks that keep all, none, or a scattered part.
    #[test]
    fn kernel_oracle_detection_fold_matches_the_per_report_fold() {
        use ldp_attacks::Mga;
        let domain = Domain::new(102).unwrap();
        for kind in ProtocolKind::EXTENDED {
            let proto = kind.build(0.5, domain).unwrap();
            let mut rng = rng_from_seed(21);
            let targets: Vec<usize> = (20..30).collect();
            let det = Detection::new(targets.clone()).unwrap();
            let mut reports: Vec<Report> = (0..1500)
                .map(|i| proto.perturb(i % 102, &mut rng))
                .collect();
            reports.extend(Mga::new(targets).craft(&proto, 200, &mut rng));
            let n = reports.len();
            let masks = [
                det.keep_mask(&proto, &reports),
                vec![true; n],
                vec![false; n],
                (0..n).map(|i| i % 7 != 3).collect(),
            ];
            for mask in masks {
                let mut reference = ldp_protocols::CountAccumulator::new(domain);
                for (report, &keep) in reports.iter().zip(&mask) {
                    if keep {
                        reference.add(&proto, report);
                    }
                }
                assert_eq!(
                    Detection::fold_kept(&proto, &reports, &mask),
                    reference,
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn recover_errors_when_everything_flagged() {
        let domain = Domain::new(4).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let det = Detection::new(vec![0, 1, 2, 3]).unwrap();
        // All reports name targets (the entire domain is targeted).
        let reports = vec![Report::Grr(0), Report::Grr(3)];
        assert!(det.recover(&proto, &reports).is_err());
    }

    #[test]
    fn validation() {
        assert!(Detection::new(vec![]).is_err());
        let det = Detection::new(vec![1]).unwrap();
        assert!(det.clone().with_fpr(0.0).is_err());
        assert!(det.clone().with_fpr(1.0).is_err());
        assert!(det.with_fpr(0.05).is_ok());
    }
}
