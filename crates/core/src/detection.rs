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
//!
//! Two things keep the per-report work small. [`Detection::keep_mask`]
//! builds its target test once per target set (a target mask for the
//! unary encodings, the targets' hash lanes for OLH, a lookup for GRR), so
//! each report costs a few word operations rather than `r` support calls.
//! And the survivors' counts are the support counts of every report minus
//! those of the flagged few: the per-user trial already has the former
//! (its poisoned counts), so only the flagged reports are folded again
//! ([`Detection::estimate_from_totals`]).

use ldp_common::{BitVec, LdpError, Result};
use ldp_protocols::{AnyProtocol, CountAccumulator, LdpFrequencyProtocol, OlhLanes, Report};
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
    /// [`LdpError::InvalidParameter`] when the target set is empty or
    /// names an item twice.
    pub fn new(targets: Vec<usize>) -> Result<Self> {
        if targets.is_empty() {
            return Err(LdpError::invalid("Detection requires at least one target"));
        }
        if (1..targets.len()).any(|i| targets[..i].contains(&targets[i])) {
            return Err(LdpError::invalid(format!(
                "Detection targets must be distinct, got {targets:?}"
            )));
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
            AnyProtocol::Unary(_) | AnyProtocol::Olh(_) | AnyProtocol::Hr(_) => r,
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
        let test = TargetTest::new(protocol, &self.targets);
        reports
            .iter()
            .map(|report| test.support(report) < tau)
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
    /// degeneracy) do not re-implement the accumulation. It folds every
    /// report into their support totals, then takes
    /// [`Detection::estimate_from_totals`]'s path; a caller that already
    /// has the totals calls that directly.
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
        let mut totals = vec![0u64; protocol.domain().size()];
        protocol.accumulate_all(reports, &mut totals);
        Self::estimate_from_totals(protocol, reports, mask, &totals)
    }

    /// [`Detection::estimate_from_mask`] given `totals`, the support
    /// counts of every report (the poisoned counts of a per-user trial):
    /// the survivors' counts are `totals` minus the flagged reports'
    /// support, so only the flagged reports are folded.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] when the mask keeps nothing;
    /// [`LdpError::DomainMismatch`] when `totals` is not one count per
    /// item; [`LdpError::InvalidParameter`] when some count of `totals`
    /// is below the flagged reports' support, so `totals` cannot be the
    /// reports' fold.
    ///
    /// # Panics
    /// Panics if the mask and the reports differ in length.
    pub fn estimate_from_totals(
        protocol: &AnyProtocol,
        reports: &[Report],
        mask: &[bool],
        totals: &[u64],
    ) -> Result<Vec<f64>> {
        Self::kept_counts(protocol, reports, mask, totals)?.frequencies(protocol.params())
    }

    /// The support counts of the reports `mask` keeps: `totals` minus the
    /// flagged reports, folded through the protocol's batch kernel (HR's
    /// transform, OLH's hash lanes).
    fn kept_counts(
        protocol: &AnyProtocol,
        reports: &[Report],
        mask: &[bool],
        totals: &[u64],
    ) -> Result<CountAccumulator> {
        assert_eq!(mask.len(), reports.len(), "one keep flag per report");
        let d = protocol.domain().size();
        if totals.len() != d {
            return Err(LdpError::DomainMismatch {
                expected: d,
                got: totals.len(),
                context: "Detection's report totals",
            });
        }
        let mut counts = vec![0u64; d];
        let flagged = reports.iter().zip(mask).filter(|(_, &keep)| !keep);
        protocol.accumulate_reports(flagged.map(|(r, _)| r), &mut counts);
        for (count, &total) in counts.iter_mut().zip(totals) {
            *count = total.checked_sub(*count).ok_or_else(|| {
                LdpError::invalid("report totals below the flagged reports' support")
            })?;
        }
        let kept = mask.iter().filter(|&&keep| keep).count();
        Ok(CountAccumulator::from_parts(counts, kept))
    }

    /// The configured targets.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }
}

/// How many of the targets a report supports, with the per-target work
/// done once: bitwise the count of `r` [`LdpFrequencyProtocol::supports`]
/// calls.
enum TargetTest<'a> {
    /// OUE / SUE: the targets as a mask over the report's bits.
    Unary(BitVec),
    /// OLH: the targets' hash lanes and the residue test.
    Olh(OlhLanes),
    /// GRR: whether each item is a target (the report names one item).
    Grr(Vec<bool>),
    /// HR: one `supports` call per target.
    PerTarget(&'a AnyProtocol, &'a [usize]),
}

impl<'a> TargetTest<'a> {
    /// The test for distinct `targets`.
    ///
    /// # Panics
    /// Panics, as `supports` does, on an OUE or SUE target outside the
    /// domain.
    fn new(protocol: &'a AnyProtocol, targets: &'a [usize]) -> Self {
        let d = protocol.domain().size();
        match protocol {
            AnyProtocol::Unary(_) => TargetTest::Unary(BitVec::mask_of(d, targets)),
            AnyProtocol::Olh(olh) => TargetTest::Olh(olh.lanes(targets.iter().copied())),
            AnyProtocol::Grr(_) => {
                let mut is_target = vec![false; d];
                // A target outside the domain matches no report.
                for &t in targets.iter().filter(|&&t| t < d) {
                    is_target[t] = true;
                }
                TargetTest::Grr(is_target)
            }
            AnyProtocol::Hr(_) => TargetTest::PerTarget(protocol, targets),
        }
    }

    /// The number of targets `report` supports.
    ///
    /// # Panics
    /// Panics on a report of another protocol.
    fn support(&self, report: &Report) -> usize {
        match (self, report) {
            (TargetTest::Unary(mask), Report::Unary(bits)) => bits.intersection_count(mask),
            (TargetTest::Olh(lanes), Report::Olh(olh)) => lanes.support_count(olh),
            (TargetTest::Grr(is_target), Report::Grr(item)) => {
                usize::from(is_target.get(*item as usize) == Some(&true))
            }
            (TargetTest::PerTarget(protocol, targets), _) => targets
                .iter()
                .filter(|&&t| protocol.supports(report, t))
                .count(),
            _ => panic!(
                "report kind {} does not match the target test",
                report.tag()
            ),
        }
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

    /// MGA reports mixed into genuine ones, for each of the five
    /// protocols, and the Detection instance that targets them.
    fn mixed_reports() -> Vec<(AnyProtocol, Detection, Vec<Report>)> {
        use ldp_attacks::Mga;
        let domain = Domain::new(102).unwrap();
        ProtocolKind::EXTENDED
            .into_iter()
            .map(|kind| {
                let proto = kind.build(0.5, domain).unwrap();
                let mut rng = rng_from_seed(21);
                let targets: Vec<usize> = (20..30).collect();
                let det = Detection::new(targets.clone()).unwrap();
                let mut reports: Vec<Report> = (0..1500)
                    .map(|i| proto.perturb(i % 102, &mut rng))
                    .collect();
                reports.extend(Mga::new(targets).craft(&proto, 200, &mut rng));
                (proto, det, reports)
            })
            .collect()
    }

    /// The survivors' counts from the report totals (the totals minus the
    /// flagged reports' batch-kernel fold) against folding each kept
    /// report on its own, for all five protocols, with masks that keep
    /// all, none, or a scattered part; and the estimate through the
    /// totals against the one through the mask alone.
    #[test]
    fn kernel_oracle_detection_fold_matches_the_per_report_fold() {
        for (proto, det, reports) in mixed_reports() {
            let kind = proto.kind();
            let n = reports.len();
            let mut totals = vec![0u64; proto.domain().size()];
            for report in &reports {
                proto.accumulate(report, &mut totals);
            }
            let masks = [
                det.keep_mask(&proto, &reports),
                vec![true; n],
                vec![false; n],
                (0..n).map(|i| i % 7 != 3).collect(),
            ];
            for mask in masks {
                let mut reference = CountAccumulator::new(proto.domain());
                for (report, &keep) in reports.iter().zip(&mask) {
                    if keep {
                        reference.add(&proto, report);
                    }
                }
                assert_eq!(
                    Detection::kept_counts(&proto, &reports, &mask, &totals).unwrap(),
                    reference,
                    "{kind}"
                );
                if mask.iter().any(|&keep| keep) {
                    let through_totals =
                        Detection::estimate_from_totals(&proto, &reports, &mask, &totals).unwrap();
                    let through_mask =
                        Detection::estimate_from_mask(&proto, &reports, &mask).unwrap();
                    let want = reference.frequencies(proto.params()).unwrap();
                    assert_eq!(through_totals, want, "{kind}");
                    assert_eq!(through_mask, want, "{kind}");
                }
            }
            // Totals that cannot be the reports' fold are an error.
            let everything_flagged = vec![false; n];
            let short = vec![0u64; proto.domain().size()];
            assert!(Detection::kept_counts(&proto, &reports, &everything_flagged, &short).is_err());
            assert!(
                Detection::kept_counts(&proto, &reports, &everything_flagged, &[0; 3]).is_err()
            );
        }
    }

    /// `keep_mask`'s once-built target test against `r` support calls per
    /// report, for all five protocols, with the MGA targets and with a
    /// target list in no order that includes the domain's ends.
    #[test]
    fn kernel_oracle_detection_keep_mask_matches_supports() {
        for (proto, det, reports) in mixed_reports() {
            let kind = proto.kind();
            for (i, det) in [det, Detection::new(vec![101, 3, 0, 57, 58]).unwrap()]
                .into_iter()
                .enumerate()
            {
                let tau = det.threshold(&proto);
                let want: Vec<bool> = reports
                    .iter()
                    .map(|r| {
                        det.targets()
                            .iter()
                            .filter(|&&t| proto.supports(r, t))
                            .count()
                            < tau
                    })
                    .collect();
                let got = det.keep_mask(&proto, &reports);
                assert_eq!(got, want, "{kind} targets {:?}", det.targets());
                // The MGA reports are flagged and most genuine ones kept,
                // so both outcomes occur.
                assert!(got.contains(&true), "{kind}");
                assert!(i > 0 || got.contains(&false), "{kind}");
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
        assert!(Detection::new(vec![4, 2, 4]).is_err());
        let det = Detection::new(vec![1]).unwrap();
        assert!(det.clone().with_fpr(0.0).is_err());
        assert!(det.clone().with_fpr(1.0).is_err());
        assert!(det.with_fpr(0.05).is_ok());
    }
}
