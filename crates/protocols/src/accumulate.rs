//! Streaming support-count aggregation.
//!
//! The server side of every pure protocol is the same: accumulate support
//! counts `C(v)` over reports, then debias with the shared estimator. The
//! accumulator is deliberately independent of the protocol value so that
//! one type serves genuine, malicious, and mixed report streams (the
//! pipeline aggregates `X̃`, `Y`, and `Z = X̃ ∪ Y` separately to measure
//! the quantities in the paper's Fig. 7).

use ldp_common::{Domain, Result};

use crate::traits::LdpFrequencyProtocol;

/// Raw support counts plus the number of reports folded in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountAccumulator {
    counts: Vec<u64>,
    reports: usize,
}

impl CountAccumulator {
    /// Creates an empty accumulator over `domain`.
    pub fn new(domain: Domain) -> Self {
        Self {
            counts: vec![0u64; domain.size()],
            reports: 0,
        }
    }

    /// Wraps pre-computed support counts for `reports` reports — the entry
    /// point for the batched aggregation engine
    /// (`LdpFrequencyProtocol::batch_aggregate`), which samples the count
    /// vector without materializing individual reports.
    pub fn from_parts(counts: Vec<u64>, reports: usize) -> Self {
        Self { counts, reports }
    }

    /// Folds one report in.
    pub fn add<P: LdpFrequencyProtocol>(&mut self, protocol: &P, report: &P::Report) {
        protocol.accumulate(report, &mut self.counts);
        self.reports += 1;
    }

    /// Folds a batch of reports in.
    pub fn add_all<'a, P, I>(&mut self, protocol: &P, reports: I)
    where
        P: LdpFrequencyProtocol,
        P::Report: 'a,
        I: IntoIterator<Item = &'a P::Report>,
    {
        for r in reports {
            self.add(protocol, r);
        }
    }

    /// Folds a whole slice of reports in through the protocol's batch
    /// kernel ([`LdpFrequencyProtocol::accumulate_all`]) — bitwise
    /// identical to per-report [`CountAccumulator::add`] calls, but HR
    /// aggregates through one fast Walsh–Hadamard transform and OLH
    /// through per-batch hash lanes.
    pub fn add_batch<P: LdpFrequencyProtocol>(&mut self, protocol: &P, reports: &[P::Report]) {
        protocol.accumulate_all(reports, &mut self.counts);
        self.reports += reports.len();
    }

    /// Clears the accumulator for reuse over `domain`, keeping its
    /// allocation when the size matches (the trial-arena path).
    pub fn reset(&mut self, domain: Domain) {
        self.counts.clear();
        self.counts.resize(domain.size(), 0);
        self.reports = 0;
    }

    /// Merges another accumulator (e.g. genuine + malicious = poisoned).
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn merge(&mut self, other: &CountAccumulator) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge accumulators over different domains"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.reports += other.reports;
    }

    /// Raw support counts `C(v)`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of reports folded in (`N`).
    pub fn report_count(&self) -> usize {
        self.reports
    }

    /// Debiased frequency estimates `f̃(v)` under the given parameters
    /// (paper Eq. (11) divided by `N`).
    ///
    /// # Errors
    /// Propagates shape / emptiness validation from
    /// [`crate::params::PureParams::debias_frequencies`].
    pub fn frequencies(&self, params: crate::params::PureParams) -> Result<Vec<f64>> {
        params.debias_frequencies(&self.counts, self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ProtocolKind;
    use crate::traits::LdpFrequencyProtocol;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;

    #[test]
    fn empty_accumulator_refuses_to_estimate() {
        let domain = Domain::new(5).unwrap();
        let p = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let acc = CountAccumulator::new(domain);
        assert!(acc.frequencies(p.params()).is_err());
    }

    #[test]
    fn merge_equals_joint_accumulation() {
        let domain = Domain::new(8).unwrap();
        let p = ProtocolKind::Oue.build(1.0, domain).unwrap();
        let mut rng = rng_from_seed(1);

        let reports_a: Vec<_> = (0..200).map(|_| p.perturb(1, &mut rng)).collect();
        let reports_b: Vec<_> = (0..300).map(|_| p.perturb(6, &mut rng)).collect();

        let mut joint = CountAccumulator::new(domain);
        joint.add_all(&p, reports_a.iter().chain(&reports_b));

        let mut a = CountAccumulator::new(domain);
        a.add_all(&p, &reports_a);
        let mut b = CountAccumulator::new(domain);
        b.add_all(&p, &reports_b);
        a.merge(&b);

        assert_eq!(a, joint);
        assert_eq!(a.report_count(), 500);
    }

    #[test]
    fn add_batch_matches_per_report_adds_for_every_protocol() {
        // The batch kernel contract: bitwise-identical counts to the
        // per-report loop (HR goes through the FWHT, OLH through its hash
        // lanes; the rest loop).
        let domain = Domain::new(37).unwrap();
        for kind in ProtocolKind::EXTENDED {
            let p = kind.build(0.7, domain).unwrap();
            let mut rng = rng_from_seed(9);
            let reports: Vec<_> = (0..800).map(|i| p.perturb(i % 37, &mut rng)).collect();

            let mut looped = CountAccumulator::new(domain);
            for r in &reports {
                looped.add(&p, r);
            }
            let mut batched = CountAccumulator::new(domain);
            batched.add_batch(&p, &reports);

            assert_eq!(looped, batched, "{kind}");
            assert_eq!(batched.report_count(), 800, "{kind}");
        }
    }

    #[test]
    fn reset_clears_counts_and_reports() {
        let domain = Domain::new(8).unwrap();
        let p = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(2);
        let mut acc = CountAccumulator::new(domain);
        let r = p.perturb(3, &mut rng);
        acc.add(&p, &r);
        assert_eq!(acc.report_count(), 1);

        acc.reset(domain);
        assert_eq!(acc, CountAccumulator::new(domain));

        // Reuse over a different domain reshapes too.
        let wider = Domain::new(12).unwrap();
        acc.reset(wider);
        assert_eq!(acc.counts().len(), 12);
    }

    #[test]
    fn estimates_are_unbiased_for_each_protocol() {
        // 60k users, true distribution (0.5, 0.3, 0.2, 0, …): every
        // protocol must estimate within 6σ of truth.
        let domain = Domain::new(6).unwrap();
        let n = 60_000usize;
        let truth = [0.5, 0.3, 0.2, 0.0, 0.0, 0.0];
        for kind in ProtocolKind::ALL {
            let p = kind.build(1.0, domain).unwrap();
            let mut rng = rng_from_seed(42);
            let mut acc = CountAccumulator::new(domain);
            for i in 0..n {
                let u = i as f64 / n as f64;
                let item = if u < 0.5 {
                    0
                } else if u < 0.8 {
                    1
                } else {
                    2
                };
                let r = p.perturb(item, &mut rng);
                acc.add(&p, &r);
            }
            let est = acc.frequencies(p.params()).unwrap();
            for v in 0..6 {
                let sigma = p.params().variance_frequency(truth[v], n).sqrt();
                assert!(
                    (est[v] - truth[v]).abs() < 6.0 * sigma.max(1e-4),
                    "{kind:?} item {v}: est={}, truth={}",
                    est[v],
                    truth[v]
                );
            }
        }
    }
}
