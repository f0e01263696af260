//! Optimized Local Hashing (paper §III-B, Eq. (8)–(10)).
//!
//! Each user samples a hash function `H` from the seeded xxhash64 family
//! (identified by its 64-bit seed), hashes her item into the small range
//! `{0, …, g−1}` with `g = ⌈e^ε + 1⌉`, perturbs the hashed value with GRR
//! over that range, and reports the pair `(H, value)`. A report supports all
//! items hashing to `value` under `H`, so the support probabilities are
//! `p = e^ε/(e^ε + g − 1)` (true item) and `q = 1/g` (any other item —
//! uniform hashing).

use ldp_common::hash::{
    xxh64_item_lane, xxh64_seed_finish, xxh64_u64, OlhHash, Residue, ResidueTest,
};
use ldp_common::rng::{uniform_index, FastBernoulli};
use ldp_common::{Domain, LdpError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// One OLH report: the sampled hash function (by seed) and the perturbed
/// hashed value in `{0, …, g−1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OlhReport {
    /// Seed identifying the hash-family member the user sampled.
    pub seed: u64,
    /// The (perturbed) hashed value.
    pub value: u32,
}

/// The OLH protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct Olh {
    domain: Domain,
    epsilon: f64,
    g: u32,
    params: PureParams,
    keep_true: FastBernoulli,
    /// `hash mod g == value` without a division, for the support scans.
    residue_test: ResidueTest,
}

impl Olh {
    /// Builds OLH with the paper's default range `g = ⌈e^ε + 1⌉`.
    ///
    /// # Errors
    /// Propagates ε validation failures.
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let g = (epsilon.exp() + 1.0).ceil() as u32;
        Self::with_range(epsilon, domain, g.max(2))
    }

    /// Builds OLH with an explicit hash range `g ≥ 2` (for ablations).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `g < 2`; otherwise propagates ε /
    /// probability validation failures.
    pub fn with_range(epsilon: f64, domain: Domain, g: u32) -> Result<Self> {
        check_epsilon(epsilon)?;
        if g < 2 {
            return Err(LdpError::invalid(format!(
                "OLH range g must be ≥ 2, got {g}"
            )));
        }
        let e_eps = epsilon.exp();
        // Support probabilities: the true item is supported iff the hashed
        // value survives GRR-over-[g] (prob p); any other item collides with
        // the reported value with probability 1/g by hash uniformity.
        let p = e_eps / (e_eps + f64::from(g) - 1.0);
        let q = 1.0 / f64::from(g);
        let params = PureParams::new(p, q, domain)?;
        Ok(Self {
            domain,
            epsilon,
            g,
            params,
            keep_true: FastBernoulli::new(p),
            residue_test: ResidueTest::new(g),
        })
    }

    /// The hash range `g`.
    #[inline]
    pub fn range(&self) -> u32 {
        self.g
    }

    /// The hash-family member identified by `seed`.
    #[inline]
    pub fn hasher(&self, seed: u64) -> OlhHash {
        OlhHash::new(seed, self.g)
    }

    /// Adds the support counts of a batch of reports: the item half of
    /// every hash ([`xxh64_item_lane`]) is computed once for the batch,
    /// so each report pays only the seed half and a multiply-and-compare
    /// residue test per item. Bitwise identical to looping
    /// [`LdpFrequencyProtocol::accumulate`]; a report whose value is not
    /// below `g` supports nothing.
    ///
    /// # Panics
    /// Panics if `counts.len() != d`.
    pub(crate) fn accumulate_reports<I>(&self, reports: I, counts: &mut [u64])
    where
        I: IntoIterator<Item = OlhReport>,
    {
        assert_eq!(counts.len(), self.domain.size());
        let lanes = self.lanes(0..counts.len()).lanes;
        let mut reports = reports
            .into_iter()
            .filter_map(|r| Some((r.seed, self.residue_test.residue(r.value)?)));
        // Two reports per pass share each lane load and count update.
        while let Some(a) = reports.next() {
            match reports.next() {
                Some(b) => self.scan_lanes(&lanes, [a, b], counts),
                None => self.scan_lanes(&lanes, [a], counts),
            }
        }
    }

    /// The item lanes of `items`, in order, with this protocol's residue
    /// test: what deciding many reports' supports of the same items needs,
    /// computed once.
    pub fn lanes(&self, items: impl IntoIterator<Item = usize>) -> OlhLanes {
        OlhLanes {
            lanes: items
                .into_iter()
                .map(|v| xxh64_item_lane(v as u64))
                .collect(),
            residue_test: self.residue_test,
        }
    }

    /// Adds the supports of `N` `(seed, residue)` reports over the item
    /// lanes. Kept out of line so that the scan's registers do not depend
    /// on the iterator that feeds it.
    #[inline(never)]
    fn scan_lanes<const N: usize>(
        &self,
        lanes: &[u64],
        reports: [(u64, Residue); N],
        counts: &mut [u64],
    ) {
        for (c, &lane) in counts.iter_mut().zip(lanes) {
            for &(seed, residue) in &reports {
                let h = xxh64_seed_finish(seed, lane);
                *c += u64::from(self.residue_test.matches(h, residue));
            }
        }
    }
}

/// The item half of the hash ([`xxh64_item_lane`]) of a fixed list of
/// items, with the residue test, made by [`Olh::lanes`]: a report's
/// support of lane `i` is the seed half and one multiply-and-compare,
/// bitwise what [`LdpFrequencyProtocol::supports`] decides for item `i`.
#[derive(Debug, Clone)]
pub struct OlhLanes {
    lanes: Vec<u64>,
    residue_test: ResidueTest,
}

impl OlhLanes {
    /// Writes 1 into `row[i]` if `report` supports lane `i`'s item and 0
    /// otherwise, one byte per lane.
    ///
    /// # Panics
    /// Panics if `row` and the lanes differ in length.
    pub fn support_row(&self, report: &OlhReport, row: &mut [u8]) {
        assert_eq!(row.len(), self.lanes.len(), "one byte per lane");
        let Some(residue) = self.residue_test.residue(report.value) else {
            row.fill(0); // no hash reduces to a value ≥ g
            return;
        };
        for (b, &lane) in row.iter_mut().zip(&self.lanes) {
            let h = xxh64_seed_finish(report.seed, lane);
            *b = u8::from(self.residue_test.matches(h, residue));
        }
    }

    /// The number of lanes whose item `report` supports.
    pub fn support_count(&self, report: &OlhReport) -> usize {
        let Some(residue) = self.residue_test.residue(report.value) else {
            return 0;
        };
        self.lanes
            .iter()
            .filter(|&&lane| {
                self.residue_test
                    .matches(xxh64_seed_finish(report.seed, lane), residue)
            })
            .count()
    }
}

impl LdpFrequencyProtocol for Olh {
    type Report = OlhReport;

    fn name(&self) -> &'static str {
        "OLH"
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn params(&self) -> PureParams {
        self.params
    }

    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> OlhReport {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let seed: u64 = rng.gen();
        let hashed = self.hasher(seed).hash(item);
        // GRR over {0, …, g−1}: keep with probability p, else uniform other.
        let value = if self.keep_true.sample(rng) {
            hashed
        } else {
            let r = uniform_index(rng, self.g as usize - 1) as u32;
            if r >= hashed {
                r + 1
            } else {
                r
            }
        };
        OlhReport { seed, value }
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> OlhReport {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let seed: u64 = rng.gen();
        OlhReport {
            seed,
            value: self.hasher(seed).hash(item),
        }
    }

    #[inline]
    fn supports(&self, report: &OlhReport, v: usize) -> bool {
        self.hasher(report.seed).hash(v) == report.value
    }

    fn accumulate(&self, report: &OlhReport, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.domain.size());
        let Some(residue) = self.residue_test.residue(report.value) else {
            return; // no hash reduces to a value ≥ g
        };
        for (v, c) in counts.iter_mut().enumerate() {
            // O(d) hash evaluations per report — n·d total on the per-user
            // path (the batched λ-split sampler avoids them entirely). A
            // hit has probability 1/g, so adding the residue test as 0/1
            // beats a branch the predictor misses.
            let h = xxh64_u64(v as u64, report.seed);
            *c += u64::from(self.residue_test.matches(h, residue));
        }
    }

    fn accumulate_all(&self, reports: &[OlhReport], counts: &mut [u64]) {
        self.accumulate_reports(reports.iter().copied(), counts);
    }

    fn batch_aggregate<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Option<Vec<u64>> {
        // Closed-form since the λ-split sampler (`crate::batch`): two
        // binomials per item, no per-user loop.
        Some(self.batch_support_counts(item_counts, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    fn olh(eps: f64, d: usize) -> Olh {
        Olh::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn default_range_matches_paper() {
        // ε = 0.5 ⇒ g = ⌈e^0.5 + 1⌉ = ⌈2.6487⌉ = 3.
        assert_eq!(olh(0.5, 100).range(), 3);
        // ε = 1.6 ⇒ g = ⌈e^1.6 + 1⌉ = ⌈5.953⌉ = 6.
        assert_eq!(olh(1.6, 100).range(), 6);
        // Tiny ε still keeps g ≥ 2.
        assert!(olh(0.01, 100).range() >= 2);
    }

    #[test]
    fn explicit_range_validation() {
        let d = Domain::new(10).unwrap();
        assert!(Olh::with_range(0.5, d, 1).is_err());
        assert!(Olh::with_range(0.5, d, 8).is_ok());
    }

    #[test]
    fn support_probabilities() {
        let o = olh(0.5, 64);
        let e = 0.5f64.exp();
        let g = 3.0;
        assert!((o.params().p() - e / (e + g - 1.0)).abs() < 1e-15);
        assert!((o.params().q() - 1.0 / g).abs() < 1e-15);
    }

    #[test]
    fn perturbed_report_supports_true_item_with_probability_p() {
        let o = olh(0.5, 32);
        let mut rng = rng_from_seed(1);
        let n = 120_000;
        let hits = (0..n)
            .filter(|_| {
                let r = o.perturb(13, &mut rng);
                o.supports(&r, 13)
            })
            .count();
        let rate = hits as f64 / n as f64;
        let p = o.params().p();
        let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
        assert!((rate - p).abs() < tol, "rate={rate}, p={p}");
    }

    #[test]
    fn perturbed_report_supports_other_items_with_probability_q() {
        let o = olh(0.5, 32);
        let mut rng = rng_from_seed(2);
        let n = 120_000;
        let hits = (0..n)
            .filter(|_| {
                let r = o.perturb(13, &mut rng);
                o.supports(&r, 14)
            })
            .count();
        let rate = hits as f64 / n as f64;
        let q = o.params().q();
        let tol = 5.0 * (q * (1.0 - q) / n as f64).sqrt();
        assert!((rate - q).abs() < tol, "rate={rate}, q={q}");
    }

    #[test]
    fn clean_encoding_always_supports_its_item() {
        let o = olh(0.5, 100);
        let mut rng = rng_from_seed(3);
        for item in [0usize, 17, 99] {
            let r = o.encode_clean(item, &mut rng);
            assert!(o.supports(&r, item));
        }
    }

    /// The per-report scan the residue test replaced: the full hash
    /// reduced with `%` and compared with the value.
    fn accumulate_by_division(olh: &Olh, report: &OlhReport, counts: &mut [u64]) {
        let hasher = olh.hasher(report.seed);
        for (v, c) in counts.iter_mut().enumerate() {
            *c += u64::from(hasher.hash(v) == report.value);
        }
    }

    /// Per-report `accumulate` and the batch lane kernel against the `% g`
    /// loop and against per-item `supports`: several g, domains on and off
    /// a word, random seeds, every value below g and values at and past
    /// it (which support nothing).
    #[test]
    fn kernel_oracle_olh_support_scan() {
        for g in [2u32, 3, 4, 6, 7, 64, 1000] {
            for d in [1usize, 2, 65, 102, 490] {
                let olh = Olh::with_range(0.5, Domain::new(d).unwrap(), g).unwrap();
                let mut rng = rng_from_seed(u64::from(g) * 7919 + d as u64);
                let mut reports: Vec<OlhReport> = (0..200)
                    .map(|_| OlhReport {
                        seed: rng.gen(),
                        value: uniform_index(&mut rng, g as usize) as u32,
                    })
                    .collect();
                for value in [g - 1, g, g + 1, u32::MAX] {
                    reports.push(OlhReport {
                        seed: rng.gen(),
                        value,
                    });
                }
                // Reports supporting a known item, so hits are not all chance.
                for item in [0, d - 1, d / 2] {
                    reports.push(olh.encode_clean(item, &mut rng));
                }

                let mut divided = vec![0u64; d];
                let mut per_report = vec![0u64; d];
                let lanes = olh.lanes(0..d);
                // A lane list in no order, with a repeat.
                let picked = [d - 1, 0, d / 2, d - 1];
                let picked_lanes = olh.lanes(picked);
                for r in &reports {
                    let mut single = vec![0u64; d];
                    olh.accumulate(r, &mut single);
                    let supported: Vec<u64> =
                        (0..d).map(|v| u64::from(olh.supports(r, v))).collect();
                    assert_eq!(single, supported, "g={g} d={d} report={r:?}");
                    let mut row = vec![7u8; d];
                    lanes.support_row(r, &mut row);
                    assert!(
                        row.iter()
                            .map(|&b| u64::from(b))
                            .eq(supported.iter().copied()),
                        "g={g} d={d} report={r:?}"
                    );
                    assert_eq!(
                        picked_lanes.support_count(r),
                        picked.iter().filter(|&&v| olh.supports(r, v)).count(),
                        "g={g} d={d} report={r:?}"
                    );
                    if r.value >= g {
                        assert!(single.iter().all(|&c| c == 0), "g={g} report={r:?}");
                    }
                    olh.accumulate(r, &mut per_report);
                    accumulate_by_division(&olh, r, &mut divided);
                }
                assert_eq!(per_report, divided, "g={g} d={d}");
                let mut batched = vec![0u64; d];
                olh.accumulate_all(&reports, &mut batched);
                assert_eq!(batched, divided, "g={g} d={d}");
                // Batches of every parity: the scan takes reports in pairs.
                for len in [0, 1, 2, 3, 200, 201] {
                    let mut prefix = vec![0u64; d];
                    olh.accumulate_all(&reports[..len], &mut prefix);
                    let mut want = vec![0u64; d];
                    for r in &reports[..len] {
                        accumulate_by_division(&olh, r, &mut want);
                    }
                    assert_eq!(prefix, want, "g={g} d={d} len={len}");
                }
                let any = crate::report::AnyProtocol::Olh(olh);
                let wrapped: Vec<crate::Report> =
                    reports.iter().map(|&r| crate::Report::Olh(r)).collect();
                let mut dispatched = vec![0u64; d];
                any.accumulate_all(&wrapped, &mut dispatched);
                assert_eq!(dispatched, divided, "g={g} d={d}");
            }
        }
    }

    #[test]
    fn accumulate_matches_supports() {
        let o = olh(0.5, 40);
        let mut rng = rng_from_seed(4);
        let r = o.perturb(7, &mut rng);
        let mut counts = vec![0u64; 40];
        o.accumulate(&r, &mut counts);
        for (v, &count) in counts.iter().enumerate() {
            assert_eq!(count == 1, o.supports(&r, v), "item {v}");
        }
        // Roughly d/g items should be supported.
        let total: u64 = counts.iter().sum();
        assert!(total > 0 && total < 40);
    }
}
