//! Count-based batched aggregation: sample aggregate support counts
//! directly instead of simulating users one report at a time.
//!
//! For a pure protocol, the support-count vector of `n` genuine users is a
//! sum of `n` independent draws whose law depends only on each user's true
//! item. Grouping users by item therefore lets the server-side counts be
//! sampled *exactly* — same joint distribution as the per-user loop — in
//! `O(d)`–`O(d·log n)` work instead of `O(n·d)`:
//!
//! * **GRR** — the perturbation kernel is the mixture
//!   `λ·δ_v + (1−λ)·Uniform(D)` with `λ = 1 − q·d` (check:
//!   `λ + (1−λ)/d = p` and `(1−λ)/d = q`). One binomial per occupied item
//!   splits keep-vs-uniform, and all uniform draws pool into a **single**
//!   d-outcome multinomial.
//! * **OUE / SUE** — bits are independent across users *and* columns, so
//!   each column's count is `Binomial(c_v, p) + Binomial(n − c_v, q)`:
//!   two binomials per column.
//! * **HR** — a report is a Hadamard column drawn from the mixture
//!   `(2p−1)·Uniform(positives of row_v) + (2−2p)·Uniform(all K columns)`
//!   (valid since `p > ½`). Per occupied item one binomial plus a
//!   multinomial over that row's `K/2` positive columns; the uniform part
//!   pools into a single K-outcome multinomial. Support counts then read
//!   off the column histogram.
//! * **OLH** — GRR over the hashed range `[g]` is the mixture
//!   `λ·δ_{h(v)} + (1−λ)·Uniform(g)` with `λ = (p·g − 1)/(g − 1)` (check:
//!   `λ + (1−λ)/g = p` and `(1−λ)/g = (1−p)/(g−1)`, i.e. exactly
//!   GRR-over-`[g]`). Under hash uniformity an item `w` is supported by a
//!   λ-branch report of a `w`-holder always, and by any other report with
//!   probability `1/g`, so per item two binomials suffice:
//!   `C(w) = k_w + Binomial(n − k_w, 1/g)` with `k_w ~ Binomial(c_w, λ)` —
//!   `O(d)` total, no per-user loop. Per-item marginals (mean *and*
//!   variance) match the per-user path exactly; only the within-report
//!   cross-item hash-collision correlation is idealized away (see
//!   `Olh::batch_support_counts`).
//!
//! Batched sampling consumes different RNG draws than the per-user loop,
//! so a batched trial is statistically — not bitwise — equivalent to a
//! per-user trial at the same seed. Each mode is individually
//! deterministic: same seed, same counts.

use ldp_common::kernels::{fwht_i64, positive_columns_into};
use ldp_common::sampling::{add_multinomial_uniform, sample_binomial};
use rand::Rng;

use crate::grr::Grr;
use crate::hadamard::HadamardResponse;
use crate::olh::Olh;
use crate::report::AnyProtocol;
use crate::traits::LdpFrequencyProtocol;
use crate::unary::UnaryEncoding;

/// Reusable scratch for [`HadamardResponse::batch_support_counts_with`]:
/// the `K`-column histogram, the positive-column and split buffers of the
/// per-item mixture, and the FWHT workspace. One instance per worker
/// amortizes all four allocations across an experiment's trials.
#[derive(Debug, Default, Clone)]
pub struct HrScratch {
    col_counts: Vec<u64>,
    positives: Vec<u32>,
    split: Vec<u64>,
    fwht: Vec<i64>,
}

/// Per-worker scratch reused across batched aggregations of any
/// [`AnyProtocol`]. Only HR needs transform workspace today; the struct
/// exists so the trial arena has one stable slot as protocols grow.
#[derive(Debug, Default, Clone)]
pub struct ProtocolScratch {
    /// Hadamard Response workspace (unused by the other protocols).
    pub hr: HrScratch,
}

impl AnyProtocol {
    /// [`LdpFrequencyProtocol::batch_aggregate`] with caller-owned
    /// scratch: identical draws, identical counts, no per-call transform
    /// allocations for HR. Protocols that need no scratch simply ignore
    /// it.
    pub fn batch_aggregate_with<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
        scratch: &mut ProtocolScratch,
    ) -> Option<Vec<u64>> {
        match self {
            AnyProtocol::Hr(x) => {
                Some(x.batch_support_counts_with(item_counts, rng, &mut scratch.hr))
            }
            other => other.batch_aggregate(item_counts, rng),
        }
    }
}

/// Grouped per-user aggregation over item counts — the reference
/// implementation the closed-form samplers are differential-tested
/// against (`tests/batched_aggregation.rs`); no engine path calls it.
/// Walks the item groups calling the concrete protocol's `perturb` +
/// `accumulate`: still `O(n·d)`, but with per-report enum dispatch,
/// `Report` wrapping, and item-array chasing hoisted out.
///
/// # Panics
/// Panics if `item_counts.len()` differs from the protocol's domain size.
pub fn grouped_support_counts<P, R>(protocol: &P, item_counts: &[u64], rng: &mut R) -> Vec<u64>
where
    P: LdpFrequencyProtocol,
    R: Rng + ?Sized,
{
    let d = protocol.domain().size();
    assert_eq!(item_counts.len(), d, "item counts must cover the domain");
    let mut counts = vec![0u64; d];
    for (item, &c) in item_counts.iter().enumerate() {
        for _ in 0..c {
            let report = protocol.perturb(item, rng);
            protocol.accumulate(&report, &mut counts);
        }
    }
    counts
}

impl Grr {
    /// Samples the aggregate support counts of `item_counts[v]` users per
    /// item `v` in one pass: one keep-vs-uniform binomial per occupied
    /// item, then a single pooled uniform multinomial over the domain.
    ///
    /// # Panics
    /// Panics if `item_counts.len()` differs from the domain size.
    pub fn batch_support_counts<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Vec<u64> {
        let d = self.domain().size();
        assert_eq!(item_counts.len(), d, "item counts must cover the domain");
        // Mixture weight of "report the true item verbatim". λ > 0 for
        // every ε > 0 (q·d = d/(d−1+e^ε) < 1); the max(0) guards f64 dust.
        let lambda = (1.0 - self.params().q() * d as f64).max(0.0);
        let mut counts = vec![0u64; d];
        let mut pooled_uniform = 0u64;
        for (v, &c) in item_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let kept = sample_binomial(c, lambda, rng);
            counts[v] += kept;
            pooled_uniform += c - kept;
        }
        add_multinomial_uniform(pooled_uniform, &mut counts, rng);
        counts
    }
}

impl UnaryEncoding {
    /// Samples the aggregate support counts column-wise: holders of `v`
    /// set bit `v` with probability `p`, everyone else with probability
    /// `q`, independently, so bit `v` is set by
    /// `Binomial(c_v, p) + Binomial(n − c_v, q)` reporters.
    ///
    /// # Panics
    /// Panics if `item_counts.len()` differs from the domain size.
    pub fn batch_support_counts<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Vec<u64> {
        assert_eq!(
            item_counts.len(),
            self.domain().size(),
            "item counts must cover the domain"
        );
        let n: u64 = item_counts.iter().sum();
        let (p, q) = (self.params().p(), self.params().q());
        item_counts
            .iter()
            .map(|&c| sample_binomial(c, p, rng) + sample_binomial(n - c, q, rng))
            .collect()
    }
}

impl HadamardResponse {
    /// Samples the aggregate support counts via a column histogram: per
    /// occupied item, a binomial splits row-targeted vs pooled-uniform
    /// reports; the histogram then folds into per-item support counts.
    ///
    /// # Panics
    /// Panics if `item_counts.len()` differs from the domain size.
    pub fn batch_support_counts<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Vec<u64> {
        self.batch_support_counts_with(item_counts, rng, &mut HrScratch::default())
    }

    /// [`HadamardResponse::batch_support_counts`] with caller-owned
    /// scratch — same RNG draws in the same order, bitwise-identical
    /// counts, zero transform allocations when `scratch` is reused.
    ///
    /// # Panics
    /// Panics if `item_counts.len()` differs from the domain size.
    pub fn batch_support_counts_with<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
        scratch: &mut HrScratch,
    ) -> Vec<u64> {
        let d = self.domain().size();
        assert_eq!(item_counts.len(), d, "item counts must cover the domain");
        let k = self.order() as usize;
        // Mixture weight of "uniform over the K/2 positive columns of the
        // user's row"; the complement is uniform over all K columns.
        // Valid because p = e^ε/(1+e^ε) > ½ for every ε > 0.
        let lambda = (2.0 * self.params().p() - 1.0).max(0.0);
        scratch.col_counts.clear();
        scratch.col_counts.resize(k, 0);
        let mut pooled_uniform = 0u64;
        for (item, &c) in item_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let targeted = sample_binomial(c, lambda, rng);
            pooled_uniform += c - targeted;
            if targeted == 0 {
                continue;
            }
            // Branchless enumeration of the row's K/2 positive columns,
            // ascending — the same order the old `filter` produced, so
            // the multinomial scatter consumes identical draws.
            positive_columns_into(self.row_of(item), k, &mut scratch.positives);
            scratch.split.clear();
            scratch.split.resize(scratch.positives.len(), 0);
            add_multinomial_uniform(targeted, &mut scratch.split, rng);
            for (&col, &extra) in scratch.positives.iter().zip(&scratch.split) {
                scratch.col_counts[col as usize] += extra;
            }
        }
        add_multinomial_uniform(pooled_uniform, &mut scratch.col_counts, rng);
        // C(w) = Σ_y h_y · [had⁺(row_w, y)] = (N + (H·h)[row_w]) / 2,
        // one FWHT (O(K log K)) instead of the O(d·K) per-item filter
        // sums. Integer-exact: N + (H·h)[x] is a sum of even terms.
        let total: i64 = scratch.col_counts.iter().map(|&c| c as i64).sum();
        scratch.fwht.clear();
        scratch
            .fwht
            .extend(scratch.col_counts.iter().map(|&c| c as i64));
        fwht_i64(&mut scratch.fwht);
        (0..d)
            .map(|w| ((total + scratch.fwht[self.row_of(w) as usize]) / 2) as u64)
            .collect()
    }
}

impl Olh {
    /// Samples the aggregate support counts in closed form, `O(d)` — two
    /// binomials per item instead of `n` per-user reports with `O(d)` hash
    /// evaluations each.
    ///
    /// GRR over the hashed range is the mixture
    /// `λ·δ_{h(v)} + (1−λ)·Uniform(g)` with `λ = (p·g − 1)/(g − 1)`. A
    /// λ-branch report of a `v`-holder supports `v` deterministically;
    /// every other report supports `v` with probability `q = 1/g` exactly
    /// (both mixture branches collide with `h(v)` at rate `1/g` under hash
    /// uniformity). Hence per item:
    /// `C(v) = k_v + Binomial(n − k_v, 1/g)`, `k_v ~ Binomial(c_v, λ)`.
    ///
    /// Per-item marginals are exact: mean `c_v·p + (n−c_v)·q` and variance
    /// `c_v·p(1−p) + (n−c_v)·q(1−q)`, identical to the per-user loop
    /// (differential-tested in `tests/batched_aggregation.rs`). The one
    /// idealization is *cross-item*: within a single report, two items
    /// colliding under the same hash function support together, a
    /// covariance this sampler drops. The estimator and every recovery arm
    /// consume the counts item-wise, so expectations of all downstream
    /// metrics are unchanged.
    ///
    /// # Panics
    /// Panics if `item_counts.len()` differs from the domain size.
    pub fn batch_support_counts<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Vec<u64> {
        let d = self.domain().size();
        assert_eq!(item_counts.len(), d, "item counts must cover the domain");
        let n: u64 = item_counts.iter().sum();
        let g = f64::from(self.range());
        // λ > 0 for every ε > 0 (p > 1/g exactly when e^ε > 1); the max(0)
        // guards f64 dust at tiny ε.
        let lambda = ((self.params().p() * g - 1.0) / (g - 1.0)).max(0.0);
        let q = self.params().q();
        let mut counts = vec![0u64; d];
        for (slot, &c) in counts.iter_mut().zip(item_counts) {
            let kept = sample_binomial(c, lambda, rng);
            *slot = kept + sample_binomial(n - kept, q, rng);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::CountAccumulator;
    use crate::report::ProtocolKind;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;

    /// A small skewed population over `d` items, `n` users total.
    fn population(d: usize, n: u64) -> Vec<u64> {
        let mut counts = vec![0u64; d];
        let mut remaining = n;
        for slot in &mut counts {
            let c = (remaining / 2).max(1).min(remaining);
            *slot = c;
            remaining -= c;
            if remaining == 0 {
                break;
            }
        }
        counts
    }

    fn per_user_counts(
        kind: ProtocolKind,
        epsilon: f64,
        item_counts: &[u64],
        rng: &mut impl rand::Rng,
    ) -> Vec<u64> {
        let domain = Domain::new(item_counts.len()).unwrap();
        let protocol = kind.build(epsilon, domain).unwrap();
        let mut acc = CountAccumulator::new(domain);
        for (item, &c) in item_counts.iter().enumerate() {
            for _ in 0..c {
                let r = protocol.perturb(item, rng);
                acc.add(&protocol, &r);
            }
        }
        acc.counts().to_vec()
    }

    #[test]
    fn batched_counts_total_is_bounded_by_support_geometry() {
        // GRR: exactly one supported item per report. OUE/SUE/HR/OLH: at
        // most d per report. Totals must respect that.
        let d = 24;
        let n = 10_000u64;
        let item_counts = population(d, n);
        let domain = Domain::new(d).unwrap();
        let mut rng = rng_from_seed(1);
        for kind in ProtocolKind::EXTENDED {
            let protocol = kind.build(0.5, domain).unwrap();
            let counts = protocol
                .batch_aggregate(&item_counts, &mut rng)
                .expect("all enum protocols support batching");
            assert_eq!(counts.len(), d);
            let total: u64 = counts.iter().sum();
            match kind {
                ProtocolKind::Grr => assert_eq!(total, n, "{kind}"),
                _ => assert!(total <= n * d as u64, "{kind}"),
            }
        }
    }

    #[test]
    fn batched_is_deterministic_per_seed() {
        let d = 16;
        let item_counts = population(d, 5_000);
        let domain = Domain::new(d).unwrap();
        for kind in ProtocolKind::EXTENDED {
            let protocol = kind.build(1.0, domain).unwrap();
            let a = protocol
                .batch_aggregate(&item_counts, &mut rng_from_seed(7))
                .unwrap();
            let b = protocol
                .batch_aggregate(&item_counts, &mut rng_from_seed(7))
                .unwrap();
            assert_eq!(a, b, "{kind}");
            let c = protocol
                .batch_aggregate(&item_counts, &mut rng_from_seed(8))
                .unwrap();
            assert_ne!(a, c, "{kind}: distinct seeds must differ");
        }
    }

    #[test]
    fn batched_matches_per_user_in_mean_and_variance() {
        // The statistical-equivalence contract: for every protocol, the
        // batched sampler and the per-user loop draw from the *same*
        // distribution. Per item, E[C(v)] = c_v·p + (n−c_v)·q and (users
        // independent) Var[C(v)] = c_v·p(1−p) + (n−c_v)·q(1−q); both paths
        // must sit within 6σ of the analytic mean, and their sample
        // variances within 8·se of the analytic variance.
        let d = 12;
        let n = 4_000u64;
        let item_counts = population(d, n);
        let domain = Domain::new(d).unwrap();
        let reps = 220usize;
        for kind in ProtocolKind::EXTENDED {
            let protocol = kind.build(0.8, domain).unwrap();
            let params = protocol.params();
            let (p, q) = (params.p(), params.q());

            let mut rng = rng_from_seed(100);
            let mut batched_sum = vec![0.0f64; d];
            let mut batched_sq = vec![0.0f64; d];
            let mut user_sum = vec![0.0f64; d];
            let mut user_sq = vec![0.0f64; d];
            for _ in 0..reps {
                let b = protocol.batch_aggregate(&item_counts, &mut rng).unwrap();
                let u = per_user_counts(kind, 0.8, &item_counts, &mut rng);
                for v in 0..d {
                    batched_sum[v] += b[v] as f64;
                    batched_sq[v] += (b[v] as f64).powi(2);
                    user_sum[v] += u[v] as f64;
                    user_sq[v] += (u[v] as f64).powi(2);
                }
            }

            for v in 0..d {
                let c = item_counts[v] as f64;
                let expect_mean = c * p + (n as f64 - c) * q;
                let expect_var = c * p * (1.0 - p) + (n as f64 - c) * q * (1.0 - q);
                let mean_tol = 6.0 * (expect_var / reps as f64).sqrt();
                let var_tol = 8.0 * expect_var * (2.0 / reps as f64).sqrt();
                for (label, sum, sq) in [
                    ("batched", &batched_sum, &batched_sq),
                    ("per-user", &user_sum, &user_sq),
                ] {
                    let mean = sum[v] / reps as f64;
                    let var = sq[v] / reps as f64 - mean * mean;
                    assert!(
                        (mean - expect_mean).abs() < mean_tol,
                        "{kind} {label} item {v}: mean={mean}, expect={expect_mean}"
                    );
                    assert!(
                        (var - expect_var).abs() < var_tol,
                        "{kind} {label} item {v}: var={var}, expect={expect_var}"
                    );
                }
            }
        }
    }

    #[test]
    fn grr_batched_mixture_is_exactly_the_kernel() {
        // Single-occupied-item population: the batched GRR marginal at the
        // true item must be Binomial(n, p), at any other item
        // Binomial-mean n·q. Checked via tight mean bounds.
        let d = 10;
        let n = 2_000u64;
        let mut item_counts = vec![0u64; d];
        item_counts[3] = n;
        let grr = Grr::new(0.7, Domain::new(d).unwrap()).unwrap();
        let (p, q) = (grr.params().p(), grr.params().q());
        let reps = 400usize;
        let mut rng = rng_from_seed(5);
        let mut sums = vec![0.0f64; d];
        for _ in 0..reps {
            for (s, c) in sums
                .iter_mut()
                .zip(grr.batch_support_counts(&item_counts, &mut rng))
            {
                *s += c as f64;
            }
        }
        for (v, &s) in sums.iter().enumerate() {
            let mean = s / reps as f64;
            let target = if v == 3 { n as f64 * p } else { n as f64 * q };
            let var = if v == 3 {
                n as f64 * p * (1.0 - p)
            } else {
                n as f64 * q * (1.0 - q)
            };
            let tol = 6.0 * (var / reps as f64).sqrt();
            assert!((mean - target).abs() < tol, "item {v}: {mean} vs {target}");
        }
    }

    #[test]
    fn every_enum_protocol_batch_aggregates() {
        // Since the OLH λ-split sampler, all five enum protocols have a
        // closed-form count sampler: none falls back to the grouped loop.
        let domain = Domain::new(8).unwrap();
        let mut rng = rng_from_seed(3);
        for kind in ProtocolKind::EXTENDED {
            let protocol = kind.build(0.5, domain).unwrap();
            assert!(
                protocol.batch_aggregate(&[1; 8], &mut rng).is_some(),
                "{kind}"
            );
        }
    }

    #[test]
    fn olh_closed_form_mixture_is_exactly_the_kernel() {
        // Single-occupied-item population: the OLH marginal at the true
        // item must have mean n·p and variance n·p(1−p); at any other
        // item mean n·q, variance n·q(1−q). The closed-form sampler is
        // O(d), so a high rep count is cheap.
        let d = 10;
        let n = 2_000u64;
        let mut item_counts = vec![0u64; d];
        item_counts[3] = n;
        let olh = Olh::new(0.7, Domain::new(d).unwrap()).unwrap();
        let (p, q) = (olh.params().p(), olh.params().q());
        let reps = 600usize;
        let mut rng = rng_from_seed(6);
        let mut sums = vec![0.0f64; d];
        let mut sqs = vec![0.0f64; d];
        for _ in 0..reps {
            for ((s, sq), c) in sums
                .iter_mut()
                .zip(sqs.iter_mut())
                .zip(olh.batch_support_counts(&item_counts, &mut rng))
            {
                *s += c as f64;
                *sq += (c as f64).powi(2);
            }
        }
        for v in 0..d {
            let (mp, vp) = if v == 3 { (p, p) } else { (q, q) };
            let target = n as f64 * mp;
            let var_target = n as f64 * vp * (1.0 - vp);
            let mean = sums[v] / reps as f64;
            let var = sqs[v] / reps as f64 - mean * mean;
            let mean_tol = 6.0 * (var_target / reps as f64).sqrt();
            assert!(
                (mean - target).abs() < mean_tol,
                "item {v}: mean {mean} vs {target}"
            );
            let var_tol = 8.0 * var_target * (2.0 / reps as f64).sqrt();
            assert!(
                (var - var_target).abs() < var_tol,
                "item {v}: var {var} vs {var_target}"
            );
        }
    }

    #[test]
    fn batched_rejects_wrong_domain_shape() {
        let domain = Domain::new(8).unwrap();
        let grr = Grr::new(0.5, domain).unwrap();
        let result = std::panic::catch_unwind(|| {
            let mut rng = rng_from_seed(1);
            grr.batch_support_counts(&[1, 2, 3], &mut rng)
        });
        assert!(result.is_err(), "shape mismatch must panic");
    }
}
