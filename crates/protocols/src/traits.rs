//! The statically-dispatched protocol interface.

use ldp_common::Domain;
use rand::Rng;

use crate::params::PureParams;

/// A pure LDP protocol for frequency estimation, specified by the algorithm
/// pair `(Ψ, Φ)` of the paper's §III-B plus the support relation of §III-C.
///
/// Implementors are cheap-to-copy descriptor objects holding the protocol
/// parameters; all randomness comes from the caller-supplied RNG, keeping
/// trials exactly reproducible.
pub trait LdpFrequencyProtocol {
    /// The wire format of one user report (`u32` item for GRR, a packed bit
    /// vector for OUE, a `(seed, value)` pair for OLH).
    type Report: Clone;

    /// Human-readable protocol name (`"GRR"`, `"OUE"`, `"OLH"`).
    fn name(&self) -> &'static str;

    /// The item domain `D`.
    fn domain(&self) -> Domain;

    /// The privacy budget `ε` this instance was built with.
    fn epsilon(&self) -> f64;

    /// The `(p, q, d)` support-probability triple used for aggregation.
    fn params(&self) -> PureParams;

    /// Ψ — perturbs a genuine user's item into a report.
    ///
    /// # Panics
    /// Panics (debug assertion) if `item` is outside the domain.
    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> Self::Report;

    /// The *clean* (un-perturbed) encoding of an item — what a malicious
    /// user who bypasses Ψ sends so that the aggregator counts `item`
    /// exactly once. This is the report model of the paper's adaptive
    /// attack (§V-C). The RNG is needed by OLH (seed choice).
    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> Self::Report;

    /// Support relation: does `report` support item `v`
    /// (i.e. `v ∈ S(report)`, paper Eq. (13))?
    fn supports(&self, report: &Self::Report, v: usize) -> bool;

    /// Adds `report`'s support indicator into `counts`
    /// (`counts[v] += 1` for every `v ∈ S(report)`).
    ///
    /// # Panics
    /// Panics if `counts.len() != d`.
    fn accumulate(&self, report: &Self::Report, counts: &mut [u64]);

    /// Adds a whole slice of reports' support indicators into `counts` —
    /// bitwise identical to looping [`Self::accumulate`], but protocols
    /// with a transform-domain aggregation override it (HR folds the
    /// batch through one fast Walsh–Hadamard transform, `O(n + K log K)`
    /// instead of `O(n·d)`). Consumes no randomness, so swapping a
    /// per-report loop for this call never perturbs an RNG stream.
    ///
    /// # Panics
    /// Panics if `counts.len() != d`.
    fn accumulate_all(&self, reports: &[Self::Report], counts: &mut [u64]) {
        for r in reports {
            self.accumulate(r, counts);
        }
    }

    /// Ψ + Φ for a whole population at once: samples the aggregate
    /// support-count vector of `item_counts[v]` genuine users holding each
    /// item `v`, exactly distributed as running [`Self::perturb`] +
    /// [`Self::accumulate`] per user (see `crate::batch`).
    ///
    /// Returns `Some` **iff the protocol has a closed-form count sampler**
    /// (every [`crate::ProtocolKind`] protocol does); `None` — the
    /// default — sends callers to the grouped per-user fallback
    /// (`crate::batch::grouped_support_counts`). Batched and per-user
    /// paths consume different RNG draws, so they are statistically, not
    /// bitwise, interchangeable.
    ///
    /// # Panics
    /// Implementations panic if `item_counts.len() != d`.
    fn batch_aggregate<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Option<Vec<u64>> {
        let _ = (item_counts, rng);
        None
    }
}
