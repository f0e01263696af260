//! The k-means subset defense against input poisoning and its LDPRecover
//! integration (paper §VII-B, Fig. 9).
//!
//! Under IPA the malicious reports are genuinely perturbed, so the learning
//! constant of Eq. (21) does not apply (malicious aggregated frequencies sum
//! to ≈ 1 like genuine ones). The k-means defense of Du et al. (ICDE 2023)
//! instead exploits *distributional* deviation: sample `G` user subsets at
//! rate `ξ`, estimate a frequency vector per subset, cluster the vectors
//! into two groups (Lloyd's k-means, k = 2), and trust the majority cluster.
//!
//! * **K-means alone**: estimate from the union of majority-cluster subsets.
//! * **LDPRecover-KM**: additionally learn a malicious frequency vector from
//!   the centroid difference — under IPA the malicious mixture component is
//!   `f_Z = (1−w)·f_X + w·f_Y` per subset, so the (minority − majority)
//!   centroid difference points along `f_Y − f_X`; its positive part,
//!   normalized to sum 1 (the IPA malicious mass), feeds the genuine
//!   frequency estimator of Eq. (19). This is the integration the paper
//!   reports as "48.9% better than k-means alone" for GRR.
//!
//! One run costs `G` subset draws and two passes over the reports, each
//! computing a report's support once. The subsets are drawn as bitmaps
//! ([`ldp_common::sampling::sample_distinct_set`], the draws of
//! `sample_distinct` without its index vector) and turned into a `G`-bit
//! membership mask per report. The first pass adds each report's support
//! to the total and to every subset holding it; the second folds the
//! reports outside every majority subset, which the total minus them
//! turns into the union estimate. OUE, SUE and OLH supports are 0/1 byte
//! rows (OLH's from hash lanes built once per run) added into 8-bit
//! counters that are flushed into `u64` rows before any can wrap; a GRR
//! item or HR column is one `u64` increment. The counts are exact, so
//! every estimate is bitwise what folding each subset on its own gives.

use ldp_common::rng::uniform_index;
use ldp_common::sampling::sample_distinct_set;
use ldp_common::vecmath::normalize_to_simplex_sum;
use ldp_common::{BitVec, LdpError, Result};
use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, OlhLanes, Report};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::recover::{LdpRecover, RecoveryOutcome};

/// Configuration of the subset-clustering defense.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansDefense {
    /// Number of subsets `G` sampled from the report stream.
    pub groups: usize,
    /// Per-subset sample rate `ξ ∈ (0, 1]` (fraction of all reports).
    pub sample_rate: f64,
    /// Lloyd iterations cap.
    pub max_iters: usize,
}

impl Default for KMeansDefense {
    fn default() -> Self {
        Self {
            groups: 20,
            sample_rate: 0.1,
            max_iters: 100,
        }
    }
}

/// What the defense produced.
#[derive(Debug, Clone)]
pub struct KMeansOutcome {
    /// Frequencies estimated from the majority ("genuine") cluster.
    pub genuine_estimate: Vec<f64>,
    /// Centroid of the majority cluster.
    pub genuine_centroid: Vec<f64>,
    /// Centroid of the minority ("malicious") cluster, if it is non-empty.
    pub malicious_centroid: Option<Vec<f64>>,
    /// Per-subset cluster assignment (`true` = majority cluster).
    pub assignments: Vec<bool>,
    /// Frequencies estimated from every report (the poisoned estimate
    /// `f̃_Z`), which LDPRecover-KM starts from.
    pub poisoned_estimate: Vec<f64>,
}

impl KMeansDefense {
    /// Creates the defense with the given subset count and sample rate.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `groups < 2` or
    /// `ξ ∉ (0, 1]`.
    pub fn new(groups: usize, sample_rate: f64) -> Result<Self> {
        if groups < 2 {
            return Err(LdpError::invalid("k-means defense needs ≥ 2 subsets"));
        }
        if !(sample_rate > 0.0 && sample_rate <= 1.0) {
            return Err(LdpError::invalid(format!(
                "sample rate must be in (0,1], got {sample_rate}"
            )));
        }
        Ok(Self {
            groups,
            sample_rate,
            ..Self::default()
        })
    }

    /// Runs the defense over the (mixed genuine + malicious) report stream.
    ///
    /// All `G` subsets are drawn first (`ξ·N` distinct reports each, a
    /// bootstrap over users) as bitmaps, with exactly the draws of
    /// [`ldp_common::sampling::sample_distinct`]. Then one report-major
    /// pass computes each report's support once and adds it to the running
    /// total and to every subset whose membership mask contains the report.
    /// The subset vectors are clustered (Lloyd, k = 2) and the majority
    /// cluster is trusted. Its union estimate is the total minus the
    /// reports outside every majority subset, and the total itself is the
    /// full poisoned estimate LDPRecover-KM starts from. Folding consumes
    /// no randomness and the counts are exact integer sums, so every output
    /// is bitwise what folding each subset and the union separately would
    /// give.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] when there are no reports or the sampled
    /// subsets would be empty.
    pub fn run<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        reports: &[Report],
        rng: &mut R,
    ) -> Result<KMeansOutcome> {
        if reports.is_empty() {
            return Err(LdpError::EmptyInput("reports for the k-means defense"));
        }
        let subset_size = ((reports.len() as f64) * self.sample_rate).round() as usize;
        if subset_size == 0 {
            return Err(LdpError::EmptyInput("sampled subset (ξ·N rounded to 0)"));
        }
        let params = protocol.params();

        let mut membership = Membership::new(reports.len(), self.groups);
        for g in 0..self.groups {
            membership.insert_all(&sample_distinct_set(reports.len(), subset_size, rng), g);
        }
        let fold = SupportFold::new(protocol);
        let (subset_cells, total_cells) = fold.subsets_and_total(reports, &membership);
        let vectors = subset_cells
            .chunks_exact(fold.width)
            .map(|cells| params.debias_frequencies(&fold.counts(cells), subset_size))
            .collect::<Result<Vec<_>>>()?;

        let (assign, centroids) = lloyd_two_means(&vectors, self.max_iters, rng);
        // Majority cluster = genuine.
        let ones = assign.iter().filter(|&&a| a).count();
        let majority_label = ones * 2 >= assign.len();
        let assignments: Vec<bool> = assign.iter().map(|&a| a == majority_label).collect();

        let genuine_centroid = centroids[usize::from(majority_label)].clone();
        let minority_count = assignments.iter().filter(|&&a| !a).count();
        let malicious_centroid = if minority_count > 0 {
            Some(centroids[usize::from(!majority_label)].clone())
        } else {
            None
        };

        // Union of the majority-cluster subsets (each user once): the
        // total minus the reports no majority subset drew.
        let majority = membership.mask_of(&assignments);
        let (outside_cells, outside) = fold.outside(reports, &membership, &majority);
        let union_cells: Vec<u64> = total_cells
            .iter()
            .zip(&outside_cells)
            .map(|(&t, &o)| t - o)
            .collect();
        let genuine_estimate =
            params.debias_frequencies(&fold.counts(&union_cells), reports.len() - outside)?;
        let poisoned_estimate =
            params.debias_frequencies(&fold.counts(&total_cells), reports.len())?;

        Ok(KMeansOutcome {
            genuine_estimate,
            genuine_centroid,
            malicious_centroid,
            assignments,
            poisoned_estimate,
        })
    }

    /// LDPRecover-KM: learn the malicious frequency vector from the
    /// cluster structure of a [`KMeansDefense::run`] outcome and run the
    /// genuine frequency estimator + refinement on the full poisoned
    /// estimate. One clustering pass serves both the plain k-means estimate
    /// and this one.
    ///
    /// The poisoned estimate is the outcome's
    /// [`poisoned_estimate`](KMeansOutcome::poisoned_estimate), the total
    /// that [`KMeansDefense::run`]'s single pass already folded, so no
    /// report is folded again here.
    ///
    /// # Errors
    /// Propagates recovery failures.
    pub fn recover_from_outcome(
        recover: &LdpRecover,
        outcome: &KMeansOutcome,
    ) -> Result<RecoveryOutcome> {
        let poisoned = &outcome.poisoned_estimate;
        // Malicious direction: positive part of (minority − majority)
        // centroid difference, normalized to unit mass (under IPA the
        // aggregated malicious frequencies sum to ≈ 1).
        let malicious = match &outcome.malicious_centroid {
            Some(minority) => {
                let mut dir: Vec<f64> = minority
                    .iter()
                    .zip(&outcome.genuine_centroid)
                    .map(|(&hi, &lo)| (hi - lo).max(0.0))
                    .collect();
                normalize_to_simplex_sum(&mut dir);
                dir
            }
            // No malicious cluster found: assume uniform malicious mass
            // (the estimator then reduces to a mild rescale + refine).
            None => vec![1.0 / poisoned.len() as f64; poisoned.len()],
        };
        recover.recover_with_malicious(poisoned, &malicious)
    }
}

/// Which of the `G` subsets hold each report: a `G`-bit mask per report,
/// packed into `⌈G/64⌉` words.
struct Membership {
    groups: usize,
    words: usize,
    masks: Vec<u64>,
}

impl Membership {
    fn new(reports: usize, groups: usize) -> Self {
        let words = groups.div_ceil(64);
        Self {
            groups,
            words,
            masks: vec![0; reports * words],
        }
    }

    /// Adds every report in `set` (one bit per report) to `group`,
    /// walking the masks in report order.
    fn insert_all(&mut self, set: &BitVec, group: usize) {
        let (word, bit) = (group / 64, 1 << (group % 64));
        for report in set.iter_ones() {
            self.masks[report * self.words + word] |= bit;
        }
    }

    fn mask(&self, report: usize) -> &[u64] {
        &self.masks[report * self.words..(report + 1) * self.words]
    }

    /// The mask of the groups flagged `true`.
    fn mask_of(&self, flags: &[bool]) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        for (g, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
            mask[g / 64] |= 1 << (g % 64);
        }
        mask
    }

    /// Whether no group of `mask` holds `report`.
    fn outside(&self, report: usize, mask: &[u64]) -> bool {
        self.mask(report)
            .iter()
            .zip(mask)
            .all(|(&m, &k)| m & k == 0)
    }

    /// The groups holding `report`, in increasing order.
    fn groups(&self, report: usize) -> impl Iterator<Item = usize> + '_ {
        self.mask(report).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// What one report adds to a row of cells.
enum Support<'a> {
    /// One cell: the GRR item or the HR column.
    Cell(usize),
    /// A 0/1 byte per item (OUE, SUE, OLH), added lane by lane.
    Row(&'a [u8]),
}

/// Rows of cells counted in 8-bit counters, 16 to an SSE2 add, for the
/// reports' 0/1 rows, and flushed into the `u64` rows every
/// [`ByteRows::FLUSH_EVERY`] reports. A report adds at most 1 to a cell,
/// so no counter can wrap. One-cell supports go to the `u64` rows
/// directly.
struct ByteRows {
    width: usize,
    bytes: Vec<u8>,
    cells: Vec<u64>,
    /// Reports added since the last flush.
    pending: usize,
}

impl ByteRows {
    /// The most reports an 8-bit counter can take.
    const FLUSH_EVERY: usize = u8::MAX as usize;

    fn new(rows: usize, width: usize) -> Self {
        Self {
            width,
            bytes: vec![0; rows * width],
            cells: vec![0; rows * width],
            pending: 0,
        }
    }

    /// Adds `support` to row `row`.
    fn add(&mut self, row: usize, support: &Support<'_>) {
        let cells = row * self.width..(row + 1) * self.width;
        match *support {
            Support::Cell(c) => self.cells[cells][c] += 1,
            Support::Row(row) => {
                for (b, &r) in self.bytes[cells].iter_mut().zip(row) {
                    *b += r;
                }
            }
        }
    }

    /// Closes one report's adds: every `FLUSH_EVERY` reports the counters
    /// move into the `u64` rows.
    fn report_done(&mut self) {
        self.pending += 1;
        if self.pending == Self::FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (c, b) in self.cells.iter_mut().zip(&mut self.bytes) {
            *c += u64::from(std::mem::take(b));
        }
        self.pending = 0;
    }

    /// The rows, row `r` at `r·width..`.
    fn into_cells(mut self) -> Vec<u64> {
        self.flush();
        self.cells
    }
}

/// Folds reports into rows of `width` cells: the support counts
/// themselves (width `d`), or for HR the reported-column histogram
/// (width `K`), which [`SupportFold::counts`] turns into support counts
/// with one transform per row.
struct SupportFold<'p> {
    protocol: &'p AnyProtocol,
    width: usize,
    /// OLH's item lanes, hashed once per run.
    olh_lanes: Option<OlhLanes>,
}

impl<'p> SupportFold<'p> {
    fn new(protocol: &'p AnyProtocol) -> Self {
        let d = protocol.domain().size();
        let (width, olh_lanes) = match protocol {
            AnyProtocol::Hr(hr) => (hr.order() as usize, None),
            AnyProtocol::Olh(olh) => (d, Some(olh.lanes(0..d))),
            _ => (d, None),
        };
        Self {
            protocol,
            width,
            olh_lanes,
        }
    }

    /// The support of `report`, computed once and added to every row that
    /// holds it; `row` is `d` bytes of scratch. A unary encoding's set
    /// bits and OLH's hash scan are expanded to 0/1 bytes once, because
    /// adding a dense byte row to each subset beats re-deriving the
    /// support per subset.
    fn support<'a>(&self, report: &Report, row: &'a mut [u8]) -> Support<'a> {
        match (self.protocol, report) {
            (AnyProtocol::Grr(_), Report::Grr(item)) => Support::Cell(*item as usize),
            (AnyProtocol::Hr(_), Report::Hr(column)) => Support::Cell(*column as usize),
            (AnyProtocol::Unary(_), Report::Unary(bits)) => {
                row.fill(0);
                for v in bits.iter_ones() {
                    row[v] = 1;
                }
                Support::Row(row)
            }
            (AnyProtocol::Olh(_), Report::Olh(olh)) => {
                let lanes = self
                    .olh_lanes
                    .as_ref()
                    .expect("OLH lanes are built with the fold");
                lanes.support_row(olh, row);
                Support::Row(row)
            }
            _ => panic!(
                "report kind {} fed to protocol {}",
                report.tag(),
                self.protocol.kind()
            ),
        }
    }

    /// One report-major pass: the `G` subset rows (row `g` at
    /// `g·width..`) and the total row over all reports.
    fn subsets_and_total(
        &self,
        reports: &[Report],
        membership: &Membership,
    ) -> (Vec<u64>, Vec<u64>) {
        // The total is the last row.
        let total_row = membership.groups;
        let mut rows = ByteRows::new(total_row + 1, self.width);
        let mut row = vec![0u8; self.protocol.domain().size()];
        for (i, report) in reports.iter().enumerate() {
            let support = self.support(report, &mut row);
            rows.add(total_row, &support);
            for g in membership.groups(i) {
                rows.add(g, &support);
            }
            rows.report_done();
        }
        let mut subsets = rows.into_cells();
        let total = subsets.split_off(total_row * self.width);
        (subsets, total)
    }

    /// The row of the reports no group of `mask` holds, and their number.
    fn outside(
        &self,
        reports: &[Report],
        membership: &Membership,
        mask: &[u64],
    ) -> (Vec<u64>, usize) {
        let mut rows = ByteRows::new(1, self.width);
        let mut count = 0;
        let mut row = vec![0u8; self.protocol.domain().size()];
        for (i, report) in reports.iter().enumerate() {
            if membership.outside(i, mask) {
                rows.add(0, &self.support(report, &mut row));
                rows.report_done();
                count += 1;
            }
        }
        (rows.into_cells(), count)
    }

    /// The support counts `C(v)` of a row: the row itself, or for HR the
    /// transform of its column histogram.
    fn counts(&self, cells: &[u64]) -> Vec<u64> {
        match self.protocol {
            AnyProtocol::Hr(hr) => {
                let mut hist: Vec<i64> = cells
                    .iter()
                    .map(|&c| i64::try_from(c).expect("a report count fits i64"))
                    .collect();
                let mut counts = vec![0u64; self.protocol.domain().size()];
                hr.accumulate_histogram(&mut hist, &mut counts);
                counts
            }
            _ => cells.to_vec(),
        }
    }
}

/// Lloyd's algorithm specialized to k = 2 over dense `f64` vectors.
///
/// Returns per-point boolean assignments and the two centroids
/// (`centroids[0]` for label `false`, `centroids[1]` for `true`). Ties and
/// empty clusters are handled by re-seeding the empty centroid at the point
/// farthest from the other centroid.
fn lloyd_two_means<R: Rng + ?Sized>(
    points: &[Vec<f64>],
    max_iters: usize,
    rng: &mut R,
) -> (Vec<bool>, [Vec<f64>; 2]) {
    let n = points.len();
    let dim = points[0].len();
    debug_assert!(n >= 2);

    // Seed: a random point and the point farthest from it (k-means++-lite).
    let first = uniform_index(rng, n);
    let far = (0..n)
        .max_by(|&a, &b| {
            sq_dist(&points[a], &points[first])
                .partial_cmp(&sq_dist(&points[b], &points[first]))
                .expect("finite distances")
        })
        .expect("non-empty points");
    let mut centroids = [points[first].clone(), points[far].clone()];
    let mut assign = vec![false; n];

    for _ in 0..max_iters {
        let mut changed = false;
        for (i, point) in points.iter().enumerate() {
            let label = sq_dist(point, &centroids[1]) < sq_dist(point, &centroids[0]);
            if assign[i] != label {
                assign[i] = label;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut sums = [vec![0.0; dim], vec![0.0; dim]];
        let mut counts = [0usize; 2];
        for (point, &label) in points.iter().zip(&assign) {
            let c = usize::from(label);
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(point) {
                *s += x;
            }
        }
        for c in 0..2 {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the farthest point from the
                // other centroid.
                let other = &centroids[1 - c];
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(&points[a], other)
                            .partial_cmp(&sq_dist(&points[b], other))
                            .expect("finite distances")
                    })
                    .expect("non-empty points");
                centroids[c] = points[far].clone();
                changed = true;
            } else {
                for (slot, &s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *slot = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (assign, centroids)
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;
    use ldp_protocols::ProtocolKind;

    #[test]
    fn validation() {
        assert!(KMeansDefense::new(1, 0.5).is_err());
        assert!(KMeansDefense::new(10, 0.0).is_err());
        assert!(KMeansDefense::new(10, 1.5).is_err());
        assert!(KMeansDefense::new(10, 0.3).is_ok());
    }

    #[test]
    fn lloyd_separates_two_obvious_clusters() {
        let mut rng = rng_from_seed(1);
        let mut points = Vec::new();
        for i in 0..30 {
            let base = if i < 20 { 0.0 } else { 10.0 };
            points.push(vec![base + (i % 5) as f64 * 0.01, base]);
        }
        let (assign, centroids) = lloyd_two_means(&points, 50, &mut rng);
        // First 20 together, last 10 together.
        let first = assign[0];
        assert!(assign[..20].iter().all(|&a| a == first));
        assert!(assign[20..].iter().all(|&a| a != first));
        let lo = &centroids[usize::from(first)];
        let hi = &centroids[usize::from(!first)];
        assert!(lo[1] < 1.0 && hi[1] > 9.0);
    }

    #[test]
    fn defense_runs_and_majority_cluster_dominates() {
        let domain = Domain::new(16).unwrap();
        let proto = ProtocolKind::Grr.build(1.0, domain).unwrap();
        let mut rng = rng_from_seed(2);
        // 95% genuine holding uniform items, 5% IPA-on-target (item 3).
        let mut reports: Vec<Report> = (0..4000).map(|i| proto.perturb(i % 16, &mut rng)).collect();
        for _ in 0..200 {
            reports.push(proto.perturb(3, &mut rng));
        }
        let defense = KMeansDefense::new(20, 0.2).unwrap();
        let out = defense.run(&proto, &reports, &mut rng).unwrap();
        let majority = out.assignments.iter().filter(|&&a| a).count();
        assert!(majority * 2 >= out.assignments.len());
        assert_eq!(out.genuine_estimate.len(), 16);
    }

    #[test]
    fn lloyd_handles_identical_points() {
        // Degenerate input: all subsets identical. Lloyd must terminate
        // (re-seeding an empty cluster on the same point) and assign all
        // points to one cluster.
        let mut rng = rng_from_seed(9);
        let points = vec![vec![0.5, 0.5]; 12];
        let (assign, centroids) = lloyd_two_means(&points, 50, &mut rng);
        assert_eq!(assign.len(), 12);
        for c in &centroids {
            assert!((c[0] - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn lloyd_two_points_split() {
        let mut rng = rng_from_seed(10);
        let points = vec![vec![0.0], vec![1.0]];
        let (assign, _) = lloyd_two_means(&points, 50, &mut rng);
        assert_ne!(assign[0], assign[1]);
    }

    #[test]
    fn subset_rate_rounding_to_zero_is_rejected() {
        // ξ·N rounds to zero reports per subset.
        let domain = Domain::new(4).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(11);
        let reports: Vec<Report> = (0..3).map(|i| proto.perturb(i, &mut rng)).collect();
        let defense = KMeansDefense::new(5, 0.01).unwrap();
        assert!(defense.run(&proto, &reports, &mut rng).is_err());
    }

    #[test]
    fn empty_reports_rejected() {
        let domain = Domain::new(4).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let defense = KMeansDefense::default();
        let mut rng = rng_from_seed(3);
        assert!(defense.run(&proto, &[], &mut rng).is_err());
    }

    /// The fold as it was before the 8-bit counters: a dense `u64` 0/1
    /// row per report from the protocol's own `accumulate` (HR: one
    /// column cell), added to every row that holds it. `rows_of(i)` lists
    /// the rows report `i` goes to.
    fn dense_fold<I: Iterator<Item = usize>>(
        fold: &SupportFold<'_>,
        rows: usize,
        reports: &[Report],
        rows_of: impl Fn(usize) -> I,
    ) -> Vec<u64> {
        let mut cells = vec![0u64; rows * fold.width];
        for (i, report) in reports.iter().enumerate() {
            let mut support = vec![0u64; fold.width];
            match report {
                Report::Hr(column) => support[*column as usize] = 1,
                _ => fold.protocol.accumulate(report, &mut support),
            }
            for r in rows_of(i) {
                for (c, &s) in cells[r * fold.width..(r + 1) * fold.width]
                    .iter_mut()
                    .zip(&support)
                {
                    *c += s;
                }
            }
        }
        cells
    }

    /// The 8-bit fold (subsets, total and the reports outside a mask)
    /// against the dense `u64` fold, for all five protocols, G up to 70
    /// (multi-word masks), and SUE at ε = 100 with every report on one
    /// item, where one counter takes all 600 reports and must be flushed
    /// twice.
    #[test]
    fn kernel_oracle_kmeans_byte_fold_matches_dense_fold() {
        let domain = Domain::new(70).unwrap();
        let mut cases: Vec<(String, AnyProtocol, Vec<Report>)> = Vec::new();
        for kind in ProtocolKind::EXTENDED {
            let protocol = kind.build(1.0, domain).unwrap();
            let mut rng = rng_from_seed(31);
            let reports = (0..1300)
                .map(|i| protocol.perturb((i * 7) % 70, &mut rng))
                .collect();
            cases.push((kind.to_string(), protocol, reports));
        }
        let sue = ProtocolKind::Sue.build(100.0, domain).unwrap();
        let mut rng = rng_from_seed(32);
        let one_item: Vec<Report> = (0..600).map(|_| sue.perturb(5, &mut rng)).collect();
        assert!(one_item.iter().all(|r| match r {
            Report::Unary(bits) => bits.iter_ones().eq([5]),
            _ => false,
        }));
        cases.push(("SUE ε=100, one item".into(), sue, one_item));
        for (name, protocol, reports) in &cases {
            let fold = SupportFold::new(protocol);
            let n = reports.len();
            for (groups, size) in [(2usize, n), (3, n), (20, n / 10), (70, n / 2)] {
                let case = format!("{name} G={groups} k={size}");
                let mut membership = Membership::new(n, groups);
                let mut rng = rng_from_seed(groups as u64);
                for g in 0..groups {
                    membership.insert_all(&sample_distinct_set(n, size, &mut rng), g);
                }
                let (subsets, total) = fold.subsets_and_total(reports, &membership);
                let want = dense_fold(&fold, groups + 1, reports, |i| {
                    membership.groups(i).chain([groups])
                });
                assert_eq!(subsets, want[..groups * fold.width], "{case}");
                assert_eq!(total, want[groups * fold.width..], "{case}");
                // Outside every odd group, and outside no group at all
                // (every report, like the total).
                for flags in [
                    (0..groups).map(|g| g % 2 == 1).collect::<Vec<_>>(),
                    vec![false; groups],
                ] {
                    let mask = membership.mask_of(&flags);
                    let (outside, count) = fold.outside(reports, &membership, &mask);
                    let want = dense_fold(&fold, 1, reports, |i| {
                        membership.outside(i, &mask).then_some(0).into_iter()
                    });
                    assert_eq!(outside, want, "{case} outside {flags:?}");
                    assert_eq!(
                        count,
                        (0..n).filter(|&i| membership.outside(i, &mask)).count(),
                        "{case}"
                    );
                }
            }
        }
    }

    /// Tests that pin [`KMeansDefense::run`]'s single pass to the
    /// per-subset folds it replaced.
    mod oracle {
        use super::*;
        use ldp_protocols::CountAccumulator;
        use rand::RngCore;

        /// The defense as it was before the single pass: each subset, the
        /// majority union and the full poisoned estimate folded separately,
        /// report by report, through [`CountAccumulator`].
        fn reference_run<R: Rng + ?Sized>(
            defense: &KMeansDefense,
            protocol: &AnyProtocol,
            reports: &[Report],
            rng: &mut R,
        ) -> KMeansOutcome {
            let domain = protocol.domain();
            let params = protocol.params();
            let subset_size = ((reports.len() as f64) * defense.sample_rate).round() as usize;
            let mut subset_members: Vec<Vec<usize>> = Vec::new();
            let mut vectors: Vec<Vec<f64>> = Vec::new();
            for _ in 0..defense.groups {
                let members =
                    ldp_common::sampling::sample_distinct(reports.len(), subset_size, rng);
                let mut acc = CountAccumulator::new(domain);
                for &i in &members {
                    acc.add(protocol, &reports[i]);
                }
                vectors.push(acc.frequencies(params).unwrap());
                subset_members.push(members);
            }
            let (assign, centroids) = lloyd_two_means(&vectors, defense.max_iters, rng);
            let ones = assign.iter().filter(|&&a| a).count();
            let majority_label = ones * 2 >= assign.len();
            let assignments: Vec<bool> = assign.iter().map(|&a| a == majority_label).collect();
            let malicious_centroid = assignments
                .iter()
                .any(|&a| !a)
                .then(|| centroids[usize::from(!majority_label)].clone());
            let mut in_union = vec![false; reports.len()];
            for (members, &is_majority) in subset_members.iter().zip(&assignments) {
                if is_majority {
                    for &i in members {
                        in_union[i] = true;
                    }
                }
            }
            let mut union = CountAccumulator::new(domain);
            let mut all = CountAccumulator::new(domain);
            for (report, &inside) in reports.iter().zip(&in_union) {
                if inside {
                    union.add(protocol, report);
                }
                all.add(protocol, report);
            }
            KMeansOutcome {
                genuine_estimate: union.frequencies(params).unwrap(),
                genuine_centroid: centroids[usize::from(majority_label)].clone(),
                malicious_centroid,
                assignments,
                poisoned_estimate: all.frequencies(params).unwrap(),
            }
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// 900 genuine users over a skewed distribution plus 90 input
        /// poisoners reporting items 3 and 5 through Ψ. `d = 70` spans two
        /// bitmap words for OUE/SUE and leaves `K = 128 > d + 1` for HR.
        fn poisoned_reports(protocol: &AnyProtocol, rng: &mut impl Rng) -> Vec<Report> {
            let d = protocol.domain().size();
            let mut reports: Vec<Report> = (0..900)
                .map(|i| protocol.perturb((i * i) % d, rng))
                .collect();
            reports.extend((0..90).map(|i| protocol.perturb(3 + 2 * (i % 2), rng)));
            reports
        }

        #[test]
        fn single_pass_matches_per_subset_folds_bit_for_bit() {
            let domain = Domain::new(70).unwrap();
            let recover = LdpRecover::new(0.1).unwrap();
            let mut minority_cases = 0;
            let mut no_minority_cases = 0;
            for kind in ProtocolKind::EXTENDED {
                let protocol = kind.build(1.0, domain).unwrap();
                let reports = poisoned_reports(&protocol, &mut rng_from_seed(21));
                for groups in [2usize, 20, 70] {
                    for xi in [0.1, 1.0] {
                        let case = format!("{kind} G={groups} ξ={xi}");
                        let defense = KMeansDefense::new(groups, xi).unwrap();
                        let mut rng = rng_from_seed(groups as u64);
                        let mut reference_rng = rng_from_seed(groups as u64);
                        let got = defense.run(&protocol, &reports, &mut rng).unwrap();
                        let want = reference_run(&defense, &protocol, &reports, &mut reference_rng);
                        assert_eq!(got.assignments, want.assignments, "{case}");
                        assert_eq!(
                            bits(&got.genuine_centroid),
                            bits(&want.genuine_centroid),
                            "{case}"
                        );
                        assert_eq!(
                            got.malicious_centroid.as_deref().map(bits),
                            want.malicious_centroid.as_deref().map(bits),
                            "{case}"
                        );
                        assert_eq!(
                            bits(&got.genuine_estimate),
                            bits(&want.genuine_estimate),
                            "{case}"
                        );
                        assert_eq!(
                            bits(&got.poisoned_estimate),
                            bits(&want.poisoned_estimate),
                            "{case}"
                        );
                        // Same RNG draws consumed.
                        assert_eq!(rng.next_u64(), reference_rng.next_u64(), "{case}");

                        // LDPRecover-KM from the single-pass outcome.
                        let outcome = defense
                            .run(&protocol, &reports, &mut rng_from_seed(7))
                            .unwrap();
                        let km = KMeansDefense::recover_from_outcome(&recover, &outcome).unwrap();
                        let reference_km = KMeansDefense::recover_from_outcome(
                            &recover,
                            &reference_run(&defense, &protocol, &reports, &mut rng_from_seed(7)),
                        )
                        .unwrap();
                        assert_eq!(
                            bits(&km.frequencies),
                            bits(&reference_km.frequencies),
                            "{case}"
                        );

                        if want.malicious_centroid.is_some() {
                            minority_cases += 1;
                        } else {
                            no_minority_cases += 1;
                        }
                    }
                }
            }
            // ξ = 1 draws every subset as the whole population, so the
            // vectors coincide and no minority cluster forms.
            assert_eq!(no_minority_cases, 15);
            assert_eq!(minority_cases, 15);
        }
    }

    #[test]
    fn recover_km_produces_probability_vector() {
        let domain = Domain::new(12).unwrap();
        let proto = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(4);
        let mut reports: Vec<Report> = (0..3000).map(|i| proto.perturb(i % 12, &mut rng)).collect();
        for _ in 0..150 {
            reports.push(proto.perturb(7, &mut rng)); // IPA on item 7
        }
        let defense = KMeansDefense::new(10, 0.3).unwrap();
        let recover = LdpRecover::new(0.1).unwrap();
        let outcome = defense.run(&proto, &reports, &mut rng).unwrap();
        let out = KMeansDefense::recover_from_outcome(&recover, &outcome).unwrap();
        assert!(ldp_common::vecmath::is_probability_vector(
            &out.frequencies,
            1e-9
        ));
    }
}
