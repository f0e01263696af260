//! The paper's two evaluation workloads, reproduced synthetically.
//!
//! | Paper dataset | Attribute | d | n | Our stand-in |
//! |---|---|---|---|---|
//! | IPUMS (2017 census) | city | 102 | 389,894 | Zipf(1.05) over 102 items |
//! | SF Fire ("Alarms")  | unit ID | 490 | 667,574 | Zipf(0.75) over 490 items |
//!
//! City populations are classically Zipf-distributed with exponent ≈ 1;
//! fire-unit workloads are flatter (dispatch spreads load), hence the
//! smaller exponent. LDPRecover's behaviour depends on `(d, n, ε, β, η)`
//! and the broad frequency shape only, so a stand-in that matches those
//! preserves which method wins and by how much; `Dataset::from_item_file`
//! plugs in the real extracts.

use ldp_common::float::exact_eq;
use ldp_common::sampling::sample_multinomial;
use ldp_common::{Domain, LdpError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, PopulationCounts};
use crate::synthetic::{zipf_counts, zipf_dataset};

/// IPUMS domain size (paper §VI-A.1).
pub const IPUMS_DOMAIN: usize = 102;
/// IPUMS user count (paper §VI-A.1).
pub const IPUMS_USERS: usize = 389_894;
/// Fire domain size (paper §VI-A.1).
pub const FIRE_DOMAIN: usize = 490;
/// Fire user count (paper §VI-A.1).
pub const FIRE_USERS: usize = 667_574;

/// IPUMS-like synthetic workload (d = 102, n = 389,894, Zipf 1.05).
///
/// # Errors
/// Propagates generator validation (never fails for these constants).
pub fn ipums_like<R: Rng + ?Sized>(rng: &mut R) -> Result<Dataset> {
    let (name, d, n, s) = DatasetKind::Ipums.spec();
    zipf_dataset(name, d, n, s, rng)
}

/// Fire-like synthetic workload (d = 490, n = 667,574, Zipf 0.75).
///
/// # Errors
/// Propagates generator validation (never fails for these constants).
pub fn fire_like<R: Rng + ?Sized>(rng: &mut R) -> Result<Dataset> {
    let (name, d, n, s) = DatasetKind::Fire.spec();
    zipf_dataset(name, d, n, s, rng)
}

/// Which evaluation workload an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// IPUMS-like (d = 102, n = 389,894).
    Ipums,
    /// Fire-like (d = 490, n = 667,574).
    Fire,
}

impl DatasetKind {
    /// Both workloads, in the paper's presentation order.
    pub const ALL: [DatasetKind; 2] = [DatasetKind::Ipums, DatasetKind::Fire];

    /// `(name, d, n, zipf exponent)` of the synthetic stand-in.
    fn spec(self) -> (&'static str, usize, usize, f64) {
        match self {
            DatasetKind::Ipums => ("IPUMS", IPUMS_DOMAIN, IPUMS_USERS, 1.05),
            DatasetKind::Fire => ("Fire", FIRE_DOMAIN, FIRE_USERS, 0.75),
        }
    }

    /// Materializes the workload (optionally scaled down; see
    /// [`Dataset::subsample`]).
    ///
    /// # Errors
    /// Propagates generator / subsample validation.
    pub fn generate<R: Rng + ?Sized>(self, scale: f64, rng: &mut R) -> Result<Dataset> {
        let full = match self {
            DatasetKind::Ipums => ipums_like(rng)?,
            DatasetKind::Fire => fire_like(rng)?,
        };
        if exact_eq(scale, 1.0) {
            Ok(full)
        } else {
            full.subsample(scale, rng)
        }
    }

    /// Samples the workload's *count vector* directly, in `O(d)` instead
    /// of `O(n)` — exactly distributed as [`DatasetKind::generate`]'s
    /// counts at the same scale. The full-corpus counts are one
    /// `Multinomial(n, zipf)` draw; scaling down composes a second
    /// multinomial over the realized full-corpus frequencies, mirroring
    /// [`Dataset::subsample`]'s draw-with-replacement (whose counts have
    /// that exact conditional law).
    ///
    /// This is the dataset path of the batched aggregation engine: the
    /// engine never looks at individual users, so nothing `O(n)` needs to
    /// exist at all.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `scale ∉ (0, 1]`; otherwise
    /// propagates generator validation.
    pub fn generate_counts<R: Rng + ?Sized>(
        self,
        scale: f64,
        rng: &mut R,
    ) -> Result<PopulationCounts> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(LdpError::invalid(format!(
                "scale must be in (0,1], got {scale}"
            )));
        }
        self.generate_user_counts(self.users_at_scale(scale), rng)
    }

    /// The population a run at `scale` samples, `⌈n·scale⌉` (at least
    /// one): [`DatasetKind::generate_counts`] and [`DatasetKind::generate`]
    /// draw this many users, and the experiment config checks with it that
    /// an attacked cell gets a malicious user.
    pub fn users_at_scale(self, scale: f64) -> usize {
        ((self.total_users() as f64) * scale).ceil().max(1.0) as usize
    }

    /// [`DatasetKind::generate_counts`] with an explicit user count
    /// instead of a fraction — the population path of the streaming
    /// ingestion engine, whose epochs are sized in users, not in fractions
    /// of the full corpus. `generate_counts(scale)` is exactly
    /// `generate_user_counts(⌈n·scale⌉)` (same RNG draws, same counts), so
    /// the two entry points are bitwise interchangeable wherever the user
    /// counts agree. Counts are drawn with replacement from the realized
    /// corpus frequencies (mirroring [`Dataset::subsample`]), so `users`
    /// may also *exceed* the corpus — a stream can ingest more traffic
    /// than the static dataset ever held.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `users` is 0; otherwise
    /// propagates generator validation.
    pub fn generate_user_counts<R: Rng + ?Sized>(
        self,
        users: usize,
        rng: &mut R,
    ) -> Result<PopulationCounts> {
        let (name, d, n, s) = self.spec();
        if users == 0 {
            return Err(LdpError::invalid("user count must be ≥ 1"));
        }
        let full = zipf_counts(name, d, n, s, rng)?;
        if users == n {
            return Ok(full);
        }
        let weights: Vec<f64> = full.counts().iter().map(|&c| c as f64).collect();
        let counts = sample_multinomial(users as u64, &weights, rng)?;
        PopulationCounts::from_counts(format!("{name}#{users}"), full.domain(), counts)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Ipums => "IPUMS",
            DatasetKind::Fire => "Fire",
        }
    }

    /// The workload's item domain.
    pub fn domain(self) -> Domain {
        let (_, d, _, _) = self.spec();
        Domain::new(d).expect("corpus domains are non-empty")
    }

    /// Full-corpus user count `n` (the paper's §VI-A.1 populations).
    pub fn total_users(self) -> usize {
        let (_, _, n, _) = self.spec();
        n
    }

    /// Parses `"ipums" | "fire"` (case-insensitive).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names.
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ipums" => Ok(DatasetKind::Ipums),
            "fire" => Ok(DatasetKind::Fire),
            other => Err(LdpError::invalid(format!(
                "unknown dataset '{other}' (ipums|fire)"
            ))),
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    #[test]
    fn ipums_matches_paper_dimensions() {
        let mut rng = rng_from_seed(1);
        // Scale down for test speed; dimensions verified proportionally.
        let ds = DatasetKind::Ipums.generate(0.01, &mut rng).unwrap();
        assert_eq!(ds.domain().size(), IPUMS_DOMAIN);
        assert_eq!(ds.len(), (IPUMS_USERS as f64 * 0.01).ceil() as usize);
    }

    #[test]
    fn fire_matches_paper_dimensions() {
        let mut rng = rng_from_seed(2);
        let ds = DatasetKind::Fire.generate(0.01, &mut rng).unwrap();
        assert_eq!(ds.domain().size(), FIRE_DOMAIN);
        assert_eq!(ds.len(), (FIRE_USERS as f64 * 0.01).ceil() as usize);
    }

    #[test]
    fn fire_is_flatter_than_ipums() {
        let mut rng = rng_from_seed(3);
        let ipums = DatasetKind::Ipums.generate(0.05, &mut rng).unwrap();
        let fire = DatasetKind::Fire.generate(0.05, &mut rng).unwrap();
        let top_ipums = ipums.true_frequencies().into_iter().fold(0.0, f64::max);
        let top_fire = fire.true_frequencies().into_iter().fold(0.0, f64::max);
        assert!(
            top_ipums > top_fire,
            "ipums head {top_ipums} vs fire head {top_fire}"
        );
    }

    #[test]
    fn full_scale_constants() {
        assert_eq!(IPUMS_DOMAIN, 102);
        assert_eq!(IPUMS_USERS, 389_894);
        assert_eq!(FIRE_DOMAIN, 490);
        assert_eq!(FIRE_USERS, 667_574);
    }

    #[test]
    fn generate_counts_matches_generate_dimensions() {
        for kind in DatasetKind::ALL {
            let mut rng = rng_from_seed(4);
            let (_, d, n, _) = kind.spec();
            for scale in [1.0, 0.01] {
                let pop = kind.generate_counts(scale, &mut rng).unwrap();
                assert_eq!(pop.domain().size(), d);
                let expect = if scale == 1.0 {
                    n
                } else {
                    (n as f64 * scale).ceil() as usize
                };
                assert_eq!(pop.len(), expect, "{kind} at scale {scale}");
                assert_eq!(
                    kind.users_at_scale(scale),
                    expect,
                    "{kind} at scale {scale}"
                );
            }
            assert!(kind.generate_counts(0.0, &mut rng).is_err());
            assert!(kind.generate_counts(1.5, &mut rng).is_err());
        }
    }

    #[test]
    fn generate_user_counts_matches_the_fraction_path_bitwise() {
        // The streaming engine's contract: generate_counts(scale) and
        // generate_user_counts(⌈n·scale⌉) consume the same RNG draws and
        // produce the same histogram — including at full scale.
        for kind in DatasetKind::ALL {
            let (_, _, n, _) = kind.spec();
            for scale in [0.004, 0.01, 1.0] {
                let users = ((n as f64) * scale).ceil().max(1.0) as usize;
                let by_scale = kind.generate_counts(scale, &mut rng_from_seed(77)).unwrap();
                let by_users = kind
                    .generate_user_counts(users, &mut rng_from_seed(77))
                    .unwrap();
                assert_eq!(by_scale.counts(), by_users.counts(), "{kind} @ {scale}");
                assert_eq!(by_scale.len(), by_users.len());
            }
            assert!(kind.generate_user_counts(0, &mut rng_from_seed(1)).is_err());
            // Streams may ingest more users than the static corpus held:
            // counts draw with replacement from the realized frequencies.
            let oversized = kind
                .generate_user_counts(n + 10_000, &mut rng_from_seed(1))
                .unwrap();
            assert_eq!(oversized.len(), n + 10_000);
        }
    }

    #[test]
    fn domain_users_and_parse_accessors() {
        assert_eq!(DatasetKind::Ipums.domain().size(), IPUMS_DOMAIN);
        assert_eq!(DatasetKind::Fire.domain().size(), FIRE_DOMAIN);
        assert_eq!(DatasetKind::Ipums.total_users(), IPUMS_USERS);
        assert_eq!(DatasetKind::Fire.total_users(), FIRE_USERS);
        assert_eq!(DatasetKind::parse("IPUMS").unwrap(), DatasetKind::Ipums);
        assert_eq!(DatasetKind::parse("fire").unwrap(), DatasetKind::Fire);
        assert!(DatasetKind::parse("census").is_err());
    }

    #[test]
    fn generate_counts_is_deterministic_per_seed() {
        let a = DatasetKind::Ipums
            .generate_counts(0.1, &mut rng_from_seed(9))
            .unwrap();
        let b = DatasetKind::Ipums
            .generate_counts(0.1, &mut rng_from_seed(9))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_counts_matches_materialized_frequencies() {
        // Same distribution as the item-materializing path: the realized
        // frequency vectors must agree within the multinomial envelope
        // (6σ per item at n ≈ 19.5k).
        let mut rng_counts = rng_from_seed(11);
        let mut rng_items = rng_from_seed(12);
        let scale = 0.05;
        let pop = DatasetKind::Ipums
            .generate_counts(scale, &mut rng_counts)
            .unwrap();
        let ds = DatasetKind::Ipums.generate(scale, &mut rng_items).unwrap();
        assert_eq!(pop.len(), ds.len());
        let n = pop.len() as f64;
        for (v, (&a, &b)) in pop
            .true_frequencies()
            .iter()
            .zip(&ds.true_frequencies())
            .enumerate()
        {
            let p = f64::midpoint(a, b);
            let sigma = (p.max(1e-6) * (1.0 - p) / n).sqrt();
            assert!((a - b).abs() < 6.0 * sigma * 2.0, "item {v}: {a} vs {b}");
        }
    }
}
