#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! **LDPRecover** — recovering frequencies from poisoning attacks against
//! local differential privacy (Sun et al., ICDE 2024).
//!
//! The server aggregates *poisoned* frequencies `f̃_Z` from a mixture of `n`
//! genuine and `m` malicious users. LDPRecover recovers the genuine
//! frequencies in three steps (paper §V):
//!
//! 1. **Estimator construction** ([`estimator`]) — the genuine frequency
//!    estimator `f̃_X(v) = (1+η)·f̃_Z(v) − η·f̃_Y(v)` (Eq. 19), with the
//!    CLT moments of Lemmas 1–2 / Theorem 1 available for analysis.
//! 2. **Malicious frequency learning** ([`malicious`]) — without attack
//!    knowledge, the *sum* of malicious aggregated frequencies is the
//!    protocol constant `(1 − q·d)/(p − q)` (Eq. 21), spread uniformly over
//!    the plausibly-poisoned sub-domain (Eq. 26); with partial knowledge of
//!    the target set the per-item model of Eq. (30) applies.
//! 3. **Genuine frequency recovery** ([`solve`], [`recover`]) — a
//!    constraint-inference least-squares problem solved by the iterative
//!    KKT scheme of Algorithm 1 (norm-sub).
//!
//! The crate also hosts the paper's baselines and extensions:
//! [`detection`] (report filtering on target signatures), [`kmeans`]
//! (subset clustering against input poisoning + LDPRecover-KM), [`outlier`]
//! (target identification for the partial-knowledge arm), and [`theory`]
//! (the Berry–Esseen approximation-error bounds of Theorems 4–5).
//!
//! All of these defenses, plus two plain normalization baselines, are
//! selected through one closed registry: the [`arm`] module's
//! [`ArmKind`]/[`ArmSet`], whose [`Arm`] steps dispatch on the kind.
//! Downstream evaluation layers (the `ldp-sim` pipeline, the `ldp` CLI)
//! select defenses by name (`recover,detection,norm-sub`) and never
//! hard-code one.
//!
//! # Example
//!
//! ```
//! use ldp_common::Domain;
//! use ldp_protocols::PureParams;
//! use ldprecover::LdpRecover;
//!
//! // A 4-item domain where the server aggregated poisoned frequencies.
//! let domain = Domain::new(4).unwrap();
//! let params = PureParams::new(0.5, 1.0 / 6.0, domain).unwrap();
//! let poisoned = vec![0.55, 0.30, 0.18, -0.03];
//!
//! let recover = LdpRecover::new(0.2).unwrap();
//! let outcome = recover.recover(&poisoned, params).unwrap();
//! let f = &outcome.frequencies;
//! assert!(f.iter().all(|&x| x >= 0.0));
//! assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod arm;
pub mod detection;
pub mod estimator;
pub mod kmeans;
pub mod malicious;
pub mod outlier;
pub mod recover;
pub mod solve;
pub mod theory;

pub use arm::{Arm, ArmContext, ArmKind, ArmOutcome, ArmOutput, ArmSet};
pub use detection::Detection;
pub use kmeans::{KMeansDefense, KMeansOutcome};
pub use malicious::MaliciousSumModel;
pub use outlier::{top_k_increase, MovingAverageDetector};
pub use recover::{LdpRecover, RecoveryOutcome};
pub use solve::PostProcess;
