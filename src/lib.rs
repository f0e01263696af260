#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Umbrella crate for the LDPRecover (Sun et al., ICDE 2024) reproduction.
//!
//! This crate contains no logic of its own: it re-exports the seven
//! library crates so the repository-level integration tests under
//! `tests/` and the runnable `examples/` have a single dependency root,
//! and so `cargo doc` renders one entry point covering the whole system.
//!
//! # Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`ldp_common`] | Domains, RNG plumbing, hashing, bit vectors, vector math, statistics |
//! | [`ldp_protocols`] | GRR / OUE / OLH / SUE / HR pure LDP protocols + binary RR / Harmony |
//! | [`ldp_attacks`] | The closed set of poisoning attacks: Manip, MGA, and the adaptive family (AA, sampled MGA, AA-C, MGA-IPA, MUL-AA) |
//! | [`ldprecover`] | The recovery pipeline: estimator, malicious learning, norm-sub solver |
//! | [`ldp_datasets`] | IPUMS/Fire-shaped synthetic corpora and dataset loading |
//! | [`ldp_kv`] | Key-value LDP extension (PrivKV-style protocol, M2GA, LDPRecover-KV) |
//! | [`ldp_sim`] | Trial pipeline, multi-trial runner, metrics, scenario catalog, streaming engine, the `ldp` CLI |

pub use ldp_attacks;
pub use ldp_common;
pub use ldp_datasets;
pub use ldp_kv;
pub use ldp_protocols;
pub use ldp_sim;
pub use ldprecover;
