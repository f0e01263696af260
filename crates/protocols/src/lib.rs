#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Pure LDP protocols for frequency estimation.
//!
//! Implements the three protocols the LDPRecover paper evaluates (§III-B) —
//! **GRR** (generalized randomized response), **OUE** (optimized unary
//! encoding), and **OLH** (optimized local hashing) — and two extensions,
//! **SUE** (symmetric unary encoding, basic RAPPOR) and **HR** (Hadamard
//! response), plus the binary randomized response / **Harmony**
//! mean-estimation pair used in the paper's discussion of other
//! aggregation functions (§VII-A).
//!
//! All five frequency protocols are *pure* in the sense of Wang et al.
//! (USENIX Security 2017): a report `ỹ` *supports* a set of items `S(ỹ)`,
//! the true item is supported with probability `p`, any other fixed item
//! with probability `q < p`, and the server debiases raw support counts via
//! the shared estimator (paper Eq. (11))
//!
//! ```text
//! Φ(v) = (C(v) − N·q) / (p − q),       f̃(v) = Φ(v) / N.
//! ```
//!
//! # Structure
//!
//! * [`params::PureParams`] — the `(p, q, d)` triple plus the shared
//!   debiasing / variance algebra every layer above builds on.
//! * [`traits::LdpFrequencyProtocol`] — the statically-dispatched protocol
//!   interface (perturb, clean-encode, support, accumulate).
//! * [`grr`], [`unary`], [`olh`], [`hadamard`] — the concrete protocols.
//!   OUE and SUE are one type, [`UnaryEncoding`], built with the `(p, q)`
//!   of either; only their [`ProtocolKind`] tells them apart.
//! * [`report::Report`] / [`report::AnyProtocol`] — closed enums over the
//!   four protocol types so heterogeneous experiment code stays
//!   monomorphic.
//! * [`accumulate::CountAccumulator`] — streaming support-count aggregation.
//! * [`batch`] — count-based batched aggregation: sample a whole
//!   population's support counts in `O(d)`–`O(d·log n)` instead of
//!   simulating `n` users (the `batch_aggregate` trait hook).
//! * [`rr`] / [`harmony`] — binary randomized response and Harmony mean
//!   estimation built on top of it.
//!
//! # Example
//!
//! ```
//! use ldp_common::{rng::rng_from_seed, Domain};
//! use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
//!
//! let domain = Domain::new(16).unwrap();
//! let proto = ProtocolKind::Oue.build(1.0, domain).unwrap();
//! let mut rng = rng_from_seed(7);
//!
//! // 10k users all holding item 3.
//! let mut acc = CountAccumulator::new(domain);
//! for _ in 0..10_000 {
//!     let report = proto.perturb(3, &mut rng);
//!     acc.add(&proto, &report);
//! }
//! let freqs = acc.frequencies(proto.params()).unwrap();
//! assert!((freqs[3] - 1.0).abs() < 0.05); // unbiased: ≈ 1.0
//! ```

pub mod accumulate;
pub mod batch;
pub mod grr;
pub mod hadamard;
pub mod harmony;
pub mod olh;
pub mod params;
pub mod report;
pub mod rr;
pub mod traits;
pub mod unary;

pub use accumulate::CountAccumulator;
pub use batch::{HrScratch, ProtocolScratch};
pub use grr::Grr;
pub use hadamard::HadamardResponse;
pub use harmony::Harmony;
pub use olh::{Olh, OlhLanes};
pub use params::PureParams;
pub use report::{AnyProtocol, ProtocolKind, Report};
pub use rr::BinaryRandomizedResponse;
pub use traits::LdpFrequencyProtocol;
pub use unary::UnaryEncoding;
