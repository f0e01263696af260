//! Heterogeneous protocol dispatch: the [`Report`] and [`AnyProtocol`]
//! closed enums plus the [`ProtocolKind`] factory.
//!
//! Experiment code runs the same pipeline over all five protocols. A trait
//! object would erase the associated `Report` type; instead the workspace
//! uses closed enums — the protocol set is fixed — which keeps the hot
//! loops branch-predictable and the APIs object-safe-by-construction.

use ldp_common::{BitVec, Domain, LdpError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::grr::Grr;
use crate::hadamard::HadamardResponse;
use crate::olh::{Olh, OlhReport};
use crate::params::PureParams;
use crate::traits::LdpFrequencyProtocol;
use crate::unary::UnaryEncoding;

/// A report from any of the five frequency protocols.
///
/// OUE and SUE share one variant so that only one variant holds a
/// [`BitVec`]: the enum's tag then fits in the niche of that `Vec`'s
/// capacity, and a report takes the bit vector's 32 bytes (40 with a
/// second `BitVec` variant). A per-user trial retains every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Report {
    /// GRR: the (perturbed) item index.
    Grr(u32),
    /// OUE / SUE: the (perturbed) d-bit unary encoding.
    Unary(BitVec),
    /// OLH: the sampled hash function and (perturbed) hashed value.
    Olh(OlhReport),
    /// HR: the reported Hadamard column index (extension protocol).
    Hr(u32),
}

impl Report {
    /// The variant's name, for the panics that catch a report fed to the
    /// wrong protocol. OUE and SUE reports share the tag `"unary"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Report::Grr(_) => "GRR",
            Report::Unary(_) => "unary",
            Report::Olh(_) => "OLH",
            Report::Hr(_) => "HR",
        }
    }
}

/// Which protocol an experiment runs (paper §VI-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Generalized randomized response.
    Grr,
    /// Optimized unary encoding.
    Oue,
    /// Optimized local hashing.
    Olh,
    /// Symmetric unary encoding (basic RAPPOR) — extension beyond the
    /// paper's trio; not part of [`ProtocolKind::ALL`].
    Sue,
    /// Hadamard response — extension beyond the paper's trio; not part of
    /// [`ProtocolKind::ALL`].
    Hr,
}

impl ProtocolKind {
    /// The paper's three protocols, in its presentation order.
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Grr, ProtocolKind::Oue, ProtocolKind::Olh];

    /// The paper's trio plus the SUE and HR extensions.
    pub const EXTENDED: [ProtocolKind; 5] = [
        ProtocolKind::Grr,
        ProtocolKind::Oue,
        ProtocolKind::Olh,
        ProtocolKind::Sue,
        ProtocolKind::Hr,
    ];

    /// Instantiates the protocol for `(ε, D)`.
    ///
    /// # Errors
    /// Propagates the protocol constructors' validation failures.
    pub fn build(self, epsilon: f64, domain: Domain) -> Result<AnyProtocol> {
        Ok(match self {
            ProtocolKind::Grr => AnyProtocol::Grr(Grr::new(epsilon, domain)?),
            ProtocolKind::Oue => AnyProtocol::Unary(UnaryEncoding::oue(epsilon, domain)?),
            ProtocolKind::Olh => AnyProtocol::Olh(Olh::new(epsilon, domain)?),
            ProtocolKind::Sue => AnyProtocol::Unary(UnaryEncoding::sue(epsilon, domain)?),
            ProtocolKind::Hr => AnyProtocol::Hr(HadamardResponse::new(epsilon, domain)?),
        })
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Grr => "GRR",
            ProtocolKind::Oue => "OUE",
            ProtocolKind::Olh => "OLH",
            ProtocolKind::Sue => "SUE",
            ProtocolKind::Hr => "HR",
        }
    }

    /// Parses `"GRR" | "OUE" | "OLH" | "SUE" | "HR"` (case-insensitive) —
    /// the paper's trio plus both extension protocols.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names.
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_uppercase().as_str() {
            "GRR" => Ok(ProtocolKind::Grr),
            "OUE" => Ok(ProtocolKind::Oue),
            "OLH" => Ok(ProtocolKind::Olh),
            "SUE" => Ok(ProtocolKind::Sue),
            "HR" => Ok(ProtocolKind::Hr),
            other => Err(LdpError::invalid(format!("unknown protocol '{other}'"))),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A closed sum over the four protocol types (five protocols: OUE and SUE
/// are both [`UnaryEncoding`]), exposing the [`LdpFrequencyProtocol`]
/// surface with [`Report`] as the report type.
#[derive(Debug, Clone, Copy)]
pub enum AnyProtocol {
    /// Generalized randomized response.
    Grr(Grr),
    /// Unary encoding: optimized (OUE) or symmetric (SUE, extension).
    Unary(UnaryEncoding),
    /// Optimized local hashing.
    Olh(Olh),
    /// Hadamard response (extension).
    Hr(HadamardResponse),
}

impl AnyProtocol {
    /// Which protocol this is.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            AnyProtocol::Grr(_) => ProtocolKind::Grr,
            AnyProtocol::Unary(x) => x.kind(),
            AnyProtocol::Olh(_) => ProtocolKind::Olh,
            AnyProtocol::Hr(_) => ProtocolKind::Hr,
        }
    }

    /// Adds the support counts of the reports an iterator yields, through
    /// the protocol's batch kernel: bitwise what looping
    /// [`LdpFrequencyProtocol::accumulate`] gives. HR folds through the
    /// FWHT and OLH through its per-batch hash lanes, each fed an iterator
    /// so no report is copied; the unary encodings and GRR have no batch
    /// kernel, so the per-report loop serves. This is
    /// [`LdpFrequencyProtocol::accumulate_all`] for any subset of a slice,
    /// such as the reports a keep-mask retains.
    ///
    /// # Panics
    /// Panics on a report of another protocol or if `counts.len() != d`.
    pub fn accumulate_reports<'a, I>(&self, reports: I, counts: &mut [u64])
    where
        I: IntoIterator<Item = &'a Report>,
    {
        match self {
            AnyProtocol::Hr(x) => x.accumulate_columns(
                reports.into_iter().map(|r| match r {
                    Report::Hr(c) => *c,
                    other => self.report_mismatch(other),
                }),
                counts,
            ),
            AnyProtocol::Olh(x) => x.accumulate_reports(
                reports.into_iter().map(|r| match r {
                    Report::Olh(r) => *r,
                    other => self.report_mismatch(other),
                }),
                counts,
            ),
            _ => {
                for r in reports {
                    self.accumulate(r, counts);
                }
            }
        }
    }

    /// Panics with a clear message when a report of the wrong protocol is
    /// fed in — that is always a harness bug, never a runtime condition.
    #[cold]
    fn report_mismatch(&self, report: &Report) -> ! {
        panic!(
            "report kind {} fed to protocol {}",
            report.tag(),
            self.kind()
        );
    }
}

impl LdpFrequencyProtocol for AnyProtocol {
    type Report = Report;

    fn name(&self) -> &'static str {
        self.kind().name()
    }

    fn domain(&self) -> Domain {
        match self {
            AnyProtocol::Grr(x) => x.domain(),
            AnyProtocol::Unary(x) => x.domain(),
            AnyProtocol::Olh(x) => x.domain(),
            AnyProtocol::Hr(x) => x.domain(),
        }
    }

    fn epsilon(&self) -> f64 {
        match self {
            AnyProtocol::Grr(x) => x.epsilon(),
            AnyProtocol::Unary(x) => x.epsilon(),
            AnyProtocol::Olh(x) => x.epsilon(),
            AnyProtocol::Hr(x) => x.epsilon(),
        }
    }

    fn params(&self) -> PureParams {
        match self {
            AnyProtocol::Grr(x) => x.params(),
            AnyProtocol::Unary(x) => x.params(),
            AnyProtocol::Olh(x) => x.params(),
            AnyProtocol::Hr(x) => x.params(),
        }
    }

    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> Report {
        match self {
            AnyProtocol::Grr(x) => Report::Grr(x.perturb(item, rng)),
            AnyProtocol::Unary(x) => Report::Unary(x.perturb(item, rng)),
            AnyProtocol::Olh(x) => Report::Olh(x.perturb(item, rng)),
            AnyProtocol::Hr(x) => Report::Hr(x.perturb(item, rng)),
        }
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> Report {
        match self {
            AnyProtocol::Grr(x) => Report::Grr(x.encode_clean(item, rng)),
            AnyProtocol::Unary(x) => Report::Unary(x.encode_clean(item, rng)),
            AnyProtocol::Olh(x) => Report::Olh(x.encode_clean(item, rng)),
            AnyProtocol::Hr(x) => Report::Hr(x.encode_clean(item, rng)),
        }
    }

    fn supports(&self, report: &Report, v: usize) -> bool {
        match (self, report) {
            (AnyProtocol::Grr(x), Report::Grr(r)) => x.supports(r, v),
            (AnyProtocol::Unary(x), Report::Unary(r)) => x.supports(r, v),
            (AnyProtocol::Olh(x), Report::Olh(r)) => x.supports(r, v),
            (AnyProtocol::Hr(x), Report::Hr(r)) => x.supports(r, v),
            _ => self.report_mismatch(report),
        }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) {
        match (self, report) {
            (AnyProtocol::Grr(x), Report::Grr(r)) => x.accumulate(r, counts),
            (AnyProtocol::Unary(x), Report::Unary(r)) => x.accumulate(r, counts),
            (AnyProtocol::Olh(x), Report::Olh(r)) => x.accumulate(r, counts),
            (AnyProtocol::Hr(x), Report::Hr(r)) => x.accumulate(r, counts),
            _ => self.report_mismatch(report),
        }
    }

    fn accumulate_all(&self, reports: &[Report], counts: &mut [u64]) {
        self.accumulate_reports(reports, counts);
    }

    fn batch_aggregate<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Option<Vec<u64>> {
        match self {
            AnyProtocol::Grr(x) => x.batch_aggregate(item_counts, rng),
            AnyProtocol::Unary(x) => x.batch_aggregate(item_counts, rng),
            AnyProtocol::Olh(x) => x.batch_aggregate(item_counts, rng),
            AnyProtocol::Hr(x) => x.batch_aggregate(item_counts, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    #[test]
    fn factory_builds_each_kind() {
        let domain = Domain::new(10).unwrap();
        for kind in ProtocolKind::EXTENDED {
            let p = kind.build(0.5, domain).unwrap();
            assert_eq!(p.kind(), kind);
            assert_eq!(p.domain().size(), 10);
            assert_eq!(p.epsilon(), 0.5);
        }
    }

    #[test]
    fn parse_roundtrips() {
        for kind in ProtocolKind::EXTENDED {
            assert_eq!(ProtocolKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(
                ProtocolKind::parse(&kind.name().to_lowercase()).unwrap(),
                kind
            );
        }
        assert!(ProtocolKind::parse("RAPPOR").is_err());
        // Near-misses of the extension names must be rejected too, not
        // silently coerced (regression for the SUE/HR parse-doc drift).
        assert!(ProtocolKind::parse("").is_err());
        assert!(ProtocolKind::parse("SUE2").is_err());
        assert!(ProtocolKind::parse("H R").is_err());
    }

    #[test]
    fn dispatch_is_consistent_with_concrete_protocols() {
        let domain = Domain::new(12).unwrap();
        let mut rng = rng_from_seed(5);
        for kind in ProtocolKind::EXTENDED {
            let p = kind.build(0.8, domain).unwrap();
            let r = p.perturb(4, &mut rng);
            assert!(
                matches!(
                    (&p, &r),
                    (AnyProtocol::Grr(_), Report::Grr(_))
                        | (AnyProtocol::Unary(_), Report::Unary(_))
                        | (AnyProtocol::Olh(_), Report::Olh(_))
                        | (AnyProtocol::Hr(_), Report::Hr(_))
                ),
                "{kind}: {} report from a {} protocol",
                r.tag(),
                p.name()
            );
            let mut counts = vec![0u64; 12];
            p.accumulate(&r, &mut counts);
            for (v, &count) in counts.iter().enumerate() {
                assert_eq!(count == 1, p.supports(&r, v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "report kind")]
    fn mismatched_report_panics() {
        let domain = Domain::new(4).unwrap();
        let grr = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut counts = vec![0u64; 4];
        grr.accumulate(&Report::Unary(BitVec::zeros(4)), &mut counts);
    }
}
