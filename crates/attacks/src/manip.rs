//! The untargeted manipulation attack of Cheu, Smith & Ullman (S&P 2021),
//! as instantiated by the LDPRecover evaluation (§VI-A.3): "we first sample
//! a malicious data domain `H` from the data domain `D`, and then draw
//! uniform samples (malicious data) from `H`".
//!
//! The attack degrades overall accuracy by concentrating spurious support
//! mass on `H`; it has no target set.

use ldp_common::sampling::sample_distinct;
use ldp_common::Domain;
use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, Report};
use rand::Rng;

/// Manip: uniform clean encodings over a sampled sub-domain `H ⊆ D`.
#[derive(Debug, Clone)]
pub struct Manip {
    subdomain: Vec<usize>,
}

impl Manip {
    /// Builds the attack over an explicit sub-domain.
    ///
    /// # Panics
    /// Panics if `subdomain` is empty.
    pub fn new(subdomain: Vec<usize>) -> Self {
        assert!(!subdomain.is_empty(), "Manip sub-domain must be non-empty");
        Self { subdomain }
    }

    /// Samples a size-`h` sub-domain uniformly from `domain`.
    ///
    /// # Panics
    /// Panics if `h == 0` or `h > d`.
    pub fn sample<R: Rng + ?Sized>(domain: Domain, h: usize, rng: &mut R) -> Self {
        assert!(h >= 1 && h <= domain.size(), "need 1 ≤ h ≤ d");
        Self::new(sample_distinct(domain.size(), h, rng))
    }

    /// The malicious sub-domain `H`.
    pub fn subdomain(&self) -> &[usize] {
        &self.subdomain
    }

    /// Crafts the reports the `m` malicious users send to the server.
    pub fn craft<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
    ) -> Vec<Report> {
        (0..m)
            .map(|_| {
                let item = self.subdomain[rng.gen_range(0..self.subdomain.len())];
                protocol.encode_clean(item, rng)
            })
            .collect()
    }

    /// The count form of [`Manip::craft`] on OUE and SUE, whose clean
    /// encoding sets the item's bit alone and draws nothing.
    pub(crate) fn craft_unary_counts<R: Rng + ?Sized>(
        &self,
        m: usize,
        rng: &mut R,
        counts: &mut [u64],
    ) {
        for _ in 0..m {
            counts[self.subdomain[rng.gen_range(0..self.subdomain.len())]] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_protocols::ProtocolKind;

    #[test]
    fn sample_respects_bounds() {
        let mut rng = rng_from_seed(1);
        let domain = Domain::new(20).unwrap();
        let attack = Manip::sample(domain, 5, &mut rng);
        assert_eq!(attack.subdomain().len(), 5);
        assert!(attack.subdomain().iter().all(|&v| v < 20));
        assert!(crate::Attack::Manip(attack).targets().is_none());
    }

    #[test]
    #[should_panic(expected = "1 ≤ h ≤ d")]
    fn sample_rejects_oversized_subdomain() {
        let mut rng = rng_from_seed(2);
        let _ = Manip::sample(Domain::new(4).unwrap(), 5, &mut rng);
    }

    #[test]
    fn crafted_reports_stay_in_subdomain_for_grr() {
        let domain = Domain::new(30).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(3);
        let attack = Manip::new(vec![3, 7, 11]);
        let reports = attack.craft(&proto, 500, &mut rng);
        assert_eq!(reports.len(), 500);
        for r in &reports {
            match r {
                Report::Grr(v) => assert!([3u32, 7, 11].contains(v)),
                other => panic!("unexpected report {other:?}"),
            }
        }
    }

    #[test]
    fn crafted_reports_support_subdomain_items() {
        let domain = Domain::new(16).unwrap();
        let mut rng = rng_from_seed(4);
        let attack = Manip::new(vec![2, 9]);
        for kind in ProtocolKind::ALL {
            let proto = kind.build(0.5, domain).unwrap();
            let reports = attack.craft(&proto, 100, &mut rng);
            // Every clean encoding must support the item it encodes, so at
            // least one of the two sub-domain items is supported.
            for r in &reports {
                assert!(
                    proto.supports(r, 2) || proto.supports(r, 9),
                    "{kind:?} report supports neither sub-domain item"
                );
            }
        }
    }
}
