//! ε-LDP verification for every protocol (Definition 1 of the paper):
//! for any two inputs `v₁, v₂` and any output set `T`,
//! `Pr[Ψ(v₁) ∈ T] ≤ e^ε · Pr[Ψ(v₂) ∈ T]`.
//!
//! For the discrete mechanisms here the worst-case likelihood ratio has a
//! closed form, which we check analytically from the protocol parameters,
//! and we confirm empirically that observed output frequencies respect the
//! bound. An ε audit samples every protocol's `perturb` and bounds its
//! ε from below: at most the claimed ε, and close to it.

use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_protocols::{
    BinaryRandomizedResponse, Grr, LdpFrequencyProtocol, Olh, ProtocolKind, UnaryEncoding,
};

const EPSILONS: [f64; 3] = [0.5, 1.0, 2.0];

#[test]
fn grr_worst_case_ratio_is_exactly_e_epsilon() {
    // GRR: Pr[output = v | input = v] / Pr[output = v | input = w] = p/q.
    let domain = Domain::new(102).unwrap();
    for eps in EPSILONS {
        let grr = Grr::new(eps, domain).unwrap();
        let ratio = grr.params().p() / grr.params().q();
        assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps}: ratio={ratio}");
    }
}

#[test]
fn rr_worst_case_ratio_is_exactly_e_epsilon() {
    for eps in EPSILONS {
        let rr = BinaryRandomizedResponse::new(eps).unwrap();
        let ratio = rr.params().p() / rr.params().q();
        assert!((ratio - eps.exp()).abs() < 1e-9);
    }
}

#[test]
fn oue_per_report_ratio_is_exactly_e_epsilon() {
    // OUE: the likelihood ratio between inputs v and w for a full report
    // is maximized by the bit pattern (bit_v = 1, bit_w = 0):
    //   [p/q] · [(1−q)/(1−p)] with p = 1/2, q = 1/(e^ε+1)
    // = [ (1/2)/(1/(e^ε+1)) ] · [ (e^ε/(e^ε+1)) / (1/2) ] = e^ε.
    let domain = Domain::new(64).unwrap();
    for eps in EPSILONS {
        let oue = UnaryEncoding::oue(eps, domain).unwrap();
        let (p, q) = (oue.params().p(), oue.params().q());
        let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
        assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps}: ratio={ratio}");
    }
}

#[test]
fn sue_per_report_ratio_is_exactly_e_epsilon() {
    // SUE: p = e^{ε/2}/(1+e^{ε/2}), q = 1−p; the two-bit worst case gives
    // (p/q)² = e^ε.
    let domain = Domain::new(64).unwrap();
    for eps in EPSILONS {
        let sue = UnaryEncoding::sue(eps, domain).unwrap();
        let (p, q) = (sue.params().p(), sue.params().q());
        let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
        assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps}: ratio={ratio}");
    }
}

#[test]
fn olh_inner_grr_ratio_is_exactly_e_epsilon() {
    // OLH perturbs the hashed value with GRR over {0..g−1}:
    // p_grr/q_grr = e^ε with p_grr = e^ε/(e^ε+g−1), q_grr = 1/(e^ε+g−1).
    // (The support probabilities p, q = 1/g differ — privacy is a property
    // of the *mechanism*, not the support relation.)
    let domain = Domain::new(64).unwrap();
    for eps in EPSILONS {
        let olh = Olh::new(eps, domain).unwrap();
        let g = f64::from(olh.range());
        let p_grr = eps.exp() / (eps.exp() + g - 1.0);
        let q_grr = 1.0 / (eps.exp() + g - 1.0);
        assert!(((p_grr / q_grr) - eps.exp()).abs() < 1e-9);
    }
}

#[test]
fn grr_empirical_output_distribution_respects_the_bound() {
    // Empirical check: for every output o,
    // rate(o | input a) ≤ e^ε · rate(o | input b) within sampling noise.
    let d = 12usize;
    let domain = Domain::new(d).unwrap();
    let eps = 1.0;
    let grr = Grr::new(eps, domain).unwrap();
    let n = 300_000usize;
    let mut rng = rng_from_seed(5);
    let mut rates = vec![vec![0f64; d]; 2];
    for (input, rate) in [3usize, 9].into_iter().zip(rates.iter_mut()) {
        for _ in 0..n {
            rate[grr.perturb(input, &mut rng) as usize] += 1.0;
        }
        for r in rate.iter_mut() {
            *r /= n as f64;
        }
    }
    let bound = eps.exp();
    for (o, (&ra, &rb)) in rates[0].iter().zip(&rates[1]).enumerate() {
        // 5σ slack on each observed rate.
        let slack = 5.0 * (ra.max(rb) / n as f64).sqrt();
        assert!(
            ra <= bound * rb + slack * (1.0 + bound),
            "output {o}: {ra} vs e^ε·{rb}"
        );
        assert!(
            rb <= bound * ra + slack * (1.0 + bound),
            "output {o} (reverse)"
        );
    }
}

#[test]
fn oue_empirical_per_bit_ratios_respect_the_bound() {
    // For the v-th bit, P[bit=1 | holder] = p and P[bit=1 | non-holder] = q;
    // the empirical ratio must stay within e^ε (it equals e^ε·(…) < e^ε
    // for the one-sided event; the two-bit joint achieves e^ε exactly).
    let d = 16usize;
    let domain = Domain::new(d).unwrap();
    let eps = 1.0;
    let oue = UnaryEncoding::oue(eps, domain).unwrap();
    let n = 200_000usize;
    let mut rng = rng_from_seed(6);
    let mut one_rate_holder = 0f64;
    let mut one_rate_other = 0f64;
    for _ in 0..n {
        let r = oue.perturb(2, &mut rng);
        if r.get(2) {
            one_rate_holder += 1.0;
        }
        if r.get(7) {
            one_rate_other += 1.0;
        }
    }
    one_rate_holder /= n as f64;
    one_rate_other /= n as f64;
    let ratio = one_rate_holder / one_rate_other;
    assert!(
        ratio <= eps.exp() + 0.05,
        "per-bit ratio {ratio} exceeds e^ε"
    );
}

#[test]
fn larger_epsilon_is_strictly_less_private_for_all_protocols() {
    // Monotonicity sanity: the worst-case ratio grows with ε.
    let domain = Domain::new(32).unwrap();
    let ratio_grr = |eps: f64| {
        let g = Grr::new(eps, domain).unwrap();
        g.params().p() / g.params().q()
    };
    let ratio_oue = |eps: f64| {
        let o = UnaryEncoding::oue(eps, domain).unwrap();
        (o.params().p() / o.params().q()) * ((1.0 - o.params().q()) / (1.0 - o.params().p()))
    };
    assert!(ratio_grr(0.5) < ratio_grr(1.0));
    assert!(ratio_oue(0.5) < ratio_oue(1.0));
}

/// One-sided Wilson score bound on a success probability from `hits` of
/// `n` draws, at z = 4.753 (a 10⁻⁶ tail): the upper bound if `upper`,
/// else the lower.
fn wilson_bound(hits: usize, n: usize, upper: bool) -> f64 {
    let z = 4.753f64;
    let (n, rate) = (n as f64, hits as f64 / n as f64);
    let centre = rate + z * z / (2.0 * n);
    let half = z * (rate * (1.0 - rate) / n + z * z / (4.0 * n * n)).sqrt();
    let side = if upper { half } else { -half };
    (centre + side) / (1.0 + z * z / n)
}

#[test]
fn empirical_epsilon_audit_of_every_protocol() {
    // For inputs v₁ ≠ v₂, the event "the report supports v₁ but not v₂"
    // has likelihood ratio exactly e^ε under each protocol: GRR outputs
    // v₁ (p against q); OUE and SUE set bit v₁ and clear bit v₂ (p(1−q)
    // against q(1−p)); OLH's value is H(v₁) ≠ H(v₂) (the inner GRR's
    // keep against switch probability); HR's column is positive in
    // v₁'s row and negative in v₂'s (p/2 against (1−p)/2). From 200,000
    // reports per input, a 10⁻⁶ lower bound on P(event | v₁) over a 10⁻⁶
    // upper bound on P(event | v₂) bounds ε from below: that bound must
    // not exceed ε (no protocol leaks more than it claims) and must come
    // within 0.1 of it (none is noisier than it claims either).
    let domain = Domain::new(6).unwrap();
    let (v1, v2) = (1, 4);
    let n = 200_000usize;
    let mut rng = rng_from_seed(24);
    for kind in ProtocolKind::EXTENDED {
        for eps in EPSILONS {
            let protocol = kind.build(eps, domain).unwrap();
            let mut hits = |input: usize| {
                (0..n)
                    .filter(|_| {
                        let report = protocol.perturb(input, &mut rng);
                        protocol.supports(&report, v1) && !protocol.supports(&report, v2)
                    })
                    .count()
            };
            let (from_v1, from_v2) = (hits(v1), hits(v2));
            let eps_lb = (wilson_bound(from_v1, n, false) / wilson_bound(from_v2, n, true)).ln();
            assert!(
                eps_lb <= eps && eps_lb >= eps - 0.1,
                "{kind} ε={eps}: empirical lower bound {eps_lb:.3} \
                 ({from_v1} vs {from_v2} of {n})"
            );
        }
    }
}
