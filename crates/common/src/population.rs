//! Population accounting shared by the offline and streaming engines.

use crate::{LdpError, Result};

/// Number of malicious users accompanying `genuine` genuine ones at
/// corruption fraction `β`: `m = round(β/(1−β)·genuine)`, so that
/// `β = m/(n+m)` (paper §VI-A.3).
///
/// This is the **single** canonical form of the formula; the offline
/// config (`ExperimentConfig::malicious_count`) and the streaming spec
/// (`StreamSpec::malicious_count`), which share one rule in `ldp-sim`,
/// and the scenario catalog's key-value cells all route through it so a
/// future rounding tweak cannot silently fork one of them away from the
/// goldens (regression-pinned in `tests/determinism.rs`). The key-value
/// cells check their population with [`check_poisoned`] before they run,
/// as both specs' `validate` do.
///
/// `β ≤ 0` yields 0; callers gate on "an attack is configured" —
/// `β` alone does not decide whether poisoning happens.
///
/// # Panics
/// Debug-asserts `β < 1` (a full-corruption fraction has no finite `m`).
pub fn malicious_count(beta: f64, genuine: usize) -> usize {
    debug_assert!(beta < 1.0, "beta must be < 1, got {beta}");
    if beta <= 0.0 {
        return 0;
    }
    ((beta / (1.0 - beta)) * genuine as f64).round() as usize
}

/// Checks that a cell of `genuine` users is really poisoned at `β > 0`:
/// [`malicious_count`] rounds to 0 below roughly `(1−β)/(2β)` users (10
/// at β = 0.05), and such a cell would run unpoisoned while reporting an
/// attacked comparison. `cell` names the cell in the error. Passes at
/// `β ≤ 0`.
///
/// # Errors
/// [`LdpError::InvalidParameter`] naming the cell, its size and the
/// smallest size that gives one malicious user.
pub fn check_poisoned(beta: f64, genuine: usize, cell: &str) -> Result<()> {
    if beta <= 0.0 || malicious_count(beta, genuine) > 0 {
        return Ok(());
    }
    // `malicious_count` never falls as `n` grows: bisect for the first
    // size it makes non-zero.
    let needed = if malicious_count(beta, usize::MAX) == 0 {
        "more genuine users than a run can hold".to_string()
    } else {
        let (mut zero, mut poisoned) = (genuine, usize::MAX);
        while poisoned - zero > 1 {
            let mid = zero + (poisoned - zero) / 2;
            if malicious_count(beta, mid) == 0 {
                zero = mid;
            } else {
                poisoned = mid;
            }
        }
        format!("at least {poisoned} genuine users")
    };
    Err(LdpError::invalid(format!(
        "{cell} has {genuine} genuine users, and beta = {beta} gives them no malicious \
         user (round(beta/(1-beta)*{genuine}) = 0), so the attack would not run; an \
         attacked cell needs {needed}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_paper_formula() {
        // β = 0.05, n = 7798 (the scale-0.02 IPUMS population): the
        // paper's m = round(0.05/0.95 · 7798) = 410.
        assert_eq!(malicious_count(0.05, 7798), 410);
        assert_eq!(malicious_count(0.0, 1_000_000), 0);
        assert_eq!(malicious_count(-0.1, 50), 0);
        assert_eq!(malicious_count(0.5, 100), 100);
    }

    /// The check passes exactly where the count is non-zero and names the
    /// first size that is.
    #[test]
    fn poisoned_cells_need_one_malicious_user() {
        assert!(check_poisoned(0.0, 1, "clean").is_ok());
        for (beta, first) in [(0.05, 10usize), (0.2, 2), (0.5, 1), (0.001, 500)] {
            assert_eq!(malicious_count(beta, first - 1), 0, "beta={beta}");
            assert_eq!(malicious_count(beta, first), 1, "beta={beta}");
            assert!(check_poisoned(beta, first, "cell").is_ok());
            if first > 1 {
                let err = check_poisoned(beta, first - 1, "the cell").unwrap_err();
                let text = err.to_string();
                assert!(matches!(err, LdpError::InvalidParameter(_)), "{text}");
                assert!(
                    text.contains(&format!("has {} genuine", first - 1)),
                    "{text}"
                );
                assert!(
                    text.contains(&format!("at least {first} genuine")),
                    "{text}"
                );
            }
        }
        let err = check_poisoned(1e-300, 5, "a cell").unwrap_err().to_string();
        assert!(
            err.contains("more genuine users than a run can hold"),
            "{err}"
        );
    }

    #[test]
    fn beta_is_recovered_from_the_count() {
        for beta in [0.001, 0.01, 0.05, 0.1, 0.2, 0.25] {
            for n in [1_000usize, 50_000, 1_000_000] {
                let m = malicious_count(beta, n);
                let realized = m as f64 / (n + m) as f64;
                assert!(
                    (realized - beta).abs() < 1.0 / n as f64,
                    "beta={beta}, n={n}: realized {realized}"
                );
            }
        }
    }
}
