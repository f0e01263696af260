// Fixture: P02 twin — every draw has a defined position in exactly one
// stream: sequential `let`s fix the consumption order, independent
// streams come from derive_seed2 instead of clone(), and the trial
// fan-out derives a per-trial stream *inside* the closure.
use ldp_common::rng::{derive_seed2, rng_from_seed};
use rand::Rng;

pub fn ordered(rng: &mut R) -> u64 {
    let a = rng.next_u64();
    let b = rng.next_u64();
    a ^ b
}

pub fn ordered_pair(rng: &mut impl Rng) -> (u64, u64) {
    let first = rng.random_range(0..10);
    let second = rng.random_range(0..10);
    pair(draw(first), draw(second))
}

pub fn independent(master: u64) -> u64 {
    let mut fresh = rng_from_seed(derive_seed2(master, 9, 0));
    fresh.next_u64()
}

pub fn independent_streams(master: u64) -> u64 {
    let mut a_rng = rng_from_seed(derive_seed2(master, 0, 0));
    let mut b_rng = rng_from_seed(derive_seed2(master, 1, 0));
    combine(sample(3, &mut a_rng), sample(7, &mut b_rng))
}

pub fn per_trial(master: u64) -> Vec<u64> {
    map_trials(8, 2, move |trial| {
        let mut trial_rng = rng_from_seed(derive_seed2(master, trial as u64, 0));
        trial_rng.next_u64()
    })
}

pub fn map_trials(n_trials: usize, threads: usize, run: fn(usize) -> u64) -> Vec<u64> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_be_sloppy_about_order() {
        let mut rng = rng_from_seed(7);
        let _ = pair(draw(rng.random_range(0..10)), draw(rng.random_range(0..10)));
    }
}
