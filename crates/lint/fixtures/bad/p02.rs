// Fixture: P02 — the three RNG stream-discipline shapes. (a) One RNG
// drawn from in two argument positions of one call, or feeding two calls,
// inside a single statement consumes the stream in evaluation order,
// which the next refactor silently reshuffles; (b) cloning an RNG forks
// the stream into replayed draws; (c) an RNG captured by a closure handed
// to a trial fan-out draws in scheduler order.
use rand::Rng;

pub fn double_draw(rng: &mut R) -> u64 {
    rng.next_u64() ^ rng.next_u64() //~ P02
}

pub fn poisoned_pair(rng: &mut impl Rng) -> (u64, u64) {
    pair(draw(rng.random_range(0..10)), draw(rng.random_range(0..10))) //~ P02
}

pub fn nested_draws(rng: &mut impl Rng) -> u64 {
    combine(sample(3, &mut rng), sample(7, &mut rng)) //~ P02
}

pub fn forked(rng: &mut R) -> R {
    rng.clone() //~ P02
}

pub fn captured(rng: &mut R) -> Vec<u64> {
    map_trials(8, 2, |trial| trial as u64 ^ rng.next_u64()) //~ P02
}

pub fn map_trials(n_trials: usize, threads: usize, run: fn(usize) -> u64) -> Vec<u64> {
    Vec::new()
}
