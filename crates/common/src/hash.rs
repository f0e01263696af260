//! From-scratch xxhash64 and the seeded hash family used by OLH.
//!
//! The OLH protocol (Wang et al., USENIX Security 2017; §III-B of the
//! LDPRecover paper) requires a family `H` of hash functions mapping the item
//! domain `D` onto a small range `{0, …, g−1}` such that each item's hash is
//! (approximately) uniform and independent across family members. The paper
//! names xxhash as the concrete family, so we implement XXH64 from the
//! specification and key the family by the 64-bit seed each user samples.
//!
//! Only the short-input (< 32 bytes) code path is exercised by OLH — items
//! are hashed as 8-byte little-endian integers — but the full algorithm,
//! including the ≥ 32-byte stripe loop, is implemented and tested against the
//! published reference vectors so the hasher is usable as a general substrate.
//!
//! The 8-byte hash splits into a half that depends on the item alone
//! ([`xxh64_item_lane`]) and one that mixes in the seed
//! ([`xxh64_seed_finish`]), so a batch of OLH reports hashes each item's
//! half once; [`ResidueTest`] then compares the reduced hash with a
//! report's value without a 64-bit division.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn read_u64_le(data: &[u8]) -> u64 {
    u64::from_le_bytes(data[..8].try_into().expect("8-byte read"))
}

#[inline(always)]
fn read_u32_le(data: &[u8]) -> u32 {
    u32::from_le_bytes(data[..4].try_into().expect("4-byte read"))
}

#[inline(always)]
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline(always)]
fn xxh64_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh64_round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline(always)]
fn xxh64_avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// One-shot XXH64 of `data` under `seed`, per the reference specification.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xxh64_round(v1, read_u64_le(&rest[0..]));
            v2 = xxh64_round(v2, read_u64_le(&rest[8..]));
            v3 = xxh64_round(v3, read_u64_le(&rest[16..]));
            v4 = xxh64_round(v4, read_u64_le(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh64_merge_round(h, v1);
        h = xxh64_merge_round(h, v2);
        h = xxh64_merge_round(h, v3);
        h = xxh64_merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h ^= xxh64_round(0, read_u64_le(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(read_u32_le(rest)).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    xxh64_avalanche(h)
}

/// Hashes a `u64` value (little-endian bytes) — the OLH item fast path.
///
/// Specialization of [`xxh64`] for exactly 8 bytes of input (the LE bytes of
/// `value`, so reading them back as a LE word is `value` itself). Keeping it
/// inline and branch-free matters because OLH aggregation performs n × d of
/// these (≈ 3 × 10⁸ at Fire scale). It is [`xxh64_item_lane`] followed by
/// [`xxh64_seed_finish`].
#[inline(always)]
pub fn xxh64_u64(value: u64, seed: u64) -> u64 {
    xxh64_seed_finish(seed, xxh64_item_lane(value))
}

/// The half of [`xxh64_u64`] that depends on the item alone. A batch of
/// OLH reports computes it once per item and reuses it for every seed.
#[inline(always)]
pub fn xxh64_item_lane(value: u64) -> u64 {
    xxh64_round(0, value)
}

/// The seed half of [`xxh64_u64`]:
/// `xxh64_u64(v, seed) == xxh64_seed_finish(seed, xxh64_item_lane(v))`.
#[inline(always)]
pub fn xxh64_seed_finish(seed: u64, lane: u64) -> u64 {
    let h = seed.wrapping_add(PRIME64_5).wrapping_add(8) ^ lane;
    xxh64_avalanche(
        h.rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4),
    )
}

/// A member of the OLH hash family: maps items of `D` onto `{0, …, g−1}`.
///
/// The family is keyed by the user-sampled 64-bit `seed`; the map is
/// `item ↦ xxh64(item; seed) mod g`. The modulo introduces a bias of at most
/// `g / 2⁶⁴`, which is negligible for the `g ≤ 100` range LDP uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlhHash {
    seed: u64,
    g: u32,
}

impl OlhHash {
    /// Creates the family member with the given seed and range `g ≥ 2`.
    pub fn new(seed: u64, g: u32) -> Self {
        debug_assert!(g >= 2, "OLH hash range must be at least 2");
        Self { seed, g }
    }

    /// The seed identifying this family member.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The range size `g`.
    #[inline]
    pub fn range(&self) -> u32 {
        self.g
    }

    /// Hashes an item to `{0, …, g−1}`.
    #[inline(always)]
    pub fn hash(&self, item: usize) -> u32 {
        (xxh64_u64(item as u64, self.seed) % u64::from(self.g)) as u32
    }
}

/// Decides `h mod g == value` for a fixed `g ≥ 1` with one multiply
/// instead of a 64-bit division (Hacker's Delight §10-17).
///
/// With `g = 2ˢ·o`, `o` odd, `inv = o⁻¹ mod 2⁶⁴` and `L = ⌊(2⁶⁴−1)/g⌋`, a
/// word `x` is a multiple of `g` iff `(x·inv mod 2⁶⁴) rotated right by s`
/// is at most `L`. For `value < g`, `h mod g == value` iff `h ≥ value` and
/// `h − value` is such a multiple; a `value ≥ g` matches no `h`, which
/// [`ResidueTest::residue`] settles once per value. The OLH support scan
/// runs this test n × d times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidueTest {
    g: u64,
    shift: u32,
    inverse: u64,
    limit: u64,
}

/// A value below a [`ResidueTest`]'s modulus, made by
/// [`ResidueTest::residue`]: one that some `h mod g` can equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residue(u64);

impl ResidueTest {
    /// The test for modulus `g`.
    ///
    /// # Panics
    /// Panics if `g == 0`.
    pub fn new(g: u32) -> Self {
        assert!(g >= 1, "the modulus must be positive");
        let g = u64::from(g);
        let shift = g.trailing_zeros();
        let odd = g >> shift;
        // Newton's iteration doubles the correct low bits of the inverse;
        // `odd` is its own inverse mod 2³, so five steps reach 2⁶⁴.
        let mut inverse = odd;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        debug_assert_eq!(odd.wrapping_mul(inverse), 1);
        Self {
            g,
            shift,
            inverse,
            limit: u64::MAX / g,
        }
    }

    /// `value` as a residue mod `g`, or `None` when `value ≥ g`: then no
    /// `h` matches it.
    #[inline(always)]
    pub fn residue(&self, value: u32) -> Option<Residue> {
        let value = u64::from(value);
        (value < self.g).then_some(Residue(value))
    }

    /// `h mod g == residue`, branch-free. The residue must come from this
    /// test (or one with the same `g`).
    #[inline(always)]
    pub fn matches(&self, h: u64, residue: Residue) -> bool {
        let Residue(value) = residue;
        debug_assert!(value < self.g, "residue {value} of another modulus");
        let multiple = h
            .wrapping_sub(value)
            .wrapping_mul(self.inverse)
            .rotate_right(self.shift)
            <= self.limit;
        (h >= value) & multiple
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published XXH64 reference vectors (xxHash repository / RFC draft).
    #[test]
    fn reference_vectors_short() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn reference_vector_long() {
        // 43 bytes: exercises the ≥ 32-byte stripe loop plus the tail.
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog", 0),
            0x0B24_2D36_1FDA_71BC
        );
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
        assert_ne!(xxh64_u64(5, 0), xxh64_u64(5, 1));
    }

    #[test]
    fn u64_fast_path_matches_generic() {
        for value in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            for seed in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 123_456_789] {
                assert_eq!(
                    xxh64_u64(value, seed),
                    xxh64(&value.to_le_bytes(), seed),
                    "value={value}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn lane_split_composes_to_the_u64_hash() {
        for value in [0u64, 1, 42, 489, u64::MAX, 0xDEAD_BEEF] {
            for seed in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 123_456_789] {
                assert_eq!(
                    xxh64_seed_finish(seed, xxh64_item_lane(value)),
                    xxh64(&value.to_le_bytes(), seed),
                    "value={value}, seed={seed}"
                );
            }
        }
    }

    /// The residue test against `h % g == value` for every `g` in 2..=300
    /// (and g = 1 and a few large ones): edge words around 0, `g`, its
    /// multiples and `u64::MAX`, then random words; every residue, and
    /// values at and past `g`, which must match nothing.
    #[test]
    fn kernel_oracle_residue_test_matches_the_division() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::rng::splitmix64_mix(state)
        };
        let moduli = (1u32..=300).chain([1 << 16, 1_000_000, 10_000_019, u32::MAX]);
        for g in moduli {
            let test = ResidueTest::new(g);
            let g64 = u64::from(g);
            let mut words: Vec<u64> = (0..2 * g64.min(300) + 3).collect();
            for k in [1u64, 2, 3, u64::MAX / g64 - 1, u64::MAX / g64] {
                let base = k.wrapping_mul(g64);
                words.extend([base.wrapping_sub(1), base, base.wrapping_add(1)]);
            }
            words.extend((0..3).map(|i| u64::MAX - i));
            words.extend((0..200).map(|_| next()));
            let mut values: Vec<u32> = (0..g.min(8)).chain([g / 2, g - 1]).collect();
            values.extend([g, g.saturating_add(1), u32::MAX]);
            for &h in &words {
                values.push((h % g64) as u32);
                for &value in &values {
                    let matched = test.residue(value).is_some_and(|r| test.matches(h, r));
                    assert_eq!(
                        matched,
                        h % g64 == u64::from(value),
                        "g={g} h={h} value={value}"
                    );
                }
                values.pop();
            }
        }
    }

    #[test]
    fn exercises_all_tail_lengths() {
        // Lengths 0..=40 cover: empty, <4, <8, 8..31, and ≥32 with every
        // tail residue. Only checks self-consistency + sensitivity here
        // (reference vectors above anchor absolute correctness).
        let data: Vec<u8> = (0..40u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=40 {
            let h = xxh64(&data[..len], 7);
            assert!(seen.insert(h), "collision at prefix length {len}");
        }
    }

    #[test]
    fn olh_hash_is_in_range_and_roughly_uniform() {
        let g = 3u32;
        let mut counts = [0usize; 3];
        // One fixed item across many seeds: the family must spread it
        // uniformly (this is the property OLH relies on).
        for seed in 0..30_000u64 {
            let h = OlhHash::new(seed, g);
            let b = h.hash(17);
            assert!(b < g);
            counts[b as usize] += 1;
        }
        let expected = 10_000.0;
        for &c in &counts {
            // 5σ for a multinomial cell.
            let sigma = (30_000.0f64 * (1.0 / 3.0) * (2.0 / 3.0)).sqrt();
            assert!(
                (c as f64 - expected).abs() < 5.0 * sigma,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    fn olh_hash_distinct_items_roughly_independent() {
        // Under a random family member, P[H(a) == H(b)] ≈ 1/g for a ≠ b.
        let g = 4u32;
        let trials = 40_000u64;
        let collisions = (0..trials)
            .filter(|&seed| {
                let h = OlhHash::new(seed, g);
                h.hash(3) == h.hash(11)
            })
            .count();
        let p = collisions as f64 / trials as f64;
        let expect = 1.0 / f64::from(g);
        let sigma = (expect * (1.0 - expect) / trials as f64).sqrt();
        assert!((p - expect).abs() < 5.0 * sigma, "p={p}");
    }
}
