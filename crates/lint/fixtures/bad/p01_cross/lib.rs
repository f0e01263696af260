#![forbid(unsafe_code)]
// Fixture: P01 cross-file — the caller looks pure; the impurity lives
// in another file, two hops down the call graph. Also the pessimism
// case: a workspace-rooted path that resolves to nothing is treated as
// impure at the call site (never silently trusted).
//@ pure-roots: compute_delta opaque_root
pub mod util;

pub fn compute_delta(cells: u64) -> u64 {
    util::scale(cells)
}

pub fn opaque_root(cells: u64) -> u64 {
    crate::missing::helper(cells) //~ P01
}
