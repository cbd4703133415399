//! Planted violations of the two token rules in a hot-path crate: every
//! `detectors` file is under `btree-procset`, and every simulation crate
//! under `float`. The same constructs inside `#[cfg(test)]` are exempt.

use std::collections::BTreeSet;

/// A quorum kept as a tree of process ids.
pub fn quorum() -> BTreeSet<ProcessId> {
    BTreeSet::new()
}

/// An unjustified float with an inferred type.
pub fn threshold() -> u32 {
    let p = 1e-3;
    (p * 1000.0) as u32
}

#[cfg(test)]
mod tests {
    fn exempt() -> BTreeSet<ProcessId> {
        let _q = 0.5;
        BTreeSet::new()
    }
}
