//! Planted violation: a pragma that suppresses nothing is dead weight
//! and must itself be a finding.

// sih-analysis: allow(float) — nothing here uses a float

/// Uses no float: the pragma above is unused.
pub fn quiet() {}
