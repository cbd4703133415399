//! # sharing-is-harder
//!
//! Root crate of the *Sharing is Harder than Agreeing* (PODC 2008)
//! reproduction. It re-exports the [`sih`] facade — see that crate (or
//! the repository `README.md`) for the full tour — and hosts the
//! runnable examples (`cargo run --example quickstart`) and the
//! cross-crate integration test suites.
//!
//! ```
//! use sharing_is_harder::claims::{check_claim, Claim, ClaimConfig};
//!
//! let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, max_steps: 150_000, ..ClaimConfig::default() };
//! assert!(check_claim(Claim::DecisionBudgetsAreTight, &cfg).verdict.confirmed());
//! ```

pub use sih::*;
