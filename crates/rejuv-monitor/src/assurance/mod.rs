//! Performance-assurance subsystem: crash-simulation failpoints,
//! deterministic kill/resume simulation, and guarantee oracles.
//!
//! The monitoring runtime makes four no-loss promises (§[`oracle`]):
//! checkpoints are never torn, resumed replay converges with
//! uninterrupted replay, shutdown drains every accepted observation,
//! and rejected restores never mutate. This module is the machinery
//! that *checks* them instead of asserting them:
//!
//! * [`failpoints`] — the `fp!` site markers compiled into every
//!   durability-critical path (zero-cost unless the `failpoints`
//!   feature is on) plus the static [`failpoints::CATALOG`].
//! * [`oracle`] — always-compiled checkers `check_g1` … `check_g4`
//!   over the artifacts a run leaves behind.
//! * `dst` — the deterministic-simulation harness (feature-gated):
//!   for each failpoint × seeded schedule it runs a workload, crashes
//!   at the site, resumes from the surviving checkpoint + trace, and
//!   feeds the oracles. Driven by `monitord --dst` and the
//!   `dst_harness` integration test.

pub mod failpoints;
pub mod oracle;

#[cfg(feature = "failpoints")]
pub mod dst;
