//! Facade crate for the software-rejuvenation workspace.
//!
//! Re-exports every member crate under a stable, discoverable set of
//! module names:
//!
//! * [`detectors`] — the SRAA / SARAA / CLTA rejuvenation detectors and the
//!   static baseline (the paper's contribution),
//! * [`stats`] — online statistics, distributions, autocorrelation,
//! * [`ctmc`] — continuous-time Markov chains, uniformization, phase-type
//!   distributions (the SHARPE substitute),
//! * [`queueing`] — M/M/c analytics and the exact sample-mean density,
//! * [`sim`] — the discrete-event simulation substrate (clock, event
//!   keys, RNG streams, parallel executor),
//! * [`ecommerce`] — the DSN 2006 e-commerce system model,
//! * [`monitor`] — the online monitoring runtime (sharded detector
//!   supervision, snapshots, metrics, replayable event logs).
//!
//! # Quickstart
//!
//! ```
//! use software_rejuvenation::detectors::{Decision, RejuvenationDetector, Sraa, SraaConfig};
//!
//! // Normal behaviour: mean RT 5 s, std dev 5 s (the paper's SLA values).
//! let config = SraaConfig::builder(5.0, 5.0)
//!     .sample_size(2)
//!     .buckets(5)
//!     .depth(3)
//!     .build()?;
//! let mut detector = Sraa::new(config);
//!
//! // Feed healthy observations: never triggers.
//! for _ in 0..1_000 {
//!     assert_eq!(detector.observe(4.0), Decision::Continue);
//! }
//!
//! // A sustained right-shift eventually triggers rejuvenation.
//! let mut fired = false;
//! for _ in 0..10_000 {
//!     if detector.observe(40.0) == Decision::Rejuvenate {
//!         fired = true;
//!         break;
//!     }
//! }
//! assert!(fired);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

/// Rejuvenation detectors (re-export of `rejuv-core`).
pub mod detectors {
    pub use rejuv_core::*;
}

/// Statistics substrate (re-export of `rejuv-stats`).
pub mod stats {
    pub use rejuv_stats::*;
}

/// CTMC and phase-type machinery (re-export of `rejuv-ctmc`).
pub mod ctmc {
    pub use rejuv_ctmc::*;
}

/// M/M/c queueing analytics (re-export of `rejuv-queueing`).
pub mod queueing {
    pub use rejuv_queueing::*;
}

/// Discrete-event simulation substrate (re-export of `rejuv-sim`).
pub mod sim {
    pub use rejuv_sim::*;
}

/// The e-commerce system model (re-export of `rejuv-ecommerce`).
pub mod ecommerce {
    pub use rejuv_ecommerce::*;
}

/// The online monitoring runtime (re-export of `rejuv-monitor`).
pub mod monitor {
    pub use rejuv_monitor::*;
}
