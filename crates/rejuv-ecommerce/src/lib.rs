//! Discrete-event model of the DSN 2006 multi-tier e-commerce system.
//!
//! §3 of the paper describes the simulation substrate used for every
//! experiment: a 16-CPU Java system with a 3 GB heap, exponential
//! arrivals and service (`µ = 0.2` tx/s), a ×2 kernel-overhead penalty
//! when more than 50 threads are active, a 10 MB allocation per
//! transaction, and a 60-second stop-the-world garbage collection when
//! the free heap drops under 100 MB. A rejuvenation terminates every
//! in-flight thread (those transactions are *lost*) and releases all
//! CPU and memory resources.
//!
//! * [`config::SystemConfig`] — the model parameters (paper defaults via
//!   [`config::SystemConfig::paper`]),
//! * [`model::EcommerceSystem`] — the event-driven model itself,
//! * [`metrics::RunMetrics`] — per-run counters (average response time,
//!   loss fraction, GC and rejuvenation counts),
//! * [`runner`] — replication runner and parallel load sweeps
//!   (5 × 100 000 transactions, as in §5),
//! * [`mmc_mode`] — the "abstracted" pure M/M/c mode of §4.1 used for
//!   the autocorrelation study.
//!
//! # Example
//!
//! ```
//! use rejuv_core::{Sraa, SraaConfig};
//! use rejuv_ecommerce::{EcommerceSystem, SystemConfig};
//!
//! // Offered load 8 CPUs (λ = 1.6 tx/s) with an SRAA detector.
//! let config = SystemConfig::paper(1.6)?;
//! let sraa = SraaConfig::builder(5.0, 5.0)
//!     .sample_size(2).buckets(5).depth(3)
//!     .build()?;
//! let mut system = EcommerceSystem::new(config, 42);
//! system.attach_detector(Box::new(Sraa::new(sraa)));
//! let metrics = system.run(10_000);
//! assert_eq!(metrics.completed + metrics.lost, 10_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cluster;
pub mod config;
mod host;
pub mod metrics;
pub mod mmc_mode;
pub mod model;
pub mod runner;
pub mod trace;
pub mod workload;

pub use cluster::{ClusterMetrics, ClusterSystem, RoutingPolicy};
pub use config::SystemConfig;
pub use metrics::RunMetrics;
pub use model::EcommerceSystem;
pub use runner::{aggregate_point, DetectorFactory, ExperimentResult, LoadPoint, Runner};
pub use workload::RateProfile;
