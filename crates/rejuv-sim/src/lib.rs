//! A small, deterministic discrete-event simulation (DES) substrate.
//!
//! This crate is the simulation substrate under `rejuv-ecommerce`, the
//! model of the DSN 2006 e-commerce system. It provides:
//!
//! * [`time::SimTime`] — a total-ordered simulation clock value,
//! * [`event::key`] — one `u128` per pending event, `(time bits, seq)`,
//!   so a model's own event calendar compares events as integers,
//! * [`rng::RngStreams`] — independent, reproducible random-number streams
//!   derived from a single master seed (one stream per model component, so
//!   adding a consumer never perturbs the others),
//! * [`exec::Executor`] — a fixed-size worker pool that runs independent
//!   experiment cells in parallel with bitwise-deterministic, index-ordered
//!   results regardless of worker count,
//! * [`feed::ObservationSink`] — the live-feed bridge between
//!   simulation models (producers of timestamped samples) and online
//!   monitoring consumers such as `rejuv-monitor`'s supervisor shards.
//!
//! # Example
//!
//! ```
//! use rejuv_sim::event::{key, key_time};
//! use rejuv_sim::SimTime;
//!
//! // A calendar of three pending events, keyed in scheduling order: the
//! // smallest key is delivered next, and a time tie goes to the event
//! // scheduled first.
//! let pong = key(SimTime::from_secs(2.0), 0);
//! let ping = key(SimTime::from_secs(1.0), 1);
//! let tie = key(SimTime::from_secs(1.0), 2);
//! let next = pong.min(ping).min(tie);
//! assert_eq!(next, ping);
//! assert_eq!(key_time(next).as_secs(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod event;
pub mod exec;
pub mod feed;
pub mod rng;
pub mod stats;
pub mod time;

pub use exec::Executor;
pub use feed::{BatchingSink, Observation, ObservationSink, TeeSink, VecSink};
pub use rng::RngStreams;
pub use time::SimTime;
