//! Feature-gated crash-simulation failpoints.
//!
//! Every durability-critical site of the monitor runtime — fsync,
//! rename, drain, steal, park, unpark, notify, shutdown — carries an
//! `fp!("site-name")` marker. Without the `failpoints` cargo feature
//! the macro expands to *nothing* (the call site is `cfg`-stripped, so
//! default builds pay zero overhead and stay byte-identical). With the
//! feature, each marker calls `hit`, which is a single relaxed atomic
//! load until a deterministic-simulation session arms a site; an armed
//! site counts down a seeded hit index and then simulates a crash by
//! panicking with a `FailpointCrash` payload the harness catches.
//!
//! The [`CATALOG`] is the static registry of every site name; tests
//! enumerate it to prove each site is exercised by at least one
//! kill/resume trace (see the feature-gated `assurance::dst` harness).

/// Marks a crash-simulation site. Expands to nothing unless the crate
/// is built with `--features failpoints`.
macro_rules! fp {
    ($site:literal) => {
        #[cfg(feature = "failpoints")]
        {
            $crate::assurance::failpoints::hit($site);
        }
    };
}

pub(crate) use fp;

/// Every registered failpoint site, one entry per `fp!` marker in the
/// runtime. Grouped by file; names are `<area>.<event>`.
pub const CATALOG: &[&str] = &[
    // checkpoint.rs — the atomic write-temp/fsync/rename pipeline.
    "checkpoint.staging-created",
    "checkpoint.written-unsynced",
    "checkpoint.synced",
    "checkpoint.renamed",
    // supervisor.rs — batch drains and the checkpoint protocol.
    "supervisor.drain-applied",
    "supervisor.checkpoint-flush",
    "supervisor.checkpoint-emit",
    // queue.rs — the consumer wakeup handshake.
    "queue.notify-work",
    "queue.wait-park",
    // queue.rs — the mutex ring.
    "queue.mutex.push",
    "queue.mutex.park",
    "queue.mutex.drain",
    "queue.mutex.unpark",
    // pool.rs — the work-stealing drain plane.
    "pool.drain-slot",
    "pool.steal-claimed",
    "pool.checkpoint-gate",
    "pool.shutdown-sweep",
    "consumer.join",
];

/// Whether the crate was compiled with the `failpoints` feature (i.e.
/// whether `fp!` sites exist at runtime at all).
pub fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
pub use armed::*;

#[cfg(feature = "failpoints")]
mod armed {
    use super::CATALOG;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// The panic payload of a simulated crash; the DST harness catches
    /// unwinds and distinguishes this (and its cascades) from genuine
    /// bugs via [`fired`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FailpointCrash {
        /// The site that fired.
        pub site: &'static str,
    }

    /// Fast-path gate: `hit` is a single relaxed load while false.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    static STATE: Mutex<Option<Session>> = Mutex::new(None);

    struct Session {
        /// Hits per site since [`session_begin`], armed or not.
        counts: BTreeMap<&'static str, u64>,
        /// The armed site and its remaining countdown, if any.
        armed: Option<(String, u64)>,
        /// The site whose countdown reached zero, if any.
        fired: Option<&'static str>,
    }

    fn with_session<R>(f: impl FnOnce(&mut Session) -> R) -> Option<R> {
        let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_mut().map(f)
    }

    /// Begins a counting/arming session: every subsequent [`hit`] is
    /// counted per site until [`session_end`]. Sessions are global to
    /// the process; the DST harness serialises traces behind one lock.
    pub fn session_begin() {
        let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(Session {
            counts: BTreeMap::new(),
            armed: None,
            fired: None,
        });
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Ends the session and returns the per-site hit counts it saw.
    pub fn session_end() -> Vec<(&'static str, u64)> {
        let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
        ACTIVE.store(false, Ordering::SeqCst);
        match guard.take() {
            Some(session) => session.counts.into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Arms `site` to crash on its `nth` hit (1-based) within the
    /// current session. Requires an active session.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not in the [`CATALOG`], `nth` is zero, or no
    /// session is active — all harness bugs, not runtime conditions.
    pub fn arm(site: &str, nth: u64) {
        assert!(nth > 0, "failpoint hit index is 1-based");
        let site = CATALOG
            .iter()
            .copied()
            .find(|s| *s == site)
            .unwrap_or_else(|| panic!("unknown failpoint site {site:?}"));
        with_session(|s| {
            s.armed = Some((site.to_owned(), nth));
            s.fired = None;
        })
        .expect("failpoints::arm requires an active session");
    }

    /// Disarms the currently armed site, if any (counting continues).
    pub fn disarm() {
        with_session(|s| s.armed = None);
    }

    /// The site that fired a simulated crash in this session, if any.
    pub fn fired() -> Option<&'static str> {
        with_session(|s| s.fired).flatten()
    }

    /// Whether a counting/arming session is currently active. The DST
    /// harness's panic hook silences unwinds (the simulated crash and
    /// its poisoned-lock cascades) only while this is true.
    pub fn session_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Session hit count of one site so far.
    pub fn hits(site: &str) -> u64 {
        with_session(|s| s.counts.get(site).copied().unwrap_or(0)).unwrap_or(0)
    }

    /// The slow half of an `fp!` expansion. Counts the hit and, when
    /// the site is armed and its countdown expires, simulates a crash
    /// by panicking with a [`FailpointCrash`] payload.
    pub fn hit(site: &'static str) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let crash = with_session(|s| {
            *s.counts.entry(site).or_insert(0) += 1;
            match &mut s.armed {
                Some((armed, left)) if armed == site => {
                    *left -= 1;
                    if *left == 0 {
                        s.armed = None;
                        s.fired = Some(site);
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            }
        })
        .unwrap_or(false);
        if crash {
            // The lock is released; poisoning nothing of ours.
            std::panic::panic_any(FailpointCrash { site });
        }
    }

    /// Arms a failpoint from the `REJUV_FP` environment variable
    /// (`site[:nth]`), beginning a session. Lets a real `monitord`
    /// process be crashed at a named site for manual kill/resume
    /// experiments; returns whether anything was armed.
    pub fn arm_from_env() -> bool {
        let Ok(spec) = std::env::var("REJUV_FP") else {
            return false;
        };
        let (site, nth) = match spec.split_once(':') {
            Some((site, nth)) => (
                site.to_owned(),
                nth.parse().unwrap_or_else(|_| {
                    panic!("REJUV_FP hit index {nth:?} is not a positive integer")
                }),
            ),
            None => (spec, 1),
        };
        session_begin();
        arm(&site, nth);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for site in CATALOG {
            assert!(seen.insert(*site), "duplicate failpoint site {site}");
        }
    }

    #[test]
    fn enabled_matches_the_compiled_feature() {
        assert_eq!(enabled(), cfg!(feature = "failpoints"));
    }
}
