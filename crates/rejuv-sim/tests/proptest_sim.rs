//! Property-based tests for the simulation clock and the event keys.

use proptest::prelude::*;
use rejuv_sim::event::{key, key_seq, key_time};
use rejuv_sim::SimTime;

/// Times drawn from a small palette, so exact ties are common, with
/// both zeros.
const PALETTE: [f64; 8] = [0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 3.0, 7.5];

/// A time from the palette or anywhere in `[0, 1e9)`, and a sequence
/// number that is small (ties) or any `u64`.
fn time_and_seq() -> impl Strategy<Value = (SimTime, u64)> {
    let time = prop_oneof![
        (0usize..PALETTE.len()).prop_map(|i| PALETTE[i]),
        0.0f64..1e9,
    ];
    let seq = prop_oneof![0u64..3, any::<u64>()];
    (time, seq).prop_map(|(time, seq)| (SimTime::from_secs(time), seq))
}

proptest! {
    /// Keys compare as `(time, seq)` and give both halves back
    /// unchanged; a `-0.0` time keys as `+0.0`.
    #[test]
    fn key_order_is_time_then_seq_order(a in time_and_seq(), b in time_and_seq()) {
        let ((ta, sa), (tb, sb)) = (a, b);
        let (ka, kb) = (key(ta, sa), key(tb, sb));
        prop_assert_eq!(ka.cmp(&kb), ta.cmp(&tb).then(sa.cmp(&sb)));
        for (k, t, s) in [(ka, ta, sa), (kb, tb, sb)] {
            prop_assert_eq!(key_time(k).as_secs().to_bits(), t.as_secs().to_bits());
            prop_assert!(key_time(k).as_secs().is_sign_positive(), "a -0.0 time escaped");
            prop_assert_eq!(key_seq(k), s);
        }
    }

    /// SimTime arithmetic is consistent: (a + b) − b == a.
    #[test]
    fn simtime_roundtrip(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let s = SimTime::from_secs(a) + SimTime::from_secs(b);
        let back = s - SimTime::from_secs(b);
        prop_assert!((back.as_secs() - a).abs() <= 1e-6 * (1.0 + a));
    }
}
