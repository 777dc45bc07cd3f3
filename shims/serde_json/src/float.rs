//! Shortest round-trip `f64` formatting, byte-identical to std's `{}`.
//!
//! [`write_plain`] appends exactly the bytes `format!("{v}")` produces
//! for every `f64`; [`write_json`] is the JSON float token built on it.
//! The digits come from Ryū (Ulf Adams, "Ryū: Fast Float-to-String
//! Conversion", PLDI 2018): the shortest decimal that parses back to
//! the same `f64`, nearest to the exact binary value. They are laid out
//! the way std lays out `{}`: plain decimal, never an exponent, so
//! `5e-324` renders as 326 bytes and `1e308` as 309 digits.
//!
//! Two points differ from the reference Ryū:
//!
//! - **Ties go up.** When the exact value sits halfway between the two
//!   nearest shortest candidates, std picks the larger magnitude (e.g.
//!   `1099514114116857.25` prints `1099514114116857.3`); the reference
//!   rounds to even. The reference tracks whether the removed digits
//!   of the exact value are all zero only to make that round-to-even
//!   call, so that tracking is gone too.
//! - **The power-of-5 tables are built at compile time**: `static`s
//!   initialised by a short bignum in `const fn`s below, so no process
//!   ever pays to build them.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each `5^i` in [`POW5_SPLIT`].
const POW5_BITCOUNT: i32 = 125;
/// Bits kept (plus one for `i = 0`) of each `2^j / 5^i` in [`POW5_INV_SPLIT`].
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_TABLE_LEN: usize = 326;
const POW5_INV_TABLE_LEN: usize = 342;

/// `5^i`, cut or padded to its top [`POW5_BITCOUNT`] bits, as
/// `[low 64, high 64]`.
static POW5_SPLIT: [[u64; 2]; POW5_TABLE_LEN] = pow5_table();
/// `floor(2^j / 5^i) + 1` with `j = pow5bits(i) - 1 + POW5_INV_BITCOUNT`,
/// as `[low 64, high 64]`.
static POW5_INV_SPLIT: [[u64; 2]; POW5_INV_TABLE_LEN] = pow5_inv_table();

/// `"00" "01" … "99"`: two ASCII digits per index.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends the JSON token for `v`: `null` when it is not finite,
/// otherwise std's `{}` text with `.0` appended when that text has no
/// decimal point, so an integral float stays a float (`1.0`, not `1`).
pub fn write_json(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if !write_plain(out, v) {
        out.extend_from_slice(b".0");
    }
}

/// Appends exactly the bytes of `format!("{v}")` and returns whether
/// they include a decimal point.
pub fn write_plain(out: &mut Vec<u8>, v: f64) -> bool {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_exponent == 0x7ff {
        out.extend_from_slice(match (ieee_mantissa != 0, v < 0.0) {
            (true, _) => b"NaN",
            (false, true) => b"-inf",
            (false, false) => b"inf",
        });
        return false;
    }
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return false;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    render(out, mantissa, exponent)
}

/// Lays out `mantissa × 10^exponent` in std's `{}` form and returns
/// whether it wrote a decimal point.
fn render(out: &mut Vec<u8>, mantissa: u64, exponent: i32) -> bool {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, mantissa);
    let digits = &buf[start..];
    let len = digits.len() as i32;
    // The value is 0.<digits> × 10^point.
    let point = exponent + len;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
        true
    } else if point < len {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
        true
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - len) as usize, b'0');
        false
    }
}

/// Writes the decimal digits of `n` at the end of `buf` and returns
/// the index of the first one.
fn write_digits(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut pos = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    pos
}

/// Ryū's `d2d`: the shortest `(mantissa, exponent)` with
/// `mantissa × 10^exponent` inside the rounding interval of the
/// positive, finite, non-zero double with the given fields, nearest to
/// its exact value and rounding an exact tie up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps both interval ends back to an even
    // mantissa, so those ends belong to its interval.
    let accept_bounds = m2 & 1 == 0;

    // The interval is [mm, mp] = [mv - 1 - mm_shift, mv + 2] in units
    // of a quarter ulp; it is lopsided just above a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let mut vm_is_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k) as u32;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of mm, mv, mp can be a multiple of 5 when q > 0.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = (q as i32 - k) as u32;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing 0 bit iff mm_shift == 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 always has a trailing 0 bit.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate;
    // `last_removed` decides the rounding of vr.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_is_trailing_zeros {
        // Rare: the lower bound is exact and may itself be the answer.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let round_up = (vr == vm && !(accept_bounds && vm_is_trailing_zeros)) || last_removed >= 5;
        (vr + u64::from(round_up), e10 + removed)
    } else {
        // Common: two digits at a time first.
        if vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        let round_up = vr == vm || last_removed >= 5;
        (vr + u64::from(round_up), e10 + removed)
    }
}

/// `(m × mul) >> j` for the 128-bit `mul` given as `[low, high]`, `j ≥ 64`.
fn mul_shift(m: u64, mul: &[u64; 2], j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul[0]);
    let high = u128::from(m) * u128::from(mul[1]);
    (((low >> 64) + high) >> (j - 64)) as u64
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(log10(2^e))` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

/// The bit length of `5^e` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

// ---------------------------------------------------------------------
// Compile-time tables: a little-endian 1024-bit unsigned integer.
// ---------------------------------------------------------------------

const LIMBS: usize = 16;
type Big = [u64; LIMBS];

/// `x *= m` (the product must fit).
const fn big_mul_small(x: &mut Big, m: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * m as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
}

/// `x = floor(x / d)`.
const fn big_div_small(x: &mut Big, d: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | x[i] as u128;
        x[i] = (t / d as u128) as u64;
        rem = t % d as u128;
    }
}

/// `floor(x / 2^s)` truncated to 128 bits.
const fn big_shr_u128(x: &Big, s: u32) -> u128 {
    let limb = (s / 64) as usize;
    let bit = s % 64;
    let window = limb_at(x, limb) | (limb_at(x, limb + 1) << 64);
    if bit == 0 {
        window
    } else {
        (window >> bit) | (limb_at(x, limb + 2) << (128 - bit))
    }
}

const fn limb_at(x: &Big, k: usize) -> u128 {
    if k < LIMBS {
        x[k] as u128
    } else {
        0
    }
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

const fn pow5_table() -> [[u64; 2]; POW5_TABLE_LEN] {
    let mut table = [[0u64; 2]; POW5_TABLE_LEN];
    let mut pow5: Big = [0; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_LEN {
        let shift = pow5bits(i as i32) - POW5_BITCOUNT;
        table[i] = split(if shift >= 0 {
            big_shr_u128(&pow5, shift as u32)
        } else {
            big_shr_u128(&pow5, 0) << (-shift) as u32
        });
        big_mul_small(&mut pow5, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [[u64; 2]; POW5_INV_TABLE_LEN] {
    const TOP: u32 = 64 * LIMBS as u32 - 1;
    let mut table = [[0u64; 2]; POW5_INV_TABLE_LEN];
    // floor(2^TOP / 5^i), one division by 5 per step; shifting it right
    // by TOP - j gives floor(2^j / 5^i).
    let mut quotient: Big = [0; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_TABLE_LEN {
        let j = (pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT) as u32;
        table[i] = split(big_shr_u128(&quotient, TOP - j) + 1);
        big_div_small(&mut quotient, 5);
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(v: f64) -> String {
        let mut out = Vec::new();
        let wrote_point = write_plain(&mut out, v);
        let text = String::from_utf8(out).expect("ASCII output");
        assert_eq!(wrote_point, text.contains('.'), "point flag for {text}");
        text
    }

    /// Counts the `f64`s among `values` whose text differs from std's
    /// `{}`, printing the first few.
    fn mismatches(values: impl Iterator<Item = f64>) -> usize {
        let mut bad = 0;
        for v in values {
            let (ours, std) = (plain(v), format!("{v}"));
            if ours != std {
                if bad < 10 {
                    eprintln!("{:#018x}: ours {ours} std {std}", v.to_bits());
                }
                bad += 1;
            }
        }
        bad
    }

    /// SplitMix64: a fixed, seeded stream of bit patterns.
    fn bit_patterns(seed: u64, n: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        })
    }

    #[test]
    fn known_values() {
        for (v, text) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (1e21, "1000000000000000000000"),
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            assert_eq!(plain(v), text);
        }
        assert_eq!(plain(5e-324).len(), 326);
        assert_eq!(plain(1e308).len(), 309);
    }

    #[test]
    fn json_token() {
        let json = |v: f64| {
            let mut out = Vec::new();
            write_json(&mut out, v);
            String::from_utf8(out).expect("ASCII output")
        };
        assert_eq!(json(1.0), "1.0");
        assert_eq!(json(-0.0), "-0.0");
        assert_eq!(json(1e300), format!("{}.0", 1e300));
        assert_eq!(json(0.25), "0.25");
        assert_eq!(json(f64::NAN), "null");
        assert_eq!(json(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn every_exponent_with_boundary_mantissas() {
        let mantissas = [0, 1, 2, 1 << 51, (1 << 52) - 2, (1 << 52) - 1];
        let values = (0..=0x7ffu64).flat_map(move |exponent| {
            mantissas.into_iter().flat_map(move |mantissa| {
                let bits = (exponent << 52) | mantissa;
                [f64::from_bits(bits), f64::from_bits(bits | 1 << 63)]
            })
        });
        assert_eq!(mismatches(values), 0);
    }

    #[test]
    fn subnormals() {
        let low = 1..=100_000u64;
        let high = (1u64 << 52) - 100_000..1 << 52;
        let sampled = bit_patterns(7, 100_000).map(|v| v.to_bits() & ((1 << 52) - 1));
        let values = low.chain(high).chain(sampled).map(f64::from_bits);
        assert_eq!(mismatches(values), 0);
    }

    #[test]
    fn powers_of_ten_and_their_neighbours() {
        let values = (-324..=308).flat_map(|k| {
            let p: f64 = format!("1e{k}").parse().expect("valid literal");
            let bits = p.to_bits();
            [bits.saturating_sub(1), bits, bits + 1].map(f64::from_bits)
        });
        assert_eq!(mismatches(values), 0);
    }

    #[test]
    fn exact_halfway_ties_round_up() {
        // In [2^49, 2^50) the ulp is 1/8, so N.25 and N.75 lie exactly
        // halfway between two 17-digit candidates (N.2/N.3, N.7/N.8).
        let base = (1u64 << 49) as f64;
        let values = bit_patterns(11, 100_000).flat_map(|r| {
            let n = (r.to_bits() >> 15) as f64;
            [base + n + 0.25, base + n + 0.75]
        });
        assert_eq!(mismatches(values), 0);
        // Both are exact: the ulp there is 1/8.
        for (exact, text) in [
            ("1099514114116857.25", "1099514114116857.3"),
            ("1099514114116857.75", "1099514114116857.8"),
        ] {
            assert_eq!(plain(exact.parse().expect("valid literal")), text);
        }
    }

    #[test]
    fn integers_and_thousandths() {
        let small = (0..100_000u64).map(|n| n as f64);
        let sampled = bit_patterns(3, 100_000).map(|r| (r.to_bits() >> 11) as f64);
        let thousandths = (0..100_000u64).map(|n| n as f64 / 1000.0);
        let values = small.chain(sampled).chain(thousandths);
        assert_eq!(mismatches(values), 0);
    }

    #[test]
    fn random_bit_patterns() {
        let n = if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        };
        assert_eq!(mismatches(bit_patterns(1, n)), 0);
    }

    #[test]
    #[ignore = "soak: 10^9 patterns, run with --release -- --ignored"]
    fn random_bit_patterns_soak() {
        assert_eq!(mismatches(bit_patterns(0x5eed, 1_000_000_000)), 0);
    }

    /// Little-endian `u32` limbs: an arbitrary-size check independent of
    /// the `const fn` bignum above.
    fn pow5_big(i: usize) -> Vec<u32> {
        let mut x = vec![1u32];
        for _ in 0..i {
            let mut carry = 0u64;
            for limb in &mut x {
                let t = u64::from(*limb) * 5 + carry;
                *limb = t as u32;
                carry = t >> 32;
            }
            if carry > 0 {
                x.push(carry as u32);
            }
        }
        x
    }

    /// A natural number ordered by value: its limb count, then its
    /// limbs most significant first, with no leading zero limb.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Nat(usize, Vec<u32>);

    fn nat(mut little_endian: Vec<u32>) -> Nat {
        while little_endian.last() == Some(&0) {
            little_endian.pop();
        }
        little_endian.reverse();
        Nat(little_endian.len(), little_endian)
    }

    fn mul_u128(x: &[u32], m: u128) -> Nat {
        let m: Vec<u32> = (0..4).map(|k| (m >> (32 * k)) as u32).collect();
        let mut out = vec![0u32; x.len() + m.len()];
        for (a, &xa) in x.iter().enumerate() {
            let mut carry = 0u64;
            for (b, &mb) in m.iter().enumerate() {
                let t = u64::from(xa) * u64::from(mb) + u64::from(out[a + b]) + carry;
                out[a + b] = t as u32;
                carry = t >> 32;
            }
            out[a + m.len()] = carry as u32;
        }
        nat(out)
    }

    fn bit_len(x: &[u32]) -> usize {
        x.iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |k| 32 * k + 32 - x[k].leading_zeros() as usize)
    }

    fn pow2_big(j: usize) -> Vec<u32> {
        let mut x = vec![0u32; j / 32 + 1];
        x[j / 32] = 1 << (j % 32);
        x
    }

    fn joined(entry: [u64; 2]) -> u128 {
        u128::from(entry[0]) | u128::from(entry[1]) << 64
    }

    #[test]
    fn tables_match_an_independent_bignum() {
        // The first entries as published with the reference Ryū.
        assert_eq!(POW5_INV_SPLIT[0], [1, 1 << 61]);
        assert_eq!(POW5_SPLIT[0], [0, 1 << 60]);
        for (i, &entry) in POW5_SPLIT.iter().enumerate() {
            let pow5 = pow5_big(i);
            let bits = bit_len(&pow5);
            assert_eq!(bits as i32, pow5bits(i as i32), "pow5bits({i})");
            // entry = floor(5^i × 2^(125 - bits)), so with the shift
            // moved to whichever side keeps it an integer:
            // entry × 2^down ≤ 5^i × 2^up < (entry + 1) × 2^down.
            let (up, down) = (125usize.saturating_sub(bits), bits.saturating_sub(125));
            let entry = joined(entry);
            let pow5 = mul_u128(&pow5, 1 << up);
            assert!(
                mul_u128(&pow2_big(down), entry) <= pow5,
                "split[{i}] too large"
            );
            assert!(
                pow5 < mul_u128(&pow2_big(down), entry + 1),
                "split[{i}] too small"
            );
        }
        for (i, &entry) in POW5_INV_SPLIT.iter().enumerate() {
            let pow5 = pow5_big(i);
            let two_j = nat(pow2_big(bit_len(&pow5) - 1 + 125));
            // entry - 1 = floor(2^j / 5^i):
            // (entry - 1) × 5^i ≤ 2^j < entry × 5^i.
            let entry = joined(entry);
            assert!(mul_u128(&pow5, entry - 1) <= two_j, "inv[{i}] too large");
            assert!(two_j < mul_u128(&pow5, entry), "inv[{i}] too small");
        }
    }
}
