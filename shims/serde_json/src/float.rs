//! `f64` text both ways, bit for bit what std does: shortest round-trip
//! formatting byte-identical to `{}`, and JSON float reading
//! bitwise-equal to `str::parse`.
//!
//! [`write_plain`] appends exactly the bytes `format!("{v}")` produces
//! for every `f64`; [`write_json`] is the JSON float token built on it,
//! and [`read_json`] reads such a token back.
//!
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
//!
//! Reading makes one pass over the token, gathering the decimal
//! significand eight digits at a time where it can, and then computes
//! the `f64` with Eisel–Lemire (Daniel Lemire, "Number Parsing at a
//! Gigabyte per Second", arXiv 2101.11408), the algorithm std's own
//! parser uses, from a third compile-time table. The rare tokens it
//! cannot decide (more than 19 significant digits, a saturated
//! exponent, a product too close to a rounding boundary) go to
//! `str::parse`.

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

/// The decimal exponents [`POW5_128`] covers. Below the smallest, every
/// significand of up to 19 digits rounds to zero; above the largest,
/// every non-zero one overflows to infinity.
const POW10_MIN: i64 = -342;
const POW10_MAX: i64 = 308;
const POW5_128_LEN: usize = (POW10_MAX - POW10_MIN + 1) as usize;
/// `5^q` for `q` in `POW10_MIN..=POW10_MAX`, scaled by a power of two
/// into `[2^127, 2^128)`, as `[low 64, high 64]`: truncated for `q ≥ 0`
/// and `q < -27`, the truncation plus one for `-27 ≤ q < 0`. These are
/// the entries of Lemire's `fast_float` table, which std's parser uses.
static POW5_128: [[u64; 2]; POW5_128_LEN] = pow5_128_table();

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
// Reading: one scan of the token, then Eisel–Lemire.
// ---------------------------------------------------------------------

/// Reads the JSON float token at the start of `bytes` and returns its
/// value, bitwise equal to `str::parse::<f64>` on the token, and the
/// token's length.
///
/// The grammar is JSON's, with a fraction or an exponent required:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Integer tokens,
/// tokens cut short (`1.`, `1.5e+`) and everything else give `None`.
/// What follows the token is the caller's to check: reading stops at
/// the first byte the grammar cannot extend it with, so `1.5.5` reads
/// as `1.5`, length 3.
// `#[inline]` here and on the two helpers lets the event-log decoder,
// which calls this once per float from another crate, inline the
// whole reader: about 8 % off its decode time per observation.
#[inline]
pub fn read_json(bytes: &[u8]) -> Option<(f64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let int_start = usize::from(negative);
    let mut significand = 0u64;
    let mut pos = scan_digits(bytes, int_start, &mut significand);
    let int_len = pos - int_start;
    if int_len == 0 || (int_len > 1 && bytes[int_start] == b'0') {
        return None;
    }
    // Digits from the first non-zero one; the integer part is either
    // `0` or starts with a non-zero digit.
    let int_is_zero = bytes[int_start] == b'0';
    let mut significant = if int_is_zero { 0 } else { int_len };
    let mut exponent = 0i64;
    let mut is_float = false;
    if bytes.get(pos) == Some(&b'.') {
        let frac_start = pos + 1;
        pos = frac_start;
        if int_is_zero {
            while bytes.get(pos) == Some(&b'0') {
                pos += 1;
            }
        }
        let sig_start = pos;
        pos = scan_digits(bytes, pos, &mut significand);
        if pos == frac_start {
            return None;
        }
        significant += pos - sig_start;
        exponent = -((pos - frac_start) as i64);
        is_float = true;
    }
    let mut saturated = false;
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        let negative_exponent = bytes.get(pos) == Some(&b'-');
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let digits_start = pos;
        let mut explicit = 0i64;
        while let Some(digit) = bytes.get(pos).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            // Stop growing well before overflow; a saturated exponent
            // is left to std.
            if explicit < 0x10000 {
                explicit = 10 * explicit + i64::from(digit);
            }
            pos += 1;
        }
        if pos == digits_start {
            return None;
        }
        saturated = explicit >= 0x10000;
        exponent += if negative_exponent {
            -explicit
        } else {
            explicit
        };
        is_float = true;
    }
    if !is_float {
        return None;
    }
    let magnitude = if significant > 19 || saturated {
        None
    } else {
        decimal_to_f64(significand, exponent)
    };
    match magnitude {
        Some(v) => Some((if negative { -v } else { v }, pos)),
        // The token is ASCII by construction.
        None => std::str::from_utf8(&bytes[..pos])
            .ok()?
            .parse()
            .ok()
            .map(|v| (v, pos)),
    }
}

/// Appends the decimal digits starting at `pos` to `significand`
/// (wrapping; the caller counts digits) and returns the position after
/// them. Eight bytes that are all digits are taken in one step.
#[inline]
fn scan_digits(bytes: &[u8], mut pos: usize, significand: &mut u64) -> usize {
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        if !is_eight_digits(word) {
            break;
        }
        *significand = significand
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digits(word));
        pos += 8;
    }
    while let Some(digit) = bytes.get(pos).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        *significand = significand.wrapping_mul(10).wrapping_add(u64::from(digit));
        pos += 1;
    }
    pos
}

/// Whether all eight bytes of a little-endian word are ASCII digits:
/// adding `0x46` keeps a byte below `0x80` only if it is at most `'9'`,
/// and subtracting `0x30` does only if it is at least `'0'`.
fn is_eight_digits(word: u64) -> bool {
    let above = word.wrapping_add(0x4646_4646_4646_4646);
    let below = word.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits read as a little-endian word (the
/// first digit in the lowest byte): pairs, then fours, then all eight,
/// in three multiplications.
fn eight_digits(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL_HIGH: u64 = 0x000f_4240_0000_0064; // 10^6 << 32 | 100
    const MUL_LOW: u64 = 0x0000_2710_0000_0001; // 10^4 << 32 | 1
    let v = word - 0x3030_3030_3030_3030;
    let pairs = v * 10 + (v >> 8);
    let high = (pairs & MASK).wrapping_mul(MUL_HIGH);
    let low = ((pairs >> 16) & MASK).wrapping_mul(MUL_LOW);
    u64::from((high.wrapping_add(low) >> 32) as u32)
}

/// `w × 10^q` rounded to the nearest `f64`, ties to even, for a
/// significand of at most 19 digits, by Eisel–Lemire; `None` when the
/// 128-bit product cannot decide the rounding.
#[inline]
fn decimal_to_f64(w: u64, q: i64) -> Option<f64> {
    if w == 0 || q < POW10_MIN {
        return Some(0.0);
    }
    if q > POW10_MAX {
        return Some(f64::INFINITY);
    }
    // Normalise w so its top bit is set; the product's top 55 bits then
    // hold the 53-bit mantissa, a rounding bit and a possible leading
    // zero.
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = &POW5_128[(q - POW10_MIN) as usize];
    let mut product = u128::from(w) * u128::from(pow5[1]);
    // The table's low word matters only when the nine bits below those
    // 55 are all ones, where it may carry into them.
    if (product >> 64) as u64 & 0x1ff == 0x1ff {
        product += (u128::from(w) * u128::from(pow5[0])) >> 64;
    }
    let (hi, lo) = ((product >> 64) as u64, product as u64);
    // An all-ones low word may be short of a carry that would move the
    // rounding; for -27 ≤ q ≤ 55 it cannot be (Lemire, §8 and §9.1).
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper_bit = (hi >> 63) as i32;
    let shift = upper_bit + 64 - MANTISSA_BITS as i32 - 3;
    let mut mantissa = hi >> shift;
    // floor(q × log2(10)) + 63, exact over the table's range.
    let log2 = ((q as i32).wrapping_mul(152_170 + 65_536) >> 16) + 63;
    let mut biased = log2 + upper_bit - lz as i32 + EXPONENT_BIAS;
    if biased <= 0 {
        // Subnormal, or zero once shifted 64 or more bits down.
        if 1 - biased >= 64 {
            return Some(0.0);
        }
        mantissa >>= 1 - biased;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding up into bit 52 gives the smallest normal.
        let exponent = u64::from(mantissa >= 1 << MANTISSA_BITS);
        return Some(f64::from_bits(mantissa | exponent << MANTISSA_BITS));
    }
    // An exact halfway case (nothing below the rounding bit, which only
    // happens for -4 ≤ q ≤ 23) rounds to even, not up.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        biased += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    if biased >= 0x7ff {
        return Some(f64::INFINITY);
    }
    Some(f64::from_bits(mantissa | (biased as u64) << MANTISSA_BITS))
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

const fn pow5_128_table() -> [[u64; 2]; POW5_128_LEN] {
    const TOP: u32 = 64 * LIMBS as u32 - 1;
    let mut table = [[0u64; 2]; POW5_128_LEN];
    // q ≥ 0: the top 128 bits of 5^q.
    let mut pow5: Big = [0; LIMBS];
    pow5[0] = 1;
    let mut q = 0;
    while q <= POW10_MAX {
        let bits = pow5bits(q as i32) as u32;
        table[(q - POW10_MIN) as usize] = split(if bits >= 128 {
            big_shr_u128(&pow5, bits - 128)
        } else {
            big_shr_u128(&pow5, 0) << (128 - bits)
        });
        big_mul_small(&mut pow5, 5);
        q += 1;
    }
    // q = -i < 0: floor(2^(b + 127) / 5^i) with b the bit length of
    // 5^i, which lies in [2^127, 2^128), plus one for i ≤ 27. The
    // quotient comes from floor(2^TOP / 5^i) as in `pow5_inv_table`.
    let mut quotient: Big = [0; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 1;
    while i <= -POW10_MIN {
        big_div_small(&mut quotient, 5);
        let j = (pow5bits(i as i32) + 127) as u32;
        let entry = big_shr_u128(&quotient, TOP - j) + (i <= 27) as u128;
        table[(-i - POW10_MIN) as usize] = split(entry);
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
    /// Little-endian `x × 2^s`.
    fn shl(x: &[u32], s: usize) -> Vec<u32> {
        let mut out = vec![0u32; s / 32];
        let mut carry = 0u32;
        for &limb in x {
            let wide = u64::from(limb) << (s % 32);
            out.push(wide as u32 | carry);
            carry = (wide >> 32) as u32;
        }
        out.push(carry);
        out
    }

    /// Little-endian `a + b`.
    fn plus(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut carry = 0u64;
        for k in 0..a.len().max(b.len()) + 1 {
            let t = u64::from(a.get(k).copied().unwrap_or(0))
                + u64::from(b.get(k).copied().unwrap_or(0))
                + carry;
            out.push(t as u32);
            carry = t >> 32;
        }
        out
    }

    #[test]
    fn reader_table_matches_an_independent_bignum() {
        // The first and last entries as published with fast_float and
        // in std's `dec2flt` table, 5^-342 and 5^308.
        assert_eq!(POW5_128[0], [0x113f_aa29_06a1_3b3f, 0xeef4_53d6_923b_d65a]);
        assert_eq!(
            POW5_128[POW5_128_LEN - 1],
            [0x570f_09ea_a7ea_7648, 0x8e67_9c2f_5e44_ff8f]
        );
        for (index, &entry) in POW5_128.iter().enumerate() {
            let q = index as i64 + POW10_MIN;
            assert!(entry[1] >> 63 == 1, "entry for 5^{q} not normalised");
            let entry = joined(entry);
            let pow5 = pow5_big(q.unsigned_abs() as usize);
            let bits = bit_len(&pow5);
            if q >= 0 {
                // The top 128 bits of 5^q:
                // entry × 2^down ≤ 5^q × 2^up < (entry + 1) × 2^down.
                let (up, down) = (128usize.saturating_sub(bits), bits.saturating_sub(128));
                let scaled = mul_u128(&pow5, 1 << up);
                assert!(
                    mul_u128(&pow2_big(down), entry) <= scaled,
                    "5^{q} too large"
                );
                assert!(
                    scaled < mul_u128(&pow2_big(down), entry + 1),
                    "5^{q} too small"
                );
            } else if q >= -27 {
                // entry - 1 = floor(2^(bits + 127) / 5^-q).
                let two_j = nat(pow2_big(bits + 127));
                assert!(mul_u128(&pow5, entry - 1) <= two_j, "5^{q} too large");
                assert!(two_j < mul_u128(&pow5, entry), "5^{q} too small");
            } else {
                // fast_float's definition: c = floor(2^b / 5^-q) + 1 with
                // b = 2 × bits + 128, halved until below 2^128, which is
                // s = bits + 1 halvings. With p = 5^-q,
                // entry × 2^s ≤ c < (entry + 1) × 2^s is
                // entry × p × 2^s ≤ 2^b + p < (entry + 1) × p × 2^s.
                let b = 2 * bits + 128;
                let scaled_p = shl(&pow5, bits + 1);
                let bound = nat(plus(&pow2_big(b), &pow5));
                assert!(mul_u128(&scaled_p, entry) <= bound, "5^{q} too large");
                assert!(bound < mul_u128(&scaled_p, entry + 1), "5^{q} too small");
            }
        }
    }

    /// `read_json` over the whole of `token`.
    fn read(token: &str) -> Option<f64> {
        read_json(token.as_bytes()).map(|(v, len)| {
            assert_eq!(len, token.len(), "{token} read in full");
            v
        })
    }

    /// Counts the tokens whose value differs from `str::parse`'s by a
    /// single bit, or that the reader refuses, printing the first few.
    fn parse_mismatches(tokens: impl Iterator<Item = String>) -> usize {
        let mut bad = 0;
        for token in tokens {
            let std: f64 = token.parse().expect("valid literal");
            let ours = read(&token);
            if ours.map(f64::to_bits) != Some(std.to_bits()) {
                if bad < 10 {
                    eprintln!("{token}: ours {ours:?} std {std:?}");
                }
                bad += 1;
            }
        }
        bad
    }

    /// The JSON token and the `{:e}` text of each finite value.
    fn printed(values: impl Iterator<Item = f64>) -> impl Iterator<Item = String> {
        values.filter(|v| v.is_finite()).flat_map(|v| {
            let mut json = Vec::new();
            write_json(&mut json, v);
            [String::from_utf8(json).expect("ASCII"), format!("{v:e}")]
        })
    }

    /// Strict-grammar tokens with 1–25 significant digits from a seeded
    /// stream: the point anywhere in the digits or in front of up to
    /// nine leading zeros, an exponent in -360..=330 when required and
    /// on every other token besides, and either sign.
    fn decimal_tokens(seed: u64, n: u64) -> impl Iterator<Item = String> {
        let mut words = bit_patterns(seed, u64::MAX).map(f64::to_bits);
        (0..n).map(move |_| {
            let mut next = |m: u64| words.next().expect("endless") % m;
            let len = 1 + next(25) as usize;
            let digits: String = (0..len)
                .map(|k| char::from(b'0' + if k == 0 { 1 + next(9) } else { next(10) } as u8))
                .collect();
            let sign = if next(2) == 1 { "-" } else { "" };
            let point = next(len as u64 + 10) as usize;
            let mut token = if point == 0 {
                format!("{sign}{digits}")
            } else if point <= len {
                let (whole, fraction) = digits.split_at(len - point + 1);
                if fraction.is_empty() {
                    format!("{sign}{whole}")
                } else {
                    format!("{sign}{whole}.{fraction}")
                }
            } else {
                format!("{sign}0.{}{digits}", "0".repeat(point - len - 1))
            };
            if !token.contains('.') || next(2) == 1 {
                let exponent = next(691) as i64 - 360;
                let marker = ["e", "E", "e+"][next(3) as usize];
                token += &if exponent < 0 {
                    format!("e{exponent}")
                } else {
                    format!("{marker}{exponent}")
                };
            }
            token
        })
    }

    #[test]
    fn reads_boundary_tokens_like_std() {
        let corpus = [
            "0.0",
            "-0.0",
            "0e0",
            "-0e-5",
            "1.0",
            "1e400",
            "-1e400",
            "1e-400",
            "-1e-400",
            "4.9e-324",
            "5e-324",
            "2.4703282292062327e-324",
            "2.4703282292062328e-324",
            "2.2250738585072011e-308",
            "2.2250738585072014e-308",
            "2.225073858507201e-308",
            "1.7976931348623157e308",
            "1.7976931348623158e308",
            "1.7976931348623159e308",
            "9007199254740993.0",
            "9007199254740992.5",
            "9007199254740993.00000000000000001",
            "1099514114116857.25",
            "0.1",
            "0.30000000000000004",
            "0.000000000000000000000000000000000000000000123",
            "0.0000000000000000000001234567890123456789",
            "0.00000000000000000000012345678901234567891",
            "1234567890123456789.0",
            "12345678901234567890.0",
            "1000000000000000000000.0",
            "123456789012345678901234567890e-10",
            "1e23",
            "8.98846567431158e307",
            "1e-342",
            "1e-343",
            "1e308",
            "1e309",
            "3e-324",
            "2e-324",
            "7.2057594037927933e16",
            "1.0e99999999999999999999",
            "1.0e-99999999999999999999",
            "0.0e99999999999999999999",
        ];
        let mut tokens: Vec<String> = corpus.iter().map(|t| t.to_string()).collect();
        // 10^-20 written with 1 to 400 leading fraction zeros and an
        // exponent that brings it back.
        tokens.extend((1..=400).map(|z| format!("0.{}1e{}", "0".repeat(z), z as i64 - 19)));
        assert_eq!(parse_mismatches(tokens.into_iter()), 0);
        assert_eq!(read("1e400"), Some(f64::INFINITY));
        assert_eq!(read("1e-400").map(f64::to_bits), Some(0));
        assert_eq!(read("-0.0").map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn reads_exact_halfway_ties_like_std() {
        // (2m + 1) / 2^(k + 1) lies exactly halfway between two doubles
        // with 53-bit mantissas m and m + 1 scaled by 2^-k, and
        // (2m + 1) × 2^k between m and m + 1 scaled by 2^(k + 1). Both
        // are written out exactly; ties must round to even.
        let tokens = bit_patterns(13, 20_000).flat_map(|r| {
            let m = (1u64 << 52) | (r.to_bits() >> 12);
            let odd = 2 * u128::from(m) + 1;
            let below = (0..5u32).map(move |k| {
                let scale = 1u128 << (k + 1);
                let fraction = (odd % scale) * 5u128.pow(k + 1);
                format!("{}.{fraction:0width$}", odd / scale, width = k as usize + 1)
            });
            let above = (0..11u32).map(move |k| format!("{}.0", odd << k));
            below.chain(above)
        });
        assert_eq!(parse_mismatches(tokens), 0);
    }

    #[test]
    fn refuses_what_the_grammar_excludes() {
        for token in [
            "", "-", "01.5", "-01.5", "00.0", "1.", "1.e5", ".5", "-.5", "1e", "1e+", "1e-", "1E",
            "+1.0", "NaN", "nan", "inf", "-inf", "infinity", "1", "-0", "0", "123", "-1", "e5",
            "- 1.0", "null", "0x1p3",
        ] {
            assert_eq!(read_json(token.as_bytes()), None, "{token:?}");
        }
        // A token ends where the grammar does; the rest is the caller's.
        for (text, value, len) in [
            ("1.5.5", 1.5, 3),
            ("1.5e3e3", 1500.0, 5),
            ("2.5,1.0", 2.5, 3),
            ("-0.5]", -0.5, 4),
            ("1.0-2", 1.0, 3),
            ("3e2.5", 300.0, 3),
            ("12345678.125x", 12_345_678.125, 12),
        ] {
            assert_eq!(read_json(text.as_bytes()), Some((value, len)), "{text}");
        }
    }

    #[test]
    fn eight_digit_steps() {
        let fives = u64::from_le_bytes(*b"55555555");
        for k in 0..8 {
            for byte in 0..=255u8 {
                let word = fives & !(0xff << (8 * k)) | u64::from(byte) << (8 * k);
                assert_eq!(
                    is_eight_digits(word),
                    byte.is_ascii_digit(),
                    "{byte:#x} at {k}"
                );
            }
        }
        for n in bit_patterns(5, 10_000).map(|r| r.to_bits() % 100_000_000) {
            let text = format!("{n:08}");
            let word = u64::from_le_bytes(text.as_bytes().try_into().expect("eight"));
            assert_eq!(eight_digits(word), n);
        }
    }

    #[test]
    fn reads_like_std() {
        let n = if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        };
        assert_eq!(parse_mismatches(printed(bit_patterns(2, n))), 0);
        assert_eq!(parse_mismatches(decimal_tokens(4, n)), 0);
    }

    #[test]
    #[ignore = "soak: 10^9 patterns, run with --release -- --ignored"]
    fn reads_like_std_soak() {
        let n = 1_000_000_000;
        assert_eq!(parse_mismatches(printed(bit_patterns(0xfeed, n))), 0);
        assert_eq!(parse_mismatches(decimal_tokens(0xbeef, n)), 0);
    }
}
