//! The number printers behind [`write_f64`](crate::write_f64) and
//! [`write_int`](crate::write_int): decimal digits written straight into
//! the output, without going through `core::fmt`.
//!
//! Floats take Ulf Adams' Ryū ("Ryū: fast float-to-string conversion",
//! PLDI 2018): the shortest digits that read back as the same `f64` come
//! out of three 128-bit multiplications by a power of five, from the
//! tables `build.rs` derives with exact big-integer arithmetic. One rule is
//! std's rather than the paper's, so the digits are the ones std's
//! `Display` picks (Grisu with a Dragon4 fallback): an exact tie between
//! two shortest candidates rounds up, never to even, so
//! `1125899906842624.25` prints as `1125899906842624.3`.
//!
//! The digits are then laid out positionally, as `Display` lays them out:
//! never an exponent, so `1e21` prints as 22 digits and `5e-324` with 324
//! fraction digits. std's `Display` is the oracle of the crate's tests,
//! over every binade, edge and tie.

include!(concat!(env!("OUT_DIR"), "/ryu_tables.rs"));

/// `"00" "01" … "99"`: the two digits of every value below 100.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Room for the 20 digits of the largest `u64`.
type Digits = [u8; 20];

/// Writes the decimal digits of `value` at the end of `buf`, returning
/// where they start.
fn digits(mut value: u64, buf: &mut Digits) -> usize {
    let mut at = buf.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + value as u8;
    }
    at
}

/// Appends `value` in decimal, as `u64::to_string` writes it.
pub(crate) fn write_u64(value: u64, out: &mut Vec<u8>) {
    let mut buf = Digits::default();
    let start = digits(value, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Appends the finite `value` as std's `Display` writes it, then `.0` when
/// that text has no `.`.
pub(crate) fn write_finite(value: f64, out: &mut Vec<u8>) {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    if bits << 1 == 0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exponent) = shortest(bits);
    let mut buf = Digits::default();
    let start = digits(mantissa, &mut buf);
    let digits = &buf[start..];
    // Digits before the decimal point; zero or fewer puts every digit after
    // it, behind that many zeros.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
        out.extend_from_slice(b".0");
    }
}

/// `floor(log10(2^e))`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// The bit length of `5^e`, for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Whether `5^p` divides the nonzero `value`.
fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(m * mul / 2^j)`, for `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exponent)` with `digits × 10^exponent` reading
/// back as the finite nonzero `f64` of `bits`, and among those the one std
/// picks: the closest to the value, a tie going up.
fn shortest(bits: u64) -> (u64, i32) {
    let fraction = bits & ((1 << 52) - 1);
    let biased = (bits >> 52 & 0x7ff) as i32;
    // The value is `m2 × 2^e2`, with two bits of room below `m2` for the
    // interval's half-ulp bounds.
    let (m2, e2) = match biased {
        0 => (fraction, 1 - 1023 - 52 - 2),
        _ => (fraction | 1 << 52, biased - 1023 - 52 - 2),
    };
    // Bounds read back as the value iff its mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    // Below a power of two the gap is half the gap above. `MIN_POSITIVE` is
    // the exception (the subnormal spacing below equals the gap above), but
    // std's decode narrows the lower bound there too, so this does the same;
    // Ryū's symmetric bounds print the same bytes at that value.
    let mm_shift = u64::from(fraction != 0);
    let mv = 4 * m2;

    // The value and its two bounds, scaled down by `10^e10` and truncated:
    // `vr`, `vp` (upper) and `vm` (lower). `vm_exact` marks a lower bound
    // that the scaling left exact and that reads back as the value.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // A scaled bound is exact iff `5^q` divides it; at most one of the
        // value and its bounds is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let j = q - (pow5_bits(i) - POW5_BITS);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // A scaled bound is exact iff `2^q` divides it: the upper one always,
        // the lower one iff the bounds are symmetric.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while a shorter candidate still lies between the bounds,
    // rounding on the last digit dropped: a 5 rounds up, since std rounds
    // even an exact tie up (Ryū would round a tie to even).
    let (mut removed, mut round_up) = (0, false);
    while vp / 100 > vm / 100 {
        vm_exact &= vm % 100 == 0;
        round_up = vr % 100 >= 50;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        // The lower bound is a candidate itself: shorten onto its zeros.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // `vm` itself is outside the interval unless it is an exact candidate.
    let output = vr + u64::from((vr == vm && !vm_exact) || round_up);
    (output, e10 + removed)
}
