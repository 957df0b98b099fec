//! Derives the power-of-five tables of the codec's float printer (see
//! `src/ryu.rs`) with exact big-integer arithmetic and writes them to
//! `$OUT_DIR/ryu_tables.rs`, so no process computes them at run time and
//! no hand-copied literal can drift from its definition:
//!
//! - `POW5_SPLIT[i]` is `5^i` scaled to exactly `POW5_BITS` bits (the top
//!   `POW5_BITS` bits of `5^i`, or `5^i` shifted up to that width);
//! - `POW5_INV_SPLIT[q]` is `floor(2^(bitlen(5^q) - 1 + POW5_BITS) / 5^q) + 1`.

use std::fmt::Write as _;

/// Width, in bits, of every table entry.
const POW5_BITS: usize = 125;
/// `POW5_SPLIT` covers `5^0 ..= 5^325`, the largest power a subnormal needs.
const POW5_ENTRIES: u32 = 326;
/// `POW5_INV_SPLIT` covers `5^-0 ..= 5^-341`, past the largest `f64`.
const POW5_INV_ENTRIES: u32 = 342;

/// An unsigned big integer, 32-bit limbs, least significant first.
struct Big(Vec<u32>);

impl Big {
    fn mul_small(&mut self, factor: u32) {
        let mut carry = 0u64;
        for limb in &mut self.0 {
            let product = u64::from(*limb) * u64::from(factor) + carry;
            *limb = product as u32;
            carry = product >> 32;
        }
        if carry != 0 {
            self.0.push(carry as u32);
        }
    }

    fn bit_len(&self) -> usize {
        let top = self
            .0
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |i| i + 1);
        match top {
            0 => 0,
            n => 32 * n - self.0[n - 1].leading_zeros() as usize,
        }
    }

    fn bit(&self, index: usize) -> bool {
        self.0
            .get(index / 32)
            .is_some_and(|limb| limb >> (index % 32) & 1 == 1)
    }

    /// `self * 2 + bit`.
    fn shift_in(&mut self, bit: bool) {
        let mut carry = u32::from(bit);
        for limb in &mut self.0 {
            let next = *limb >> 31;
            *limb = *limb << 1 | carry;
            carry = next;
        }
        if carry != 0 {
            self.0.push(carry);
        }
    }

    fn at_least(&self, other: &Big) -> bool {
        let limbs = self.0.len().max(other.0.len());
        for i in (0..limbs).rev() {
            let (a, b) = (self.0.get(i).unwrap_or(&0), other.0.get(i).unwrap_or(&0));
            if a != b {
                return a > b;
            }
        }
        true
    }

    /// `self - other`, for `self >= other`.
    fn subtract(&mut self, other: &Big) {
        let mut borrow = 0i64;
        for (i, limb) in self.0.iter_mut().enumerate() {
            let diff = i64::from(*limb) - i64::from(*other.0.get(i).unwrap_or(&0)) - borrow;
            borrow = i64::from(diff < 0);
            *limb = diff.rem_euclid(1 << 32) as u32;
        }
    }
}

/// `value`'s bits `from .. from + POW5_BITS` (bits below zero read as 0).
fn window(value: &Big, from: isize) -> u128 {
    (0..POW5_BITS).fold(0u128, |acc, b| {
        let index = from + b as isize;
        let set = index >= 0 && value.bit(index as usize);
        acc | u128::from(set) << b
    })
}

/// `floor(2^exponent / divisor)`, by binary long division; the quotient of
/// every table entry fits 126 bits.
fn power_of_two_over(exponent: usize, divisor: &Big) -> u128 {
    let (mut remainder, mut quotient) = (Big(Vec::new()), 0u128);
    for b in (0..=exponent).rev() {
        remainder.shift_in(b == exponent);
        quotient <<= 1;
        if remainder.at_least(divisor) {
            remainder.subtract(divisor);
            quotient |= 1;
        }
    }
    quotient
}

fn table(out: &mut String, name: &str, entries: impl Iterator<Item = u128>) {
    let entries: Vec<u128> = entries.collect();
    let _ = writeln!(out, "static {name}: [u128; {}] = [", entries.len());
    for entry in entries {
        let _ = writeln!(out, "    {entry:#034x},");
    }
    out.push_str("];\n");
}

fn main() -> std::io::Result<()> {
    println!("cargo:rerun-if-changed=build.rs");
    let powers: Vec<Big> = (0..POW5_INV_ENTRIES)
        .scan(Big(vec![1]), |power, _| {
            let current = Big(power.0.clone());
            power.mul_small(5);
            Some(current)
        })
        .collect();
    let mut out = format!(
        "/// Bits in every entry of the two tables below.\nconst POW5_BITS: i32 = {POW5_BITS};\n"
    );
    table(
        &mut out,
        "POW5_SPLIT",
        powers[..POW5_ENTRIES as usize]
            .iter()
            .map(|power| window(power, power.bit_len() as isize - POW5_BITS as isize)),
    );
    table(
        &mut out,
        "POW5_INV_SPLIT",
        powers
            .iter()
            .map(|power| power_of_two_over(power.bit_len() - 1 + POW5_BITS, power) + 1),
    );
    let dir = std::env::var_os("OUT_DIR")
        .ok_or_else(|| std::io::Error::other("cargo sets OUT_DIR for build scripts"))?;
    std::fs::write(std::path::Path::new(&dir).join("ryu_tables.rs"), out)
}
