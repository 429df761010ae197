//! Exact, order-independent `f64` summation.
//!
//! Partitioned execution (see
//! [`crate::parallel::run_partitioned_partial`]) promises results
//! **byte-identical** to a single-partition scan, but
//! float addition is not associative: folding per-partition subtotals
//! re-associates the sum and perturbs the last bits. [`ExactSum`] makes
//! SUM/AVG mergeable anyway by never rounding during accumulation.
//!
//! Every finite double is an integer multiple of 2⁻¹⁰⁷⁴ spanning at
//! most 2098 bits, so the running sum is kept as a wide fixed-point
//! integer in 32-bit limbs (stored in `i64` lanes, leaving 31 bits of
//! headroom so carries only need propagating every ~2³⁰ additions).
//! Integer addition is associative and commutative, so accumulating
//! row-by-row, phase-by-phase, or merging per-partition states in any
//! order all represent the *same* exact value; [`ExactSum::value`]
//! rounds it to the nearest double (ties-to-even) exactly once. Non-
//! finite inputs are rare enough to escape the fixed-point path: they
//! are folded into a separate IEEE accumulator that dominates the
//! result, matching a naive fold's inf/NaN propagation.

/// Number of 32-bit limbs: 2098 bits of double range rounded up, plus
/// two limbs of headroom for intermediate magnitudes beyond `f64::MAX`
/// (a sum may overflow the double range and must round to infinity).
const LIMBS: usize = 68;

/// Propagate carries once this many raw additions have accumulated in
/// the limbs; keeps every `i64` lane below 2⁶² (each addition deposits
/// less than 2³² per lane).
const RENORM_EVERY: u32 = 1 << 29;

const LIMB_MASK: i64 = 0xFFFF_FFFF;

/// An exact `f64` summation state: add in any order, merge partials in
/// any order, and [`value`](ExactSum::value) always returns the same
/// correctly rounded double.
#[derive(Debug, Clone, Copy)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
    /// Additions since the last carry propagation.
    pending: u32,
    /// Naive fold of non-finite addends (`±inf`, NaN); dominates the
    /// rounded value when present.
    specials: f64,
    has_specials: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::ZERO
    }
}

impl ExactSum {
    /// The empty sum.
    pub const ZERO: ExactSum = ExactSum {
        limbs: [0; LIMBS],
        pending: 0,
        specials: 0.0,
        has_specials: false,
    };

    /// Add one value to the sum.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.specials += v;
            self.has_specials = true;
            return;
        }
        if v == 0.0 {
            return;
        }
        let bits = v.to_bits();
        let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
        let exp = ((bits >> 52) & 0x7FF) as usize;
        let frac = bits & ((1u64 << 52) - 1);
        // value = sign · m · 2^(e − 1074), bit offset e from the bottom
        // of the accumulator (e = 0 for subnormals).
        let (m, e) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | (1u64 << 52), exp - 1)
        };
        let limb = e / 32;
        let shift = (e % 32) as u32;
        let wide = (m as u128) << shift; // ≤ 84 bits → 3 limbs
        self.limbs[limb] += sign * ((wide & LIMB_MASK as u128) as i64);
        self.limbs[limb + 1] += sign * (((wide >> 32) & LIMB_MASK as u128) as i64);
        self.limbs[limb + 2] += sign * (((wide >> 64) & LIMB_MASK as u128) as i64);
        self.pending += 1;
        if self.pending >= RENORM_EVERY {
            self.propagate();
        }
    }

    /// Fold another sum into this one. Exact: merging partitions in any
    /// order yields the same rounded value as one sequential pass.
    pub fn merge(&mut self, other: &ExactSum) {
        // Propagate first so both operands' lanes fit in 33 bits and
        // the pairwise addition cannot overflow.
        self.propagate();
        let mut theirs = *other;
        theirs.propagate();
        for (a, b) in self.limbs.iter_mut().zip(theirs.limbs) {
            *a += b;
        }
        if other.has_specials {
            self.specials += other.specials;
            self.has_specials = true;
        }
    }

    /// Reduce every lane to its low 32 bits, pushing carries upward.
    /// Representation-only: the value is unchanged. The top lane keeps
    /// the full (sign-extended) carry.
    fn propagate(&mut self) {
        self.pending = 0;
        let mut carry: i64 = 0;
        for (i, l) in self.limbs.iter_mut().enumerate() {
            let t = *l + carry;
            if i == LIMBS - 1 {
                *l = t;
            } else {
                *l = t & LIMB_MASK;
                carry = t >> 32; // arithmetic: keeps the sign
            }
        }
    }

    /// The sum, rounded once to the nearest double (ties to even).
    pub fn value(&self) -> f64 {
        if self.has_specials {
            // Inf/NaN dominate any finite contribution, as in a naive
            // fold (inf + finite = inf, inf + -inf = NaN, NaN sticks).
            return self.specials;
        }
        let mut s = *self;
        s.propagate();
        // Extract the sign, reducing to a non-negative magnitude.
        let negative = s.limbs[LIMBS - 1] < 0;
        if negative {
            let mut carry: i64 = 1;
            for (i, l) in s.limbs.iter_mut().enumerate() {
                let t = ((!*l) & LIMB_MASK) + carry;
                if i == LIMBS - 1 {
                    *l = t;
                } else {
                    *l = t & LIMB_MASK;
                    carry = t >> 32;
                }
            }
            s.limbs[LIMBS - 1] &= LIMB_MASK;
        }
        let sign = if negative { -1.0 } else { 1.0 };

        // Highest set bit (offset from the 2⁻¹⁰⁷⁴ bottom).
        let Some(hi) = s.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let top = 32 * hi + (63 - (s.limbs[hi] as u64).leading_zeros() as usize);

        if top <= 52 {
            // At most 53 bits above the bottom: exactly representable
            // (subnormal or smallest normals) — no rounding.
            let m = (s.limbs[1] as u64) << 32 | s.limbs[0] as u64;
            return sign * (m as f64) * f64::from_bits(1); // m · 2⁻¹⁰⁷⁴
        }

        // 53-bit mantissa from bits [top−52, top], then round to
        // nearest, ties to even, on the guard/sticky bits below.
        let mut mantissa = bit_range_53(&s.limbs, top - 52);
        let guard = bit_at(&s.limbs, top - 53);
        let sticky = any_bit_below(&s.limbs, top - 53);
        let mut top = top;
        if guard && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1 << 53 {
                mantissa >>= 1;
                top += 1;
            }
        }
        // value = mantissa · 2^(top − 52 − 1074), with mantissa in
        // [2^52, 2^53) — a normal double whenever it is in range.
        let scale_exp = top as i64 - 52 - 1074;
        if scale_exp > 1023 - 52 {
            return sign * f64::INFINITY;
        }
        let m = mantissa as f64; // < 2^53: exact
        let v = if scale_exp >= -1022 {
            // 2^scale_exp is itself a normal double; one exact multiply.
            m * f64::from_bits(((scale_exp + 1023) as u64) << 52)
        } else {
            // scale_exp ∈ [−1073, −1023]: the *result* is still normal
            // (≥ 2^(top−1074) ≥ 2^−1021) but the scale alone would be
            // subnormal, so split into two exact multiplications by
            // normal powers of two.
            let rest = scale_exp + 1022; // ∈ [−51, −1]
            m * f64::from_bits(((rest + 1023) as u64) << 52) * f64::from_bits(1u64 << 52)
        };
        sign * v
    }

    /// Whether nothing has been added (merge of empties included).
    pub fn is_zero(&self) -> bool {
        !self.has_specials && self.limbs.iter().all(|&l| l == 0)
    }
}

/// The 53 bits starting at offset `lo` (inclusive), from propagated
/// non-negative limbs.
fn bit_range_53(limbs: &[i64; LIMBS], lo: usize) -> u64 {
    let limb = lo / 32;
    let shift = (lo % 32) as u32;
    let mut wide: u128 = 0;
    for i in (0..3).rev() {
        wide = (wide << 32) | limbs[(limb + i).min(LIMBS - 1)] as u128;
    }
    ((wide >> shift) & ((1u128 << 53) - 1)) as u64
}

fn bit_at(limbs: &[i64; LIMBS], pos: usize) -> bool {
    (limbs[pos / 32] >> (pos % 32)) & 1 == 1
}

fn any_bit_below(limbs: &[i64; LIMBS], pos: usize) -> bool {
    let limb = pos / 32;
    let shift = (pos % 32) as u32;
    if limbs[limb] & ((1i64 << shift) - 1) != 0 {
        return true;
    }
    limbs[..limb].iter().any(|&l| l != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(values: &[f64]) -> f64 {
        let mut s = ExactSum::ZERO;
        for &v in values {
            s.add(v);
        }
        s.value()
    }

    #[test]
    fn simple_sums_match_naive() {
        assert_eq!(exact(&[]), 0.0);
        assert_eq!(exact(&[1.0]), 1.0);
        assert_eq!(exact(&[1.5, 2.25, -0.75]), 3.0);
        assert_eq!(exact(&[10.0, 20.0, 30.0, 40.0]), 100.0);
        assert_eq!(exact(&[-1.0, 1.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive left-to-right loses the small term entirely.
        assert_eq!(exact(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(exact(&[1e16, 1.0, -1e16, 1.0]), 2.0);
    }

    #[test]
    fn subnormals_and_extremes() {
        let tiny = f64::from_bits(1); // 2⁻¹⁰⁷⁴
        assert_eq!(exact(&[tiny]), tiny);
        assert_eq!(exact(&[tiny, tiny]), 2.0 * tiny);
        assert_eq!(exact(&[tiny, -tiny]), 0.0);
        assert_eq!(exact(&[f64::MAX]), f64::MAX);
        assert_eq!(exact(&[f64::MIN_POSITIVE, -f64::MIN_POSITIVE]), 0.0);
        // Sum beyond the double range rounds to infinity.
        assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // ... unless it cancels back into range.
        assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    /// Regression: results with magnitude in [2⁻¹⁰²¹, ~2⁻⁹⁷¹) go
    /// through the rounding path with a scale exponent below −1022;
    /// the old single `from_bits` scale wrapped and produced garbage.
    #[test]
    fn tiny_normal_results_round_trip() {
        for e in [-1021i32, -1020, -1000, -980, -972] {
            let v = 2f64.powi(e) * 1.5;
            assert_eq!(exact(&[v]).to_bits(), v.to_bits(), "2^{e} · 1.5");
            assert_eq!(exact(&[-v]).to_bits(), (-v).to_bits());
        }
        // A 53-bit window that straddles the small-normal boundary:
        // 2⁻¹⁰²⁰ + 2⁻¹⁰⁷⁰ is exactly representable (50-bit gap).
        let v = 2f64.powi(-1020) + 2f64.powi(-1070);
        assert_eq!(
            exact(&[2f64.powi(-1020), 2f64.powi(-1070)]).to_bits(),
            v.to_bits()
        );
        // And one that genuinely rounds there: 2⁻¹⁰²⁰ + 2⁻¹⁰⁷⁴ has a
        // 54-bit gap, so the tiny addend is rounding noise.
        let tiny = f64::from_bits(1);
        assert_eq!(
            exact(&[2f64.powi(-1020), tiny]).to_bits(),
            2f64.powi(-1020).to_bits()
        );
    }

    /// Every representable magnitude round-trips through a single add:
    /// sweep the full exponent range including subnormals and odd
    /// mantissas.
    #[test]
    fn single_value_round_trips_across_all_exponents() {
        let mut state = 0x9E3779B97F4A7C15u64;
        for exp_field in 0..2047u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mantissa = state & ((1u64 << 52) - 1);
            for &m in &[0u64, 1, mantissa, (1 << 52) - 1] {
                let bits = (exp_field << 52) | m;
                let v = f64::from_bits(bits);
                if v == 0.0 {
                    continue;
                }
                assert_eq!(exact(&[v]).to_bits(), v.to_bits(), "bits {bits:#x}");
                assert_eq!(exact(&[-v]).to_bits(), (-v).to_bits(), "-bits {bits:#x}");
            }
        }
    }

    #[test]
    fn specials_dominate() {
        assert_eq!(exact(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(exact(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        assert!(exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(exact(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn negative_zero_sums_to_positive_zero() {
        // IEEE round-to-nearest: (+0) + (−0) = +0, as a naive fold
        // seeded with +0 would produce.
        let v = exact(&[-0.0, -0.0]);
        assert_eq!(v, 0.0);
        assert_eq!(v.to_bits(), 0.0f64.to_bits());
    }

    /// Deterministic pseudo-random doubles across many magnitudes.
    fn mixed_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mag = ((state >> 60) as i32) - 8; // 2^(-8·3) .. 2^(7·3)
                let frac = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                frac * (2f64).powi(mag * 3)
            })
            .collect()
    }

    #[test]
    fn order_independent_and_merge_equals_sequential() {
        for seed in [3u64, 17, 99, 1234] {
            let vals = mixed_values(500, seed);
            let forward = exact(&vals);
            let mut rev = vals.clone();
            rev.reverse();
            assert_eq!(forward.to_bits(), exact(&rev).to_bits());

            // Any partitioning, merged in any order, is identical.
            for cut in [1usize, 7, 250, 499] {
                let mut a = ExactSum::ZERO;
                let mut b = ExactSum::ZERO;
                for &v in &vals[..cut] {
                    a.add(v);
                }
                for &v in &vals[cut..] {
                    b.add(v);
                }
                let mut ab = a;
                ab.merge(&b);
                let mut ba = b;
                ba.merge(&a);
                assert_eq!(forward.to_bits(), ab.value().to_bits());
                assert_eq!(forward.to_bits(), ba.value().to_bits());
            }
        }
    }

    #[test]
    fn matches_i128_reference_on_same_scale_values() {
        // Values that are exact multiples of 2⁻²⁰: compare against an
        // exact integer reference.
        let mut state = 5u64;
        let vals: Vec<f64> = (0..2000)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                ((state >> 30) as i64 - (1 << 33)) as f64 / (1 << 20) as f64
            })
            .collect();
        let reference: i128 = vals.iter().map(|&v| (v * (1 << 20) as f64) as i128).sum();
        assert_eq!(exact(&vals), reference as f64 / (1 << 20) as f64);
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 2⁵³ + 1 is not representable; the sum must round to 2⁵³
        // (even), not 2⁵³ + 2.
        let big = (1u64 << 53) as f64;
        assert_eq!(exact(&[big, 1.0]), big);
        // 2⁵³ + 2 is representable.
        assert_eq!(exact(&[big, 2.0]), big + 2.0);
        // 2⁵³ + 1 + 1 = 2⁵³ + 2 exactly (a naive fold gets 2⁵³!).
        assert_eq!(exact(&[big, 1.0, 1.0]), big + 2.0);
        // Guard set, sticky set: rounds up past the tie.
        let tiny = f64::from_bits(1);
        assert_eq!(exact(&[big, 1.0, tiny]), big + 2.0);
    }

    #[test]
    fn many_additions_renormalize_safely() {
        let mut s = ExactSum::ZERO;
        let n = (RENORM_EVERY as usize) + 1000;
        for _ in 0..n {
            s.add(1.0);
        }
        assert_eq!(s.value(), n as f64);
        assert!(!s.is_zero());
    }
}
