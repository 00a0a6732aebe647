//! Software emulation of the reduced-precision formats the paper evaluates.
//!
//! ScaleFold's §3.4 reports: TF32/AMP-fp16 are only marginally faster, naive
//! fp16 produces NaNs, and full **bfloat16** both converges and yields a
//! 1.24× speedup (OpenFold is memory-bound, so halving bytes moved nearly
//! halves memory-bound kernel time).
//!
//! This module provides bit-accurate [`Bf16`] (round-to-nearest-even) and
//! [`Fp16`] conversions plus tensor-level quantization helpers. The
//! CPU-scale trainer rounds each step's gradients through the chosen
//! [`Precision`] before the optimizer update; activations and weights stay
//! f32.

use crate::Tensor;

/// A bfloat16 value: the top 16 bits of an IEEE-754 f32 (8-bit exponent,
/// 7-bit mantissa). Same dynamic range as f32, reduced precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Largest finite bf16 (≈ 3.39e38).
    pub const MAX: Bf16 = Bf16(0x7F7F);

    /// Converts from f32 with round-to-nearest-even (the hardware rounding
    /// mode on NVIDIA GPUs and TPUs).
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Preserve NaN, force a quiet mantissa bit.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even on the truncated 16 bits: adding
        // 0x7FFF + lsb carries into bit 16 exactly when the dropped half
        // is > 0.5 ulp, or == 0.5 ulp with an odd kept lsb.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x0000_7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts back to f32 (exact).
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// True for NaN payloads.
    pub fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }
}

impl From<f32> for Bf16 {
    fn from(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> Self {
        x.to_f32()
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// An IEEE-754 binary16 value (5-bit exponent, 10-bit mantissa). Narrow
/// dynamic range: overflows above 65504 — which is exactly why naive fp16
/// AlphaFold training NaNs out (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fp16(u16);

impl Fp16 {
    /// Largest finite fp16 (65504).
    pub const MAX_F32: f32 = 65504.0;

    /// Converts from f32 with round-to-nearest-even; overflows to ±inf.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return Fp16(sign | 0x7C00 | payload);
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return Fp16(sign | 0x7C00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal range: keep 10 mantissa bits with RNE.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shift = 13;
            let kept = (mant >> shift) as u16;
            let rem = mant & ((1 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | half_exp | kept;
            if rem > halfway || (rem == halfway && (kept & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: correct
            }
            return Fp16(out);
        }
        if unbiased >= -25 {
            // Subnormal: value = kept * 2^-24, kept = round(full * 2^(unbiased+1)).
            let shift = (-unbiased - 1) as u32; // 14..=24
            let full = mant | 0x0080_0000;
            let mut kept = (full >> shift) as u16;
            let rem = full & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            if rem > halfway || (rem == halfway && (kept & 1) == 1) {
                kept = kept.wrapping_add(1); // may carry into min normal: correct
            }
            return Fp16(sign | kept);
        }
        Fp16(sign) // underflow to zero
    }

    /// Converts back to f32.
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 as u32) & 0x8000) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;
        let bits = if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13)
        } else if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalize.
                let mut e = -14i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// True if the value is infinite.
    pub fn is_infinite(self) -> bool {
        self.to_f32().is_infinite()
    }

    /// True for NaN payloads.
    pub fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }
}

impl From<f32> for Fp16 {
    fn from(x: f32) -> Self {
        Fp16::from_f32(x)
    }
}

impl From<Fp16> for f32 {
    fn from(x: Fp16) -> Self {
        x.to_f32()
    }
}

impl std::fmt::Display for Fp16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Numeric precision policy applied to gradients during training.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Precision {
    /// Full f32 (the MLPerf reference default).
    #[default]
    F32,
    /// bfloat16 storage: gradients rounded through [`Bf16`] each step.
    Bf16,
    /// Naive float16 storage: gradients rounded through [`Fp16`] each step
    /// — included to demonstrate the NaN failure mode.
    Fp16,
}

impl Precision {
    /// Rounds a tensor through this precision's storage format.
    pub fn quantize(self, t: &Tensor) -> Tensor {
        match self {
            Precision::F32 => t.clone(),
            Precision::Bf16 => t.map(|x| Bf16::from_f32(x).to_f32()),
            Precision::Fp16 => t.map(|x| Fp16::from_f32(x).to_f32()),
        }
    }

    /// Bytes per element in this format (used by the roofline model).
    pub fn bytes_per_element(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 | Precision::Fp16 => 2,
        }
    }
}

impl Fp16 {
    /// Constructs from a raw bit pattern (test/interop helper).
    pub fn from_bits_raw(bits: u16) -> Self {
        Fp16(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_exact_values() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 1.5e30, -3.0e-30] {
            let b = Bf16::from_f32(x);
            // Values with ≤7 mantissa bits round-trip exactly.
            if x.to_bits() & 0xFFFF == 0 {
                assert_eq!(b.to_f32(), x);
            }
        }
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(-2.5).to_f32(), -2.5);
    }

    #[test]
    fn bf16_relative_error_bound() {
        // bf16 has 8 significand bits -> relative error <= 2^-8.
        for i in 0..1000 {
            let x = (i as f32 * 0.37 + 0.01) * if i % 2 == 0 { 1.0 } else { -1.0 };
            let r = Bf16::from_f32(x).to_f32();
            assert!(((r - x) / x).abs() <= 1.0 / 256.0, "{x} -> {r}");
        }
    }

    #[test]
    fn bf16_round_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next value;
        // RNE keeps the even (lower) one.
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(halfway).to_bits(), 0x3F80);
        // Just above halfway rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(above).to_bits(), 0x3F81);
    }

    #[test]
    fn bf16_preserves_nan_and_inf() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert_eq!(Bf16::from_f32(f32::INFINITY), Bf16::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn bf16_huge_dynamic_range() {
        // bf16 represents 1e38 — fp16 cannot.
        assert!(Bf16::from_f32(1.0e38).to_f32().is_finite());
        assert!(Fp16::from_f32(1.0e38).is_infinite());
    }

    #[test]
    fn fp16_round_trip_exact_values() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, 65504.0, 6.1035156e-5, 2048.0] {
            assert_eq!(Fp16::from_f32(x).to_f32(), x, "{x}");
        }
    }

    #[test]
    fn fp16_overflow_to_inf() {
        assert!(Fp16::from_f32(70000.0).is_infinite());
        assert!(Fp16::from_f32(-70000.0).is_infinite());
        assert!(!Fp16::from_f32(65504.0).is_infinite());
    }

    #[test]
    fn fp16_subnormals() {
        let tiny = 5.96e-8f32; // smallest fp16 subnormal ≈ 5.96e-8
        let r = Fp16::from_f32(tiny).to_f32();
        assert!(r > 0.0 && (r - tiny).abs() / tiny < 0.5);
        assert_eq!(Fp16::from_f32(1e-12).to_f32(), 0.0); // underflow
    }

    #[test]
    fn fp16_nan() {
        assert!(Fp16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn precision_quantize_tensor() {
        let t = Tensor::from_vec(vec![1.0, 1.0e5, 1.0e38], &[3]).unwrap();
        let bf = Precision::Bf16.quantize(&t);
        assert!(!bf.has_non_finite());
        let fp = Precision::Fp16.quantize(&t);
        // fp16 overflows on 1e5 and 1e38 — the paper's naive-fp16 NaN story.
        assert!(fp.has_non_finite());
        assert_eq!(Precision::F32.quantize(&t), t);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes_per_element(), 4);
        assert_eq!(Precision::Bf16.bytes_per_element(), 2);
    }

    #[test]
    fn exhaustive_fp16_round_trip_via_bits() {
        // Every finite fp16 bit pattern must survive fp16 -> f32 -> fp16.
        for bits in 0u16..=0xFFFF {
            let h = Fp16::from_bits_raw(bits);
            let f = h.to_f32();
            if f.is_nan() {
                continue;
            }
            let back = Fp16::from_f32(f);
            assert_eq!(back.0, bits, "bits {bits:#06x} -> {f} -> {:#06x}", back.0);
        }
    }
}
