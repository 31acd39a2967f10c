//! Distribution trait and uniform range sampling.

use crate::{unit_f64, Rng, RngCore};

/// A distribution over values of type `T` (mirrors
/// `rand::distributions::Distribution`).
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "standard" distribution: full-range integers, unit-interval floats,
/// fair-coin bools.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Distribution<u64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Distribution<u32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

pub mod uniform {
    //! Range sampling used by [`Rng::gen_range`].

    use super::*;
    use std::ops::{Range, RangeInclusive};

    /// A range that can produce uniform samples of `T`.
    pub trait SampleRange<T> {
        /// Draws one uniform sample from the range.
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    }

    macro_rules! int_sample_range {
        ($($t:ty),+) => {$(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128) % span;
                    (lo as i128 + offset as i128) as $t
                }
            }
        )+};
    }

    int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_sample_range {
        ($($t:ty),+) => {$(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let u = unit_f64(rng.next_u64()) as $t;
                    let v = self.start + (self.end - self.start) * u;
                    // Floating rounding can land exactly on `end`; fold back.
                    if v >= self.end { self.start } else { v }
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    lo + (hi - lo) * unit_f64(rng.next_u64()) as $t
                }
            }
        )+};
    }

    float_sample_range!(f32, f64);
}
