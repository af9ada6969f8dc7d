//! The workspace's one seeded pseudo-random generator.
//!
//! Marsaglia's xorshift64 with the 13/7/17 shift triple: a full-period
//! generator over the non-zero 64-bit states, deterministic across runs
//! and platforms, and dependency-free. Everything in the workspace that
//! needs a reproducible stream draws from it (sampled fault plans, the T4
//! object mix, every randomized test), so a run is fixed by its seed. It
//! is not suitable for anything adversarial.

/// A seeded xorshift64 generator.
///
/// ```
/// use com_cache::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`. Any seed is
    /// valid: it is spread by a golden-ratio multiply, and the one seed
    /// that would give the all-zero state (zero) starts from state 1.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `0..n`, by reduction modulo `n` (which must be
    /// non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_does_not_stick() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
