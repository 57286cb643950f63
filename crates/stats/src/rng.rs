//! Deterministic RNG derivation.
//!
//! Every stochastic component of the study derives its own ChaCha stream from
//! the scenario seed plus a component label, so adding or reordering one
//! component never perturbs another's random draws — the whole campaign is
//! reproducible bit-for-bit from a single `u64` seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// RNG type used throughout the study.
pub type StudyRng = ChaCha8Rng;

/// Derives an independent RNG stream from `(seed, label)`.
///
/// Uses an FNV-1a hash of the label mixed into the seed material so distinct
/// labels give statistically independent streams. A label assembled from
/// parts at a hot call site should go through [`RngLabel`] instead, which
/// derives the same stream without formatting the label into a `String`.
pub fn derive_rng(seed: u64, label: &str) -> StudyRng {
    RngLabel::new().push_str(label).rng(seed)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a, 64-bit, over `bytes`: the hash [`RngLabel`] folds a label with,
/// and the one behind the study's persisted identities (config and
/// population hashes) and the interned-name index.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    RngLabel::new().push_bytes(bytes).hash
}

/// An RNG label hashed as it is built — the allocation-free form of
/// `derive_rng(seed, &format!(..))`.
///
/// FNV-1a folds the label one byte at a time, so pushing a label's pieces
/// in order yields the hash of the whole formatted string, and
/// [`RngLabel::rng`] the very stream [`derive_rng`] would give for it.
///
/// ```
/// use ipv6web_stats::{derive_rng, RngLabel};
/// use rand::RngCore;
///
/// let built = RngLabel::new().push_str("Penn:probe:").push_u32(7).push_str(":").push_u32(0);
/// assert_eq!(built.rng(42).next_u64(), derive_rng(42, "Penn:probe:7:0").next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngLabel {
    hash: u64,
}

impl Default for RngLabel {
    fn default() -> Self {
        Self::new()
    }
}

impl RngLabel {
    /// The empty label.
    pub const fn new() -> Self {
        RngLabel { hash: FNV_OFFSET }
    }

    /// Appends `s`.
    #[inline]
    pub fn push_str(self, s: &str) -> Self {
        self.push_bytes(s.as_bytes())
    }

    /// Appends `n` in decimal, exactly as `format!("{n}")` writes it.
    #[inline]
    pub fn push_u32(self, n: u32) -> Self {
        self.push_u64(u64::from(n))
    }

    /// Appends `n` in decimal, exactly as `format!("{n}")` writes it.
    #[inline]
    pub fn push_u64(self, mut n: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.push_bytes(&digits[start..])
    }

    #[inline]
    fn push_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Derives the label's stream under `seed`.
    pub fn rng(self, seed: u64) -> StudyRng {
        ipv6web_obs::inc("stats.rng_derivations");
        let h = self.hash;
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&h.to_le_bytes());
        key[16..24].copy_from_slice(&seed.rotate_left(32).to_le_bytes());
        key[24..32].copy_from_slice(&h.rotate_left(17).to_le_bytes());
        ChaCha8Rng::from_seed(key)
    }
}

/// Draws from a log-normal distribution parameterized by the *median* and the
/// multiplicative spread `sigma` (std-dev of the underlying normal).
///
/// Web page download speeds, link delays, and page sizes are all heavy-tailed;
/// log-normal keeps them positive with a realistic tail.
pub fn lognormal<R: Rng>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    debug_assert!(median > 0.0, "median must be positive");
    // Box–Muller from two uniforms.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Bernoulli draw with probability `p` (clamped to `[0,1]`).
pub fn coin<R: Rng>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn same_seed_label_reproduces() {
        let mut a = derive_rng(42, "topology");
        let mut b = derive_rng(42, "topology");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = derive_rng(42, "topology");
        let mut b = derive_rng(42, "dns");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams must be independent");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lognormal_positive_and_centered() {
        let mut rng = derive_rng(7, "ln");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| lognormal(&mut rng, 100.0, 0.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
    }

    #[test]
    fn coin_respects_probability() {
        let mut rng = derive_rng(9, "coin");
        let hits = (0..10_000).filter(|_| coin(&mut rng, 0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
        assert!(!coin(&mut rng, 0.0));
        assert!(coin(&mut rng, 1.0));
    }

    #[test]
    fn label_digits_match_format() {
        for n in [0u64, 7, 10, 99, 100, 4_294_967_295, u64::MAX] {
            let mut built = RngLabel::new().push_u64(n).rng(3);
            let mut formatted = derive_rng(3, &n.to_string());
            assert_eq!(built.next_u64(), formatted.next_u64(), "{n}");
        }
        assert_eq!(RngLabel::new(), RngLabel::new().push_str(""));
    }

    proptest! {
        /// The probe's label, built piecewise, derives the stream the
        /// formatted label does — for any vantage name and any ids.
        #[test]
        fn built_probe_label_matches_formatted(
            seed in any::<u64>(),
            vantage in collection::vec(
                any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('.')),
                0..24,
            ),
            week in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            salt in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            site in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        ) {
            let vantage: String = vantage.into_iter().collect();
            let mut built = RngLabel::new()
                .push_str(&vantage)
                .push_str(":probe:")
                .push_u32(week)
                .push_str(":")
                .push_u32(salt)
                .push_str(":")
                .push_u32(site)
                .rng(seed);
            let mut formatted = derive_rng(seed, &format!("{vantage}:probe:{week}:{salt}:{site}"));
            for _ in 0..8 {
                prop_assert_eq!(built.next_u64(), formatted.next_u64());
            }
        }
    }

    #[test]
    fn coin_clamps_out_of_range() {
        let mut rng = derive_rng(9, "coin2");
        assert!(coin(&mut rng, 2.0));
        assert!(!coin(&mut rng, -1.0));
    }
}
