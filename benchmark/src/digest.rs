//! FNV-1a digests over the exact bits of simulated outputs.

/// An FNV-1a 64-bit hash fed whole words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs one 64-bit word, byte by byte.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Absorbs a float's bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Absorbs an optional float; `None` hashes differently from every
    /// float.
    pub fn opt_f64(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(v) => self.word(1).f64(v),
            None => self.word(0),
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_bit_changes_the_digest() {
        let x = 0.123_456_789_f64;
        let flipped = f64::from_bits(x.to_bits() ^ 1);
        assert_ne!(
            Fnv::default().f64(x).finish(),
            Fnv::default().f64(flipped).finish()
        );
        assert_ne!(
            Fnv::default().opt_f64(None).finish(),
            Fnv::default().opt_f64(Some(0.0)).finish()
        );
    }
}
