//! A small seeded generator (SplitMix64), so that one `--seed` always
//! yields the same inputs without depending on an RNG crate.

pub struct Rng(u64);

impl Rng {
    /// A generator for one input family: the same `(seed, stream)` pair
    /// always yields the same sequence, and distinct streams are
    /// independent of each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values evenly spread over `lo..=hi`, in a seeded order: every
    /// seed draws the same distribution, so no seed's inputs cost more
    /// than another's.
    pub fn spread(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let mut values: Vec<usize> = (0..n)
            .map(|k| lo + ((hi - lo) * k + (n - 1) / 2) / (n - 1).max(1))
            .collect();
        self.shuffle(&mut values);
        values
    }
}
