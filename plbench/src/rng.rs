//! The benchmark's own random number generator (SplitMix64).
//!
//! It lives here, not in a shared crate, so that no change elsewhere in the
//! repository can alter the inputs the benchmark measures.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Stream tags: every input family draws from its own stream, so adding
/// draws to one family never shifts another.
pub const STREAM_PRESETS: u64 = 1;
pub const STREAM_SCRIPT: u64 = 2;
pub const STREAM_DOCUMENT: u64 = 3;
pub const STREAM_BURST: u64 = 4;
pub const STREAM_HOST: u64 = 5;

impl Rng {
    /// The stream for item `index` of family `stream` under `seed`.
    pub fn stream(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed);
        let a = r.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut r = Rng(a);
        let b = r.next_u64() ^ index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
        Rng(b)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
