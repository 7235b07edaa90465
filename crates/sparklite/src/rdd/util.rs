//! Small self-contained utilities: shared-ownership iterators, a fast
//! non-cryptographic hasher (FxHash — per the performance guide, SipHash is
//! needlessly slow for shuffle partitioning and HashDoS is not a concern for
//! trusted in-process data), and a SplitMix64 PRNG for sampling.

use crate::Data;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Iterates one range of an `Arc<Vec<T>>`, cloning elements on demand so the
/// iterator is `'static` without copying the partition up front.
pub struct ArcRangeIter<T: Data> {
    pub data: Arc<Vec<T>>,
    pub i: usize,
    pub end: usize,
}

impl<T: Data> Iterator for ArcRangeIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.i < self.end {
            let x = self.data[self.i].clone();
            self.i += 1;
            Some(x)
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.i;
        (n, Some(n))
    }
}

/// Iterates one inner vector of an `Arc<Vec<Vec<T>>>`.
pub struct ArcPartIter<T: Data> {
    pub data: Arc<Vec<Vec<T>>>,
    pub part: usize,
    pub i: usize,
}

impl<T: Data> Iterator for ArcPartIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let part = &self.data[self.part];
        if self.i < part.len() {
            let x = part[self.i].clone();
            self.i += 1;
            Some(x)
        } else {
            None
        }
    }

    /// Exact: downstream sinks (e.g. the vectorized aggregation merge) use
    /// this to size hash tables and output vectors in one shot.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.data[self.part].len() - self.i;
        (left, Some(left))
    }
}

/// Iterates the lines of a text block, each mapped through `f` where it
/// lies in the block. A `\r\n` terminator is stripped whole.
pub struct BlockLines<F> {
    block: Arc<str>,
    pos: usize,
    f: F,
}

impl<F> BlockLines<F> {
    pub fn new(block: Arc<str>, f: F) -> Self {
        BlockLines { block, pos: 0, f }
    }
}

impl<U, F: FnMut(&str) -> U> Iterator for BlockLines<F> {
    type Item = U;
    fn next(&mut self) -> Option<U> {
        let rest = &self.block[self.pos..];
        if rest.is_empty() {
            return None;
        }
        let (line, advance) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1),
            None => (rest, rest.len()),
        };
        self.pos += advance;
        Some((self.f)(line.strip_suffix('\r').unwrap_or(line)))
    }
}

/// The FxHash algorithm (rustc's hasher): fast multiply-rotate mixing.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hashes one value with FxHash; the shuffle partitioner.
pub fn fx_hash<T: Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Hashes a raw byte string with FxHash, without the `Hash` trait's length
/// prefixing — the probe hash of the vectorized group-by kernel, whose keys
/// are already self-delimiting encoded byte strings.
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// SplitMix64: a tiny, high-quality PRNG for sampling, so `sparklite` does
/// not need a `rand` dependency.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_spreads() {
        let hashes: std::collections::HashSet<u64> = (0..1000i64).map(|i| fx_hash(&i)).collect();
        assert_eq!(hashes.len(), 1000);
        assert_eq!(fx_hash(&"abc"), fx_hash(&"abc"));
        assert_ne!(fx_hash(&"abc"), fx_hash(&"abd"));
    }

    #[test]
    fn splitmix_uniformish() {
        let mut rng = SplitMix64::new(7);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            buckets[(rng.next_f64() * 10.0) as usize] += 1;
        }
        for b in buckets {
            assert!(b > 800 && b < 1200, "bucket {b}");
        }
    }

    #[test]
    fn block_lines_handles_terminators() {
        let lines = |block: &str| -> Vec<String> {
            BlockLines::new(Arc::from(block), |l: &str| l.to_string()).collect()
        };
        assert_eq!(lines("a\nb\r\nc"), vec!["a", "b", "c"]);
        assert!(lines("").is_empty());
        // A trailing newline does not create a phantom empty line.
        assert_eq!(lines("x\n"), vec!["x"]);
        // But interior empty lines are preserved.
        assert_eq!(lines("a\n\nb"), vec!["a", "", "b"]);
    }
}
