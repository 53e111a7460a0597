//! FNV-1a (64-bit): the one content hash behind every fingerprint in
//! the stack — datasets, JSON artifact payloads, blob files. Not
//! cryptographic; it detects corruption and identifies content, it
//! does not authenticate it.

/// An incremental FNV-1a hasher: `Fnv1a::new().update(a).update(b).finish()`.
/// Feeding the same bytes in any split gives the same [`Fnv1a::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    #[inline]
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Fnv1a {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_and_split_invariance() {
        let hash = |bytes: &[u8]| Fnv1a::new().update(bytes).finish();
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        let split = Fnv1a::new().update(b"foo").update(b"").update(b"bar");
        assert_eq!(split.finish(), hash(b"foobar"));
    }
}
