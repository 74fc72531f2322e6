//! Content digests for cache keys and snapshot identities.
//!
//! Digests are the workspace's one 64-bit FNV-1a ([`fnv64`]) rendered
//! in the same `fnv:{:016x}` spelling the campaign checkpoint identity
//! uses.  They guard caches against *accidental* mismatch (a different
//! question, a corrupted snapshot), not against an adversary with write
//! access to the snapshot file.

use spi_verify::fnv64;

/// The canonical digest spelling: `fnv:` plus 16 hex digits.
#[must_use]
pub fn digest(text: &str) -> String {
    format!("fnv:{:016x}", fnv64(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_distinct() {
        assert_eq!(digest(""), "fnv:cbf29ce484222325");
        assert_eq!(digest("a"), digest("a"));
        assert_ne!(digest("a"), digest("b"));
        assert!(digest("x").starts_with("fnv:"));
        assert_eq!(digest("x").len(), 4 + 16);
    }
}
