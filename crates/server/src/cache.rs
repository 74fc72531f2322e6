//! The content-addressed result cache.
//!
//! Entries are keyed by the canonical request digest and hold the
//! rendered (compact) response body.  Capacity is a **byte budget**:
//! an insert sheds the least-recently-used entries until the new one
//! fits, so the cache never grows past it.

use std::collections::HashMap;

/// One cached result.
#[derive(Debug, Clone)]
struct Entry {
    op: String,
    body: String,
    bytes: usize,
    last_used: u64,
}

/// An LRU result cache under a byte budget.
#[derive(Debug)]
pub struct ResultCache {
    max_bytes: usize,
    entries: HashMap<String, Entry>,
    used_bytes: usize,
    tick: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

impl ResultCache {
    /// A cache bounded at `max_bytes` (keys + ops + bodies).
    #[must_use]
    pub fn new(max_bytes: usize) -> ResultCache {
        ResultCache {
            max_bytes,
            entries: HashMap::new(),
            used_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Bytes currently held.  Invariant: never exceeds
    /// [`ResultCache::max_bytes`].
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a digest, counting the hit/miss and refreshing recency.
    /// Returns the `(op, body)` pair.
    pub fn get(&mut self, key: &str) -> Option<(String, String)> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some((e.op.clone(), e.body.clone()))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a result, evicting least-recently-used entries until the
    /// byte budget admits it.  An entry larger than the whole budget is
    /// refused outright (caching it could never satisfy the invariant).
    pub fn insert(&mut self, key: String, op: String, body: String) {
        let cost = key.len() + op.len() + body.len();
        if cost > self.max_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + cost > self.max_bytes {
            self.evict_lru();
        }
        self.tick += 1;
        self.used_bytes += cost;
        self.entries.insert(
            key,
            Entry {
                op,
                body,
                bytes: cost,
                last_used: self.tick,
            },
        );
    }

    fn evict_lru(&mut self) {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        if let Some(e) = self.entries.remove(&victim) {
            self.used_bytes -= e.bytes;
            self.evictions += 1;
        }
    }

    /// Every entry as `(key, op, body)`, least-recently-used first —
    /// the snapshot order, so a reload reconstructs the same recency.
    #[must_use]
    pub fn entries_lru(&self) -> Vec<(String, String, String)> {
        let mut all: Vec<(&String, &Entry)> = self.entries.iter().collect();
        all.sort_by_key(|(_, e)| e.last_used);
        all.into_iter()
            .map(|(k, e)| (k.clone(), e.op.clone(), e.body.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: usize) -> String {
        "x".repeat(n)
    }

    #[test]
    fn hit_miss_counters_and_lookup() {
        let mut c = ResultCache::new(1024);
        assert!(c.get("a").is_none());
        c.insert("a".into(), "verify".into(), body(10));
        assert_eq!(c.get("a"), Some(("verify".into(), body(10))));
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn never_exceeds_the_byte_budget() {
        let mut c = ResultCache::new(100);
        for i in 0..50 {
            c.insert(format!("key-{i}"), "verify".into(), body(20));
            assert!(
                c.used_bytes() <= c.max_bytes(),
                "{} > {} after insert {i}",
                c.used_bytes(),
                c.max_bytes()
            );
        }
        assert!(c.evictions > 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Each entry costs 1 (key) + 2 (op) + 27 (body) = 30 bytes; the
        // budget fits three.
        let mut c = ResultCache::new(90);
        for k in ["a", "b", "c"] {
            c.insert(k.into(), "op".into(), body(27));
        }
        // Touch `a`, making `b` the coldest.
        assert!(c.get("a").is_some());
        c.insert("d".into(), "op".into(), body(27));
        assert!(c.get("b").is_none(), "b was LRU and must be evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert!(c.get("d").is_some());
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut c = ResultCache::new(10);
        c.insert("k".into(), "op".into(), body(100));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = ResultCache::new(100);
        c.insert("k".into(), "op".into(), body(20));
        let used = c.used_bytes();
        c.insert("k".into(), "op".into(), body(20));
        assert_eq!(c.used_bytes(), used);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_order_is_reported_oldest_first() {
        let mut c = ResultCache::new(1024);
        c.insert("first".into(), "op".into(), body(5));
        c.insert("second".into(), "op".into(), body(5));
        let _ = c.get("first");
        let order: Vec<String> = c.entries_lru().into_iter().map(|(k, _, _)| k).collect();
        assert_eq!(order, ["second", "first"]);
    }
}
