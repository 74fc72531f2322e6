//! Consistent-hash sharding of the result cache across workers.
//!
//! Each worker owns the arc of a hash ring between its virtual nodes
//! and their predecessors; a request's content digest lands on the
//! ring and is served by the first worker clockwise from it.  Virtual
//! nodes (many ring points per worker) keep the arcs balanced, and the
//! defining property — removing one worker moves *only that worker's
//! keys*, to their next-clockwise owners — is exactly what a fleet
//! needs when failure detection drops a node: every other worker's
//! cache shard stays hot.

use spi_verify::fnv64;

/// How many ring points each worker contributes.  64 keeps the
/// worst-case load imbalance across a handful of workers within a few
/// percent, at a ring of a few hundred entries — trivially searchable.
const VNODES: usize = 64;

/// FNV-1a mixes low bits well but avalanches poorly into the high
/// bits that dominate ring-position ordering, so similar inputs
/// (`addr#0`, `addr#1`, …) cluster.  A SplitMix64-style finalizer
/// spreads them over the whole ring.
fn ring_hash(text: &str) -> u64 {
    let mut z = fnv64(text);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An immutable hash ring over a set of worker addresses.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// `(ring position, worker index)` sorted by position.
    points: Vec<(u64, usize)>,
    /// The worker addresses, in the order given to [`Ring::new`].
    workers: Vec<String>,
}

impl Ring {
    /// Builds the ring for the given workers (duplicates are ignored).
    #[must_use]
    pub fn new<I, S>(workers: I) -> Ring
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut unique: Vec<String> = Vec::new();
        for w in workers {
            let w = w.into();
            if !unique.contains(&w) {
                unique.push(w);
            }
        }
        let mut points = Vec::with_capacity(unique.len() * VNODES);
        for (index, addr) in unique.iter().enumerate() {
            for vnode in 0..VNODES {
                points.push((ring_hash(&format!("{addr}#{vnode}")), index));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            workers: unique,
        }
    }

    /// Whether the ring has no workers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The number of distinct workers on the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// The worker owning `key`, or `None` on an empty ring.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.candidates(key).next()
    }

    /// Every distinct worker in ring order starting from `key`'s
    /// owner — the retry/fail-over sequence for that key.  The first
    /// candidate is the primary; each subsequent one is exactly the
    /// node the key would move to if everything before it died.
    pub fn candidates(&self, key: &str) -> impl Iterator<Item = &str> {
        let mut order: Vec<usize> = Vec::with_capacity(self.workers.len());
        if !self.points.is_empty() {
            let h = ring_hash(key);
            let start = self
                .points
                .partition_point(|&(pos, _)| pos < h)
                // partition_point == len means h is past the last
                // point: wrap to the first (the ring is circular).
                % self.points.len();
            for i in 0..self.points.len() {
                let (_, worker) = self.points[(start + i) % self.points.len()];
                if !order.contains(&worker) {
                    order.push(worker);
                    if order.len() == self.workers.len() {
                        break;
                    }
                }
            }
        }
        order.into_iter().map(|i| self.workers[i].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fleet(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("fnv:{i:016x}")).collect()
    }

    #[test]
    fn empty_and_singleton_rings() {
        let empty = Ring::new(Vec::<String>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.owner("k"), None);
        let one = Ring::new(["127.0.0.1:9000"]);
        assert_eq!(one.len(), 1);
        for k in keys(50) {
            assert_eq!(one.owner(&k), Some("127.0.0.1:9000"));
        }
    }

    #[test]
    fn routing_is_deterministic_and_order_insensitive() {
        let a = Ring::new(fleet(4));
        let mut reversed = fleet(4);
        reversed.reverse();
        let b = Ring::new(reversed);
        for k in keys(200) {
            assert_eq!(a.owner(&k), b.owner(&k), "{k}");
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = Ring::new(fleet(4));
        let mut per_worker: HashMap<&str, usize> = HashMap::new();
        let all = keys(4000);
        for k in &all {
            *per_worker.entry(ring.owner(k).unwrap()).or_default() += 1;
        }
        assert_eq!(per_worker.len(), 4, "every worker owns something");
        for (w, n) in &per_worker {
            // Perfect balance is 1000; virtual nodes keep the skew
            // well under 2x in either direction.
            assert!((500..=2000).contains(n), "{w} owns {n} of 4000");
        }
    }

    #[test]
    fn removing_a_worker_moves_only_its_keys() {
        let full = Ring::new(fleet(4));
        let dead = "127.0.0.1:9002";
        let survivors: Vec<String> = fleet(4).into_iter().filter(|w| w != dead).collect();
        let shrunk = Ring::new(survivors);
        for k in keys(1000) {
            let before = full.owner(&k).unwrap();
            let after = shrunk.owner(&k).unwrap();
            if before == dead {
                // Orphaned keys land on the next candidate in the full
                // ring's fail-over order — exactly what a coordinator
                // retrying past a dead node computes.
                let next = full.candidates(&k).nth(1).unwrap();
                assert_eq!(after, next, "{k}");
            } else {
                assert_eq!(after, before, "{k} moved although its owner lives");
            }
        }
    }

    #[test]
    fn candidates_enumerate_every_worker_once() {
        let ring = Ring::new(fleet(4));
        for k in keys(20) {
            let order: Vec<&str> = ring.candidates(&k).collect();
            assert_eq!(order.len(), 4);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "no duplicates in {order:?}");
        }
    }
}
