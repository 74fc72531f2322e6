//! Dolev–Yao knowledge: what an intruder can learn and derive.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spi_semantics::{NameTable, RtTerm};

/// Source of fresh knowledge generations: every content change gets a
/// globally unique stamp, so `(generation, goal)` soundly keys derivation
/// memos even across clones (clones share a generation exactly when they
/// share content).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A Dolev–Yao knowledge base over run-time messages.
///
/// The base is kept *analyzed*: whenever a message is learnt, pairs are
/// projected and ciphertexts are opened when their key is derivable, to a
/// fixpoint.  Derivability ([`Knowledge::can_derive`]) then only needs
/// synthesis: a term is derivable when it is in the analyzed set or can be
/// built from derivable parts by pairing and encryption.
///
/// Provenance is part of knowledge: the intruder stores messages *with*
/// their creator stamps (it cannot forge them — relative addresses "are
/// not available to the users" of the calculus).  Replaying a stored
/// ciphertext therefore delivers the original creator's message, which is
/// exactly what makes the paper's replay attack on `Pm2` observable.
///
/// # Example
///
/// ```
/// use spi_verify::Knowledge;
/// use spi_semantics::{NameTable, RtTerm};
/// use spi_syntax::Name;
///
/// let mut names = NameTable::new();
/// let k = names.alloc_restricted(&Name::new("k"), "1".parse()?);
/// let m = names.alloc_restricted(&Name::new("m"), "0".parse()?);
/// let cipher = RtTerm::Enc {
///     body: vec![RtTerm::Id(m)],
///     key: Box::new(RtTerm::Id(k)),
///     creator: None,
/// };
///
/// let mut kn = Knowledge::new();
/// kn.learn(cipher.clone());
/// // Without the key, the content stays opaque...
/// assert!(!kn.can_derive(&RtTerm::Id(m)));
/// assert!(kn.can_derive(&cipher));
/// // ...until the key is learnt.
/// kn.learn(RtTerm::Id(k));
/// assert!(kn.can_derive(&RtTerm::Id(m)));
/// # Ok::<(), spi_addr::AddrError>(())
/// ```
/// The analyzed set lives behind an [`Arc`] so cloning a knowledge base
/// (once per candidate successor during exploration) is a pointer bump;
/// `learn` copies the set only when it actually inserts.  `generation`
/// is a cache stamp, not part of the value: equality, ordering and
/// hashing ignore it.
#[derive(Debug, Clone, Default)]
pub struct Knowledge {
    analyzed: Arc<BTreeSet<RtTerm>>,
    generation: u64,
}

impl PartialEq for Knowledge {
    fn eq(&self, other: &Knowledge) -> bool {
        self.analyzed == other.analyzed
    }
}

impl Eq for Knowledge {}

impl PartialOrd for Knowledge {
    fn partial_cmp(&self, other: &Knowledge) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Knowledge {
    fn cmp(&self, other: &Knowledge) -> std::cmp::Ordering {
        self.analyzed.cmp(&other.analyzed)
    }
}

impl std::hash::Hash for Knowledge {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.analyzed.hash(state);
    }
}

impl Knowledge {
    /// An empty knowledge base.
    #[must_use]
    pub fn new() -> Knowledge {
        Knowledge::default()
    }

    /// The analyzed messages, smallest first.
    pub fn iter(&self) -> impl Iterator<Item = &RtTerm> {
        self.analyzed.iter()
    }

    /// The number of analyzed messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.analyzed.len()
    }

    /// Returns `true` when nothing has been learnt.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.analyzed.is_empty()
    }

    /// Learns a message and re-analyzes to a fixpoint: pairs are
    /// projected, and every stored ciphertext whose key has become
    /// derivable is opened.
    pub fn learn(&mut self, msg: RtTerm) {
        debug_assert!(msg.is_message(), "knowledge stores messages only");
        if self.analyzed.contains(&msg) {
            return;
        }
        Arc::make_mut(&mut self.analyzed).insert(msg);
        // Re-analyze to a fixpoint.
        loop {
            let mut new: Vec<RtTerm> = Vec::new();
            for t in self.analyzed.iter() {
                match t {
                    RtTerm::Pair { fst, snd, .. } => {
                        for part in [fst.as_ref(), snd.as_ref()] {
                            if !self.analyzed.contains(part) {
                                new.push(part.clone());
                            }
                        }
                    }
                    RtTerm::Enc { body, key, .. } if self.can_derive(key) => {
                        for part in body {
                            if !self.analyzed.contains(part) {
                                new.push(part.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
            if new.is_empty() {
                break;
            }
            let set = Arc::make_mut(&mut self.analyzed);
            for t in new {
                set.insert(t);
            }
        }
        self.generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// The cache stamp of this base's content: changes whenever `learn`
    /// actually inserts, and is shared by clones (which share content).
    /// Distinct stamps never alias distinct contents, so memoizing
    /// derivability on `(generation, goal)` is sound.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A copy with every stored message rewritten through `f`.  Intended
    /// for structure-preserving renamings (copy permutations rewriting
    /// creator stamps): such maps send the analyzed fixpoint to the
    /// analyzed fixpoint, so no re-analysis runs.
    #[must_use]
    pub fn map_terms<F: Fn(&RtTerm) -> RtTerm>(&self, f: F) -> Knowledge {
        Knowledge {
            analyzed: Arc::new(self.analyzed.iter().map(f).collect()),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Can the intruder derive `goal`?  Synthesis over the analyzed set:
    /// a term is derivable when stored, or buildable by pairing /
    /// encryption from derivable parts.
    ///
    /// Creator stamps matter: a ciphertext the intruder *builds* is a
    /// different message (it will be stamped with the intruder's position
    /// on injection) from an identical-looking stored one, so derivability
    /// of a specifically-stamped term requires having stored it.
    #[must_use]
    pub fn can_derive(&self, goal: &RtTerm) -> bool {
        if self.analyzed.contains(goal) {
            return true;
        }
        match goal {
            RtTerm::Pair { fst, snd, creator } => {
                // Only unstamped composites can be freshly built.
                creator.is_none() && self.can_derive(fst) && self.can_derive(snd)
            }
            RtTerm::Enc { body, key, creator } => {
                creator.is_none() && body.iter().all(|t| self.can_derive(t)) && self.can_derive(key)
            }
            _ => false,
        }
    }

    /// The candidate payloads for injecting into an input whose
    /// continuation expects a ciphertext under `key` with `arity`
    /// components: stored ciphertexts of that shape, plus freshly built
    /// ones when the key is derivable (bounded by `cap` combinations).
    #[must_use]
    pub fn ciphertext_candidates(&self, key: &RtTerm, arity: usize, cap: usize) -> Vec<RtTerm> {
        self.ciphertext_candidates_with(key, arity, cap, self.can_derive(key))
    }

    fn ciphertext_candidates_with(
        &self,
        key: &RtTerm,
        arity: usize,
        cap: usize,
        key_derivable: bool,
    ) -> Vec<RtTerm> {
        let mut out: Vec<RtTerm> = Vec::new();
        for t in self.analyzed.iter() {
            if let RtTerm::Enc { body, key: k, .. } = t {
                if k.as_ref() == key && body.len() == arity {
                    out.push(t.clone());
                }
            }
        }
        if key_derivable {
            // Freshly built ciphertexts over analyzed atoms, capped.
            let atoms: Vec<&RtTerm> = self.analyzed.iter().collect();
            let mut stack: Vec<Vec<RtTerm>> = vec![Vec::new()];
            'outer: while let Some(partial) = stack.pop() {
                if partial.len() == arity {
                    let built = RtTerm::Enc {
                        body: partial,
                        key: Box::new(key.clone()),
                        creator: None,
                    };
                    if !out.contains(&built) {
                        out.push(built);
                    }
                    if out.len() >= cap {
                        break 'outer;
                    }
                    continue;
                }
                for a in &atoms {
                    let mut next = partial.clone();
                    next.push((*a).clone());
                    stack.push(next);
                    if stack.len() > cap * 4 {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    /// Renders the knowledge base for diagnostics.
    #[must_use]
    pub fn display(&self, names: &NameTable) -> String {
        let items: Vec<String> = self.analyzed.iter().map(|t| t.display(names)).collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A memo table for [`Knowledge::can_derive`], keyed on the knowledge
/// base's [`generation`](Knowledge::generation) and then the goal term,
/// so the intruder's derivation closure is not recomputed once per
/// candidate successor.  Each explorer worker owns one; entries never go
/// stale because generations are never reused for different contents.
/// A probe looks the goal up by reference; only a miss copies it.
#[derive(Debug, Clone, Default)]
pub struct DeriveCache {
    map: HashMap<u64, HashMap<RtTerm, bool>>,
}

impl DeriveCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> DeriveCache {
        DeriveCache::default()
    }

    /// Memoized [`Knowledge::can_derive`].
    pub fn can_derive(&mut self, kn: &Knowledge, goal: &RtTerm) -> bool {
        let memo = self.map.entry(kn.generation).or_default();
        if let Some(&hit) = memo.get(goal) {
            return hit;
        }
        let answer = kn.can_derive(goal);
        memo.insert(goal.clone(), answer);
        answer
    }

    /// Memoized [`Knowledge::ciphertext_candidates`] key check plus the
    /// candidate enumeration itself (enumeration is cheap once the
    /// derivability of the key is known).
    pub fn ciphertext_candidates(
        &mut self,
        kn: &Knowledge,
        key: &RtTerm,
        arity: usize,
        cap: usize,
    ) -> Vec<RtTerm> {
        kn.ciphertext_candidates_with(key, arity, cap, self.can_derive(kn, key))
    }
}

impl Extend<RtTerm> for Knowledge {
    fn extend<I: IntoIterator<Item = RtTerm>>(&mut self, iter: I) {
        for t in iter {
            self.learn(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_addr::Path;
    use spi_syntax::Name;

    fn setup() -> (NameTable, RtTerm, RtTerm, RtTerm) {
        let mut names = NameTable::new();
        let k = names.alloc_restricted(&Name::new("k"), "1".parse::<Path>().unwrap());
        let m = names.alloc_restricted(&Name::new("m"), "0".parse::<Path>().unwrap());
        let c = names.intern_free(&Name::new("c"));
        (names, RtTerm::Id(k), RtTerm::Id(m), RtTerm::Id(c))
    }

    fn enc(body: Vec<RtTerm>, key: RtTerm) -> RtTerm {
        RtTerm::Enc {
            body,
            key: Box::new(key),
            creator: None,
        }
    }

    fn pair(a: RtTerm, b: RtTerm) -> RtTerm {
        RtTerm::Pair {
            fst: Box::new(a),
            snd: Box::new(b),
            creator: None,
        }
    }

    #[test]
    fn pairs_are_projected() {
        let (_, k, m, _) = setup();
        let mut kn = Knowledge::new();
        kn.learn(pair(k.clone(), m.clone()));
        assert!(kn.can_derive(&k));
        assert!(kn.can_derive(&m));
    }

    #[test]
    fn ciphertexts_open_when_the_key_arrives_later() {
        let (_, k, m, _) = setup();
        let mut kn = Knowledge::new();
        kn.learn(enc(vec![m.clone()], k.clone()));
        assert!(!kn.can_derive(&m), "perfect cryptography");
        kn.learn(k);
        assert!(kn.can_derive(&m), "late key opens stored ciphertexts");
    }

    #[test]
    fn nested_analysis_reaches_a_fixpoint() {
        let (_, k, m, c) = setup();
        // {({m}k, k)}c — learning c opens everything.
        let inner = enc(vec![m.clone()], k.clone());
        let packed = enc(vec![pair(inner, k.clone())], c.clone());
        let mut kn = Knowledge::new();
        kn.learn(packed);
        assert!(!kn.can_derive(&m));
        kn.learn(c);
        assert!(kn.can_derive(&m));
        assert!(kn.can_derive(&k));
    }

    #[test]
    fn synthesis_builds_unstamped_composites_only() {
        let (_, k, m, _) = setup();
        let mut kn = Knowledge::new();
        kn.learn(k.clone());
        kn.learn(m.clone());
        assert!(kn.can_derive(&enc(vec![m.clone()], k.clone())));
        // A creator-stamped ciphertext cannot be forged.
        let stamped = RtTerm::Enc {
            body: vec![m],
            key: Box::new(k),
            creator: Some("00".parse::<Path>().unwrap()),
        };
        assert!(!kn.can_derive(&stamped), "stamps are unforgeable");
        // But once stored (intercepted), it is derivable as-is.
        kn.learn(stamped.clone());
        assert!(kn.can_derive(&stamped));
    }

    #[test]
    fn ciphertext_candidates_prefer_stored_ones() {
        let (_, k, m, c) = setup();
        let stored = RtTerm::Enc {
            body: vec![m],
            key: Box::new(k.clone()),
            creator: Some("00".parse::<Path>().unwrap()),
        };
        let mut kn = Knowledge::new();
        kn.learn(stored.clone());
        kn.learn(c);
        // Key not derivable: only the stored ciphertext qualifies.
        let cands = kn.ciphertext_candidates(&k, 1, 16);
        assert_eq!(cands, vec![stored.clone()]);
        // With the key, fresh ciphertexts over analyzed atoms appear too.
        kn.learn(k.clone());
        let cands = kn.ciphertext_candidates(&k, 1, 16);
        assert!(cands.contains(&stored));
        assert!(cands
            .iter()
            .any(|t| matches!(t, RtTerm::Enc { creator: None, .. })));
    }

    #[test]
    fn candidates_respect_arity() {
        let (_, k, m, _) = setup();
        let mut kn = Knowledge::new();
        kn.learn(enc(vec![m.clone(), m], k.clone()));
        assert!(kn.ciphertext_candidates(&k, 1, 16).is_empty());
        assert_eq!(kn.ciphertext_candidates(&k, 2, 16).len(), 1);
    }

    #[test]
    fn extend_learns_everything() {
        let (_, k, m, _) = setup();
        let mut kn = Knowledge::new();
        kn.extend([k.clone(), m.clone()]);
        assert!(kn.can_derive(&pair(k, m)));
    }

    #[test]
    fn display_lists_messages() {
        let (names, k, _, _) = setup();
        let mut kn = Knowledge::new();
        kn.learn(k);
        assert!(kn.display(&names).contains("k'"));
    }

    #[test]
    fn the_derive_cache_answers_per_generation() {
        let (_, k, m, c) = setup();
        let goal = enc(vec![m.clone()], k.clone());
        let mut cache = DeriveCache::new();
        let mut kn = Knowledge::new();
        kn.learn(m.clone());
        assert!(!cache.can_derive(&kn, &goal));
        // A hit answers from the memo, by reference.
        assert!(!cache.can_derive(&kn, &goal));
        assert_eq!(cache.map.len(), 1);
        assert_eq!(cache.map[&kn.generation()].len(), 1);
        // Learning the key is a new generation: the stale answer is
        // never consulted.
        kn.learn(k);
        assert!(cache.can_derive(&kn, &goal));
        assert!(cache.can_derive(&kn, &m));
        assert!(!cache.can_derive(&kn, &c));
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.map[&kn.generation()].len(), 3);
    }
}
