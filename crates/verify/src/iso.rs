//! State isomorphisms for quotient-aware trace extraction.
//!
//! When the explorer merges a freshly computed successor `S` into an
//! already-stored representative `R` (because their canonical keys agree),
//! the two states are isomorphic but not identical: their copy subtrees
//! may sit at permuted positions and their raw [`spi_semantics::NameId`]s
//! may differ.  Redirecting the edge to `R` and exploring on from there is
//! sound for *reachability*, but the observations recorded in `R`'s
//! future are in `R`'s coordinate system — creator positions and nonce
//! identities of `R`'s lineage, not of the run that actually reached the
//! merge point.  An [`Iso`] records the coordinate change `R → S`, so
//! trace extraction can map every future observation back into the true
//! lineage and reconstruct exactly the trace set of the unquotiented
//! semantics.
//!
//! An iso has two halves:
//!
//! * a **path permutation** ([`PathPerm`]): prefix-rewrite pairs over
//!   session-copy roots, covering creator stamps and localization
//!   positions;
//! * an **id map**: finitely many explicit pairs below `floor`, then a
//!   uniform tail `r ↦ r + shift` for `r ≥ floor`.  The explicit pairs
//!   come from zipping the canonicalization journals of the two merge
//!   sides (equal canonical strings assign their names in the same
//!   order); the tail covers names the representative allocates *after*
//!   the merge point, which the true lineage would have allocated in
//!   lockstep at an offset of `shift = |S names| − |R names|`.
//!
//! Isos are kept in a *normal form* (identity pairs dropped, pairs sorted,
//! the floor lowered past any tail-consistent suffix, `floor = 0` when the
//! tail is the identity), so extensional equality coincides with
//! structural equality.  [`IsoTable`] interns normal forms; because every
//! iso arising during extraction maps real-state name spaces (bounded by
//! the largest name table in the system), the interned set is finite and
//! iso-aware closures terminate even on τ-cycles whose composed iso is a
//! non-trivial automorphism.

use std::collections::HashMap;

use spi_semantics::PathPerm;

use crate::{ObsEvent, ObsTerm};

/// A state isomorphism in flattened normal form: a path permutation plus
/// an id map (explicit pairs below `floor`, shifted tail above).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Iso {
    /// The path half: copy-root prefix rewrites.
    perm: PathPerm,
    /// Explicit id pairs `(src, dst)`, sorted by `src`; all `src < floor`.
    ids: Vec<(u32, u32)>,
    /// Ids at or above this behave uniformly as `r ↦ r + shift`.
    floor: u32,
    /// The tail offset (`0` when `floor` is `0`).
    shift: i64,
}

impl Iso {
    /// The identity isomorphism.
    #[must_use]
    pub fn identity() -> Iso {
        Iso::default()
    }

    /// Builds an iso and normalizes it: identity pairs are dropped, pairs
    /// are sorted, the floor is lowered past any tail-consistent suffix,
    /// and a zero shift zeroes the floor.  Extensionally equal inputs
    /// produce structurally equal normal forms.
    #[must_use]
    pub fn new(perm: PathPerm, ids: Vec<(u32, u32)>, floor: u32, shift: i64) -> Iso {
        let mut ids: Vec<(u32, u32)> = ids.into_iter().filter(|(a, b)| a != b).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut floor = floor;
        let mut shift = shift;
        // Lower the floor past every id that already behaves like the
        // tail; the pairs that encoded it become redundant.
        loop {
            if floor == 0 {
                break;
            }
            let r = floor - 1;
            let mapped = match ids.binary_search_by_key(&r, |(a, _)| *a) {
                Ok(i) => i64::from(ids[i].1),
                Err(_) => i64::from(r),
            };
            if mapped == i64::from(r) + shift {
                if let Ok(i) = ids.binary_search_by_key(&r, |(a, _)| *a) {
                    ids.remove(i);
                }
                floor = r;
            } else {
                break;
            }
        }
        if shift == 0 {
            // An identity tail starts wherever the pairs end.
            floor = ids.last().map_or(0, |(a, _)| a + 1);
            shift = 0;
        }
        debug_assert!(ids.iter().all(|(a, _)| *a < floor || shift == 0));
        Iso {
            perm,
            ids,
            floor,
            shift,
        }
    }

    /// Returns `true` for the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.perm.is_identity() && self.ids.is_empty() && self.shift == 0
    }

    /// Returns `true` when the iso moves tree positions (a genuine
    /// session-symmetry merge, not just a name renumbering).
    #[must_use]
    pub fn permutes_paths(&self) -> bool {
        !self.perm.is_identity()
    }

    /// Maps one raw name id.
    #[must_use]
    pub fn apply_id(&self, r: u32) -> u32 {
        match self.ids.binary_search_by_key(&r, |(a, _)| *a) {
            Ok(i) => self.ids[i].1,
            Err(_) if r >= self.floor => {
                u32::try_from(i64::from(r) + self.shift).unwrap_or(u32::MAX)
            }
            Err(_) => r,
        }
    }

    /// Maps one observation into the target coordinate system.
    #[must_use]
    pub fn apply_event(&self, ev: &ObsEvent) -> ObsEvent {
        if self.is_identity() {
            return ev.clone();
        }
        ObsEvent {
            chan: ev.chan.clone(),
            payload: self.apply_obs(&ev.payload),
        }
    }

    fn apply_obs(&self, t: &ObsTerm) -> ObsTerm {
        match t {
            ObsTerm::Free(n) => ObsTerm::Free(n.clone()),
            ObsTerm::Fresh { nonce, creator } => ObsTerm::Fresh {
                nonce: self.apply_id(*nonce),
                creator: self.perm.apply(creator),
            },
            ObsTerm::Pair(a, b, creator) => ObsTerm::Pair(
                Box::new(self.apply_obs(a)),
                Box::new(self.apply_obs(b)),
                creator.as_ref().map(|p| self.perm.apply(p)),
            ),
            ObsTerm::Enc(body, key, creator) => ObsTerm::Enc(
                body.iter().map(|x| self.apply_obs(x)).collect(),
                Box::new(self.apply_obs(key)),
                creator.as_ref().map(|p| self.perm.apply(p)),
            ),
        }
    }

    /// The composition "`first`, then `then`" (i.e. `then ∘ first`): maps
    /// through `first` into its target system, then through `then`.
    #[must_use]
    pub fn compose(first: &Iso, then: &Iso) -> Iso {
        if first.is_identity() {
            return then.clone();
        }
        if then.is_identity() {
            return first.clone();
        }
        let shift = first.shift + then.shift;
        // Beyond F both maps act by their tails (the tail of `first`
        // lands in the tail region of `then` — merge-side tables line up).
        let bound = i64::from(first.floor).max(i64::from(then.floor) - first.shift).max(0);
        let bound = u32::try_from(bound).unwrap_or(u32::MAX);
        let ids = (0..bound)
            .map(|r| (r, then.apply_id(first.apply_id(r))))
            .collect();
        Iso::new(first.perm.then(&then.perm), ids, bound, shift)
    }
}

/// An interning table of isomorphisms.  Index `0` is always the identity;
/// composition results are memoized by operand ids, which keeps iso-aware
/// closure computations linear in distinct `(iso, iso)` pairs.
#[derive(Debug, Clone, Default)]
pub struct IsoTable {
    isos: Vec<Iso>,
    index: HashMap<Iso, u32>,
    memo: HashMap<(u32, u32), u32>,
}

impl IsoTable {
    /// A table holding only the identity (id `0`).
    #[must_use]
    pub fn new() -> IsoTable {
        let mut t = IsoTable::default();
        t.isos.push(Iso::identity());
        t.index.insert(Iso::identity(), 0);
        t
    }

    /// Rebuilds a table from a stored iso list (index positions are
    /// preserved; the list must start with the identity, as produced by
    /// [`IsoTable::into_isos`]).
    #[must_use]
    pub fn from_isos(isos: Vec<Iso>) -> IsoTable {
        if isos.is_empty() {
            return IsoTable::new();
        }
        let index = isos
            .iter()
            .enumerate()
            .map(|(i, iso)| (iso.clone(), i as u32))
            .collect();
        IsoTable {
            isos,
            index,
            memo: HashMap::new(),
        }
    }

    /// The interned isos, identity first.
    #[must_use]
    pub fn into_isos(self) -> Vec<Iso> {
        self.isos
    }

    /// Interns a (normalized) iso, returning its id.
    pub fn intern(&mut self, iso: Iso) -> u32 {
        if let Some(&id) = self.index.get(&iso) {
            return id;
        }
        let id = u32::try_from(self.isos.len()).unwrap_or(u32::MAX);
        self.index.insert(iso.clone(), id);
        self.isos.push(iso);
        id
    }

    /// The iso with id `id`.
    #[must_use]
    pub fn get(&self, id: u32) -> &Iso {
        &self.isos[id as usize]
    }

    /// Memoized composition by id: "`first`, then `then`".
    pub fn compose_ids(&mut self, first: u32, then: u32) -> u32 {
        if first == 0 {
            return then;
        }
        if then == 0 {
            return first;
        }
        if let Some(&id) = self.memo.get(&(first, then)) {
            return id;
        }
        let composed = Iso::compose(self.get(first), self.get(then));
        let id = self.intern(composed);
        self.memo.insert((first, then), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_addr::Path;
    use spi_syntax::Name;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn normalization_gives_extensional_identity() {
        // Pairs that spell out a uniform shift collapse into the tail.
        let a = Iso::new(PathPerm::identity(), vec![(3, 5), (4, 6)], 5, 2);
        let b = Iso::new(PathPerm::identity(), vec![], 3, 2);
        assert_eq!(a, b);
        // An identity-tail iso with no pairs is the identity.
        let c = Iso::new(PathPerm::identity(), vec![(7, 7)], 9, 0);
        assert!(c.is_identity());
    }

    #[test]
    fn apply_id_uses_pairs_then_tail() {
        let iso = Iso::new(PathPerm::identity(), vec![(1, 4), (4, 1)], 6, 3);
        assert_eq!(iso.apply_id(1), 4);
        assert_eq!(iso.apply_id(4), 1);
        assert_eq!(iso.apply_id(2), 2, "below floor, no pair: fixed");
        assert_eq!(iso.apply_id(6), 9, "tail shifts");
        assert_eq!(iso.apply_id(100), 103);
    }

    #[test]
    fn compose_agrees_with_pointwise_application() {
        let f = Iso::new(PathPerm::identity(), vec![(0, 2), (2, 0)], 4, 1);
        let g = Iso::new(PathPerm::identity(), vec![(2, 3), (3, 2)], 5, -1);
        let fg = Iso::compose(&f, &g);
        for r in 0..50 {
            assert_eq!(fg.apply_id(r), g.apply_id(f.apply_id(r)), "at {r}");
        }
    }

    #[test]
    fn compose_with_paths_maps_events() {
        let swap = PathPerm::from_pairs([(p("00"), p("010")), (p("010"), p("00"))]);
        let iso = Iso::new(swap, vec![(1, 2), (2, 1)], 3, 0);
        let ev = ObsEvent {
            chan: Name::new("o"),
            payload: ObsTerm::Fresh {
                nonce: 1,
                creator: p("001"),
            },
        };
        let mapped = iso.apply_event(&ev);
        assert_eq!(
            mapped.payload,
            ObsTerm::Fresh {
                nonce: 2,
                creator: p("0101"),
            }
        );
    }

    #[test]
    fn table_interns_extensionally() {
        let mut t = IsoTable::new();
        let a = t.intern(Iso::new(PathPerm::identity(), vec![(3, 5), (4, 6)], 5, 2));
        let b = t.intern(Iso::new(PathPerm::identity(), vec![], 3, 2));
        assert_eq!(a, b);
        assert_eq!(t.intern(Iso::identity()), 0);
        // Composing an iso with its inverse is the identity.
        let swap = t.intern(Iso::new(PathPerm::identity(), vec![(1, 2), (2, 1)], 3, 0));
        assert_eq!(t.compose_ids(swap, swap), 0);
    }

    #[test]
    fn cyclic_composition_terminates_in_a_finite_group() {
        // A 3-cycle on ids: composing it with itself repeatedly stays in
        // the 3-element subgroup the interning table makes finite.
        let mut t = IsoTable::new();
        let c = t.intern(Iso::new(
            PathPerm::identity(),
            vec![(0, 1), (1, 2), (2, 0)],
            3,
            0,
        ));
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = c;
        for _ in 0..10 {
            cur = t.compose_ids(cur, c);
            seen.insert(cur);
        }
        assert!(seen.len() <= 3, "{seen:?}");
        assert!(seen.contains(&0), "the cycle closes at the identity");
    }
}
