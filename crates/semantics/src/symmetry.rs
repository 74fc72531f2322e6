//! Session-symmetry: interchangeable replica groups, the canonical-form
//! search over their arrangements, and the physical application of copy
//! permutations.
//!
//! A replication `!P` that has unfolded `k ≥ 2` times leaves `k` copies at
//! the roots `base·‖1^t·‖0` along its right spine.  The copies started
//! from the same body, so a state reached by running copy 1 first and a
//! state reached by running copy 2 first differ only by which copy holds
//! which residual — they are isomorphic up to a *copy permutation* that
//! swaps the subtrees and rewrites every absolute position (creator
//! stamps, localization indexes) accordingly.  Explorers quotient their
//! state keys by these permutations to collapse the factorially many
//! session interleavings into one representative per orbit.
//!
//! The quotient key is a canonical form of the orbit, found the way graph
//! canonizers find one (McKay and Piperno, *Practical Graph Isomorphism,
//! II*, 2014) and normalizing states as Murφ's scalarsets do (Ip and
//! Dill, *Better Verification Through Symmetry*, 1996), in
//! [`candidates`]:
//!
//! 1. **One walk** renders every copy's subtree, every process leaf
//!    outside the copies and every term the state holds outside the tree
//!    relative to each copy it touches, hashed, never as a `String`.
//! 2. **Colour refinement** starts each copy from its signature and the
//!    parts of the state that touch it alone, and folds in the colours of
//!    the copies it shares a part with until the partition is stable.
//!    Ties left over are broken by individualize-and-refine, trying one
//!    copy per automorphism class: copies in components (copies linked
//!    through shared names and paths) that render identically once names
//!    made outside the copies are pinned by identity — idle or finished
//!    sessions, among others — are interchangeable, so their arrangements
//!    count as one candidate.
//! 3. **Scoring under a path map.**  The explorer serializes the
//!    unpermuted state through each candidate's [`PathPerm`], a
//!    [`Lens`] that visits copy subtrees in permuted order and rewrites
//!    paths as it writes them, and keeps the least key.
//!
//! Soundness rests on the machine being *equivariant* under copy
//! permutations: every runtime path computation either stays inside one
//! copy (relative addresses between two positions under the same copy
//! root do not depend on the root) or uses absolute paths, which
//! [`apply_perm`] rewrites.  The one construct that is **not** equivariant
//! is an unresolved source-level relative address (it resolves against
//! the holder's depth, and copy roots sit at different depths along the
//! spine), so [`candidates`] refuses any state that still carries one
//! ([`Fallback::Ineligible`]) — explorers fall back to the unquotiented
//! key there.

use std::fmt::Write;
use std::sync::Arc;

use spi_addr::{Branch, Path, ProcTree};

use crate::{
    CanonHasher, Canonicalizer, Config, LeafState, Lens, NameEntry, NameId, RtChanIndex, RtChannel,
    RtProcess, RtTerm,
};

/// One group of interchangeable session replicas: the copies spawned by a
/// single replication leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionGroup {
    /// The position of the replication before any unfolding (the spine
    /// hangs off this path).
    pub base: Path,
    /// The copy roots `base·‖1^t·‖0` in spawn order.
    pub roots: Vec<Path>,
}

/// A finite path permutation given as prefix-rewrite pairs over copy
/// roots: a path starting with a source root is rewritten to start with
/// the paired destination root; every other path is left alone.
///
/// The sources of a well-formed permutation are pairwise prefix-free (copy
/// roots of top-level groups never nest), so at most one pair applies to
/// any path and [`PathPerm::apply`] is a function.  Identity pairs are
/// never stored, so the empty pair list *is* the identity.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathPerm {
    pairs: Vec<(Path, Path)>,
}

impl PathPerm {
    /// The identity permutation.
    #[must_use]
    pub fn identity() -> PathPerm {
        PathPerm::default()
    }

    /// Builds a permutation from `(source, destination)` root pairs,
    /// dropping identity pairs and sorting for a canonical representation.
    #[must_use]
    pub fn from_pairs<I>(pairs: I) -> PathPerm
    where
        I: IntoIterator<Item = (Path, Path)>,
    {
        let mut pairs: Vec<(Path, Path)> = pairs.into_iter().filter(|(s, d)| s != d).collect();
        pairs.sort();
        pairs.dedup();
        PathPerm { pairs }
    }

    /// Returns `true` for the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The prefix-rewrite pairs, sorted by source.
    #[must_use]
    pub fn pairs(&self) -> &[(Path, Path)] {
        &self.pairs
    }

    /// Rewrites one path: the unique applicable pair (if any) swaps the
    /// matching root prefix.
    #[must_use]
    pub fn apply(&self, p: &Path) -> Path {
        for (s, d) in &self.pairs {
            if s.is_prefix_of(p) {
                if let Some(suffix) = p.strip_prefix(s) {
                    return d.join(&suffix);
                }
            }
        }
        p.clone()
    }

    /// The inverse permutation (pairs swapped).
    #[must_use]
    pub fn invert(&self) -> PathPerm {
        PathPerm::from_pairs(self.pairs.iter().map(|(s, d)| (d.clone(), s.clone())))
    }

    /// The composition "`self` first, then `next`" as a permutation:
    /// `result.apply(p) == next.apply(&self.apply(p))` for every path
    /// whose copy roots are prefix-free across both permutations.
    #[must_use]
    pub fn then(&self, next: &PathPerm) -> PathPerm {
        let mut pairs: Vec<(Path, Path)> = self
            .pairs
            .iter()
            .map(|(s, d)| (s.clone(), next.apply(d)))
            .collect();
        for (s, d) in &next.pairs {
            if !self.pairs.iter().any(|(src, _)| src == s) {
                pairs.push((s.clone(), d.clone()));
            }
        }
        PathPerm::from_pairs(pairs)
    }
}

/// Discovers the top-level session groups of a configuration: every
/// replication leaf that has unfolded at least twice, excluding groups
/// nested inside another group's copy (only top-level copies permute
/// freely) and groups containing a pinned position (the intruder's or the
/// fault model's seat must not move).
#[must_use]
pub fn session_groups(cfg: &Config, pinned: &[Path]) -> Vec<SessionGroup> {
    fn unfolded(t: &ProcTree<LeafState>, at: &mut Path, out: &mut Vec<SessionGroup>) {
        match t {
            ProcTree::Leaf(LeafState::Bang { unfolded, .. }) => {
                let k = *unfolded as usize;
                if k < 2 || at.len() < k || (1..=k).any(|i| at[at.len() - i] != Branch::Right) {
                    return;
                }
                let base = at.prefix(at.len() - k);
                let mut spine = base.clone();
                let roots = (0..k)
                    .map(|_| {
                        let root = spine.child(Branch::Left);
                        spine.push(Branch::Right);
                        root
                    })
                    .collect();
                out.push(SessionGroup { base, roots });
            }
            ProcTree::Leaf(_) => {}
            ProcTree::Node(l, r) => {
                at.push(Branch::Left);
                unfolded(l, at, out);
                at.pop();
                at.push(Branch::Right);
                unfolded(r, at, out);
                at.pop();
            }
        }
    }
    let mut groups = Vec::new();
    unfolded(cfg.tree(), &mut Path::root(), &mut groups);
    let kept: Vec<SessionGroup> = groups
        .iter()
        .enumerate()
        .filter(|(i, g)| {
            let nested = groups
                .iter()
                .enumerate()
                .any(|(j, h)| *i != j && h.roots.iter().any(|r| r.is_prefix_of(&g.base)));
            let pins_copy = g
                .roots
                .iter()
                .any(|r| pinned.iter().any(|p| r.is_prefix_of(p)));
            !nested && !pins_copy
        })
        .map(|(_, g)| g.clone())
        .collect();
    let mut kept = kept;
    kept.sort_by(|a, b| a.base.cmp(&b.base));
    kept
}

/// Rewrites every absolute path inside a term (composite creator stamps)
/// through `perm`.  Name creators live in the table and are rewritten by
/// [`apply_perm`]; [`RtTerm::Id`] nodes pass through unchanged.
#[must_use]
pub fn rewrite_term(t: &RtTerm, perm: &PathPerm) -> RtTerm {
    match t {
        RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::Id(_) => t.clone(),
        RtTerm::Pair { fst, snd, creator } => RtTerm::Pair {
            fst: Box::new(rewrite_term(fst, perm)),
            snd: Box::new(rewrite_term(snd, perm)),
            creator: creator.as_ref().map(|p| perm.apply(p)),
        },
        RtTerm::Enc { body, key, creator } => RtTerm::Enc {
            body: body.iter().map(|x| rewrite_term(x, perm)).collect(),
            key: Box::new(rewrite_term(key, perm)),
            creator: creator.as_ref().map(|p| perm.apply(p)),
        },
        RtTerm::LocatedLit { addr, inner } => RtTerm::LocatedLit {
            addr: addr.clone(),
            inner: Box::new(rewrite_term(inner, perm)),
        },
    }
}

fn rewrite_chan(ch: &RtChannel, perm: &PathPerm) -> RtChannel {
    RtChannel {
        subject: rewrite_term(&ch.subject, perm),
        index: match &ch.index {
            RtChanIndex::AtAbs(p) => RtChanIndex::AtAbs(perm.apply(p)),
            other => other.clone(),
        },
    }
}

fn rewrite_proc(p: &RtProcess, perm: &PathPerm) -> RtProcess {
    match p {
        RtProcess::Nil => RtProcess::Nil,
        RtProcess::Output(ch, t, cont) => RtProcess::Output(
            rewrite_chan(ch, perm),
            rewrite_term(t, perm),
            Box::new(rewrite_proc(cont, perm)),
        ),
        RtProcess::Input(ch, x, cont) => RtProcess::Input(
            rewrite_chan(ch, perm),
            x.clone(),
            Box::new(rewrite_proc(cont, perm)),
        ),
        RtProcess::Restrict(n, body) => {
            RtProcess::Restrict(n.clone(), Box::new(rewrite_proc(body, perm)))
        }
        RtProcess::Par(l, r) => RtProcess::Par(
            Box::new(rewrite_proc(l, perm)),
            Box::new(rewrite_proc(r, perm)),
        ),
        RtProcess::Match(a, b, cont) => RtProcess::Match(
            rewrite_term(a, perm),
            rewrite_term(b, perm),
            Box::new(rewrite_proc(cont, perm)),
        ),
        RtProcess::AddrMatchT(a, b, cont) => RtProcess::AddrMatchT(
            rewrite_term(a, perm),
            rewrite_term(b, perm),
            Box::new(rewrite_proc(cont, perm)),
        ),
        RtProcess::AddrMatchL(a, l, cont) => RtProcess::AddrMatchL(
            rewrite_term(a, perm),
            l.clone(),
            Box::new(rewrite_proc(cont, perm)),
        ),
        RtProcess::Bang(body) => RtProcess::Bang(Box::new(rewrite_proc(body, perm))),
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => RtProcess::Split {
            pair: rewrite_term(pair, perm),
            fst: fst.clone(),
            snd: snd.clone(),
            body: Box::new(rewrite_proc(body, perm)),
        },
        RtProcess::Case {
            scrutinee,
            binders,
            key,
            body,
        } => RtProcess::Case {
            scrutinee: rewrite_term(scrutinee, perm),
            binders: binders.clone(),
            key: rewrite_term(key, perm),
            body: Box::new(rewrite_proc(body, perm)),
        },
    }
}

fn rewrite_leaf(leaf: &LeafState, perm: &PathPerm) -> LeafState {
    match leaf {
        LeafState::Dead => LeafState::Dead,
        LeafState::Out {
            chan,
            payload,
            cont,
        } => LeafState::Out {
            chan: rewrite_chan(chan, perm),
            payload: rewrite_term(payload, perm),
            cont: rewrite_proc(cont, perm),
        },
        LeafState::In { chan, var, cont } => LeafState::In {
            chan: rewrite_chan(chan, perm),
            var: var.clone(),
            cont: rewrite_proc(cont, perm),
        },
        LeafState::Bang { body, unfolded } => LeafState::Bang {
            body: rewrite_proc(body, perm),
            unfolded: *unfolded,
        },
    }
}

/// Physically applies a copy permutation: moves the copy subtrees to their
/// destination roots and rewrites every absolute path — localization
/// indexes, composite creator stamps, and the name table's creators —
/// through `perm`.  Returns the configuration unchanged when any subtree
/// lookup fails (a malformed permutation degrades to no quotienting, never
/// to a wrong state).
#[must_use]
pub fn apply_perm(cfg: &Config, perm: &PathPerm) -> Config {
    if perm.is_identity() {
        return cfg.clone();
    }
    let mut moved: Vec<(&Path, ProcTree<LeafState>)> = Vec::with_capacity(perm.pairs().len());
    for (src, dst) in perm.pairs() {
        match cfg.tree().subtree(src) {
            Ok(sub) => moved.push((dst, sub.clone())),
            Err(_) => return cfg.clone(),
        }
    }
    let mut tree: ProcTree<LeafState> = cfg.tree().clone();
    for (dst, sub) in moved {
        if tree.replace(dst, sub).is_err() {
            return cfg.clone();
        }
    }
    let tree = tree.map(|_, leaf| rewrite_leaf(leaf, perm));
    let names = cfg.names().map_creators(|p| perm.apply(p));
    Config {
        tree: Arc::new(tree),
        names: Arc::new(names),
    }
}

/// How many candidate arrangements the quotient will score before giving
/// up on a state (falling back to its unquotiented key).
pub const MAX_CANDIDATES: usize = 256;

/// A [`PathPerm`] as a serialization lens: writing the *unpermuted*
/// configuration through it yields, byte for byte, the serialization of
/// [`apply_perm`]'s result — copy subtrees are visited in their
/// destination order and every absolute path is rewritten as it is
/// written — without building the permuted configuration.
impl Lens for &PathPerm {
    fn path<S: Write>(&mut self, p: &Path, out: &mut S) {
        for (s, d) in &self.pairs {
            if s.is_prefix_of(p) {
                let _ = d.write_bits(out);
                write_tail(p, s.len(), out);
                return;
            }
        }
        let _ = p.write_bits(out);
    }

    fn tree<S: Write>(&mut self, canon: &mut Canonicalizer, cfg: &Config, out: &mut S) {
        self.write_moved(canon, cfg, cfg.tree(), &mut Path::root(), out);
    }
}

impl PathPerm {
    /// Writes `node`, found at position `at` of `cfg`'s tree, as the
    /// permuted configuration holds it: wherever a destination root
    /// lands, the subtree of its source.  Positions are tracked only
    /// along the routes to destination roots.
    fn write_moved<S: Write>(
        &self,
        canon: &mut Canonicalizer,
        cfg: &Config,
        node: &ProcTree<LeafState>,
        at: &mut Path,
        out: &mut S,
    ) {
        let mut lens = self;
        let moved_in = self.pairs.iter().find(|(_, d)| d == at);
        if let Some(sub) = moved_in.and_then(|(src, _)| cfg.tree().subtree(src).ok()) {
            return canon.write_tree(sub, cfg.names(), &mut lens, out);
        }
        let ProcTree::Node(l, r) = node else {
            return canon.write_tree(node, cfg.names(), &mut lens, out);
        };
        if !self.pairs.iter().any(|(_, d)| at.is_prefix_of(d)) {
            return canon.write_tree(node, cfg.names(), &mut lens, out);
        }
        let _ = out.write_char('(');
        at.push(Branch::Left);
        self.write_moved(canon, cfg, l, at, out);
        at.pop();
        let _ = out.write_char(';');
        at.push(Branch::Right);
        self.write_moved(canon, cfg, r, at, out);
        at.pop();
        let _ = out.write_char(')');
    }
}

/// Writes the tags of `p` from position `from` on as bits.
fn write_tail<S: Write>(p: &Path, from: usize, out: &mut S) {
    for b in p.iter().skip(from) {
        let _ = out.write_char(if b.bit() == 0 { '0' } else { '1' });
    }
}

/// The copies of a state's session groups, numbered group by group.
struct Copies<'g> {
    groups: &'g [SessionGroup],
    /// `group[x]`: the group of copy `x`; `slot[x]`: its index there.
    group: Vec<usize>,
    slot: Vec<usize>,
}

impl<'g> Copies<'g> {
    fn new(groups: &'g [SessionGroup]) -> Copies<'g> {
        let (group, slot) = groups
            .iter()
            .enumerate()
            .flat_map(|(g, grp)| (0..grp.roots.len()).map(move |t| (g, t)))
            .unzip();
        Copies {
            groups,
            group,
            slot,
        }
    }

    fn len(&self) -> usize {
        self.group.len()
    }

    fn root(&self, x: usize) -> &Path {
        &self.groups[self.group[x]].roots[self.slot[x]]
    }

    /// The copy whose subtree holds position `p`, with the length of its
    /// root.  Copy roots sit at `base·‖1^t·‖0`, so one scan of `p` past a
    /// group's base finds the copy.
    fn holding(&self, p: &Path) -> Option<(usize, usize)> {
        let mut first = 0;
        for g in self.groups {
            let k = g.roots.len();
            if g.base.is_prefix_of(p) {
                let rights = p
                    .iter()
                    .skip(g.base.len())
                    .take_while(|b| *b == Branch::Right);
                let t = rights.count();
                let at = g.base.len() + t;
                return (at < p.len() && t < k).then_some((first + t, at + 1));
            }
            first += k;
        }
        None
    }
}

/// How the symmetry search writes paths.  By default relative to one
/// copy (the *own* copy, if any): `~suffix` inside it, `?g.suffix` inside
/// any other copy of group `g`, verbatim elsewhere — invariant under copy
/// permutations — recording the other copies met.  With `colour` set
/// (a *strict* rendering): paths inside a copy by the copy's colour, and
/// restricted names made outside every copy by their raw identity, so two
/// components that render equally are related by a copy permutation and
/// a renaming of the names their copies made, which fixes everything
/// else: swapping them is an automorphism of the state.
struct Mask<'a> {
    copies: &'a Copies<'a>,
    own: Option<usize>,
    colour: Option<&'a [u128]>,
    met: Vec<usize>,
    /// Whether the rendering met a depth-dependent construct.
    depth: bool,
}

impl<'a> Mask<'a> {
    fn new(copies: &'a Copies<'a>, own: Option<usize>) -> Mask<'a> {
        Mask {
            copies,
            own,
            colour: None,
            met: Vec::new(),
            depth: false,
        }
    }
}

impl Lens for Mask<'_> {
    fn path<S: Write>(&mut self, p: &Path, out: &mut S) {
        let Some((x, at)) = self.copies.holding(p) else {
            let _ = p.write_bits(out);
            return;
        };
        match self.colour {
            Some(colour) => {
                let _ = write!(out, "{:x}.", colour[x]);
            }
            None if Some(x) == self.own => {
                let _ = out.write_char('~');
            }
            None => {
                if !self.met.contains(&x) {
                    self.met.push(x);
                }
                let _ = write!(out, "?{}.", self.copies.group[x]);
            }
        }
        write_tail(p, at, out);
    }

    fn name<S: Write>(&mut self, id: NameId, entry: &NameEntry, out: &mut S) -> bool {
        let raw = self.colour.is_some()
            && entry
                .creator
                .as_ref()
                .is_none_or(|c| self.copies.holding(c).is_none());
        if raw {
            let _ = write!(out, "x{}", id.index());
        }
        raw
    }

    fn depth_dependent(&mut self) {
        self.depth = true;
    }
}

/// What one part of the state is: a copy's subtree, a process leaf
/// outside every copy, or a term held outside the tree.
#[derive(Clone, Copy)]
enum Body<'a> {
    Copy(usize),
    Leaf(&'a LeafState),
    Term(&'a RtTerm),
}

/// One part of the state that touches at least one copy: where it sits
/// (a permutation-invariant tag), what it is, and, for every copy it
/// touches, its rendering relative to that copy (its *role*).
struct Unit<'a> {
    place: u128,
    body: Body<'a>,
    touches: Vec<(usize, u128)>,
}

/// Serializes one part of the state through `canon` and `lens`.
fn write_body<L: Lens, S: Write>(
    cfg: &Config,
    copies: &Copies<'_>,
    body: Body<'_>,
    canon: &mut Canonicalizer,
    lens: &mut L,
    out: &mut S,
) {
    match body {
        Body::Copy(x) => {
            if let Ok(sub) = cfg.tree().subtree(copies.root(x)) {
                canon.write_tree(sub, cfg.names(), lens, out);
            }
        }
        Body::Leaf(l) => canon.write_leaf(l, cfg.names(), lens, out),
        Body::Term(t) => canon.write_term(t, cfg.names(), lens, out),
    }
}

/// Folds a sequence of digests into one.
fn mix(parts: impl IntoIterator<Item = u128>) -> u128 {
    let mut h = CanonHasher::new();
    for p in parts {
        h.write_u128(p);
    }
    h.finish()
}

/// The number of distinct colours.
fn classes(colour: &[u128]) -> usize {
    let mut c = colour.to_vec();
    c.sort_unstable();
    c.dedup();
    c.len()
}

/// Marks an individualized copy's colour (with the individualization
/// depth, so copies individualized in turn never tie again).
const INDIVIDUALIZED: u128 = 0x1d;

/// Why a state keeps its unquotiented key (always sound, just unmerged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// The state — its configuration or a term it holds outside the
    /// tree — contains a construct whose behaviour depends on a
    /// position's *depth* rather than its identity: unresolved
    /// relative-address channel indexes, literal address matchings and
    /// located-literal patterns all resolve a stored relative address
    /// against the holder's position, which copy permutations change.
    Ineligible,
    /// The ties refinement left would take more candidates than the cap.
    Overflow,
}

/// The session-symmetry search over one state: its copies, the parts of
/// the state that touch them, and the colours refinement derives.
struct Search<'a> {
    cfg: &'a Config,
    copies: &'a Copies<'a>,
    units: Vec<Unit<'a>>,
    /// Per copy: the units touching it and some other copy.
    links: Vec<Vec<usize>>,
    /// Per copy: its linked component (copies joined by shared units).
    comp: Vec<usize>,
    /// The refined colours before any individualization.
    root: Vec<u128>,
    /// Scratch for the walk: one canonicalizer reused for every
    /// rendering, and whether any rendering met a depth-dependent
    /// construct.
    canon: Canonicalizer,
    depth: bool,
}

impl<'a> Search<'a> {
    /// The one walk over the state: every copy subtree, every process
    /// leaf outside the copies and every held term is rendered relative
    /// to each copy it touches.
    fn new(
        cfg: &'a Config,
        copies: &'a Copies<'a>,
        held: &[(u128, &'a RtTerm)],
    ) -> Result<Search<'a>, Fallback> {
        let mut search = Search {
            cfg,
            copies,
            units: Vec::new(),
            links: vec![Vec::new(); copies.len()],
            comp: (0..copies.len()).collect(),
            root: Vec::new(),
            canon: Canonicalizer::new(),
            depth: false,
        };
        for x in 0..copies.len() {
            search.add(0, Body::Copy(x));
        }
        for (at, leaf) in cfg.tree().leaves() {
            if copies.holding(&at).is_none() {
                let mut h = CanonHasher::new();
                let _ = h.write_char('T');
                let _ = at.write_bits(&mut h);
                search.add(h.finish(), Body::Leaf(leaf));
            }
        }
        for &(place, t) in held {
            search.add(place, Body::Term(t));
        }
        if search.depth {
            return Err(Fallback::Ineligible);
        }
        // A copy's first colour: its group and, as a multiset (the held
        // terms come in raw-id order), the parts touching it alone.
        let mut alone: Vec<Vec<u128>> = vec![Vec::new(); copies.len()];
        for (u, unit) in search.units.iter().enumerate() {
            if let [(x, role)] = unit.touches[..] {
                alone[x].push(mix([unit.place, role]));
            } else {
                for &(x, _) in &unit.touches {
                    search.links[x].push(u);
                }
            }
        }
        let mut colour: Vec<u128> = alone
            .into_iter()
            .enumerate()
            .map(|(x, mut parts)| {
                parts.sort_unstable();
                mix(std::iter::once(copies.group[x] as u128).chain(parts))
            })
            .collect();
        for unit in search.units.iter().filter(|u| u.touches.len() > 1) {
            let labels: Vec<usize> = unit.touches.iter().map(|&(x, _)| search.comp[x]).collect();
            let least = labels.iter().copied().min().unwrap_or(0);
            for c in &mut search.comp {
                if labels.contains(c) {
                    *c = least;
                }
            }
        }
        search.refine(&mut colour);
        search.root = colour;
        Ok(search)
    }

    /// The digest of `body` rendered relative to copy `own`, and the
    /// other copies it meets.
    fn render(&mut self, body: Body<'_>, own: Option<usize>) -> (u128, Vec<usize>) {
        let mut mask = Mask::new(self.copies, own);
        let mut h = CanonHasher::new();
        self.canon.clear();
        write_body(
            self.cfg,
            self.copies,
            body,
            &mut self.canon,
            &mut mask,
            &mut h,
        );
        self.depth |= mask.depth;
        (h.finish(), mask.met)
    }

    /// Records `body` as a unit if it touches some copy.  A copy's own
    /// subtree always touches it, and its role there is the copy's
    /// signature.
    fn add(&mut self, place: u128, body: Body<'a>) {
        let own = match body {
            Body::Copy(x) => Some(x),
            _ => None,
        };
        let (digest, met) = self.render(body, own);
        let mut touches: Vec<(usize, u128)> = own.map(|x| (x, digest)).into_iter().collect();
        if own.is_none() && met.len() == 1 {
            touches.push((met[0], digest));
        } else {
            for &y in &met {
                touches.push((y, self.render(body, Some(y)).0));
            }
        }
        if !touches.is_empty() {
            self.units.push(Unit {
                place,
                body,
                touches,
            });
        }
    }

    /// 1-dimensional colour refinement to a fixpoint: a copy's next
    /// colour folds in, for every unit linking it to other copies, its
    /// role there and the roles and colours of the others.
    fn refine(&self, colour: &mut Vec<u128>) {
        if self.links.iter().all(Vec::is_empty) {
            return;
        }
        let mut count = classes(colour);
        loop {
            let next: Vec<u128> = (0..colour.len())
                .map(|x| {
                    let mut parts: Vec<u128> = self.links[x]
                        .iter()
                        .map(|&u| {
                            let unit = &self.units[u];
                            let mut seen: Vec<u128> = Vec::new();
                            let mut role = 0;
                            for &(y, r) in &unit.touches {
                                if y == x {
                                    role = r;
                                } else {
                                    seen.push(mix([r, colour[y]]));
                                }
                            }
                            seen.sort_unstable();
                            mix([unit.place, role].into_iter().chain(seen))
                        })
                        .collect();
                    parts.sort_unstable();
                    mix(std::iter::once(colour[x]).chain(parts))
                })
                .collect();
            *colour = next;
            let refined = classes(colour);
            if refined == count {
                return;
            }
            count = refined;
        }
    }

    /// The digest of component `c` rendered through a strict [`Mask`], or
    /// `None` when two of its copies share a root colour (the rendering
    /// would not pin down which copy maps to which).
    fn strict(&self, c: usize) -> Option<u128> {
        let mut members: Vec<usize> = (0..self.copies.len())
            .filter(|&x| self.comp[x] == c)
            .collect();
        members.sort_unstable_by_key(|&x| self.root[x]);
        if members
            .windows(2)
            .any(|w| self.root[w[0]] == self.root[w[1]])
        {
            return None;
        }
        let mut rest: Vec<(u128, usize)> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| !matches!(u.body, Body::Copy(_)) && self.comp[u.touches[0].0] == c)
            .map(|(i, u)| {
                let mut roles: Vec<(u128, u128)> =
                    u.touches.iter().map(|&(y, r)| (self.root[y], r)).collect();
                roles.sort_unstable();
                (
                    mix([u.place]
                        .into_iter()
                        .chain(roles.into_iter().flat_map(|(a, b)| [a, b]))),
                    i,
                )
            })
            .collect();
        rest.sort_by_key(|&(key, _)| key);
        let mut lens = Mask {
            colour: Some(&self.root),
            ..Mask::new(self.copies, None)
        };
        let mut canon = Canonicalizer::new();
        let mut h = CanonHasher::new();
        for x in members {
            let _ = write!(h, "C{:x}:", self.root[x]);
            write_body(
                self.cfg,
                self.copies,
                Body::Copy(x),
                &mut canon,
                &mut lens,
                &mut h,
            );
        }
        for (_, i) in rest {
            let _ = write!(h, "U{:x}:", self.units[i].place);
            let body = self.units[i].body;
            write_body(self.cfg, self.copies, body, &mut canon, &mut lens, &mut h);
        }
        Some(h.finish())
    }

    /// The first cell of tied copies: the lowest-coloured run of equal
    /// colours in the first group that has one.
    fn first_tie(&self, colour: &[u128]) -> Option<Vec<usize>> {
        let mut start = 0;
        for g in self.copies.groups {
            let mut members: Vec<usize> = (start..start + g.roots.len()).collect();
            start += g.roots.len();
            members.sort_by_key(|&x| colour[x]);
            if let Some(w) = members
                .windows(2)
                .position(|w| colour[w[0]] == colour[w[1]])
            {
                let c = colour[members[w]];
                return Some(members.into_iter().filter(|&x| colour[x] == c).collect());
            }
        }
        None
    }

    /// Individualize-and-refine from `colour`, pushing the arrangement of
    /// every discrete leaf onto `out`; `false` once `out` passes `cap`.
    ///
    /// Of the tied copies, only one per automorphism class is tried: two
    /// copies whose components render equally under a strict [`Mask`] (and hold
    /// no individualized copy) are swapped by an automorphism fixing
    /// everything individualized so far, so their subtrees of the search
    /// score the same keys.
    fn leaves(
        &self,
        colour: Vec<u128>,
        fixed: &mut Vec<bool>,
        strict: &mut Vec<Option<Option<u128>>>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) -> bool {
        let Some(cell) = self.first_tie(&colour) else {
            let mut order: Vec<usize> = (0..colour.len()).collect();
            order.sort_by_key(|&x| (self.copies.group[x], colour[x]));
            out.push(order);
            return out.len() <= cap;
        };
        let mut tried: Vec<(u128, u128)> = Vec::new();
        for x in cell {
            let c = self.comp[x];
            if !(0..fixed.len()).any(|y| fixed[y] && self.comp[y] == c) {
                if let Some(h) = *strict[c].get_or_insert_with(|| self.strict(c)) {
                    if tried.contains(&(h, self.root[x])) {
                        continue;
                    }
                    tried.push((h, self.root[x]));
                }
            }
            let depth = fixed.iter().filter(|f| **f).count() as u128;
            let mut next = colour.clone();
            next[x] = mix([next[x], INDIVIDUALIZED, depth]);
            self.refine(&mut next);
            fixed[x] = true;
            let within = self.leaves(next, fixed, strict, out, cap);
            fixed[x] = false;
            if !within {
                return false;
            }
        }
        true
    }
}

/// The candidate arrangements of a state's session copies, as the
/// permutations that put them there, or why the state keeps its raw key:
/// it is not symmetry-eligible, or its candidates would pass `cap`.
///
/// `held` lists the terms the state keeps outside the process tree (the
/// intruder's knowledge, the network's buffer and log), each tagged with
/// a permutation-invariant digest of where it sits.
///
/// Every copy gets a colour from permutation-invariant features only —
/// its signature, the parts of the state that touch it, and by colour
/// refinement the colours of the copies those parts also touch — and
/// each group's copies are arranged in colour order.  Ties refinement
/// cannot break are enumerated by individualize-and-refine, trying one
/// copy per automorphism class.  The candidate set of a state and of any
/// copy permutation of it therefore score the same set of keys, so the
/// minimum is a canonical form of the orbit; and every candidate is a
/// real member of the orbit, so the minimum never merges two orbits.
pub fn candidates(
    cfg: &Config,
    groups: &[SessionGroup],
    held: &[(u128, &RtTerm)],
    cap: usize,
) -> Result<Vec<PathPerm>, Fallback> {
    let copies = Copies::new(groups);
    let search = Search::new(cfg, &copies, held)?;
    let mut orders = Vec::new();
    let mut strict = vec![None; copies.len()];
    let mut fixed = vec![false; copies.len()];
    if !search.leaves(
        search.root.clone(),
        &mut fixed,
        &mut strict,
        &mut orders,
        cap,
    ) {
        return Err(Fallback::Overflow);
    }
    Ok(orders
        .into_iter()
        .map(|order| {
            PathPerm::from_pairs(order.iter().enumerate().map(|(pos, &x)| {
                // Copies are numbered group by group and `order` keeps
                // each group's run where the numbering has it, so the
                // run of `x`'s group starts at its first copy's number.
                let slot = pos - (x - copies.slot[x]);
                (
                    copies.root(x).clone(),
                    copies.groups[copies.group[x]].roots[slot].clone(),
                )
            }))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;
    use spi_syntax::parse;

    /// Enumerates the permutations of `0..n` into `out` (each as an image
    /// vector `perm[i] = j`).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn go(prefix: &mut Vec<usize>, used: &mut Vec<bool>, n: usize, out: &mut Vec<Vec<usize>>) {
            if prefix.len() == n {
                out.push(prefix.clone());
                return;
            }
            for j in 0..n {
                if !used[j] {
                    used[j] = true;
                    prefix.push(j);
                    go(prefix, used, n, out);
                    prefix.pop();
                    used[j] = false;
                }
            }
        }
        let mut out = Vec::new();
        go(&mut Vec::new(), &mut vec![false; n], n, &mut out);
        out
    }

    fn factorial_capped(n: usize, cap: usize) -> usize {
        let mut f = 1usize;
        for i in 2..=n {
            f = f.saturating_mul(i);
            if f > cap {
                return cap + 1;
            }
        }
        f
    }

    /// Every joint copy permutation of every group (the full orbit), or
    /// `None` past `cap`: the brute force the signature-guided candidates
    /// are checked against.
    fn all_perms(groups: &[SessionGroup], cap: usize) -> Option<Vec<PathPerm>> {
        let mut total = 1usize;
        for g in groups {
            total = total.saturating_mul(factorial_capped(g.roots.len(), cap));
            if total > cap {
                return None;
            }
        }
        let mut candidates: Vec<Vec<(Path, Path)>> = vec![Vec::new()];
        for g in groups {
            let perms = permutations(g.roots.len());
            let mut next = Vec::with_capacity(candidates.len() * perms.len());
            for base in &candidates {
                for perm in &perms {
                    let mut pairs = base.clone();
                    for (copy, slot) in perm.iter().enumerate() {
                        pairs.push((g.roots[copy].clone(), g.roots[*slot].clone()));
                    }
                    next.push(pairs);
                }
            }
            candidates = next;
            if candidates.len() > cap {
                return None;
            }
        }
        Some(candidates.into_iter().map(PathPerm::from_pairs).collect())
    }

    fn cfg(src: &str) -> Config {
        Config::from_process(&parse(src).expect("parses")).expect("loads")
    }

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    /// Unfolds the replication at `path` `n` times, following the spine.
    fn unfold_n(c: &mut Config, path: &str, n: usize) {
        let mut at = p(path);
        for _ in 0..n {
            c.fire(&Action::Unfold { path: at.clone() }).expect("unfolds");
            at.push(Branch::Right);
        }
    }

    #[test]
    fn perm_apply_rewrites_prefixes_only() {
        let perm = PathPerm::from_pairs([(p("00"), p("010")), (p("010"), p("00"))]);
        assert_eq!(perm.apply(&p("001")), p("0101"));
        assert_eq!(perm.apply(&p("0100")), p("000"));
        assert_eq!(perm.apply(&p("1")), p("1"), "outside paths untouched");
        assert_eq!(perm.apply(&p("01")), p("01"), "spine untouched");
    }

    #[test]
    fn perm_invert_and_compose() {
        let swap = PathPerm::from_pairs([(p("00"), p("010")), (p("010"), p("00"))]);
        assert_eq!(swap.invert(), swap, "a swap is its own inverse");
        assert!(swap.then(&swap.invert()).is_identity());
        // A 3-cycle composed with itself is the other 3-cycle.
        let cyc = PathPerm::from_pairs([
            (p("00"), p("010")),
            (p("010"), p("0110")),
            (p("0110"), p("00")),
        ]);
        let twice = cyc.then(&cyc);
        assert_eq!(twice.apply(&p("00")), p("0110"));
        assert_eq!(twice.apply(&p("010")), p("00"));
        assert!(cyc.then(&twice).is_identity());
    }

    #[test]
    fn groups_require_two_copies() {
        let mut c = cfg("!(^m) c<m> | c(x)");
        assert!(session_groups(&c, &[]).is_empty());
        unfold_n(&mut c, "0", 1);
        assert!(session_groups(&c, &[]).is_empty(), "one copy is no group");
        c.fire(&Action::Unfold { path: p("01") }).unwrap();
        let groups = session_groups(&c, &[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].base, p("0"));
        assert_eq!(groups[0].roots, vec![p("00"), p("010")]);
    }

    #[test]
    fn pinned_positions_inside_a_copy_disable_the_group() {
        let mut c = cfg("!(^m) c<m> | c(x)");
        unfold_n(&mut c, "0", 2);
        assert_eq!(session_groups(&c, &[p("1")]).len(), 1, "outside pin ok");
        assert!(
            session_groups(&c, &[p("001")]).is_empty(),
            "a pin under a copy root freezes the group"
        );
    }

    #[test]
    fn eligibility_rejects_relative_address_constructs() {
        let ineligible = |src: &str| {
            let c = cfg(src);
            matches!(
                candidates(&c, &[], &[], MAX_CANDIDATES),
                Err(Fallback::Ineligible)
            )
        };
        assert!(!ineligible("(^m)(c<m> | c(x).d<x>)"));
        assert!(ineligible("c(x).[x ~ @(1.0)] d<x>"));
        // An unresolved relative channel literal (it cannot resolve at its
        // leaf) keeps an `At` index.
        assert!(ineligible("c@(11.0)<m>"));
    }

    #[test]
    fn swapping_equal_copies_is_a_key_fixpoint() {
        let mut c = cfg("!(^m) c<m> | c(x)");
        unfold_n(&mut c, "0", 2);
        let groups = session_groups(&c, &[]);
        let swap = PathPerm::from_pairs([
            (groups[0].roots[0].clone(), groups[0].roots[1].clone()),
            (groups[0].roots[1].clone(), groups[0].roots[0].clone()),
        ]);
        let swapped = apply_perm(&c, &swap);
        // Both copies are untouched residuals of the same body, but their
        // restricted names have different creators — swapping the copies
        // swaps the creators back into place, so the key is unchanged.
        assert_eq!(c.canonical_key(), swapped.canonical_key());
    }

    #[test]
    fn quotient_key_collapses_permuted_evolutions() {
        // Two copies of a session; run the communication of copy 1 in one
        // world and of copy 2 in the other.
        let src = "!((^m) c<m> | c(x).d<x>) | d(y)";
        let mut a = cfg(src);
        unfold_n(&mut a, "0", 2);
        let mut b = a.clone();
        // Copy roots: 00 and 010; inside each copy, sender at ·0, receiver at ·1.
        a.fire(&Action::Comm {
            out_path: p("000"),
            in_path: p("001"),
        })
        .unwrap();
        b.fire(&Action::Comm {
            out_path: p("0100"),
            in_path: p("0101"),
        })
        .unwrap();
        assert_ne!(
            a.canonical_key(),
            b.canonical_key(),
            "raw keys see the copy positions"
        );
        assert_eq!(
            qkey(&a, &[]),
            qkey(&b, &[]),
            "quotient keys collapse the orbit"
        );
        // Every permuted variant lands on the same key: a canonical form
        // of the orbit, not merely the minimum over some candidates.
        let groups = session_groups(&a, &[]);
        for perm in all_perms(&groups, MAX_CANDIDATES).expect("under cap") {
            assert_eq!(qkey(&apply_perm(&a, &perm), &[]), qkey(&a, &[]), "{perm:?}");
        }
    }

    /// The key of the configuration `perm` leads to, written through the
    /// permutation's path map.
    fn mapped_key(c: &Config, perm: &PathPerm) -> String {
        let mut out = String::new();
        c.write_canonical_with(&mut Canonicalizer::new(), &mut &*perm, &mut out);
        out
    }

    /// The symmetry quotient key of a configuration (with `held` terms
    /// informing the search only): the minimum path-mapped key over the
    /// candidate arrangements.
    fn qkey(c: &Config, held: &[(u128, &RtTerm)]) -> String {
        let groups = session_groups(c, &[]);
        candidates(c, &groups, held, MAX_CANDIDATES)
            .expect("eligible, under cap")
            .iter()
            .map(|perm| mapped_key(c, perm))
            .min()
            .expect("non-empty")
    }

    /// How many arrangements the search leaves to score.
    fn scored(c: &Config, held: &[(u128, &RtTerm)]) -> usize {
        let groups = session_groups(c, &[]);
        candidates(c, &groups, held, MAX_CANDIDATES)
            .expect("eligible, under cap")
            .len()
    }

    #[test]
    fn the_path_map_serializes_the_permuted_configuration() {
        let src = "!((^m) c<m> | c(x).d<x>) | d(y)";
        let mut c = cfg(src);
        unfold_n(&mut c, "0", 3);
        c.fire(&Action::Comm {
            out_path: p("000"),
            in_path: p("0101"),
        })
        .unwrap();
        let groups = session_groups(&c, &[]);
        for perm in all_perms(&groups, MAX_CANDIDATES).expect("under cap") {
            assert_eq!(
                mapped_key(&c, &perm),
                apply_perm(&c, &perm).canonical_key(),
                "{perm:?}"
            );
        }
    }

    #[test]
    fn apply_perm_rewrites_table_creators_and_stamps() {
        let src = "!((^m) c<m> | c(x).d<x>) | d(y)";
        let mut c = cfg(src);
        unfold_n(&mut c, "0", 2);
        c.fire(&Action::Comm {
            out_path: p("000"),
            in_path: p("001"),
        })
        .unwrap();
        let swap = PathPerm::from_pairs([(p("00"), p("010")), (p("010"), p("00"))]);
        let sw = apply_perm(&c, &swap);
        // Each name's creator moves with its copy: the m created in copy 1
        // (creator 000) now reads as created in copy 2 (creator 0100) and
        // vice versa, while the identities stay put.
        let creators = |c: &Config| -> Vec<(usize, String)> {
            c.names()
                .iter()
                .filter_map(|(id, e)| e.creator.as_ref().map(|p| (id.index(), p.to_bits())))
                .collect()
        };
        let before = creators(&c);
        let after = creators(&sw);
        assert_eq!(before.len(), after.len());
        for ((id_b, cr_b), (id_a, cr_a)) in before.iter().zip(after.iter()) {
            assert_eq!(id_b, id_a);
            assert_eq!(&swap.apply(&cr_b.parse().expect("path")).to_bits(), cr_a);
        }
        assert_ne!(before, after, "the swap moved at least one creator");
    }

    /// Three copies, each creating two nonces and receiving two.  In
    /// world A copy i receives both nonces of its predecessor; in world B
    /// it receives its predecessor's first and its successor's second.
    fn correlated_worlds() -> (Config, Config) {
        let src = "!((^m)(^n)(c<m>.c<n> | c(x).c(y).d<x>.d<y>)) | d(z)";
        let mut a = cfg(src);
        unfold_n(&mut a, "0", 3);
        let mut b = a.clone();
        let comm = |c: &mut Config, out: &str, inp: &str| {
            c.fire(&Action::Comm {
                out_path: p(out),
                in_path: p(inp),
            })
            .expect("fires");
        };
        // Senders at root·0 (000, 0100, 01100), receivers at root·1.
        // A: both sends of copy i go to copy i+1 (cyclically).
        comm(&mut a, "000", "0101");
        comm(&mut a, "000", "0101");
        comm(&mut a, "0100", "01101");
        comm(&mut a, "0100", "01101");
        comm(&mut a, "01100", "001");
        comm(&mut a, "01100", "001");
        // B: first sends go to copy i+1, second sends to copy i-1.
        comm(&mut b, "000", "0101");
        comm(&mut b, "0100", "01101");
        comm(&mut b, "01100", "001");
        comm(&mut b, "000", "01101");
        comm(&mut b, "0100", "001");
        comm(&mut b, "01100", "0101");
        (a, b)
    }

    #[test]
    fn candidates_past_the_cap_fall_back_to_the_raw_key() {
        let (a, _) = correlated_worlds();
        let groups = session_groups(&a, &[]);
        let n = scored(&a, &[]);
        assert!(n > 1);
        assert_eq!(candidates(&a, &groups, &[], 1), Err(Fallback::Overflow));
        assert_eq!(candidates(&a, &groups, &[], n - 1), Err(Fallback::Overflow));
        assert_eq!(candidates(&a, &groups, &[], n).map(|c| c.len()), Ok(n));
    }

    #[test]
    fn idle_and_finished_self_contained_copies_collapse_to_one_candidate() {
        // Four sessions: two idle, two finished.  Each idle copy holds
        // only its own nonce, each finished one nothing, so any
        // arrangement of either kind is the same state.
        let mut c = cfg("!((^m)(c<m> | c(x))) | d(y)");
        unfold_n(&mut c, "0", 4);
        for root in ["00", "0110"] {
            c.fire(&Action::Comm {
                out_path: p(&format!("{root}0")),
                in_path: p(&format!("{root}1")),
            })
            .unwrap();
        }
        assert_eq!(scored(&c, &[]), 1);
        // Six identical copies (720 arrangements) are one candidate too.
        let mut six = cfg("!c<m> | c(x)");
        unfold_n(&mut six, "0", 6);
        let groups = session_groups(&six, &[]);
        assert_eq!(groups[0].roots.len(), 6);
        assert_eq!(scored(&six, &[]), 1);
        assert!(
            all_perms(&groups, 256).is_none(),
            "the orbit itself overflows"
        );
    }

    #[test]
    fn copies_tied_through_the_knowledge_or_each_other_are_not_collapsed() {
        let mut c = cfg("!(^m) c<m> | d(y)");
        unfold_n(&mut c, "0", 2);
        let ids: Vec<NameId> = c
            .names()
            .iter()
            .filter(|(_, e)| e.restricted && e.base.as_str() == "m")
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids.len(), 2);
        let pair = |a: NameId, b: NameId| RtTerm::Pair {
            fst: Box::new(RtTerm::Id(a)),
            snd: Box::new(RtTerm::Id(b)),
            creator: None,
        };
        // Alone, the two idle copies are interchangeable.
        assert_eq!(scored(&c, &[]), 1);
        // Knowing both ordered pairs ties the copies to each other: the
        // tie survives refinement and both arrangements are scored.
        let (ab, ba) = (pair(ids[0], ids[1]), pair(ids[1], ids[0]));
        assert_eq!(scored(&c, &[(0, &ab), (0, &ba)]), 2);
        // One ordered pair breaks the tie instead.
        assert_eq!(scored(&c, &[(0, &ab)]), 1);
        // Held terms form a multiset: their order (raw ids, for the
        // knowledge) must not change the arrangement chosen.
        let groups = session_groups(&c, &[]);
        let (a, aa) = (RtTerm::Id(ids[0]), pair(ids[0], ids[0]));
        for place in 0..8 {
            assert_eq!(
                candidates(&c, &groups, &[(place, &a), (place, &aa)], MAX_CANDIDATES),
                candidates(&c, &groups, &[(place, &aa), (place, &a)], MAX_CANDIDATES),
                "place {place}"
            );
        }

        // The cyclic and the alternating worlds of the erased
        // pseudo-quotient's test: every copy holds names of another, so
        // nothing collapses, and the worlds keep distinct keys.
        let (a, b) = correlated_worlds();
        assert!(scored(&a, &[]) > 1);
        assert_ne!(qkey(&a, &[]), qkey(&b, &[]));
        let groups = session_groups(&a, &[]);
        for perm in all_perms(&groups, MAX_CANDIDATES).expect("small orbit") {
            assert_eq!(qkey(&apply_perm(&a, &perm), &[]), qkey(&a, &[]));
            assert_eq!(qkey(&apply_perm(&b, &perm), &[]), qkey(&b, &[]));
        }
    }
}
