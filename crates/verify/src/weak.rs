//! The one weak-transition walk over an [`Lts`].
//!
//! Every checker steps an explored system weakly: a τ-closure, one
//! visible edge, a τ-closure again.  The trace extractor
//! ([`crate::weak_traces`], [`crate::find_realization`]), the
//! hedged-bisimulation engine ([`crate::bisim_preorder`]) and the
//! simulation game ([`crate::simulates`]) all do it through
//! [`WeakWalk`].
//!
//! The walk reads only what deciding needs: whether an edge is τ, the
//! [`crate::ObsEvent`] a visible edge carries (through the [`Lts`]'s
//! observation table), its target and its merge iso.  It never reads a
//! step description or a state's payload, so it runs alike on an
//! exploration that kept them and on one run only to be decided.
//!
//! When exploration merged states through non-identity isomorphisms (see
//! [`crate::iso`]), the events stored on edges are in the
//! *representative*'s coordinates.  The walk therefore carries, per
//! reached state, the composed iso mapping the state's local coordinates
//! back to the true coordinates of the run that reached it: a *member*
//! is the pair `(state, iso id)`, and events are handed out in true
//! coordinates.  An unreduced exploration is exact too when it tracked
//! isomorphisms; an *untracked* one records none, so a walk across a
//! merge may join two runs' nonce lineages (one nonce, two creators).
//!
//! Canonicalization stays with the callers — the trace engine names
//! fresh values with a [`crate::TraceRenamer`], the bisimulation engine
//! with [`crate::EnvKnowledge`] hedges — so the two engines remain two
//! independent renderings of the same walk.

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::iso::IsoTable;
use crate::{Lts, ObsEvent, ResourceKind};

/// A walk position: a state and the id of the composed iso mapping its
/// local coordinates to the true run.
pub(crate) type Member = (usize, u32);

/// The iso-aware weak-transition walker over one [`Lts`].
pub(crate) struct WeakWalk<'l> {
    lts: &'l Lts,
    table: IsoTable,
    /// Per-state [`WeakWalk::closure0`], computed on first use.
    memo: Vec<Option<Box<[Member]>>>,
}

impl<'l> WeakWalk<'l> {
    pub(crate) fn new(lts: &'l Lts) -> WeakWalk<'l> {
        WeakWalk {
            lts,
            table: IsoTable::from_isos(lts.isos.clone()),
            memo: vec![None; lts.states.len()],
        }
    }

    /// The system being walked.
    pub(crate) fn lts(&self) -> &'l Lts {
        self.lts
    }

    /// The member edge `edge` of `(s, g)` leads to.  The edge iso maps the
    /// target's coordinates into `s`'s; `g` maps those into true ones.
    pub(crate) fn target(&mut self, (s, g): Member, edge: usize) -> Member {
        let h = self.lts.edge_isos.get(&(s, edge)).copied().unwrap_or(0);
        (
            self.lts.states[s].edges[edge].target(),
            self.table.compose_ids(h, g),
        )
    }

    /// An event stored on an edge of a member with iso `g`, in true
    /// coordinates.
    pub(crate) fn event(&self, g: u32, ev: &'l ObsEvent) -> Cow<'l, ObsEvent> {
        if g == 0 {
            Cow::Borrowed(ev)
        } else {
            Cow::Owned(self.table.get(g).apply_event(ev))
        }
    }

    /// Every member reachable from `(s, g)` by silent steps, itself
    /// included (sorted when `g` is the identity).
    pub(crate) fn closure(&mut self, (s, g): Member) -> Vec<Member> {
        if self.memo[s].is_none() {
            self.memo[s] = Some(self.closure0(s));
        }
        let base = self.memo[s].as_deref().expect("memoized above");
        if g == 0 {
            return base.to_vec();
        }
        base.iter()
            .map(|&(t, k)| (t, self.table.compose_ids(k, g)))
            .collect()
    }

    /// The τ-closure of `s` from the identity: members `(t, k)` where `k`
    /// maps `t`'s coordinates into `s`'s.  Shifting a whole closure by an
    /// outer iso is a composition, so one closure per state serves every
    /// visit.
    fn closure0(&mut self, s: usize) -> Box<[Member]> {
        let lts = self.lts;
        let mut seen = BTreeSet::from([(s, 0)]);
        let mut work = vec![(s, 0)];
        while let Some(m) = work.pop() {
            for (e, edge) in lts.states[m.0].edges.iter().enumerate() {
                if edge.is_tau() {
                    let next = self.target(m, e);
                    if seen.insert(next) {
                        work.push(next);
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// The visible steps of a member: for every visible edge, `step`
    /// receives the event in true coordinates and the τ-closure of the
    /// member the edge leads to.
    pub(crate) fn visible_steps(
        &mut self,
        m: Member,
        mut step: impl FnMut(Cow<'l, ObsEvent>, Vec<Member>),
    ) {
        let lts = self.lts;
        for (e, &edge) in lts.states[m.0].edges.iter().enumerate() {
            if let Some(ev) = lts.event(edge) {
                let next = self.target(m, e);
                step(self.event(m.1, ev), self.closure(next));
            }
        }
    }
}

/// The truncation soundness rule every preorder check applies to its raw
/// bounded answer, given whether that answer was "holds":
///
/// * a **holds** is sound only when the *implementation* side is
///   complete — a truncated specification only makes the check harder,
///   but unexplored implementation behaviour could still escape;
/// * a **fails** is sound only when the *specification* side is complete
///   — unexplored specification behaviour could still match.
///
/// Returns the exhausted resource of the side that blocks the decision,
/// or `None` when the raw answer stands.
pub(crate) fn truncation_blame(
    raw_holds: bool,
    implementation: &Lts,
    specification: &Lts,
) -> Option<ResourceKind> {
    let needed = if raw_holds {
        implementation
    } else {
        specification
    };
    // A truncated LTS always has `exhausted` set; the fallback keeps this
    // total anyway.
    (!needed.complete()).then(|| needed.exhausted.unwrap_or(ResourceKind::Fuel))
}
