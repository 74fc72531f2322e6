//! Bounded state-space exploration with the most-general intruder, a
//! resource governor, and an optional faulty network.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spi_addr::Path;
use spi_semantics::{
    symmetry::{self, Fallback},
    Barb, CanonHasher, Canonicalizer, Config, FaultKind, FaultSpec, LeafState, Lens, NameTable,
    NetworkState, PathPerm, RtChanIndex, RtProcess, RtTerm, StepInfo, Verbatim,
};
use spi_syntax::{Name, Process};

use crate::environment::{self, IntruderSpec};
use crate::iso::{Iso, IsoTable};
use crate::pipeline::Pipeline;
use crate::{
    Budget, CoverageStats, DeriveCache, Governor, Knowledge, ObsEvent, ObsTerm, ResourceKind,
    VerifyError,
};

/// Which state-space reductions to apply.  Both are sound for the
/// verdicts this toolkit computes — weak traces, weak barbs, deadlock
/// reachability — and both compose; the conformance suite's `reduce`
/// oracle checks reduced-vs-unreduced equality differentially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceOptions {
    /// Session-symmetry quotient: canonicalize state keys over
    /// permutations of interchangeable replication copies, so the
    /// factorially many session interleavings collapse to one
    /// representative per orbit.  Merges record the witnessing
    /// isomorphism, and trace extraction maps observations back through
    /// it — the reported trace set is exactly the unquotiented one.
    pub symmetry: bool,
    /// Ample-set partial-order reduction: when a state offers an
    /// always-commuting invisible move (a replication unfolding, or a
    /// communication over a restricted channel nothing else references),
    /// expand only that move and prune the sibling interleavings.
    pub por: bool,
}

impl ReduceOptions {
    /// No reduction (the historical behaviour).
    #[must_use]
    pub fn none() -> ReduceOptions {
        ReduceOptions::default()
    }

    /// Both reductions.
    #[must_use]
    pub fn full() -> ReduceOptions {
        ReduceOptions {
            symmetry: true,
            por: true,
        }
    }

    /// Returns `true` when any reduction is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.symmetry || self.por
    }

    /// The canonical mode name: `none`, `symmetry`, `por`, or `full`.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        match (self.symmetry, self.por) {
            (false, false) => "none",
            (true, false) => "symmetry",
            (false, true) => "por",
            (true, true) => "full",
        }
    }

    /// Parses a mode name as produced by [`ReduceOptions::mode`].
    #[must_use]
    pub fn parse(s: &str) -> Option<ReduceOptions> {
        match s {
            "none" => Some(ReduceOptions::none()),
            "symmetry" => Some(ReduceOptions {
                symmetry: true,
                por: false,
            }),
            "por" => Some(ReduceOptions {
                symmetry: false,
                por: true,
            }),
            "full" => Some(ReduceOptions::full()),
            _ => None,
        }
    }
}

/// Bounds and switches for exploration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// The resource budget.  Exhaustion is not an error: exploration
    /// stops, the prefix built so far is returned, and the frontier plus
    /// the exhausted resource are reported on the [`Lts`].
    pub budget: Budget,
    /// How many copies each replication may spawn.
    pub unfold_bound: u32,
    /// The intruder, if any.
    pub intruder: Option<IntruderSpec>,
    /// The faulty-network model, if any.
    pub faults: Option<FaultSpec>,
    /// Worker threads for frontier expansion, the calling thread
    /// included.  `1` recovers the sequential engine exactly and spawns
    /// no thread; any value produces a bit-for-bit identical [`Lts`]
    /// (state numbering, edges, governor accounting), because each
    /// state's expansion — its successors *and* their canonical keys,
    /// symmetry search included — is computed speculatively on the pool,
    /// and only the key lookups and interning run, on the calling
    /// thread, in the sequential visit order.  `0` is normalized to `1`.
    pub workers: usize,
    /// Differential key verification: intern states by their full
    /// canonical strings *alongside* the 128-bit hashes and panic on any
    /// disagreement (which would mean a hash collision or a
    /// canonicalization bug).  Debugging aid; off by default.
    pub verify_keys: bool,
    /// Which state-space reductions to apply.  Off by default; enabling
    /// any reduction forces isomorphism tracking (see
    /// [`ExploreOptions::track_isos`]) so extracted traces stay exact.
    pub reduce: ReduceOptions,
    /// Record the witnessing isomorphism of every state merge and ship
    /// the table on the [`Lts`], so trace extraction can reconstruct the
    /// exact raw trace set instead of mixing merged lineages.  Implied by
    /// any [`ReduceOptions`] reduction; useful on its own to make two
    /// explorations' trace sets exactly comparable.
    pub track_isos: bool,
    /// A wall-clock cut-off.  When the clock passes it, the exploration
    /// stops between state expansions (in-flight workers drain
    /// cooperatively), the prefix built so far is kept, and the
    /// exhaustion is reported as [`ResourceKind::WallClock`] — so the
    /// downstream verdict is *inconclusive*, never silently partial.
    /// Unlike every other budget dimension this one is non-deterministic
    /// by nature; leave it `None` (the default) for reproducible runs.
    pub deadline: Option<Instant>,
    /// A cooperative cancellation flag shared with the caller: setting
    /// it stops the exploration at the next state boundary, exactly like
    /// a passed deadline (and with the same [`ResourceKind::WallClock`]
    /// report).  Campaign drivers use one flag across many explorations
    /// to cancel a whole sweep at once.
    pub cancel: Option<Arc<AtomicBool>>,
    /// A shared progress counter the explorer bumps once per consumed
    /// (fully expanded) state, with relaxed ordering.  Long-running
    /// services stream it as a liveness heartbeat while a job runs;
    /// `None` (the default) costs nothing and never affects results.
    pub progress: Option<Arc<AtomicU64>>,
    /// Test-only crash hook: successor computations for states with an
    /// index at or past the value panic.  Exercises the worker
    /// `catch_unwind` isolation without planting bugs in the semantics.
    #[doc(hidden)]
    pub panic_after_states: Option<usize>,
}

impl ExploreOptions {
    /// The defaults (200 000 states, unfold bound 2, no
    /// intruder, no faults) — identical to `Default` except written out
    /// for discoverability.
    #[must_use]
    pub fn bounded() -> ExploreOptions {
        ExploreOptions::default()
    }

    /// The number of worker threads the host offers: what
    /// [`ExploreOptions::default`] uses for `workers`.
    #[must_use]
    pub fn available_workers() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

impl Default for ExploreOptions {
    /// The defaults: the default [`Budget`] (200 000 states,
    /// everything else unlimited), unfold bound 2 (the paper's
    /// two-session analyses), no intruder, no faults, all available
    /// worker threads (the result is identical for every worker count).
    fn default() -> ExploreOptions {
        ExploreOptions {
            budget: Budget::default(),
            unfold_bound: 2,
            intruder: None,
            faults: None,
            workers: ExploreOptions::available_workers(),
            verify_keys: false,
            reduce: ReduceOptions::none(),
            track_isos: false,
            deadline: None,
            cancel: None,
            progress: None,
            panic_after_states: None,
        }
    }
}

/// How many consecutive states of the BFS queue one window holds: the
/// unit of work a pool worker claims, and the granularity at which a
/// window's payloads return to the store.
const WINDOW: usize = 32;

/// How many windows the merge keeps submitted to the pool ahead of the
/// one it merges, per worker.  Bounds the speculative successors held
/// for the merge: expanding whole layers at once held them all (most are
/// duplicates) and slowed canonicalization by about 40% on the largest
/// instances.
const WINDOWS_AHEAD_PER_WORKER: usize = 2;

/// The wall-clock cut-off shared between the merge loop and the workers:
/// a cancellation flag plus an optional deadline.
struct WallClock<'f> {
    cancel: &'f AtomicBool,
    deadline: Option<Instant>,
    /// Latched once the deadline passes, so every worker sees the
    /// overrun without re-reading the clock.  The caller's `cancel`
    /// flag is never written: a server shares it across every run, and
    /// one run's deadline must not cancel the others.
    expired: AtomicBool,
}

impl WallClock<'_> {
    /// Returns `true` once the exploration should stop — because the
    /// caller cancelled or the deadline passed.
    fn overrun(&self) -> bool {
        if self.cancel.load(Ordering::Relaxed) || self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// What a silent edge did — kept for narration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepDesc {
    /// An internal machine step (communication or unfolding).
    Internal(StepInfo),
    /// The intruder intercepted an output.
    Intercept {
        /// The sender's position.
        from: Path,
        /// The channel subject.
        subject: RtTerm,
        /// The intercepted message.
        payload: RtTerm,
    },
    /// The intruder injected a message into an input.
    Inject {
        /// The receiver's position.
        to: Path,
        /// The channel subject.
        subject: RtTerm,
        /// The injected message.
        payload: RtTerm,
    },
    /// A continuation output was consumed by the (notional) tester.
    Observe {
        /// The sender's position.
        from: Path,
        /// The free channel.
        chan: Name,
        /// The observed message.
        payload: RtTerm,
    },
    /// The faulty network acted on a message in transit.
    Fault {
        /// What the network did.
        kind: FaultKind,
        /// The channel's base spelling.
        chan: Name,
        /// The affected message.
        payload: RtTerm,
    },
}

impl StepDesc {
    /// Renders the step for diagnostics, using `names` for display.
    #[must_use]
    pub fn display(&self, names: &NameTable) -> String {
        match self {
            StepDesc::Internal(StepInfo::Comm(ci)) => format!(
                "comm {} → {} : {} on {}",
                ci.sender.to_bits(),
                ci.receiver.to_bits(),
                ci.payload.display(names),
                ci.subject.display(names)
            ),
            StepDesc::Internal(StepInfo::Unfold { path }) => {
                format!("unfold at {}", path.to_bits())
            }
            StepDesc::Intercept {
                from,
                subject,
                payload,
            } => format!(
                "intercept {} : {} on {}",
                from.to_bits(),
                payload.display(names),
                subject.display(names)
            ),
            StepDesc::Inject {
                to,
                subject,
                payload,
            } => format!(
                "inject → {} : {} on {}",
                to.to_bits(),
                payload.display(names),
                subject.display(names)
            ),
            StepDesc::Observe {
                from,
                chan,
                payload,
            } => format!(
                "observe {} : {} on {}",
                from.to_bits(),
                payload.display(names),
                chan
            ),
            StepDesc::Fault {
                kind,
                chan,
                payload,
            } => format!("fault {kind} on {chan} : {}", payload.display(names)),
        }
    }
}

/// A successor move's label as successor generation produces it: silent
/// or visible, with its step description.  The merge splits it into an
/// [`Edge`] and, when payloads are kept, the description.  Only
/// payload-keeping runs describe environment and observation steps; an
/// internal step always carries its [`StepInfo`], which the partial-order
/// reduction reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Label {
    /// A silent step (internal, an intruder move, or a network fault —
    /// the paper's testing scenario makes environment activity
    /// unobservable).
    Tau(Option<StepDesc>),
    /// A visible observation by the tester.
    Obs(ObsEvent, Option<StepDesc>),
}

/// One edge of an [`Lts`]: whether the tester sees it, and which
/// observation it carries, plus the state it leads to.  Eight bytes:
/// the observation is an index into [`Lts::observations`] (or the τ
/// sentinel), the target a state index.  What the step did — the
/// [`StepDesc`] — lives in a side table only payload-keeping
/// explorations fill ([`Lts::descs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    obs: u32,
    target: u32,
}

impl Edge {
    /// The `obs` of a silent edge.
    const TAU: u32 = u32::MAX;

    /// The state this edge leads to.
    #[must_use]
    pub fn target(self) -> usize {
        self.target as usize
    }

    /// Whether the edge is silent (τ).
    #[must_use]
    pub fn is_tau(self) -> bool {
        self.obs == Edge::TAU
    }

    /// The index of the edge's observation in [`Lts::observations`], for
    /// visible edges.
    #[must_use]
    pub fn obs(self) -> Option<usize> {
        (!self.is_tau()).then_some(self.obs as usize)
    }
}

/// A state or observation index as an [`Edge`] stores it.  An
/// exploration that outgrows 32-bit ids fails with a structured error
/// rather than wrapping around.
fn edge_id(i: usize) -> Result<u32, VerifyError> {
    u32::try_from(i)
        .ok()
        .filter(|&id| id != Edge::TAU)
        .ok_or(VerifyError::StateBudgetExceeded {
            max_states: Edge::TAU as usize,
        })
}

/// One explored state.
#[derive(Debug, Clone)]
pub struct LtsState {
    /// Canonical identity: the 128-bit FNV-1a digest of the canonical
    /// serialization stream (configuration, sorted knowledge, fresh-name
    /// count, network state).
    pub key: u128,
    /// The barbs exhibited here, sorted and distinct.
    pub barbs: Box<[Barb]>,
    /// Outgoing edges.
    pub edges: Vec<Edge>,
}

/// Renders barbs as `{:?}` renders a `BTreeSet` of them: the form
/// [`Lts::fingerprint`] has always hashed.
struct BarbSet<'b>(&'b [Barb]);

impl std::fmt::Debug for BarbSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.0).finish()
    }
}

/// What only a payload-keeping exploration ([`Explorer::explore`])
/// records: each edge's step description and each state's configuration
/// and intruder knowledge, both parallel to [`Lts::states`].  Deciding a
/// preorder reads none of it.
#[derive(Debug, Clone)]
struct Kept {
    descs: Vec<Vec<StepDesc>>,
    payloads: Vec<(Config, Knowledge)>,
}

/// Exploration statistics, reported with every verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of distinct states.
    pub states: usize,
    /// Number of edges.
    pub edges: usize,
    /// How many state merges the session-symmetry quotient produced that
    /// a plain canonical key would have missed (the edge's isomorphism
    /// permutes copy positions).  Zero when the quotient is off.
    pub states_quotiented: u64,
    /// How many successor moves the partial-order reduction pruned.
    /// Zero when POR is off.
    pub por_pruned: u64,
    /// How many states went through the session-symmetry search (the
    /// state was symmetry-eligible and had at least one session group).
    pub sym_canonicalizations: u64,
    /// How many copy arrangements that search scored, summed over those
    /// canonicalizations.
    pub sym_candidates: u64,
    /// How many of those canonicalizations overflowed the candidate cap
    /// and kept the state's raw key.
    pub sym_overflows: u64,
}

/// The labelled transition system produced by an [`Explorer`].
///
/// The system may be a *prefix* of the bounded state space: when the
/// [`Budget`] ran out, [`Lts::exhausted`] names the resource that did and
/// [`Lts::frontier`] lists the states that were reached but not fully
/// expanded.  A complete exploration has an empty frontier.
///
/// Edges are compact ([`Edge`]): an observation id and a target.  The
/// distinct observations sit in one table ([`Lts::observations`]).  What
/// narration, `--dot`, secrecy and diagnostics read besides — each
/// edge's [`StepDesc`] and each state's configuration and knowledge — is
/// kept only by [`Explorer::explore`]; an exploration run only to be
/// decided carries none of it.
#[derive(Debug, Clone)]
pub struct Lts {
    /// All states; index 0 is the initial one.
    pub states: Vec<LtsState>,
    /// Statistics.
    pub stats: ExploreStats,
    /// What the exploration covered.
    pub coverage: CoverageStats,
    /// The first resource that ran out, when the exploration is partial.
    pub exhausted: Option<ResourceKind>,
    /// States reached but not fully expanded (empty when complete).
    pub frontier: Vec<usize>,
    /// The interned state isomorphisms (index 0 is the identity).  Empty
    /// unless isomorphism tracking ran and some merge needed a
    /// non-identity witness.
    pub isos: Vec<Iso>,
    /// For every edge whose target was merged into a representative under
    /// a non-identity isomorphism: `(source state, edge position) → iso
    /// id` into [`Lts::isos`], mapping the representative's coordinates
    /// back to the coordinates the edge actually produced.  Edges absent
    /// here carry the identity.
    pub edge_isos: BTreeMap<(usize, usize), u32>,
    /// The distinct observations, numbered in the order the exploration
    /// first recorded them (so identically at every worker count).
    observations: Vec<ObsEvent>,
    /// The side tables, present iff payloads were kept.
    kept: Option<Kept>,
}

impl Lts {
    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> &LtsState {
        &self.states[0]
    }

    /// Returns `true` when the bounded state space was fully explored —
    /// the precondition for negative claims (absence of a behaviour) to
    /// be sound.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.exhausted.is_none() && self.frontier.is_empty()
    }

    /// The distinct observations on visible edges; [`Edge::obs`] indexes
    /// this table.
    #[must_use]
    pub fn observations(&self) -> &[ObsEvent] {
        &self.observations
    }

    /// The observation an edge carries, or `None` for a silent edge.
    #[must_use]
    pub fn event(&self, edge: Edge) -> Option<&ObsEvent> {
        edge.obs().map(|i| &self.observations[i])
    }

    /// What each outgoing edge of `state` did, parallel to its
    /// [`LtsState::edges`] (for narration and diagnostics).
    ///
    /// # Panics
    ///
    /// On an exploration that kept no payloads (a campaign's
    /// classification runs); no public entry point returns one.
    #[must_use]
    pub fn descs(&self, state: usize) -> &[StepDesc] {
        &self.kept().descs[state]
    }

    /// The configuration of `state` (for narration and diagnostics).
    ///
    /// # Panics
    ///
    /// As [`Lts::descs`].
    #[must_use]
    pub fn config(&self, state: usize) -> &Config {
        &self.kept().payloads[state].0
    }

    /// The intruder knowledge at `state`.
    ///
    /// # Panics
    ///
    /// As [`Lts::descs`].
    #[must_use]
    pub fn knowledge(&self, state: usize) -> &Knowledge {
        &self.kept().payloads[state].1
    }

    /// Whether the exploration kept step descriptions and payloads.
    #[cfg(test)]
    pub(crate) fn keeps_payloads(&self) -> bool {
        self.kept.is_some()
    }

    /// Everything deciding a preorder reads: counts, exhaustion, each
    /// state's key, barbs and edges (observation id, event and target,
    /// in order), the frontier and the merge isomorphisms.  A
    /// decision-only exploration must equal a payload-keeping one here.
    #[cfg(test)]
    pub(crate) fn decision_view(&self) -> impl Eq + std::fmt::Debug + '_ {
        let states: Vec<_> = self
            .states
            .iter()
            .map(|s| {
                let edges: Vec<_> = s.edges.iter().map(|&e| (e, self.event(e))).collect();
                (s.key, &s.barbs, edges)
            })
            .collect();
        (
            (self.stats.states, self.stats.edges, self.exhausted),
            states,
            &self.frontier,
            &self.isos,
            &self.edge_isos,
        )
    }

    fn kept(&self) -> &Kept {
        self.kept
            .as_ref()
            .expect("step descriptions and payloads released by a decision-only exploration")
    }

    /// A structural digest of the whole transition system: state count,
    /// edge count, exhaustion, every state's canonical key, barbs, and
    /// outgoing edges (labels included), and the frontier.  Two
    /// explorations of the same process under equivalent options produce
    /// equal fingerprints *iff* they produced bit-for-bit identical
    /// systems — the workers-determinism guarantee conformance oracles
    /// check differentially, without holding two full LTSes side by side.
    ///
    /// An edge's label renders as its observation plus its step
    /// description, so the digest reads the side tables.
    ///
    /// # Panics
    ///
    /// As [`Lts::descs`].
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        use std::fmt::Write as _;
        let mut h = CanonHasher::new();
        let _ = write!(
            h,
            "{}|{}|{:?}|",
            self.stats.states, self.stats.edges, self.exhausted
        );
        for (i, s) in self.states.iter().enumerate() {
            let _ = write!(h, "s{:x};{:?};", s.key, BarbSet(&s.barbs));
            for (&edge, d) in s.edges.iter().zip(self.descs(i)) {
                let tgt = edge.target();
                let _ = match self.event(edge) {
                    None => write!(h, "e{tgt}:Tau({d:?});"),
                    Some(ev) => write!(h, "e{tgt}:Obs({ev:?}, {d:?});"),
                };
            }
        }
        for f in &self.frontier {
            let _ = write!(h, "f{f};");
        }
        // The iso section appears only when some merge recorded a
        // non-identity witness, so untracked explorations keep their
        // historical fingerprints bit-for-bit.
        if !self.edge_isos.is_empty() {
            let _ = write!(h, "I");
            for ((s, e), id) in &self.edge_isos {
                let _ = write!(h, "i{s}.{e}:{id};");
            }
            for iso in &self.isos {
                let _ = write!(h, "{iso:?};");
            }
        }
        h.finish()
    }

    /// The indices of *stuck* states: no outgoing edge, yet some live
    /// component remains (an I/O prefix waiting forever, or a replication
    /// at its unfold bound).  Fully exhausted terminal states are not
    /// reported — graceful termination is not a deadlock.  Frontier
    /// states are not reported either: they were cut off by the budget,
    /// not by the semantics.
    ///
    /// # Panics
    ///
    /// As [`Lts::descs`]: telling a deadlock from termination reads the
    /// configuration.
    #[must_use]
    pub fn deadlocks(&self) -> Vec<usize> {
        // `frontier` is sorted (see `explore`), so membership is a
        // binary search, not a linear scan per state.
        self.states
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.edges.is_empty()
                    && !self.config(*i).is_exhausted()
                    && self.frontier.binary_search(i).is_err()
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The barbs weakly reachable from the initial state:
    /// `P ⇓ β` for every reported barb.
    #[must_use]
    pub fn weak_barbs(&self) -> BTreeSet<Barb> {
        let mut out = BTreeSet::new();
        let mut seen = vec![false; self.states.len()];
        let mut work = vec![0usize];
        seen[0] = true;
        while let Some(s) = work.pop() {
            out.extend(self.states[s].barbs.iter().cloned());
            for edge in &self.states[s].edges {
                let tgt = edge.target();
                if !seen[tgt] {
                    seen[tgt] = true;
                    work.push(tgt);
                }
            }
        }
        out
    }
}

/// Explores the bounded state space of a closed process, optionally under
/// attack by the most-general intruder and/or a faulty network.
///
/// # Example
///
/// ```
/// use spi_verify::{Explorer, ExploreOptions};
/// use spi_syntax::parse;
///
/// let p = parse("(^m)(c<m> | c(x).observe<x>)")?;
/// let lts = Explorer::new(ExploreOptions::default()).explore(&p)?;
/// assert!(lts.complete());
/// assert!(lts.stats.states >= 2);
/// assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    opts: ExploreOptions,
}

/// One state as exploration holds it: the configuration plus what the
/// environments hold outside the process tree.
#[derive(Debug, Clone)]
pub(crate) struct StateData {
    pub(crate) cfg: Config,
    pub(crate) knowledge: Knowledge,
    /// How many fresh names the intruder has invented.
    pub(crate) fresh_made: u32,
    pub(crate) net: Option<NetworkState>,
}

impl StateData {
    /// Streams the canonical state serialization into `out`:
    /// configuration, intruder knowledge, fresh-name count, network
    /// state, all through one shared canonicalizer.
    ///
    /// Knowledge terms are serialized in the order of their *canonical*
    /// renderings, not the raw [`NameId`]-based set order: the raw order
    /// depends on allocation history, so two states holding the same
    /// knowledge learnt along different interleavings would otherwise
    /// feed the canonicalizer in different orders and intern as distinct
    /// states.  Each term's sort key is a [`Canonicalizer::probe_term`]
    /// rendering against the post-configuration numbering (ties between
    /// equal renderings are symmetric, so either order yields the same
    /// stream).  The keys are rendered into one buffer and compared as
    /// slices of it, so string order — and every key byte — is what it
    /// was with one `String` per term.
    fn write_key<S: std::fmt::Write>(&self, out: &mut S) {
        let mut canon = Canonicalizer::with_capacity(self.cfg.names().len());
        self.write_key_with(&mut canon, &mut Verbatim, out);
    }

    /// [`StateData::write_key`] through a caller-supplied canonicalizer,
    /// whose journal afterwards maps canonical name slots back to raw
    /// [`spi_semantics::NameId`]s — the id half of a merge isomorphism —
    /// and a lens: through a [`PathPerm`], the key of the state that
    /// permutation leads to, without building it.
    fn write_key_with<L: Lens, S: std::fmt::Write>(
        &self,
        canon: &mut Canonicalizer,
        lens: &mut L,
        out: &mut S,
    ) {
        let names = self.cfg.names();
        self.cfg.write_canonical_with(canon, lens, out);
        let _ = out.write_char('|');
        // Every order key goes into one buffer; the sort compares slices.
        let mut keys = String::with_capacity(32 * self.knowledge.len());
        let mut fragments: Vec<(std::ops::Range<usize>, &RtTerm)> = self
            .knowledge
            .iter()
            .map(|t| {
                let start = keys.len();
                canon.probe_term(t, names, lens, &mut keys);
                (start..keys.len(), t)
            })
            .collect();
        fragments.sort_unstable_by(|(a, _), (b, _)| keys[a.clone()].cmp(&keys[b.clone()]));
        for (_, t) in fragments {
            canon.write_term(t, names, lens, out);
            let _ = out.write_char(',');
        }
        let _ = out.write_char('|');
        let _ = write!(out, "{}", self.fresh_made);
        if let Some(net) = &self.net {
            let _ = out.write_char('|');
            net.write_canonical(canon, names, lens, out);
        }
    }

    /// The key written through `lens` — through a [`PathPerm`], the key
    /// of the state it leads to — with its canonicalizer, whose journal
    /// maps canonical slots back to raw name ids.
    fn key_through<L: Lens>(&self, lens: &mut L) -> (u128, Canonicalizer) {
        let mut canon = Canonicalizer::with_capacity(self.cfg.names().len());
        let mut h = CanonHasher::new();
        self.write_key_with(&mut canon, lens, &mut h);
        (h.finish(), canon)
    }

    /// The key plus the canonicalizer journal (canonical slot → raw name
    /// id), captured in one serialization pass.
    fn key_and_journal(&self) -> (u128, Vec<u32>) {
        let (key, canon) = self.key_through(&mut Verbatim);
        (key, journal(&canon))
    }

    /// The terms this state holds outside the process tree, each tagged
    /// with where it sits: the intruder knowledge (a set, so one tag),
    /// and the network buffer and log (sequences, so tagged by position
    /// and channel).
    fn held(&self) -> Vec<(u128, &RtTerm)> {
        use std::fmt::Write as _;
        /// The intruder knowledge's place tag.
        const KNOWN: u128 = b'K' as u128;
        let mut held: Vec<(u128, &RtTerm)> = self.knowledge.iter().map(|t| (KNOWN, t)).collect();
        if let Some(net) = &self.net {
            for (kind, entries) in [(b'B', &net.buffer), (b'L', &net.log)] {
                for (i, (chan, t)) in entries.iter().enumerate() {
                    let mut place = CanonHasher::new();
                    place.write_u128(u128::from(kind));
                    place.write_u128(i as u128);
                    let _ = place.write_str(chan.as_str());
                    held.push((place.finish(), t));
                }
            }
        }
        held
    }

    /// This state with a copy permutation physically applied everywhere:
    /// the configuration (subtrees moved, creators rewritten), the
    /// intruder knowledge, and the network buffer and log.  `fresh_made`
    /// is position-independent and carries over.
    fn permuted(&self, perm: &PathPerm) -> StateData {
        if perm.is_identity() {
            return self.clone();
        }
        let mut net = self.net.clone();
        if let Some(nn) = &mut net {
            for (_, t) in &mut nn.buffer {
                *t = symmetry::rewrite_term(t, perm);
            }
            for (_, t) in &mut nn.log {
                *t = symmetry::rewrite_term(t, perm);
            }
        }
        StateData {
            cfg: symmetry::apply_perm(&self.cfg, perm),
            knowledge: self.knowledge.map_terms(|t| symmetry::rewrite_term(t, perm)),
            fresh_made: self.fresh_made,
            net,
        }
    }

    /// The 128-bit canonical key: the serialization stream folded through
    /// a [`CanonHasher`], no heap allocation for the key itself.
    fn key(&self) -> u128 {
        let mut h = CanonHasher::new();
        self.write_key(&mut h);
        h.finish()
    }

    /// The full canonical string — the debug/verification path behind
    /// [`ExploreOptions::verify_keys`].
    fn key_string(&self) -> String {
        let mut out = String::new();
        self.write_key(&mut out);
        out
    }
}

/// A canonicalizer's journal as raw name indices.
fn journal(canon: &Canonicalizer) -> Vec<u32> {
    canon
        .journal()
        .iter()
        .map(|id| u32::try_from(id.index()).unwrap_or(u32::MAX))
        .collect()
}

/// The symmetry quotient key: the minimum key over the copy arrangements
/// [`symmetry::candidates`] leaves after colour refinement, each scored
/// by serializing the unpermuted state through the arrangement's path
/// map.  Returns the winning candidate's journal, the candidate itself
/// and how many candidates were scored — or why the state keeps its raw
/// key (always sound): it is not symmetry-eligible, or the candidates
/// overflow [`symmetry::MAX_CANDIDATES`].
fn signature_min(
    sd: &StateData,
    groups: &[symmetry::SessionGroup],
) -> Result<(u128, Vec<u32>, PathPerm, u64), Fallback> {
    let perms = symmetry::candidates(&sd.cfg, groups, &sd.held(), symmetry::MAX_CANDIDATES)?;
    let scored = perms.len() as u64;
    let mut best: Option<(u128, Vec<u32>, PathPerm)> = None;
    for perm in perms {
        let (key, canon) = sd.key_through(&mut &perm);
        if best.as_ref().is_none_or(|(k, _, _)| key < *k) {
            best = Some((key, journal(&canon), perm));
        }
    }
    best.map(|(key, journal, perm)| (key, journal, perm, scored))
        .ok_or(Fallback::Overflow)
}

/// How states are canonicalized and related: the reduction switches, the
/// positions no copy permutation may move, and the key audit.  Fixed for
/// a whole exploration, so every worker reads it while the merge alone
/// owns the [`StateStore`].
#[derive(Debug, Clone, Default)]
struct SymCtx {
    /// Record journals on every interned state and isomorphisms on every
    /// merge (forced on by any reduction).
    tracking: bool,
    /// Quotient keys by session-copy permutations.
    symmetry: bool,
    /// Positions that must not move: the intruder's and the fault
    /// model's seats.
    pinned: Vec<Path>,
    /// Render every key's full canonical string as well
    /// ([`ExploreOptions::verify_keys`]).
    strings: bool,
}

impl SymCtx {
    /// The canonical identity of `sd` under the configured reductions.
    /// A pure function of `sd` and the fixed switches, so the explorer's
    /// workers compute it while the merge interns.
    ///
    /// Without tracking this is the historical raw key.  With the
    /// symmetry quotient, colour refinement over the session copies
    /// leaves a few candidate arrangements (usually one), and the key is
    /// the least of their raw keys, each scored by serializing the
    /// unpermuted state through the arrangement's path map (see
    /// [`signature_min`]).  The candidates depend only on
    /// permutation-invariant features, so permuted states meet at one
    /// key; and each scored key is that of a real state of the orbit, so
    /// the quotient can never conflate two states a plain exploration
    /// would distinguish.
    fn canonical(&self, sd: &StateData) -> CanonOut {
        let want_string = self.strings;
        if !self.tracking {
            return CanonOut {
                key: sd.key(),
                string: want_string.then(|| sd.key_string()),
                annot: SymAnnot::default(),
                tally: SymTally::default(),
            };
        }
        let names_len = u32::try_from(sd.cfg.names().len()).unwrap_or(u32::MAX);
        let raw = || {
            let (key, journal) = sd.key_and_journal();
            CanonOut {
                key,
                string: want_string.then(|| sd.key_string()),
                annot: SymAnnot {
                    perm: PathPerm::identity(),
                    journal,
                    names_len,
                },
                tally: SymTally::default(),
            }
        };
        if !self.symmetry {
            return raw();
        }
        let groups = symmetry::session_groups(&sd.cfg, &self.pinned);
        if groups.is_empty() {
            return raw();
        }
        // A candidate-cap overflow keeps the raw key: sound, because
        // permuted siblings overflow identically and fall back alike.
        let (key, journal, perm, scored) = match signature_min(sd, &groups) {
            Ok(found) => found,
            Err(Fallback::Ineligible) => return raw(),
            Err(Fallback::Overflow) => {
                let mut out = raw();
                out.tally = SymTally {
                    canonicalizations: 1,
                    candidates: 0,
                    overflows: 1,
                };
                return out;
            }
        };
        // The string index must follow the *hash* winner: ties between
        // hash-distinct candidates with string-identical renderings
        // cannot happen (the hash is a function of the string), and
        // min-by-string could disagree with min-by-hash.
        let string = want_string.then(|| sd.permuted(&perm).key_string());
        CanonOut {
            key,
            string,
            annot: SymAnnot {
                perm,
                journal,
                names_len,
            },
            tally: SymTally {
                canonicalizations: 1,
                candidates: scored,
                overflows: 0,
            },
        }
    }
}

/// Everything the store remembers about how one state was canonicalized:
/// the winning copy permutation, the canonicalizer journal of the winning
/// serialization, and the name-table length — the raw material for merge
/// isomorphisms.
#[derive(Debug, Clone, Default)]
struct SymAnnot {
    perm: PathPerm,
    journal: Vec<u32>,
    names_len: u32,
}

/// One state's canonical identity as [`SymCtx::canonical`] computes it.
struct CanonOut {
    key: u128,
    /// The full canonical string, present iff `verify_keys`.
    string: Option<String>,
    annot: SymAnnot,
    /// What the symmetry search did for this state.
    tally: SymTally,
}

/// The symmetry search's work on one state, summed into
/// [`ExploreStats`] in the merge's sequential order.
#[derive(Debug, Clone, Copy, Default)]
struct SymTally {
    canonicalizations: u64,
    candidates: u64,
    overflows: u64,
}

impl SymTally {
    fn add_to(self, stats: &mut ExploreStats) {
        stats.sym_canonicalizations += self.canonicalizations;
        stats.sym_candidates += self.candidates;
        stats.sym_overflows += self.overflows;
    }
}

/// What an exploration keeps of each state's payload (configuration,
/// knowledge, network state) once the state has been expanded, and of
/// each edge's step description.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Payloads {
    /// Every payload and step description rides on the finished
    /// [`Lts`]: narration, secrecy, deadlock detection and `--dot` read
    /// them.
    #[default]
    Keep,
    /// Each payload is dropped once the merge loop has consumed its
    /// window, step descriptions are never built, and the finished
    /// [`Lts`] carries neither.  Deciding a preorder reads keys, barbs,
    /// edges, observations and isomorphisms alone, so an expanded state
    /// costs only its [`LtsState`].
    Release,
}

/// Consecutive states of the BFS queue with their payloads, moved out of
/// the store while the window is expanded and merged: the unit of work a
/// pool worker claims.
struct Window {
    states: Vec<usize>,
    payloads: Vec<StateData>,
}

/// The state store, owned by the merge alone: LTS states, the payloads
/// of states no window holds, the BFS queue, the observation table, and
/// the canonical-key index (hashed, with an optional parallel string
/// index for differential verification).
#[derive(Debug, Default)]
struct StateStore {
    /// The states as the finished [`Lts`] holds them.
    nodes: Vec<LtsState>,
    /// Payloads, parallel to `nodes`; `None` while a window holds the
    /// payload, and once it is released.
    data: Vec<Option<StateData>>,
    payloads: Payloads,
    /// Interned states not yet handed to a window, in BFS order.
    queue: VecDeque<usize>,
    /// Step descriptions, parallel to `nodes` and each to its edges;
    /// filled only when payloads are kept.
    descs: Vec<Vec<StepDesc>>,
    /// The observation table: each distinct event and its id, assigned
    /// in first-recorded order.
    observations: HashMap<ObsEvent, u32>,
    index: HashMap<u128, usize>,
    /// Present iff [`ExploreOptions::verify_keys`]: the same interning
    /// decisions re-derived from full canonical strings.
    strings: Option<HashMap<String, usize>>,
    /// Canonicalization annotations, parallel to `nodes` (empty
    /// annotations when not tracking).
    annots: Vec<SymAnnot>,
    isos: IsoTable,
    /// Whether merges record isomorphisms ([`SymCtx::tracking`]).
    tracking: bool,
}

impl StateStore {
    fn new(verify_keys: bool, tracking: bool, payloads: Payloads) -> StateStore {
        StateStore {
            strings: verify_keys.then(HashMap::new),
            payloads,
            isos: IsoTable::new(),
            tracking,
            ..StateStore::default()
        }
    }

    /// Stores `sd` as a brand-new state, queued for expansion, without
    /// consulting the governor — used directly for the initial state,
    /// which is always kept so a partial answer is never empty.
    fn push(&mut self, out: CanonOut, sd: StateData) -> usize {
        let i = self.nodes.len();
        self.nodes.push(LtsState {
            key: out.key,
            barbs: sd.cfg.barbs().into_iter().collect(),
            edges: Vec::new(),
        });
        if self.payloads == Payloads::Keep {
            self.descs.push(Vec::new());
        }
        if let Some(strings) = &mut self.strings {
            if let Some(s) = out.string {
                strings.insert(s, i);
            }
        }
        self.index.insert(out.key, i);
        self.data.push(Some(sd));
        self.annots.push(out.annot);
        self.queue.push_back(i);
        i
    }

    /// Interns `sd`, whose canonical identity is `out`, returning its
    /// index plus the id of the isomorphism mapping the stored
    /// representative's coordinates to `sd`'s (`0`, the identity, for new
    /// states and untracked stores), or `None` when the state budget is
    /// already spent (noted on the governor).  `sd` is absent only when
    /// the lookup is bound to hit (see [`Expander::expand_window`]).
    fn intern(
        &mut self,
        out: CanonOut,
        sd: Option<StateData>,
        gov: &mut Governor,
    ) -> Option<(usize, u32)> {
        let hit = self.index.get(&out.key).copied();
        if let Some(strings) = &self.strings {
            let string_hit = out
                .string
                .as_ref()
                .and_then(|s| strings.get(s))
                .copied();
            assert_eq!(
                hit,
                string_hit,
                "hashed interning diverged from string interning at key {:#034x}: \
                 a 128-bit collision or a canonicalization bug",
                out.key
            );
        }
        if let Some(i) = hit {
            let iso = if self.tracking {
                self.merge_iso(i, &out.annot)
            } else {
                0
            };
            return Some((i, iso));
        }
        if !gov.admit_state(self.nodes.len()) {
            return None;
        }
        let sd = sd.expect("a successor arrives without its payload only once interned");
        Some((self.push(out, sd), 0))
    }

    /// The next window: up to `size` states from the front of the queue,
    /// their payloads moved out of the store.  `None` once the queue is
    /// empty.
    fn window(&mut self, size: usize) -> Option<Window> {
        if self.queue.is_empty() {
            return None;
        }
        let take = size.min(self.queue.len());
        let states: Vec<usize> = self.queue.drain(..take).collect();
        let payloads = states
            .iter()
            .map(|&i| {
                self.data[i]
                    .take()
                    .expect("a queued state keeps its payload until its window")
            })
            .collect();
        Some(Window { states, payloads })
    }

    /// Takes a window's payloads back once nothing else will read them:
    /// into the store when payloads are kept, dropped when released.
    fn settle(&mut self, window: Window) {
        if self.payloads == Payloads::Keep {
            for (i, sd) in window.states.into_iter().zip(window.payloads) {
                self.data[i] = Some(sd);
            }
        }
    }

    /// Appends the edge `label` to `tgt` to state `cur`'s edges, interning
    /// its observation and, when payloads are kept, storing its step
    /// description.  Returns the edge's position.
    fn add_edge(&mut self, cur: usize, label: Label, tgt: usize) -> Result<usize, VerifyError> {
        let (obs, desc) = match label {
            Label::Tau(desc) => (Edge::TAU, desc),
            Label::Obs(ev, desc) => {
                let next = self.observations.len();
                let id = match self.observations.entry(ev) {
                    Entry::Occupied(known) => *known.get(),
                    Entry::Vacant(slot) => *slot.insert(edge_id(next)?),
                };
                (id, desc)
            }
        };
        let edges = &mut self.nodes[cur].edges;
        edges.push(Edge {
            obs,
            target: edge_id(tgt)?,
        });
        if self.payloads == Payloads::Keep {
            let desc = desc.expect("a payload-keeping exploration describes every step");
            self.descs[cur].push(desc);
        }
        Ok(edges.len() - 1)
    }

    /// The finished states, the observation table, the side tables when
    /// payloads are kept (each configuration and knowledge moved out of
    /// its payload), and the interned isomorphisms.
    fn finish(self) -> (Vec<LtsState>, Vec<ObsEvent>, Option<Kept>, Vec<Iso>) {
        let mut observations: Vec<(ObsEvent, u32)> = self.observations.into_iter().collect();
        observations.sort_unstable_by_key(|&(_, id)| id);
        let mut nodes = self.nodes;
        nodes.shrink_to_fit();
        let kept = (self.payloads == Payloads::Keep).then(|| Kept {
            descs: self.descs,
            payloads: self
                .data
                .into_iter()
                .map(|sd| {
                    let sd = sd.expect("a payload-keeping exploration releases nothing");
                    (sd.cfg, sd.knowledge)
                })
                .collect(),
        });
        (
            nodes,
            observations.into_iter().map(|(ev, _)| ev).collect(),
            kept,
            self.isos.into_isos(),
        )
    }

    /// The isomorphism from the representative state `rep`'s raw
    /// coordinates to the just-merged state's: compose the
    /// representative's canonicalizing permutation with the inverse of
    /// the newcomer's, and zip the two canonicalizer journals (equal
    /// canonical strings assign their name slots in the same order) with
    /// a shifted tail for names allocated after the merge point.
    fn merge_iso(&mut self, rep: usize, new: &SymAnnot) -> u32 {
        let old = &self.annots[rep];
        let perm = old.perm.then(&new.perm.invert());
        let ids = old
            .journal
            .iter()
            .zip(new.journal.iter())
            .filter(|(a, b)| a != b)
            .map(|(&a, &b)| (a, b))
            .collect();
        let shift = i64::from(new.names_len) - i64::from(old.names_len);
        self.isos
            .intern(Iso::new(perm, ids, old.names_len, shift))
    }
}

/// The expansions a window came back with, parallel to its states; a
/// `None` slot is expanded on demand if the merge reaches it.
type Computed = Vec<Option<Result<Expansion, VerifyError>>>;

/// The explorer's pool: windows in, their expansions out, in order.
type Pool = Pipeline<Arc<Window>, Computed>;

/// The merge thread's half of an exploration: the store, the governor,
/// and what the finished [`Lts`] reports besides its states.
struct Merge {
    store: StateStore,
    gov: Governor,
    stats: ExploreStats,
    edges: usize,
    edge_isos: BTreeMap<(usize, usize), u32>,
    /// Fully-expanded flags, parallel to the store's nodes.
    expanded: Vec<bool>,
}

impl Merge {
    /// Merges `window`'s states in the sequential visit order: checks the
    /// wall clock, replays the governor's charges, takes each state's
    /// expansion from `computed` (expanding on demand where the pool left
    /// none), interns the successors and records the edges — same
    /// numbering, same accounting, same cut-offs at every worker count.
    /// Returns `false` when a cut-off ends the exploration; every state
    /// not expanded by then is frontier.
    fn consume(
        &mut self,
        ex: &Expander<'_>,
        window: &Window,
        computed: Computed,
        cache: &mut DeriveCache,
    ) -> Result<bool, VerifyError> {
        let mut computed = computed.into_iter();
        for (&cur, sd) in window.states.iter().zip(&window.payloads) {
            let speculated = computed.next().flatten();
            if ex.clock.overrun() {
                self.gov.note(ResourceKind::WallClock);
                return Ok(false);
            }
            if !self.gov.charge_fuel() {
                return Ok(false);
            }
            if !self.gov.admit_knowledge(sd.knowledge.len()) {
                // Too much knowledge to expand: the state stays on the
                // frontier, but exploration of its siblings continues.
                // (Any speculative successors are discarded unused.)
                continue;
            }
            // An error surfaces only when the merge actually consumes
            // the state, exactly as in the sequential engine; errors in
            // speculative work past a cut-off are dropped with it.
            let succ = match speculated {
                Some(result) => result?,
                None => ex.expand(cur, sd, cache)?,
            };
            if !self.gov.charge_steps(succ.moves.len().max(1)) {
                return Ok(false);
            }
            // Pruning is accounted only when the state is actually
            // consumed, so the counter is worker-count independent.
            self.stats.por_pruned += succ.pruned;
            // One exact allocation: every move becomes an edge unless a
            // cut-off ends the exploration first.
            self.store.nodes[cur].edges.reserve_exact(succ.moves.len());
            if self.store.payloads == Payloads::Keep {
                self.store.descs[cur].reserve_exact(succ.moves.len());
            }
            for (label, next, out) in succ.moves {
                if !self.gov.admit_transition(self.edges) {
                    return Ok(false);
                }
                out.tally.add_to(&mut self.stats);
                let Some((tgt, iso)) = self.store.intern(out, next, &mut self.gov) else {
                    return Ok(false);
                };
                let edge_pos = self.store.add_edge(cur, label, tgt)?;
                self.edges += 1;
                if iso != 0 {
                    self.edge_isos.insert((cur, edge_pos), iso);
                    if self.store.isos.get(iso).permutes_paths() {
                        self.stats.states_quotiented += 1;
                    }
                }
            }
            if self.expanded.len() <= cur {
                self.expanded.resize(self.store.nodes.len(), false);
            }
            self.expanded[cur] = true;
            if let Some(p) = &ex.opts.progress {
                p.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(true)
    }

    /// The finished [`Lts`]: every state not fully expanded is frontier.
    fn finish(self) -> Lts {
        let Merge {
            store,
            gov,
            mut stats,
            edges,
            edge_isos,
            mut expanded,
        } = self;
        let (states, observations, kept, isos) = store.finish();
        expanded.resize(states.len(), false);
        // `frontier` comes out sorted, which `Lts::deadlocks` relies on.
        // A knowledge-capped state is never expanded, so it is frontier
        // too.
        let frontier: Vec<usize> = (0..states.len()).filter(|&i| !expanded[i]).collect();
        stats.states = states.len();
        stats.edges = edges;
        let coverage = CoverageStats {
            states: states.len(),
            transitions: edges,
            expanded: states.len() - frontier.len(),
            frontier: frontier.len(),
            steps: gov.steps_spent(),
        };
        Lts {
            states,
            stats,
            coverage,
            exhausted: gov.exhausted(),
            frontier,
            // An all-identity table with no recorded edges means nothing
            // to undo: ship empty so downstream fast paths stay exact.
            isos: if edge_isos.is_empty() { Vec::new() } else { isos },
            edge_isos,
            observations,
            kept,
        }
    }
}

impl Explorer {
    /// An explorer with the given options.
    #[must_use]
    pub fn new(opts: ExploreOptions) -> Explorer {
        Explorer { opts }
    }

    /// Explores the state space of `process`.
    ///
    /// Budget exhaustion is **not** an error: the explored prefix is
    /// returned with [`Lts::exhausted`] set and the unexpanded states in
    /// [`Lts::frontier`].
    ///
    /// # Errors
    ///
    /// Returns machine errors on malformed processes.
    pub fn explore(&self, process: &Process) -> Result<Lts, VerifyError> {
        self.run(process, Payloads::Keep)
    }

    /// [`Explorer::explore`] for a run that is only decided: each state's
    /// configuration, knowledge and network state are dropped once it is
    /// expanded and no step description is built, so the [`Lts`]
    /// carries keys, barbs, edges, observations and isomorphisms alone
    /// (its [`Lts::descs`], [`Lts::config`] and [`Lts::knowledge`]
    /// panic).  Same states, edges, observation ids, numbering and
    /// accounting as [`Explorer::explore`].
    pub(crate) fn explore_to_decide(&self, process: &Process) -> Result<Lts, VerifyError> {
        self.run(process, Payloads::Release)
    }

    /// Layered BFS in the sequential visit order (pop front, intern new
    /// states at the back), fed to the merge a window at a time.  With
    /// more than one worker, a pool that lives for the whole exploration
    /// expands windows ahead of the merge — successors and their
    /// canonical keys — while the calling thread merges: it only looks
    /// keys up, interns, and replays the sequential governor decisions
    /// verbatim, so the result is identical at every worker count.
    fn run(&self, process: &Process, payloads: Payloads) -> Result<Lts, VerifyError> {
        let cfg = Config::from_process(process)?;
        let mut knowledge = Knowledge::new();
        if let Some(spec) = &self.opts.intruder {
            // Initial knowledge: every free name, plus the restricted
            // channel set C allocated at load.
            for (id, e) in cfg.names().iter() {
                if !e.restricted || spec.channels.contains(&e.base) {
                    knowledge.learn(RtTerm::Id(id));
                }
            }
        }
        let initial = StateData {
            cfg,
            knowledge,
            fresh_made: 0,
            net: self.opts.faults.as_ref().map(FaultSpec::initial_state),
        };

        let own_cancel = AtomicBool::new(false);
        // Any reduction forces iso tracking: merges stop being identity
        // renamings, so traces must be able to undo them.
        let tracking = self.opts.track_isos || self.opts.reduce.enabled();
        let seats = self.opts.intruder.iter().map(|i| &i.position);
        let pinned = seats.chain(self.opts.faults.iter().map(|f| &f.position));
        let ex = Expander {
            opts: &self.opts,
            sym: SymCtx {
                tracking,
                symmetry: self.opts.reduce.symmetry,
                pinned: pinned.cloned().collect(),
                strings: self.opts.verify_keys,
            },
            clock: WallClock {
                cancel: self.opts.cancel.as_deref().unwrap_or(&own_cancel),
                deadline: self.opts.deadline,
                expired: AtomicBool::new(false),
            },
            describe: payloads == Payloads::Keep,
        };
        let mut merge = Merge {
            store: StateStore::new(self.opts.verify_keys, tracking, payloads),
            gov: Governor::new(self.opts.budget),
            stats: ExploreStats::default(),
            edges: 0,
            edge_isos: BTreeMap::new(),
            expanded: Vec::new(),
        };
        // The initial state is always interned, even under a zero
        // budget, so a partial answer is never empty.
        let out = ex.sym.canonical(&initial);
        out.tally.add_to(&mut merge.stats);
        merge.store.push(out, initial);
        // One derivation memo per thread, kept for the whole exploration.
        let mut cache = DeriveCache::new();
        let workers = self.opts.workers.max(1);
        if workers == 1 {
            ex.drive(&mut merge, None, &mut cache)?;
        } else {
            let pool = Pool::new();
            let unmerged = std::thread::scope(|scope| {
                let _closing = pool.closing();
                for _ in 1..workers {
                    scope.spawn(|| {
                        let (mut cache, mut produced) = (DeriveCache::new(), HashSet::new());
                        pool.serve(|window| ex.expand_window(&window, &mut cache, &mut produced));
                    });
                }
                ex.drive(&mut merge, Some((&pool, workers)), &mut cache)
            })?;
            // The pool has stopped, so each window it never merged is
            // held here alone.
            for window in unmerged {
                let window = Arc::into_inner(window).expect("a stopped pool holds no window");
                merge.store.settle(window);
            }
        }
        Ok(merge.finish())
    }
}

/// What every thread expanding states reads, fixed for a whole
/// exploration: the options, the canonicalization context, the wall
/// clock, and whether steps are described.
struct Expander<'x> {
    opts: &'x ExploreOptions,
    sym: SymCtx,
    clock: WallClock<'x>,
    /// Build step descriptions of environment and observation moves:
    /// only payload-keeping runs store them.
    describe: bool,
}

impl Expander<'_> {
    /// Feeds the merge the BFS queue a window at a time, until the queue
    /// is empty or a cut-off ends the exploration.
    ///
    /// Without a pool every state is expanded on demand as the merge
    /// reaches it: literally the sequential engine.  With one, the merge
    /// keeps [`WINDOWS_AHEAD_PER_WORKER`] windows per worker submitted
    /// ahead of the one it merges, cut from the queue as soon as it holds
    /// states — a whole [`WINDOW`], or a worker's share of a shorter
    /// queue — and takes their expansions in order, expanding unclaimed
    /// windows itself while it waits.  Speculation never affects
    /// results: the merge consumes the expansions in sequential order and
    /// discards anything past a cut-off.
    ///
    /// Returns the windows submitted but never merged; the caller settles
    /// their payloads once the pool has stopped.
    fn drive(
        &self,
        merge: &mut Merge,
        pool: Option<(&Pool, usize)>,
        cache: &mut DeriveCache,
    ) -> Result<Vec<Arc<Window>>, VerifyError> {
        let Some((pool, workers)) = pool else {
            // One state at a time, so each payload is released as soon
            // as its state is expanded.
            while let Some(window) = merge.store.window(1) {
                let more = merge.consume(self, &window, Vec::new(), cache)?;
                merge.store.settle(window);
                if !more {
                    break;
                }
            }
            return Ok(Vec::new());
        };
        let mut produced = HashSet::new();
        let mut ahead: VecDeque<(u64, Arc<Window>)> = VecDeque::new();
        loop {
            while ahead.len() < WINDOWS_AHEAD_PER_WORKER * workers {
                let size = WINDOW.min(merge.store.queue.len().div_ceil(workers));
                let Some(window) = merge.store.window(size) else {
                    break;
                };
                let window = Arc::new(window);
                ahead.push_back((pool.submit(Arc::clone(&window)), window));
            }
            let Some((seq, window)) = ahead.pop_front() else {
                break;
            };
            let computed = pool.take(seq, |w| self.expand_window(&w, cache, &mut produced));
            let more = merge.consume(self, &window, computed, cache)?;
            // Whoever expanded the window dropped its handle before
            // handing the expansions over.
            let window = Arc::into_inner(window).expect("a merged window is held here alone");
            merge.store.settle(window);
            if !more {
                break;
            }
        }
        Ok(ahead.into_iter().map(|(_, window)| window).collect())
    }

    /// Expands every state of `window`, in order, on a pool thread whose
    /// derivation memo is `cache` and which has produced the successor
    /// keys in `produced` so far.  A tripped wall clock leaves the rest
    /// of the window empty: the merge cuts off before it would consume
    /// the missing slots.
    ///
    /// A successor the merge is bound to find interned is dropped here,
    /// on the thread that built it, rather than handed over only to be
    /// discarded by the merge: freeing it there cost the merge more than
    /// interning (most successors are duplicates).  It is bound to be
    /// found when this thread produced its key before — earlier in this
    /// window or in an earlier one — from a state the merge will not skip
    /// for its knowledge: every thread claims windows in submission
    /// order, and the merge interns every successor of every state it
    /// consumes, in order, until a cut-off ends the exploration.  The
    /// merge's own index still decides every lookup, so which successors
    /// arrive without a payload never changes the result.
    fn expand_window(
        &self,
        window: &Window,
        cache: &mut DeriveCache,
        produced: &mut HashSet<u128>,
    ) -> Computed {
        let states = window.states.iter().zip(&window.payloads);
        states
            .map(|(&cur, sd)| {
                if self.clock.overrun() {
                    return None;
                }
                let mut expansion = self.expand(cur, sd, cache);
                let merged = sd.knowledge.len() <= self.opts.budget.max_knowledge;
                if let (Ok(exp), true) = (&mut expansion, merged) {
                    for (_, next, out) in &mut exp.moves {
                        if !produced.insert(out.key) {
                            *next = None;
                        }
                    }
                }
                Some(expansion)
            })
            .collect()
    }

    /// One state's expansion, the unit of work of both the pool and the
    /// on-demand path: its successors, then the canonical identity of
    /// each.  The successors are computed behind a panic boundary: a
    /// panic there — in a worker thread or on the calling one — surfaces
    /// as [`VerifyError::WorkerPanic`] carrying the payload, so one
    /// poisoned state fails only its own exploration and can never abort
    /// the process (campaigns report the schedule as inconclusive and
    /// move on).
    fn expand(
        &self,
        cur: usize,
        sd: &StateData,
        cache: &mut DeriveCache,
    ) -> Result<Expansion, VerifyError> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(n) = self.opts.panic_after_states {
                assert!(
                    cur < n,
                    "test hook: successor computation for state {cur} panicked"
                );
            }
            self.successors(sd, cache)
        }));
        // `&*` descends into the box: coercing `&payload` would unsize
        // the `Box` itself into the `dyn Any` and defeat the downcasts.
        let succ = caught.unwrap_or_else(|payload| {
            Err(VerifyError::WorkerPanic {
                payload: panic_text(&*payload),
            })
        })?;
        let moves = succ
            .moves
            .into_iter()
            .map(|(label, next)| {
                let out = self.sym.canonical(&next);
                (label, Some(next), out)
            })
            .collect();
        Ok(Expansion {
            moves,
            pruned: succ.pruned,
        })
    }

    /// All successor states of `sd` with their labels (possibly reduced
    /// to an ample subset — see [`ReduceOptions::por`]).  `cache`
    /// memoizes intruder derivability queries; it never changes the
    /// result, only the cost.
    fn successors(&self, sd: &StateData, cache: &mut DeriveCache) -> Result<SuccSet, VerifyError> {
        let mut out = Vec::new();

        // Internal machine actions.
        for action in sd.cfg.enabled(self.opts.unfold_bound) {
            let mut next = sd.clone();
            let info = next.cfg.fire(&action)?;
            out.push((Label::Tau(Some(StepDesc::Internal(info))), next));
        }

        // Visible outputs: continuation outputs on free, unlocalized
        // channels, consumed by the notional tester.
        for (path, leaf) in sd.cfg.tree().leaves() {
            let LeafState::Out { chan, .. } = leaf else {
                continue;
            };
            let RtTerm::Id(id) = &chan.subject else {
                continue;
            };
            if !sd.cfg.names().is_free(*id) || chan.index != RtChanIndex::Plain {
                continue;
            }
            let chan_base = sd.cfg.names().entry(*id).base.clone();
            // Channels in C are never tester-visible (Definition 4
            // restricts them); if the user left them free, keep them
            // intruder-only.
            if self.on_c(&chan_base) {
                continue;
            }
            let mut next = sd.clone();
            let payload = next.cfg.take_output(&path, &path)?.payload;
            let ev = ObsEvent {
                chan: chan_base.clone(),
                payload: ObsTerm::from_rt(&payload, next.cfg.names()),
            };
            let desc = self.describe.then(|| StepDesc::Observe {
                from: path.clone(),
                chan: chan_base,
                payload,
            });
            out.push((Label::Obs(ev, desc), next));
        }

        // The environments: the intruder, then the faulty network.
        if let Some(spec) = &self.opts.intruder {
            environment::intruder_moves(sd, spec, cache, self.describe, &mut out);
        }
        if let Some(fspec) = &self.opts.faults {
            environment::fault_moves(sd, fspec, self.describe, &mut out);
        }

        if self.opts.reduce.por && out.len() > 1 {
            if let Some(pick) = self.ample_index(sd, &out) {
                let pruned = (out.len() - 1) as u64;
                let chosen = out.swap_remove(pick);
                return Ok(SuccSet {
                    moves: vec![chosen],
                    pruned,
                });
            }
        }
        Ok(SuccSet {
            moves: out,
            pruned: 0,
        })
    }

    /// Whether `base` spells a channel of the intruder's set `C`.
    fn on_c(&self, base: &Name) -> bool {
        let intruder = self.opts.intruder.as_ref();
        intruder.is_some_and(|i| i.channels.contains(base))
    }

    /// The ample-set selection: an index into `out` whose single move is
    /// a sound stand-in for the whole successor set, or `None` when every
    /// interleaving must be explored.
    ///
    /// Two shapes qualify, both invisible, both commuting with every
    /// other enabled move, and both incapable of disabling one:
    ///
    /// 1. **Unfold priority** — a replication unfolding only splits its
    ///    own `Bang` leaf; no other move touches that leaf, nothing
    ///    disables an unfolding, and its bounded per-leaf counter rules
    ///    out postponement cycles.
    /// 2. **Private communication** — an internal communication whose
    ///    subject is a restricted name occurring exactly twice in the
    ///    entire state (the sender's and the receiver's subject), with a
    ///    base spelling outside the intruder's channel set and every
    ///    fault clause.  No third party — tester, intruder, network, or
    ///    other process — can ever interact with that channel, so the
    ///    communication is independent of every other move, and each
    ///    firing consumes an I/O prefix pair, ruling out cycles.
    fn ample_index(&self, sd: &StateData, out: &[(Label, StateData)]) -> Option<usize> {
        for (i, (label, _)) in out.iter().enumerate() {
            if matches!(
                label,
                Label::Tau(Some(StepDesc::Internal(StepInfo::Unfold { .. })))
            ) {
                return Some(i);
            }
        }
        for (i, (label, _)) in out.iter().enumerate() {
            let Label::Tau(Some(StepDesc::Internal(StepInfo::Comm(ci)))) = label else {
                continue;
            };
            let RtTerm::Id(id) = &ci.subject else {
                continue;
            };
            let entry = sd.cfg.names().entry(*id);
            if !entry.restricted {
                continue;
            }
            let mut clauses = self.opts.faults.iter().flat_map(|f| &f.clauses);
            let touched = self.on_c(&entry.base) || clauses.any(|c| c.chan == entry.base);
            if !touched && state_occurrences(sd, *id) == 2 {
                return Some(i);
            }
        }
        None
    }
}

/// A state's successor moves, plus how many sibling moves the
/// partial-order reduction pruned to get there.
#[derive(Debug)]
struct SuccSet<M = (Label, StateData)> {
    moves: Vec<M>,
    pruned: u64,
}

/// A state's expansion as the merge consumes it: each successor move with
/// its canonical identity.
/// A successor comes without its payload when the pool knew the merge
/// would find it interned (see [`Expander::expand_window`]).
type Expansion = SuccSet<(Label, Option<StateData>, CanonOut)>;

/// Counts the occurrences of name `id` across the entire state: every
/// leaf (channel subjects, payloads, continuations), the intruder
/// knowledge, and the network buffer and log.  Two occurrences of a
/// restricted name mean nobody else can ever use the channel.
fn state_occurrences(sd: &StateData, id: spi_semantics::NameId) -> usize {
    let mut n = 0;
    for (_, leaf) in sd.cfg.tree().leaves() {
        n += leaf_occurrences(leaf, id);
    }
    for t in sd.knowledge.iter() {
        n += term_occurrences(t, id);
    }
    if let Some(net) = &sd.net {
        for (_, t) in net.buffer.iter().chain(net.log.iter()) {
            n += term_occurrences(t, id);
        }
    }
    n
}

fn term_occurrences(t: &RtTerm, id: spi_semantics::NameId) -> usize {
    match t {
        RtTerm::Id(i) => usize::from(*i == id),
        RtTerm::Var(_) | RtTerm::Sym(_) => 0,
        RtTerm::Pair { fst, snd, .. } => term_occurrences(fst, id) + term_occurrences(snd, id),
        RtTerm::Enc { body, key, .. } => {
            body.iter().map(|x| term_occurrences(x, id)).sum::<usize>() + term_occurrences(key, id)
        }
        RtTerm::LocatedLit { inner, .. } => term_occurrences(inner, id),
    }
}

fn chan_occurrences(ch: &spi_semantics::RtChannel, id: spi_semantics::NameId) -> usize {
    term_occurrences(&ch.subject, id)
}

fn proc_occurrences(p: &RtProcess, id: spi_semantics::NameId) -> usize {
    match p {
        RtProcess::Nil => 0,
        RtProcess::Output(ch, t, cont) => {
            chan_occurrences(ch, id) + term_occurrences(t, id) + proc_occurrences(cont, id)
        }
        RtProcess::Input(ch, _, cont) => chan_occurrences(ch, id) + proc_occurrences(cont, id),
        RtProcess::Restrict(_, body) | RtProcess::Bang(body) => proc_occurrences(body, id),
        RtProcess::Par(l, r) => proc_occurrences(l, id) + proc_occurrences(r, id),
        RtProcess::Match(a, b, cont) | RtProcess::AddrMatchT(a, b, cont) => {
            term_occurrences(a, id) + term_occurrences(b, id) + proc_occurrences(cont, id)
        }
        RtProcess::AddrMatchL(a, _, cont) => term_occurrences(a, id) + proc_occurrences(cont, id),
        RtProcess::Split { pair, body, .. } => {
            term_occurrences(pair, id) + proc_occurrences(body, id)
        }
        RtProcess::Case {
            scrutinee,
            key,
            body,
            ..
        } => {
            term_occurrences(scrutinee, id)
                + term_occurrences(key, id)
                + proc_occurrences(body, id)
        }
    }
}

fn leaf_occurrences(leaf: &LeafState, id: spi_semantics::NameId) -> usize {
    match leaf {
        LeafState::Dead => 0,
        LeafState::Out {
            chan,
            payload,
            cont,
        } => chan_occurrences(chan, id) + term_occurrences(payload, id) + proc_occurrences(cont, id),
        LeafState::In { chan, cont, .. } => chan_occurrences(chan, id) + proc_occurrences(cont, id),
        LeafState::Bang { body, .. } => proc_occurrences(body, id),
    }
}

/// Renders a caught panic payload as text (panics raise `&str` or
/// `String` payloads in practice; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse;

    fn explore(src: &str, opts: ExploreOptions) -> Lts {
        Explorer::new(opts)
            .explore(&parse(src).expect("parses"))
            .expect("explores")
    }

    /// Whether some edge's step description satisfies `pred`.
    fn any_desc(lts: &Lts, pred: impl Fn(&StepDesc) -> bool) -> bool {
        (0..lts.states.len()).any(|s| lts.descs(s).iter().any(&pred))
    }

    #[test]
    fn edge_ids_refuse_what_32_bits_cannot_hold() {
        assert_eq!(edge_id(7).unwrap(), 7);
        assert_eq!(edge_id(Edge::TAU as usize - 1).unwrap(), Edge::TAU - 1);
        for overflow in [Edge::TAU as usize, usize::MAX] {
            assert!(
                matches!(
                    edge_id(overflow),
                    Err(VerifyError::StateBudgetExceeded { max_states }) if max_states == Edge::TAU as usize
                ),
                "{overflow}"
            );
        }
    }

    #[test]
    fn tiny_system_explores_fully() {
        let lts = explore("(^m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        // τ comm, then an observation.
        assert!(lts.stats.states >= 3);
        assert!(lts.complete());
        assert!(lts.frontier.is_empty());
        assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn fingerprints_are_stable_across_worker_counts() {
        let src = "(^c, d)(((^m) c<m> | c(x)) | ((^n) d<n> | d(y)))";
        let base = explore(
            src,
            ExploreOptions {
                workers: 1,
                ..ExploreOptions::default()
            },
        )
        .fingerprint();
        for workers in [2, 8] {
            let fp = explore(
                src,
                ExploreOptions {
                    workers,
                    ..ExploreOptions::default()
                },
            )
            .fingerprint();
            assert_eq!(fp, base, "workers={workers}");
        }
        let other = explore("(^m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        assert_ne!(other.fingerprint(), base, "different systems differ");
    }

    #[test]
    fn deterministic_exploration_dedupes_interleavings() {
        let lts = explore(
            "(^c, d)(((^m) c<m> | c(x)) | ((^n) d<n> | d(y)))",
            ExploreOptions::default(),
        );
        // Four states: nothing fired, left fired, right fired, both — the
        // two interleavings of "both" merge canonically.
        assert_eq!(lts.stats.states, 4);
        assert_eq!(lts.coverage.states, 4);
        assert!(lts.coverage.complete());
    }

    #[test]
    fn state_budget_degrades_gracefully() {
        let lts = Explorer::new(ExploreOptions {
            budget: Budget::unlimited().states(2),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result, not an error");
        assert_eq!(lts.exhausted, Some(ResourceKind::States));
        assert_eq!(lts.states.len(), 2);
        assert!(!lts.frontier.is_empty(), "the cut-off is marked");
        assert!(!lts.coverage.is_empty());
        assert!(!lts.complete());
    }

    #[test]
    fn fuel_budget_degrades_gracefully() {
        let lts = Explorer::new(ExploreOptions {
            budget: Budget::unlimited().fuel(1),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result");
        assert_eq!(lts.exhausted, Some(ResourceKind::Fuel));
        assert_eq!(lts.coverage.expanded, 1);
        assert!(!lts.complete());
    }

    #[test]
    fn transition_budget_degrades_gracefully() {
        let lts = Explorer::new(ExploreOptions {
            budget: Budget::unlimited().transitions(1),
            ..ExploreOptions::default()
        })
        .explore(&parse("observe<a> | observe<b>").unwrap())
        .expect("partial result");
        assert_eq!(lts.exhausted, Some(ResourceKind::Transitions));
        assert_eq!(lts.coverage.transitions, 1);
    }

    #[test]
    fn deadline_budget_degrades_gracefully() {
        let lts = Explorer::new(ExploreOptions {
            budget: Budget::unlimited().deadline(1),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result");
        assert_eq!(lts.exhausted, Some(ResourceKind::DeadlineSteps));
        assert!(!lts.complete());
    }

    #[test]
    fn intruder_intercepts_unlocalized_outputs() {
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = explore(
            "(^c)(((^m) c<m> | c(x).observe<x>) | 0)",
            ExploreOptions {
                intruder: Some(spec),
                ..ExploreOptions::default()
            },
        );
        // Some edge is an intercept.
        let has_intercept = any_desc(&lts, |d| matches!(d, StepDesc::Intercept { .. }));
        assert!(has_intercept);
    }

    #[test]
    fn intruder_injects_fresh_names() {
        // B accepts anything on c and reveals it.
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = explore(
            "(^c)((c(x).observe<x>) | 0)",
            ExploreOptions {
                intruder: Some(spec),
                ..ExploreOptions::default()
            },
        );
        let has_inject = any_desc(&lts, |d| matches!(d, StepDesc::Inject { .. }));
        assert!(has_inject, "the intruder can invent and inject a name");
        assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn intruder_respects_partner_authentication() {
        // The input is localized at the honest sender's position ‖0‖0:
        // the intruder (at ‖1) cannot inject.
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = explore(
            "(^c)(((^m) c<m> | c@(1.0)(x).observe<x>) | 0)",
            ExploreOptions {
                intruder: Some(spec),
                ..ExploreOptions::default()
            },
        );
        let has_inject = any_desc(&lts, |d| matches!(d, StepDesc::Inject { .. }));
        assert!(!has_inject, "localized input refuses the intruder");
        // The honest communication still happens.
        assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn intruder_cannot_touch_unknown_channels() {
        // The protocol talks on a restricted s ∉ C.
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = explore(
            "(^s)((s<m> | s(x).observe<x>) | 0)",
            ExploreOptions {
                intruder: Some(spec),
                ..ExploreOptions::default()
            },
        );
        let touched = any_desc(&lts, |d| {
            matches!(d, StepDesc::Intercept { .. } | StepDesc::Inject { .. })
        });
        assert!(!touched);
    }

    #[test]
    fn observations_record_origin() {
        let lts = explore("(^m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        let mut found = false;
        for ev in lts.observations() {
            if let ObsTerm::Fresh { creator, .. } = &ev.payload {
                assert_eq!(creator.to_bits(), "e");
                found = true;
            }
        }
        assert!(found, "the observation carries the creator position");
    }

    #[test]
    fn deadlocks_report_stuck_states_only() {
        // A receiver that can never be served: stuck, not exhausted.
        let lts = explore("(^c) c(x).observe<x>", ExploreOptions::default());
        assert_eq!(lts.deadlocks(), vec![0]);
        // A system that runs to completion (the protocol channel is
        // restricted so the observer cannot steal the message): the
        // terminal state is exhausted — no deadlock.
        let lts = explore("(^c, m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        assert!(lts.deadlocks().is_empty(), "completion is not a deadlock");
        // With the channel free, the observer may eat the message and
        // starve the receiver: that IS a deadlock.
        let lts = explore("(^m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        assert!(!lts.deadlocks().is_empty(), "a starved receiver is stuck");
    }

    #[test]
    fn replication_explores_up_to_the_unfold_bound() {
        let lts1 = explore(
            "!(^m) c<m> | c(x).observe<x>",
            ExploreOptions {
                unfold_bound: 1,
                ..ExploreOptions::default()
            },
        );
        let lts2 = explore(
            "!(^m) c<m> | c(x).observe<x>",
            ExploreOptions {
                unfold_bound: 2,
                ..ExploreOptions::default()
            },
        );
        assert!(lts2.stats.states > lts1.stats.states);
    }

    fn fault_opts(spec: FaultSpec) -> ExploreOptions {
        ExploreOptions {
            faults: Some(spec),
            ..ExploreOptions::default()
        }
    }

    fn has_fault_edge(lts: &Lts, kind: FaultKind) -> bool {
        any_desc(
            lts,
            |d| matches!(d, StepDesc::Fault { kind: k, .. } if *k == kind),
        )
    }

    #[test]
    fn drop_fault_loses_the_message() {
        let lts = explore(
            "(^c)((c<m>.done<ok> | c(x).observe<x>) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Drop, "c", 1)),
        );
        assert!(has_fault_edge(&lts, FaultKind::Drop));
        // After the drop the receiver starves: some deadlock exists.
        assert!(!lts.deadlocks().is_empty());
    }

    #[test]
    fn duplicate_fault_delivers_twice_without_consuming() {
        // One send, two receivers: only a duplication can serve both.
        let lts = explore(
            "(^c)(((^m) c<m> | (c(x).a<x> | c(y).b<y>)) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Duplicate, "c", 1)),
        );
        assert!(has_fault_edge(&lts, FaultKind::Duplicate));
        let barbs = lts.weak_barbs();
        assert!(barbs.iter().any(|b| b.chan == "a"));
        assert!(barbs.iter().any(|b| b.chan == "b"));
        // Some single run reaches both barbs: find a state exhibiting one
        // after the other was already served.
        let both_served = (0..lts.states.len())
            .any(|s| lts.config(s).is_exhausted() && lts.states[s].edges.is_empty());
        assert!(both_served || lts.stats.states > 3);
    }

    #[test]
    fn faults_respect_localization() {
        // Output localized at the receiver: the network cannot touch it.
        for kind in FaultKind::ALL {
            let lts = explore(
                "(^c)(((^m) c@(0.1)<m> | c(x).observe<x>) | 0)",
                fault_opts(FaultSpec::single(kind, "c", 1)),
            );
            assert!(
                !has_fault_edge(&lts, kind),
                "{kind} must be refused by the localized output"
            );
            assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
        }
    }

    #[test]
    fn fault_counters_are_bounded() {
        // max = 1: at most one drop along any path, so the two-message
        // system can still deliver the second message.
        let lts = explore(
            "(^c)((c<m1>.c<m2> | c(x).c(y).observe<y>) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Drop, "c", 1)),
        );
        assert!(has_fault_edge(&lts, FaultKind::Drop));
        // With both messages dropped the observer would starve; with max=1
        // the observe barb stays reachable on the no-drop path.
        assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn reorder_fault_buffers_and_redelivers() {
        let lts = explore(
            "(^c)((c<m1>.c<m2> | c(x).c(y).first<x>) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Reorder, "c", 1)),
        );
        assert!(has_fault_edge(&lts, FaultKind::Reorder));
        // Reordering lets m2 arrive first: some observation of m2 exists.
        let sees_m2 = lts
            .observations()
            .iter()
            .any(|ev| format!("{ev:?}").contains("m2"));
        assert!(sees_m2, "reordering swaps the delivery order");
    }

    #[test]
    fn replay_fault_redelivers_from_log() {
        // One send, two sequential receives on the same channel: only a
        // replay can serve the second.
        let lts = explore(
            "(^c)(((^m) c<m> | c(x).c(y).observe<y>) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Replay, "c", 1)),
        );
        assert!(has_fault_edge(&lts, FaultKind::Replay));
        assert!(
            lts.weak_barbs().iter().any(|b| b.chan == "observe"),
            "the tap+replay serves both receives"
        );
    }

    #[test]
    fn worker_panics_surface_as_errors_not_aborts() {
        // The hook panics on every state past index 0, in every engine.
        for workers in [1, 4] {
            let err = Explorer::new(ExploreOptions {
                panic_after_states: Some(1),
                workers,
                ..ExploreOptions::default()
            })
            .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
            .expect_err("the poisoned successor computation fails the run");
            match err {
                VerifyError::WorkerPanic { payload } => {
                    assert!(payload.contains("test hook"), "{payload}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn panic_free_prefix_is_unaffected_by_the_hook() {
        // A hook past the whole state space never fires.
        let lts = Explorer::new(ExploreOptions {
            panic_after_states: Some(usize::MAX),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("explores");
        assert!(lts.complete());
    }

    #[test]
    fn expired_deadline_cuts_off_as_wall_clock() {
        let lts = Explorer::new(ExploreOptions {
            deadline: Some(Instant::now()),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result, not an error");
        assert_eq!(lts.exhausted, Some(ResourceKind::WallClock));
        assert!(!lts.complete());
        assert_eq!(lts.states.len(), 1, "only the initial state is kept");
    }

    #[test]
    fn an_expired_deadline_leaves_the_shared_cancel_flag_alone() {
        let flag = Arc::new(AtomicBool::new(false));
        let lts = Explorer::new(ExploreOptions {
            deadline: Some(Instant::now()),
            cancel: Some(Arc::clone(&flag)),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result");
        assert_eq!(lts.exhausted, Some(ResourceKind::WallClock));
        assert!(!flag.load(Ordering::Relaxed), "other runs share the flag");
    }

    #[test]
    fn cancel_flag_stops_the_exploration_cooperatively() {
        let flag = Arc::new(AtomicBool::new(true));
        let lts = Explorer::new(ExploreOptions {
            cancel: Some(flag),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
        .expect("partial result");
        assert_eq!(lts.exhausted, Some(ResourceKind::WallClock));
        assert!(!lts.complete());
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let free = explore("(^m)(c<m> | c(x).observe<x>)", ExploreOptions::default());
        let timed = explore(
            "(^m)(c<m> | c(x).observe<x>)",
            ExploreOptions {
                deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
                ..ExploreOptions::default()
            },
        );
        assert_eq!(free.stats, timed.stats);
        assert!(timed.complete());
    }

    #[test]
    fn network_state_distinguishes_explored_states() {
        // Same configuration, different fault counters ⇒ different states.
        let lts = explore(
            "(^c)((c<m>.done<ok> | c(x)) | 0)",
            fault_opts(FaultSpec::single(FaultKind::Drop, "c", 1)),
        );
        assert!(lts.states.len() >= 3, "{}", lts.states.len());
    }

    const SESSIONS: &str = "!((^m)(c<m> | c(x).observe<x>))";

    /// The paper's Pm2 with the intruder's seat at `‖1`.
    const PM2: &str = "(^c)((^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>) | 0)";

    fn session_opts(reduce: ReduceOptions) -> ExploreOptions {
        ExploreOptions {
            unfold_bound: 3,
            reduce,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn symmetry_quotient_collapses_session_permutations() {
        let plain = explore(SESSIONS, session_opts(ReduceOptions::none()));
        let reduced = explore(
            SESSIONS,
            session_opts(ReduceOptions {
                symmetry: true,
                por: false,
            }),
        );
        assert!(
            reduced.stats.states * 2 <= plain.stats.states,
            "expected >=2x: {} vs {}",
            reduced.stats.states,
            plain.stats.states
        );
        assert!(reduced.stats.states_quotiented > 0);
        assert_eq!(plain.stats.por_pruned, 0);
        assert!(reduced.complete());
    }

    #[test]
    fn reduced_exploration_preserves_weak_traces() {
        use crate::traces::weak_traces;
        // The unreduced arm tracks isos too, so both sides extract the
        // *exact* raw trace set and compare without merge artifacts.
        let tracked = explore(
            SESSIONS,
            ExploreOptions {
                track_isos: true,
                ..session_opts(ReduceOptions::none())
            },
        );
        for reduce in [
            ReduceOptions {
                symmetry: true,
                por: false,
            },
            ReduceOptions {
                symmetry: false,
                por: true,
            },
            ReduceOptions::full(),
        ] {
            let reduced = explore(SESSIONS, session_opts(reduce));
            assert_eq!(
                weak_traces(&reduced, 4),
                weak_traces(&tracked, 4),
                "mode {}",
                reduce.mode()
            );
            assert_eq!(
                reduced.weak_barbs(),
                tracked.weak_barbs(),
                "mode {}",
                reduce.mode()
            );
        }
    }

    #[test]
    fn por_prunes_private_communications() {
        let src = "(^k)(k<m>.0 | k(x).0) | observe<a>";
        let plain = explore(src, ExploreOptions::default());
        let por = explore(
            src,
            ExploreOptions {
                reduce: ReduceOptions {
                    symmetry: false,
                    por: true,
                },
                ..ExploreOptions::default()
            },
        );
        assert!(por.stats.por_pruned > 0);
        assert!(por.stats.states < plain.stats.states);
        use crate::traces::weak_traces;
        let tracked = explore(
            src,
            ExploreOptions {
                track_isos: true,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(weak_traces(&por, 3), weak_traces(&tracked, 3));
    }

    #[test]
    fn reduction_is_deterministic_across_worker_counts() {
        let base = explore(
            SESSIONS,
            ExploreOptions {
                workers: 1,
                ..session_opts(ReduceOptions::full())
            },
        )
        .fingerprint();
        for workers in [2, 8] {
            let fp = explore(
                SESSIONS,
                ExploreOptions {
                    workers,
                    ..session_opts(ReduceOptions::full())
                },
            )
            .fingerprint();
            assert_eq!(fp, base, "workers={workers}");
        }
    }

    #[test]
    fn full_reduction_under_the_intruder_is_deterministic_across_worker_counts() {
        // The paper's Pm2 at three sessions under the most-general
        // intruder, with every reduction and the key audit on: the pool
        // canonicalizes and runs the symmetry search, so any
        // worker-count dependence would show in the keys, the merge
        // isomorphisms or the reduction counters.
        let run = |workers| {
            explore(
                PM2,
                ExploreOptions {
                    unfold_bound: 3,
                    intruder: Some(IntruderSpec::new("1".parse().unwrap(), ["c"])),
                    reduce: ReduceOptions::full(),
                    verify_keys: true,
                    workers,
                    ..ExploreOptions::default()
                },
            )
        };
        let base = run(1);
        assert!(base.complete());
        assert!(base.stats.states_quotiented > 0, "{:?}", base.stats);
        assert!(base.stats.por_pruned > 0, "{:?}", base.stats);
        assert!(!base.edge_isos.is_empty());
        for workers in [2, 8] {
            let lts = run(workers);
            assert_eq!(lts.fingerprint(), base.fingerprint(), "workers={workers}");
            assert_eq!(lts.stats, base.stats, "workers={workers}");
            assert_eq!(lts.edge_isos, base.edge_isos, "workers={workers}");
            assert_eq!(lts.isos, base.isos, "workers={workers}");
        }
    }

    #[test]
    fn cut_offs_land_identically_at_every_worker_count() {
        // The paper's Pm2 at two sessions under the intruder, unreduced:
        // 194 states, so several windows and BFS layers, with budgets
        // that cut inside a window, at a window edge and in a later
        // layer, and panics at states the merge reaches early and late.
        let run = |workers, budget, panic_after_states| {
            Explorer::new(ExploreOptions {
                budget,
                intruder: Some(IntruderSpec::new("1".parse().unwrap(), ["c"])),
                panic_after_states,
                workers,
                ..ExploreOptions::default()
            })
            .explore(&parse(PM2).unwrap())
        };
        let full = run(1, Budget::unlimited(), None).expect("explores");
        assert_eq!(full.stats.states, 194);
        let unlimited = Budget::unlimited;
        let states = [1, 2, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW, 150];
        let mut budgets: Vec<Budget> = states.iter().map(|&n| unlimited().states(n)).collect();
        budgets.extend([1, 40, 300].map(|n| unlimited().transitions(n)));
        budgets.extend([1, WINDOW, 3 * WINDOW + 5].map(|n| unlimited().fuel(n)));
        // A knowledge cap skips states without stopping the exploration:
        // the pool expands them anyway, and the merge discards that work.
        budgets.extend([3, 4].map(|n| unlimited().knowledge(n)));
        for budget in budgets {
            let base = run(1, budget, None).expect("a cut-off is not an error");
            assert!(base.exhausted.is_some(), "{budget:?} must cut");
            for workers in [2, 3, 4] {
                let lts = run(workers, budget, None).expect("a cut-off is not an error");
                let at = format!("{budget:?} at {workers} workers");
                assert_eq!(lts.fingerprint(), base.fingerprint(), "{at}");
                assert_eq!(lts.frontier, base.frontier, "{at}");
                assert_eq!(lts.exhausted, base.exhausted, "{at}");
                assert_eq!(lts.coverage, base.coverage, "{at}");
            }
        }
        for after in [5, WINDOW + 3, 150] {
            let panicked = |workers| match run(workers, Budget::unlimited(), Some(after)) {
                Err(VerifyError::WorkerPanic { payload }) => payload,
                other => panic!("expected WorkerPanic, got {other:?}"),
            };
            let base = panicked(1);
            assert!(base.contains(&format!("state {after} ")), "{base}");
            for workers in [2, 3, 4] {
                assert_eq!(
                    panicked(workers),
                    base,
                    "panic after {after}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn path_mapped_keys_equal_the_physically_permuted_states() {
        // Every symmetry-eligible state of reduced Pm2 at three sessions
        // under the intruder, under every joint copy permutation: scoring
        // through the path map must serialize exactly the permuted state,
        // and name its canonical slots with the same raw ids.
        let seat: Path = "1".parse().unwrap();
        let lts = explore(
            PM2,
            ExploreOptions {
                unfold_bound: 3,
                intruder: Some(IntruderSpec::new(seat.clone(), ["c"])),
                reduce: ReduceOptions::full(),
                ..ExploreOptions::default()
            },
        );
        let mut checked = 0;
        for i in 0..lts.states.len() {
            let sd = StateData {
                cfg: lts.config(i).clone(),
                knowledge: lts.knowledge(i).clone(),
                fresh_made: 0,
                net: None,
            };
            let groups = symmetry::session_groups(&sd.cfg, std::slice::from_ref(&seat));
            let cap = symmetry::MAX_CANDIDATES;
            let ineligible = matches!(
                symmetry::candidates(&sd.cfg, &groups, &sd.held(), cap),
                Err(Fallback::Ineligible)
            );
            if ineligible || groups.is_empty() {
                continue;
            }
            for perm in orbit(&groups) {
                let moved = sd.permuted(&perm);
                let (key, canon) = sd.key_through(&mut &perm);
                assert_eq!((key, journal(&canon)), moved.key_and_journal(), "{perm:?}");
                let mut mapped = String::new();
                sd.write_key_with(&mut Canonicalizer::new(), &mut &perm, &mut mapped);
                assert_eq!(mapped, moved.key_string(), "{perm:?}");
                checked += 1;
            }
        }
        assert!(checked > 100, "{checked}");
    }

    #[test]
    fn a_candidate_overflow_keeps_the_raw_key_and_is_counted() {
        // k idle copies whose nonces the intruder knows in every ordered
        // pair: all k copies stay tied and share one linked component, so
        // the search enumerates all k! arrangements.
        let sym = SymCtx {
            tracking: true,
            symmetry: true,
            pinned: Vec::new(),
            strings: false,
        };
        let state = |k: usize| {
            use spi_addr::Branch;
            use spi_semantics::Action;
            let mut cfg = Config::from_process(&parse("!(^m) c<m>").unwrap()).unwrap();
            let mut at = Path::root();
            for _ in 0..k {
                cfg.fire(&Action::Unfold { path: at.clone() }).unwrap();
                at.push(Branch::Right);
            }
            let nonces: Vec<RtTerm> = cfg
                .names()
                .iter()
                .filter(|(_, e)| e.restricted)
                .map(|(id, _)| RtTerm::Id(id))
                .collect();
            assert_eq!(nonces.len(), k);
            let mut knowledge = Knowledge::new();
            for a in &nonces {
                for b in nonces.iter().filter(|b| *b != a) {
                    knowledge.learn(RtTerm::Pair {
                        fst: Box::new(a.clone()),
                        snd: Box::new(b.clone()),
                        creator: None,
                    });
                }
            }
            StateData {
                cfg,
                knowledge,
                fresh_made: 0,
                net: None,
            }
        };
        let tally = |out: &CanonOut| {
            let mut stats = ExploreStats::default();
            out.tally.add_to(&mut stats);
            (
                stats.sym_canonicalizations,
                stats.sym_candidates,
                stats.sym_overflows,
            )
        };
        // 5! = 120 arrangements fit under the cap ...
        let five = sym.canonical(&state(5));
        assert_eq!(tally(&five), (1, 120, 0));
        // ... 6! = 720 do not: the raw key, one canonicalization, one
        // overflow and nothing scored.
        let six = state(6);
        let out = sym.canonical(&six);
        assert_eq!(out.key, six.key());
        assert!(out.annot.perm.is_identity());
        assert_eq!(tally(&out), (1, 0, 1));
    }

    /// Every joint copy permutation of `groups`: the whole orbit.
    fn orbit(groups: &[symmetry::SessionGroup]) -> Vec<PathPerm> {
        let mut orbit: Vec<Vec<(Path, Path)>> = vec![Vec::new()];
        for g in groups {
            let n = g.roots.len();
            // The permutations of `0..n` as image vectors, one copy at a time.
            let mut images: Vec<Vec<usize>> = vec![Vec::new()];
            for _ in 0..n {
                images = (images.iter())
                    .flat_map(|img| {
                        let free = (0..n).filter(|j| !img.contains(j));
                        free.map(|j| [img.as_slice(), &[j]].concat())
                    })
                    .collect();
            }
            orbit = (orbit.iter())
                .flat_map(|pairs| {
                    images.iter().map(|img| {
                        let moved = img.iter().enumerate();
                        let moved = moved.map(|(c, &j)| (g.roots[c].clone(), g.roots[j].clone()));
                        pairs.iter().cloned().chain(moved).collect()
                    })
                })
                .collect();
        }
        orbit.into_iter().map(PathPerm::from_pairs).collect()
    }

    /// Orbit invariance of the symmetry quotient, checked after the fact
    /// on every state of `lts`: each physically permuted variant, under
    /// every joint copy permutation, quotients to the state's own key.
    /// The refined key is a canonical form, not the orbit's hash minimum,
    /// so this is what makes permuted duplicates merge.  Returns how many
    /// variants were compared.
    fn assert_orbit_invariant(lts: &Lts, pinned: &[Path]) -> usize {
        let quotient = |sd: &StateData| {
            let groups = symmetry::session_groups(&sd.cfg, pinned);
            signature_min(sd, &groups).map(|(key, ..)| key)
        };
        let mut checked = 0;
        for i in 0..lts.states.len() {
            let sd = StateData {
                cfg: lts.config(i).clone(),
                knowledge: lts.knowledge(i).clone(),
                fresh_made: 0,
                net: None,
            };
            let groups = symmetry::session_groups(&sd.cfg, pinned);
            let Ok(key) = quotient(&sd) else {
                continue; // Kept its raw key: nothing quotient-specific.
            };
            for perm in &orbit(&groups) {
                assert_eq!(quotient(&sd.permuted(perm)), Ok(key), "{perm:?}");
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn the_symmetry_quotient_is_orbit_invariant_on_every_reached_state() {
        let symmetric = ReduceOptions {
            symmetry: true,
            por: false,
        };
        let lts = explore(SESSIONS, session_opts(symmetric));
        assert!(lts.complete());
        assert!(assert_orbit_invariant(&lts, &[]) > 10);
    }

    #[test]
    fn orbit_invariance_holds_on_the_successors_por_prunes() {
        // The unreduced system reaches every successor the partial-order
        // reduction would prune, so none escapes the check: the paper's
        // Pm2 at three sessions under the intruder.
        let seat: Path = "1".parse().unwrap();
        let lts = explore(
            PM2,
            ExploreOptions {
                unfold_bound: 3,
                intruder: Some(IntruderSpec::new(seat.clone(), ["c"])),
                ..ExploreOptions::default()
            },
        );
        assert!(lts.complete());
        let reduced = explore(
            PM2,
            ExploreOptions {
                unfold_bound: 3,
                intruder: Some(IntruderSpec::new(seat.clone(), ["c"])),
                reduce: ReduceOptions::full(),
                ..ExploreOptions::default()
            },
        );
        assert!(reduced.stats.por_pruned > 0, "POR must actually prune here");
        assert!(lts.stats.states > reduced.stats.states);
        assert!(assert_orbit_invariant(&lts, &[seat]) > 100);
    }

    /// Generated replicated session systems: every copy restricts its own
    /// nonce `m`, so unfolded copies differ only by machine-made names —
    /// exactly the redundancy the session-symmetry quotient removes.
    mod generated {
        use super::*;
        use proptest::prelude::*;
        use spi_syntax::{Name, Term, Var};

        fn arb_name() -> impl Strategy<Value = Name> {
            prop_oneof![
                Just(Name::new("c")),
                Just(Name::new("d")),
                Just(Name::new("m")),
            ]
        }

        /// A small closed process over `c`/`d` and the nonce `m`.
        fn arb_body(depth: u32) -> BoxedStrategy<Process> {
            let out = |c: Name, m: Name, p| Process::output(Term::Name(c), Term::Name(m), p);
            if depth == 0 {
                return prop_oneof![
                    Just(Process::Nil),
                    arb_name().prop_map(move |c| out(c.clone(), c, Process::Nil)),
                ]
                .boxed();
            }
            prop_oneof![
                Just(Process::Nil),
                (arb_name(), arb_name(), arb_body(depth - 1))
                    .prop_map(move |(c, m, p)| out(c, m, p)),
                (arb_name(), arb_body(depth - 1)).prop_map(|(c, p)| Process::input(
                    Term::Name(c),
                    Var::new("x"),
                    p
                )),
                (arb_body(depth - 1), arb_body(depth - 1)).prop_map(|(l, r)| Process::par(l, r)),
            ]
            .boxed()
        }

        fn arb_session_system() -> impl Strategy<Value = Process> {
            (arb_body(2), arb_body(1)).prop_map(|(body, observer)| {
                Process::par(
                    Process::bang(Process::restrict(Name::new("m"), body)),
                    observer,
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The quotient is a canonical form on every generated system:
            /// every permuted variant of every reached state quotients to
            /// the state's own key.
            #[test]
            fn the_symmetry_quotient_is_orbit_invariant(sys in arb_session_system()) {
                let opts = ExploreOptions {
                    unfold_bound: 2,
                    budget: Budget::unlimited().states(3_000),
                    reduce: ReduceOptions { symmetry: true, por: false },
                    ..ExploreOptions::default()
                };
                if let Ok(lts) = Explorer::new(opts).explore(&sys) {
                    assert_orbit_invariant(&lts, &[]);
                }
            }
        }
    }

    #[test]
    fn track_isos_alone_keeps_the_state_space() {
        use crate::traces::weak_traces;
        let src = "(^m)(c<m> | c(x).observe<x>)";
        let plain = explore(src, ExploreOptions::default());
        let tracked = explore(
            src,
            ExploreOptions {
                track_isos: true,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(plain.stats.states, tracked.stats.states);
        assert_eq!(plain.stats.edges, tracked.stats.edges);
        assert_eq!(weak_traces(&plain, 3), weak_traces(&tracked, 3));
    }
}
