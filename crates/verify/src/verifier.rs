//! The secure-implementation checker (Definition 4 of the paper).
//!
//! [`Verifier`] is the top-level entry point of the toolkit: it closes a
//! protocol under the most-general attacker, explores both systems, and
//! decides may-testing as weak trace inclusion.  It lives in this crate
//! (rather than the `spi-auth` facade) so that every embedding — the
//! facade, the CLI, the `spi serve` daemon, and the conformance
//! harness — shares one implementation; `spi-auth` re-exports it
//! unchanged.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

use spi_addr::Path;
use spi_semantics::{FaultSpec, RoleMap, StepInfo};
use spi_syntax::{Name, Process};

use crate::{
    bisim_preorder_sound, find_realization, trace_preorder_sound, Budget, CampaignOptions,
    CampaignReport, CoverageStats, Engine, ExploreOptions, ExploreStats, Explorer, IntruderSpec,
    Lts, MinimalCounterexample, ReduceOptions, ResourceKind, StepDesc, TraceVerdict, VerifyError,
};

/// Which inclusion failed in an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivDirection {
    /// The left system has a behaviour the right one lacks.
    LeftNotInRight,
    /// The right system has a behaviour the left one lacks.
    RightNotInLeft,
}

/// An attack found by the verifier: a behaviour of the concrete protocol
/// under some attacker that the abstract protocol can never show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attack {
    /// The distinguishing canonical trace (what a tester observes).
    pub trace: Vec<String>,
    /// The run realizing it, rendered in the paper's message-sequence
    /// notation.
    pub narration: Vec<String>,
}

/// The verifier's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within the configured bounds, every attacked behaviour of the
    /// concrete protocol is an attacked behaviour of the abstract one.
    SecurelyImplements,
    /// A distinguishing behaviour exists: the implementation is insecure.
    Attack(Attack),
    /// The resource [`Budget`] ran out before the check could be decided
    /// either way.  This is a graceful answer, not an error: the partial
    /// explorations were still compared, and had a sound positive or
    /// negative claim been available on the explored prefixes it would
    /// have been returned instead.
    Inconclusive {
        /// The resource whose exhaustion blocked the decision.
        exhausted: ResourceKind,
        /// What the blocking (truncated) exploration covered.
        coverage: CoverageStats,
    },
}

impl Verdict {
    /// Returns `true` when the check was decided either way.
    #[must_use]
    pub fn decided(&self) -> bool {
        !matches!(self, Verdict::Inconclusive { .. })
    }
}

/// The full result of a check, including the exploration sizes so bounded
/// claims are auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Exploration statistics of the concrete system under attack.
    pub concrete_stats: ExploreStats,
    /// Exploration statistics of the abstract system under attack.
    pub abstract_stats: ExploreStats,
    /// Coverage of the concrete exploration.
    pub concrete_coverage: CoverageStats,
    /// Coverage of the abstract exploration.
    pub abstract_coverage: CoverageStats,
    /// How many concrete traces (trace engine) or canonical experiments
    /// (bisimulation engine) were checked for inclusion.
    pub traces_checked: usize,
    /// Which state-space reductions the explorations ran under (both
    /// sides use the same mode; reductions preserve the verdict).
    pub reduce: ReduceOptions,
    /// Which decision procedure(s) produced the verdict.  Under
    /// [`Engine::Both`] the procedures were cross-checked and agreed
    /// (disagreement is a loud [`VerifyError::EngineDisagreement`], not
    /// a report).
    pub engine: Engine,
}

/// Checks that a concrete protocol securely implements an abstract one.
///
/// Following Definition 4, both protocols are closed under the most
/// general attacker of `E_C`: the verifier builds `(νC)(P | X)` with the
/// intruder slot `X` as the protocol's right sibling, explores both
/// systems with the bounded most-general intruder, and decides may-testing
/// as weak trace inclusion over origin-annotated observations.
///
/// # Example
///
/// ```
/// use spi_verify::{Verifier, Verdict};
/// use spi_syntax::parse;
///
/// // Section 5.2: naive replication suffers the replay attack...
/// let pm2 = parse("(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)")?;
/// // ...the challenge-response repairs it.
/// let pm3 = parse(
///     "(^kAB)(!(^m)c(ns).c<{m, ns}kAB> | \
///      !(^nb)c<nb>.c(x).case x of {z, w}kAB in [w = nb]observe<z>)",
/// )?;
/// let pm = parse("(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)")?;
///
/// let verifier = Verifier::new(["c"]).sessions(2);
/// let report = verifier.check(&pm2, &pm)?;
/// assert!(matches!(report.verdict, Verdict::Attack(_)));
/// let report = verifier.check(&pm3, &pm)?;
/// assert!(matches!(report.verdict, Verdict::SecurelyImplements));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    channels: Vec<Name>,
    unfold_bound: u32,
    budget: Budget,
    max_visible: usize,
    fresh_budget: u32,
    faults: Option<FaultSpec>,
    intruder_enabled: bool,
    roles: Vec<(String, String)>,
    workers: usize,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    progress_states: Option<Arc<AtomicU64>>,
    progress_schedules: Option<Arc<AtomicU64>>,
    reduce: ReduceOptions,
    engine: Engine,
}

impl Verifier {
    /// A verifier for protocols communicating over `channels` (the set
    /// `C` of Definition 4), with defaults: 2 sessions, 6 visible
    /// observations, one intruder-invented name, the default [`Budget`]
    /// (200 000 states), and a reliable network.
    #[must_use]
    pub fn new<I, N>(channels: I) -> Verifier
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        Verifier {
            channels: channels.into_iter().map(Into::into).collect(),
            unfold_bound: 2,
            budget: Budget::default(),
            max_visible: 6,
            fresh_budget: 1,
            faults: None,
            intruder_enabled: true,
            roles: vec![("A".into(), "0".into()), ("B".into(), "1".into())],
            workers: ExploreOptions::available_workers(),
            deadline: None,
            cancel: None,
            progress_states: None,
            progress_schedules: None,
            reduce: ReduceOptions::none(),
            engine: Engine::Trace,
        }
    }

    /// Sets a wall-clock deadline for every exploration (and for any
    /// campaign loop run through this verifier).  Explorations the clock
    /// truncates report [`ResourceKind::WallClock`], so the verdicts
    /// they feed are *inconclusive* — never silently partial.  Leave
    /// unset for fully reproducible runs.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Verifier {
        self.deadline = Some(at);
        self
    }

    /// Shares a cooperative cancellation flag with every exploration (and
    /// campaign loop) this verifier runs: setting it stops work at the
    /// next state boundary with the same inconclusive-wall-clock report
    /// as a passed deadline.  Long-lived embeddings (the `spi serve`
    /// drain path) use one flag to wind down all in-flight checks.
    #[must_use]
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Verifier {
        self.cancel = Some(flag);
        self
    }

    /// Shares live progress counters with every run this verifier
    /// performs: `states` is bumped once per fully explored state and
    /// `schedules` once per freshly decided campaign schedule (both
    /// with relaxed ordering).  The `spi serve` front end streams them
    /// as heartbeat events so clients can tell "working" from "dead";
    /// the counters never influence verdicts, statistics, or digests.
    #[must_use]
    pub fn progress(mut self, states: Arc<AtomicU64>, schedules: Arc<AtomicU64>) -> Verifier {
        self.progress_states = Some(states);
        self.progress_schedules = Some(schedules);
        self
    }

    /// Sets the number of worker threads per exploration — for
    /// [`Verifier::run_campaign`], the number of schedules classified at
    /// once, each in one thread.  `1` runs the sequential engine; every
    /// value yields bit-for-bit identical verdicts, statistics,
    /// narrations and campaign reports (parallelism only reduces
    /// wall-clock time).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Verifier {
        self.workers = n.max(1);
        self
    }

    /// Disables the most-general intruder, leaving only whatever faulty
    /// network was configured.  Useful to ask how much of an attack is
    /// attributable to the *network* alone — e.g. the replay on `Pm2`
    /// needs nothing but a duplicating channel.
    #[must_use]
    pub fn no_intruder(mut self) -> Verifier {
        self.intruder_enabled = false;
        self
    }

    /// Replaces the channel set `C`.
    #[must_use]
    pub fn channels<I, N>(mut self, channels: I) -> Verifier
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        self.channels = channels.into_iter().map(Into::into).collect();
        self
    }

    /// Sets how many instances each replication may spawn.
    #[must_use]
    pub fn sessions(mut self, n: u32) -> Verifier {
        self.unfold_bound = n;
        self
    }

    /// Sets the visible-trace depth of the may-testing check.
    #[must_use]
    pub fn max_visible(mut self, n: usize) -> Verifier {
        self.max_visible = n;
        self
    }

    /// Sets the state budget per exploration (shorthand for adjusting
    /// only that dimension of the [`Budget`]).
    #[must_use]
    pub fn max_states(mut self, n: usize) -> Verifier {
        self.budget.max_states = n;
        self
    }

    /// Replaces the whole resource [`Budget`].  Exhaustion does not fail
    /// the check — it answers [`Verdict::Inconclusive`] with coverage.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Verifier {
        self.budget = budget;
        self
    }

    /// Runs every exploration over the given faulty network.  The fault
    /// model applies to *both* systems of a comparison, so abstract
    /// specifications (whose localized channels refuse the network) keep
    /// their behaviour while concrete protocols face the faults.
    #[must_use]
    pub fn faults(mut self, spec: FaultSpec) -> Verifier {
        self.faults = Some(spec);
        self
    }

    /// Sets how many fresh names the intruder may invent.
    #[must_use]
    pub fn fresh_budget(mut self, n: u32) -> Verifier {
        self.fresh_budget = n;
        self
    }

    /// Sets the state-space reductions every exploration runs under (see
    /// [`ReduceOptions`]).  Reductions preserve verdicts: the symmetry
    /// quotient merges only genuinely isomorphic states and trace
    /// extraction undoes the renaming, while the partial-order reduction
    /// prunes only always-commuting invisible interleavings.  Off by
    /// default (the historical state space).
    #[must_use]
    pub fn reduce(mut self, reduce: ReduceOptions) -> Verifier {
        self.reduce = reduce;
        self
    }

    /// Selects the decision procedure(s): the trace engine (default),
    /// the on-the-fly bisimulation engine, or both.  The engines
    /// decide the same relation by independent algorithms; under
    /// [`Engine::Both`] every verdict is cross-checked and any
    /// disagreement fails the run loudly with
    /// [`VerifyError::EngineDisagreement`].
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Verifier {
        self.engine = engine;
        self
    }

    /// Replaces the role map used for narration: pairs of role name and
    /// position (bit path) *within* the protocol.  The default is the
    /// two-party layout `A ↦ ‖0`, `B ↦ ‖1` of the paper's protocols
    /// (restrictions do not contribute tree nodes, so in `(νs)(A | B)`
    /// the parties sit directly under the parallel).
    #[must_use]
    pub fn roles<I, S, T>(mut self, roles: I) -> Verifier
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: Into<String>,
    {
        self.roles = roles
            .into_iter()
            .map(|(n, p)| (n.into(), p.into()))
            .collect();
        self
    }

    /// The system under attack: `(νC)(P | X)` with the intruder slot as
    /// the right sibling of the protocol.
    #[must_use]
    pub fn under_attack(&self, protocol: &Process) -> Process {
        Process::restrict_all(
            self.channels.iter().cloned(),
            Process::par(protocol.clone(), Process::Nil),
        )
    }

    fn intruder_spec(&self) -> IntruderSpec {
        let mut spec = IntruderSpec::new(
            "1".parse::<Path>().expect("static path"),
            self.channels.iter().cloned(),
        );
        spec.fresh_budget = self.fresh_budget;
        spec
    }

    pub(crate) fn explore_opts(&self) -> ExploreOptions {
        ExploreOptions {
            budget: self.budget,
            unfold_bound: self.unfold_bound,
            intruder: self.intruder_enabled.then(|| self.intruder_spec()),
            faults: self.faults.clone(),
            workers: self.workers,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            progress: self.progress_states.clone(),
            reduce: self.reduce,
            ..ExploreOptions::default()
        }
    }

    /// Explores a protocol under the most-general intruder.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures (open process, state budget).
    pub fn explore(&self, protocol: &Process) -> Result<Lts, VerifyError> {
        Explorer::new(self.explore_opts()).explore(&self.under_attack(protocol))
    }

    /// Checks Definition 4: does `concrete` securely implement
    /// `abstract_spec`?
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn check(
        &self,
        concrete: &Process,
        abstract_spec: &Process,
    ) -> Result<VerificationReport, VerifyError> {
        let concrete_lts = self.explore(concrete)?;
        let abstract_lts = self.explore(abstract_spec)?;
        let (verdict, traces_checked) =
            match self.decide(&concrete_lts, &abstract_lts)? {
                TraceVerdict::Holds { checked } => (Verdict::SecurelyImplements, checked),
                TraceVerdict::Fails { witness } => {
                    let narration = self.narrate_witness(&concrete_lts, &witness);
                    (
                        Verdict::Attack(Attack {
                            trace: witness,
                            narration,
                        }),
                        0,
                    )
                }
                TraceVerdict::Inconclusive { exhausted } => {
                    // Report the coverage of the side that blocked the
                    // decision (the truncated one).
                    let coverage = if !concrete_lts.complete() {
                        concrete_lts.coverage
                    } else {
                        abstract_lts.coverage
                    };
                    (
                        Verdict::Inconclusive {
                            exhausted,
                            coverage,
                        },
                        0,
                    )
                }
            };
        Ok(VerificationReport {
            verdict,
            concrete_stats: concrete_lts.stats,
            abstract_stats: abstract_lts.stats,
            concrete_coverage: concrete_lts.coverage,
            abstract_coverage: abstract_lts.coverage,
            traces_checked,
            reduce: self.reduce,
            engine: self.engine,
        })
    }

    /// Runs the configured decision procedure(s) on a pair of explored
    /// systems.  Under [`Engine::Both`] the verdicts are cross-checked:
    /// agreement returns the trace engine's answer (its witness
    /// tie-break prefers origin-rich counterexamples), disagreement is
    /// the loud [`VerifyError::EngineDisagreement`].
    fn decide(
        &self,
        concrete_lts: &Lts,
        abstract_lts: &Lts,
    ) -> Result<TraceVerdict, VerifyError> {
        let trace =
            || trace_preorder_sound(concrete_lts, abstract_lts, self.max_visible);
        let bisim =
            || bisim_preorder_sound(concrete_lts, abstract_lts, self.max_visible);
        match self.engine {
            Engine::Trace => Ok(trace()),
            Engine::Bisim => Ok(bisim()),
            Engine::Both => cross_check(trace(), bisim()),
        }
    }

    /// Checks **testing equivalence**: the may-testing preorder in both
    /// directions under the most-general intruder.  This is the notion
    /// the paper's title methodology rests on — "two processes have the
    /// same behaviour if no distinction can be detected by an external
    /// process interacting with each of them".
    ///
    /// Returns `Ok(None)` when the systems are equivalent, and the
    /// distinguishing [`Attack`] (labelled by direction) otherwise.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn check_equivalence(
        &self,
        left: &Process,
        right: &Process,
    ) -> Result<Option<(EquivDirection, Attack)>, VerifyError> {
        if let Verdict::Attack(a) = self.check(left, right)?.verdict {
            return Ok(Some((EquivDirection::LeftNotInRight, a)));
        }
        if let Verdict::Attack(a) = self.check(right, left)?.verdict {
            return Ok(Some((EquivDirection::RightNotInLeft, a)));
        }
        Ok(None)
    }

    /// Cross-validates a verdict by running **Definition 3 directly**:
    /// synthesizes the paper's tester families (origin tests and replay
    /// tests) from the concrete system's observations and compares
    /// pass-sets of `(νC)(P | X) | T` between the two protocols.
    ///
    /// Slower than [`Verifier::check`] (one exploration per tester) but
    /// conceptually primitive: each violation is literally a test `(T, β)`
    /// the implementation passes and the specification does not.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn check_definition3(
        &self,
        concrete: &Process,
        abstract_spec: &Process,
    ) -> Result<crate::Definition3Outcome, VerifyError> {
        let concrete_lts = self.explore(concrete)?;
        let testers = crate::synthesize_testers(&concrete_lts);
        // Under `system | T` the intruder slot shifts from ‖1 to ‖0‖1,
        // and so does the faulty network's seat.
        let mut spec = self.intruder_spec();
        spec.position = "01".parse().expect("static path");
        let opts = ExploreOptions {
            intruder: self.intruder_enabled.then_some(spec),
            faults: self
                .faults
                .clone()
                .map(|f| f.at("01".parse().expect("static path"))),
            ..self.explore_opts()
        };
        crate::definition3_preorder(
            &self.under_attack(concrete),
            &self.under_attack(abstract_spec),
            &testers,
            &opts,
        )
    }

    /// Checks Dolev–Yao secrecy: under the most-general intruder, can a
    /// restricted name with one of the given base spellings ever be
    /// derived?  (The paper's Section 5.1 remark: localized outputs give
    /// secrecy; so does encryption.)
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn check_secrecy(
        &self,
        protocol: &Process,
        secrets: &[Name],
    ) -> Result<crate::SecrecyReport, VerifyError> {
        let lts = self.explore(protocol)?;
        Ok(crate::check_secrecy(&lts, secrets))
    }

    /// Campaign options matching this verifier's configuration: the
    /// verifier's channels as the fault universe, all fault kinds, up to
    /// `depth` unit firings per schedule, and the verifier's exploration
    /// bounds for every run.  Adjust checkpointing / interruption knobs
    /// on the returned value before passing it to
    /// [`Verifier::run_campaign`].
    #[must_use]
    pub fn campaign_options(&self, depth: usize) -> CampaignOptions {
        let mut opts = CampaignOptions::new(self.channels.iter().cloned(), depth);
        // The campaign installs each schedule itself; a baseline fault
        // model would leak into every schedule and the identity digest.
        opts.explore = ExploreOptions {
            faults: None,
            ..self.explore_opts()
        };
        opts.max_visible = self.max_visible;
        opts.engine = self.engine;
        opts.progress = self.progress_schedules.clone();
        opts
    }

    /// Runs a fault campaign (see [`crate::campaign`]): every
    /// multi-fault schedule up to the configured depth is checked as in
    /// [`Verifier::check`], failing schedules are shrunk to 1-minimal
    /// counterexamples, and undecidable ones stay inconclusive.
    ///
    /// # Errors
    ///
    /// Propagates machine failures and checkpoint problems; per-schedule
    /// trouble (budget exhaustion, worker panics) is reported in the
    /// per-schedule outcomes instead.
    pub fn run_campaign(
        &self,
        concrete: &Process,
        abstract_spec: &Process,
        opts: &CampaignOptions,
    ) -> Result<CampaignReport, VerifyError> {
        crate::run_campaign(
            &self.under_attack(concrete),
            &self.under_attack(abstract_spec),
            opts,
        )
    }

    /// Narrates a campaign counterexample in the paper's notation: the
    /// concrete protocol is re-explored under the minimal schedule and
    /// the run realizing the minimal trace is rendered.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn narrate_counterexample(
        &self,
        concrete: &Process,
        cex: &MinimalCounterexample,
    ) -> Result<Vec<String>, VerifyError> {
        let opts = ExploreOptions {
            faults: (!cex.schedule.clauses.is_empty()).then(|| cex.schedule.clone()),
            ..self.explore_opts()
        };
        let lts = Explorer::new(opts).explore(&self.under_attack(concrete))?;
        Ok(self.narrate_witness(&lts, &cex.trace))
    }

    /// Convenience: the attack found by [`Verifier::check`], if any.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn find_attack(
        &self,
        concrete: &Process,
        abstract_spec: &Process,
    ) -> Result<Option<Attack>, VerifyError> {
        Ok(match self.check(concrete, abstract_spec)?.verdict {
            Verdict::Attack(a) => Some(a),
            // Inconclusive means no *sound* attack was found; callers who
            // must distinguish use [`Verifier::check`].
            Verdict::SecurelyImplements | Verdict::Inconclusive { .. } => None,
        })
    }

    fn role_map(&self) -> RoleMap {
        let mut roles = RoleMap::new();
        for (name, bits) in &self.roles {
            // Positions are within the protocol, which sits at ‖0 of
            // (νC)(P | X).
            let path: Path = format!("0{bits}")
                .parse()
                .expect("role paths are bit strings");
            roles.role(name.clone(), path);
        }
        roles
    }

    /// Renders the run realizing `witness` in the paper's notation.
    fn narrate_witness(&self, lts: &Lts, witness: &[String]) -> Vec<String> {
        let Some(path) = find_realization(lts, witness) else {
            return vec!["(no realization found)".into()];
        };
        let roles = self.role_map();
        let mut counter = 0usize;
        let mut lines = Vec::new();
        for (s, e) in path {
            let names = lts.config(lts.states[s].edges[e].target()).names();
            let who = |p: &Path| roles.role_of(p).unwrap_or_else(|| p.to_bits());
            match &lts.descs(s)[e] {
                StepDesc::Internal(StepInfo::Comm(ci)) => {
                    counter += 1;
                    lines.push(format!(
                        "Message {counter}   {} → {} : {}",
                        who(&ci.sender),
                        who(&ci.receiver),
                        ci.payload.display(names)
                    ));
                }
                StepDesc::Internal(StepInfo::Unfold { path }) => {
                    lines.push(format!(
                        "            {} spawns a new session instance",
                        who(path)
                    ));
                }
                StepDesc::Intercept { from, payload, .. } => {
                    counter += 1;
                    lines.push(format!(
                        "Message {counter}   {} → E : {}    E intercepts",
                        who(from),
                        payload.display(names)
                    ));
                }
                StepDesc::Inject { to, payload, .. } => {
                    counter += 1;
                    let target = who(to);
                    let pretending = self
                        .roles
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .find(|n| !target.starts_with(*n))
                        .unwrap_or("A");
                    lines.push(format!(
                        "Message {counter}   E({pretending}) → {target} : {}    E pretending to be {pretending}",
                        payload.display(names)
                    ));
                }
                StepDesc::Observe {
                    from,
                    chan,
                    payload,
                } => {
                    lines.push(format!(
                        "            {} reveals {} on {}",
                        who(from),
                        payload.display(names),
                        chan
                    ));
                }
                StepDesc::Fault {
                    kind,
                    chan,
                    payload,
                } => {
                    counter += 1;
                    lines.push(format!(
                        "Message {counter}   network {kind}s {} on {}",
                        payload.display(names),
                        chan
                    ));
                }
            }
        }
        lines
    }
}

/// The `--engine both` cross-check of one comparison: agreeing verdicts
/// return the trace engine's (its witness tie-break prefers origin-rich
/// counterexamples); disagreeing ones are the loud
/// [`VerifyError::EngineDisagreement`], whose witness is the one claimed
/// by whichever engine answered *Fails* (at most one can when they
/// disagree).
pub(crate) fn cross_check(
    trace: TraceVerdict,
    bisim: TraceVerdict,
) -> Result<TraceVerdict, VerifyError> {
    if std::mem::discriminant(&trace) == std::mem::discriminant(&bisim) {
        return Ok(trace);
    }
    let witness = [&trace, &bisim]
        .into_iter()
        .find_map(|v| match v {
            TraceVerdict::Fails { witness } => Some(witness.clone()),
            _ => None,
        })
        .unwrap_or_default();
    Err(VerifyError::EngineDisagreement {
        trace: verdict_summary(&trace),
        bisim: verdict_summary(&bisim),
        witness,
    })
}

/// A one-line rendering of a [`TraceVerdict`] for disagreement reports.
fn verdict_summary(v: &TraceVerdict) -> String {
    match v {
        TraceVerdict::Holds { .. } => "holds".into(),
        TraceVerdict::Fails { witness } => format!("fails ({} events)", witness.len()),
        TraceVerdict::Inconclusive { exhausted } => format!("inconclusive ({exhausted:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse;

    // The paper's Section 5 protocols, spelled as source text (the
    // `spi-protocols` builders produce behaviourally identical terms, but
    // this crate cannot depend on them without a cycle).
    const P1: &str = "(^m) c<m> | c(z).observe<z>";
    const P2: &str = "(^kAB)((^m) c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)";
    const P_ABS: &str = "(^s)(s<s>.(^m)c<m> | s@lamB(x_s).c@lamB(z).observe<z>)";
    const PM2: &str = "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)";
    const PM3: &str = "(^kAB)(!(^m)c(ns).c<{m, ns}kAB> | \
         !(^nb)c<nb>.c(x).case x of {z, w}kAB in [w = nb]observe<z>)";
    const PM_ABS: &str = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)";

    fn p(src: &str) -> Process {
        parse(src).expect("test protocol parses")
    }

    /// The protocol under the faulty network alone, two sessions.
    fn faulty(clauses: &str) -> Verifier {
        let clauses = clauses
            .split('+')
            .map(|c| c.parse::<spi_semantics::FaultClause>().unwrap());
        Verifier::new(["c"])
            .sessions(2)
            .no_intruder()
            .faults(spi_semantics::FaultSpec::new(clauses))
    }

    #[test]
    fn decision_only_explorations_match_the_pinned_systems() {
        // The systems `tests/multi_session.rs` pins bit for bit (same
        // state and edge counts), each explored keeping payloads and
        // only to be decided: the decision-only run drops step
        // descriptions and payloads but must agree on everything a
        // preorder check reads.
        let cases = [
            ("pm2 s2", PM2, Verifier::new(["c"]).sessions(2), (194, 636)),
            (
                "pm3 s2",
                PM3,
                Verifier::new(["c"]).sessions(2),
                (5_605, 27_326),
            ),
            (
                "pm2 s3 full",
                PM2,
                Verifier::new(["c"])
                    .sessions(3)
                    .reduce(ReduceOptions::full()),
                (143, 749),
            ),
            ("pm2 drop", PM2, faulty("drop:c:1"), (55, 104)),
            ("pm2 duplicate", PM2, faulty("duplicate:c:1"), (78, 148)),
            ("pm2 reorder", PM2, faulty("reorder:c:1"), (87, 166)),
            ("pm2 replay", PM2, faulty("replay:c:1"), (225, 500)),
            (
                "pm3 reorder+replay",
                PM3,
                faulty("reorder:c:1+replay:c:1"),
                (12_616, 38_349),
            ),
        ];
        for (name, src, verifier, counts) in cases {
            for workers in [1, 2] {
                let v = verifier.clone().workers(workers);
                let system = v.under_attack(&p(src));
                let explorer = Explorer::new(v.explore_opts());
                let kept = explorer.explore(&system).unwrap();
                let decided = explorer.explore_to_decide(&system).unwrap();
                assert_eq!(
                    (kept.stats.states, kept.stats.edges),
                    counts,
                    "{name} w{workers}"
                );
                assert!(!decided.keeps_payloads(), "{name} w{workers}");
                assert!(
                    decided.decision_view() == kept.decision_view(),
                    "{name} w{workers}: the decision views differ"
                );
            }
        }
    }

    #[test]
    fn a_decision_only_lts_retains_at_most_64_bytes_per_edge() {
        // The largest schedule of a Pm3 depth-2 campaign.  Each edge
        // used to hold a full label (a 248-byte step description plus
        // cloned terms, ~443 bytes per edge in all); now it is an
        // observation id and a target.
        let v = faulty("reorder:c:1+replay:c:1").workers(1);
        let system = v.under_attack(&p(PM3));
        let explorer = Explorer::new(v.explore_opts());
        let before = crate::live_bytes::live();
        let lts = explorer.explore_to_decide(&system).unwrap();
        let retained = crate::live_bytes::live() - before;
        let edges = lts.stats.edges as i64;
        assert_eq!((lts.stats.states, edges), (12_616, 38_349));
        assert!(
            retained <= 64 * edges,
            "{retained} bytes retained for {edges} edges: {:.1} per edge",
            retained as f64 / edges as f64
        );
    }

    #[test]
    fn under_attack_places_the_intruder_slot() {
        let v = Verifier::new(["c"]);
        let sys = v.under_attack(&p(P1));
        // (νc)((A | B) | 0)
        match &sys {
            Process::Restrict(c, body) => {
                assert_eq!(c.as_str(), "c");
                match body.as_ref() {
                    Process::Par(_, slot) => assert!(slot.is_nil()),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_key_single_session_holds() {
        let v = Verifier::new(["c"]).sessions(1);
        let report = v.check(&p(P2), &p(P_ABS)).unwrap();
        assert!(
            matches!(report.verdict, Verdict::SecurelyImplements),
            "{report:?}"
        );
        assert!(report.traces_checked > 0);
    }

    #[test]
    fn equivalence_is_symmetric_on_identical_protocols() {
        let v = Verifier::new(["c"]).sessions(1);
        let p2 = p(P2);
        assert!(v.check_equivalence(&p2, &p2).unwrap().is_none());
    }

    #[test]
    fn equivalence_reports_the_failing_direction() {
        let v = Verifier::new(["c"]).sessions(1);
        let spec = p(P_ABS);
        let p1 = p(P1);
        // P1 has behaviours P lacks (the injected message).
        match v.check_equivalence(&p1, &spec).unwrap() {
            Some((EquivDirection::LeftNotInRight, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
        match v.check_equivalence(&spec, &p1).unwrap() {
            Some((EquivDirection::RightNotInLeft, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn p2_and_p_are_not_equivalent_only_preordered() {
        // P2 implements P, but P has behaviours P2 lacks?  In fact both
        // directions hold here: under the intruder both systems produce
        // the same observable set (deliver M or nothing).  The check
        // documents it.
        let v = Verifier::new(["c"]).sessions(1);
        assert!(v.check_equivalence(&p(P2), &p(P_ABS)).unwrap().is_none());
    }

    #[test]
    fn tiny_budget_answers_inconclusive_not_error() {
        let v = Verifier::new(["c"]).sessions(1).budget(Budget::unlimited().states(3));
        let report = v
            .check(&p(P2), &p(P_ABS))
            .expect("degradation, not an error");
        match report.verdict {
            Verdict::Inconclusive {
                exhausted,
                coverage,
            } => {
                assert_eq!(exhausted, ResourceKind::States);
                assert!(!coverage.is_empty(), "partial coverage is reported");
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert!(!report.concrete_coverage.is_empty());
        // And no attack is (soundly) claimed.
        assert!(v.find_attack(&p(P1), &p(P_ABS)).unwrap().is_none());
    }

    #[test]
    fn growing_the_budget_decides_the_check() {
        let small = Verifier::new(["c"]).sessions(1).budget(Budget::unlimited().states(3));
        assert!(!small.check(&p(P2), &p(P_ABS)).unwrap().verdict.decided());
        let big = Verifier::new(["c"]).sessions(1);
        assert!(matches!(
            big.check(&p(P2), &p(P_ABS)).unwrap().verdict,
            Verdict::SecurelyImplements
        ));
    }

    #[test]
    fn a_cancelled_verifier_answers_inconclusive() {
        let flag = Arc::new(AtomicBool::new(true));
        let v = Verifier::new(["c"]).sessions(2).cancel(Arc::clone(&flag));
        let report = v.check(&p(PM2), &p(PM_ABS)).expect("graceful");
        match report.verdict {
            Verdict::Inconclusive { exhausted, .. } => {
                assert_eq!(exhausted, ResourceKind::WallClock);
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        // Clearing the flag restores the full answer.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(
            v.check(&p(PM2), &p(PM_ABS)).unwrap().verdict,
            Verdict::Attack(_)
        ));
    }

    #[test]
    fn pm2_campaign_rediscovers_the_replay_minimally() {
        use spi_semantics::FaultKind;
        // No intruder: any attack is attributable to the network alone,
        // so shrinking cannot collapse the schedule to nothing.
        let v = Verifier::new(["c"]).sessions(2).no_intruder();
        let report = v
            .run_campaign(&p(PM2), &p(PM_ABS), &v.campaign_options(2))
            .unwrap();
        assert_eq!(report.enumerated, 14, "depth-2 universe over one channel");
        let (attacks, survives, inconclusive) = report.tally();
        assert!(attacks > 0, "{report:?}");
        assert_eq!(inconclusive, 0);
        assert!(survives > 0, "drops alone cannot break Pm2");
        for (_, cex) in report.attacks() {
            assert_eq!(
                cex.schedule.total_firings(),
                1,
                "every attack shrinks to one message-creating fault: {cex:?}"
            );
            assert!(matches!(
                cex.schedule.clauses[0].kind,
                FaultKind::Duplicate | FaultKind::Replay
            ));
            let narration = v.narrate_counterexample(&p(PM2), cex).unwrap();
            assert!(!narration.is_empty());
        }
    }

    #[test]
    fn pm3_campaign_survives_depth_one() {
        let v = Verifier::new(["c"]).sessions(2).no_intruder();
        let report = v
            .run_campaign(&p(PM3), &p(PM_ABS), &v.campaign_options(1))
            .unwrap();
        assert!(report.all_survive(), "{report:?}");
    }

    #[test]
    fn reduction_preserves_verdicts_and_shrinks_the_search() {
        let plain = Verifier::new(["c"]).sessions(2);
        let reduced = plain.clone().reduce(ReduceOptions::full());
        // The replay attack on Pm2 survives reduction; Pm3 still holds.
        let attack = reduced.check(&p(PM2), &p(PM_ABS)).unwrap();
        assert!(matches!(attack.verdict, Verdict::Attack(_)), "{attack:?}");
        assert_eq!(attack.reduce, ReduceOptions::full());
        let secure = reduced.check(&p(PM3), &p(PM_ABS)).unwrap();
        assert!(
            matches!(secure.verdict, Verdict::SecurelyImplements),
            "{secure:?}"
        );
        // And the reduced search is strictly smaller.
        let baseline = plain.check(&p(PM2), &p(PM_ABS)).unwrap();
        assert!(
            attack.concrete_stats.states < baseline.concrete_stats.states,
            "{} vs {}",
            attack.concrete_stats.states,
            baseline.concrete_stats.states
        );
    }

    #[test]
    fn every_engine_reaches_the_same_verdicts() {
        for engine in [Engine::Trace, Engine::Bisim, Engine::Both] {
            let v1 = Verifier::new(["c"]).sessions(1).engine(engine);
            let ok = v1.check(&p(P2), &p(P_ABS)).unwrap();
            assert!(
                matches!(ok.verdict, Verdict::SecurelyImplements),
                "{engine}: {:?}",
                ok.verdict
            );
            assert_eq!(ok.engine, engine);
            assert!(ok.traces_checked > 0, "{engine}");
            let attack = v1.check(&p(P1), &p(P_ABS)).unwrap();
            let Verdict::Attack(a) = attack.verdict else {
                panic!("{engine}: expected an attack, got {:?}", attack.verdict);
            };
            assert!(!a.narration.is_empty(), "{engine}: witness narrates");
        }
        // Cross-checked on the replay-prone multi-session protocol too.
        let v = Verifier::new(["c"]).sessions(2).engine(Engine::Both);
        assert!(matches!(
            v.check(&p(PM2), &p(PM_ABS)).unwrap().verdict,
            Verdict::Attack(_)
        ));
    }

    #[test]
    fn plaintext_single_session_fails_with_narration() {
        let v = Verifier::new(["c"]).sessions(1);
        let attack = v
            .find_attack(&p(P1), &p(P_ABS))
            .unwrap()
            .expect("the plaintext protocol is attackable");
        assert!(!attack.narration.is_empty());
        let text = attack.narration.join("\n");
        assert!(text.contains("E"), "the intruder appears: {text}");
    }

    #[test]
    fn cross_check_blames_whichever_engine_fails() {
        let fails = || TraceVerdict::Fails {
            witness: vec!["observe!a".into()],
        };
        let holds = || TraceVerdict::Holds { checked: 1 };
        assert_eq!(cross_check(fails(), fails()).unwrap(), fails());
        for (trace, bisim) in [(fails(), holds()), (holds(), fails())] {
            match cross_check(trace, bisim) {
                Err(VerifyError::EngineDisagreement { witness, .. }) => {
                    assert_eq!(witness, vec!["observe!a".to_string()]);
                }
                other => panic!("expected a disagreement, got {other:?}"),
            }
        }
    }
}
