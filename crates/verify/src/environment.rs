//! The explorer's environments: the most-general intruder and the faulty
//! network.
//!
//! Definition 4 quantifies over environments `X ∈ E_C` that touch the
//! protocol only by taking outputs and delivering inputs on `C`.  Both
//! environments are written that way here, on three per-leaf primitives
//! shared by the two actors: [`take`] consumes an output, [`peek`] reads
//! the payload an output would yield without consuming it, and
//! [`deliver`] sends a message into an input.  Each goes through the
//! machine's `take_output`/`deliver` hooks at the actor's seat, so
//! localization (partner authentication) refuses an environment like any
//! other party: a refused move is simply not a successor.

use std::collections::BTreeSet;

use spi_addr::Path;
use spi_semantics::{FaultKind, FaultSpec, LeafState, NameTable, NetworkState, RtProcess, RtTerm};
use spi_syntax::Name;

use crate::explore::{Label, StateData, StepDesc};
use crate::DeriveCache;

/// The most-general bounded intruder of the paper's attacker class `E_C`.
///
/// The intruder occupies a fixed position of the process tree (usually
/// the right sibling of the protocol in `(νC)(P | X)`), communicates only
/// over the channels whose base spelling is listed in `channels` — the
/// set `C` of Definition 4 — and may invent up to `fresh_budget` fresh
/// names of its own (the `(νM_E)` of the paper's attack on `P1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntruderSpec {
    /// The intruder's tree position.
    pub position: Path,
    /// The base spellings of the protocol channels `C`.
    pub channels: BTreeSet<Name>,
    /// How many fresh names the intruder may create.
    pub fresh_budget: u32,
    /// Cap on freshly synthesized ciphertext candidates per injection.
    pub synth_cap: usize,
}

impl IntruderSpec {
    /// An intruder at `position` talking over `channels`, with one fresh
    /// name and a small synthesis cap.
    #[must_use]
    pub fn new<I, N>(position: Path, channels: I) -> IntruderSpec
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        IntruderSpec {
            position,
            channels: channels.into_iter().map(Into::into).collect(),
            fresh_budget: 1,
            synth_cap: 16,
        }
    }
}

/// Takes the output at `path` as the environment at `seat`: the successor
/// with the output consumed, and the payload stamped with its sender.
/// `None` when the output's localization refuses the seat.
fn take(sd: &StateData, path: &Path, seat: &Path) -> Option<(StateData, RtTerm)> {
    let mut next = sd.clone();
    let payload = next.cfg.take_output(path, seat).ok()?.payload;
    Some((next, payload))
}

/// The payload [`take`] would yield, stamped with its true sender, without
/// consuming the output.  Copies must preserve origin, or replays would be
/// invisible to origin-aware testers.
fn peek(sd: &StateData, path: &Path, seat: &Path) -> Option<RtTerm> {
    let mut probe = sd.cfg.clone();
    probe
        .take_output(path, seat)
        .ok()
        .map(|taken| taken.payload)
}

/// Delivers `payload` from `seat` into the input at `path` of `next`, or
/// `None` when the input's localization refuses the seat.
fn deliver(mut next: StateData, path: &Path, payload: &RtTerm, seat: &Path) -> Option<StateData> {
    next.cfg.deliver(path, payload.clone(), seat.clone()).ok()?;
    Some(next)
}

/// The base spelling of a channel subject that is a name.
fn base_of<'n>(subject: &RtTerm, names: &'n NameTable) -> Option<&'n Name> {
    match subject {
        RtTerm::Id(id) => Some(&names.entry(*id).base),
        _ => None,
    }
}

/// A leaf filter: the channel subject is a name spelled `chan`.
fn spelled<'n>(chan: &'n Name, names: &'n NameTable) -> impl Fn(&RtTerm) -> bool + 'n {
    move |subject| base_of(subject, names) == Some(chan)
}

/// The output leaves of `sd` whose channel subject passes `on`, in leaf
/// order, with that subject.
fn outputs<'s>(
    sd: &'s StateData,
    on: impl Fn(&RtTerm) -> bool + 's,
) -> impl Iterator<Item = (Path, &'s RtTerm)> + 's {
    sd.cfg
        .tree()
        .leaves()
        .filter_map(move |(path, leaf)| match leaf {
            LeafState::Out { chan, .. } if on(&chan.subject) => Some((path, &chan.subject)),
            _ => None,
        })
}

/// The input leaves of `sd` whose channel subject passes `on`, in leaf
/// order.
fn inputs<'s>(
    sd: &'s StateData,
    on: impl Fn(&RtTerm) -> bool + 's,
) -> impl Iterator<Item = Path> + 's {
    sd.cfg
        .tree()
        .leaves()
        .filter_map(move |(path, leaf)| match leaf {
            LeafState::In { chan, .. } if on(&chan.subject) => Some(path),
            _ => None,
        })
}

/// The intruder's moves, leaf by leaf: intercept every output on `C` the
/// localization lets it take (learning the payload), and inject every
/// candidate message into every input on `C` that accepts it.  Each move
/// carries a step description iff `describe`.
pub(crate) fn intruder_moves(
    sd: &StateData,
    spec: &IntruderSpec,
    cache: &mut DeriveCache,
    describe: bool,
    out: &mut Vec<(Label, StateData)>,
) {
    let seat = &spec.position;
    let names = sd.cfg.names();
    let on_c =
        |subject: &RtTerm| base_of(subject, names).is_some_and(|b| spec.channels.contains(b));
    for (path, leaf) in sd.cfg.tree().leaves() {
        match leaf {
            LeafState::Out { chan, .. } if on_c(&chan.subject) => {
                if let Some((mut next, payload)) = take(sd, &path, seat) {
                    let desc = describe.then(|| StepDesc::Intercept {
                        from: path.clone(),
                        subject: chan.subject.clone(),
                        payload: payload.clone(),
                    });
                    next.knowledge.learn(payload);
                    out.push((Label::Tau(desc), next));
                }
            }
            LeafState::In { chan, var, cont } if on_c(&chan.subject) => {
                for candidate in injection_candidates(sd, spec, var, cont, cache) {
                    let mut next = sd.clone();
                    let payload = match candidate {
                        Candidate::Known(t) => t,
                        Candidate::Fresh => {
                            let id = next.cfg.alloc_env_name(&Name::new("mE"), seat.clone());
                            next.fresh_made += 1;
                            next.knowledge.learn(RtTerm::Id(id));
                            RtTerm::Id(id)
                        }
                    };
                    if let Some(next) = deliver(next, &path, &payload, seat) {
                        let desc = describe.then(|| StepDesc::Inject {
                            to: path.clone(),
                            subject: chan.subject.clone(),
                            payload,
                        });
                        out.push((Label::Tau(desc), next));
                    }
                }
            }
            _ => {}
        }
    }
}

/// The faulty network's moves, clause by clause: drop and reorder take an
/// output (reorder buffers it), duplicate delivers a peeked copy into
/// every input on the same channel subject, and replay taps peeked
/// messages into the log (free, deduplicated) and delivers logged ones.
/// Buffered messages are then re-delivered free of charge: the fault was
/// charged at capture.  Each move carries a step description iff
/// `describe`.
pub(crate) fn fault_moves(
    sd: &StateData,
    fspec: &FaultSpec,
    describe: bool,
    out: &mut Vec<(Label, StateData)>,
) {
    let Some(net) = sd.net.as_ref() else {
        return;
    };
    let seat = &fspec.position;
    let names = sd.cfg.names();
    for (ci, clause) in fspec.clauses.iter().enumerate() {
        let chan = &clause.chan;
        let charged = net.remaining(fspec, ci) > 0;
        match clause.kind {
            FaultKind::Drop | FaultKind::Reorder if charged => {
                for (path, _) in outputs(sd, spelled(chan, names)) {
                    let Some((mut next, payload)) = take(sd, &path, seat) else {
                        continue;
                    };
                    let nn = network(&mut next);
                    nn.used[ci] += 1;
                    if clause.kind == FaultKind::Reorder {
                        nn.buffer.push((chan.clone(), payload.clone()));
                    }
                    nn.log_message(chan, &payload);
                    let payload = describe.then_some(payload);
                    out.push(fault(clause.kind, chan, payload, next));
                }
            }
            FaultKind::Duplicate if charged => {
                for (path, subject) in outputs(sd, spelled(chan, names)) {
                    let Some(stamped) = peek(sd, &path, seat) else {
                        continue;
                    };
                    for to in inputs(sd, |s| s == subject) {
                        if let Some(mut next) = deliver(sd.clone(), &to, &stamped, seat) {
                            let nn = network(&mut next);
                            nn.used[ci] += 1;
                            nn.log_message(chan, &stamped);
                            let payload = describe.then(|| stamped.clone());
                            out.push(fault(FaultKind::Duplicate, chan, payload, next));
                        }
                    }
                }
            }
            FaultKind::Replay => {
                for (path, _) in outputs(sd, spelled(chan, names)) {
                    let Some(stamped) = peek(sd, &path, seat) else {
                        continue;
                    };
                    if net.log.iter().any(|(c, m)| c == chan && *m == stamped) {
                        continue;
                    }
                    let mut next = sd.clone();
                    network(&mut next).log_message(chan, &stamped);
                    let payload = describe.then_some(stamped);
                    out.push(fault(FaultKind::Replay, chan, payload, next));
                }
                if !charged {
                    continue;
                }
                for (_, msg) in net.log.iter().filter(|(c, _)| c == chan) {
                    for to in inputs(sd, spelled(chan, names)) {
                        if let Some(mut next) = deliver(sd.clone(), &to, msg, seat) {
                            network(&mut next).used[ci] += 1;
                            let payload = describe.then(|| msg.clone());
                            out.push(fault(FaultKind::Replay, chan, payload, next));
                        }
                    }
                }
            }
            FaultKind::Drop | FaultKind::Reorder | FaultKind::Duplicate => {}
        }
    }
    for (bi, (chan, msg)) in net.buffer.iter().enumerate() {
        for to in inputs(sd, spelled(chan, names)) {
            if let Some(mut next) = deliver(sd.clone(), &to, msg, seat) {
                network(&mut next).buffer.remove(bi);
                let payload = describe.then(|| msg.clone());
                out.push(fault(FaultKind::Reorder, chan, payload, next));
            }
        }
    }
}

/// The network state of a successor of a state that has one.
fn network(next: &mut StateData) -> &mut NetworkState {
    next.net.get_or_insert_with(NetworkState::default)
}

/// A fault edge, described iff the affected message is given.
fn fault(
    kind: FaultKind,
    chan: &Name,
    payload: Option<RtTerm>,
    next: StateData,
) -> (Label, StateData) {
    let desc = payload.map(|payload| StepDesc::Fault {
        kind,
        chan: chan.clone(),
        payload,
    });
    (Label::Tau(desc), next)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Candidate {
    Known(RtTerm),
    Fresh,
}

/// Candidate payloads for injecting into an input: everything analyzed,
/// one fresh name (budget permitting), and — when the receiver's
/// continuation immediately decrypts under a known shape — ciphertexts of
/// that shape.
fn injection_candidates(
    sd: &StateData,
    spec: &IntruderSpec,
    var: &spi_syntax::Var,
    cont: &RtProcess,
    cache: &mut DeriveCache,
) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = sd.knowledge.iter().cloned().map(Candidate::Known).collect();
    if sd.fresh_made < spec.fresh_budget {
        cands.push(Candidate::Fresh);
    }
    match expected_shape(var, cont) {
        Some(Shape::Cipher { key, arity }) => {
            for t in cache.ciphertext_candidates(&sd.knowledge, &key, arity, spec.synth_cap) {
                let c = Candidate::Known(t);
                if !cands.contains(&c) {
                    cands.push(c);
                }
            }
        }
        Some(Shape::Pair) => {
            // Synthesize pairs of analyzed messages, capped.
            let atoms: Vec<RtTerm> = sd.knowledge.iter().cloned().collect();
            'outer: for a in &atoms {
                for b in &atoms {
                    let c = Candidate::Known(RtTerm::Pair {
                        fst: Box::new(a.clone()),
                        snd: Box::new(b.clone()),
                        creator: None,
                    });
                    if !cands.contains(&c) {
                        cands.push(c);
                    }
                    if cands.len() > spec.synth_cap + sd.knowledge.len() + 1 {
                        break 'outer;
                    }
                }
            }
        }
        None => {}
    }
    cands
}

/// The message shape the receiver's continuation expects of its input.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// The input is immediately decrypted: `case x of {…}key`.
    Cipher { key: RtTerm, arity: usize },
    /// The input is immediately projected: `let (y, z) = x in …`.
    Pair,
}

/// When the continuation of an input binding `var` immediately destructs
/// `var` (possibly under restrictions and matchings), the expected shape
/// guides injection synthesis.
fn expected_shape(var: &spi_syntax::Var, cont: &RtProcess) -> Option<Shape> {
    let mut cur = cont;
    loop {
        match cur {
            RtProcess::Case {
                scrutinee,
                binders,
                key,
                ..
            } if scrutinee == &RtTerm::Var(var.clone()) && key.is_message() => {
                return Some(Shape::Cipher {
                    key: key.clone(),
                    arity: binders.len(),
                });
            }
            RtProcess::Split { pair, .. } if pair == &RtTerm::Var(var.clone()) => {
                return Some(Shape::Pair);
            }
            RtProcess::Restrict(_, body) => cur = body,
            RtProcess::Match(_, _, c)
            | RtProcess::AddrMatchT(_, _, c)
            | RtProcess::AddrMatchL(_, _, c) => cur = c,
            _ => return None,
        }
    }
}
