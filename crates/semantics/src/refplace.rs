//! The owned substitution chain, kept as a test-only reference for
//! one-pass placement.
//!
//! Before placement carried its substitutions in a [`Subst`], every step
//! copied the continuation once per substitution: `subst_var` for the
//! payload, `subst_loc` for a location variable, one `subst_sym` per
//! executed restriction and one `subst_var` per decryption or split
//! binder, each an owned rewrite of the whole residual.  This module keeps
//! that chain — and `from_process`, `take_output`, `deliver` and `unfold`
//! built on it — so the differential test below can check that the
//! production machine produces exactly the same configurations, name
//! tables and step records.
//!
//! [`Subst`]: crate::place::Subst

use std::sync::Arc;

use spi_addr::{Branch, Path, ProcTree};
use spi_syntax::{LocVar, Name, Process, Var};

use crate::machine::index_allows;
use crate::place::resolve_channel;
use crate::value::{addr_match_lit, addr_match_terms, match_eq};
use crate::{
    CommInfo, Config, LeafState, MachineError, NameId, NameTable, RtChanIndex, RtChannel,
    RtProcess, RtTerm, StepInfo,
};

fn term_subst_var(t: &RtTerm, var: &Var, value: &RtTerm) -> RtTerm {
    match t {
        RtTerm::Var(v) if v == var => value.clone(),
        RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::Id(_) => t.clone(),
        RtTerm::Pair { fst, snd, creator } => RtTerm::Pair {
            fst: Box::new(term_subst_var(fst, var, value)),
            snd: Box::new(term_subst_var(snd, var, value)),
            creator: creator.clone(),
        },
        RtTerm::Enc { body, key, creator } => RtTerm::Enc {
            body: body.iter().map(|x| term_subst_var(x, var, value)).collect(),
            key: Box::new(term_subst_var(key, var, value)),
            creator: creator.clone(),
        },
        RtTerm::LocatedLit { addr, inner } => RtTerm::LocatedLit {
            addr: addr.clone(),
            inner: Box::new(term_subst_var(inner, var, value)),
        },
    }
}

fn term_subst_sym(t: &RtTerm, sym: &Name, id: NameId) -> RtTerm {
    match t {
        RtTerm::Sym(n) if n == sym => RtTerm::Id(id),
        RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::Id(_) => t.clone(),
        RtTerm::Pair { fst, snd, creator } => RtTerm::Pair {
            fst: Box::new(term_subst_sym(fst, sym, id)),
            snd: Box::new(term_subst_sym(snd, sym, id)),
            creator: creator.clone(),
        },
        RtTerm::Enc { body, key, creator } => RtTerm::Enc {
            body: body.iter().map(|x| term_subst_sym(x, sym, id)).collect(),
            key: Box::new(term_subst_sym(key, sym, id)),
            creator: creator.clone(),
        },
        RtTerm::LocatedLit { addr, inner } => RtTerm::LocatedLit {
            addr: addr.clone(),
            inner: Box::new(term_subst_sym(inner, sym, id)),
        },
    }
}

fn chan_map(ch: &RtChannel, f: &mut impl FnMut(&RtTerm) -> RtTerm) -> RtChannel {
    RtChannel {
        subject: f(&ch.subject),
        index: ch.index.clone(),
    }
}

/// Applies `f` to every term of `p`, stopping descent when `stop` says
/// a construct shadows what `f` substitutes.
fn map<S, F>(p: &RtProcess, stop: &S, f: &mut F) -> RtProcess
where
    S: Fn(&RtProcess) -> bool,
    F: FnMut(&RtTerm) -> RtTerm,
{
    if stop(p) {
        return p.clone();
    }
    match p {
        RtProcess::Nil => RtProcess::Nil,
        RtProcess::Output(ch, t, cont) => {
            RtProcess::Output(chan_map(ch, f), f(t), Box::new(map(cont, stop, f)))
        }
        RtProcess::Input(ch, x, cont) => {
            RtProcess::Input(chan_map(ch, f), x.clone(), Box::new(map(cont, stop, f)))
        }
        RtProcess::Restrict(n, body) => {
            RtProcess::Restrict(n.clone(), Box::new(map(body, stop, f)))
        }
        RtProcess::Par(l, r) => {
            RtProcess::Par(Box::new(map(l, stop, f)), Box::new(map(r, stop, f)))
        }
        RtProcess::Match(a, b, cont) => RtProcess::Match(f(a), f(b), Box::new(map(cont, stop, f))),
        RtProcess::AddrMatchT(a, b, cont) => {
            RtProcess::AddrMatchT(f(a), f(b), Box::new(map(cont, stop, f)))
        }
        RtProcess::AddrMatchL(a, l, cont) => {
            RtProcess::AddrMatchL(f(a), l.clone(), Box::new(map(cont, stop, f)))
        }
        RtProcess::Bang(body) => RtProcess::Bang(Box::new(map(body, stop, f))),
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => RtProcess::Split {
            pair: f(pair),
            fst: fst.clone(),
            snd: snd.clone(),
            body: Box::new(map(body, stop, f)),
        },
        RtProcess::Case {
            scrutinee,
            binders,
            key,
            body,
        } => RtProcess::Case {
            scrutinee: f(scrutinee),
            binders: binders.clone(),
            key: f(key),
            body: Box::new(map(body, stop, f)),
        },
    }
}

/// Substitutes a (closed) message for a variable, stopping below binders
/// that shadow `var` (their channel subject and scrutinee are still
/// substituted, as they lie outside the binder's scope).
fn subst_var(p: &RtProcess, var: &Var, value: &RtTerm) -> RtProcess {
    let term = |t: &RtTerm| term_subst_var(t, var, value);
    match p {
        RtProcess::Nil => RtProcess::Nil,
        RtProcess::Output(ch, t, cont) => RtProcess::Output(
            chan_map(ch, &mut |x| term(x)),
            term(t),
            Box::new(subst_var(cont, var, value)),
        ),
        RtProcess::Input(ch, x, cont) => {
            let ch = chan_map(ch, &mut |t| term(t));
            if x == var {
                RtProcess::Input(ch, x.clone(), cont.clone())
            } else {
                RtProcess::Input(ch, x.clone(), Box::new(subst_var(cont, var, value)))
            }
        }
        RtProcess::Restrict(n, body) => {
            RtProcess::Restrict(n.clone(), Box::new(subst_var(body, var, value)))
        }
        RtProcess::Par(l, r) => RtProcess::Par(
            Box::new(subst_var(l, var, value)),
            Box::new(subst_var(r, var, value)),
        ),
        RtProcess::Match(a, b, cont) => {
            RtProcess::Match(term(a), term(b), Box::new(subst_var(cont, var, value)))
        }
        RtProcess::AddrMatchT(a, b, cont) => {
            RtProcess::AddrMatchT(term(a), term(b), Box::new(subst_var(cont, var, value)))
        }
        RtProcess::AddrMatchL(a, l, cont) => {
            RtProcess::AddrMatchL(term(a), l.clone(), Box::new(subst_var(cont, var, value)))
        }
        RtProcess::Bang(body) => RtProcess::Bang(Box::new(subst_var(body, var, value))),
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => RtProcess::Split {
            pair: term(pair),
            fst: fst.clone(),
            snd: snd.clone(),
            body: if fst == var || snd == var {
                body.clone()
            } else {
                Box::new(subst_var(body, var, value))
            },
        },
        RtProcess::Case {
            scrutinee,
            binders,
            key,
            body,
        } => RtProcess::Case {
            scrutinee: term(scrutinee),
            binders: binders.clone(),
            key: term(key),
            body: if binders.contains(var) {
                body.clone()
            } else {
                Box::new(subst_var(body, var, value))
            },
        },
    }
}

/// Substitutes an allocated name for a symbolic one, stopping below
/// restrictions that rebind the same spelling.
fn subst_sym(p: &RtProcess, sym: &Name, id: NameId) -> RtProcess {
    map(
        p,
        &|q| matches!(q, RtProcess::Restrict(n, _) if n == sym),
        &mut |t| term_subst_sym(t, sym, id),
    )
}

/// Instantiates a location variable with the partner's absolute position.
fn subst_loc(p: &RtProcess, lam: &LocVar, partner: &Path) -> RtProcess {
    let fix = |ch: &RtChannel| RtChannel {
        subject: ch.subject.clone(),
        index: match &ch.index {
            RtChanIndex::Loc(l) if l == lam => RtChanIndex::AtAbs(partner.clone()),
            other => other.clone(),
        },
    };
    let go = |q: &RtProcess| Box::new(subst_loc(q, lam, partner));
    match p {
        RtProcess::Nil => RtProcess::Nil,
        RtProcess::Output(ch, t, cont) => RtProcess::Output(fix(ch), t.clone(), go(cont)),
        RtProcess::Input(ch, x, cont) => RtProcess::Input(fix(ch), x.clone(), go(cont)),
        RtProcess::Restrict(n, body) => RtProcess::Restrict(n.clone(), go(body)),
        RtProcess::Par(l, r) => RtProcess::Par(go(l), go(r)),
        RtProcess::Match(a, b, cont) => RtProcess::Match(a.clone(), b.clone(), go(cont)),
        RtProcess::AddrMatchT(a, b, cont) => RtProcess::AddrMatchT(a.clone(), b.clone(), go(cont)),
        RtProcess::AddrMatchL(a, l, cont) => RtProcess::AddrMatchL(a.clone(), l.clone(), go(cont)),
        RtProcess::Bang(body) => RtProcess::Bang(go(body)),
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => RtProcess::Split {
            pair: pair.clone(),
            fst: fst.clone(),
            snd: snd.clone(),
            body: go(body),
        },
        RtProcess::Case {
            scrutinee,
            binders,
            key,
            body,
        } => RtProcess::Case {
            scrutinee: scrutinee.clone(),
            binders: binders.clone(),
            key: key.clone(),
            body: go(body),
        },
    }
}

fn place(
    proc: RtProcess,
    path: Path,
    names: &mut NameTable,
) -> Result<ProcTree<LeafState>, MachineError> {
    let dead = || Ok(ProcTree::leaf(LeafState::Dead));
    match proc {
        RtProcess::Nil => dead(),
        RtProcess::Par(l, r) => {
            let left = place(*l, path.child(Branch::Left), names)?;
            let right = place(*r, path.child(Branch::Right), names)?;
            Ok(ProcTree::node(left, right))
        }
        RtProcess::Restrict(n, body) => {
            let id = names.alloc_restricted(&n, path.clone());
            place(subst_sym(&body, &n, id), path, names)
        }
        RtProcess::Match(a, b, cont) => {
            if match_eq(&a, &b, &path, names) {
                place(*cont, path, names)
            } else {
                dead()
            }
        }
        RtProcess::AddrMatchT(a, b, cont) => {
            if addr_match_terms(&a, &b, names) {
                place(*cont, path, names)
            } else {
                dead()
            }
        }
        RtProcess::AddrMatchL(a, l, cont) => {
            if addr_match_lit(&a, &l, &path, names) {
                place(*cont, path, names)
            } else {
                dead()
            }
        }
        RtProcess::Case {
            scrutinee,
            binders,
            key,
            body,
        } => {
            let RtTerm::Enc {
                body: parts,
                key: actual_key,
                ..
            } = &scrutinee
            else {
                return dead();
            };
            if **actual_key != key || parts.len() != binders.len() {
                return dead();
            }
            let mut cont = *body;
            for (x, v) in binders.iter().zip(parts.iter()) {
                cont = subst_var(&cont, x, v);
            }
            place(cont, path, names)
        }
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => {
            let RtTerm::Pair { fst: a, snd: b, .. } = &pair else {
                return dead();
            };
            let cont = subst_var(&subst_var(&body, &fst, a), &snd, b);
            place(cont, path, names)
        }
        RtProcess::Output(chan, payload, cont) => {
            if !payload.is_message() {
                return Err(MachineError::NotAMessage {
                    term: payload.display(names),
                });
            }
            Ok(ProcTree::leaf(LeafState::Out {
                chan: resolve_channel(chan, &path),
                payload,
                cont: *cont,
            }))
        }
        RtProcess::Input(chan, var, cont) => Ok(ProcTree::leaf(LeafState::In {
            chan: resolve_channel(chan, &path),
            var,
            cont: *cont,
        })),
        RtProcess::Bang(body) => Ok(ProcTree::leaf(LeafState::Bang {
            body: *body,
            unfolded: 0,
        })),
    }
}

/// Places `proc` at `path` and grafts it into `cfg`'s tree.
fn graft(cfg: &mut Config, proc: RtProcess, path: &Path) -> Result<(), MachineError> {
    let placed = place(proc, path.clone(), Arc::make_mut(&mut cfg.names))?;
    Arc::make_mut(&mut cfg.tree).replace(path, placed)?;
    Ok(())
}

/// [`Config::from_process`] through the owned chain.
pub(crate) fn from_process(p: &Process) -> Result<Config, MachineError> {
    let mut names = NameTable::new();
    let mut rt = RtProcess::from_static(p);
    for n in p.free_names() {
        let id = names.intern_free(&n);
        rt = subst_sym(&rt, &n, id);
    }
    let tree = place(rt, Path::root(), &mut names)?;
    Ok(Config {
        tree: Arc::new(tree),
        names: Arc::new(names),
    })
}

/// [`Config::take_output`] through the owned chain.
pub(crate) fn take_output(
    cfg: &mut Config,
    out_path: &Path,
    receiver: &Path,
) -> Result<CommInfo, MachineError> {
    let LeafState::Out {
        chan,
        mut payload,
        cont,
    } = cfg.tree.leaf_at(out_path)?.clone()
    else {
        return Err(MachineError::NotALeaf {
            path: out_path.clone(),
        });
    };
    if !index_allows(&chan.index, receiver) {
        return Err(MachineError::NotEnabled {
            reason: format!("output localization at {out_path} refuses partner {receiver}"),
        });
    }
    payload.stamp(out_path);
    let cont = match &chan.index {
        RtChanIndex::Loc(lam) => subst_loc(&cont, lam, receiver),
        _ => cont,
    };
    graft(cfg, cont, out_path)?;
    Ok(CommInfo {
        sender: out_path.clone(),
        receiver: receiver.clone(),
        subject: chan.subject,
        payload,
    })
}

/// [`Config::deliver`] through the owned chain.
pub(crate) fn deliver(
    cfg: &mut Config,
    in_path: &Path,
    mut payload: RtTerm,
    sender: Path,
) -> Result<StepInfo, MachineError> {
    if !payload.is_message() {
        return Err(MachineError::NotAMessage {
            term: payload.display(&cfg.names),
        });
    }
    let LeafState::In { chan, var, cont } = cfg.tree.leaf_at(in_path)?.clone() else {
        return Err(MachineError::NotALeaf {
            path: in_path.clone(),
        });
    };
    if !index_allows(&chan.index, &sender) {
        return Err(MachineError::NotEnabled {
            reason: format!("input localization at {in_path} refuses partner {sender}"),
        });
    }
    payload.stamp(&sender);
    let mut cont = subst_var(&cont, &var, &payload);
    if let RtChanIndex::Loc(lam) = &chan.index {
        cont = subst_loc(&cont, lam, &sender);
    }
    graft(cfg, cont, in_path)?;
    Ok(StepInfo::Comm(CommInfo {
        sender,
        receiver: in_path.clone(),
        subject: chan.subject,
        payload,
    }))
}

/// The replication unfolding of [`Config::fire`] through the owned chain.
pub(crate) fn unfold(cfg: &mut Config, path: &Path) -> Result<StepInfo, MachineError> {
    let LeafState::Bang { body, unfolded } = cfg.tree.leaf_at(path)?.clone() else {
        return Err(MachineError::NotALeaf { path: path.clone() });
    };
    let copy = place(
        body.clone(),
        path.child(Branch::Left),
        Arc::make_mut(&mut cfg.names),
    )?;
    let replica = ProcTree::leaf(LeafState::Bang {
        body,
        unfolded: unfolded + 1,
    });
    Arc::make_mut(&mut cfg.tree).replace(path, ProcTree::node(copy, replica))?;
    Ok(StepInfo::Unfold { path: path.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;
    use proptest::prelude::*;
    use spi_addr::RelAddr;
    use spi_syntax::{Channel, Term};

    /// A small deterministic generator of closed processes, built to hit
    /// every scoping case of placement: inputs that rebind a bound
    /// variable, decryption and split binders that shadow (or repeat),
    /// nested restrictions of the same name, and channels localized by a
    /// location variable or an address literal.
    struct Gen {
        state: u64,
    }

    const VARS: [&str; 3] = ["x", "y", "z"];
    const NAMES: [&str; 4] = ["c", "m", "n", "k"];

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            // xorshift64*
            self.state ^= self.state >> 12;
            self.state ^= self.state << 25;
            self.state ^= self.state >> 27;
            (self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }

        fn atom(&mut self, bound: &[&str]) -> Term {
            if !bound.is_empty() && self.below(2) == 0 {
                Term::var(self.pick(bound))
            } else {
                Term::name(self.pick(&NAMES))
            }
        }

        fn term(&mut self, bound: &[&str], depth: usize) -> Term {
            match if depth == 0 { 0 } else { self.below(4) } {
                0 | 1 => self.atom(bound),
                2 => Term::pair(self.term(bound, depth - 1), self.term(bound, depth - 1)),
                _ => {
                    let arity = 1 + self.below(2);
                    let body = (0..arity).map(|_| self.term(bound, depth - 1)).collect();
                    Term::enc(body, self.atom(bound))
                }
            }
        }

        fn channel(&mut self, bound: &[&str]) -> Channel {
            let subject = if self.below(4) == 0 {
                self.atom(bound)
            } else {
                Term::name("c")
            };
            match self.below(5) {
                0 => Channel::loc(subject, "lam"),
                1 => Channel::at(
                    subject,
                    RelAddr::new(Path::root(), Path::from_slice(&[Branch::Right]))
                        .unwrap_or_else(|_| RelAddr::between(&Path::root(), &Path::root())),
                ),
                _ => Channel::plain(subject),
            }
        }

        fn process(&mut self, bound: &mut Vec<&'static str>, depth: usize) -> Process {
            if depth == 0 {
                return Process::Nil;
            }
            let d = depth - 1;
            match self.below(11) {
                0 => Process::Nil,
                1 | 2 => {
                    let ch = self.channel(bound);
                    let payload = self.term(bound, 2);
                    Process::output(ch, payload, self.process(bound, d))
                }
                3 | 4 => {
                    let ch = self.channel(bound);
                    let x = self.pick(&VARS);
                    self.scoped(bound, &[x], d, |cont| Process::input(ch, x, cont))
                }
                5 => {
                    let n = self.pick(&NAMES[1..]);
                    Process::restrict(n, self.process(bound, d))
                }
                6 => Process::par(self.process(bound, d), self.process(bound, d)),
                7 => {
                    let (a, b) = (self.term(bound, 1), self.term(bound, 1));
                    Process::matching(a, b, self.process(bound, d))
                }
                8 => {
                    let scrutinee = self.term(bound, 1);
                    let key = self.atom(bound);
                    let binders = [self.pick(&VARS), self.pick(&VARS)];
                    let arity = 1 + self.below(2);
                    let binders = binders[..arity].to_vec();
                    self.scoped(bound, &binders.clone(), d, |body| {
                        Process::case(scrutinee, binders, key, body)
                    })
                }
                9 => {
                    let pair = self.term(bound, 1);
                    let (x, y) = (self.pick(&VARS), self.pick(&VARS));
                    self.scoped(bound, &[x, y], d, |body| Process::split(pair, x, y, body))
                }
                _ => {
                    if depth > 2 {
                        Process::bang(self.process(bound, d.min(2)))
                    } else {
                        Process::Nil
                    }
                }
            }
        }

        /// Generates a continuation with `vars` bound, then wraps it.
        fn scoped(
            &mut self,
            bound: &mut Vec<&'static str>,
            vars: &[&'static str],
            depth: usize,
            wrap: impl FnOnce(Process) -> Process,
        ) -> Process {
            let mark = bound.len();
            bound.extend_from_slice(vars);
            let cont = self.process(bound, depth);
            bound.truncate(mark);
            wrap(cont)
        }
    }

    /// A few messages to inject: names from the table, and a pair and a
    /// ciphertext built over them (unstamped, so delivery stamps them).
    fn payloads(cfg: &Config) -> Vec<RtTerm> {
        let ids: Vec<RtTerm> = cfg
            .names()
            .iter()
            .map(|(id, _)| RtTerm::Id(id))
            .take(3)
            .collect();
        let mut out = ids.clone();
        if let (Some(a), Some(b)) = (ids.first(), ids.last()) {
            out.push(RtTerm::Pair {
                fst: Box::new(a.clone()),
                snd: Box::new(b.clone()),
                creator: None,
            });
            out.push(RtTerm::Enc {
                body: vec![b.clone()],
                key: Box::new(a.clone()),
                creator: None,
            });
        }
        out
    }

    /// Asserts the production and reference configurations agree, down
    /// to raw name ids.
    fn assert_same(new: &Config, old: &Config) {
        assert_eq!(new.canonical_key(), old.canonical_key());
        assert_eq!(new.names(), old.names());
        assert_eq!(new, old);
    }

    /// Every step the machine offers at `cfg`, run through both
    /// implementations on copies; returns the production successors and
    /// how many steps were compared.
    fn check_steps(cfg: &Config) -> (Vec<Config>, usize) {
        let leaves: Vec<(Path, LeafState)> =
            cfg.tree().leaves().map(|(p, l)| (p, l.clone())).collect();
        let partners: Vec<Path> = leaves
            .iter()
            .map(|(p, _)| p.clone())
            .chain([Path::root(), Path::from_slice(&[Branch::Right; 2])])
            .collect();
        let mut next = Vec::new();
        let mut compared = 0;
        let mut both =
            |step: &dyn Fn(&mut Config) -> Result<StepInfo, MachineError>,
             reference: &dyn Fn(&mut Config) -> Result<StepInfo, MachineError>| {
                let (mut new, mut old) = (cfg.clone(), cfg.deep_clone());
                let (a, b) = (step(&mut new), reference(&mut old));
                assert_eq!(a, b);
                compared += 1;
                if a.is_ok() {
                    assert_same(&new, &old);
                    next.push(new);
                }
            };
        for (path, leaf) in &leaves {
            match leaf {
                LeafState::Out { .. } => {
                    for receiver in &partners {
                        both(
                            &|c| c.take_output(path, receiver).map(StepInfo::Comm),
                            &|c| take_output(c, path, receiver).map(StepInfo::Comm),
                        );
                    }
                }
                LeafState::In { .. } => {
                    for payload in payloads(cfg) {
                        for sender in &partners {
                            both(
                                &|c| c.deliver(path, payload.clone(), sender.clone()),
                                &|c| deliver(c, path, payload.clone(), sender.clone()),
                            );
                        }
                    }
                }
                LeafState::Bang { .. } => {
                    both(&|c| c.fire(&Action::Unfold { path: path.clone() }), &|c| {
                        unfold(c, path)
                    })
                }
                LeafState::Dead => {}
            }
        }
        for action in cfg.enabled(2) {
            if let Action::Comm { out_path, in_path } = &action {
                both(&|c| c.fire(&action), &|c| {
                    let info = take_output(c, out_path, in_path)?;
                    deliver(c, in_path, info.payload, out_path.clone())
                });
            }
        }
        (next, compared)
    }

    /// Loads the process generated from `seed` both ways, then walks six
    /// random steps, comparing every step offered along the way; returns
    /// how many steps were compared.
    fn differential_walk(seed: u64) -> usize {
        let mut gen = Gen { state: seed | 1 };
        let p = gen.process(&mut Vec::new(), 6);
        let (new, old) = (Config::from_process(&p), from_process(&p));
        assert_eq!(new.as_ref().err(), old.as_ref().err());
        let (Ok(mut cfg), Ok(old)) = (new, old) else {
            return 0;
        };
        assert_same(&cfg, &old);
        let mut compared = 0;
        for _ in 0..6 {
            let (next, n) = check_steps(&cfg);
            compared += n;
            if next.is_empty() {
                break;
            }
            cfg = next[gen.below(next.len())].clone();
        }
        compared
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn one_pass_placement_matches_the_owned_chain(seed in 0u64..u64::MAX) {
            differential_walk(seed);
        }
    }

    #[test]
    fn the_differential_walk_compares_many_steps() {
        let compared: usize = (1..200u64).map(differential_walk).sum();
        assert!(compared > 2_000, "only {compared} steps compared");
    }

    #[test]
    fn the_generator_reaches_every_scoping_case() {
        // Rebinding input, shadowing case and split binders, a nested
        // restriction of the same name, λ-indexed channels: each shows up
        // in the first few hundred generated processes.
        let mut seen = [false; 5];
        for seed in 1..400u64 {
            let text = Gen { state: seed }.process(&mut Vec::new(), 6).to_string();
            seen[0] |= text.contains("(x).") && text.matches("(x)").count() > 1;
            seen[1] |= text.contains("case ");
            seen[2] |= text.contains("let (");
            seen[3] |= text.matches("(^m)").count() > 1;
            seen[4] |= text.contains("@lam");
        }
        assert_eq!(seen, [true; 5], "{seen:?}");
    }
}
