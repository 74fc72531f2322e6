//! Placement: turning a residual into leaves of the process tree.
//!
//! Every step of the machine ends by placing a continuation — the
//! sender's after an output, the receiver's after an input (with the
//! payload bound to the input variable), a fresh copy after a
//! replication unfolds, the whole system at load.  Placement executes
//! restrictions, evaluates matchings and decryptions, and splits
//! parallels until only I/O prefixes, replications and dead leaves
//! remain.
//!
//! [`place`] reads the continuation by reference and carries the
//! substitutions still owed to it — variable ↦ message, source name ↦
//! allocated name, location variable ↦ partner position — in a
//! [`Subst`], a chain of frames on the call stack.  Each resulting leaf
//! is materialized exactly once, with every pending substitution applied
//! as it is copied; nothing is substituted into a subtree that placement
//! then throws away or copies again.

use std::borrow::Cow;
use std::sync::Arc;

use spi_addr::{Branch, Path, ProcTree};
use spi_syntax::{LocVar, Name, Var};

use crate::value::{addr_match_lit, addr_match_terms, match_eq};
use crate::{
    LeafState, MachineError, NameId, NameTable, RtChanIndex, RtChannel, RtProcess, RtTerm,
};

/// One pending substitution, or the scope boundary of a binder.
#[derive(Debug, Clone, Copy)]
enum Bind<'a> {
    /// Nothing: the empty substitution.
    Empty,
    /// `x ↦ v`: an input's payload, or one component of a split pair.
    Var(&'a Var, &'a RtTerm),
    /// `xᵢ ↦ vᵢ`: a decryption's components (the first of duplicate
    /// binders wins, as it did when they were substituted in turn).
    Vars(&'a [Var], &'a [RtTerm]),
    /// Variables rebound below this point: no outer binding reaches them.
    HideVars(&'a [Var]),
    /// `n ↦ id`: an executed restriction.
    Sym(&'a Name, NameId),
    /// `nᵢ ↦ idᵢ`: the free names interned at load.
    Syms(&'a [(Name, NameId)]),
    /// A restriction that has not executed rebinds its name below it.
    HideSym(&'a Name),
    /// `λ ↦ p`: first contact on a channel localized by a location
    /// variable (location variables have no binders to shadow them).
    Loc(&'a LocVar, &'a Path),
}

/// The substitutions owed to a continuation being placed: a chain of
/// [`Bind`] frames, innermost first, living on the call stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Subst<'a> {
    bind: Bind<'a>,
    outer: Option<&'a Subst<'a>>,
}

impl<'a> Subst<'a> {
    /// No substitution.
    pub(crate) const EMPTY: Subst<'static> = Subst {
        bind: Bind::Empty,
        outer: None,
    };

    /// `x ↦ v`.
    pub(crate) fn var(x: &'a Var, v: &'a RtTerm) -> Subst<'a> {
        Subst {
            bind: Bind::Var(x, v),
            outer: None,
        }
    }

    /// The free names interned at load.
    pub(crate) fn syms(frees: &'a [(Name, NameId)]) -> Subst<'a> {
        Subst {
            bind: Bind::Syms(frees),
            outer: None,
        }
    }

    /// `λ ↦ partner` on top of `self`, when the channel index is a
    /// location variable; `self` alone otherwise.
    pub(crate) fn with_loc<'b>(&'b self, index: &'b RtChanIndex, partner: &'b Path) -> Subst<'b> {
        match index {
            RtChanIndex::Loc(lam) => self.push(Bind::Loc(lam, partner)),
            _ => *self,
        }
    }

    fn push<'b>(&'b self, bind: Bind<'b>) -> Subst<'b> {
        Subst {
            bind,
            outer: Some(self),
        }
    }

    fn frames(&self) -> impl Iterator<Item = Bind<'a>> + '_ {
        std::iter::successors(Some(self), |s| s.outer).map(|s| s.bind)
    }

    /// The message bound to `x`, if any binding reaches it.
    fn lookup_var(&self, x: &Var) -> Option<&'a RtTerm> {
        for bind in self.frames() {
            match bind {
                Bind::Var(y, v) if y == x => return Some(v),
                Bind::Vars(ys, vs) => {
                    if let Some(i) = ys.iter().position(|y| y == x) {
                        return vs.get(i);
                    }
                }
                Bind::HideVars(ys) if ys.contains(x) => return None,
                _ => {}
            }
        }
        None
    }

    /// The allocated name bound to source name `n`, if any.
    fn lookup_sym(&self, n: &Name) -> Option<NameId> {
        for bind in self.frames() {
            match bind {
                Bind::Sym(m, id) if m == n => return Some(id),
                Bind::Syms(frees) => {
                    if let Some((_, id)) = frees.iter().find(|(m, _)| m == n) {
                        return Some(*id);
                    }
                }
                Bind::HideSym(m) if m == n => return None,
                _ => {}
            }
        }
        None
    }

    /// The partner position bound to location variable `lam`, if any.
    fn lookup_loc(&self, lam: &LocVar) -> Option<&'a Path> {
        self.frames().find_map(|bind| match bind {
            Bind::Loc(l, p) if l == lam => Some(p),
            _ => None,
        })
    }

    /// `t` with the substitution applied, copied once.
    pub(crate) fn term(&self, t: &RtTerm) -> RtTerm {
        match t {
            RtTerm::Var(x) => self.lookup_var(x).cloned().unwrap_or_else(|| t.clone()),
            RtTerm::Sym(n) => self.lookup_sym(n).map_or_else(|| t.clone(), RtTerm::Id),
            RtTerm::Id(_) => t.clone(),
            RtTerm::Pair { fst, snd, creator } => RtTerm::Pair {
                fst: Box::new(self.term(fst)),
                snd: Box::new(self.term(snd)),
                creator: creator.clone(),
            },
            RtTerm::Enc { body, key, creator } => RtTerm::Enc {
                body: body.iter().map(|x| self.term(x)).collect(),
                key: Box::new(self.term(key)),
                creator: creator.clone(),
            },
            RtTerm::LocatedLit { addr, inner } => RtTerm::LocatedLit {
                addr: addr.clone(),
                inner: Box::new(self.term(inner)),
            },
        }
    }

    /// `t` with the substitution applied, borrowed where that needs no
    /// copy: a bound variable resolves to its message in place.  For the
    /// operands placement only inspects (matchings, decryptions, splits).
    fn resolve<'t>(&self, t: &'t RtTerm) -> Cow<'t, RtTerm>
    where
        'a: 't,
    {
        match t {
            RtTerm::Var(x) => Cow::Borrowed(self.lookup_var(x).unwrap_or(t)),
            RtTerm::Id(_) => Cow::Borrowed(t),
            _ => Cow::Owned(self.term(t)),
        }
    }

    fn chan(&self, ch: &RtChannel) -> RtChannel {
        RtChannel {
            subject: self.term(&ch.subject),
            index: match &ch.index {
                RtChanIndex::Loc(lam) => self
                    .lookup_loc(lam)
                    .map_or_else(|| ch.index.clone(), |p| RtChanIndex::AtAbs(p.clone())),
                other => other.clone(),
            },
        }
    }

    /// `p` with the substitution applied, copied once; binders inside
    /// `p` scope the substitution as capture-free substitution requires.
    pub(crate) fn process(&self, p: &RtProcess) -> RtProcess {
        match p {
            RtProcess::Nil => RtProcess::Nil,
            RtProcess::Output(ch, t, cont) => {
                RtProcess::Output(self.chan(ch), self.term(t), Box::new(self.process(cont)))
            }
            RtProcess::Input(ch, x, cont) => {
                let inner = self.push(Bind::HideVars(std::slice::from_ref(x)));
                RtProcess::Input(self.chan(ch), x.clone(), Box::new(inner.process(cont)))
            }
            RtProcess::Restrict(n, body) => {
                let inner = self.push(Bind::HideSym(n));
                RtProcess::Restrict(n.clone(), Box::new(inner.process(body)))
            }
            RtProcess::Par(l, r) => {
                RtProcess::Par(Box::new(self.process(l)), Box::new(self.process(r)))
            }
            RtProcess::Match(a, b, cont) => {
                RtProcess::Match(self.term(a), self.term(b), Box::new(self.process(cont)))
            }
            RtProcess::AddrMatchT(a, b, cont) => {
                RtProcess::AddrMatchT(self.term(a), self.term(b), Box::new(self.process(cont)))
            }
            RtProcess::AddrMatchL(a, l, cont) => {
                RtProcess::AddrMatchL(self.term(a), l.clone(), Box::new(self.process(cont)))
            }
            RtProcess::Bang(body) => RtProcess::Bang(Box::new(self.process(body))),
            RtProcess::Split {
                pair,
                fst,
                snd,
                body,
            } => {
                let hide_fst = self.push(Bind::HideVars(std::slice::from_ref(fst)));
                let inner = hide_fst.push(Bind::HideVars(std::slice::from_ref(snd)));
                RtProcess::Split {
                    pair: self.term(pair),
                    fst: fst.clone(),
                    snd: snd.clone(),
                    body: Box::new(inner.process(body)),
                }
            }
            RtProcess::Case {
                scrutinee,
                binders,
                key,
                body,
            } => {
                let inner = self.push(Bind::HideVars(binders));
                RtProcess::Case {
                    scrutinee: self.term(scrutinee),
                    binders: binders.clone(),
                    key: self.term(key),
                    body: Box::new(inner.process(body)),
                }
            }
        }
    }
}

/// Places residual `proc` at `path` under the pending substitution
/// `subst`, normalizing it: executes restrictions (allocating their names
/// in `names`, which is copied on write only then), evaluates matchings
/// and decryptions, splits parallels.
pub(crate) fn place(
    proc: &RtProcess,
    subst: &Subst<'_>,
    path: Path,
    names: &mut Arc<NameTable>,
) -> Result<ProcTree<LeafState>, MachineError> {
    let dead = || Ok(ProcTree::leaf(LeafState::Dead));
    match proc {
        RtProcess::Nil => dead(),
        RtProcess::Par(l, r) => {
            let left = place(l, subst, path.child(Branch::Left), names)?;
            let right = place(r, subst, path.child(Branch::Right), names)?;
            Ok(ProcTree::node(left, right))
        }
        RtProcess::Restrict(n, body) => {
            let id = Arc::make_mut(names).alloc_restricted(n, path.clone());
            place(body, &subst.push(Bind::Sym(n, id)), path, names)
        }
        RtProcess::Match(a, b, cont) => {
            if match_eq(&subst.resolve(a), &subst.resolve(b), &path, names) {
                place(cont, subst, path, names)
            } else {
                dead()
            }
        }
        RtProcess::AddrMatchT(a, b, cont) => {
            if addr_match_terms(&subst.resolve(a), &subst.resolve(b), names) {
                place(cont, subst, path, names)
            } else {
                dead()
            }
        }
        RtProcess::AddrMatchL(a, l, cont) => {
            if addr_match_lit(&subst.resolve(a), l, &path, names) {
                place(cont, subst, path, names)
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
            let scrutinee = subst.resolve(scrutinee);
            let RtTerm::Enc {
                body: parts,
                key: actual_key,
                ..
            } = &*scrutinee
            else {
                return dead();
            };
            if **actual_key != *subst.resolve(key) || parts.len() != binders.len() {
                return dead();
            }
            place(body, &subst.push(Bind::Vars(binders, parts)), path, names)
        }
        RtProcess::Split {
            pair,
            fst,
            snd,
            body,
        } => {
            let pair = subst.resolve(pair);
            let RtTerm::Pair { fst: a, snd: b, .. } = &*pair else {
                return dead();
            };
            // `fst` is bound innermost, so it wins when both binders
            // share a spelling.
            let with_snd = subst.push(Bind::Var(snd, b));
            place(body, &with_snd.push(Bind::Var(fst, a)), path, names)
        }
        RtProcess::Output(chan, payload, cont) => {
            let payload = subst.term(payload);
            if !payload.is_message() {
                return Err(MachineError::NotAMessage {
                    term: payload.display(names),
                });
            }
            Ok(ProcTree::leaf(LeafState::Out {
                chan: resolve_channel(subst.chan(chan), &path),
                payload,
                cont: subst.process(cont),
            }))
        }
        RtProcess::Input(chan, var, cont) => {
            let inner = subst.push(Bind::HideVars(std::slice::from_ref(var)));
            Ok(ProcTree::leaf(LeafState::In {
                chan: resolve_channel(subst.chan(chan), &path),
                var: var.clone(),
                cont: inner.process(cont),
            }))
        }
        RtProcess::Bang(body) => Ok(ProcTree::leaf(LeafState::Bang {
            body: subst.process(body),
            unfolded: 0,
        })),
    }
}

/// Resolves a channel's localization at the leaf that owns it: a relative
/// address literal becomes the absolute position of the intended partner.
/// An unresolvable literal yields an index no position satisfies — the
/// prefix can never fire, matching the paper's semantics where a channel
/// localized at a non-existent path is unusable.
pub(crate) fn resolve_channel(ch: RtChannel, path: &Path) -> RtChannel {
    let index = match ch.index {
        RtChanIndex::At(rel) => match rel.resolve_at(path) {
            Ok(abs) => RtChanIndex::AtAbs(abs),
            // Unresolvable: keep a relative index that no partner check
            // will ever satisfy (see `index_allows`).
            Err(_) => RtChanIndex::At(rel),
        },
        other => other,
    };
    RtChannel {
        subject: ch.subject,
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse;

    fn rt(src: &str) -> RtProcess {
        RtProcess::from_static(&parse(src).expect("parses"))
    }

    fn name_id(names: &mut NameTable, base: &str) -> NameId {
        names.intern_free(&Name::new(base))
    }

    #[test]
    fn names_stop_at_a_restriction_of_the_same_spelling() {
        let mut names = NameTable::new();
        let id = name_id(&mut names, "m");
        let frees = [(Name::new("m"), id)];
        let q = Subst::syms(&frees).process(&rt("c<m>.(^m) d<m>"));
        let RtProcess::Output(_, payload, cont) = q else {
            panic!("unexpected {q:?}");
        };
        assert_eq!(payload, RtTerm::Id(id));
        let RtProcess::Restrict(_, body) = *cont else {
            panic!("unexpected {cont:?}");
        };
        let RtProcess::Output(_, inner, _) = *body else {
            panic!("unexpected {body:?}");
        };
        assert_eq!(inner, RtTerm::Sym(Name::new("m")), "shadowed m untouched");
    }

    #[test]
    fn variables_stop_at_every_binder_that_rebinds_them() {
        let mut names = NameTable::new();
        let v = RtTerm::Id(name_id(&mut names, "v"));
        let x = Var::new("x");
        let bound = Subst::var(&x, &v);
        // An input, a split and a decryption each rebind x below them.
        for src in [
            "c(x).d<x>",
            "c(z).let (x, y) = z in d<x>",
            "c(z).case z of {x}k in d<x>",
        ] {
            let p = rt(src);
            assert_eq!(bound.process(&p), p, "{src}");
        }
    }

    #[test]
    fn a_binders_own_operands_lie_outside_its_scope() {
        let mut names = NameTable::new();
        let v = RtTerm::Id(name_id(&mut names, "v"));
        let x = Var::new("x");
        let open = RtProcess::Case {
            scrutinee: RtTerm::Var(x.clone()),
            binders: vec![x.clone()],
            key: RtTerm::Var(x.clone()),
            body: Box::new(RtProcess::Output(
                RtChannel {
                    subject: RtTerm::Var(x.clone()),
                    index: RtChanIndex::Plain,
                },
                RtTerm::Var(x.clone()),
                Box::new(RtProcess::Nil),
            )),
        };
        let RtProcess::Case {
            scrutinee,
            key,
            body,
            ..
        } = Subst::var(&x, &v).process(&open)
        else {
            panic!("shape changed");
        };
        assert_eq!((scrutinee, key), (v.clone(), v));
        let RtProcess::Output(ch, payload, _) = *body else {
            panic!("shape changed");
        };
        assert_eq!(ch.subject, RtTerm::Var(x.clone()));
        assert_eq!(payload, RtTerm::Var(x));
    }

    #[test]
    fn location_variables_instantiate_to_the_partner_everywhere() {
        let partner: Path = "00".parse().expect("valid path");
        let index = RtChanIndex::Loc(LocVar::new("lam"));
        let q = Subst::EMPTY
            .with_loc(&index, &partner)
            .process(&rt("c@lam(x).!c@lam<x>"));
        let RtProcess::Input(ch, _, cont) = q else {
            panic!("unexpected {q:?}");
        };
        assert_eq!(ch.index, RtChanIndex::AtAbs(partner.clone()));
        let RtProcess::Bang(body) = *cont else {
            panic!("unexpected {cont:?}");
        };
        let RtProcess::Output(ch, _, _) = *body else {
            panic!("unexpected {body:?}");
        };
        assert_eq!(ch.index, RtChanIndex::AtAbs(partner));
    }

    #[test]
    fn duplicate_binders_bind_the_first_component() {
        // `let (y, y) = (a, b)` and `case {a, b}k of {y, y}` both leave
        // y bound to a, as substituting the binders in turn did.
        let mut c = crate::Config::from_process(
            &parse("c<(a, b)> | c(x).let (y, y) = x in d<y>").expect("parses"),
        )
        .expect("loads");
        let actions = c.enabled(0);
        c.fire(&actions[0]).expect("fires");
        let leaf = c.tree().leaf_at(&"1".parse().expect("path")).expect("leaf");
        let LeafState::Out { payload, .. } = leaf else {
            panic!("unexpected {leaf:?}");
        };
        assert_eq!(payload.display(c.names()), "a");
    }
}
