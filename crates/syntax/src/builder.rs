//! Ergonomic constructors for building processes in Rust.
//!
//! The parser is the most readable way to write a fixed protocol, but
//! generated processes — the protocol compiler, the intruder synthesizer,
//! benchmark workload generators — are easier to build with functions.
//! This module provides short free functions mirroring the calculus:
//!
//! ```
//! use spi_syntax::builder::*;
//!
//! // A2 of the paper: (νM) c̄⟨{M}K_AB⟩.
//! let a2 = new("m", out("c", enc([n("m")], n("kAB")), nil()));
//! assert_eq!(a2.to_string(), "(^m)c<{m}kAB>");
//! ```

use std::fmt;

use spi_addr::RelAddr;

use crate::{Channel, LocVar, Name, Process, Term, Var};

/// The error of [`tuple`]: the calculus has no unit term, so a tuple of
/// no components cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyTuple;

impl fmt::Display for EmptyTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuple of no terms: the calculus has no unit term")
    }
}

impl std::error::Error for EmptyTuple {}

/// A name term.
#[must_use]
pub fn n(name: impl Into<Name>) -> Term {
    Term::Name(name.into())
}

/// A variable term.
#[must_use]
pub fn v(var: impl Into<Var>) -> Term {
    Term::Var(var.into())
}

/// A pair `(a, b)`.
#[must_use]
pub fn pair(a: Term, b: Term) -> Term {
    Term::pair(a, b)
}

/// A right-nested tuple `(a, b, …)`.
///
/// # Errors
///
/// Returns [`EmptyTuple`] when `items` is empty: the calculus has no unit
/// term.
pub fn tuple<I: IntoIterator<Item = Term>>(items: I) -> Result<Term, EmptyTuple> {
    let mut items: Vec<Term> = items.into_iter().collect();
    let Some(mut acc) = items.pop() else {
        return Err(EmptyTuple);
    };
    while let Some(t) = items.pop() {
        acc = Term::pair(t, acc);
    }
    Ok(acc)
}

/// An encryption `{body…}key`.
#[must_use]
pub fn enc<I: IntoIterator<Item = Term>>(body: I, key: Term) -> Term {
    Term::enc(body.into_iter().collect(), key)
}

/// A located term `l M`.
#[must_use]
pub fn located(addr: RelAddr, inner: Term) -> Term {
    Term::located(addr, inner)
}

/// A plain channel named by a free name.
#[must_use]
pub fn ch(name: impl Into<Name>) -> Channel {
    Channel::plain(Term::Name(name.into()))
}

/// A channel localized at a location variable: `c_λ`.
#[must_use]
pub fn ch_loc(name: impl Into<Name>, lam: impl Into<LocVar>) -> Channel {
    Channel::loc(Term::Name(name.into()), lam)
}

/// A channel localized at a fixed relative address: `c_l`.
#[must_use]
pub fn ch_at(name: impl Into<Name>, addr: RelAddr) -> Channel {
    Channel::at(Term::Name(name.into()), addr)
}

/// The inert process `0`.
#[must_use]
pub fn nil() -> Process {
    Process::Nil
}

/// An output `ch⟨payload⟩.cont`.  The channel may be given as a
/// [`Channel`], a [`Term`] or anything else convertible.
#[must_use]
pub fn out(chan: impl IntoChannel, payload: Term, cont: Process) -> Process {
    Process::Output(chan.into_channel(), payload, Box::new(cont))
}

/// An input `ch(x).cont`.
#[must_use]
pub fn inp(chan: impl IntoChannel, x: impl Into<Var>, cont: Process) -> Process {
    Process::Input(chan.into_channel(), x.into(), Box::new(cont))
}

/// A restriction `(νm)body`.
#[must_use]
pub fn new(name: impl Into<Name>, body: Process) -> Process {
    Process::restrict(name, body)
}

/// A parallel composition `l | r`.
#[must_use]
pub fn par(l: Process, r: Process) -> Process {
    Process::par(l, r)
}

/// A left-associated parallel composition of several processes.
///
/// The composition of no processes is the inert `0` — the unit of `|`.
#[must_use]
pub fn par_all<I: IntoIterator<Item = Process>>(items: I) -> Process {
    let mut it = items.into_iter();
    match it.next() {
        Some(first) => it.fold(first, Process::par),
        None => Process::Nil,
    }
}

/// A matching `[a = b]cont`.
#[must_use]
pub fn mat(a: Term, b: Term, cont: Process) -> Process {
    Process::matching(a, b, cont)
}

/// An address matching `[a ≗ b]cont` against another term's tag.
#[must_use]
pub fn addr_mat(a: Term, b: Term, cont: Process) -> Process {
    Process::addr_match(a, b, cont)
}

/// An address matching `[a ≗ l]cont` against a literal address.
#[must_use]
pub fn addr_mat_lit(a: Term, l: RelAddr, cont: Process) -> Process {
    Process::addr_match_lit(a, l, cont)
}

/// A replication `!body`.
#[must_use]
pub fn bang(body: Process) -> Process {
    Process::bang(body)
}

/// A decryption `case scrutinee of {binders…}key in body`.
#[must_use]
pub fn case<I>(scrutinee: Term, binders: I, key: Term, body: Process) -> Process
where
    I: IntoIterator,
    I::Item: Into<Var>,
{
    Process::case(scrutinee, binders, key, body)
}

/// Things usable as the channel of [`out`] and [`inp`].
pub trait IntoChannel {
    /// Converts into a [`Channel`].
    fn into_channel(self) -> Channel;
}

impl IntoChannel for Channel {
    fn into_channel(self) -> Channel {
        self
    }
}

impl IntoChannel for Term {
    fn into_channel(self) -> Channel {
        Channel::plain(self)
    }
}

impl IntoChannel for &str {
    fn into_channel(self) -> Channel {
        ch(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn builders_match_parser() {
        let built = new("m", out("c", enc([n("m")], n("kAB")), nil()));
        assert_eq!(built, parse("(^m) c<{m}kAB>").unwrap());

        let built = inp(
            "c",
            "z",
            case(v("z"), ["w"], n("kAB"), out("observe", v("w"), nil())),
        );
        assert_eq!(built, parse("c(z).case z of {w}kAB in observe<w>").unwrap());
    }

    #[test]
    fn par_all_left_associates() {
        let built = par_all([nil(), nil(), nil()]);
        assert_eq!(built, parse("0 | 0 | 0").unwrap());
    }

    #[test]
    fn tuple_right_nests() {
        assert_eq!(
            tuple([n("a"), n("b"), n("c")]),
            Ok(pair(n("a"), pair(n("b"), n("c"))))
        );
        assert_eq!(tuple([n("a")]), Ok(n("a")));
    }

    #[test]
    fn localized_channel_builders() {
        let built = inp(
            ch_loc("c", "lam"),
            "x",
            out(ch_loc("c", "lam"), v("x"), nil()),
        );
        assert_eq!(built, parse("c@lam(x).c@lam<x>").unwrap());
        let addr: RelAddr = "01.110".parse().unwrap();
        let built = out(ch_at("c", addr), n("m"), nil());
        assert_eq!(built, parse("c@(01.110)<m>").unwrap());
    }

    #[test]
    fn address_matching_builders_spell_the_primitive() {
        // The builders are this module's only spelling of the paper's
        // address-matching primitive `[a ≗ b]P`.
        let against_term = addr_mat(n("x"), n("y"), nil());
        assert_eq!(against_term, Process::addr_match(n("x"), n("y"), nil()));
        assert_eq!(against_term, parse("[x ~ y] 0").unwrap());
        let l: RelAddr = "10.0".parse().unwrap();
        let against_lit = addr_mat_lit(n("x"), l.clone(), nil());
        assert_eq!(against_lit, Process::addr_match_lit(n("x"), l, nil()));
        assert_eq!(against_lit, parse("[x ~ @(10.0)] 0").unwrap());
    }

    #[test]
    fn empty_tuple_is_a_typed_error() {
        assert_eq!(tuple([]), Err(EmptyTuple));
        assert_eq!(par_all([]), Process::Nil);
    }
}
