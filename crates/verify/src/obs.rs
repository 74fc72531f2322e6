//! Observations: what a tester can see of a protocol run.
//!
//! Definition 4 restricts the protocol channels, so the only visible
//! events are the I/O of *continuations* on free channels.  Testers can
//! compare received values (matching) and their origins (address
//! matching), so an observation records the full structure of the
//! message, the identity of every name (up to renaming of fresh ones) and
//! the creator position of every name and composite.

use std::fmt::Write as _;

use spi_addr::Path;
use spi_semantics::{NameTable, RtTerm};
use spi_syntax::Name;

/// A message as a tester observes it.
///
/// Fresh (restricted) names are recorded by a run-local `nonce` — their
/// raw machine identity, used to link multiple occurrences within one
/// trace — plus their creator position, which is what the paper's address
/// matching exposes.  Free names keep their spelling.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObsTerm {
    /// A free name, observed by spelling.
    Free(Name),
    /// A machine-created name: linkable within a run, located at its
    /// creator.
    Fresh {
        /// Run-local identity (the raw name id).
        nonce: u32,
        /// Where the restriction executed.
        creator: Path,
    },
    /// A pair with its creator stamp.
    Pair(Box<ObsTerm>, Box<ObsTerm>, Option<Path>),
    /// A ciphertext with its creator stamp.
    Enc(Vec<ObsTerm>, Box<ObsTerm>, Option<Path>),
}

impl ObsTerm {
    /// Converts a run-time message into its observed form.
    ///
    /// # Panics
    ///
    /// Panics when `t` is not a message (contains variables, unexecuted
    /// ν-names or located literals) — explorers only observe messages.
    #[must_use]
    pub fn from_rt(t: &RtTerm, names: &NameTable) -> ObsTerm {
        match t {
            RtTerm::Id(id) => {
                let e = names.entry(*id);
                if e.restricted {
                    ObsTerm::Fresh {
                        nonce: id.index() as u32,
                        creator: e.creator.clone().expect("restricted names have creators"),
                    }
                } else {
                    ObsTerm::Free(e.base.clone())
                }
            }
            RtTerm::Pair { fst, snd, creator } => ObsTerm::Pair(
                Box::new(ObsTerm::from_rt(fst, names)),
                Box::new(ObsTerm::from_rt(snd, names)),
                creator.clone(),
            ),
            RtTerm::Enc { body, key, creator } => ObsTerm::Enc(
                body.iter().map(|x| ObsTerm::from_rt(x, names)).collect(),
                Box::new(ObsTerm::from_rt(key, names)),
                creator.clone(),
            ),
            RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::LocatedLit { .. } => {
                panic!("observed term is not a message")
            }
        }
    }
}

/// A visible event: an output of `payload` on the free channel `chan`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObsEvent {
    /// The free channel.
    pub chan: Name,
    /// The observed message.
    pub payload: ObsTerm,
}

/// Renames run-local nonces to per-trace indices, so traces of different
/// runs (and different systems) compare by *pattern*: which observations
/// carry the same fresh name, and where each piece was created.
///
/// # Example
///
/// ```
/// use spi_verify::{ObsEvent, ObsTerm, TraceRenamer};
/// use spi_syntax::Name;
///
/// let ev = |nonce| ObsEvent {
///     chan: Name::new("observe"),
///     payload: ObsTerm::Fresh { nonce, creator: "00".parse().unwrap() },
/// };
/// let mut left = TraceRenamer::new();
/// let mut right = TraceRenamer::new();
/// // Different raw ids, same pattern: canonical forms agree.
/// assert_eq!(left.canon(&ev(5)), right.canon(&ev(9)));
/// // Repetition is preserved: the second occurrence links to the first.
/// assert_eq!(left.canon(&ev(5)), right.canon(&ev(9)));
/// assert_ne!(left.canon(&ev(6)), right.canon(&ev(9)));
/// ```
///
/// Two renamers are equal exactly when they assign the same indices, so
/// the bisimulation engine keys its configurations on them.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRenamer {
    /// The raw nonces seen so far; a nonce's index is its position.
    nonces: Vec<u32>,
}

impl TraceRenamer {
    /// A fresh renamer (one per trace).
    #[must_use]
    pub fn new() -> TraceRenamer {
        TraceRenamer::default()
    }

    /// Canonicalizes one event, assigning trace-local indices to fresh
    /// names on first occurrence.
    pub fn canon(&mut self, ev: &ObsEvent) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}!", ev.chan);
        self.canon_term(&ev.payload, &mut out);
        out
    }

    fn canon_term(&mut self, t: &ObsTerm, out: &mut String) {
        match t {
            ObsTerm::Free(n) => {
                let _ = write!(out, "f:{n}");
            }
            ObsTerm::Fresh { nonce, creator } => {
                let idx = match self.nonces.iter().position(|n| n == nonce) {
                    Some(idx) => idx,
                    None => {
                        self.nonces.push(*nonce);
                        self.nonces.len() - 1
                    }
                };
                let _ = write!(out, "n{idx}@{}", creator.to_bits());
            }
            ObsTerm::Pair(a, b, creator) => {
                out.push('(');
                self.canon_term(a, out);
                out.push(',');
                self.canon_term(b, out);
                out.push(')');
                write_creator(creator, out);
            }
            ObsTerm::Enc(body, key, creator) => {
                out.push('{');
                for (i, x) in body.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.canon_term(x, out);
                }
                out.push('}');
                self.canon_term(key, out);
                write_creator(creator, out);
            }
        }
    }
}

fn write_creator(creator: &Option<Path>, out: &mut String) {
    match creator {
        Some(p) => {
            let _ = write!(out, "#{}", p.to_bits());
        }
        None => out.push_str("#-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_semantics::NameTable;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn from_rt_classifies_names() {
        let mut names = NameTable::new();
        let c = names.intern_free(&Name::new("c"));
        let m = names.alloc_restricted(&Name::new("m"), p("00"));
        assert_eq!(
            ObsTerm::from_rt(&RtTerm::Id(c), &names),
            ObsTerm::Free(Name::new("c"))
        );
        assert_eq!(
            ObsTerm::from_rt(&RtTerm::Id(m), &names),
            ObsTerm::Fresh {
                nonce: m.index() as u32,
                creator: p("00")
            }
        );
    }

    #[test]
    fn from_rt_keeps_composite_stamps() {
        let mut names = NameTable::new();
        let m = names.alloc_restricted(&Name::new("m"), p("00"));
        let t = RtTerm::Enc {
            body: vec![RtTerm::Id(m)],
            key: Box::new(RtTerm::Id(m)),
            creator: Some(p("00")),
        };
        match ObsTerm::from_rt(&t, &names) {
            ObsTerm::Enc(_, _, creator) => assert_eq!(creator, Some(p("00"))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn renaming_links_repetitions() {
        let ev = |nonce| ObsEvent {
            chan: Name::new("o"),
            payload: ObsTerm::Fresh {
                nonce,
                creator: p("00"),
            },
        };
        let mut r = TraceRenamer::new();
        let first = r.canon(&ev(7));
        let again = r.canon(&ev(7));
        let other = r.canon(&ev(8));
        assert_eq!(first, again, "same name, same canonical form");
        assert_ne!(first, other, "different fresh names stay distinct");
    }

    #[test]
    fn creator_positions_distinguish_origins() {
        let mut r = TraceRenamer::new();
        let at = |creator: &str| ObsEvent {
            chan: Name::new("o"),
            payload: ObsTerm::Fresh {
                nonce: 1,
                creator: p(creator),
            },
        };
        let mut r2 = TraceRenamer::new();
        // Same linking pattern, different creators: distinguishable — this
        // is what the tester's address matching observes.
        assert_ne!(r.canon(&at("00")), r2.canon(&at("10")));
    }

    #[test]
    fn free_names_compare_by_spelling() {
        let mut r = TraceRenamer::new();
        let ev = |n: &str| ObsEvent {
            chan: Name::new("o"),
            payload: ObsTerm::Free(Name::new(n)),
        };
        let a = r.canon(&ev("a"));
        let b = r.canon(&ev("b"));
        assert_ne!(a, b);
    }
}
