//! Run-time processes: the residuals the machine stores at tree leaves.

use spi_addr::{Path, RelAddr};
use spi_syntax::{AddrSide, ChanIndex, LocVar, Name, Process, Var};

use crate::{NameTable, RtTerm};

/// The localization index of a run-time channel.
///
/// Source indexes written as relative addresses stay relative
/// ([`RtChanIndex::At`]) until the owning prefix reaches a leaf, where the
/// machine resolves them against the leaf position into an absolute
/// partner position ([`RtChanIndex::AtAbs`]).  Location variables are
/// instantiated directly to the partner's absolute position at first
/// contact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RtChanIndex {
    /// No localization.
    Plain,
    /// A source-level relative address, not yet resolved.
    At(RelAddr),
    /// Localized at an absolute tree position.
    AtAbs(Path),
    /// An uninstantiated location variable.
    Loc(LocVar),
}

/// A run-time channel: subject term plus localization index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RtChannel {
    /// The term naming the channel.
    pub subject: RtTerm,
    /// The localization index.
    pub index: RtChanIndex,
}

/// A run-time process, mirroring [`Process`] with run-time terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RtProcess {
    /// The inert process.
    Nil,
    /// Output prefix.
    Output(RtChannel, RtTerm, Box<RtProcess>),
    /// Input prefix.
    Input(RtChannel, Var, Box<RtProcess>),
    /// Unexecuted restriction.
    Restrict(Name, Box<RtProcess>),
    /// Parallel composition (split into two leaves when placed).
    Par(Box<RtProcess>, Box<RtProcess>),
    /// Matching.
    Match(RtTerm, RtTerm, Box<RtProcess>),
    /// Address matching against another term's origin.
    AddrMatchT(RtTerm, RtTerm, Box<RtProcess>),
    /// Address matching against a literal relative address.
    AddrMatchL(RtTerm, RelAddr, Box<RtProcess>),
    /// Replication.
    Bang(Box<RtProcess>),
    /// Pair splitting (full-calculus projection).
    Split {
        /// Term to project.
        pair: RtTerm,
        /// First-component binder.
        fst: Var,
        /// Second-component binder.
        snd: Var,
        /// Continuation.
        body: Box<RtProcess>,
    },
    /// Shared-key decryption.
    Case {
        /// Term to decrypt.
        scrutinee: RtTerm,
        /// Variables bound to the decrypted components.
        binders: Vec<Var>,
        /// Decryption key.
        key: RtTerm,
        /// Continuation.
        body: Box<RtProcess>,
    },
}

impl RtChannel {
    fn from_static(ch: &spi_syntax::Channel) -> RtChannel {
        RtChannel {
            subject: RtTerm::from_static(&ch.subject),
            index: match &ch.index {
                ChanIndex::Plain => RtChanIndex::Plain,
                ChanIndex::At(a) => RtChanIndex::At(a.clone()),
                ChanIndex::Loc(l) => RtChanIndex::Loc(l.clone()),
            },
        }
    }

    /// Renders the channel using the table's display names.
    #[must_use]
    pub fn display(&self, names: &NameTable) -> String {
        let idx = match &self.index {
            RtChanIndex::Plain => String::new(),
            RtChanIndex::At(a) => format!("@({a})"),
            RtChanIndex::AtAbs(p) => format!("@[{}]", p.to_bits()),
            RtChanIndex::Loc(l) => format!("@{l}"),
        };
        format!("{}{idx}", self.subject.display(names))
    }
}

impl RtProcess {
    /// Converts a source process.  Names become symbolic
    /// ([`RtTerm::Sym`]); the configuration loader interns the free ones.
    #[must_use]
    pub fn from_static(p: &Process) -> RtProcess {
        match p {
            Process::Nil => RtProcess::Nil,
            Process::Output(ch, t, cont) => RtProcess::Output(
                RtChannel::from_static(ch),
                RtTerm::from_static(t),
                Box::new(RtProcess::from_static(cont)),
            ),
            Process::Input(ch, x, cont) => RtProcess::Input(
                RtChannel::from_static(ch),
                x.clone(),
                Box::new(RtProcess::from_static(cont)),
            ),
            Process::Restrict(n, body) => {
                RtProcess::Restrict(n.clone(), Box::new(RtProcess::from_static(body)))
            }
            Process::Par(l, r) => RtProcess::Par(
                Box::new(RtProcess::from_static(l)),
                Box::new(RtProcess::from_static(r)),
            ),
            Process::Match(a, b, cont) => RtProcess::Match(
                RtTerm::from_static(a),
                RtTerm::from_static(b),
                Box::new(RtProcess::from_static(cont)),
            ),
            Process::AddrMatch(a, side, cont) => match side {
                AddrSide::Term(b) => RtProcess::AddrMatchT(
                    RtTerm::from_static(a),
                    RtTerm::from_static(b),
                    Box::new(RtProcess::from_static(cont)),
                ),
                AddrSide::Lit(l) => RtProcess::AddrMatchL(
                    RtTerm::from_static(a),
                    l.clone(),
                    Box::new(RtProcess::from_static(cont)),
                ),
            },
            Process::Bang(body) => RtProcess::Bang(Box::new(RtProcess::from_static(body))),
            Process::Split {
                pair,
                fst,
                snd,
                body,
            } => RtProcess::Split {
                pair: RtTerm::from_static(pair),
                fst: fst.clone(),
                snd: snd.clone(),
                body: Box::new(RtProcess::from_static(body)),
            },
            Process::Case {
                scrutinee,
                binders,
                key,
                body,
            } => RtProcess::Case {
                scrutinee: RtTerm::from_static(scrutinee),
                binders: binders.clone(),
                key: RtTerm::from_static(key),
                body: Box::new(RtProcess::from_static(body)),
            },
        }
    }

    /// Renders the residual using the table's display names (for
    /// diagnostics).
    #[must_use]
    pub fn display(&self, names: &NameTable) -> String {
        match self {
            RtProcess::Nil => "0".into(),
            RtProcess::Output(ch, t, cont) => format!(
                "{}<{}>.{}",
                ch.display(names),
                t.display(names),
                cont.display(names)
            ),
            RtProcess::Input(ch, x, cont) => {
                format!("{}({x}).{}", ch.display(names), cont.display(names))
            }
            RtProcess::Restrict(n, body) => format!("(^{n}){}", body.display(names)),
            RtProcess::Par(l, r) => format!("({} | {})", l.display(names), r.display(names)),
            RtProcess::Match(a, b, cont) => format!(
                "[{} = {}]{}",
                a.display(names),
                b.display(names),
                cont.display(names)
            ),
            RtProcess::AddrMatchT(a, b, cont) => format!(
                "[{} ~ {}]{}",
                a.display(names),
                b.display(names),
                cont.display(names)
            ),
            RtProcess::AddrMatchL(a, l, cont) => {
                format!("[{} ~ @({l})]{}", a.display(names), cont.display(names))
            }
            RtProcess::Bang(body) => format!("!{}", body.display(names)),
            RtProcess::Split {
                pair,
                fst,
                snd,
                body,
            } => format!(
                "let ({fst}, {snd}) = {} in {}",
                pair.display(names),
                body.display(names)
            ),
            RtProcess::Case {
                scrutinee,
                binders,
                key,
                body,
            } => {
                let bs: Vec<String> = binders.iter().map(ToString::to_string).collect();
                format!(
                    "case {} of {{{}}}{} in {}",
                    scrutinee.display(names),
                    bs.join(", "),
                    key.display(names),
                    body.display(names)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse;

    fn rt(src: &str) -> RtProcess {
        RtProcess::from_static(&parse(src).expect("parses"))
    }

    #[test]
    fn conversion_mirrors_shape() {
        let p = rt("(^m) c<{m}k> | d(x)");
        assert!(matches!(p, RtProcess::Par(_, _)));
    }

    #[test]
    fn display_is_readable() {
        let names = NameTable::new();
        let p = rt("(^m) c<{m}k>");
        let shown = p.display(&names);
        assert!(shown.contains("(^m)"));
        assert!(shown.contains("^c"), "unresolved names marked: {shown}");
    }
}
