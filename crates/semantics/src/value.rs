//! Run-time terms: messages with provenance.

use spi_addr::{Path, RelAddr};
use spi_syntax::{Name, Term, Var};

use crate::{NameId, NameTable};

/// A term as the machine manipulates it.
///
/// Compared to the source [`Term`], names appear in two forms: [`RtTerm::Sym`]
/// is a ν-bound name whose restriction has not executed yet (each execution
/// will allocate a fresh [`NameId`]), while [`RtTerm::Id`] is an allocated
/// machine name whose provenance lives in the [`NameTable`].
///
/// Composite messages carry an optional `creator` — the tree position of
/// the sequential process that first *output* them.  Together with the
/// per-name creator recorded in the table, this realizes the paper's
/// located values: the relative address `l` of a datum as seen by a holder
/// at position `p` is `RelAddr::between(p, creator)`, computed on demand
/// by [`RtTerm::location_at`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RtTerm {
    /// A variable awaiting an input or decryption substitution.
    Var(Var),
    /// A ν-bound source name whose restriction has not executed yet.
    Sym(Name),
    /// An allocated machine name.
    Id(NameId),
    /// A pair.
    Pair {
        /// First component.
        fst: Box<RtTerm>,
        /// Second component.
        snd: Box<RtTerm>,
        /// Position of the process that first output this pair.
        creator: Option<Path>,
    },
    /// A shared-key encryption.
    Enc {
        /// The encrypted components.
        body: Vec<RtTerm>,
        /// The key.
        key: Box<RtTerm>,
        /// Position of the process that first output this ciphertext.
        creator: Option<Path>,
    },
    /// A source-level located literal `l M` (Section 3.2), used as a
    /// pattern in matchings; it is not a constructible message.
    LocatedLit {
        /// The literal relative address.
        addr: RelAddr,
        /// The underlying pattern.
        inner: Box<RtTerm>,
    },
}

// Terms are copied on every step; inline paths must not make them grow.
const _: () = assert!(std::mem::size_of::<RtTerm>() <= 64);

impl RtTerm {
    /// Converts a source term; every name becomes [`RtTerm::Sym`] (free
    /// names are interned by the configuration loader afterwards).
    #[must_use]
    pub fn from_static(t: &Term) -> RtTerm {
        match t {
            Term::Name(n) => RtTerm::Sym(n.clone()),
            Term::Var(v) => RtTerm::Var(v.clone()),
            Term::Pair(a, b) => RtTerm::Pair {
                fst: Box::new(RtTerm::from_static(a)),
                snd: Box::new(RtTerm::from_static(b)),
                creator: None,
            },
            Term::Enc { body, key } => RtTerm::Enc {
                body: body.iter().map(RtTerm::from_static).collect(),
                key: Box::new(RtTerm::from_static(key)),
                creator: None,
            },
            Term::Located { addr, inner } => RtTerm::LocatedLit {
                addr: addr.clone(),
                inner: Box::new(RtTerm::from_static(inner)),
            },
        }
    }

    /// Returns `true` when the term is a transmissible message: no
    /// variables, no unexecuted ν-bound names, no located literals.
    #[must_use]
    pub fn is_message(&self) -> bool {
        match self {
            RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::LocatedLit { .. } => false,
            RtTerm::Id(_) => true,
            RtTerm::Pair { fst, snd, .. } => fst.is_message() && snd.is_message(),
            RtTerm::Enc { body, key, .. } => {
                body.iter().all(RtTerm::is_message) && key.is_message()
            }
        }
    }

    /// Stamps missing creators on composite nodes with `sender`, in
    /// place — the "a datum belonging to A" rule: a composite message
    /// belongs to the process that first outputs it.  Names keep the
    /// creator of their restriction; already-stamped composites are
    /// forwarded unchanged, so "the identity of names is maintained".
    pub fn stamp(&mut self, sender: &Path) {
        match self {
            RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::Id(_) | RtTerm::LocatedLit { .. } => {}
            RtTerm::Pair { fst, snd, creator } => {
                fst.stamp(sender);
                snd.stamp(sender);
                creator.get_or_insert_with(|| sender.clone());
            }
            RtTerm::Enc { body, key, creator } => {
                for t in body {
                    t.stamp(sender);
                }
                key.stamp(sender);
                creator.get_or_insert_with(|| sender.clone());
            }
        }
    }

    /// The creator position of the term's outermost constructor: the
    /// restriction site for names, the stamped sender for composites,
    /// `None` for free names and unstamped terms.
    #[must_use]
    pub fn creator<'t>(&'t self, names: &'t NameTable) -> Option<&'t Path> {
        match self {
            RtTerm::Id(id) => names.creator(*id),
            RtTerm::Pair { creator, .. } | RtTerm::Enc { creator, .. } => creator.as_ref(),
            RtTerm::Var(_) | RtTerm::Sym(_) | RtTerm::LocatedLit { .. } => None,
        }
    }

    /// The paper's located view of the term as seen by a holder at
    /// `holder`: the relative address of the creator, or `None` when the
    /// term has no recorded origin.
    #[must_use]
    pub fn location_at(&self, holder: &Path, names: &NameTable) -> Option<RelAddr> {
        self.creator(names).map(|c| RelAddr::between(holder, c))
    }

    /// Renders the term using the table's display names.
    #[must_use]
    pub fn display(&self, names: &NameTable) -> String {
        match self {
            RtTerm::Var(v) => v.to_string(),
            RtTerm::Sym(n) => format!("^{n}"),
            RtTerm::Id(id) => names.display(*id),
            RtTerm::Pair { fst, snd, .. } => {
                format!("({}, {})", fst.display(names), snd.display(names))
            }
            RtTerm::Enc { body, key, .. } => {
                let parts: Vec<String> = body.iter().map(|t| t.display(names)).collect();
                format!("{{{}}}{}", parts.join(", "), key.display(names))
            }
            RtTerm::LocatedLit { addr, inner } => {
                format!("[{}]{}", addr, inner.display(names))
            }
        }
    }
}

/// Evaluates a matching `[a = b]` at a sequential process sitting at
/// `holder` (Section 3.2's located matching).
///
/// Located literals act as patterns: `l M` matches a value `v` when the
/// creator of `v` is the process reachable from `holder` through `l` and
/// `v` agrees with `M` (exactly, or by base spelling for names — a literal
/// `d` in a pattern refers to "the `d` created there", which is a
/// different machine name than any free `d`).
#[must_use]
pub fn match_eq(a: &RtTerm, b: &RtTerm, holder: &Path, names: &NameTable) -> bool {
    match (a, b) {
        (RtTerm::LocatedLit { addr, inner }, v) | (v, RtTerm::LocatedLit { addr, inner }) => {
            let Ok(expected) = addr.resolve_at(holder) else {
                return false;
            };
            v.creator(names) == Some(&expected) && lit_inner_matches(inner, v, names)
        }
        _ => a == b,
    }
}

/// Matches the inner pattern of a located literal against a value.
fn lit_inner_matches(pattern: &RtTerm, value: &RtTerm, names: &NameTable) -> bool {
    if pattern == value {
        return true;
    }
    match (pattern, value) {
        (RtTerm::Id(p), RtTerm::Id(v)) => names.entry(*p).base == names.entry(*v).base,
        (RtTerm::Sym(p), RtTerm::Id(v)) => p == &names.entry(*v).base,
        _ => false,
    }
}

/// Evaluates an address matching `[a ≗ b]` at `holder`: passes when both
/// operands have a recorded origin and the origins coincide.
#[must_use]
pub fn addr_match_terms(a: &RtTerm, b: &RtTerm, names: &NameTable) -> bool {
    match (a.creator(names), b.creator(names)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Evaluates an address matching `[a ≗ l]` against a literal address at
/// `holder`: passes when `a` originates from the process reachable from
/// `holder` through `l`.
#[must_use]
pub fn addr_match_lit(a: &RtTerm, lit: &RelAddr, holder: &Path, names: &NameTable) -> bool {
    match (a.creator(names), lit.resolve_at(holder)) {
        (Some(c), Ok(expected)) => c == &expected,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse_term;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    fn table_with(names: &mut NameTable) -> (NameId, NameId, NameId) {
        let c = names.intern_free(&Name::new("c"));
        let m = names.alloc_restricted(&Name::new("m"), p("00"));
        let k = names.alloc_restricted(&Name::new("k"), p("1"));
        (c, m, k)
    }

    #[test]
    fn from_static_preserves_structure() {
        let t = parse_term("{m, (a, b)}k").unwrap();
        let rt = RtTerm::from_static(&t);
        match &rt {
            RtTerm::Enc { body, creator, .. } => {
                assert_eq!(body.len(), 2);
                assert_eq!(creator, &None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!rt.is_message(), "symbolic names are not yet messages");
    }

    #[test]
    fn substituting_allocated_names_makes_a_message() {
        let mut names = NameTable::new();
        let m = names.alloc_restricted(&Name::new("m"), p("0"));
        let t = RtTerm::from_static(&parse_term("{m}m").unwrap());
        let t = crate::place::Subst::syms(&[(Name::new("m"), m)]).term(&t);
        assert!(t.is_message());
        match t {
            RtTerm::Enc { body, key, .. } => {
                assert_eq!(*body, vec![RtTerm::Id(m)]);
                assert_eq!(*key, RtTerm::Id(m));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stamping_fills_only_missing_creators() {
        let mut names = NameTable::new();
        let (_, m, k) = table_with(&mut names);
        let cipher = RtTerm::Enc {
            body: vec![RtTerm::Id(m)],
            key: Box::new(RtTerm::Id(k)),
            creator: None,
        };
        let mut stamped = cipher;
        stamped.stamp(&p("00"));
        assert_eq!(stamped.creator(&names), Some(&p("00")));
        // Forwarding through another sender does not change the creator.
        let mut forwarded = stamped.clone();
        forwarded.stamp(&p("1"));
        assert_eq!(forwarded, stamped);
    }

    #[test]
    fn name_creator_comes_from_the_table() {
        let mut names = NameTable::new();
        let (c, m, _) = table_with(&mut names);
        assert_eq!(RtTerm::Id(m).creator(&names), Some(&p("00")));
        assert_eq!(RtTerm::Id(c).creator(&names), None);
        // Stamping never retags names.
        let mut name = RtTerm::Id(m);
        name.stamp(&p("1"));
        assert_eq!(name.creator(&names), Some(&p("00")));
    }

    #[test]
    fn location_is_relative_to_holder() {
        let mut names = NameTable::new();
        let (_, m, _) = table_with(&mut names);
        // Holder at ‖0‖1, creator at ‖0‖0.
        let loc = RtTerm::Id(m).location_at(&p("01"), &names).unwrap();
        assert_eq!(loc, RelAddr::between(&p("01"), &p("00")));
    }

    #[test]
    fn match_eq_compares_identity() {
        let mut names = NameTable::new();
        let (c, m, _) = table_with(&mut names);
        let holder = p("01");
        assert!(match_eq(&RtTerm::Id(m), &RtTerm::Id(m), &holder, &names));
        assert!(!match_eq(&RtTerm::Id(m), &RtTerm::Id(c), &holder, &names));
    }

    #[test]
    fn located_literal_patterns_check_origin() {
        let mut names = NameTable::new();
        let (_, m, _) = table_with(&mut names);
        let holder = p("01");
        // Pattern [01.00]m — "the m created by the process at ‖0‖0".
        let lit = RtTerm::LocatedLit {
            addr: RelAddr::between(&p("01"), &p("00")),
            inner: Box::new(RtTerm::Sym(Name::new("m"))),
        };
        assert!(match_eq(&RtTerm::Id(m), &lit, &holder, &names));
        // Same pattern fails for a name created elsewhere.
        let m2 = names.alloc_restricted(&Name::new("m"), p("1"));
        assert!(!match_eq(&RtTerm::Id(m2), &lit, &holder, &names));
    }

    #[test]
    fn addr_match_compares_origins_only() {
        let mut names = NameTable::new();
        let (_, m, _) = table_with(&mut names);
        let n = names.alloc_restricted(&Name::new("n"), p("00"));
        let other = names.alloc_restricted(&Name::new("q"), p("1"));
        // m and n were both created at ‖0‖0: same origin, different names.
        assert!(addr_match_terms(&RtTerm::Id(m), &RtTerm::Id(n), &names));
        assert!(!addr_match_terms(
            &RtTerm::Id(m),
            &RtTerm::Id(other),
            &names
        ));
        // Free names have no origin.
        let mut t2 = NameTable::new();
        let c = t2.intern_free(&Name::new("c"));
        assert!(!addr_match_terms(&RtTerm::Id(c), &RtTerm::Id(c), &t2));
    }

    #[test]
    fn addr_match_lit_resolves_at_holder() {
        let mut names = NameTable::new();
        let (_, m, _) = table_with(&mut names);
        let holder = p("1");
        let lit = RelAddr::between(&p("1"), &p("00"));
        assert!(addr_match_lit(&RtTerm::Id(m), &lit, &holder, &names));
        // Wrong holder: the literal resolves elsewhere.
        assert!(!addr_match_lit(&RtTerm::Id(m), &lit, &p("01"), &names));
    }

    #[test]
    fn display_uses_table() {
        let mut names = NameTable::new();
        let (c, m, k) = table_with(&mut names);
        let t = RtTerm::Enc {
            body: vec![RtTerm::Id(m), RtTerm::Id(c)],
            key: Box::new(RtTerm::Id(k)),
            creator: None,
        };
        let shown = t.display(&names);
        assert!(shown.starts_with('{') && shown.contains("c"));
    }
}
