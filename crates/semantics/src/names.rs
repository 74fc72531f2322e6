//! The machine's name table: identity and provenance of names.

use std::fmt;

use spi_addr::Path;
use spi_syntax::Name;

/// The identity of a name at run time.
///
/// Two machine names are the same name if and only if their `NameId`s are
/// equal; the display base (`m`, `kAB`, …) is kept in the
/// [`NameTable`] for rendering only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// The raw index into the name table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What the machine knows about one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameEntry {
    /// The source spelling, for display.
    pub base: Name,
    /// `true` when the name was created by executing a restriction `(νm)`;
    /// `false` for the free names of the loaded system.
    pub restricted: bool,
    /// The tree position of the sequential process that executed the
    /// restriction — the *creator* the message-authentication primitive
    /// tracks.  `None` for free names, which belong to the environment.
    pub creator: Option<Path>,
}

// The table is copied on write once per step that allocates a name; inline
// creator paths must not make its entries grow.
const _: () = assert!(std::mem::size_of::<NameEntry>() <= 48);

/// The table of all names a configuration has ever created.
///
/// Free names are interned when a process is loaded; restricted names are
/// allocated each time a `(νm)` prefix executes, so two copies of a
/// replicated `(νm)P` hold *different* names — exactly the freshness the
/// paper's Proposition 3 relies on.
///
/// # Example
///
/// ```
/// use spi_semantics::NameTable;
/// use spi_addr::Path;
/// use spi_syntax::Name;
///
/// let mut names = NameTable::new();
/// let c = names.intern_free(&Name::new("c"));
/// assert_eq!(names.intern_free(&Name::new("c")), c); // stable identity
/// let m = names.alloc_restricted(&Name::new("m"), "00".parse::<Path>()?);
/// assert!(names.entry(m).restricted);
/// assert_eq!(names.entry(m).creator.as_ref().unwrap().to_bits(), "00");
/// # Ok::<(), spi_addr::AddrError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    entries: Vec<NameEntry>,
}

impl NameTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// The number of names in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no names have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not come from this table.
    #[must_use]
    pub fn entry(&self, id: NameId) -> &NameEntry {
        &self.entries[id.index()]
    }

    /// Interns a free name: returns the existing id when a free name with
    /// the same spelling exists, otherwise creates one.
    pub fn intern_free(&mut self, base: &Name) -> NameId {
        for (i, e) in self.entries.iter().enumerate() {
            if !e.restricted && &e.base == base {
                return NameId(i as u32);
            }
        }
        self.push(NameEntry {
            base: base.clone(),
            restricted: false,
            creator: None,
        })
    }

    /// Allocates a fresh restricted name created by the sequential process
    /// at `creator`.  Every call returns a new identity.
    pub fn alloc_restricted(&mut self, base: &Name, creator: Path) -> NameId {
        self.push(NameEntry {
            base: base.clone(),
            restricted: true,
            creator: Some(creator),
        })
    }

    /// The creator position of `id`, when it is a restricted name.
    #[must_use]
    pub fn creator(&self, id: NameId) -> Option<&Path> {
        self.entry(id).creator.as_ref()
    }

    /// Returns `true` when `id` is a free name of the loaded system.
    #[must_use]
    pub fn is_free(&self, id: NameId) -> bool {
        !self.entry(id).restricted
    }

    /// A human-readable rendering of `id`: the base spelling, with a
    /// disambiguating suffix for restricted names (`m'3`).
    #[must_use]
    pub fn display(&self, id: NameId) -> String {
        let e = self.entry(id);
        if e.restricted {
            format!("{}'{}", e.base, id.0)
        } else {
            e.base.to_string()
        }
    }

    /// A copy of the table with every creator position rewritten through
    /// `f`.  Identities, spellings, and restriction flags are untouched —
    /// this is the name-table half of a copy permutation (see the
    /// `symmetry` module).
    #[must_use]
    pub fn map_creators<F: FnMut(&Path) -> Path>(&self, mut f: F) -> NameTable {
        NameTable {
            entries: self
                .entries
                .iter()
                .map(|e| NameEntry {
                    base: e.base.clone(),
                    restricted: e.restricted,
                    creator: e.creator.as_ref().map(&mut f),
                })
                .collect(),
        }
    }

    /// Iterates over `(id, entry)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &NameEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (NameId(i as u32), e))
    }

    fn push(&mut self, e: NameEntry) -> NameId {
        let id = NameId(self.entries.len() as u32);
        self.entries.push(e);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.intern_free(&Name::new("a"));
        let b = t.intern_free(&Name::new("b"));
        assert_ne!(a, b);
        assert_eq!(t.intern_free(&Name::new("a")), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn restricted_names_are_always_fresh() {
        let mut t = NameTable::new();
        let m1 = t.alloc_restricted(&Name::new("m"), p("00"));
        let m2 = t.alloc_restricted(&Name::new("m"), p("00"));
        assert_ne!(m1, m2, "each restriction execution creates a new name");
        assert_eq!(t.entry(m1).base, t.entry(m2).base);
    }

    #[test]
    fn restricted_names_do_not_alias_free_ones() {
        let mut t = NameTable::new();
        let free = t.intern_free(&Name::new("m"));
        let bound = t.alloc_restricted(&Name::new("m"), p("0"));
        assert_ne!(free, bound);
        // Interning again still finds the free one.
        assert_eq!(t.intern_free(&Name::new("m")), free);
    }

    #[test]
    fn creator_is_recorded() {
        let mut t = NameTable::new();
        let m = t.alloc_restricted(&Name::new("m"), p("010"));
        assert_eq!(t.creator(m), Some(&p("010")));
        let c = t.intern_free(&Name::new("c"));
        assert_eq!(t.creator(c), None);
        assert!(t.is_free(c));
        assert!(!t.is_free(m));
    }

    #[test]
    fn display_disambiguates_restricted() {
        let mut t = NameTable::new();
        let c = t.intern_free(&Name::new("c"));
        let m = t.alloc_restricted(&Name::new("m"), p("0"));
        assert_eq!(t.display(c), "c");
        assert_eq!(t.display(m), format!("m'{}", m.index()));
    }

    #[test]
    fn iter_in_allocation_order() {
        let mut t = NameTable::new();
        t.intern_free(&Name::new("a"));
        t.alloc_restricted(&Name::new("m"), p("0"));
        let bases: Vec<String> = t.iter().map(|(_, e)| e.base.to_string()).collect();
        assert_eq!(bases, vec!["a", "m"]);
    }
}
