//! Downward paths in the tree of sequential processes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::str::FromStr;

use crate::{AddrError, Branch};

/// A downward path in the binary tree of sequential processes: a finite
/// string over the arc tags `{‖0, ‖1}`.
///
/// Paths are used both as *absolute positions* (the path from the root of
/// the tree down to a sequential process) and as the two components of a
/// [`RelAddr`](crate::RelAddr).
///
/// Every restricted name, creator stamp and transition label carries a
/// path, so a path up to [`Path::INLINE_CAPACITY`] arcs long lives
/// inline and cloning it never allocates; only a longer one spills to a
/// boxed slice.  Equality, ordering and hashing are those of the tag
/// sequence, whichever way it is stored.
///
/// # Example
///
/// ```
/// use spi_addr::{Branch, Path};
///
/// let p: Path = "110".parse()?;            // ‖1‖1‖0, P3 in Figure 1
/// assert_eq!(p.len(), 3);
/// assert_eq!(p[0], Branch::Right);
/// assert_eq!(p.to_string(), "‖1‖1‖0");
/// assert!(Path::from_str("11")?.is_prefix_of(&p));
/// # use std::str::FromStr;
/// # Ok::<(), spi_addr::AddrError>(())
/// ```
#[derive(Clone)]
pub struct Path {
    tags: Tags,
}

/// A path's storage: inline up to [`Path::INLINE_CAPACITY`] arcs, a
/// boxed slice past that.
#[derive(Clone)]
enum Tags {
    Inline {
        len: u8,
        buf: [Branch; Path::INLINE_CAPACITY],
    },
    Spilled(Box<[Branch]>),
}

// Paths sit in every name entry, stamped term and label: no bigger than
// the `Vec` they replaced, with or without an `Option` around them.
const _: () = assert!(std::mem::size_of::<Path>() <= 24);
const _: () = assert!(std::mem::size_of::<Option<Path>>() <= 24);

impl Default for Path {
    fn default() -> Path {
        Path::root()
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Path) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Path {}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Path) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Path")
            .field("tags", &self.as_slice())
            .finish()
    }
}

impl Path {
    /// The longest path stored without a heap allocation: the inline
    /// buffer, its length byte and the enum tag fill exactly the 24
    /// bytes a spilled boxed slice needs anyway.
    pub const INLINE_CAPACITY: usize = 22;

    /// The empty path `ε`, denoting the root of the tree.
    #[must_use]
    pub const fn root() -> Path {
        Path {
            tags: Tags::Inline {
                len: 0,
                buf: [Branch::Left; Path::INLINE_CAPACITY],
            },
        }
    }

    /// Builds a path from its arc tags, outermost first.
    #[must_use]
    pub fn new(tags: Vec<Branch>) -> Path {
        Path::from_slice(&tags)
    }

    /// Builds a path from a slice of arc tags, outermost first.
    #[must_use]
    pub fn from_slice(tags: &[Branch]) -> Path {
        if tags.len() <= Path::INLINE_CAPACITY {
            let mut buf = [Branch::Left; Path::INLINE_CAPACITY];
            buf[..tags.len()].copy_from_slice(tags);
            Path {
                tags: Tags::Inline {
                    // Lossless: bounded by Path::INLINE_CAPACITY.
                    len: tags.len() as u8,
                    buf,
                },
            }
        } else {
            Path {
                tags: Tags::Spilled(tags.into()),
            }
        }
    }

    /// The arc tags, outermost first.
    #[must_use]
    pub fn as_slice(&self) -> &[Branch] {
        match &self.tags {
            Tags::Inline { len, buf } => &buf[..usize::from(*len)],
            Tags::Spilled(tags) => tags,
        }
    }

    /// Returns `true` when the path is `ε`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The number of arcs in the path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// The first (outermost) tag, if any.
    #[must_use]
    pub fn first(&self) -> Option<Branch> {
        self.as_slice().first().copied()
    }

    /// The last (innermost) tag, if any.
    #[must_use]
    pub fn last(&self) -> Option<Branch> {
        self.as_slice().last().copied()
    }

    /// Iterates over the tags, outermost first.
    pub fn iter(&self) -> impl Iterator<Item = Branch> + '_ {
        self.as_slice().iter().copied()
    }

    /// Extends the path downward by one arc, in place.
    pub fn push(&mut self, b: Branch) {
        match &mut self.tags {
            Tags::Inline { len, buf } if usize::from(*len) < Path::INLINE_CAPACITY => {
                buf[usize::from(*len)] = b;
                *len += 1;
            }
            _ => {
                let mut tags = Vec::with_capacity(self.len() + 1);
                tags.extend_from_slice(self.as_slice());
                tags.push(b);
                self.tags = Tags::Spilled(tags.into_boxed_slice());
            }
        }
    }

    /// Removes and returns the innermost arc, if any.
    pub fn pop(&mut self) -> Option<Branch> {
        let last = self.last()?;
        match &mut self.tags {
            Tags::Inline { len, .. } => *len -= 1,
            Tags::Spilled(tags) => {
                let shorter = Path::from_slice(&tags[..tags.len() - 1]);
                *self = shorter;
            }
        }
        Some(last)
    }

    /// Returns the path extended downward by one arc.
    #[must_use]
    pub fn child(&self, b: Branch) -> Path {
        let mut child = self.clone();
        child.push(b);
        child
    }

    /// Returns the path of the parent node, or `None` at the root.
    #[must_use]
    pub fn parent(&self) -> Option<Path> {
        let mut parent = self.clone();
        parent.pop().map(|_| parent)
    }

    /// Concatenates two paths: `self` followed by `rest`.
    #[must_use]
    pub fn join(&self, rest: &Path) -> Path {
        let (a, b) = (self.as_slice(), rest.as_slice());
        if a.len() + b.len() <= Path::INLINE_CAPACITY {
            let mut joined = self.clone();
            joined.extend(b.iter().copied());
            joined
        } else {
            Path {
                tags: Tags::Spilled([a, b].concat().into_boxed_slice()),
            }
        }
    }

    /// Returns `true` when `self` is a (possibly equal) prefix of `other`:
    /// the node at `self` is an ancestor of, or equal to, the node at
    /// `other`.
    #[must_use]
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.as_slice().starts_with(self.as_slice())
    }

    /// Returns `true` when `self` is a (possibly equal) suffix of `other`.
    #[must_use]
    pub fn is_suffix_of(&self, other: &Path) -> bool {
        other.as_slice().ends_with(self.as_slice())
    }

    /// The number of leading arcs shared by `self` and `other`, i.e. the
    /// depth of their minimal common ancestor.
    #[must_use]
    pub fn common_prefix_len(&self, other: &Path) -> usize {
        self.iter()
            .zip(other.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The path of the minimal common ancestor of `self` and `other`.
    #[must_use]
    pub fn common_ancestor(&self, other: &Path) -> Path {
        self.prefix(self.common_prefix_len(other))
    }

    /// The suffix of the path after dropping its first `n` arcs.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    #[must_use]
    pub fn suffix_from(&self, n: usize) -> Path {
        Path::from_slice(&self.as_slice()[n..])
    }

    /// The prefix consisting of the first `n` arcs.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    #[must_use]
    pub fn prefix(&self, n: usize) -> Path {
        Path::from_slice(&self.as_slice()[..n])
    }
    /// Strips `prefix` from the front of the path, returning the rest, or
    /// `None` when `prefix` is not a prefix of `self`.
    #[must_use]
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        if prefix.is_prefix_of(self) {
            Some(self.suffix_from(prefix.len()))
        } else {
            None
        }
    }

    /// Strips `suffix` from the back of the path, returning the front, or
    /// `None` when `suffix` is not a suffix of `self`.
    #[must_use]
    pub fn strip_suffix(&self, suffix: &Path) -> Option<Path> {
        if suffix.is_suffix_of(self) {
            Some(self.prefix(self.len() - suffix.len()))
        } else {
            None
        }
    }

    /// Renders the path as a compact bit string (`"110"` for `‖1‖1‖0`),
    /// the format accepted by [`FromStr`].  The empty path renders as
    /// `"e"` (for `ε`).
    #[must_use]
    pub fn to_bits(&self) -> String {
        let mut out = String::with_capacity(self.len().max(1));
        let _ = self.write_bits(&mut out);
        out
    }

    /// Streams [`Path::to_bits`] into any [`fmt::Write`] sink without
    /// allocating — paths appear in every canonical state key, so the
    /// hot serialization paths use this directly.
    ///
    /// # Errors
    ///
    /// Propagates the sink's write error.
    pub fn write_bits<S: fmt::Write>(&self, out: &mut S) -> fmt::Result {
        if self.is_empty() {
            return out.write_char('e');
        }
        for b in self.iter() {
            out.write_char(if b.bit() == 0 { '0' } else { '1' })?;
        }
        Ok(())
    }
}

impl Index<usize> for Path {
    type Output = Branch;

    fn index(&self, i: usize) -> &Branch {
        &self.as_slice()[i]
    }
}

impl FromIterator<Branch> for Path {
    fn from_iter<I: IntoIterator<Item = Branch>>(iter: I) -> Path {
        let mut path = Path::root();
        path.extend(iter);
        path
    }
}

impl Extend<Branch> for Path {
    fn extend<I: IntoIterator<Item = Branch>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl From<Vec<Branch>> for Path {
    fn from(tags: Vec<Branch>) -> Path {
        Path::from_slice(&tags)
    }
}

impl fmt::Display for Path {
    /// Renders in the paper's notation: `‖1‖1‖0`; the empty path renders
    /// as `ε`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "\u{3b5}");
        }
        for t in self.iter() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = AddrError;

    /// Parses a compact bit string: `"0"` and `"1"` are arcs, `""` or
    /// `"e"` denote the empty path.
    fn from_str(s: &str) -> Result<Path, AddrError> {
        if s == "e" || s == "\u{3b5}" {
            return Ok(Path::root());
        }
        let mut path = Path::root();
        for ch in s.chars() {
            match ch {
                '0' => path.push(Branch::Left),
                '1' => path.push(Branch::Right),
                _ => return Err(AddrError::BadPathChar { ch }),
            }
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path literal")
    }

    #[test]
    fn parse_and_display_round_trip() {
        let path = p("0110");
        assert_eq!(path.to_string(), "‖0‖1‖1‖0");
        assert_eq!(path.to_bits(), "0110");
        assert_eq!(p(&path.to_bits()), path);
    }

    #[test]
    fn empty_path_displays_epsilon() {
        assert_eq!(Path::root().to_string(), "\u{3b5}");
        assert_eq!(p("e"), Path::root());
        assert_eq!(p(""), Path::root());
        assert_eq!(Path::root().to_bits(), "e");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            "01x".parse::<Path>(),
            Err(AddrError::BadPathChar { ch: 'x' })
        );
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let path = p("01");
        assert_eq!(path.child(Branch::Right).parent(), Some(path));
        assert_eq!(Path::root().parent(), None);
    }

    #[test]
    fn prefix_suffix_relations() {
        let long = p("0110");
        assert!(p("01").is_prefix_of(&long));
        assert!(!p("11").is_prefix_of(&long));
        assert!(p("10").is_suffix_of(&long));
        assert!(!p("00").is_suffix_of(&long));
        assert!(Path::root().is_prefix_of(&long));
        assert!(Path::root().is_suffix_of(&long));
        assert!(long.is_prefix_of(&long));
        assert!(long.is_suffix_of(&long));
    }

    #[test]
    fn strip_prefix_and_suffix() {
        let long = p("0110");
        assert_eq!(long.strip_prefix(&p("01")), Some(p("10")));
        assert_eq!(long.strip_prefix(&p("11")), None);
        assert_eq!(long.strip_suffix(&p("10")), Some(p("01")));
        assert_eq!(long.strip_suffix(&p("11")), None);
    }

    #[test]
    fn common_ancestor_matches_figure_1() {
        // P1 at ‖0‖1, P3 at ‖1‖1‖0: common ancestor is the root.
        assert_eq!(p("01").common_ancestor(&p("110")), Path::root());
        // P2 at ‖1‖0, P3 at ‖1‖1‖0: common ancestor is the node at ‖1.
        assert_eq!(p("10").common_ancestor(&p("110")), p("1"));
        // P3 and P4 share the node at ‖1‖1.
        assert_eq!(p("110").common_ancestor(&p("111")), p("11"));
    }

    #[test]
    fn join_concatenates() {
        assert_eq!(p("01").join(&p("10")), p("0110"));
        assert_eq!(Path::root().join(&p("1")), p("1"));
        assert_eq!(p("1").join(&Path::root()), p("1"));
    }

    #[test]
    fn indexing_and_iteration() {
        let path = p("10");
        assert_eq!(path[0], Branch::Right);
        assert_eq!(path[1], Branch::Left);
        let collected: Path = path.iter().collect();
        assert_eq!(collected, path);
    }

    #[test]
    fn extend_appends() {
        let mut path = p("0");
        path.extend([Branch::Right, Branch::Left]);
        assert_eq!(path, p("010"));
    }
}
