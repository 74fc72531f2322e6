//! The binary tree of sequential processes (Figure 1 of the paper).

use std::fmt;
use std::sync::Arc;

use crate::{AddrError, Branch, Path, RelAddr};

/// The tree of sequential processes of a system, "built using the binary
/// parallel composition as the main operator" (Section 3).
///
/// Internal nodes are occurrences of the parallel operator; leaves carry
/// the sequential components.  Left arcs are tagged `‖0` and right arcs
/// `‖1`, so every leaf is identified by its absolute [`Path`] and the
/// relative address between two leaves is
/// [`RelAddr::between`] of their paths.
///
/// # Example
///
/// Figure 1, the tree of `(P0|P1)|(P2|(P3|P4))`:
///
/// ```
/// use spi_addr::{Path, ProcTree, RelAddr};
///
/// let fig1 = ProcTree::node(
///     ProcTree::node(ProcTree::leaf("P0"), ProcTree::leaf("P1")),
///     ProcTree::node(
///         ProcTree::leaf("P2"),
///         ProcTree::node(ProcTree::leaf("P3"), ProcTree::leaf("P4")),
///     ),
/// );
/// assert_eq!(fig1.leaf_count(), 5);
/// let p1 = fig1.find(|p| *p == "P1").unwrap();
/// let p3 = fig1.find(|p| *p == "P3").unwrap();
/// assert_eq!(RelAddr::between(&p1, &p3).to_string(), "‖0‖1•‖1‖1‖0");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProcTree<T> {
    /// A sequential component.
    Leaf(T),
    /// A parallel composition: left child under `‖0`, right under `‖1`.
    ///
    /// Children are [`Arc`]-shared: cloning a tree is two reference
    /// bumps, and mutating a leaf copies only the spine from the root to
    /// that leaf (state-space explorers clone whole configurations per
    /// candidate successor, so structural sharing is what makes those
    /// clones affordable).
    Node(Arc<ProcTree<T>>, Arc<ProcTree<T>>),
}

/// The two children of a parallel node, as returned by
/// [`ProcTree::children`].
pub type TreeNode<'a, T> = (&'a ProcTree<T>, &'a ProcTree<T>);

impl<T> ProcTree<T> {
    /// Builds a leaf holding a sequential component.
    #[must_use]
    pub fn leaf(value: T) -> ProcTree<T> {
        ProcTree::Leaf(value)
    }

    /// Builds a parallel node with the given children.
    #[must_use]
    pub fn node(left: ProcTree<T>, right: ProcTree<T>) -> ProcTree<T> {
        ProcTree::Node(Arc::new(left), Arc::new(right))
    }

    /// The children of the root, or `None` at a leaf.
    #[must_use]
    pub fn children(&self) -> Option<TreeNode<'_, T>> {
        match self {
            ProcTree::Leaf(_) => None,
            ProcTree::Node(l, r) => Some((l.as_ref(), r.as_ref())),
        }
    }

    /// The number of leaves (sequential components) in the tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        match self {
            ProcTree::Leaf(_) => 1,
            ProcTree::Node(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// The subtree rooted at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::PathOutOfTree`] when the path descends below a
    /// leaf.
    pub fn subtree(&self, path: &Path) -> Result<&ProcTree<T>, AddrError> {
        let mut cur = self;
        for (i, b) in path.iter().enumerate() {
            match cur {
                ProcTree::Leaf(_) => {
                    return Err(AddrError::PathOutOfTree {
                        path: path.prefix(i + 1),
                    })
                }
                ProcTree::Node(l, r) => {
                    cur = match b {
                        Branch::Left => l,
                        Branch::Right => r,
                    };
                }
            }
        }
        Ok(cur)
    }

    /// The leaf value at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::PathOutOfTree`] when `path` does not denote a
    /// leaf of the tree.
    pub fn leaf_at(&self, path: &Path) -> Result<&T, AddrError> {
        match self.subtree(path)? {
            ProcTree::Leaf(v) => Ok(v),
            ProcTree::Node(_, _) => Err(AddrError::PathOutOfTree { path: path.clone() }),
        }
    }

    /// Mutable access to the leaf value at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::PathOutOfTree`] when `path` does not denote a
    /// leaf of the tree.
    pub fn leaf_at_mut(&mut self, path: &Path) -> Result<&mut T, AddrError>
    where
        T: Clone,
    {
        let slot = self.slot_at_mut(path.as_slice())?;
        match slot {
            ProcTree::Leaf(v) => Ok(v),
            ProcTree::Node(_, _) => Err(AddrError::PathOutOfTree { path: path.clone() }),
        }
    }

    /// Replaces the subtree at `path` with `replacement`.
    ///
    /// This is how the machine grows the tree in place: a leaf `P|Q`
    /// becomes a node with two fresh leaves, and an unfolding replication
    /// `!P` becomes the node `(P, !P)` — so the paths of all *other*
    /// leaves never change and previously captured relative addresses
    /// remain valid.
    ///
    /// Shared spine nodes above `path` are copied on write; the replaced
    /// subtree itself is released, never copied, so replacing a leaf
    /// costs nothing beyond the spine.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::PathOutOfTree`] when `path` descends below a
    /// leaf.
    pub fn replace(&mut self, path: &Path, replacement: ProcTree<T>) -> Result<(), AddrError>
    where
        T: Clone,
    {
        let Some((last, spine)) = path.as_slice().split_last() else {
            *self = replacement;
            return Ok(());
        };
        match self.slot_at_mut(spine)? {
            ProcTree::Leaf(_) => Err(AddrError::PathOutOfTree { path: path.clone() }),
            ProcTree::Node(l, r) => {
                *(match last {
                    Branch::Left => l,
                    Branch::Right => r,
                }) = Arc::new(replacement);
                Ok(())
            }
        }
    }

    /// Iterates over `(path, leaf)` pairs in left-to-right order.
    pub fn leaves(&self) -> Leaves<'_, T> {
        Leaves {
            root: self,
            next: Some(Path::root()),
        }
    }

    /// The path of the first leaf (in left-to-right order) whose value
    /// satisfies `pred`.
    #[must_use]
    pub fn find<F: FnMut(&T) -> bool>(&self, mut pred: F) -> Option<Path> {
        self.leaves().find(|(_, v)| pred(v)).map(|(path, _)| path)
    }

    /// Maps every leaf value, preserving the tree shape (and hence every
    /// relative address).
    #[must_use]
    pub fn map<U, F: FnMut(&Path, &T) -> U>(&self, mut f: F) -> ProcTree<U> {
        fn go<T, U>(
            t: &ProcTree<T>,
            path: &mut Path,
            f: &mut impl FnMut(&Path, &T) -> U,
        ) -> ProcTree<U> {
            match t {
                ProcTree::Leaf(v) => ProcTree::Leaf(f(path, v)),
                ProcTree::Node(l, r) => {
                    path.push(Branch::Left);
                    let nl = go(l, path, f);
                    path.pop();
                    path.push(Branch::Right);
                    let nr = go(r, path, f);
                    path.pop();
                    ProcTree::node(nl, nr)
                }
            }
        }
        go(self, &mut Path::root(), &mut f)
    }

    /// The relative address of the leaf at `target` as seen from the leaf
    /// at `observer` — [`RelAddr::between`] of the two paths, provided
    /// both denote leaves of this tree.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::PathOutOfTree`] when either path is not a
    /// leaf.
    pub fn address_between(&self, observer: &Path, target: &Path) -> Result<RelAddr, AddrError> {
        self.leaf_at(observer)?;
        self.leaf_at(target)?;
        Ok(RelAddr::between(observer, target))
    }

    /// Descends to the slot at `path`, copying shared spine nodes on the
    /// way down (copy-on-write): siblings of the path stay shared with
    /// every other clone of this tree.
    fn slot_at_mut(&mut self, path: &[Branch]) -> Result<&mut ProcTree<T>, AddrError>
    where
        T: Clone,
    {
        let mut cur = self;
        for (i, b) in path.iter().enumerate() {
            match cur {
                ProcTree::Leaf(_) => {
                    return Err(AddrError::PathOutOfTree {
                        path: Path::from_slice(&path[..=i]),
                    })
                }
                ProcTree::Node(l, r) => {
                    cur = match b {
                        Branch::Left => Arc::make_mut(l),
                        Branch::Right => Arc::make_mut(r),
                    };
                }
            }
        }
        Ok(cur)
    }
}

impl<T: fmt::Display> fmt::Display for ProcTree<T> {
    /// Renders the tree with explicit parentheses around every parallel
    /// composition, e.g. `((P0 | P1) | (P2 | (P3 | P4)))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcTree::Leaf(v) => write!(f, "{v}"),
            ProcTree::Node(l, r) => write!(f, "({l} | {r})"),
        }
    }
}

/// Iterator over the `(path, value)` pairs of a tree's leaves, produced by
/// [`ProcTree::leaves`].
///
/// It keeps only the position of the subtree whose leftmost leaf comes
/// next and walks down from the root for each leaf: no stack, so a walk
/// never touches the heap.
#[derive(Debug)]
pub struct Leaves<'a, T> {
    root: &'a ProcTree<T>,
    /// The root of the subtree whose leftmost leaf is next, if any.
    next: Option<Path>,
}

impl<'a, T> Iterator for Leaves<'a, T> {
    type Item = (Path, &'a T);

    fn next(&mut self) -> Option<(Path, &'a T)> {
        let mut path = self.next.take()?;
        let mut node = self.root.subtree(&path).ok()?;
        let leaf = loop {
            match node {
                ProcTree::Leaf(v) => break v,
                ProcTree::Node(l, _) => {
                    path.push(Branch::Left);
                    node = l;
                }
            }
        };
        // The next subtree is the right sibling of the deepest left arc.
        let mut after = path.clone();
        while let Some(b) = after.pop() {
            if b == Branch::Left {
                after.push(Branch::Right);
                self.next = Some(after);
                break;
            }
        }
        Some((path, leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path literal")
    }

    fn fig1() -> ProcTree<&'static str> {
        ProcTree::node(
            ProcTree::node(ProcTree::leaf("P0"), ProcTree::leaf("P1")),
            ProcTree::node(
                ProcTree::leaf("P2"),
                ProcTree::node(ProcTree::leaf("P3"), ProcTree::leaf("P4")),
            ),
        )
    }

    #[test]
    fn figure_1_leaf_positions() {
        let t = fig1();
        assert_eq!(t.leaf_count(), 5);
        assert_eq!(t.leaf_at(&p("00")).unwrap(), &"P0");
        assert_eq!(t.leaf_at(&p("01")).unwrap(), &"P1");
        assert_eq!(t.leaf_at(&p("10")).unwrap(), &"P2");
        assert_eq!(t.leaf_at(&p("110")).unwrap(), &"P3");
        assert_eq!(t.leaf_at(&p("111")).unwrap(), &"P4");
    }

    #[test]
    fn figure_1_relative_address() {
        let t = fig1();
        let l = t.address_between(&p("01"), &p("110")).unwrap();
        assert_eq!(l.to_string(), "‖0‖1•‖1‖1‖0");
    }

    #[test]
    fn leaves_iterate_left_to_right() {
        let t = fig1();
        let got: Vec<&str> = t.leaves().map(|(_, v)| *v).collect();
        assert_eq!(got, vec!["P0", "P1", "P2", "P3", "P4"]);
        let paths: Vec<String> = t.leaves().map(|(path, _)| path.to_bits()).collect();
        assert_eq!(paths, vec!["00", "01", "10", "110", "111"]);
    }

    #[test]
    fn leaf_lookup_errors() {
        let t = fig1();
        assert!(matches!(
            t.leaf_at(&p("0000")),
            Err(AddrError::PathOutOfTree { .. })
        ));
        // An internal node is not a leaf.
        assert!(matches!(
            t.leaf_at(&p("0")),
            Err(AddrError::PathOutOfTree { .. })
        ));
    }

    #[test]
    fn replace_grows_in_place_without_moving_others() {
        let mut t = fig1();
        // Unfold "P3" into (P3' | !P3): other leaves keep their paths.
        t.replace(
            &p("110"),
            ProcTree::node(ProcTree::leaf("P3'"), ProcTree::leaf("!P3")),
        )
        .unwrap();
        assert_eq!(t.leaf_at(&p("01")).unwrap(), &"P1");
        assert_eq!(t.leaf_at(&p("1100")).unwrap(), &"P3'");
        assert_eq!(t.leaf_at(&p("1101")).unwrap(), &"!P3");
        assert_eq!(t.leaf_count(), 6);
    }

    #[test]
    fn replace_on_a_clone_copies_only_the_spine() {
        let original = fig1();
        let mut t = original.clone();
        t.replace(&p("110"), ProcTree::leaf("Q3")).unwrap();
        assert_eq!(original.leaf_at(&p("110")).unwrap(), &"P3");
        assert_eq!(t.leaf_at(&p("110")).unwrap(), &"Q3");
        // Subtrees off the path stay shared with the original.
        let (ProcTree::Node(l0, r0), ProcTree::Node(l1, r1)) = (&original, &t) else {
            panic!("root is a node");
        };
        assert!(Arc::ptr_eq(l0, l1));
        assert!(!Arc::ptr_eq(r0, r1));
        let (Some((l0, _)), Some((l1, _))) = (r0.children(), r1.children()) else {
            panic!("‖1 is a node");
        };
        assert!(std::ptr::eq(l0, l1));
        // Replacing the root swaps the whole tree.
        t.replace(&Path::root(), ProcTree::leaf("R")).unwrap();
        assert_eq!(t, ProcTree::leaf("R"));
        assert!(matches!(
            t.replace(&p("0"), ProcTree::leaf("S")),
            Err(AddrError::PathOutOfTree { .. })
        ));
    }

    #[test]
    fn leaves_of_a_deep_tree_walk_past_the_inline_path_capacity() {
        // A right comb 40 deep: leaf k sits at ‖1^k‖0, the last at ‖1^40.
        let depth = 40;
        let mut t = ProcTree::leaf(depth);
        for k in (0..depth).rev() {
            t = ProcTree::node(ProcTree::leaf(k), t);
        }
        let got: Vec<(String, i32)> = t.leaves().map(|(path, v)| (path.to_bits(), *v)).collect();
        assert_eq!(got.len(), 41);
        for (k, (bits, v)) in got.iter().enumerate() {
            let mut want = "1".repeat(k);
            if k < 40 {
                want.push('0');
            }
            assert_eq!((bits.as_str(), *v), (want.as_str(), k as i32));
        }
    }

    #[test]
    fn leaf_at_mut_updates_value() {
        let mut t = fig1();
        *t.leaf_at_mut(&p("10")).unwrap() = "Q2";
        assert_eq!(t.leaf_at(&p("10")).unwrap(), &"Q2");
    }

    #[test]
    fn map_preserves_shape() {
        let t = fig1();
        let mapped = t.map(|path, v| format!("{v}@{}", path.to_bits()));
        assert_eq!(mapped.leaf_at(&p("110")).unwrap(), "P3@110");
        assert_eq!(mapped.leaf_count(), t.leaf_count());
    }

    #[test]
    fn find_returns_leftmost_match() {
        let t = fig1();
        assert_eq!(t.find(|v| v.starts_with('P')), Some(p("00")));
        assert_eq!(t.find(|v| *v == "P4"), Some(p("111")));
        assert_eq!(t.find(|v| *v == "missing"), None);
    }

    #[test]
    fn display_shows_structure() {
        assert_eq!(fig1().to_string(), "((P0 | P1) | (P2 | (P3 | P4)))");
    }
}
