//! Property-based tests for the relative-address algebra.
//!
//! These check the algebraic laws the proved semantics relies on: that
//! `between`/`resolve_at` are inverse, that inversion is an involution
//! realizing Definition 2's compatibility, and — most importantly — that
//! the forwarding composition of Section 3.2 is *coherent*: composing the
//! creator tag with the communication address always yields the direct
//! creator-receiver address.
//!
//! The last group checks [`Path`]'s inline storage against a plain
//! `Vec<Branch>` model, on both sides of the inline/spill boundary.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use spi_addr::{Branch, Path, RelAddr};

fn arb_branch() -> impl Strategy<Value = Branch> {
    prop_oneof![Just(Branch::Left), Just(Branch::Right)]
}

fn arb_path(max_len: usize) -> impl Strategy<Value = Path> {
    prop::collection::vec(arb_branch(), 0..=max_len).prop_map(Path::new)
}

proptest! {
    #[test]
    fn between_is_minimal(a in arb_path(8), b in arb_path(8)) {
        let l = RelAddr::between(&a, &b);
        // Definition 1: when both components are non-empty they start
        // with flipped tags.
        if let (Some(x), Some(y)) = (l.observer().first(), l.target().first()) {
            prop_assert_eq!(x.flip(), y);
        }
        // Re-asserting the invariant through the checked constructor
        // always succeeds.
        prop_assert!(RelAddr::new(l.observer().clone(), l.target().clone()).is_ok());
    }

    #[test]
    fn resolve_inverts_between(a in arb_path(8), b in arb_path(8)) {
        let l = RelAddr::between(&a, &b);
        prop_assert_eq!(l.resolve_at(&a).unwrap(), b.clone());
        prop_assert_eq!(l.inverse().resolve_at(&b).unwrap(), a);
    }

    #[test]
    fn inverse_is_involutive(a in arb_path(8), b in arb_path(8)) {
        let l = RelAddr::between(&a, &b);
        prop_assert_eq!(l.inverse().inverse(), l);
    }

    #[test]
    fn compatibility_is_symmetric(a in arb_path(8), b in arb_path(8)) {
        let l = RelAddr::between(&a, &b);
        let m = l.inverse();
        prop_assert!(l.is_compatible(&m));
        prop_assert!(m.is_compatible(&l));
    }

    #[test]
    fn self_address_is_identity(a in arb_path(8)) {
        prop_assert!(RelAddr::between(&a, &a).is_identity());
    }

    #[test]
    fn composition_is_coherent(
        creator in arb_path(7),
        sender in arb_path(7),
        receiver in arb_path(7),
    ) {
        // The law behind "the identity of names is maintained" when a
        // located datum is forwarded: retagging through the communication
        // address equals direct addressing.
        let tag = RelAddr::between(&sender, &creator);
        let comm = RelAddr::between(&receiver, &sender);
        let composed = tag.compose(&comm).unwrap();
        prop_assert_eq!(composed, RelAddr::between(&receiver, &creator));
    }

    #[test]
    fn composition_with_identity_comm_is_noop(
        creator in arb_path(7),
        holder in arb_path(7),
    ) {
        let tag = RelAddr::between(&holder, &creator);
        prop_assert_eq!(tag.compose(&RelAddr::identity()).unwrap(), tag);
    }

    #[test]
    fn composition_associates_along_forward_chains(
        creator in arb_path(6),
        s1 in arb_path(6),
        s2 in arb_path(6),
        receiver in arb_path(6),
    ) {
        // Forwarding creator → s1 → s2 → receiver, tag updates pointwise;
        // the result never depends on the chaining order.
        let tag0 = RelAddr::between(&s1, &creator);
        let hop1 = RelAddr::between(&s2, &s1);
        let hop2 = RelAddr::between(&receiver, &s2);
        let left = tag0.compose(&hop1).unwrap().compose(&hop2).unwrap();
        // Collapsing the two hops first.
        let collapsed = hop1.compose(&hop2).unwrap();
        let right = tag0.compose(&collapsed).unwrap();
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left, RelAddr::between(&receiver, &creator));
    }

    #[test]
    fn path_bits_round_trip(a in arb_path(12)) {
        let s = a.to_bits();
        let back: Path = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn reladdr_display_parse_round_trip(a in arb_path(8), b in arb_path(8)) {
        let l = RelAddr::between(&a, &b);
        let compact = format!("{}.{}", l.observer().to_bits(), l.target().to_bits());
        let back: RelAddr = compact.parse().unwrap();
        prop_assert_eq!(back, l);
    }

    #[test]
    fn common_ancestor_is_longest_shared_prefix(a in arb_path(10), b in arb_path(10)) {
        let anc = a.common_ancestor(&b);
        prop_assert!(anc.is_prefix_of(&a));
        prop_assert!(anc.is_prefix_of(&b));
        // Maximality: the next arcs (when both exist) differ.
        let k = anc.len();
        if a.len() > k && b.len() > k {
            prop_assert_ne!(a[k], b[k]);
        }
    }
}

/// Arc tags on both sides of the inline/spill boundary: up to three
/// times the inline capacity.
fn arb_tags() -> impl Strategy<Value = Vec<Branch>> {
    prop::collection::vec(arb_branch(), 0..=3 * Path::INLINE_CAPACITY)
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn path_order_equality_and_hash_are_the_tag_sequences(
        a in arb_tags(),
        b in arb_tags(),
        cut in 0..=3 * Path::INLINE_CAPACITY,
    ) {
        // A second operand sharing a prefix with the first, so equal and
        // prefix-related pairs come up as often as unrelated ones.
        let mut c = a[..cut.min(a.len())].to_vec();
        c.extend_from_slice(&b[..b.len() % 3]);
        for other in [&b, &c, &a] {
            let (pa, po) = (Path::new(a.clone()), Path::new(other.clone()));
            prop_assert_eq!(pa.cmp(&po), a.cmp(other));
            prop_assert_eq!(pa == po, &a == other);
            prop_assert_eq!(hash_of(&po), hash_of(other));
        }
    }

    #[test]
    fn path_operations_match_the_vec_model(a in arb_tags(), b in arb_tags(), n in 0..=66usize) {
        let pa = Path::new(a.clone());
        prop_assert_eq!(pa.len(), a.len());
        prop_assert_eq!(pa.iter().collect::<Vec<_>>(), a.clone());
        prop_assert_eq!(pa.as_slice(), &a[..]);
        // push, one arc at a time across the boundary, then pop back.
        let mut grown = Path::root();
        for (i, &t) in a.iter().enumerate() {
            grown.push(t);
            prop_assert_eq!(grown.as_slice(), &a[..=i]);
        }
        prop_assert_eq!(&grown, &pa);
        let mut model = a.clone();
        while let Some(t) = model.pop() {
            prop_assert_eq!(grown.pop(), Some(t));
            prop_assert_eq!(grown.as_slice(), &model[..]);
        }
        prop_assert_eq!(grown.pop(), None);
        // join
        let joined: Vec<Branch> = a.iter().chain(b.iter()).copied().collect();
        let pj = pa.join(&Path::new(b.clone()));
        prop_assert_eq!(pj.as_slice(), &joined[..]);
        prop_assert_eq!(pj, Path::new(joined));
        // prefix, suffix_from and the strips
        let n = n.min(a.len());
        let (front, back) = (pa.prefix(n), pa.suffix_from(n));
        prop_assert_eq!(front.as_slice(), &a[..n]);
        prop_assert_eq!(back.as_slice(), &a[n..]);
        prop_assert_eq!(pa.strip_prefix(&front), Some(back.clone()));
        prop_assert_eq!(pa.strip_suffix(&back), Some(front.clone()));
        prop_assert_eq!(&front.join(&back), &pa);
        let foreign = Path::new(b.clone());
        prop_assert_eq!(pa.strip_prefix(&foreign).is_some(), a.starts_with(&b));
        prop_assert_eq!(pa.strip_suffix(&foreign).is_some(), a.ends_with(&b));
        // child and parent
        let child = pa.child(Branch::Right);
        prop_assert_eq!(child.last(), Some(Branch::Right));
        prop_assert_eq!(child.parent(), Some(pa.clone()));
        prop_assert_eq!(child.len(), a.len() + 1);
        // rendering
        let bits: String = a.iter().map(|t| if t.bit() == 0 { '0' } else { '1' }).collect();
        prop_assert_eq!(pa.to_bits(), if a.is_empty() { "e".to_string() } else { bits });
        prop_assert_eq!(pa.to_bits().parse::<Path>().unwrap(), pa);
    }
}
