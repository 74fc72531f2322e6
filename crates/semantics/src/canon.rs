//! Canonical state keys: configuration identity up to renaming of
//! machine-generated names.
//!
//! Two interleavings that allocate the same restricted names in different
//! orders produce configurations that differ only in [`NameId`] numbering.
//! The canonical key renumbers ids by first occurrence in a deterministic
//! left-to-right traversal, so explorers can deduplicate such states.
//! Free names are serialized by spelling (their identity), restricted
//! names by their creator position (which is part of the semantics — it
//! is what the authentication primitives observe).
//!
//! The serializer is generic over a [`Lens`], which decides how absolute
//! paths (and, optionally, restricted names) are written and, for a copy
//! permutation, which subtree is written where.  The plain key uses
//! [`Verbatim`], which writes the tree as it is; the session-symmetry
//! search writes copy signatures through a masking lens and scores a
//! candidate copy arrangement through its [`PathPerm`](crate::PathPerm),
//! which serializes the *unpermuted* state exactly as the permuted one
//! would serialize.

use std::fmt::Write;

use spi_addr::{Path, ProcTree};

use crate::{
    Config, LeafState, NameEntry, NameId, NameTable, RtChanIndex, RtChannel, RtProcess, RtTerm,
};

/// How a canonical serialization writes the parts of a state that a copy
/// permutation moves: absolute paths, and the subtrees at copy roots.
pub trait Lens {
    /// Writes an absolute path: a restricted name's creator, a composite
    /// creator stamp, or an `AtAbs` localization index.
    fn path<S: Write>(&mut self, p: &Path, out: &mut S);

    /// Writes restricted name `id` when the lens identifies it by
    /// something other than its canonical number, returning `true`; the
    /// default leaves it to the canonicalizer's first-occurrence
    /// numbering.
    fn name<S: Write>(&mut self, _id: NameId, _entry: &NameEntry, _out: &mut S) -> bool {
        false
    }

    /// Writes the configuration's process tree.  The default writes it
    /// as it is; a lens that moves subtrees overrides it.
    fn tree<S: Write>(&mut self, canon: &mut Canonicalizer, cfg: &Config, out: &mut S)
    where
        Self: Sized,
    {
        canon.write_tree(&cfg.tree, &cfg.names, self, out);
    }

    /// Called for every construct that resolves a relative address
    /// against its holder's depth: an unresolved `At` channel index, a
    /// located literal, or an address matching against a literal.
    fn depth_dependent(&mut self) {}
}

/// The plain canonical serialization: paths written as they are, nothing
/// moved.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verbatim;

impl Lens for Verbatim {
    #[inline]
    fn path<S: Write>(&mut self, p: &Path, out: &mut S) {
        let _ = p.write_bits(out);
    }
}

/// Serializes a composite node's creator stamp.
fn write_creator<L: Lens, S: Write>(creator: &Option<Path>, lens: &mut L, out: &mut S) {
    match creator {
        Some(p) => {
            let _ = out.write_char('#');
            lens.path(p, out);
        }
        None => { let _ = out.write_str("#-"); }
    }
}

/// Writes a decimal number without going through `fmt::Arguments` —
/// canonical ids appear once per name occurrence, making this one of
/// the hottest writes in state serialization.  Writes what `{n}`
/// formats.
pub(crate) fn write_decimal<S: Write>(mut n: usize, out: &mut S) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if let Ok(digits) = std::str::from_utf8(&buf[i..]) {
        let _ = out.write_str(digits);
    }
}

/// [`write_decimal`] in lower-case hexadecimal: what `{n:x}` formats.
pub(crate) fn write_hex<S: Write>(mut n: u128, out: &mut S) {
    let mut buf = [0u8; 32];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b"0123456789abcdef"[(n & 0xf) as usize];
        n >>= 4;
        if n == 0 {
            break;
        }
    }
    if let Ok(digits) = std::str::from_utf8(&buf[i..]) {
        let _ = out.write_str(digits);
    }
}

/// Renumbers [`NameId`]s by first occurrence while serializing terms.
///
/// Explorers that carry extra state (e.g. intruder knowledge) extend the
/// configuration key by serializing their terms through the same
/// canonicalizer.
#[derive(Debug, Clone, Default)]
pub struct Canonicalizer {
    /// `NameId` index → canonical number + 1 (`0` = not yet assigned).
    /// A flat vector: ids are dense table indices, and this map is
    /// consulted once per name occurrence.
    map: Vec<u32>,
    /// Assignment journal: `order[k]` is the id numbered `k`.  Lets
    /// [`Canonicalizer::probe_term`] roll back precisely the
    /// assignments a probe introduced.
    order: Vec<NameId>,
}

impl Canonicalizer {
    /// A fresh canonicalizer.
    #[must_use]
    pub fn new() -> Canonicalizer {
        Canonicalizer::default()
    }

    fn canon_id<L: Lens, S: Write>(
        &mut self,
        id: NameId,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        let e = names.entry(id);
        if e.restricted {
            if lens.name(id, e, out) {
                return;
            }
            let slot = id.index();
            if slot >= self.map.len() {
                self.map.resize(slot + 1, 0);
            }
            let k = if self.map[slot] == 0 {
                self.order.push(id);
                self.map[slot] = u32::try_from(self.order.len()).unwrap_or(u32::MAX);
                self.order.len() - 1
            } else {
                (self.map[slot] - 1) as usize
            };
            let _ = out.write_char('r');
            write_decimal(k, out);
            let _ = out.write_char('@');
            match &e.creator {
                Some(p) => lens.path(p, out),
                None => {
                    let _ = out.write_char('-');
                }
            }
        } else {
            let _ = out.write_str("f:");
            let _ = out.write_str(e.base.as_str());
        }
    }

    /// Forgets every numbering, keeping the allocations — a fresh
    /// canonicalizer for the next serialization.
    pub fn clear(&mut self) {
        self.forget(0);
    }

    /// Forgets the numberings from the `from`-th on.
    fn forget(&mut self, from: usize) {
        for id in self.order.drain(from..) {
            self.map[id.index()] = 0;
        }
    }

    /// The assignment journal: `journal()[k]` is the [`NameId`] that was
    /// numbered `k` during serialization.  Two states with equal canonical
    /// strings have journals of equal length, and zipping them yields the
    /// name bijection witnessing the isomorphism — the symmetry quotient
    /// stores this to rename observations when a merged state's traces are
    /// extracted through its representative.
    #[must_use]
    pub fn journal(&self) -> &[NameId] {
        &self.order
    }

    /// Appends `t`'s canonical *probe* rendering to `out`: ids already
    /// numbered keep their numbers, ids first seen during this rendering
    /// are numbered as usual but **forgotten afterwards**, leaving the
    /// canonicalizer exactly as it was.  Probes give order keys for sets
    /// of terms whose serialization order must not depend on the set's
    /// internal ([`NameId`]-based, allocation-history-dependent) order;
    /// a caller ordering many terms renders them all into one buffer and
    /// sorts the slices.
    ///
    /// Returns whether the probe numbered some id afresh.  When it did
    /// not, the probe is *closed*: every id it wrote already had its
    /// number, so until the canonicalizer is cleared the term's
    /// rendering is exactly the probe's bytes.
    pub fn probe_term<L: Lens>(
        &mut self,
        t: &RtTerm,
        names: &NameTable,
        lens: &mut L,
        out: &mut String,
    ) -> bool {
        let saved = self.order.len();
        self.write_term(t, names, lens, out);
        let open = self.order.len() > saved;
        self.forget(saved);
        open
    }

    /// Serializes a term into `out` with canonical name numbering.
    pub fn write_term<L: Lens, S: Write>(
        &mut self,
        t: &RtTerm,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        match t {
            RtTerm::Var(v) => {
                let _ = out.write_str("v:");
                let _ = out.write_str(v.as_str());
            }
            RtTerm::Sym(n) => {
                let _ = out.write_str("s:");
                let _ = out.write_str(n.as_str());
            }
            RtTerm::Id(id) => self.canon_id(*id, names, lens, out),
            RtTerm::Pair { fst, snd, creator } => {
                let _ = out.write_char('(');
                self.write_term(fst, names, lens, out);
                let _ = out.write_char(',');
                self.write_term(snd, names, lens, out);
                let _ = out.write_char(')');
                write_creator(creator, lens, out);
            }
            RtTerm::Enc { body, key, creator } => {
                let _ = out.write_char('{');
                for (i, x) in body.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_char(',');
                    }
                    self.write_term(x, names, lens, out);
                }
                let _ = out.write_char('}');
                self.write_term(key, names, lens, out);
                write_creator(creator, lens, out);
            }
            RtTerm::LocatedLit { addr, inner } => {
                lens.depth_dependent();
                let _ = out.write_str("L[");
                let _ = addr.observer().write_bits(out);
                let _ = out.write_char('.');
                let _ = addr.target().write_bits(out);
                let _ = out.write_char(']');
                self.write_term(inner, names, lens, out);
            }
        }
    }

    fn write_channel<L: Lens, S: Write>(
        &mut self,
        ch: &RtChannel,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        self.write_term(&ch.subject, names, lens, out);
        match &ch.index {
            RtChanIndex::Plain => {}
            RtChanIndex::At(a) => {
                lens.depth_dependent();
                let _ = out.write_str("@?");
                let _ = a.observer().write_bits(out);
                let _ = out.write_char('.');
                let _ = a.target().write_bits(out);
            }
            RtChanIndex::AtAbs(p) => {
                let _ = out.write_char('@');
                lens.path(p, out);
            }
            RtChanIndex::Loc(l) => {
                let _ = write!(out, "@^{l}");
            }
        }
    }

    /// Serializes a residual process into `out`.
    pub fn write_process<L: Lens, S: Write>(
        &mut self,
        p: &RtProcess,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        match p {
            RtProcess::Nil => { let _ = out.write_char('0'); }
            RtProcess::Output(ch, t, cont) => {
                let _ = out.write_char('O');
                self.write_channel(ch, names, lens, out);
                let _ = out.write_char('<');
                self.write_term(t, names, lens, out);
                let _ = out.write_char('>');
                self.write_process(cont, names, lens, out);
            }
            RtProcess::Input(ch, x, cont) => {
                let _ = out.write_char('I');
                self.write_channel(ch, names, lens, out);
                let _ = out.write_char('(');
                let _ = out.write_str(x.as_str());
                let _ = out.write_char(')');
                self.write_process(cont, names, lens, out);
            }
            RtProcess::Restrict(n, body) => {
                let _ = out.write_str("N(");
                let _ = out.write_str(n.as_str());
                let _ = out.write_char(')');
                self.write_process(body, names, lens, out);
            }
            RtProcess::Par(l, r) => {
                let _ = out.write_char('[');
                self.write_process(l, names, lens, out);
                let _ = out.write_char('|');
                self.write_process(r, names, lens, out);
                let _ = out.write_char(']');
            }
            RtProcess::Match(a, b, cont) => {
                let _ = out.write_char('M');
                self.write_term(a, names, lens, out);
                let _ = out.write_char('=');
                self.write_term(b, names, lens, out);
                self.write_process(cont, names, lens, out);
            }
            RtProcess::AddrMatchT(a, b, cont) => {
                let _ = out.write_char('A');
                self.write_term(a, names, lens, out);
                let _ = out.write_char('~');
                self.write_term(b, names, lens, out);
                self.write_process(cont, names, lens, out);
            }
            RtProcess::AddrMatchL(a, l, cont) => {
                lens.depth_dependent();
                let _ = out.write_char('A');
                self.write_term(a, names, lens, out);
                let _ = out.write_str("~@");
                let _ = l.observer().write_bits(out);
                let _ = out.write_char('.');
                let _ = l.target().write_bits(out);
                self.write_process(cont, names, lens, out);
            }
            RtProcess::Bang(body) => {
                let _ = out.write_char('!');
                self.write_process(body, names, lens, out);
            }
            RtProcess::Split {
                pair,
                fst,
                snd,
                body,
            } => {
                let _ = out.write_char('S');
                self.write_term(pair, names, lens, out);
                let _ = out.write_char('(');
                let _ = out.write_str(fst.as_str());
                let _ = out.write_char(',');
                let _ = out.write_str(snd.as_str());
                let _ = out.write_char(')');
                self.write_process(body, names, lens, out);
            }
            RtProcess::Case {
                scrutinee,
                binders,
                key,
                body,
            } => {
                let _ = out.write_char('C');
                self.write_term(scrutinee, names, lens, out);
                let _ = out.write_char('{');
                for (i, b) in binders.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_char(',');
                    }
                    let _ = out.write_str(b.as_str());
                }
                let _ = out.write_char('}');
                self.write_term(key, names, lens, out);
                let _ = out.write_char(':');
                self.write_process(body, names, lens, out);
            }
        }
    }

    pub(crate) fn write_leaf<L: Lens, S: Write>(
        &mut self,
        leaf: &LeafState,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        match leaf {
            LeafState::Dead => { let _ = out.write_char('D'); }
            LeafState::Out {
                chan,
                payload,
                cont,
            } => {
                let _ = out.write_char('o');
                self.write_channel(chan, names, lens, out);
                let _ = out.write_char('<');
                self.write_term(payload, names, lens, out);
                let _ = out.write_char('>');
                self.write_process(cont, names, lens, out);
            }
            LeafState::In { chan, var, cont } => {
                let _ = out.write_char('i');
                self.write_channel(chan, names, lens, out);
                let _ = out.write_char('(');
                let _ = out.write_str(var.as_str());
                let _ = out.write_char(')');
                self.write_process(cont, names, lens, out);
            }
            LeafState::Bang { body, unfolded } => {
                let _ = out.write_char('b');
                write_decimal(*unfolded as usize, out);
                self.write_process(body, names, lens, out);
            }
        }
    }

    pub(crate) fn write_tree<L: Lens, S: Write>(
        &mut self,
        tree: &ProcTree<LeafState>,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        match tree {
            ProcTree::Leaf(l) => self.write_leaf(l, names, lens, out),
            ProcTree::Node(l, r) => {
                let _ = out.write_char('(');
                self.write_tree(l, names, lens, out);
                let _ = out.write_char(';');
                self.write_tree(r, names, lens, out);
                let _ = out.write_char(')');
            }
        }
    }
}

impl Config {
    /// Serializes the configuration into `out` through `canon`, renaming
    /// machine names canonically.  Explorers append their own state (e.g.
    /// intruder knowledge) with the same canonicalizer to form a full
    /// state key.
    pub fn write_canonical<S: Write>(&self, canon: &mut Canonicalizer, out: &mut S) {
        canon.write_tree(&self.tree, &self.names, &mut Verbatim, out);
    }

    /// [`Config::write_canonical`] through `lens`: the serialization of
    /// the configuration the lens describes — for a
    /// [`PathPerm`](crate::PathPerm), byte-for-byte the serialization of
    /// the physically permuted configuration.
    pub fn write_canonical_with<L: Lens, S: Write>(
        &self,
        canon: &mut Canonicalizer,
        lens: &mut L,
        out: &mut S,
    ) {
        lens.tree(canon, self, out);
    }

    /// The canonical key of this configuration alone.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let mut canon = Canonicalizer::new();
        let mut out = String::new();
        self.write_canonical(&mut canon, &mut out);
        out
    }
}

/// An incremental 128-bit hasher that consumes the canonical
/// serialization stream through [`std::fmt::Write`], so every
/// `write_*` method of [`Canonicalizer`] can feed it directly instead
/// of a heap [`String`].
///
/// Hashing the *stream* (rather than a finished string) keeps state
/// interning allocation-free; the string path stays available for
/// debugging and for differential verification that the hash never
/// conflates distinct keys in practice.
///
/// The mixer is FNV-style (xor then multiply by the 128-bit FNV prime)
/// but absorbs 16-byte blocks per multiplication instead of single
/// bytes — state keys run to kilobytes, and one `u128` multiply per
/// byte dominated interning cost.  A rotation after each block keeps
/// high-order bits flowing back into the low half, and `finish` folds
/// the total length in and applies two finalization rounds so short
/// zero-padded tails cannot alias.
///
/// Serializers write a key a character at a time, so the hasher
/// gathers 128 bytes before absorbing any, and an ASCII
/// [`Write::write_char`] is one store into that buffer.  The buffer is
/// a whole number of blocks and is absorbed only when full, so the
/// blocks, their order, the length fold and the finalization are those
/// of absorbing each 16-byte block as soon as it completes: the digest
/// of a stream depends neither on how it was written nor on the
/// buffer's size.  `finish` reads the pending bytes in place, so the
/// many short digests of the symmetry search copy no buffer.
#[derive(Debug, Clone)]
pub struct CanonHasher {
    state: u128,
    /// Bytes not yet absorbed.
    buf: [u8; CanonHasher::BUFFER],
    /// How many of `buf`'s bytes are pending; always below `BUFFER`.
    pending: usize,
    /// Bytes absorbed so far; `absorbed + pending` is folded in at
    /// `finish`.
    absorbed: u64,
}

impl CanonHasher {
    /// FNV-1a 128-bit offset basis.
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    /// FNV-1a 128-bit prime.
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    /// Bytes gathered before absorbing: eight 16-byte blocks.
    const BUFFER: usize = 128;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> CanonHasher {
        CanonHasher {
            state: Self::OFFSET,
            buf: [0; Self::BUFFER],
            pending: 0,
            absorbed: 0,
        }
    }

    /// Absorbs one block, zero-padded to 16 bytes when shorter.
    #[inline]
    fn absorb(state: u128, block: &[u8]) -> u128 {
        let mut bytes = [0u8; 16];
        bytes[..block.len()].copy_from_slice(block);
        (state ^ u128::from_le_bytes(bytes))
            .wrapping_mul(Self::PRIME)
            .rotate_left(29)
    }

    /// Absorbs `bytes`, a whole number of blocks.
    fn absorb_blocks(state: u128, bytes: &[u8]) -> u128 {
        bytes.chunks_exact(16).fold(state, Self::absorb)
    }

    /// The 128-bit digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        // The pending bytes' blocks, the last zero-padded, then the
        // length: what absorbing each block on completion would give.
        let mut s = self.buf[..self.pending]
            .chunks(16)
            .fold(self.state, Self::absorb);
        let len = self.absorbed + self.pending as u64;
        s = Self::absorb(s, &len.to_le_bytes());
        s ^= s >> 64;
        s = s.wrapping_mul(Self::PRIME);
        s ^= s >> 61;
        s
    }

    /// Absorbs a 128-bit value (a nested digest) as 16 little-endian
    /// bytes.
    pub fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) {
        let room = Self::BUFFER - self.pending;
        if bytes.len() < room {
            self.buf[self.pending..self.pending + bytes.len()].copy_from_slice(bytes);
            self.pending += bytes.len();
            return;
        }
        self.write_long(bytes);
    }

    /// [`CanonHasher::write_bytes`] for a write that fills the buffer:
    /// top it up and absorb it, absorb whole buffers straight from
    /// `bytes`, and keep the rest pending.
    #[cold]
    fn write_long(&mut self, bytes: &[u8]) {
        let (head, rest) = bytes.split_at(Self::BUFFER - self.pending);
        self.buf[self.pending..].copy_from_slice(head);
        let whole = rest.len() - rest.len() % Self::BUFFER;
        self.state = Self::absorb_blocks(self.state, &self.buf);
        self.state = Self::absorb_blocks(self.state, &rest[..whole]);
        self.absorbed += (Self::BUFFER + whole) as u64;
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }
}

impl Default for CanonHasher {
    fn default() -> CanonHasher {
        CanonHasher::new()
    }
}

impl Write for CanonHasher {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }

    #[inline]
    fn write_char(&mut self, c: char) -> std::fmt::Result {
        if c.is_ascii() && self.pending + 1 < Self::BUFFER {
            self.buf[self.pending] = c as u8;
            self.pending += 1;
            Ok(())
        } else {
            self.write_str(c.encode_utf8(&mut [0; 4]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;
    use spi_syntax::parse;

    fn cfg(src: &str) -> Config {
        Config::from_process(&parse(src).expect("parses")).expect("loads")
    }

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn keys_are_stable_for_equal_configs() {
        let a = cfg("(^m) c<m> | d(x)");
        let b = cfg("(^m) c<m> | d(x)");
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn keys_distinguish_different_configs() {
        assert_ne!(
            cfg("(^m) c<m>").canonical_key(),
            cfg("(^m) d<m>").canonical_key()
        );
        assert_ne!(
            cfg("c<m> | d(x)").canonical_key(),
            cfg("d(x) | c<m>").canonical_key(),
            "tree shape is semantically relevant (addresses)"
        );
    }

    #[test]
    fn keys_identify_interleavings_with_permuted_allocation() {
        // Two independent pairs; allocate in either order.
        let src = "((^m) c<m> | c(x)) | ((^n) d<n> | d(y))";
        let mut left_first = cfg(src);
        let mut right_first = cfg(src);
        let comm_left = Action::Comm {
            out_path: p("00"),
            in_path: p("01"),
        };
        let comm_right = Action::Comm {
            out_path: p("10"),
            in_path: p("11"),
        };
        left_first.fire(&comm_left).unwrap();
        left_first.fire(&comm_right).unwrap();
        right_first.fire(&comm_right).unwrap();
        right_first.fire(&comm_left).unwrap();
        // The raw configurations differ in NameId numbering...
        // ...but the canonical keys agree.
        assert_eq!(left_first.canonical_key(), right_first.canonical_key());
    }

    #[test]
    fn free_names_serialize_by_spelling() {
        let key = cfg("c<m>").canonical_key();
        assert!(key.contains("f:c"));
        assert!(key.contains("f:m"));
    }

    /// A deterministic printable-ASCII stream of `n` bytes.
    fn stream(n: usize) -> String {
        (0..n)
            .map(|i| char::from(b' ' + ((i * 37 + 11) % 95) as u8))
            .collect()
    }

    /// The digest of `pieces` written one `write_str` each.
    fn digest<'a>(pieces: impl IntoIterator<Item = &'a str>) -> u128 {
        let mut h = CanonHasher::new();
        for piece in pieces {
            h.write_str(piece).expect("hashing never fails");
        }
        h.finish()
    }

    /// The digest of `s` written one `write_char` at a time.
    fn digest_by_char(s: &str) -> u128 {
        let mut h = CanonHasher::new();
        for c in s.chars() {
            h.write_char(c).expect("hashing never fails");
        }
        h.finish()
    }

    #[test]
    fn digests_do_not_depend_on_write_boundaries() {
        for n in 0..=300 {
            let s = stream(n);
            let whole = digest([s.as_str()]);
            assert_eq!(digest_by_char(&s), whole, "char by char, length {n}");
            // Every split offset crosses the 16-byte block edges and the
            // buffer's edge, from either side.
            for at in 0..=n {
                assert_eq!(digest([&s[..at], &s[at..]]), whole, "split at {at} of {n}");
            }
            // 7-byte pieces leave every later write misaligned with both
            // edges.
            let pieces = s.as_bytes().chunks(7).map(|p| std::str::from_utf8(p).expect("ASCII"));
            assert_eq!(digest(pieces), whole, "7-byte pieces, length {n}");
        }
        // A non-ASCII character goes through the byte path.
        let accented = "r0@\u{3b5}|f:c";
        assert_eq!(digest_by_char(accented), digest([accented]));
    }

    /// Digests computed by the hasher that absorbed each 16-byte block
    /// as soon as it completed, before it gathered a buffer: the
    /// buffered hasher must reproduce them bit for bit.
    #[test]
    fn digests_are_pinned() {
        let key = "(o(f:c)<r0@e>0;i(f:c)(x)0)|f:c,|0";
        assert_eq!(digest([""]), 0xf42a_bab9_2e54_0e88_40f0_54d1_30f6_a3ce);
        assert_eq!(digest([key]), 0x3788_6243_c0ae_4928_737d_ab1a_9f4a_5e37);
        assert_eq!(
            digest([stream(300).as_str()]),
            0x284a_4456_4059_a1fd_77e8_d7c5_278d_19b7
        );
        let mut nested = CanonHasher::new();
        nested.write_u128(7);
        nested.write_str("abc").expect("hashing never fails");
        nested.write_u128(u128::MAX);
        assert_eq!(nested.finish(), 0xb6d3_6e6a_8c1c_ff6b_155e_46db_547b_d0bc);
    }

    #[test]
    fn number_writers_match_the_formatter() {
        for n in [0usize, 1, 9, 10, 99, 100, 4_294_967_295, usize::MAX] {
            let mut out = String::new();
            write_decimal(n, &mut out);
            assert_eq!(out, n.to_string());
        }
        for n in [0u128, 1, 0xf, 0x10, 0xdead_beef, u128::MAX] {
            let mut out = String::new();
            write_hex(n, &mut out);
            assert_eq!(out, format!("{n:x}"));
        }
    }

    #[test]
    fn restricted_names_serialize_with_creator() {
        let key = cfg("(^m) c<m>").canonical_key();
        assert!(key.contains("r0@e"), "creator position recorded: {key}");
    }
}
