//! A deterministic network fault model.
//!
//! The applied-pi line of work treats the attacker as an arbitrary
//! unreliable network that may drop, duplicate, and reorder messages.
//! This module gives that network a first-class, *bounded* description: a
//! [`FaultSpec`] lists per-channel fault clauses with hard caps on how
//! many times each may fire, so exploration under faults stays finite and
//! replayable.  The faults are applied through the machine's existing
//! interception hooks ([`Config::take_output`] / [`Config::deliver`]), so
//! the localization discipline keeps its teeth: a partner-authenticated
//! (localized) channel refuses the network exactly as it refuses any
//! other third party.
//!
//! [`Config::take_output`]: crate::Config::take_output
//! [`Config::deliver`]: crate::Config::deliver

use std::fmt;
use std::str::FromStr;

use spi_addr::{Branch, Path};
use spi_syntax::Name;

use crate::{Canonicalizer, Lens, NameTable, RtTerm};

/// One kind of network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The network swallows a message in transit (the output is consumed
    /// but never delivered; the message is remembered in the log).
    Drop,
    /// The network delivers a second copy of a message that is still in
    /// transit, without consuming the original output.  The copy keeps
    /// the original creator stamps — duplication is not re-creation —
    /// which is exactly what makes a replay observable to origin-aware
    /// testers.
    Duplicate,
    /// The network takes a message out of transit into its buffer and may
    /// re-deliver it later, after other traffic has passed.
    Reorder,
    /// The network taps messages in transit into its log and may deliver
    /// a logged copy at any later point (replay from log).
    Replay,
}

impl FaultKind {
    /// All fault kinds, in a fixed order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Replay,
    ];

    /// The keywords of every fault kind, in [`FaultKind::ALL`] order —
    /// handy for "valid kinds are …" error listings.
    #[must_use]
    pub fn keywords() -> Vec<&'static str> {
        FaultKind::ALL.iter().map(|k| k.keyword()).collect()
    }

    /// The keyword used in CLI specs and displays.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Replay => "replay",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl FromStr for FaultKind {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<FaultKind, FaultParseError> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.keyword() == s)
            .ok_or_else(|| FaultParseError {
                input: s.to_string(),
                reason: format!(
                    "unknown fault kind `{s}` (valid kinds: {})",
                    FaultKind::keywords().join(", ")
                ),
            })
    }
}

/// A malformed fault clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending input.
    pub input: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause `{}`: {}", self.input, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

/// One bounded fault clause: `kind` may fire at most `max` times on
/// channels whose base spelling is `chan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultClause {
    /// What the network does.
    pub kind: FaultKind,
    /// The base spelling of the affected channel.
    pub chan: Name,
    /// How many times the clause may fire.
    pub max: u32,
}

impl fmt::Display for FaultClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.kind, self.chan, self.max)
    }
}

impl FromStr for FaultClause {
    type Err = FaultParseError;

    /// Parses `kind:chan` or `kind:chan:max` (the CLI `--fault` syntax).
    fn from_str(s: &str) -> Result<FaultClause, FaultParseError> {
        let mut parts = s.split(':');
        let kind = parts
            .next()
            .unwrap_or_default()
            .parse::<FaultKind>()
            .map_err(|e| FaultParseError {
                input: s.to_string(),
                reason: e.reason,
            })?;
        let chan = parts
            .next()
            .filter(|c| !c.is_empty())
            .ok_or_else(|| FaultParseError {
                input: s.to_string(),
                reason: "missing channel (expected kind:chan[:max])".to_string(),
            })?;
        let max = match parts.next() {
            None => 1,
            Some(m) => m.parse::<u32>().map_err(|_| FaultParseError {
                input: s.to_string(),
                reason: format!("max `{m}` must be a non-negative integer"),
            })?,
        };
        if parts.next().is_some() {
            return Err(FaultParseError {
                input: s.to_string(),
                reason: "too many `:`-separated fields (expected kind:chan[:max])".to_string(),
            });
        }
        Ok(FaultClause {
            kind,
            chan: Name::new(chan),
            max,
        })
    }
}

/// A deterministic fault model: a network position plus bounded clauses.
///
/// The position is where the network "stands" in the process tree for the
/// purposes of localization and creator stamping — by convention the
/// environment slot `‖1` of `(νC)(P | ·)`, the same seat the most-general
/// intruder occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The network's tree position.
    pub position: Path,
    /// The bounded fault clauses.
    pub clauses: Vec<FaultClause>,
}

impl FaultSpec {
    /// A fault model at the conventional environment seat `‖1`.
    #[must_use]
    pub fn new<I>(clauses: I) -> FaultSpec
    where
        I: IntoIterator<Item = FaultClause>,
    {
        FaultSpec {
            position: Path::root().child(Branch::Right),
            clauses: clauses.into_iter().collect(),
        }
    }

    /// A single-clause model (`kind` on `chan`, at most `max` firings).
    #[must_use]
    pub fn single(kind: FaultKind, chan: impl Into<Name>, max: u32) -> FaultSpec {
        FaultSpec::new([FaultClause {
            kind,
            chan: chan.into(),
            max,
        }])
    }

    /// Moves the network to a different tree position.
    #[must_use]
    pub fn at(mut self, position: Path) -> FaultSpec {
        self.position = position;
        self
    }

    /// The canonical form of this model: clauses sorted by
    /// `(kind, chan)`, clauses on the same `(kind, chan)` merged by
    /// summing their firing caps.  Clause order never affects which runs
    /// a model admits (each step any clause with remaining charge may
    /// fire), so two specs with the same canonical form are equivalent —
    /// campaign search dedupes schedules on exactly this form.
    #[must_use]
    pub fn canonical(&self) -> FaultSpec {
        let mut clauses: Vec<FaultClause> = Vec::new();
        for c in &self.clauses {
            match clauses
                .iter_mut()
                .find(|m| m.kind == c.kind && m.chan == c.chan)
            {
                Some(m) => m.max = m.max.saturating_add(c.max),
                None => clauses.push(c.clone()),
            }
        }
        clauses.sort_by(|a, b| (a.kind, &a.chan).cmp(&(b.kind, &b.chan)));
        FaultSpec {
            position: self.position.clone(),
            clauses,
        }
    }

    /// The canonical schedule key: the canonical clauses joined by `+`,
    /// plus the network position.  Stable across clause order and
    /// clause-splitting, so it identifies a schedule in deduplication
    /// tables and campaign checkpoints.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let canon = self.canonical();
        let clauses: Vec<String> = canon.clauses.iter().map(ToString::to_string).collect();
        format!("{}@{}", clauses.join("+"), canon.position.to_bits())
    }

    /// Composes two fault models at the same network position into one
    /// whose clause multiset is the union (canonicalized).  Used by
    /// campaign search to grow multi-fault schedules out of unit clauses.
    #[must_use]
    pub fn compose(&self, other: &FaultSpec) -> FaultSpec {
        debug_assert_eq!(
            self.position, other.position,
            "composed fault models share the network seat"
        );
        let mut merged = self.clone();
        merged.clauses.extend(other.clauses.iter().cloned());
        merged.canonical()
    }

    /// The total number of unit firings the model allows (the sum of the
    /// clause caps) — the "size" a campaign depth bound caps.
    #[must_use]
    pub fn total_firings(&self) -> u32 {
        self.clauses.iter().map(|c| c.max).sum()
    }

    /// The initial (all counters zero, empty buffer and log) network
    /// state for this model.
    #[must_use]
    pub fn initial_state(&self) -> NetworkState {
        NetworkState {
            used: vec![0; self.clauses.len()],
            buffer: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl fmt::Display for FaultSpec {
    /// Renders the *canonical* form, byte-for-byte equal to
    /// [`FaultSpec::canonical_key`].  Campaign dedup tables and checkpoint
    /// files key schedules on the canonical key; error messages and
    /// reports print `Display` — keeping the two identical means a key
    /// quoted in a report can always be pasted back into `--fault` (comma
    /// for `+`) or grepped in a checkpoint verbatim.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_key())
    }
}

/// The mutable state of the faulty network along one run: per-clause
/// firing counters, the reorder buffer, and the replay log.
///
/// This is part of the explored state — two configurations with different
/// network states are different states — so it offers a canonical
/// rendering for state deduplication.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkState {
    /// How many times each clause (by index into the spec) has fired.
    pub used: Vec<u32>,
    /// Messages captured for reordering, with the channel they travel on.
    pub buffer: Vec<(Name, RtTerm)>,
    /// Messages the network has seen, available for replay.
    pub log: Vec<(Name, RtTerm)>,
}

impl NetworkState {
    /// Remaining firings for clause `i` under `spec`.
    #[must_use]
    pub fn remaining(&self, spec: &FaultSpec, i: usize) -> u32 {
        spec.clauses[i].max.saturating_sub(self.used[i])
    }

    /// Appends `msg` (on channel `chan`) to the log, deduplicating.
    pub fn log_message(&mut self, chan: &Name, msg: &RtTerm) {
        let entry = (chan.clone(), msg.clone());
        if !self.log.contains(&entry) {
            self.log.push(entry);
        }
    }

    /// Writes a canonical rendering of this network state, using `canon`
    /// for machine-generated name identity (shared with the rendering of
    /// the configuration this state travels with) and `lens` for its
    /// absolute paths.
    pub fn write_canonical<L: Lens, S: std::fmt::Write>(
        &self,
        canon: &mut Canonicalizer,
        names: &NameTable,
        lens: &mut L,
        out: &mut S,
    ) {
        let _ = out.write_str("net[");
        for u in &self.used {
            let _ = write!(out, "{u},");
        }
        let _ = out.write_char(';');
        for (chan, msg) in &self.buffer {
            let _ = out.write_str(chan.as_str());
            let _ = out.write_char(':');
            canon.write_term(msg, names, lens, out);
            let _ = out.write_char(',');
        }
        let _ = out.write_char(';');
        for (chan, msg) in &self.log {
            let _ = out.write_str(chan.as_str());
            let _ = out.write_char(':');
            canon.write_term(msg, names, lens, out);
            let _ = out.write_char(',');
        }
        let _ = out.write_char(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_parsing_round_trips() {
        let c: FaultClause = "duplicate:c:3".parse().unwrap();
        assert_eq!(c.kind, FaultKind::Duplicate);
        assert_eq!(c.chan, Name::new("c"));
        assert_eq!(c.max, 3);
        assert_eq!(c.to_string().parse::<FaultClause>().unwrap(), c);
    }

    #[test]
    fn clause_max_defaults_to_one() {
        let c: FaultClause = "drop:net".parse().unwrap();
        assert_eq!(c.max, 1);
    }

    #[test]
    fn bad_clauses_are_rejected() {
        assert!("mangle:c".parse::<FaultClause>().is_err());
        assert!("drop".parse::<FaultClause>().is_err());
        assert!("drop:c:lots".parse::<FaultClause>().is_err());
        assert!("drop:c:1:extra".parse::<FaultClause>().is_err());
        assert!("drop::1".parse::<FaultClause>().is_err());
    }

    #[test]
    fn spec_tracks_remaining_firings() {
        let spec = FaultSpec::single(FaultKind::Drop, "c", 2);
        let mut st = spec.initial_state();
        assert_eq!(st.remaining(&spec, 0), 2);
        st.used[0] = 2;
        assert_eq!(st.remaining(&spec, 0), 0);
    }

    #[test]
    fn canonical_form_sorts_and_merges() {
        let spec = FaultSpec::new([
            FaultClause {
                kind: FaultKind::Replay,
                chan: Name::new("c"),
                max: 1,
            },
            FaultClause {
                kind: FaultKind::Drop,
                chan: Name::new("c"),
                max: 1,
            },
            FaultClause {
                kind: FaultKind::Replay,
                chan: Name::new("c"),
                max: 2,
            },
        ]);
        let canon = spec.canonical();
        assert_eq!(canon.clauses.len(), 2);
        assert_eq!(canon.clauses[0].kind, FaultKind::Drop);
        assert_eq!(canon.clauses[1].kind, FaultKind::Replay);
        assert_eq!(canon.clauses[1].max, 3, "same-(kind,chan) caps merge");
        assert_eq!(spec.canonical_key(), "drop:c:1+replay:c:3@1");
        assert_eq!(spec.total_firings(), 4);
    }

    #[test]
    fn display_agrees_with_canonical_key() {
        // Dedup tables key on `canonical_key`; reports print `Display`.
        // The two must agree even when the clause list is unsorted and
        // splittable, or a key quoted in an error message can't be found
        // in the checkpoint it supposedly names.
        let spec = FaultSpec::new([
            FaultClause {
                kind: FaultKind::Replay,
                chan: Name::new("c"),
                max: 2,
            },
            FaultClause {
                kind: FaultKind::Drop,
                chan: Name::new("c"),
                max: 1,
            },
            FaultClause {
                kind: FaultKind::Replay,
                chan: Name::new("c"),
                max: 1,
            },
        ]);
        assert_eq!(spec.to_string(), spec.canonical_key());
        assert_eq!(spec.to_string(), "drop:c:1+replay:c:3@1");
        let single = FaultSpec::single(FaultKind::Duplicate, "d", 1);
        assert_eq!(single.to_string(), single.canonical_key());
    }

    #[test]
    fn unknown_kind_error_names_kind_and_lists_valid_ones() {
        let err = "mangle:c".parse::<FaultClause>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`mangle:c`"), "{msg}");
        assert!(msg.contains("unknown fault kind `mangle`"), "{msg}");
        for kind in FaultKind::keywords() {
            assert!(msg.contains(kind), "{msg} should list {kind}");
        }
    }

    #[test]
    fn canonical_key_ignores_clause_order() {
        let a = FaultSpec::single(FaultKind::Drop, "c", 1)
            .compose(&FaultSpec::single(FaultKind::Replay, "d", 1));
        let b = FaultSpec::single(FaultKind::Replay, "d", 1)
            .compose(&FaultSpec::single(FaultKind::Drop, "c", 1));
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a, b, "compose canonicalizes");
    }

    #[test]
    fn log_deduplicates() {
        let mut st = NetworkState::default();
        let m = RtTerm::Var(spi_syntax::Var::new("x"));
        st.log_message(&Name::new("c"), &m);
        st.log_message(&Name::new("c"), &m);
        assert_eq!(st.log.len(), 1);
    }
}
