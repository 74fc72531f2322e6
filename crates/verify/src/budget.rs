//! The resource governor: explicit budgets with graceful degradation.
//!
//! Every claim this toolkit produces is a *bounded-search* claim, so
//! resource exhaustion is not an error — it is an answer of a third kind.
//! A [`Budget`] caps each resource an exploration consumes; when one runs
//! out, the explorer keeps everything it has built (the LTS prefix, with
//! its frontier marked) and reports [`CoverageStats`] plus the exhausted
//! [`ResourceKind`] instead of failing.  Downstream deciders then apply
//! the soundness rule:
//!
//! * a **positive** claim (trace inclusion holds, a tester passes, a
//!   secret is derivable) found on a *complete* implementation-side
//!   exploration is sound;
//! * a **negative** claim (a distinguishing trace, a tester the spec
//!   fails) is sound only when the *specification* side is complete;
//! * anything else is **inconclusive** — and growing any budget dimension
//!   can only turn inconclusive answers into decided ones, never flip a
//!   decided answer (budget monotonicity, property-tested in this crate).

use std::fmt;

/// Which resource ran out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// The cap on distinct explored states.
    States,
    /// The cap on explored transitions (edges).
    Transitions,
    /// The cap on expansion fuel (states taken off the work queue).
    Fuel,
    /// The cap on per-state intruder-knowledge size.
    Knowledge,
    /// The overall step deadline (successor-generation work units).
    DeadlineSteps,
    /// The wall-clock deadline (or a cooperative cancellation request) —
    /// the only non-deterministic cut-off: where it lands depends on the
    /// host clock, so any verdict it truncates is *inconclusive*, never
    /// silently partial.
    WallClock,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::States => "states",
            ResourceKind::Transitions => "transitions",
            ResourceKind::Fuel => "fuel",
            ResourceKind::Knowledge => "knowledge",
            ResourceKind::DeadlineSteps => "deadline-steps",
            ResourceKind::WallClock => "wall-clock",
        })
    }
}

/// Resource caps for one exploration.  All dimensions are inclusive
/// upper bounds; `usize::MAX` means effectively unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of distinct states interned.
    pub max_states: usize,
    /// Maximum number of transitions (edges) recorded.
    pub max_transitions: usize,
    /// Maximum number of states expanded (popped off the work queue).
    pub max_fuel: usize,
    /// Maximum intruder-knowledge size a state may have and still be
    /// expanded; larger states are left on the frontier.
    pub max_knowledge: usize,
    /// Overall deadline in successor-generation work units.
    pub deadline_steps: usize,
}

impl Budget {
    /// A budget with every dimension unlimited.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget {
            max_states: usize::MAX,
            max_transitions: usize::MAX,
            max_fuel: usize::MAX,
            max_knowledge: usize::MAX,
            deadline_steps: usize::MAX,
        }
    }

    /// Caps the number of distinct states.
    #[must_use]
    pub fn states(mut self, n: usize) -> Budget {
        self.max_states = n;
        self
    }

    /// Caps the number of transitions.
    #[must_use]
    pub fn transitions(mut self, n: usize) -> Budget {
        self.max_transitions = n;
        self
    }

    /// Caps the expansion fuel.
    #[must_use]
    pub fn fuel(mut self, n: usize) -> Budget {
        self.max_fuel = n;
        self
    }

    /// Caps the per-state knowledge size.
    #[must_use]
    pub fn knowledge(mut self, n: usize) -> Budget {
        self.max_knowledge = n;
        self
    }

    /// Sets the overall step deadline.
    #[must_use]
    pub fn deadline(mut self, n: usize) -> Budget {
        self.deadline_steps = n;
        self
    }

    /// Parses the CLI/wire budget syntax: comma-separated
    /// `dimension=count` pairs over the default budget, e.g.
    /// `states=5000,fuel=100000`.  Dimensions: `states`, `transitions`,
    /// `fuel`, `knowledge`, `steps` (alias `deadline`).  The one spelling
    /// shared by `spi verify --budget`, `spi campaign --budget`, and the
    /// `spi serve` request format.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the offending pair (the
    /// caller names the option: `--budget …`, `"budget" …`).
    pub fn parse_spec(spec: &str) -> Result<Budget, String> {
        let mut budget = Budget::default();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expects dimension=count pairs, got {pair:?}"))?;
            let n: usize = value
                .parse()
                .map_err(|_| format!("{key}: expected a number, got {value:?}"))?;
            match key {
                "states" => budget.max_states = n,
                "transitions" => budget.max_transitions = n,
                "fuel" => budget.max_fuel = n,
                "knowledge" => budget.max_knowledge = n,
                "steps" | "deadline" => budget.deadline_steps = n,
                other => {
                    return Err(format!(
                        "has unknown dimension {other:?} \
                         (expected states|transitions|fuel|knowledge|steps)"
                    ))
                }
            }
        }
        Ok(budget)
    }

    /// The inverse of [`Budget::parse_spec`]: every dimension spelled
    /// out, in a fixed order — used to normalize budgets into
    /// content-addressed cache keys.
    #[must_use]
    pub fn canonical_spec(&self) -> String {
        format!(
            "states={},transitions={},fuel={},knowledge={},steps={}",
            self.max_states, self.max_transitions, self.max_fuel, self.max_knowledge,
            self.deadline_steps
        )
    }

    /// Returns `true` when `self` is at least as generous as `other` in
    /// every dimension.
    #[must_use]
    pub fn dominates(&self, other: &Budget) -> bool {
        self.max_states >= other.max_states
            && self.max_transitions >= other.max_transitions
            && self.max_fuel >= other.max_fuel
            && self.max_knowledge >= other.max_knowledge
            && self.deadline_steps >= other.deadline_steps
    }
}

impl Default for Budget {
    /// The one default: 200 000 states, everything else unlimited.
    /// `spi verify`, `spi serve` and [`crate::Verifier::new`] all start
    /// from it, and [`Budget::parse_spec`] overlays it.
    fn default() -> Budget {
        Budget::unlimited().states(200_000)
    }
}

/// What an exploration actually covered, reported with every partial (and
/// complete) result so bounded claims stay auditable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Distinct states interned.
    pub states: usize,
    /// Transitions recorded.
    pub transitions: usize,
    /// States fully expanded.
    pub expanded: usize,
    /// States left on the frontier (interned but not fully expanded).
    pub frontier: usize,
    /// Successor-generation work units consumed.
    pub steps: usize,
}

impl CoverageStats {
    /// Returns `true` when nothing at all was explored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states == 0
    }

    /// Returns `true` when the exploration ran to completion (no state
    /// was left unexpanded).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.frontier == 0
    }
}

impl fmt::Display for CoverageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, {} expanded, {} frontier, {} steps",
            self.states, self.transitions, self.expanded, self.frontier, self.steps
        )
    }
}

/// The running meter an explorer charges against a [`Budget`].
#[derive(Debug, Clone)]
pub struct Governor {
    budget: Budget,
    spent_fuel: usize,
    spent_steps: usize,
    exhausted: Option<ResourceKind>,
}

impl Governor {
    /// A fresh meter for `budget`.
    #[must_use]
    pub fn new(budget: Budget) -> Governor {
        Governor {
            budget,
            spent_fuel: 0,
            spent_steps: 0,
            exhausted: None,
        }
    }

    /// The budget being metered.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The first resource that ran out, if any.
    #[must_use]
    pub fn exhausted(&self) -> Option<ResourceKind> {
        self.exhausted
    }

    /// Fuel consumed so far.
    #[must_use]
    pub fn fuel_spent(&self) -> usize {
        self.spent_fuel
    }

    /// Steps consumed so far.
    #[must_use]
    pub fn steps_spent(&self) -> usize {
        self.spent_steps
    }

    /// Records the first exhaustion.
    pub fn note(&mut self, kind: ResourceKind) {
        self.exhausted.get_or_insert(kind);
    }

    /// Charges one unit of expansion fuel; `false` when the fuel budget
    /// is already spent (and notes the exhaustion).
    pub fn charge_fuel(&mut self) -> bool {
        if self.spent_fuel >= self.budget.max_fuel {
            self.note(ResourceKind::Fuel);
            return false;
        }
        self.spent_fuel += 1;
        true
    }

    /// Charges `n` successor-generation work units; `false` when the
    /// deadline has passed.
    pub fn charge_steps(&mut self, n: usize) -> bool {
        self.spent_steps = self.spent_steps.saturating_add(n);
        if self.spent_steps > self.budget.deadline_steps {
            self.note(ResourceKind::DeadlineSteps);
            return false;
        }
        true
    }

    /// May a state collection of the given size intern one more state?
    pub fn admit_state(&mut self, current_states: usize) -> bool {
        if current_states >= self.budget.max_states {
            self.note(ResourceKind::States);
            return false;
        }
        true
    }

    /// May an edge collection of the given size record one more edge?
    pub fn admit_transition(&mut self, current_edges: usize) -> bool {
        if current_edges >= self.budget.max_transitions {
            self.note(ResourceKind::Transitions);
            return false;
        }
        true
    }

    /// May a state with the given knowledge size be expanded?
    pub fn admit_knowledge(&mut self, knowledge_len: usize) -> bool {
        if knowledge_len > self.budget.max_knowledge {
            self.note(ResourceKind::Knowledge);
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_caps_only_states() {
        let b = Budget::default();
        assert_eq!(b.max_states, 200_000);
        assert_eq!(b.max_transitions, usize::MAX);
    }

    #[test]
    fn builders_compose() {
        let b = Budget::unlimited().states(10).fuel(5).deadline(100);
        assert_eq!(b.max_states, 10);
        assert_eq!(b.max_fuel, 5);
        assert_eq!(b.deadline_steps, 100);
        assert!(Budget::unlimited().dominates(&b));
        assert!(!b.dominates(&Budget::unlimited()));
    }

    #[test]
    fn governor_notes_first_exhaustion_only() {
        let mut g = Governor::new(Budget::unlimited().fuel(1).deadline(1));
        assert!(g.charge_fuel());
        assert!(!g.charge_fuel());
        assert!(!g.charge_steps(5));
        assert_eq!(g.exhausted(), Some(ResourceKind::Fuel));
    }

    #[test]
    fn coverage_completeness() {
        let c = CoverageStats {
            states: 3,
            transitions: 4,
            expanded: 3,
            frontier: 0,
            steps: 9,
        };
        assert!(c.complete());
        assert!(!c.is_empty());
        let c = CoverageStats {
            frontier: 1,
            ..c
        };
        assert!(!c.complete());
    }

    #[test]
    fn budget_specs_parse_and_round_trip() {
        let b = Budget::parse_spec("states=10,fuel=20,steps=30").unwrap();
        assert_eq!(b.max_states, 10);
        assert_eq!(b.max_fuel, 20);
        assert_eq!(b.deadline_steps, 30);
        assert_eq!(Budget::parse_spec("").unwrap(), Budget::default());
        assert!(Budget::parse_spec("states=x").is_err());
        assert!(Budget::parse_spec("bogus=1").is_err());
        assert!(Budget::parse_spec("states").is_err());
        // The canonical spelling re-parses to the same budget.
        assert_eq!(Budget::parse_spec(&b.canonical_spec()).unwrap(), b);
    }

    #[test]
    fn resource_kinds_display() {
        let shown: Vec<String> = [
            ResourceKind::States,
            ResourceKind::Transitions,
            ResourceKind::Fuel,
            ResourceKind::Knowledge,
            ResourceKind::DeadlineSteps,
            ResourceKind::WallClock,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            shown,
            [
                "states",
                "transitions",
                "fuel",
                "knowledge",
                "deadline-steps",
                "wall-clock"
            ]
        );
    }
}
