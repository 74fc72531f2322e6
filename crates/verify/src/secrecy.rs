//! Secrecy: can the intruder ever derive a protocol secret?
//!
//! The paper notes (Section 5.1) that localizing `A`'s output "would give
//! a secrecy guarantee on the message, because the process `A` would be
//! sure that `B` is the only possible receiver of `M`".  This module
//! checks the standard Dolev–Yao secrecy property on an explored system:
//! in no reachable state can the intruder *derive* a restricted name with
//! one of the given base spellings.

use spi_semantics::RtTerm;
use spi_syntax::Name;

use crate::{CoverageStats, ExploreStats, Lts, ResourceKind};

/// The outcome of a secrecy check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecrecyReport {
    /// `true` when no watched secret is derivable in any explored state.
    pub holds: bool,
    /// Human-readable descriptions of the leaks found (state index,
    /// secret display name).
    pub leaks: Vec<String>,
    /// The exploration behind the verdict.
    pub stats: ExploreStats,
    /// What the exploration covered.
    pub coverage: CoverageStats,
    /// The resource that truncated the exploration, if any.
    pub exhausted: Option<ResourceKind>,
}

impl SecrecyReport {
    /// Returns `true` when secrecy holds within the explored bounds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.holds
    }

    /// Returns `true` when the verdict is sound as stated: a leak found
    /// on any explored prefix is real, but "no leak" claims require a
    /// complete exploration.
    #[must_use]
    pub fn conclusive(&self) -> bool {
        !self.holds || self.exhausted.is_none()
    }
}

/// Checks that no restricted name whose base spelling is in `secrets`
/// ever becomes derivable by the intruder, across all states of `lts`.
///
/// The system must have been explored *with* an intruder for the verdict
/// to be meaningful (otherwise knowledge is empty and secrecy trivially
/// holds).
///
/// # Example
///
/// ```
/// use spi_syntax::{parse, Name};
/// use spi_verify::{check_secrecy, ExploreOptions, Explorer, IntruderSpec};
///
/// let opts = ExploreOptions {
///     intruder: Some(IntruderSpec::new("1".parse()?, ["c"])),
///     ..ExploreOptions::default()
/// };
/// // The secret travels encrypted: it stays secret...
/// let lts = Explorer::new(opts.clone())
///     .explore(&parse("(^c)(((^k)(^m) c<{m}k>) | 0)")?)?;
/// assert!(check_secrecy(&lts, &[Name::new("m")]).holds());
/// // ...in clear, it leaks.
/// let lts = Explorer::new(opts)
///     .explore(&parse("(^c)(((^m) c<m>) | 0)")?)?;
/// assert!(!check_secrecy(&lts, &[Name::new("m")]).holds());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn check_secrecy(lts: &Lts, secrets: &[Name]) -> SecrecyReport {
    let mut leaks = Vec::new();
    for (idx, state) in lts.states.iter().enumerate() {
        for (id, entry) in state.config().names().iter() {
            if !entry.restricted || !secrets.contains(&entry.base) {
                continue;
            }
            if state.knowledge().can_derive(&RtTerm::Id(id)) {
                leaks.push(format!(
                    "state {idx}: intruder derives {}",
                    state.config().names().display(id)
                ));
            }
        }
    }
    leaks.sort();
    leaks.dedup();
    SecrecyReport {
        holds: leaks.is_empty(),
        leaks,
        stats: lts.stats,
        coverage: lts.coverage,
        exhausted: lts.exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExploreOptions, Explorer, IntruderSpec};
    use spi_syntax::parse;

    fn explore_with_intruder(src: &str) -> Lts {
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        Explorer::new(ExploreOptions {
            intruder: Some(spec),
            ..ExploreOptions::default()
        })
        .explore(&parse(src).expect("parses"))
        .expect("explores")
    }

    #[test]
    fn plaintext_secrets_leak() {
        let lts = explore_with_intruder("(^c)(((^m) c<m>) | 0)");
        let report = check_secrecy(&lts, &[Name::new("m")]);
        assert!(!report.holds());
        assert!(!report.leaks.is_empty());
    }

    #[test]
    fn encrypted_secrets_hold() {
        let lts = explore_with_intruder("(^c)(((^k)(^m) c<{m}k>) | 0)");
        let report = check_secrecy(&lts, &[Name::new("m"), Name::new("k")]);
        assert!(report.holds(), "{:?}", report.leaks);
    }

    #[test]
    fn leaked_keys_compromise_contents() {
        // The key is sent in clear after the ciphertext.
        let lts = explore_with_intruder("(^c)(((^k)(^m) c<{m}k>.c<k>) | 0)");
        let report = check_secrecy(&lts, &[Name::new("m")]);
        assert!(
            !report.holds(),
            "a late key leak opens the stored ciphertext"
        );
    }

    #[test]
    fn localized_outputs_protect_secrecy() {
        // The paper's remark: A's output localized at B cannot be
        // intercepted — even though it is not encrypted.
        let lts = explore_with_intruder("(^c)(((^m) c@(0.1)<m> | c(z)) | 0)");
        let report = check_secrecy(&lts, &[Name::new("m")]);
        assert!(report.holds(), "{:?}", report.leaks);
    }

    #[test]
    fn truncated_holds_are_not_conclusive() {
        use crate::Budget;
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = Explorer::new(ExploreOptions {
            intruder: Some(spec),
            budget: Budget::unlimited().states(1),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^c)(((^m) c<m>) | 0)").unwrap())
        .unwrap();
        let report = check_secrecy(&lts, &[Name::new("m")]);
        // The leak lies beyond the truncation: "holds" but inconclusive.
        assert!(report.holds());
        assert!(!report.conclusive());
        assert_eq!(report.exhausted, Some(crate::ResourceKind::States));
    }

    #[test]
    fn unwatched_names_are_ignored() {
        let lts = explore_with_intruder("(^c)(((^m) c<m>) | 0)");
        let report = check_secrecy(&lts, &[Name::new("other")]);
        assert!(report.holds());
    }
}
