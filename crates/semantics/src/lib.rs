//! Proved operational semantics for the spi calculus with authentication
//! primitives.
//!
//! This crate is the abstract machine of *"Authentication Primitives for
//! Protocol Specifications"* (Bodei, Degano, Focardi, Priami, 2003),
//! Sections 2–3.  It executes closed [`spi_syntax::Process`]es while
//! maintaining the paper's two semantic authentication mechanisms:
//!
//! * **Partner authentication** (Section 3.1): a configuration is a binary
//!   tree of sequential processes ([`spi_addr::ProcTree`]); channels
//!   localized at a relative address only synchronize with the process at
//!   that address, and location variables `λ` are instantiated with the
//!   partner's position at first contact.
//! * **Message authentication** (Section 3.2): every name records the tree
//!   position of the restriction that created it, and every composite
//!   message is stamped with its sender at first output.  The relative
//!   address `l` the paper attaches to a received datum is derived on
//!   demand as `RelAddr::between(holder, creator)`; forwarding therefore
//!   implements the paper's address-composition operation *exactly* (the
//!   coherence law is property-tested in `spi-addr`).
//!
//! The machine grows the tree **in place**: a leaf `P | Q` becomes an
//! internal node and an unfolding replication `!P` becomes the node
//! `(P, !P)`, so positions of other components never change and captured
//! addresses stay valid — mirroring the proved semantics where the replica
//! recedes along the right spine.
//!
//! # Entry points
//!
//! * [`Config::from_process`] loads a closed process;
//! * [`Config::enabled`] enumerates the [`Action`]s the proved semantics
//!   offers (internal communications and bounded replication unfoldings);
//! * [`Config::fire`] performs one action, returning a [`StepInfo`] that a
//!   narrator can render in the paper's message-sequence notation;
//! * [`Config::barbs`] reports the barbs `P ↓ β` of Section 4.1;
//! * [`Config::canonical_key`] is a state identity up to renaming of
//!   machine-generated names, used by explorers to deduplicate
//!   interleavings.
//!
//! # Example
//!
//! Example 1 of the paper — `S = !P | Q` takes two τ steps (an unfolding
//! communication and then a decryption that happens silently):
//!
//! ```
//! use spi_semantics::Config;
//! use spi_syntax::parse;
//!
//! let s = parse("!a<{m}k> | a(x).case x of {y}k in (^h)(b<{y}h> | r(w))")?;
//! let mut cfg = Config::from_process(&s)?;
//! // The replicated sender can unfold; Q waits for it.
//! let actions = cfg.enabled(1);
//! assert!(!actions.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod canon;
mod config;
mod error;
pub mod faults;
mod label;
pub mod refstep;
mod machine;
mod names;
mod narrate;
mod place;
#[cfg(test)]
mod refplace;
mod rtproc;
pub mod symmetry;
mod value;
mod walk;

pub use canon::{CanonHasher, Canonicalizer, Lens, Verbatim};
pub use config::{Barb, Config, LeafState};
pub use error::MachineError;
pub use faults::{FaultClause, FaultKind, FaultParseError, FaultSpec, NetworkState};
pub use label::ProvedLabel;
pub use machine::{Action, CommInfo, StepInfo};
pub use names::{NameEntry, NameId, NameTable};
pub use narrate::{Narrator, RoleMap};
pub use rtproc::{RtChanIndex, RtChannel, RtProcess};
pub use symmetry::{PathPerm, SessionGroup};
pub use value::RtTerm;
pub use walk::Walk;
