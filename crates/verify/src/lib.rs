//! Verification toolkit for the spi calculus with authentication
//! primitives.
//!
//! This crate implements Section 4 of *"Authentication Primitives for
//! Protocol Specifications"* (Bodei, Degano, Focardi, Priami, 2003) — the
//! machinery needed to check that a concrete (cryptographic) protocol
//! *securely implements* an abstract, secure-by-construction one:
//!
//! * [`Knowledge`] — a Dolev–Yao knowledge base with analysis (projection,
//!   decryption under known keys) and bounded synthesis;
//! * [`IntruderSpec`] — the most-general bounded intruder of the class
//!   `E_C`: it occupies a fixed tree position, communicates only over the
//!   protocol channels `C`, intercepts anything the localization
//!   discipline lets it receive, and injects anything it can derive;
//! * [`Explorer`] / [`Lts`] — a bounded state-space explorer producing a
//!   labelled transition system whose silent edges are internal steps and
//!   intruder moves, and whose visible edges are the outputs of protocol
//!   *continuations* on free channels (the only thing Definition 4's
//!   testers can see);
//! * [`weak_traces`] / [`trace_preorder`] — may-testing checked as weak
//!   trace inclusion over origin-annotated observations (testers observe
//!   message origins through the address-matching operator, so the
//!   creator position is part of every observation);
//! * [`bisim_preorder`] — the same relation decided by a second engine,
//!   a breadth-first subset construction over pairs of configurations of
//!   the weak LTS, each member naming fresh values with its own
//!   [`TraceRenamer`]; [`Engine`] selects which procedure(s) a run
//!   trusts, and `both` cross-checks them on every verdict;
//! * [`simulates`] — a weak barbed simulation checker, the proof technique
//!   used by the paper for Propositions 2 and 4;
//! * [`may_exhibit`] / [`passes_test`] — the tests `(T, β)` of
//!   Definition 3.
//!
//! The paper's universally quantified attacker (`∀X ∈ E_C`) and tester
//! (`∀T`) are substituted by the bounded most-general intruder plus
//! bounded trace enumeration — the standard finite substitute; bounds are
//! explicit in [`ExploreOptions`] and reported in every verdict.

// Production builds forbid unsafe code outright.  Test builds only deny
// it, so that the unit tests' counting allocator (`live_bytes`, the one
// `unsafe impl`) can opt out.
#![cfg_attr(not(test), forbid(unsafe_code))]
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]

mod bisim;
mod budget;
pub mod campaign;
mod dot;
mod environment;
mod error;
mod explore;
pub mod faultsim;
mod iso;
pub mod jsonlite;
mod knowledge;
#[cfg(test)]
#[allow(unsafe_code)]
mod live_bytes;
mod obs;
mod pipeline;
mod secrecy;
mod simulation;
mod test;
mod testgen;
mod traces;
mod verifier;
mod weak;

pub use bisim::{bisim_preorder, bisim_preorder_sound, bisim_traces, Engine};
pub use budget::{Budget, CoverageStats, Governor, ResourceKind};
pub use campaign::{
    fnv64, run_campaign, CampaignOptions, CampaignReport, MinimalCounterexample, ScheduleOutcome,
    ScheduleResult,
};
pub use dot::to_dot;
pub use error::VerifyError;
pub use environment::IntruderSpec;
pub use explore::{
    Edge, ExploreOptions, ExploreStats, Explorer, Lts, LtsState, ReduceOptions, StepDesc,
};
pub use iso::{Iso, IsoTable};
pub use knowledge::{DeriveCache, Knowledge};
pub use obs::{ObsEvent, ObsTerm, TraceRenamer};
pub use secrecy::{check_secrecy, SecrecyReport};
pub use simulation::{simulates, SimulationResult};
pub use test::{may_exhibit, may_exhibit_bounded, passes_test, TestWitness};
pub use testgen::{definition3_preorder, synthesize_testers, tester_barb, Definition3Outcome};
pub use traces::{
    find_realization, trace_preorder, trace_preorder_sound, weak_traces, TraceSet, TraceVerdict,
};
pub use verifier::{Attack, EquivDirection, Verdict, VerificationReport, Verifier};
