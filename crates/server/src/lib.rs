//! `spi serve` — a concurrent verification service.
//!
//! This crate turns the toolkit's [`spi_verify::Verifier`] into a
//! long-lived daemon speaking newline-delimited JSON over TCP (the
//! codec is the workspace's shared [`spi_verify::jsonlite`] — no
//! external dependencies).  The wire protocol and the verify/campaign
//! JSON bodies live in [`protocol`]; the same body encoders power the
//! CLI's `--format json`, so a script sees byte-identical shapes from
//! `spi verify` and from the daemon.
//!
//! **One front end** ([`service`]) serves both node kinds: an epoll
//! readiness loop ([`reactor`]) that owns every connection, so idle
//! connections cost no threads, slow senders are reaped at a read
//! deadline, slow readers hit a bounded write buffer, and long jobs can
//! stream `{"status":"progress",…}` heartbeats; [`admission`]'s
//! per-tenant token-bucket quotas and two-class priority queue in front
//! of a worker pool, where a full queue degrades to an explicit
//! `rejected` answer instead of unbounded memory growth; per-op latency
//! histograms; and graceful drain.  Behind the pool sits a per-node
//! executor:
//!
//! * a **worker** ([`service::serve`]) runs the local engine behind a
//!   content-addressed result cache ([`cache::ResultCache`]).  Every
//!   request is normalized — specs parsed and re-printed, budgets
//!   spelled canonically, fault schedules canonicalized — and digested,
//!   so two spellings of one question share a cache entry, probed at
//!   admission.  The cache is persisted as an identity-digest-guarded
//!   [`snapshot`] that a restarted worker reloads;
//! * a **coordinator** ([`coordinator::coordinate`]) holds no cache,
//!   and its pool grows to the capacity its workers announce, since
//!   its threads wait on dispatches.  It routes jobs by content digest
//!   over a consistent-hash
//!   [`shard::Ring`] of workers, detects failures through
//!   [`membership`] heartbeats and dial errors, hedges slow dispatches,
//!   splits campaigns into re-dispatchable work units, and degrades to
//!   local execution on quorum loss.  Workers warm their cache shard
//!   from peers via identity-digest-guarded [`gossip`], and a seeded
//!   [`chaos`] plan drills the whole arrangement deterministically.
//!
//! Either way **singleflight** ([`flight::Singleflight`]) lets
//! concurrent identical requests fund exactly one run: a worker's
//! followers answer from the cache the leader filled, a coordinator's
//! take the complete answer the leader hands over.
//!
//! The crate is `unsafe`-free except for [`reactor`]'s thin epoll FFI
//! shim, which is the only module allowed to opt out.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod digest;
pub mod flight;
pub mod gossip;
pub mod membership;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod shard;
pub mod snapshot;

pub use admission::{Priority, TenantQuotas};
pub use cache::ResultCache;
pub use chaos::{ChaosEvent, ChaosPlan};
pub use client::{oneshot, Client};
pub use coordinator::{coordinate, CoordinatorOptions};
pub use gossip::{pull_from, push_to};
pub use flight::Singleflight;
pub use membership::Membership;
pub use protocol::{
    campaign_body, campaign_report, error_response, job_flags, ok_response, parse_request,
    parse_source, progress_response, rejected_response, request_op, shed_response, verify_body,
    JobRequest, Mode, Request,
};
pub use reactor::Poller;
pub use service::{
    job_reply, serve, Engine, EngineOutcome, NodeHandle, RunControl, ServerHandle, ServerOptions,
    VerifierEngine,
};
pub use shard::Ring;
