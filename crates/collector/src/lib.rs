//! # ldp-collector
//!
//! The report-collection service: the paper's threat model made a real
//! system. Honest reports and whatever crafted reports the fake tail
//! injects travel the same bytes, which is why the server cannot tell
//! them apart a priori; this crate runs that collection as a **sharded
//! TCP daemon** instead of an in-process function call. Each module's
//! docs hold its details:
//!
//! * [`round`] — the transport-agnostic engine: a registry of concurrent
//!   rounds (**open → ingest → close → finalize**), per-round quotas,
//!   duplicate-id rejection, population caps, and admission control that
//!   refuses with typed backpressure ([`CollectorError::MemoryBudget`],
//!   [`CollectorError::TenantQuota`]) instead of allocating. The engine
//!   is `Sync`: sessions on different rounds never share a lock.
//! * `shard` (internal) — reports routed by `user_id % shards` into
//!   disjoint per-shard state. OR-folds into exclusively owned rows
//!   commute, so the shards hold the view's lower triangle bit-identical
//!   however sessions interleave ([`FinalizedShards`]).
//! * [`checkpoint`] — all-or-nothing snapshot/restore of an in-flight
//!   round, written into a durable daemon's journal as checkpoint records
//!   (the one persistence mechanism).
//! * [`metrics`] — the observability plane: pre-registered relaxed-atomic
//!   instruments over [`ldp_obs`] and a lock-free trace ring, scraped with
//!   a `STATS` frame; one branch per site when [`CollectorConfig::metrics`]
//!   is off.
//! * [`server`] / [`client`] — the TCP daemon (a session thread per
//!   connection, up to [`CollectorConfig::max_sessions`], typed
//!   `SESSION_CAP` refusals past it) and its typed client (batched
//!   `REPORT_BATCH` uploads, a `SYNC` barrier, crash-riding retries under
//!   a [`RetryPolicy`]), speaking the [`ldp_protocols::wire`] frame codec.
//!   Every state-changing frame goes through one function,
//!   `server::apply_frame`, and the payloads they share have one codec
//!   each, in the internal `codec` module.
//! * [`wal`] — the crash-durability plane: a write-ahead journal under a
//!   configurable [`FsyncPolicy`], replayed on restart through the same
//!   frame-apply path, so every open round recovers bit-identically. With
//!   the client's resend window and duplicate-id rejection, at-least-once
//!   retry becomes exactly-once ingest.
//! * [`bridge`] — [`ServeScenario::serve`] / [`WireWorldRunner`]: the
//!   `poison-core` scenario engine evaluated **over the wire**,
//!   bit-identical to the in-process path at the same seed.
//!
//! Two channels are served: **adjacency** rounds (LF-GDPR) finalize into a
//! [`ldp_protocols::PerturbedView`]; **degree-vector** rounds
//! (LDPGen-style) keep `O(shards·groups)` running totals, so a
//! million-user round runs in constant aggregate memory — the regime
//! perfbench's `degvec_stream` workload exercises.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bridge;
pub mod checkpoint;
pub mod client;
mod codec;
pub mod error;
pub mod metrics;
pub mod round;
pub mod server;
pub(crate) mod shard;
pub mod wal;

pub use bridge::{ServeScenario, WireWorldRunner};
pub use client::{
    CollectorClient, DegreeVectorSummary, RetryPolicy, RoundSummary, DEFAULT_BATCH_REPORTS,
};
pub use error::CollectorError;
pub use metrics::CollectorMetrics;
pub use round::{
    CollectorConfig, IngestOutcome, RoundChannel, RoundCollector, RoundCounters, RoundOutcome,
};
pub use server::CollectorServer;
pub use shard::FinalizedShards;
pub use wal::{FsyncPolicy, Recovery};
