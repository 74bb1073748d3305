//! # ldp-collector
//!
//! The report-collection service: the paper's threat model made a real
//! system. A collector gathers perturbed uploads from `N` users — honest
//! reports and whatever crafted reports the fake tail injects travel the
//! same bytes, which is exactly why the server cannot tell them apart a
//! priori — and this crate runs that collection as a **sharded TCP daemon**
//! instead of an in-process function call:
//!
//! * [`round`] — the transport-agnostic engine: a **registry of
//!   concurrent rounds** keyed by round id, each with the lifecycle
//!   (**open → ingest → close → finalize**), per-round quotas,
//!   duplicate-id rejection, and the population memory cap
//!   ([`CollectorError::PopulationCap`] instead of an OOM: the dense
//!   adjacency aggregate is `O(N²/8)` bytes ≈ 1.4 GiB at Google+ scale).
//!   Admission control prices every open against a global
//!   [`CollectorConfig::memory_budget`] and per-tenant round quotas, and
//!   refuses with typed backpressure ([`CollectorError::MemoryBudget`],
//!   [`CollectorError::TenantQuota`]) instead of allocating. The engine
//!   is `Sync`: sessions on different rounds never share a lock, and any
//!   number of threads ingest one round concurrently under its read
//!   lock.
//! * `shard` (internal) — reports routed by `user_id % shards` into
//!   disjoint per-shard state behind per-shard locks, one shard shape for
//!   both channels (exactly what a checkpoint stores); the lower-triangle
//!   ownership rule of the in-process ingestion engine extends to
//!   out-of-order, multi-session arrival (OR-folds into exclusively
//!   owned rows commute), so the shards together hold the view's lower
//!   triangle, bit-identical however sessions interleave, and a
//!   finalize encodes the `VIEW` reply straight from them
//!   ([`FinalizedShards`]).
//! * [`checkpoint`] — snapshot/restore of an in-flight round: the
//!   snapshot quiesces concurrent sessions at a frame boundary, and
//!   [`RoundCollector::resume_round_into`] restores it — all or nothing —
//!   with the same duplicate set, finalizing bit-identically to an
//!   uninterrupted run.
//!   Snapshots are written into a durable daemon's journal ([`wal`]) as
//!   checkpoint records — the one persistence mechanism.
//! * [`metrics`] — the observability plane: pre-registered relaxed-atomic
//!   counters/gauges/histograms over [`ldp_obs`] plus a lock-free
//!   structured trace ring, scraped over the wire with a `STATS` frame
//!   (`CollectorClient::stats`).
//!   Hot paths tick pre-resolved handles — no allocation, no locks — and
//!   the whole plane compiles down to one branch when
//!   [`CollectorConfig::metrics`] is off.
//! * [`server`] / [`client`] — the TCP daemon over
//!   [`std::net::TcpListener`] and its typed client, speaking the
//!   [`ldp_protocols::wire`] frame codec (length-prefixed frames, varint
//!   ids, bit-packed rows, versioned handshake — every report frame is
//!   routed by round id, and **wire v3** ships a finalized view as its
//!   lower triangle). The daemon serves up to
//!   [`CollectorConfig::max_sessions`] connections, each on its own
//!   session thread blocked in `read` under a short timeout, and refuses
//!   past-cap connects with a typed `SESSION_CAP` error instead of
//!   queueing them behind slots that may never free; the client
//!   batches uploads into `REPORT_BATCH` frames, offers a `SYNC`
//!   barrier for coordinated concurrent uploaders, and, given a
//!   [`RetryPolicy`], rides daemon crashes by reconnecting and replaying
//!   its unacknowledged batch frames. Every state-changing
//!   frame goes through one function, `server::apply_frame`: decode,
//!   journal append, fold, and reply encoding live there once. The
//!   payloads the client, the daemon and the checkpoint share (the round
//!   header, `SUMMARY`, `DEGREE_SUMMARY`, `ERR`) have one encoder and one
//!   decoder each, in the internal `codec` module.
//! * [`wal`] — the crash-durability plane: a daemon given a data
//!   directory write-ahead-journals every state-changing frame (report
//!   payloads verbatim, *before* the fold) under a configurable
//!   [`FsyncPolicy`], journals checkpoint snapshots as records of their
//!   own (its segment files are all it writes), and on restart recovers
//!   every open round bit-identically by replaying the journal through
//!   the live daemon's own frame-apply path — a torn final record reads
//!   as a clean end of log. Paired with the client's resend window and the
//!   engine's duplicate-id rejection, at-least-once retry becomes
//!   exactly-once ingest.
//! * [`bridge`] — [`ServeScenario::serve`] /
//!   [`WireWorldRunner`]: the `poison-core` scenario engine evaluated
//!   end-to-end **over the wire** — the protocol's own world builder with
//!   each world folded by a wire round — bit-identical to the in-process
//!   path at the same seed.
//!
//! Two channels are served: **adjacency** rounds (LF-GDPR) finalize into a
//! [`ldp_protocols::PerturbedView`]; **degree-vector** rounds
//! (LDPGen-style) keep `O(shards·groups)` running totals, which is what
//! lets a million-user round run in constant aggregate memory — the
//! regime perfbench's `degvec_stream` workload exercises.

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
