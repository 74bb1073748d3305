//! The round engine: a registry of concurrent rounds, admission control,
//! quotas, duplicate rejection, finalize.
//!
//! A **round** is one collection epoch: a tenant opens it for a declared
//! population and channel, sessions ingest exactly one report per user,
//! intake closes, and the aggregate finalizes. The lifecycle is
//!
//! ```text
//! open ──ingest*──> close ──> finalize
//!        │                        │
//!        └── checkpoint ──────────┘   (resumable at any ingest point)
//! ```
//!
//! and the engine **multiplexes any number of rounds at once**: rounds
//! live in a registry keyed by round id, every operation names its round
//! explicitly, and sessions working different rounds never share a lock
//! beyond a brief read of the registry map.
//!
//! ## Locking discipline
//!
//! Two lock tiers, always taken registry-before-round:
//!
//! 1. the **registry** (`RwLock<BTreeMap<id, Arc<RoundSlot>>>`) — read
//!    to look a round up, written only by open (insert) and finalize
//!    (remove);
//! 2. each round's **slot lock**: ingestion takes it read once per frame
//!    (then each shard the frame touches, one at a time), lifecycle
//!    transitions (close, finalize, checkpoint) take it write, so a close
//!    quiesces every in-flight frame *of that round* and no other.
//!
//! Finalize drops the slot's write guard before re-taking the registry
//! writer to remove the entry, so no thread ever waits on the registry
//! while holding a slot — the ordering is acyclic and deadlock-free.
//! Within a round, duplicate-id rejection lives in the id-sharded
//! seen-bitmaps, quota and malformed-upload counters are atomics, and the
//! adjacency fold is a commutative OR into exclusively-owned words — so
//! each round's finalized view is bit-identical however sessions and
//! *other rounds* interleave. Rejected reports
//! (duplicates, quota overruns, malformed or out-of-range uploads —
//! exactly the attack surface the paper's Detect1/Detect2 score) are
//! *counted*, never folded, and surfaced in the close summary.
//!
//! ## Admission control
//!
//! Opens are refused — typed, before any allocation — when the round
//! exceeds a per-round cap ([`MAX_ADJACENCY_POPULATION`],
//! [`MAX_DEGREE_VECTOR_POPULATION`], [`MAX_GROUPS`]: with at most
//! [`MAX_SHARDS`] shards, these make every snapshot and finalize reply
//! fit one frame), when the tenant already holds
//! [`CollectorConfig::max_rounds_per_tenant`] open rounds
//! ([`CollectorError::TenantQuota`]), or when the round's priced memory
//! ([`RoundChannel::memory_cost`], at least what the round's shards
//! allocate: `≈ N²/16` / `O(N/8 + shards·groups)` bytes) would push the
//! engine past [`CollectorConfig::memory_budget`]
//! ([`CollectorError::MemoryBudget`]). Finalize refunds the charge. A
//! hostile tenant can therefore exhaust *its* quota, never the
//! collector.

use crate::error::CollectorError;
use crate::metrics::{observe_since, CollectorMetrics, FOLD_SAMPLE_SHIFT};
use crate::server::{fold_batch, Session};
use crate::shard::{Admitted, FinalizedShards, Shards};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::wire::{self, ReportBatch, ReportView};
use ldp_protocols::UserReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Shard count, `1..=`[`MAX_SHARDS`]: reports are routed by
    /// `user_id % shards` into per-shard state behind per-shard locks, so
    /// concurrent sessions folding different shards never contend.
    pub shards: usize,
    /// Most TCP connections the daemon holds at once; each is served by
    /// its own session thread, which sleeps in a blocking read while its
    /// peer is quiet, so an idle connection costs a thread stack and a
    /// small buffer, not CPU. The default is 1024. A connect past the cap
    /// is **refused with a typed error** (`ERR` code `SESSION_CAP`) after
    /// a short bounded wait for a slot, never queued indefinitely: a cap
    /// below the number of interdependent clients surfaces as a clean
    /// [`CollectorError::SessionCap`] on the latecomer instead of a
    /// starvation deadlock.
    pub max_sessions: usize,
    /// Most rounds one tenant may hold open concurrently; the admission
    /// check behind [`CollectorError::TenantQuota`].
    pub max_rounds_per_tenant: usize,
    /// Global budget, in bytes, for the priced memory of all open rounds
    /// together (see [`RoundChannel::memory_cost`]); the admission check
    /// behind [`CollectorError::MemoryBudget`]. The default (1 GiB)
    /// admits 62 adjacency rounds at [`MAX_ADJACENCY_POPULATION`].
    pub memory_budget: u64,
    /// Whether the observability plane records (default `true`). Off, every
    /// hot-path instrumentation site reduces to one predictable branch —
    /// the baseline of the `collector_smoke` bench's `metrics_overhead`
    /// ≤ 1.03 gate. The scrape surface (`STATS` frames) stays structurally
    /// valid either way, reading zeros while off.
    pub metrics: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            shards: 8,
            max_sessions: 1024,
            max_rounds_per_tenant: 8,
            memory_budget: 1 << 30,
            metrics: true,
        }
    }
}

impl CollectorConfig {
    fn validate(&self) -> Result<(), CollectorError> {
        let bad = [
            (self.shards == 0, "shards must be positive"),
            (self.shards > MAX_SHARDS, "shards must be at most 64"),
            (self.max_sessions == 0, "max_sessions must be positive"),
            (
                self.max_rounds_per_tenant == 0,
                "max_rounds_per_tenant must be positive",
            ),
            (self.memory_budget == 0, "memory_budget must be positive"),
        ];
        match bad.into_iter().find(|&(bad, _)| bad) {
            Some((_, detail)) => Err(CollectorError::InvalidConfig { detail }),
            None => Ok(()),
        }
    }
}

/// The channel a round collects on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundChannel {
    /// LF-GDPR adjacency reports; finalizes into a
    /// [`PerturbedView`](ldp_protocols::PerturbedView) calibrated for the
    /// given keep probability.
    Adjacency {
        /// Population `N` (one report per user).
        population: usize,
        /// Keep probability of the deployed randomized response.
        p_keep: f64,
    },
    /// LDPGen-style degree vectors toward `groups` server-defined groups;
    /// finalizes into per-group totals.
    DegreeVector {
        /// Population `N`.
        population: usize,
        /// Groups per vector.
        groups: usize,
    },
}

impl RoundChannel {
    /// Population the round expects to hear from.
    pub fn population(&self) -> usize {
        match *self {
            RoundChannel::Adjacency { population, .. }
            | RoundChannel::DegreeVector { population, .. } => population,
        }
    }

    /// Bytes a round on this channel charges against
    /// [`CollectorConfig::memory_budget`] while open: at least what its
    /// shards allocate. Every round pays `8 · ⌈N/64⌉` bytes of seen-bitmap
    /// plus 136 bytes per shard (its bitmap's last word, its lock and its
    /// vector headers). An adjacency round adds the strict lower triangle
    /// (`8 · lower_triangle_words(N)`, `≈ N²/16`), `8N` bytes of reported
    /// degrees and `8 · (N + shards)` of row offsets — ≈ 17.1 MB at
    /// `N = 16,384`; a degree-vector round adds `8 · shards · groups`
    /// bytes of sums. The price is computed (and the admission decision
    /// made) *before* anything is allocated. During `FINALIZE` the daemon
    /// adds one 1 MiB piece of the `VIEW` it streams from the shards; no
    /// full matrix or whole reply is built in the daemon.
    pub fn memory_cost(&self, shards: usize) -> u64 {
        let (n, shards) = (self.population() as u64, shards.max(1) as u64);
        let base = 8 * n.div_ceil(64) + 136 * shards;
        match *self {
            RoundChannel::Adjacency { population, .. } => {
                base + 8 * wire::lower_triangle_words(population) as u64 + 8 * (2 * n + shards)
            }
            RoundChannel::DegreeVector { groups, .. } => base + 8 * shards * groups as u64,
        }
    }
}

/// Intake counters of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounters {
    /// Reports folded into the aggregate.
    pub accepted: u64,
    /// Reports rejected because their user already reported.
    pub rejected_duplicate: u64,
    /// Reports rejected by the round quota.
    pub rejected_quota: u64,
    /// Reports rejected as domain-invalid: out-of-range id, wrong
    /// channel, wrong population or group count.
    pub rejected_invalid: u64,
    /// Uploads that never reached a validated fold: wire-decode garbage
    /// and frames misdirected at a closed round. Kept apart from
    /// [`Self::rejected_invalid`] — a poisoning analyst reads
    /// domain-invalid reports as attack surface, while malformed bytes
    /// are transport noise.
    pub rejected_malformed: u64,
    /// True when intake closed with every user's report folded — the
    /// round is finalizable as it stands, no outstanding population.
    /// Derived at read time (`closed && accepted == population`), never
    /// stored.
    pub finalized_at_close: bool,
}

/// What a report submission did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Folded into the owning shard's aggregate.
    Queued,
    /// Dropped: the user already reported this round (counted in the
    /// close summary; charges the quota like any queued upload).
    Duplicate,
    /// Dropped: the round quota is exhausted.
    QuotaExceeded,
    /// Dropped: malformed for this round (id, channel, population, or
    /// group count).
    Invalid,
}

/// What one `REPORT_BATCH` frame did: its entries' outcomes, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrameTally {
    pub(crate) queued: u64,
    pub(crate) duplicates: u64,
    pub(crate) quota: u64,
    pub(crate) invalid: u64,
    /// Undecodable, or misdirected at a closed round.
    pub(crate) malformed: u64,
}

/// A finalized round.
#[derive(Debug)]
pub enum RoundOutcome {
    /// The adjacency channel's aggregate, still in its shards: the daemon
    /// streams the `VIEW` reply from it ([`FinalizedShards::encode`]), an
    /// in-process caller takes the server view
    /// ([`FinalizedShards::into_view`]), bit-identical to the in-process
    /// aggregation of the same reports.
    Adjacency(FinalizedShards),
    /// The degree-vector channel's running aggregate.
    DegreeVector {
        /// Per-group totals over all accepted vectors.
        group_totals: Vec<f64>,
        /// Vectors folded in.
        accepted: u64,
    },
}

pub(crate) struct OpenRound {
    pub(crate) round_id: u64,
    pub(crate) channel: RoundChannel,
    pub(crate) quota: u64,
    /// Reports submitted so far (accepted + duplicates — duplicates are
    /// charged like any queued upload; invalid reports are refunded);
    /// what the quota is checked against, atomically so concurrent
    /// sessions cannot oversubscribe it.
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected_quota: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) rejected_malformed: AtomicU64,
    /// Written only under the engine's write lock; read under the read
    /// lock, so a close is a quiesce point for every in-flight ingest.
    pub(crate) closed: AtomicBool,
    pub(crate) shards: Shards,
    /// An adjacency round's flip mechanism (`None` on a degree-vector
    /// round), validated and constructed at open so finalize is
    /// infallible on it (no re-parse, no panic path).
    rr: Option<RandomizedResponse>,
}

impl OpenRound {
    /// A fresh round: the flip mechanism is validated before the shards
    /// are allocated.
    fn new(
        round_id: u64,
        channel: RoundChannel,
        quota: u64,
        num_shards: usize,
    ) -> Result<Self, CollectorError> {
        let (shards, rr) = match channel {
            RoundChannel::Adjacency { population, p_keep } => {
                let rr = RandomizedResponse::from_keep_probability(p_keep).map_err(|_| {
                    CollectorError::InvalidConfig {
                        detail: "keep probability outside (0.5, 1)",
                    }
                })?;
                (Shards::adjacency(population, num_shards), Some(rr))
            }
            RoundChannel::DegreeVector { population, groups } => {
                (Shards::degree_vector(population, groups, num_shards), None)
            }
        };
        Ok(OpenRound {
            round_id,
            channel,
            quota,
            submitted: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_malformed: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            shards,
            rr,
        })
    }

    /// The round's intake counters; locks each shard in turn (the
    /// caller holds the slot lock: slot before shard).
    fn read_counters(&self) -> RoundCounters {
        let accepted = self.shards.accepted();
        RoundCounters {
            accepted,
            rejected_duplicate: self.shards.duplicates(),
            rejected_quota: self.rejected_quota.load(Ordering::Acquire),
            rejected_invalid: self.rejected_invalid.load(Ordering::Acquire),
            rejected_malformed: self.rejected_malformed.load(Ordering::Acquire),
            finalized_at_close: self.closed.load(Ordering::Acquire)
                && accepted == self.channel.population() as u64,
        }
    }
}

/// One registry entry: a round's tenant, its priced memory charge, and
/// the per-round state lock (`None` once finalized).
pub(crate) struct RoundSlot {
    pub(crate) tenant: u64,
    pub(crate) cost: u64,
    pub(crate) inner: RwLock<Option<OpenRound>>,
}

/// Most shards a [`CollectorConfig`] may ask for. With the three caps
/// below it bounds every admitted round's journal snapshot and finalize
/// reply to one [`wire::MAX_FRAME_LEN`] frame: a degree-vector snapshot
/// holds at most `2²⁴/8` seen-bitmap bytes and `64 · 2¹⁶ · 8` bytes of
/// sums (≈ 34 MiB), an adjacency snapshot or `VIEW` ≈ 17 MB, and a
/// `DEGREE_SUMMARY` 512 KiB.
pub const MAX_SHARDS: usize = 64;

/// Largest adjacency-round population. The round's shards hold `≈ N²/16`
/// bytes and its finalized view `N²/8`: ≈ 17 and 34 MB here, against
/// ≈ 0.7 and 1.4 GB at Google+ scale (`N = 107,614`). So an oversize
/// round is a typed [`CollectorError::PopulationCap`] at open, not a job
/// for the OOM killer or a surprise at finalize.
pub const MAX_ADJACENCY_POPULATION: usize = 16_384;

/// Largest degree-vector-round population. That channel's state is only
/// `N/8` seen-bitmap bytes plus per-shard sums, so the million-user
/// regime fits with room to spare, but a hostile `OPEN` claiming `2⁵⁰`
/// users is still a typed refusal, not an aborting allocation.
pub const MAX_DEGREE_VECTOR_POPULATION: usize = 1 << 24;

/// Largest group count of a degree-vector round (bounds the per-shard
/// sums, the snapshot and the `DEGREE_SUMMARY` reply).
pub const MAX_GROUPS: usize = 1 << 16;

/// The per-round caps, the one admission check every `OPEN` (live,
/// replayed or restored, with or without a journal) passes before
/// anything is allocated. The keep probability is validated where the
/// round's `RandomizedResponse` is built, also before any allocation.
fn validate_channel(channel: &RoundChannel) -> Result<(), CollectorError> {
    let (population, cap, matrix_bytes, groups) = match *channel {
        RoundChannel::Adjacency { population, .. } => (
            population,
            MAX_ADJACENCY_POPULATION,
            (population as u64).pow(2) / 8,
            0,
        ),
        RoundChannel::DegreeVector { population, groups } => (
            population,
            MAX_DEGREE_VECTOR_POPULATION,
            population as u64 / 8,
            groups,
        ),
    };
    if population > cap {
        return Err(CollectorError::PopulationCap {
            requested: population,
            cap,
            matrix_bytes,
        });
    }
    if groups > MAX_GROUPS {
        return Err(CollectorError::GroupCap {
            requested: groups,
            cap: MAX_GROUPS,
        });
    }
    Ok(())
}

/// The transport-agnostic collection engine. Any number of concurrent
/// rounds, any number of ingesting threads; see the module docs for the
/// lifecycle, the locking discipline, and admission control.
pub struct RoundCollector {
    config: CollectorConfig,
    /// Keyed by round id. A `BTreeMap` on purpose: registry iteration
    /// feeds close summaries and multi-round checkpoint sweeps, and those
    /// must see rounds in a schedule-independent order (the `ldp-lint`
    /// `unordered-iter` rule bans unordered maps on such paths).
    pub(crate) rounds: RwLock<BTreeMap<u64, Arc<RoundSlot>>>,
    /// Sum of the open rounds' priced charges. Mutated only under the
    /// registry write lock, so the check-then-charge at open is
    /// race-free.
    memory_used: AtomicU64,
    /// The observability plane: every metric pre-registered here, at
    /// construction, so the ingest path ticks pre-resolved handles.
    metrics: Arc<CollectorMetrics>,
}

/// Shard folds never panic on the validated inputs the engine hands
/// them, so a poisoned engine lock (a panicking session thread) is
/// recovered rather than cascaded.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl RoundCollector {
    /// Creates an engine with the given configuration.
    ///
    /// # Errors
    /// [`CollectorError::InvalidConfig`] on a zero shard count, session
    /// cap, tenant quota, or memory budget, or more than [`MAX_SHARDS`]
    /// shards.
    pub fn new(config: CollectorConfig) -> Result<Self, CollectorError> {
        config.validate()?;
        let metrics = Arc::new(CollectorMetrics::new(config.shards, config.metrics));
        Ok(RoundCollector {
            config,
            rounds: RwLock::new(BTreeMap::new()),
            memory_used: AtomicU64::new(0),
            metrics,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The engine's observability plane (the `STATS` scrape surface).
    pub fn metrics(&self) -> &CollectorMetrics {
        &self.metrics
    }

    /// Ids of the rounds currently open, ascending (the registry is an
    /// ordered map, so no sort is needed).
    pub fn open_round_ids(&self) -> Vec<u64> {
        read_lock(&self.rounds).keys().copied().collect()
    }

    /// Bytes the open rounds currently charge against
    /// [`CollectorConfig::memory_budget`].
    pub fn memory_used(&self) -> u64 {
        self.memory_used.load(Ordering::Acquire)
    }

    /// The tenant owning the named round.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id.
    pub fn round_tenant(&self, round_id: u64) -> Result<u64, CollectorError> {
        Ok(self.slot(round_id)?.tenant)
    }

    /// Looks a round's slot up in the registry.
    pub(crate) fn slot(&self, round_id: u64) -> Result<Arc<RoundSlot>, CollectorError> {
        read_lock(&self.rounds)
            .get(&round_id)
            .cloned()
            .ok_or(CollectorError::UnknownRound { round_id })
    }

    /// Opens a round as tenant 0 — the single-tenant convenience over
    /// [`Self::open_round_as`].
    ///
    /// # Errors
    /// As [`Self::open_round_as`].
    pub fn open_round(
        &self,
        round_id: u64,
        channel: RoundChannel,
        quota: Option<u64>,
    ) -> Result<(), CollectorError> {
        self.open_round_as(0, round_id, channel, quota)
    }

    /// Opens a round for `tenant`. `quota` bounds how many reports the
    /// round will even queue (`None` ⇒ exactly the population). Any
    /// number of rounds may be open at once; ids are the routing key, so
    /// an id can only be reused after its round finalizes.
    ///
    /// # Errors
    /// [`CollectorError::RoundAlreadyOpen`] if this id is in flight;
    /// [`CollectorError::PopulationCap`] / [`CollectorError::GroupCap`]
    /// if the round exceeds a per-round cap;
    /// [`CollectorError::TenantQuota`] /
    /// [`CollectorError::MemoryBudget`] if admission control refuses it.
    pub fn open_round_as(
        &self,
        tenant: u64,
        round_id: u64,
        channel: RoundChannel,
        quota: Option<u64>,
    ) -> Result<(), CollectorError> {
        let quota = quota.unwrap_or(channel.population() as u64);
        self.admit(tenant, round_id, channel, quota, |_| Ok(()))
    }

    /// The one registry insert, for opens and checkpoint restores alike:
    /// admission control, then a fresh round that `fill` may populate
    /// (a restore decodes its shards and counters there). The round
    /// enters the registry only if every step succeeds, so a refused
    /// open or restore leaves the engine as it was.
    pub(crate) fn admit(
        &self,
        tenant: u64,
        round_id: u64,
        channel: RoundChannel,
        quota: u64,
        fill: impl FnOnce(&mut OpenRound) -> Result<(), CollectorError>,
    ) -> Result<(), CollectorError> {
        let open_begin = self.metrics.active().then(Instant::now);
        let mut rounds = write_lock(&self.rounds);
        if rounds.contains_key(&round_id) {
            return Err(CollectorError::RoundAlreadyOpen { round_id });
        }
        // Per-round caps and parameter validation come first, then the
        // admission checks — all of it before any allocation.
        validate_channel(&channel)?;
        let open = rounds.values().filter(|s| s.tenant == tenant).count();
        if open >= self.config.max_rounds_per_tenant {
            return Err(CollectorError::TenantQuota {
                tenant,
                open,
                cap: self.config.max_rounds_per_tenant,
            });
        }
        let cost = channel.memory_cost(self.config.shards);
        let used = self.memory_used.load(Ordering::Acquire);
        if used.saturating_add(cost) > self.config.memory_budget {
            return Err(CollectorError::MemoryBudget {
                requested_bytes: cost,
                used_bytes: used,
                budget_bytes: self.config.memory_budget,
            });
        }
        // Admitted. Allocation happens under the registry writer — open
        // is rare and the size is already budget-checked, so holding the
        // map for the bounded allocation keeps check-then-charge atomic
        // without a reservation protocol.
        let mut round = OpenRound::new(round_id, channel, quota, self.config.shards)?;
        fill(&mut round)?;
        rounds.insert(
            round_id,
            Arc::new(RoundSlot {
                tenant,
                cost,
                inner: RwLock::new(Some(round)),
            }),
        );
        let used = self.memory_used.fetch_add(cost, Ordering::AcqRel) + cost;
        observe_since(&self.metrics.open_nanos, open_begin);
        if open_begin.is_some() {
            self.metrics.memory_used_bytes.set(used);
            self.metrics.rounds_open.add(1);
        }
        Ok(())
    }

    /// Submits one report to the named round, folding it into the owning
    /// shard immediately; safe from any number of threads at once. The
    /// report travels as a one-entry `REPORT_BATCH` payload through the
    /// daemon's own frame fold, so it meets exactly the checks a wire
    /// report meets. Malformed, duplicate, or over-quota reports are
    /// *counted and dropped* (one bad upload must not stall a million good
    /// ones) — like a wire report, one sent to a closed round is counted
    /// as malformed; only a missing or closed round is a hard error.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id;
    /// [`CollectorError::RoundClosed`] when its intake already closed.
    pub fn ingest_ref(
        &self,
        round_id: u64,
        user_id: u64,
        report: &UserReport,
    ) -> Result<IngestOutcome, CollectorError> {
        // Encoded once, straight into a one-entry frame (one allocation up
        // to 28 groups).
        let mut payload = Vec::with_capacity(256);
        wire::encode_routed_batch(round_id, &[(user_id, report)], &mut payload);
        let mut session = Session::replay();
        // The frame is one run: time it when the owning shard's count says.
        session.runs_seen = u64::from(
            !self
                .metrics
                .sample_fold(user_id as usize % self.config.shards),
        );
        let tally = fold_batch(&mut session, self, &payload)?;
        Ok(match tally {
            FrameTally { queued: 1, .. } => IngestOutcome::Queued,
            FrameTally { duplicates: 1, .. } => IngestOutcome::Duplicate,
            FrameTally { quota: 1, .. } => IngestOutcome::QuotaExceeded,
            _ => IngestOutcome::Invalid,
        })
    }

    /// The engine half of `server::fold_batch`, the one report fold: admits and
    /// folds one `REPORT_BATCH` frame. Per frame, not per report, it takes the
    /// slot read lock and checks `closed` (a closed round folds nothing and
    /// counts every entry as malformed), reads each entry as a view of the
    /// frame (an undecodable one is malformed and never charged), makes one
    /// quota reservation on `submitted`, and folds each shard's run of admitted
    /// entries, in frame order, under one lock of that shard
    /// ([`Shards::fold_run`]). The reservation reproduces a report-by-report
    /// engine for one session, which charges each report before validating it:
    /// the `k`-th valid entry is admitted while the round has room for `k + 1`,
    /// and an invalid entry is over quota once the valid entries ahead of it
    /// have filled the room, invalid (uncharged) before. One run in
    /// `1 << FOLD_SAMPLE_SHIFT` of `runs_seen` is timed.
    pub(crate) fn fold_frame(
        &self,
        round_id: u64,
        mut batch: ReportBatch<'_>,
        runs_seen: &mut u64,
    ) -> Result<FrameTally, CollectorError> {
        let slot = self.slot(round_id)?;
        let guard = read_lock(&slot.inner);
        let round = guard
            .as_ref()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        let mut tally = FrameTally::default();
        let closed = round.closed.load(Ordering::Acquire);
        let (n, stride) = (round.channel.population(), round.shards.stride());
        let mut valid = Vec::with_capacity(batch.entry_bound());
        // Per invalid entry, the number of valid entries ahead of it.
        let mut invalid_after = Vec::new();
        while let Some(entry) = batch.next_view() {
            let Ok((user_id, report)) = entry.map_err(|_| tally.malformed += 1) else {
                continue;
            };
            let fits = match (round.channel, report) {
                (RoundChannel::Adjacency { .. }, ReportView::Adjacency { population, .. }) => {
                    population == n
                }
                (RoundChannel::DegreeVector { groups, .. }, ReportView::DegreeVector(values)) => {
                    values.len() == groups
                }
                _ => false,
            };
            if closed {
                tally.malformed += 1;
            } else if fits && user_id < n as u64 {
                let user_id = user_id as usize;
                let (shard, slot) = (user_id % stride, user_id / stride);
                valid.push(Admitted {
                    user_id,
                    shard,
                    slot,
                    report,
                });
            } else {
                invalid_after.push(valid.len() as u64);
            }
        }
        tally.malformed += u64::from(batch.finish().is_err());
        let mut room = 0;
        let _ = round
            .submitted
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |submitted| {
                room = round.quota.saturating_sub(submitted);
                let charge = room.min(valid.len() as u64);
                (charge > 0).then_some(submitted + charge)
            });
        let admitted = &valid[..room.min(valid.len() as u64) as usize];
        let late_invalid = invalid_after.iter().filter(|&&k| k >= room).count();
        tally.quota = (valid.len() - admitted.len() + late_invalid) as u64;
        tally.invalid = (invalid_after.len() - late_invalid) as u64;
        let m = &*self.metrics;
        for shard in (0..stride).filter(|&s| admitted.iter().any(|e| e.shard == s)) {
            let sampled = m.active() && *runs_seen & ((1 << FOLD_SAMPLE_SHIFT) - 1) == 0;
            *runs_seen = runs_seen.wrapping_add(1);
            let fold_begin = sampled.then(Instant::now);
            let run = admitted.iter().filter(|e| e.shard == shard);
            let folded = round.shards.fold_run(shard, run, sampled);
            if let Some(begin) = fold_begin {
                m.shard_lock_wait_nanos.observe(folded.wait_nanos);
                m.fold_nanos.observe(begin.elapsed().as_nanos() as u64);
            }
            // The fold counters share the shards' routing key, so their
            // sum reconciles exactly with the round's accepted count.
            if let Some(counter) = m.shard_folds.get(shard).filter(|_| m.active()) {
                counter.add(folded.accepted);
            }
            tally.queued += folded.accepted;
            tally.duplicates += folded.duplicates;
        }
        for (counter, count) in [
            (&round.rejected_quota, tally.quota),
            (&round.rejected_invalid, tally.invalid),
            (&round.rejected_malformed, tally.malformed),
        ] {
            if count > 0 {
                counter.fetch_add(count, Ordering::AcqRel);
            }
        }
        if closed {
            return Err(CollectorError::RoundClosed { round_id });
        }
        Ok(tally)
    }

    /// Counts a report that failed wire decoding (or was misdirected at a
    /// closed round) against the named round — the daemon calls this so
    /// malformed frames land in the summary, under their own
    /// [`RoundCounters::rejected_malformed`] counter rather than mixed
    /// into the domain-invalid count. Counts into a
    /// closed-but-unfinalized round too — late garbage is still part of
    /// that round's story; a no-op for unknown ids.
    pub fn note_invalid(&self, round_id: u64) {
        if let Ok(slot) = self.slot(round_id) {
            if let Some(round) = read_lock(&slot.inner).as_ref() {
                round.rejected_malformed.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Current intake counters of the named round. Exact at any moment —
    /// ingestion folds directly, so there is no buffered tail to flush.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id.
    pub fn counters(&self, round_id: u64) -> Result<RoundCounters, CollectorError> {
        let slot = self.slot(round_id)?;
        let guard = read_lock(&slot.inner);
        let round = guard
            .as_ref()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        Ok(round.read_counters())
    }

    /// Closes intake on the named round and returns the final counters.
    /// Takes the round's slot write lock, so every in-flight ingest *of
    /// this round* completes or is refused before the summary is
    /// computed — the summary can never miss a concurrently folding
    /// report, and other rounds never stall. Idempotent.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id.
    pub fn close_round(&self, round_id: u64) -> Result<RoundCounters, CollectorError> {
        let close_begin = self.metrics.active().then(Instant::now);
        let slot = self.slot(round_id)?;
        let guard = write_lock(&slot.inner);
        let round = guard
            .as_ref()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        round.closed.store(true, Ordering::Release);
        let counters = round.read_counters();
        observe_since(&self.metrics.close_nanos, close_begin);
        Ok(counters)
    }

    /// Finalizes the named round into its aggregate, consuming the round
    /// state, removing it from the registry, and refunding its memory
    /// charge. Requires every user to have reported exactly once. The
    /// finalize itself runs outside every lock, so other rounds keep
    /// ingesting and finalizing meanwhile.
    ///
    /// # Errors
    /// [`CollectorError::RoundIncomplete`] while reports are outstanding;
    /// [`CollectorError::UnknownRound`] when no round has this id.
    pub fn finalize(&self, round_id: u64) -> Result<RoundOutcome, CollectorError> {
        self.finalize_then(round_id, Ok)
    }

    /// [`Self::finalize`], then `then` on the outcome, both inside the
    /// `round_finalize_nanos` measurement. The daemon journals its
    /// `FINALIZE` record here; the `VIEW` it streams afterwards is
    /// timed by `view_send_nanos`.
    ///
    /// Kept out of line: inlined into the daemon's frame-apply function,
    /// which also runs every report-batch fold, it cost the journaled
    /// degree-vector ingest about 5% (perfbench `durable_multitenant`,
    /// 13 alternating pairs on a 2-core x86-64 container).
    #[inline(never)]
    pub(crate) fn finalize_then<T>(
        &self,
        round_id: u64,
        then: impl FnOnce(RoundOutcome) -> Result<T, CollectorError>,
    ) -> Result<T, CollectorError> {
        let finalize_begin = self.metrics.active().then(Instant::now);
        let slot = self.slot(round_id)?;
        let (round, accepted) = {
            let mut guard = write_lock(&slot.inner);
            let round = guard
                .take()
                .ok_or(CollectorError::UnknownRound { round_id })?;
            let n = round.channel.population();
            let accepted = round.shards.accepted();
            if accepted != n as u64 {
                // Not complete yet: put the state back so intake (and a
                // later finalize) can continue as if untouched.
                *guard = Some(round);
                return Err(CollectorError::RoundIncomplete {
                    population: n,
                    accepted,
                });
            }
            (round, accepted)
        };
        // Slot guard dropped before the registry writer — the lock order
        // is strictly registry-then-slot everywhere else, so no thread
        // can wait on the registry while holding this slot.
        {
            let mut rounds = write_lock(&self.rounds);
            rounds.remove(&round_id);
            let used = self.memory_used.fetch_sub(slot.cost, Ordering::AcqRel) - slot.cost;
            if self.metrics.active() {
                self.metrics.memory_used_bytes.set(used);
                self.metrics.rounds_open.sub(1);
            }
        }
        // Only adjacency rounds carry a flip mechanism.
        let outcome = then(match round.rr {
            Some(rr) => RoundOutcome::Adjacency(round.shards.finalize(rr)),
            None => RoundOutcome::DegreeVector {
                group_totals: round.shards.group_totals(),
                accepted,
            },
        });
        observe_since(&self.metrics.finalize_nanos, finalize_begin);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::caveman_graph;
    use ldp_graph::Xoshiro256pp;
    use ldp_protocols::{GraphLdpProtocol, LfGdpr, ServerView};
    use proptest::prelude::*;
    use rand::Rng;

    fn adjacency_channel(n: usize) -> RoundChannel {
        RoundChannel::Adjacency {
            population: n,
            p_keep: 0.88,
        }
    }

    /// Drives a full adjacency round from the honest reports of a real
    /// protocol run and pins the outcome against the in-process aggregate.
    #[test]
    fn adjacency_round_matches_in_process_aggregation() {
        let g = caveman_graph(6, 8);
        let n = g.num_nodes();
        let proto = LfGdpr::new(4.0).unwrap();
        let base = Xoshiro256pp::new(11);
        let reports = proto.collect_honest(&g, &base);

        let engine = RoundCollector::new(CollectorConfig {
            shards: 5,
            ..CollectorConfig::default()
        })
        .unwrap();
        engine
            .open_round(
                1,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: proto.p_keep(),
                },
                None,
            )
            .unwrap();
        // Arrival order scrambled: evens descending, then odds ascending.
        let order: Vec<usize> = (0..n)
            .rev()
            .filter(|i| i % 2 == 0)
            .chain((0..n).filter(|i| i % 2 == 1))
            .collect();
        for &i in &order {
            let outcome = engine
                .ingest_ref(1, i as u64, &UserReport::Adjacency(reports[i].clone()))
                .unwrap();
            assert_eq!(outcome, IngestOutcome::Queued);
        }
        let counters = engine.close_round(1).unwrap();
        assert_eq!(counters.accepted, n as u64);
        assert_eq!(counters.rejected_duplicate, 0);
        let RoundOutcome::Adjacency(finalized) = engine.finalize(1).unwrap() else {
            panic!("adjacency round must finalize into a view");
        };
        let view = finalized.into_view();

        let trait_obj: &dyn GraphLdpProtocol = &proto;
        let in_process = trait_obj
            .run_worlds(&g, &base, 0, None, None, None)
            .unwrap();
        let ServerView::Perturbed(reference) = in_process.honest else {
            panic!("LF-GDPR aggregates into a perturbed view");
        };
        assert_eq!(view.matrix(), reference.matrix());
        assert_eq!(view.reported_degrees(), reference.reported_degrees());
        for u in 0..n {
            assert_eq!(view.perturbed_degree(u), reference.perturbed_degree(u));
        }
    }

    /// The tentpole pin at the engine tier: four threads ingesting
    /// interleaved id slices — with one slice replayed by every thread,
    /// so duplicate races are live — finalize bit-identical to one
    /// thread ingesting sequentially.
    #[test]
    fn concurrent_ingest_finalizes_bit_identical_to_sequential() {
        let g = caveman_graph(7, 9);
        let n = g.num_nodes();
        let proto = LfGdpr::new(4.0).unwrap();
        let reports = proto.collect_honest(&g, &Xoshiro256pp::new(23));

        let run = |threads: usize| {
            let engine = RoundCollector::new(CollectorConfig {
                shards: 8,
                ..CollectorConfig::default()
            })
            .unwrap();
            engine
                .open_round(
                    9,
                    RoundChannel::Adjacency {
                        population: n,
                        p_keep: proto.p_keep(),
                    },
                    // Room for the duplicate replays (dups charge quota).
                    Some(4 * n as u64),
                )
                .unwrap();
            if threads <= 1 {
                for (i, r) in reports.iter().enumerate() {
                    engine
                        .ingest_ref(9, i as u64, &UserReport::Adjacency(r.clone()))
                        .unwrap();
                }
            } else {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let engine = &engine;
                        let reports = &reports;
                        scope.spawn(move || {
                            for (i, r) in reports.iter().enumerate() {
                                // Own slice, plus everyone replays slice 0.
                                if i % threads == t || i % threads == 0 {
                                    engine
                                        .ingest_ref(9, i as u64, &UserReport::Adjacency(r.clone()))
                                        .unwrap();
                                }
                            }
                        });
                    }
                });
            }
            let counters = engine.close_round(9).unwrap();
            assert_eq!(counters.accepted, n as u64);
            let RoundOutcome::Adjacency(finalized) = engine.finalize(9).unwrap() else {
                panic!("adjacency round expected");
            };
            let view = finalized.into_view();
            (counters, view)
        };

        let (_, reference) = run(1);
        let (counters, view) = run(4);
        assert_eq!(counters.rejected_duplicate, 3 * (n as u64).div_ceil(4));
        assert_eq!(view.matrix(), reference.matrix());
        assert_eq!(view.reported_degrees(), reference.reported_degrees());
        for u in 0..n {
            assert_eq!(view.perturbed_degree(u), reference.perturbed_degree(u));
        }
    }

    #[test]
    fn lifecycle_misuse_is_typed() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        assert!(matches!(
            engine.ingest_ref(3, 0, &UserReport::DegreeVector(vec![])),
            Err(CollectorError::UnknownRound { round_id: 3 })
        ));
        engine.open_round(3, adjacency_channel(4), None).unwrap();
        // A second round on a *fresh* id is fine — that's the point of
        // the registry; the same id is a typed duplicate.
        engine.open_round(4, adjacency_channel(4), None).unwrap();
        assert!(matches!(
            engine.open_round(3, adjacency_channel(4), None),
            Err(CollectorError::RoundAlreadyOpen { round_id: 3 })
        ));
        assert_eq!(engine.open_round_ids(), vec![3, 4]);
        assert!(matches!(
            engine.close_round(9),
            Err(CollectorError::UnknownRound { round_id: 9 })
        ));
        assert!(matches!(
            engine.finalize(3),
            Err(CollectorError::RoundIncomplete {
                population: 4,
                accepted: 0
            })
        ));
        engine.close_round(3).unwrap();
        // Intake refused after close — on round 3 only.
        assert!(matches!(
            engine.ingest_ref(3, 0, &UserReport::Adjacency(report(4, 0.0))),
            Err(CollectorError::RoundClosed { round_id: 3 })
        ));
        assert_eq!(
            engine
                .ingest_ref(4, 0, &UserReport::Adjacency(report(4, 0.0)))
                .unwrap(),
            IngestOutcome::Queued
        );
    }

    fn report(n: usize, degree: f64) -> ldp_protocols::AdjacencyReport {
        ldp_protocols::AdjacencyReport::new(ldp_graph::BitSet::new(n), degree)
    }

    #[test]
    fn quota_duplicates_and_invalids_are_counted_not_fatal() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        engine.open_round(1, adjacency_channel(3), Some(5)).unwrap();
        // Out-of-range id.
        assert_eq!(
            engine
                .ingest_ref(1, 99, &UserReport::Adjacency(report(3, 0.0)))
                .unwrap(),
            IngestOutcome::Invalid
        );
        // Wrong channel.
        assert_eq!(
            engine
                .ingest_ref(1, 0, &UserReport::DegreeVector(vec![1.0]))
                .unwrap(),
            IngestOutcome::Invalid
        );
        // Wrong population.
        assert_eq!(
            engine
                .ingest_ref(1, 0, &UserReport::Adjacency(report(9, 0.0)))
                .unwrap(),
            IngestOutcome::Invalid
        );
        // Three good ones + a duplicate + one more duplicate = quota's 5.
        for i in 0..3 {
            engine
                .ingest_ref(1, i, &UserReport::Adjacency(report(3, i as f64)))
                .unwrap();
        }
        assert_eq!(
            engine
                .ingest_ref(1, 1, &UserReport::Adjacency(report(3, 9.0)))
                .unwrap(),
            IngestOutcome::Duplicate
        );
        assert_eq!(
            engine
                .ingest_ref(1, 2, &UserReport::Adjacency(report(3, 9.0)))
                .unwrap(),
            IngestOutcome::Duplicate
        );
        // Quota exhausted now.
        assert_eq!(
            engine
                .ingest_ref(1, 0, &UserReport::Adjacency(report(3, 0.0)))
                .unwrap(),
            IngestOutcome::QuotaExceeded
        );
        let counters = engine.close_round(1).unwrap();
        assert_eq!(counters.accepted, 3);
        assert_eq!(counters.rejected_duplicate, 2);
        assert_eq!(counters.rejected_quota, 1);
        assert_eq!(counters.rejected_invalid, 3);
        // Still finalizes: every user reported once.
        assert!(matches!(engine.finalize(1), Ok(RoundOutcome::Adjacency(_))));
        // Round consumed, registry empty, charge refunded.
        assert!(engine.open_round_ids().is_empty());
        assert_eq!(engine.memory_used(), 0);
    }

    #[test]
    fn oversize_population_is_refused_with_the_memory_math() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        let err = engine
            .open_round(
                1,
                RoundChannel::Adjacency {
                    population: 107_614,
                    p_keep: 0.9,
                },
                None,
            )
            .unwrap_err();
        let CollectorError::PopulationCap {
            requested,
            cap,
            matrix_bytes,
        } = err
        else {
            panic!("expected PopulationCap, got {err}");
        };
        assert_eq!(requested, 107_614);
        assert_eq!(cap, 16_384);
        assert_eq!(matrix_bytes, 107_614u64 * 107_614 / 8);
        // The engine stays usable.
        assert!(engine.open_round(1, adjacency_channel(10), None).is_ok());
    }

    #[test]
    fn hostile_degree_vector_opens_are_refused_not_allocated() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        // 2^50 users: would be ~140 TB of seen-bitmaps if allocated.
        assert!(matches!(
            engine.open_round(
                1,
                RoundChannel::DegreeVector {
                    population: 1 << 50,
                    groups: 4,
                },
                None,
            ),
            Err(CollectorError::PopulationCap { .. })
        ));
        // 2^40 groups: would be ~8 TB of per-shard sums.
        assert!(matches!(
            engine.open_round(
                1,
                RoundChannel::DegreeVector {
                    population: 100,
                    groups: 1 << 40,
                },
                None,
            ),
            Err(CollectorError::GroupCap { .. })
        ));
        // Still usable at sane sizes.
        assert!(engine
            .open_round(
                1,
                RoundChannel::DegreeVector {
                    population: 100,
                    groups: 4,
                },
                None,
            )
            .is_ok());
    }

    #[test]
    fn degree_vector_round_finalizes_totals() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        engine
            .open_round(
                7,
                RoundChannel::DegreeVector {
                    population: 5,
                    groups: 2,
                },
                None,
            )
            .unwrap();
        for i in 0..5u64 {
            engine
                .ingest_ref(7, i, &UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
        }
        engine.close_round(7).unwrap();
        let RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        } = engine.finalize(7).unwrap()
        else {
            panic!("degree-vector round must finalize into totals");
        };
        assert_eq!(accepted, 5);
        assert_eq!(group_totals, vec![5.0, 10.0]);
    }

    #[test]
    fn invalid_configs_are_refused() {
        assert!(matches!(
            RoundCollector::new(CollectorConfig {
                shards: 0,
                ..CollectorConfig::default()
            }),
            Err(CollectorError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RoundCollector::new(CollectorConfig {
                max_sessions: 0,
                ..CollectorConfig::default()
            }),
            Err(CollectorError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RoundCollector::new(CollectorConfig {
                shards: MAX_SHARDS + 1,
                ..CollectorConfig::default()
            }),
            Err(CollectorError::InvalidConfig {
                detail: "shards must be at most 64"
            })
        ));
        assert!(RoundCollector::new(CollectorConfig {
            shards: MAX_SHARDS,
            ..CollectorConfig::default()
        })
        .is_ok());
        let ok = RoundCollector::new(CollectorConfig::default()).unwrap();
        assert!(matches!(
            ok.open_round(
                1,
                RoundChannel::Adjacency {
                    population: 4,
                    p_keep: 0.2
                },
                None
            ),
            Err(CollectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn tenant_quota_is_per_tenant() {
        let engine = RoundCollector::new(CollectorConfig {
            max_rounds_per_tenant: 2,
            ..CollectorConfig::default()
        })
        .unwrap();
        engine
            .open_round_as(7, 1, adjacency_channel(4), None)
            .unwrap();
        engine
            .open_round_as(7, 2, adjacency_channel(4), None)
            .unwrap();
        assert!(matches!(
            engine.open_round_as(7, 3, adjacency_channel(4), None),
            Err(CollectorError::TenantQuota {
                tenant: 7,
                open: 2,
                cap: 2
            })
        ));
        // A different tenant is unaffected by tenant 7's exhaustion.
        engine
            .open_round_as(8, 3, adjacency_channel(4), None)
            .unwrap();
    }

    #[test]
    fn memory_budget_charges_and_refunds() {
        // A budget of two and a half population-8 adjacency rounds.
        let cost = adjacency_channel(8).memory_cost(CollectorConfig::default().shards);
        let budget = 2 * cost + cost / 2;
        let engine = RoundCollector::new(CollectorConfig {
            memory_budget: budget,
            ..CollectorConfig::default()
        })
        .unwrap();
        engine
            .open_round_as(7, 1, adjacency_channel(8), None)
            .unwrap();
        engine
            .open_round_as(8, 2, adjacency_channel(8), None)
            .unwrap();
        assert_eq!(engine.memory_used(), 2 * cost);
        // A third round would exceed the budget: typed refusal carrying
        // the exact budget math, nothing allocated.
        assert!(matches!(
            engine.open_round_as(9, 3, adjacency_channel(8), None),
            Err(CollectorError::MemoryBudget {
                requested_bytes,
                used_bytes,
                budget_bytes,
            }) if (requested_bytes, used_bytes, budget_bytes) == (cost, 2 * cost, budget)
        ));
        // Finalizing a round refunds its charge and readmits the open.
        for i in 0..8 {
            engine
                .ingest_ref(1, i, &UserReport::Adjacency(report(8, i as f64)))
                .unwrap();
        }
        engine.close_round(1).unwrap();
        engine.finalize(1).unwrap();
        assert_eq!(engine.memory_used(), cost);
        engine
            .open_round_as(9, 3, adjacency_channel(8), None)
            .unwrap();
    }

    #[test]
    fn interleaved_rounds_do_not_cross_contaminate() {
        let engine = RoundCollector::new(CollectorConfig::default()).unwrap();
        let channel = |_| RoundChannel::DegreeVector {
            population: 4,
            groups: 1,
        };
        engine.open_round(1, channel(()), None).unwrap();
        engine.open_round(2, channel(()), None).unwrap();
        // Report-by-report interleaving across the two rounds.
        for i in 0..4u64 {
            engine
                .ingest_ref(1, i, &UserReport::DegreeVector(vec![1.0]))
                .unwrap();
            engine
                .ingest_ref(2, i, &UserReport::DegreeVector(vec![10.0]))
                .unwrap();
        }
        engine.close_round(1).unwrap();
        engine.close_round(2).unwrap();
        let RoundOutcome::DegreeVector {
            group_totals: a, ..
        } = engine.finalize(1).unwrap()
        else {
            panic!("degree-vector round expected");
        };
        let RoundOutcome::DegreeVector {
            group_totals: b, ..
        } = engine.finalize(2).unwrap()
        else {
            panic!("degree-vector round expected");
        };
        assert_eq!(a, vec![4.0]);
        assert_eq!(b, vec![40.0]);
    }

    /// What one frame entry is, for the report-by-report model below.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Valid(u64),
        OutOfRange,
        WrongGroups,
        Malformed,
    }

    /// The report-by-report engine the frame fold must reproduce for one
    /// session: each decodable report is charged before it is validated,
    /// an invalid one is refunded, and a duplicate keeps its charge.
    fn model(entries: &[Entry], quota: u64, population: usize) -> RoundCounters {
        let (mut c, mut submitted) = (RoundCounters::default(), 0);
        let mut seen = vec![false; population];
        for &entry in entries {
            match entry {
                Entry::Malformed => c.rejected_malformed += 1,
                _ if submitted >= quota => c.rejected_quota += 1,
                Entry::OutOfRange | Entry::WrongGroups => c.rejected_invalid += 1,
                Entry::Valid(id) => {
                    submitted += 1;
                    if std::mem::replace(&mut seen[id as usize], true) {
                        c.rejected_duplicate += 1;
                    } else {
                        c.accepted += 1;
                    }
                }
            }
        }
        c
    }

    fn vector_report(user_id: u64, vector: &[f64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::encode_degree_vector_report(user_id, vector, &mut bytes);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `REPORT_BATCH` frames, each folded as a whole, give every
        /// counter the report-by-report model gives, for any mix of valid,
        /// duplicate, invalid and malformed entries and any quota —
        /// including an invalid entry right where the quota fills, and a
        /// second frame that sees exactly the charge the first one left.
        #[test]
        fn frames_match_report_by_report_admission(
            population in 1usize..10,
            quota in 0u64..14,
            count in 0usize..24,
            cut in 0usize..24,
            shards in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Xoshiro256pp::new(seed);
            let entries: Vec<Entry> = (0..count)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => Entry::OutOfRange,
                    1 => Entry::WrongGroups,
                    2 => Entry::Malformed,
                    _ => Entry::Valid(rng.gen_range(0..population as u64)),
                })
                .collect();
            let frame = |entries: &[Entry]| {
                let mut payload = Vec::new();
                wire::put_varint(5, &mut payload);
                wire::put_varint(entries.len() as u64, &mut payload);
                for &entry in entries {
                    let bytes = match entry {
                        // A varint cut short.
                        Entry::Malformed => vec![0x80],
                        Entry::Valid(id) => vector_report(id, &[1.0, 2.0]),
                        Entry::OutOfRange => vector_report(population as u64, &[1.0, 2.0]),
                        Entry::WrongGroups => vector_report(0, &[1.0]),
                    };
                    wire::put_varint(bytes.len() as u64, &mut payload);
                    payload.extend_from_slice(&bytes);
                }
                payload
            };
            let engine = RoundCollector::new(CollectorConfig {
                shards,
                ..CollectorConfig::default()
            })
            .unwrap();
            let channel = RoundChannel::DegreeVector { population, groups: 2 };
            engine.open_round(5, channel, Some(quota)).unwrap();
            let (first, second) = entries.split_at(cut.min(count));
            let mut session = Session::replay();
            for part in [first, second] {
                fold_batch(&mut session, &engine, &frame(part)).unwrap();
            }
            prop_assert_eq!(engine.counters(5).unwrap(), model(&entries, quota, population));
        }
    }
}
