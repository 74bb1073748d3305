//! The collector's observability plane: typed handles over [`ldp_obs`].
//!
//! One [`CollectorMetrics`] is built per engine, at
//! [`RoundCollector::new`](crate::RoundCollector::new) time: every metric
//! the daemon will ever touch is registered **there**, so the hot paths
//! (session pump, batch decode, shard fold) hold pre-resolved `Arc`
//! handles and a tick is one relaxed `fetch_add` — zero allocation, zero
//! locks, no registry walk. The registry is only iterated on the cold
//! scrape path: a `STATS` wire frame, which serves
//! [`CollectorMetrics::snapshot`] as is — the daemon's one observability
//! surface. Every lifecycle event has a
//! registry entry: sessions admitted, refused or reaped, frames decoded,
//! rounds opened, closed and finalized, recovery, and each typed `ERR`.
//! The latency histograms read the wall clock — the documented carve-out
//! of DESIGN.md §10; nothing here feeds a modelled value.
//!
//! Disabling metrics ([`CollectorConfig::metrics`](crate::CollectorConfig::metrics)
//! `= false`) keeps every handle constructed but turns each hot-path
//! site into one predictable branch on [`CollectorMetrics::active`] —
//! the baseline of the `collector_smoke` bench's `metrics_overhead`
//! ≤ 1.03 gate.

use ldp_obs::{Counter, Gauge, Histogram, Registry, Sample};
use std::sync::Arc;
use std::time::Instant;

/// Sample the fold latency/lock-wait probes every `1 << FOLD_SAMPLE_SHIFT`
/// (frame, shard) runs: a run folds one frame's entries for one shard
/// under one lock, and timing each would add three `Instant::now` calls
/// per run. In the daemon the decision is a mask of the session's plain
/// run counter; for an in-process `ingest_ref` (one run of one report)
/// it reads the owning shard's fold counter (a relaxed load). Either way
/// the untimed majority pays no atomic write for not being timed.
pub(crate) const FOLD_SAMPLE_SHIFT: u32 = 3;

/// Records the nanoseconds since `begin` in `histogram`, if timed.
pub(crate) fn observe_since(histogram: &Histogram, begin: Option<Instant>) {
    if let Some(begin) = begin {
        histogram.observe(begin.elapsed().as_nanos() as u64);
    }
}

/// Stable names for the `server::codes` refusal codes, in code order
/// (code `i` is `ERR_CODE_NAMES[i - 1]`); each gets an `err_{name}`
/// counter so refusal floods are attributable by type at a glance.
pub(crate) const ERR_CODE_NAMES: [&str; 12] = [
    "population_cap",
    "round_already_open",
    "no_open_round",
    "round_mismatch",
    "round_incomplete",
    "bad_frame",
    "checkpoint_failed",
    "internal",
    "session_cap",
    "tenant_quota",
    "memory_budget",
    "round_closed",
];

/// Pre-registered metric handles and the registry that serves them. See
/// the module docs; obtain one from
/// [`RoundCollector::metrics`](crate::RoundCollector::metrics).
#[derive(Debug)]
pub struct CollectorMetrics {
    active: bool,
    registry: Registry,
    // --- ingest plane ---
    /// Raw socket bytes drained by session pumps.
    pub(crate) bytes_read: Arc<Counter>,
    /// Complete frames handed to `process_frame`.
    pub(crate) frames_decoded: Arc<Counter>,
    /// `REPORT_BATCH` frames among them.
    pub(crate) batches_decoded: Arc<Counter>,
    /// Reports folded, per shard (index = `user_id % shards`); the sum
    /// over shards reconciles exactly with a round's accepted count.
    pub(crate) shard_folds: Vec<Arc<Counter>>,
    /// Sampled wall time of one (frame, shard) run — the shard-lock wait
    /// plus the folds of the run's entries — nanoseconds.
    pub(crate) fold_nanos: Arc<Histogram>,
    /// Sampled wait for the shard's mutex at the start of a run,
    /// nanoseconds.
    pub(crate) shard_lock_wait_nanos: Arc<Histogram>,
    /// Wall time one `REPORT_BATCH` frame took to fold end-to-end.
    pub(crate) batch_nanos: Arc<Histogram>,
    /// Connections admitted and not yet retired.
    pub(crate) sessions_active: Arc<Gauge>,
    /// Connects refused at the session cap (typed `SESSION_CAP`).
    pub(crate) sessions_refused_cap: Arc<Counter>,
    /// Connections dropped mid-frame by the stall reaper.
    pub(crate) stall_reaps: Arc<Counter>,
    /// Typed `ERR` frames emitted, by refusal code (`err_{name}`).
    pub(crate) errs: Vec<Arc<Counter>>,
    // --- lifecycle plane ---
    /// Duration of successful round opens, nanoseconds.
    pub(crate) open_nanos: Arc<Histogram>,
    /// Duration of round closes (including the quiesce), nanoseconds.
    pub(crate) close_nanos: Arc<Histogram>,
    /// Duration of round finalizations up to the `FINALIZE` journal
    /// record, nanoseconds.
    pub(crate) finalize_nanos: Arc<Histogram>,
    /// Duration of streaming one adjacency round's `VIEW` reply from its
    /// shards into the socket, nanoseconds.
    pub(crate) view_send_nanos: Arc<Histogram>,
    /// Duration of checkpoint snapshots, nanoseconds.
    pub(crate) checkpoint_nanos: Arc<Histogram>,
    /// Priced bytes currently charged against the memory budget.
    pub(crate) memory_used_bytes: Arc<Gauge>,
    /// Rounds currently in the registry.
    pub(crate) rounds_open: Arc<Gauge>,
    // --- durability plane ---
    /// Rounds rebuilt from the data dir at startup (checkpoint + journal
    /// tail replay).
    pub(crate) recovered_rounds: Arc<Counter>,
    /// Journal records re-applied during recovery.
    pub(crate) wal_replayed_frames: Arc<Counter>,
    /// Bytes appended to the write-ahead journal.
    pub(crate) wal_appended_bytes: Arc<Counter>,
    /// Duration of journal fsync barriers, nanoseconds (empty under
    /// `FsyncPolicy::Off`).
    pub(crate) wal_fsync_nanos: Arc<Histogram>,
}

impl CollectorMetrics {
    /// Registers the full metric set for an engine with `shards` shards.
    /// `active = false` keeps the handles (scrapes stay structurally
    /// valid, reading zeros) but turns every hot-path site into one
    /// branch.
    pub(crate) fn new(shards: usize, active: bool) -> Self {
        let mut reg = Registry::new();
        let bytes_read = reg.counter("ingest_bytes_read");
        let frames_decoded = reg.counter("ingest_frames_decoded");
        let batches_decoded = reg.counter("ingest_batches_decoded");
        let shard_folds = (0..shards.max(1))
            .map(|i| reg.counter(format!("ingest_reports_folded_shard_{i}")))
            .collect();
        let fold_nanos = reg.histogram("ingest_fold_nanos");
        let shard_lock_wait_nanos = reg.histogram("ingest_shard_lock_wait_nanos");
        let batch_nanos = reg.histogram("ingest_batch_nanos");
        let sessions_active = reg.gauge("sessions_active");
        let sessions_refused_cap = reg.counter("sessions_refused_cap");
        let stall_reaps = reg.counter("stall_reaps");
        let errs = ERR_CODE_NAMES
            .iter()
            .map(|name| reg.counter(format!("err_{name}")))
            .collect();
        let open_nanos = reg.histogram("round_open_nanos");
        let close_nanos = reg.histogram("round_close_nanos");
        let finalize_nanos = reg.histogram("round_finalize_nanos");
        let view_send_nanos = reg.histogram("view_send_nanos");
        let checkpoint_nanos = reg.histogram("round_checkpoint_nanos");
        let memory_used_bytes = reg.gauge("memory_budget_used_bytes");
        let rounds_open = reg.gauge("rounds_open");
        let recovered_rounds = reg.counter("recovered_rounds");
        let wal_replayed_frames = reg.counter("wal_replayed_frames");
        let wal_appended_bytes = reg.counter("wal_appended_bytes");
        let wal_fsync_nanos = reg.histogram("wal_fsync_nanos");
        CollectorMetrics {
            active,
            registry: reg,
            bytes_read,
            frames_decoded,
            batches_decoded,
            shard_folds,
            fold_nanos,
            shard_lock_wait_nanos,
            batch_nanos,
            sessions_active,
            sessions_refused_cap,
            stall_reaps,
            errs,
            open_nanos,
            close_nanos,
            finalize_nanos,
            view_send_nanos,
            checkpoint_nanos,
            memory_used_bytes,
            rounds_open,
            recovered_rounds,
            wal_replayed_frames,
            wal_appended_bytes,
            wal_fsync_nanos,
        }
    }

    /// Whether hot-path sites record (the
    /// [`CollectorConfig::metrics`](crate::CollectorConfig::metrics) knob).
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Counts one emitted `ERR` frame by its refusal code.
    pub(crate) fn on_err(&self, code: u8) {
        if !self.active {
            return;
        }
        if let Some(counter) = self.errs.get((code as usize).wrapping_sub(1)) {
            counter.incr();
        }
    }

    /// Whether an in-process report routed to `shard` gets its fold
    /// latency and shard-lock wait timed: true for every
    /// `1 << FOLD_SAMPLE_SHIFT`-th fold of the shard. Costs one relaxed
    /// load of the shard's own fold counter.
    #[inline]
    pub(crate) fn sample_fold(&self, shard: usize) -> bool {
        self.active
            && self
                .shard_folds
                .get(shard)
                .is_some_and(|c| c.get() & ((1 << FOLD_SAMPLE_SHIFT) - 1) == 0)
    }

    /// Reports folded across all shards (the registry-side twin of a
    /// round's accepted count; exact after a `SYNC`/`CLOSE` barrier).
    pub fn reports_folded(&self) -> u64 {
        self.shard_folds.iter().map(|c| c.get()).sum()
    }

    /// Relaxed point-in-time snapshot of every registered metric — the
    /// `STATS_REPLY` payload ([`ldp_protocols::wire::StatsEntry`] is
    /// [`Sample`]).
    pub fn snapshot(&self) -> Vec<Sample> {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::codes;
    use ldp_protocols::wire::{StatsEntry, StatsValue};

    #[test]
    fn every_refusal_code_has_a_named_counter() {
        let m = CollectorMetrics::new(4, true);
        // codes are 1..=12 and dense; ERR_CODE_NAMES must cover exactly.
        assert_eq!(ERR_CODE_NAMES.len(), codes::ROUND_CLOSED as usize);
        m.on_err(codes::SESSION_CAP);
        m.on_err(codes::SESSION_CAP);
        m.on_err(codes::ROUND_CLOSED);
        m.on_err(0); // unknown code: counted nowhere, never panics
        m.on_err(200);
        let snap = m.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
        };
        assert_eq!(
            get("err_session_cap"),
            Some(ldp_obs::SampleValue::Counter(2))
        );
        assert_eq!(
            get("err_round_closed"),
            Some(ldp_obs::SampleValue::Counter(1))
        );
    }

    #[test]
    fn inactive_metrics_record_nothing() {
        let m = CollectorMetrics::new(2, false);
        assert!(!m.active());
        assert!(!m.sample_fold(0));
        m.on_err(codes::BAD_FRAME);
        assert_eq!(m.reports_folded(), 0);
        // The scrape surface stays structurally intact (zeros).
        assert!(m.snapshot().iter().any(|e| e.name == "ingest_bytes_read"));
    }

    #[test]
    fn the_snapshot_roundtrips_through_the_stats_codec() {
        let m = CollectorMetrics::new(2, true);
        m.bytes_read.add(77);
        m.sessions_active.set(3);
        m.fold_nanos.observe(100);
        let entries = m.snapshot();
        let find = |name: &str| entries.iter().find(|e| e.name == name).cloned();
        assert_eq!(
            find("ingest_bytes_read").map(|e| e.value),
            Some(StatsValue::Counter(77))
        );
        assert_eq!(
            find("sessions_active").map(|e| e.value),
            Some(StatsValue::Gauge(3))
        );
        let Some(StatsEntry {
            value: StatsValue::Histogram { sum, buckets },
            ..
        }) = find("ingest_fold_nanos")
        else {
            panic!("fold histogram missing from the snapshot");
        };
        assert_eq!(sum, 100);
        assert_eq!(buckets.iter().sum::<u64>(), 1);
        // Round-trips through the wire codec bit-exactly.
        let mut encoded = Vec::new();
        ldp_protocols::wire::encode_stats_reply(&entries, &mut encoded);
        assert_eq!(
            ldp_protocols::wire::decode_stats_reply(&encoded).unwrap(),
            entries
        );
    }
}
