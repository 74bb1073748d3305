//! Typed failures of the collection service (hand-rolled `thiserror`
//! style, like the rest of the workspace — hermetic, no derive macros).

use ldp_protocols::WireError;
use std::fmt;

/// Everything that can go wrong collecting a round — engine-side,
/// transport-side, or reported back by the remote daemon.
#[derive(Debug)]
pub enum CollectorError {
    /// A transport-level I/O failure.
    Io(std::io::Error),
    /// A wire codec failure (malformed frame, bad handshake, truncation).
    Wire(WireError),
    /// An adjacency round's population exceeds the configured cap: the
    /// dense aggregate costs `O(N²/8)` bytes, so the collector refuses
    /// up front instead of dying mid-round (Google+ at `N = 107,614`
    /// would be ≈ 1.4 GiB).
    PopulationCap {
        /// Population the round declared.
        requested: usize,
        /// Configured cap ([`crate::CollectorConfig::max_population`]).
        cap: usize,
        /// Bytes the dense aggregate alone would occupy at `requested`.
        matrix_bytes: u64,
    },
    /// A degree-vector round's group count exceeds the configured cap
    /// (bounds the per-shard sum vectors and the finalize reply frame).
    GroupCap {
        /// Groups the round declared.
        requested: usize,
        /// Configured cap ([`crate::CollectorConfig::max_groups`]).
        cap: usize,
    },
    /// A round with this id is already open; close and finalize it first
    /// (or pick a fresh id — the registry multiplexes any number of
    /// concurrent rounds).
    RoundAlreadyOpen {
        /// Id of the round already in the registry.
        round_id: u64,
    },
    /// The frame names a round id the registry does not hold — never
    /// opened, or already finalized.
    UnknownRound {
        /// Round the frame named.
        round_id: u64,
    },
    /// The frame names a round whose intake is already closed.
    RoundClosed {
        /// Round the frame named.
        round_id: u64,
    },
    /// The tenant already holds its quota of concurrently open rounds —
    /// admission control refuses the open before any allocation.
    TenantQuota {
        /// Tenant that asked.
        tenant: u64,
        /// Rounds the tenant holds open.
        open: usize,
        /// Configured cap
        /// ([`crate::CollectorConfig::max_rounds_per_tenant`]).
        cap: usize,
    },
    /// Admitting the round would exceed the collector's global memory
    /// budget (each open round is priced by the same `O(N²/8)` /
    /// `O(N/8 + shards·groups)` math as the population caps) — a typed
    /// backpressure refusal, never an aborting allocation.
    MemoryBudget {
        /// Bytes this round would charge.
        requested_bytes: u64,
        /// Bytes already charged by open rounds.
        used_bytes: u64,
        /// Configured budget ([`crate::CollectorConfig::memory_budget`]).
        budget_bytes: u64,
    },
    /// The daemon is at its connection cap; the connect was refused with
    /// a typed error instead of queueing behind slots that may never
    /// free (see `CollectorConfig::max_sessions`).
    SessionCap {
        /// Configured cap ([`crate::CollectorConfig::max_sessions`]).
        cap: usize,
    },
    /// Reports are still outstanding: a round finalizes only once every
    /// user has reported exactly once.
    RoundIncomplete {
        /// Reports the round needs (its population).
        population: usize,
        /// Reports accepted so far.
        accepted: u64,
    },
    /// The finalize reply did not match the round's channel (e.g. asking
    /// an adjacency view of a degree-vector round).
    WrongChannel {
        /// Channel the caller expected.
        expected: &'static str,
    },
    /// The remote daemon refused the operation with an error frame.
    Remote {
        /// Stable error code (see `server::codes`).
        code: u8,
        /// Human-readable message from the daemon.
        message: String,
    },
    /// The peer sent a frame kind this state does not accept.
    UnexpectedFrame {
        /// The offending kind byte.
        kind: u8,
    },
    /// A connect (or reconnect) to the daemon failed at the transport
    /// layer — the one failure a client retry policy exists for. Carries
    /// the target address so an operator reading the error knows *which*
    /// collector was unreachable.
    Transport {
        /// The address the client tried to reach.
        target: String,
        /// The underlying socket failure.
        error: std::io::Error,
    },
    /// A checkpoint file is malformed or inconsistent with the engine's
    /// configuration.
    BadCheckpoint {
        /// What was wrong.
        detail: &'static str,
    },
    /// A write-ahead journal segment is malformed in a way truncation
    /// cannot explain (bad magic mid-directory, a torn record followed by
    /// more segments) — recovery refuses with this rather than guess.
    BadJournal {
        /// What was wrong.
        detail: &'static str,
    },
    /// The collector configuration itself is invalid (zero shards, a
    /// zero session cap, a keep probability outside the invertible
    /// range).
    InvalidConfig {
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for CollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectorError::Io(e) => write!(f, "i/o failure: {e}"),
            CollectorError::Wire(e) => write!(f, "wire failure: {e}"),
            CollectorError::PopulationCap {
                requested,
                cap,
                matrix_bytes,
            } => write!(
                f,
                "adjacency round of {requested} users refused: dense aggregate needs \
                 {matrix_bytes} bytes (O(N²/8)); cap is {cap} users — raise \
                 CollectorConfig::max_population only with the memory to back it"
            ),
            CollectorError::GroupCap { requested, cap } => {
                write!(
                    f,
                    "degree-vector round with {requested} groups refused: cap is {cap}"
                )
            }
            CollectorError::RoundAlreadyOpen { round_id } => {
                write!(f, "round {round_id} is still open")
            }
            CollectorError::UnknownRound { round_id } => {
                write!(f, "no open round has id {round_id}")
            }
            CollectorError::RoundClosed { round_id } => {
                write!(f, "round {round_id} has closed intake")
            }
            CollectorError::TenantQuota { tenant, open, cap } => {
                write!(
                    f,
                    "tenant {tenant} already holds {open} open rounds (cap {cap})"
                )
            }
            CollectorError::MemoryBudget {
                requested_bytes,
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "round refused by the memory budget: needs {requested_bytes} bytes, \
                 {used_bytes} of {budget_bytes} already charged by open rounds"
            ),
            CollectorError::SessionCap { cap } => {
                write!(f, "daemon at its session cap of {cap} connections")
            }
            CollectorError::RoundIncomplete {
                population,
                accepted,
            } => write!(
                f,
                "round incomplete: {accepted} of {population} reports accepted"
            ),
            CollectorError::WrongChannel { expected } => {
                write!(f, "round is not on the {expected} channel")
            }
            CollectorError::Remote { code, message } => {
                write!(f, "daemon refused (code {code}): {message}")
            }
            CollectorError::UnexpectedFrame { kind } => {
                write!(f, "unexpected frame kind {kind:#04x}")
            }
            CollectorError::Transport { target, error } => {
                write!(f, "cannot reach collector at {target}: {error}")
            }
            CollectorError::BadCheckpoint { detail } => {
                write!(f, "bad checkpoint: {detail}")
            }
            CollectorError::BadJournal { detail } => {
                write!(f, "bad journal: {detail}")
            }
            CollectorError::InvalidConfig { detail } => {
                write!(f, "invalid collector config: {detail}")
            }
        }
    }
}

impl std::error::Error for CollectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectorError::Io(e) => Some(e),
            CollectorError::Wire(e) => Some(e),
            CollectorError::Transport { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CollectorError {
    fn from(e: std::io::Error) -> Self {
        CollectorError::Io(e)
    }
}

impl From<WireError> for CollectorError {
    fn from(e: WireError) -> Self {
        CollectorError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_shape() {
        let e = CollectorError::PopulationCap {
            requested: 107_614,
            cap: 32_768,
            matrix_bytes: 1_447_816_500,
        };
        let s = e.to_string();
        assert!(s.contains("107614") && s.contains("O(N²/8)"));
        let e = CollectorError::from(WireError::Truncated);
        assert!(std::error::Error::source(&e).is_some());
        let e = CollectorError::TenantQuota {
            tenant: 3,
            open: 8,
            cap: 8,
        };
        assert!(e.to_string().contains("tenant 3"));
        let e = CollectorError::MemoryBudget {
            requested_bytes: 512,
            used_bytes: 900,
            budget_bytes: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("512") && s.contains("1024"));
        assert!(CollectorError::SessionCap { cap: 4 }
            .to_string()
            .contains("cap of 4"));
        assert!(CollectorError::UnknownRound { round_id: 7 }
            .to_string()
            .contains('7'));
        let e = CollectorError::Transport {
            target: "127.0.0.1:7171".to_string(),
            error: std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused"),
        };
        assert!(e.to_string().contains("127.0.0.1:7171"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(CollectorError::BadJournal {
            detail: "torn mid-directory"
        }
        .to_string()
        .contains("bad journal"));
    }
}
