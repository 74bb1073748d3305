//! A frame-granularity outcome pin: one `REPORT_BATCH` frame mixes every
//! per-report outcome the engine distinguishes, and crosses the round's
//! quota part-way. Each entry must land exactly where a report-by-report
//! engine would put it, in frame order:
//!
//! * a report is charged against the quota *before* it is validated, so
//!   an invalid report that arrives once the quota is full counts as
//!   `rejected_quota`, not `rejected_invalid`;
//! * an invalid report that arrives while the quota has room is refunded
//!   and counts as `rejected_invalid`;
//! * a duplicate keeps its charge;
//! * an entry that fails to decode never touches the quota and counts as
//!   `rejected_malformed`.
//!
//! The same frame replayed from the journal by a restarted durable daemon
//! must reproduce the same `SUMMARY`.

use ldp_collector::server::frames;
use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorServer, FsyncPolicy, RoundChannel, RoundCounters,
};
use ldp_graph::BitSet;
use ldp_protocols::wire;
use ldp_protocols::{AdjacencyReport, UserReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

const ROUND: u64 = 21;
const POPULATION: usize = 10;
const GROUPS: usize = 2;
const QUOTA: u64 = 6;

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: 2,
        ..CollectorConfig::default()
    }
}

fn vector(user: u64) -> UserReport {
    UserReport::DegreeVector(vec![1.0, user as f64 + 0.5])
}

fn encoded(user: u64, report: &UserReport) -> Vec<u8> {
    let mut entry = Vec::new();
    wire::encode_report(user, report, &mut entry);
    entry
}

/// The frame's entries, in order, with the outcome each must get. The
/// quota of 6 fills at entry 10 (five accepted reports and one
/// duplicate).
fn entries() -> Vec<Vec<u8>> {
    let adjacency = UserReport::Adjacency(AdjacencyReport::new(BitSet::new(POPULATION), 1.0));
    vec![
        // 1: accepted (charge 1).
        encoded(0, &vector(0)),
        // 2: id out of range: invalid, refunded.
        encoded(99, &vector(99)),
        // 3: wrong group count: invalid.
        encoded(1, &UserReport::DegreeVector(vec![1.0])),
        // 4: accepted (charge 2).
        encoded(2, &vector(2)),
        // 5: in-frame duplicate of entry 1 (charge 3).
        encoded(0, &vector(0)),
        // 6: malformed (a varint cut short): the quota is not touched.
        vec![0xff, 0xff, 0xff, 0xff],
        // 7: wrong channel: invalid.
        encoded(3, &adjacency),
        // 8, 9, 10: accepted (charges 4, 5, 6); the quota is now full.
        encoded(3, &vector(3)),
        encoded(4, &vector(4)),
        encoded(5, &vector(5)),
        // 11: over quota.
        encoded(6, &vector(6)),
        // 12: invalid id, but charged before it is validated: over quota.
        encoded(200, &vector(200)),
        // 13: wrong group count, also over quota.
        encoded(7, &UserReport::DegreeVector(vec![1.0; 5])),
        // 14: over quota.
        encoded(6, &vector(6)),
    ]
}

fn expected() -> RoundCounters {
    RoundCounters {
        accepted: 5,
        rejected_duplicate: 1,
        rejected_quota: 4,
        rejected_invalid: 3,
        rejected_malformed: 1,
        finalized_at_close: false,
    }
}

/// The `REPORT_BATCH` frame carrying [`entries`], as raw bytes.
fn batch_frame() -> Vec<u8> {
    let entries = entries();
    let mut payload = Vec::new();
    wire::put_varint(ROUND, &mut payload);
    wire::put_varint(entries.len() as u64, &mut payload);
    for entry in &entries {
        wire::put_varint(entry.len() as u64, &mut payload);
        payload.extend_from_slice(entry);
    }
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, frames::REPORT_BATCH, &payload).expect("frame encodes");
    frame
}

/// Sends the frame on a raw connection, then a `SYNC`, and waits for its
/// `ACK`: every entry is folded once this returns.
fn send_frame(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut out = Vec::new();
    wire::write_stream_header(&mut out).expect("header encodes");
    out.extend_from_slice(&batch_frame());
    wire::write_frame(&mut out, frames::SYNC, &[]).expect("sync encodes");
    stream.write_all(&out).expect("send frame");
    let mut header = [0u8; 6];
    stream.read_exact(&mut header).expect("server header");
    wire::read_stream_header(&mut &header[..]).expect("server speaks the protocol");
    let mut reply = Vec::new();
    let kind = wire::read_frame(&mut stream, &mut reply)
        .expect("reply")
        .expect("not eof");
    assert_eq!(
        kind,
        frames::ACK,
        "the batch frame drew no reply but the ACK"
    );
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-frame-outcomes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn shut_down(
    mut client: CollectorClient,
    handle: std::thread::JoinHandle<Result<(), ldp_collector::CollectorError>>,
) {
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn one_frame_reproduces_every_per_report_outcome() {
    let dir = scratch_dir();
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Off).expect("spawn durable");
    let mut client = CollectorClient::connect(addr).expect("connect");
    client
        .open_round(
            ROUND,
            RoundChannel::DegreeVector {
                population: POPULATION,
                groups: GROUPS,
            },
            Some(QUOTA),
        )
        .expect("open");
    send_frame(addr);
    let live = client.close_round(ROUND).expect("close").counters;
    assert_eq!(live, expected());
    shut_down(client, handle);

    // A restarted daemon replays the journaled frame through the same
    // fold and reports the same summary.
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Off).expect("restart");
    let mut client = CollectorClient::connect(addr).expect("reconnect");
    let replayed = client.close_round(ROUND).expect("re-close").counters;
    assert_eq!(replayed, live);
    shut_down(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
