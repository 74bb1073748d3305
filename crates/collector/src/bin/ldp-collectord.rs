//! `ldp-collectord` — the collection daemon as a standalone process.
//!
//! Exists so crash tests (and operators) can run the durable daemon in
//! its own process and kill it for real: `tests/crash.rs` spawns this
//! binary, SIGKILLs it at randomized ingest points, restarts it on the
//! same data directory, and asserts bit-identical recovery.
//!
//! ```text
//! ldp-collectord --addr 127.0.0.1:0 --data-dir /var/lib/ldp \
//!                [--fsync always|off|every:<bytes>] [--shards N]
//!                [--stall-ms MS]
//! ```
//!
//! Without `--data-dir` the daemon keeps no state on disk, and a
//! `CHECKPOINT` frame is refused with a typed `CHECKPOINT_FAILED`.
//!
//! Prints `ADDR <socket-addr>` on stdout once bound (the harness reads
//! the ephemeral port from it), then serves until a client sends
//! `SHUTDOWN`. The env var `LDP_WAL_KILL_AFTER_BYTES=<n>` arms the
//! journal's torn-write fault hook (read when the journal opens, before
//! startup compaction): the process aborts mid-append once the journal
//! has written `n` bytes — crash-harness only.

use ldp_collector::{CollectorConfig, CollectorError, CollectorServer, FsyncPolicy};
use std::io::Write;
use std::time::Duration;

struct Args {
    addr: String,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    shards: Option<usize>,
    stall_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        data_dir: None,
        fsync: FsyncPolicy::Always,
        shards: None,
        stall_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--fsync" => {
                args.fsync = FsyncPolicy::parse(&value("--fsync")?).map_err(|e| e.to_string())?
            }
            "--shards" => args.shards = Some(integer("--shards", value("--shards")?)?),
            "--stall-ms" => args.stall_ms = Some(integer("--stall-ms", value("--stall-ms")?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

fn run(args: Args) -> Result<(), CollectorError> {
    let mut config = CollectorConfig::default();
    if let Some(shards) = args.shards {
        config.shards = shards;
    }
    let mut server = CollectorServer::bind(args.addr.as_str(), config)?;
    if let Some(ms) = args.stall_ms {
        server = server.with_stall_timeout(Duration::from_millis(ms));
    }
    if let Some(dir) = &args.data_dir {
        server = server.with_data_dir(dir, args.fsync)?;
        if let Some(recovery) = server.recovery() {
            eprintln!(
                "recovered {} round(s), {} journal record(s) replayed",
                recovery.rounds.len(),
                recovery.replayed_records
            );
        }
    }
    let addr = server.local_addr()?;
    // The harness (and any supervisor) reads the bound address from this
    // line; flush so it is visible before the first connection.
    println!("ADDR {addr}");
    let _ = std::io::stdout().flush();
    server.serve()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ldp-collectord: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("ldp-collectord: {e}");
        std::process::exit(1);
    }
}
