//! Fleet-plane throughput (ISSUE 10): what the distribution layer
//! costs on top of a single daemon — GHSF bundle replication into a
//! node spool, and GHSD record fan-out through the `FleetClient`
//! router — all on loopback, all single-core on a 1-core host.
//!
//! Scoring scenarios:
//!
//! * `engine_direct_512` — in-process `Engine::score_records`, the
//!   no-protocol ceiling (same shape as BENCH_6 for comparability).
//! * `fleet_single_node_512` — a `FleetClient` over ONE daemon: the
//!   router's bookkeeping (health check, chunk plan, ordered concat)
//!   on top of the plain `DaemonClient` lock-step path.
//! * `fleet_x3_1536` — a `FleetClient` over THREE daemons, 1536-record
//!   batches split into three contiguous 512-record chunks. All three
//!   chunks are in flight at once, so a batch costs the slowest node's
//!   round trip rather than the sum; on a 1-core host the nodes still
//!   share one core, so there this measures routing + protocol
//!   overhead, not scale-out. The node timeout bounds every connect,
//!   write and read.
//!
//! Replication scenarios (standalone `FleetNode`, 4 MiB payload):
//!
//! * `replicate_4mib_changed` — full transfer: offer, 16 chunk frames,
//!   checksum verify on commit, atomic rename. Bytes/s is the honest
//!   deploy-speed number.
//! * `replicate_4mib_converged` — same bundle again: offer answered
//!   with `have == total`, commit, no payload bytes. This is the
//!   steady-state cost of one publisher poll per node per tenant.
//!
//! Numbers land in `target/shim-criterion/fleet_scoring.json`,
//! `fleet_scoring_x3.json` and `fleet_replication.json`; the tracked
//! trajectory is `BENCH_7.json` at the repo root. `FLEET_BENCH_QUICK=1`
//! shrinks the training corpus and the replicated bundle for CI smoke.

use std::net::SocketAddr;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ghsom_comms::{FleetNode, FleetNodeConfig, Replicator};
use ghsom_core::GhsomConfig;
use ghsom_daemon::{Daemon, DaemonConfig, FleetClient, FleetEndpoint};
use ghsom_serve::{Engine, EngineConfig};
use traffic::ConnectionRecord;

const BATCH: usize = 512;
const NODES: usize = 3;

fn quick() -> bool {
    std::env::var("FLEET_BENCH_QUICK").is_ok()
}

fn bundle_len() -> usize {
    if quick() {
        1 << 20
    } else {
        4 << 20
    }
}

fn trained_engine(seed: u64) -> (Engine, Vec<ConnectionRecord>) {
    let train_n = if quick() { 800 } else { 4_000 };
    let (train, test) = traffic::synth::kdd_train_test(train_n, 2_048, seed).unwrap();
    let config = EngineConfig::default()
        .with_ghsom(
            GhsomConfig::default()
                .with_tau1(0.5)
                .with_max_depth(2)
                .with_epochs(2, 2)
                .with_seed(seed),
        )
        .with_stream(4.0, 100);
    (
        Engine::fit(&config, &train).unwrap(),
        test.records().to_vec(),
    )
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ghsom_fleet_bench_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_node(spool: &std::path::Path, bundle: &[u8]) -> Daemon {
    std::fs::write(spool.join("prod.bundle"), bundle).unwrap();
    Daemon::start(DaemonConfig::new(spool).with_poll_interval(Duration::from_millis(500))).unwrap()
}

fn bench_fleet_scoring(c: &mut Criterion) {
    let (engine, records) = trained_engine(9);
    let bundle = engine.to_bytes();
    let batch = &records[..BATCH];
    // 1536 records: three full 512-record chunks across three nodes.
    let mut wide = records.clone();
    while wide.len() < NODES * BATCH {
        wide.extend_from_slice(&records);
    }
    let wide = &wide[..NODES * BATCH];

    let spools: Vec<_> = (0..NODES).map(|i| scratch(&format!("node{i}"))).collect();
    let daemons: Vec<_> = spools.iter().map(|s| start_node(s, &bundle)).collect();
    let endpoints: Vec<FleetEndpoint> = daemons
        .iter()
        .map(|d| FleetEndpoint::ingest_only(d.ingest_addr()))
        .collect();

    let mut single = FleetClient::new(endpoints[..1].to_vec()).unwrap();
    let mut fleet = FleetClient::new(endpoints).unwrap();
    // Warm every tenant lane (worker thread, connection, caches).
    single.score("prod", batch).unwrap();
    fleet.score("prod", wide).unwrap();

    let mut group = c.benchmark_group("fleet_scoring");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("engine_direct_512", |b| {
        b.iter(|| engine.score_records(black_box(batch)).unwrap())
    });
    group.bench_function("fleet_single_node_512", |b| {
        b.iter(|| single.score("prod", black_box(batch)).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("fleet_scoring_x3");
    group.throughput(Throughput::Elements((NODES * BATCH) as u64));
    group.bench_function("fleet_x3_1536", |b| {
        b.iter(|| {
            let verdicts = fleet.score("prod", black_box(wide)).unwrap();
            assert_eq!(verdicts.len(), NODES * BATCH);
        })
    });
    group.finish();

    for daemon in daemons {
        daemon.shutdown();
    }
    for s in &spools {
        std::fs::remove_dir_all(s).ok();
    }
}

fn bench_fleet_replication(c: &mut Criterion) {
    let spool = scratch("repl");
    let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut node = FleetNode::start(
        FleetNodeConfig::new(addr, &spool),
        std::sync::Arc::new(|_: &str| None),
        std::sync::Arc::new(|_: &ghsom_comms::NodeEvent| {}),
    )
    .unwrap();
    let node_addr = node.local_addr();

    // Deterministic compressible-but-not-constant payload.
    let len = bundle_len();
    let mut bundle: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
    let mut rep = Replicator::connect(node_addr).unwrap();

    let mut group = c.benchmark_group("fleet_replication");
    group.throughput(Throughput::Bytes(len as u64));
    let mut round: u8 = 0;
    group.bench_function("replicate_4mib_changed", |b| {
        b.iter(|| {
            // Mutate one byte so every iteration is a full transfer.
            round = round.wrapping_add(1);
            bundle[0] = round;
            let report = rep.replicate("prod", black_box(&bundle)).unwrap();
            assert!(!report.already_current);
            assert_eq!(report.bytes_sent, len as u64);
        })
    });
    group.bench_function("replicate_4mib_converged", |b| {
        b.iter(|| {
            let report = rep.replicate("prod", black_box(&bundle)).unwrap();
            assert!(report.already_current);
            assert_eq!(report.bytes_sent, 0);
        })
    });
    group.finish();

    drop(rep);
    node.stop_and_join();
    std::fs::remove_dir_all(&spool).ok();
}

criterion_group!(benches, bench_fleet_scoring, bench_fleet_replication);
criterion_main!(benches);
