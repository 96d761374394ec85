//! Deterministic in-process mini-fleet (ISSUE 10): three daemons, each
//! with its own spool and a GHSF fleet endpoint, fed by a
//! `SpoolPublisher` and routed by a `FleetClient`. The invariants:
//!
//! * **replication-to-swap** — one publisher poll replicates the bundle
//!   into all three node spools (checksum-verified, visible only after
//!   the atomic rename), and every node is serving the tenant within
//!   the watcher's next poll;
//! * **bit-identical fan-out** — verdicts routed across the fleet in
//!   contiguous chunks equal a single reference engine scoring the
//!   whole batch, verdict for verdict;
//! * **typed degradation** — a node killed mid-stream yields
//!   `FleetError::Partial` naming the exact unserved record ranges with
//!   failover off, a full bit-identical result with failover on, and
//!   `AllNodesDown` when nothing is left; observe batches are never
//!   retried and name the node that failed;
//! * **exact baseline reduction** — the fleet-wide `StreamState` merged
//!   from the nodes' GHSF state exports equals, bit for bit,
//!   `StreamState::merge_all` over reference engines fed the same
//!   per-node sub-streams;
//! * **scatter/gather** — stub nodes built from the public codec prove
//!   every chunk is in flight before any answer is sent, and that a
//!   chunk whose primary closes or rejects after the scatter still
//!   fails over (or comes back as an exact `Partial`);
//! * **refusal, not death** — a batch too large for one frame per
//!   chunk is a typed refusal that marks no node down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ghsom_comms::{PublishEvent, SpoolPublisher};
use ghsom_daemon::protocol::{self, BatchRequest, VerdictPayload};
use ghsom_daemon::{
    Daemon, DaemonClient, DaemonConfig, FleetClient, FleetEndpoint, FleetError, FrameHeader,
    RejectCode, Request, Response,
};
use ghsom_serve::publish_bundle;
use ghsom_suite::prelude::*;

const DEPLOY_DEADLINE: Duration = Duration::from_secs(20);

fn small_engine(seed: u64) -> (Engine, Vec<ConnectionRecord>) {
    let (train, test) = traffic::synth::kdd_train_test(400, 512, seed).unwrap();
    let config = EngineConfig::default()
        .with_ghsom(GhsomConfig::default().with_epochs(2, 2).with_seed(seed))
        .with_stream(4.0, 50);
    (
        Engine::fit(&config, &train).unwrap(),
        test.records().to_vec(),
    )
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ghsom_fleet_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_node(spool: &std::path::Path) -> Daemon {
    Daemon::start(
        DaemonConfig::new(spool)
            .with_poll_interval(Duration::from_millis(50))
            .with_fleet_addr("127.0.0.1:0"),
    )
    .unwrap()
}

fn endpoint(daemon: &Daemon) -> FleetEndpoint {
    FleetEndpoint {
        ingest: daemon.ingest_addr(),
        fleet: daemon.fleet_addr(),
    }
}

/// Blocks until the node serves `tenant`, panicking past the deadline.
fn await_serving(ingest: SocketAddr, tenant: &str, probe: &[ConnectionRecord]) {
    let deadline = Instant::now() + DEPLOY_DEADLINE;
    loop {
        let attempt = DaemonClient::connect(ingest).and_then(|mut client| {
            client.set_read_timeout(Some(Duration::from_secs(5)))?;
            client.score(tenant, probe)
        });
        match attempt {
            Ok(_) => return,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "node {ingest} did not serve '{tenant}' before the deadline (last: {e})"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn publisher_replicates_and_fleet_routes_bit_identically() {
    let source = scratch_dir("src");
    let (engine, records) = small_engine(71);
    let bundle = engine.to_bytes();
    publish_bundle(&source, "edge", &bundle).unwrap();

    let spools: Vec<_> = (0..3).map(|i| scratch_dir(&format!("node{i}"))).collect();
    let nodes: Vec<_> = spools.iter().map(|s| start_node(s)).collect();
    let fleet_addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.fleet_addr().unwrap()).collect();

    // -- one publisher poll replicates into all three node spools.
    let mut publisher = SpoolPublisher::new(&source, fleet_addrs);
    let events = publisher.poll_once();
    let synced = events
        .iter()
        .filter(|e| matches!(e, PublishEvent::NodeSynced { .. }))
        .count();
    assert_eq!(synced, 3, "one poll must sync all three nodes: {events:?}");
    assert_eq!(publisher.poll_once().len(), 0, "converged fleet is quiet");

    // -- every node swaps the bundle in within the watcher poll.
    let probe = &records[..1];
    for node in &nodes {
        await_serving(node.ingest_addr(), "edge", probe);
    }

    // -- fleet-routed verdicts are bit-identical to one engine.
    let reference = Engine::from_bytes(&bundle).unwrap();
    let batch = &records[..300]; // 3 chunks of 100 across 3 nodes
    let expected = reference.score_records(batch).unwrap();
    let mut fleet = FleetClient::new(nodes.iter().map(endpoint).collect()).unwrap();
    let verdicts = fleet.score("edge", batch).unwrap();
    assert_eq!(verdicts, expected, "fleet verdicts differ from reference");

    // A sub-chunk batch stays on one node and still matches.
    let small = &records[5..45];
    assert_eq!(
        fleet.score("edge", small).unwrap(),
        reference.score_records(small).unwrap(),
    );

    // -- observe fan-out reconciles exactly: round-robin routes batch i
    // to node i, so feed the same sub-streams to reference engines and
    // compare the merged baselines bit for bit.
    let refs: Vec<_> = (0..3)
        .map(|_| Engine::from_bytes(&bundle).unwrap())
        .collect();
    for (i, reference) in refs.iter().enumerate() {
        let sub = &records[i * 60..(i + 1) * 60];
        let local = reference.observe_records(sub).unwrap();
        let remote = fleet.observe("edge", sub).unwrap();
        assert_eq!(remote.len(), local.len());
        for (j, (r, l)) in remote.iter().zip(&local).enumerate() {
            // Bitwise, not PartialEq: warmup verdicts carry a NaN
            // threshold, and NaN != NaN would fail an identical pair.
            assert!(
                r.score.to_bits() == l.score.to_bits()
                    && r.anomalous == l.anomalous
                    && r.threshold.to_bits() == l.threshold.to_bits(),
                "observe verdict {j} differs on node {i}: remote {r:?} local {l:?}"
            );
        }
    }
    let states: Vec<StreamState> = refs.iter().map(|r| r.stream_state()).collect();
    let expected_state = StreamState::merge_all(&states).unwrap();
    let fleet_state = fleet.fleet_state("edge").unwrap();
    assert_eq!(
        fleet_state.to_wire(),
        expected_state.to_wire(),
        "merged fleet baseline is not bit-identical to the reference reduction"
    );

    for node in nodes {
        node.shutdown();
    }
    std::fs::remove_dir_all(&source).ok();
    for s in &spools {
        std::fs::remove_dir_all(s).ok();
    }
}

#[test]
fn node_failure_is_typed_partial_then_recovers() {
    let (engine, records) = small_engine(72);
    let bundle = engine.to_bytes();
    let reference = Engine::from_bytes(&bundle).unwrap();

    let spool_a = scratch_dir("fail_a");
    let spool_b = scratch_dir("fail_b");
    publish_bundle(&spool_a, "edge", &bundle).unwrap();
    let node_a = start_node(&spool_a);
    let node_b = start_node(&spool_b);
    let addr_b = node_b.ingest_addr();
    let probe = &records[..1];
    await_serving(node_a.ingest_addr(), "edge", probe);

    let endpoints = vec![endpoint(&node_a), endpoint(&node_b)];
    let batch = &records[..256]; // 2 chunks of 128
    let expected = reference.score_records(batch).unwrap();

    // -- rolling deploy: node B has no 'edge' yet. Its reject fails
    // over to A without tarring B as down; with failover off it is a
    // typed partial naming exactly B's chunk.
    let mut fleet = FleetClient::new(endpoints.clone())
        .unwrap()
        .with_backoff(Duration::ZERO);
    assert_eq!(fleet.score("edge", batch).unwrap(), expected);
    assert_eq!(
        fleet.healthy_nodes(),
        2,
        "a tenant reject is not node death"
    );
    let mut rigid = FleetClient::new(endpoints.clone())
        .unwrap()
        .with_backoff(Duration::ZERO)
        .with_failover(false);
    match rigid.score("edge", batch) {
        Err(FleetError::Partial { total, missing, .. }) => {
            assert_eq!(total, 256);
            assert_eq!(missing, vec![(128, 256)]);
        }
        other => panic!("expected Partial for undeployed node, got {other:?}"),
    }

    // -- deploy B, then kill it mid-stream.
    publish_bundle(&spool_b, "edge", &bundle).unwrap();
    await_serving(node_b.ingest_addr(), "edge", probe);
    assert_eq!(rigid.score("edge", batch).unwrap(), expected);
    node_b.shutdown();

    match rigid.score("edge", batch) {
        Err(FleetError::Partial { total, missing, .. }) => {
            assert_eq!(total, 256);
            assert_eq!(missing, vec![(128, 256)]);
        }
        other => panic!("expected Partial after node death, got {other:?}"),
    }

    // -- with failover the surviving node serves the whole batch,
    // still bit-identical.
    let mut fleet = FleetClient::new(endpoints.clone())
        .unwrap()
        .with_backoff(Duration::ZERO);
    assert_eq!(fleet.score("edge", batch).unwrap(), expected);

    // -- observe is single-node and never retried: when round-robin
    // lands on the dead node the error names it instead of silently
    // double-feeding a baseline elsewhere.
    let sub = &records[..40];
    let first = fleet.observe("edge", sub);
    let second = fleet.observe("edge", sub);
    let died_on_b = [first, second]
        .into_iter()
        .filter_map(|r| r.err())
        .map(|e| match e {
            FleetError::Node { node, .. } => node,
            other => panic!("observe failure must be FleetError::Node, got {other:?}"),
        })
        .collect::<Vec<_>>();
    assert_eq!(
        died_on_b,
        vec![addr_b],
        "exactly one round-robin turn hits B"
    );

    // -- nothing left: typed AllNodesDown, not a hang.
    node_a.shutdown();
    let mut fleet = FleetClient::new(endpoints)
        .unwrap()
        .with_backoff(Duration::ZERO);
    match fleet.score("edge", batch) {
        Err(FleetError::AllNodesDown { tenant }) => assert_eq!(tenant, "edge"),
        other => panic!("expected AllNodesDown, got {other:?}"),
    }

    std::fs::remove_dir_all(&spool_a).ok();
    std::fs::remove_dir_all(&spool_b).ok();
}

#[test]
fn oversized_batch_is_refused_without_marking_nodes_down() {
    let (engine, records) = small_engine(73);
    let bundle = engine.to_bytes();
    let reference = Engine::from_bytes(&bundle).unwrap();
    let spools: Vec<_> = (0..2).map(|i| scratch_dir(&format!("big{i}"))).collect();
    for spool in &spools {
        publish_bundle(spool, "edge", &bundle).unwrap();
    }
    let nodes: Vec<_> = spools.iter().map(|s| start_node(s)).collect();
    for node in &nodes {
        await_serving(node.ingest_addr(), "edge", &records[..1]);
    }
    let mut fleet = FleetClient::new(nodes.iter().map(endpoint).collect()).unwrap();

    // Two chunks of 27,400 records: each chunk's frame is ~8.4 MB, above
    // the 8 MiB default cap on both ends.
    let oversized: Vec<ConnectionRecord> =
        records.iter().cycle().take(2 * 27_400).cloned().collect();
    match fleet.score("edge", &oversized) {
        Err(FleetError::FrameTooLarge { declared, max }) => assert!(declared > max),
        other => panic!("expected FrameTooLarge, got {:?}", other.map(|v| v.len())),
    }
    assert_eq!(
        fleet.healthy_nodes(),
        2,
        "a refused batch is not node death"
    );
    match fleet.observe("edge", &oversized) {
        Err(FleetError::FrameTooLarge { declared, max }) => assert!(declared > max),
        other => panic!("expected FrameTooLarge, got {:?}", other.map(|v| v.len())),
    }
    assert_eq!(
        fleet.healthy_nodes(),
        2,
        "a refused observe is not node death"
    );
    let batch = &records[..256];
    assert_eq!(
        fleet.score("edge", batch).unwrap(),
        reference.score_records(batch).unwrap(),
        "the next batch is served bit-identically on the same connections"
    );

    for node in nodes {
        node.shutdown();
    }
    for s in &spools {
        std::fs::remove_dir_all(s).ok();
    }
}

/// How long a stub waits for the other stubs' requests before it
/// answers anyway. A serial router never sends the second chunk while
/// the first is unanswered, so there the wait runs out.
const RENDEZVOUS: Duration = Duration::from_secs(5);

/// What a stub node does with the first batch it receives. Later
/// batches on the connection (failover) are always answered.
#[derive(Debug, Clone, Copy)]
enum Stub {
    /// Answer with the reference engine's verdicts.
    Answer,
    /// Close the connection without answering.
    Close,
    /// Answer with a typed `Overloaded` reject.
    Overloaded,
}

/// Where stub nodes meet: each holds its first request until every
/// stub holds one.
struct Rendezvous {
    held: Mutex<usize>,
    all_held: Condvar,
    nodes: usize,
}

impl Rendezvous {
    /// Books one held request, then waits (bounded by [`RENDEZVOUS`])
    /// for the rest. Returns whether every stub held a request at once.
    fn arrive(&self) -> bool {
        let mut held = self.held.lock().unwrap();
        *held += 1;
        self.all_held.notify_all();
        let (held, _) = self
            .all_held
            .wait_timeout_while(held, RENDEZVOUS, |held| *held < self.nodes)
            .unwrap();
        *held >= self.nodes
    }
}

/// Reads one batch frame, or `None` once the peer has closed.
fn read_batch(stream: &mut TcpStream) -> Option<BatchRequest> {
    let mut header = [0u8; protocol::HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    let header = FrameHeader::decode(&header, protocol::DEFAULT_MAX_FRAME_LEN).unwrap();
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload).unwrap();
    match protocol::decode_request(header.frame_type, &payload).unwrap() {
        Request::Batch(batch) => Some(batch),
        other => panic!("stub expected a batch, got {other:?}"),
    }
}

/// A stub node: accepts one connection and serves its batches until
/// the peer closes, meeting the other stubs at `rendezvous` on the first
/// batch before `first` decides that batch's fate. The thread returns
/// whether that rendezvous held.
fn spawn_stub(
    first: Stub,
    engine: Arc<Engine>,
    rendezvous: Arc<Rendezvous>,
) -> (SocketAddr, JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut together = None;
        let mut action = first;
        while let Some(batch) = read_batch(&mut stream) {
            let met = *together.get_or_insert_with(|| rendezvous.arrive());
            let response = match action {
                Stub::Close => return met,
                Stub::Overloaded => Response::Reject(protocol::Reject {
                    req_id: batch.req_id,
                    code: RejectCode::Overloaded,
                    detail: "stub overloaded".to_string(),
                }),
                Stub::Answer => Response::Verdicts {
                    req_id: batch.req_id,
                    verdicts: VerdictPayload::Hybrid(engine.score_records(&batch.records).unwrap()),
                },
            };
            stream
                .write_all(&protocol::encode_response(&response).unwrap())
                .unwrap();
            action = Stub::Answer;
        }
        together.unwrap_or(false)
    });
    (addr, stub)
}

/// Two stub nodes whose first batches meet `first[i]`; returns their
/// addresses and threads.
fn stub_pair(first: [Stub; 2], engine: &Arc<Engine>) -> (Vec<SocketAddr>, Vec<JoinHandle<bool>>) {
    let rendezvous = Arc::new(Rendezvous {
        held: Mutex::new(0),
        all_held: Condvar::new(),
        nodes: first.len(),
    });
    first
        .into_iter()
        .map(|stub| spawn_stub(stub, Arc::clone(engine), Arc::clone(&rendezvous)))
        .unzip()
}

/// Joins the stubs once the router is gone and returns whether each
/// held its first request together with the other. A stub that never
/// got a connection is woken by a throwaway one, so this cannot hang.
fn join_stubs(addrs: &[SocketAddr], stubs: Vec<JoinHandle<bool>>) -> Vec<bool> {
    for addr in addrs {
        let _ = TcpStream::connect(addr);
    }
    stubs.into_iter().map(|s| s.join().unwrap()).collect()
}

#[test]
fn fleet_chunks_are_all_in_flight_before_any_answer() {
    let (engine, records) = small_engine(74);
    let engine = Arc::new(engine);
    let batch = &records[..512]; // 2 chunks of 256 across 2 stubs
    let (addrs, stubs) = stub_pair([Stub::Answer, Stub::Answer], &engine);

    let mut fleet = FleetClient::over_ingest(addrs.clone()).unwrap();
    let verdicts = fleet.score("edge", batch).unwrap();
    drop(fleet);

    assert_eq!(
        join_stubs(&addrs, stubs),
        vec![true, true],
        "both chunks must reach their nodes before either is answered"
    );
    assert_eq!(verdicts, engine.score_records(batch).unwrap());
}

#[test]
fn gather_failures_fail_over_or_come_back_partial() {
    struct Case {
        name: &'static str,
        first: Stub,
        failover: bool,
        /// `true`: the whole batch is served; `false`: chunk 0 is missing.
        served: bool,
        healthy_after: usize,
    }
    let cases = [
        Case {
            name: "primary closes, failover on",
            first: Stub::Close,
            failover: true,
            served: true,
            healthy_after: 1,
        },
        Case {
            name: "primary closes, failover off",
            first: Stub::Close,
            failover: false,
            served: false,
            healthy_after: 1,
        },
        Case {
            name: "primary overloaded, failover on",
            first: Stub::Overloaded,
            failover: true,
            served: true,
            healthy_after: 2,
        },
    ];

    let (engine, records) = small_engine(75);
    let engine = Arc::new(engine);
    let batch = &records[..512]; // chunk 0 = records 0..256 on the first stub
    let expected = engine.score_records(batch).unwrap();
    for case in cases {
        let (addrs, stubs) = stub_pair([case.first, Stub::Answer], &engine);
        let mut fleet = FleetClient::over_ingest(addrs.clone())
            .unwrap()
            .with_backoff(Duration::from_secs(600))
            .with_failover(case.failover);
        let result = fleet.score("edge", batch);
        let healthy = fleet.healthy_nodes();
        drop(fleet);
        let held = join_stubs(&addrs, stubs);

        let name = case.name;
        assert_eq!(held, vec![true, true], "{name}: not a scatter");
        assert_eq!(healthy, case.healthy_after, "{name}: wrong down-marking");
        match result {
            Ok(verdicts) if case.served => assert!(verdicts == expected, "{name}: verdicts differ"),
            Err(FleetError::Partial { total, missing, .. }) if !case.served => {
                assert_eq!((total, missing), (512, vec![(0, 256)]), "{name}");
            }
            other => panic!("{name}: unexpected outcome {:?}", other.map(|v| v.len())),
        }
    }
}
