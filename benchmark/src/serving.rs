//! The serving workloads and the per-layer ladder shared with
//! `deploy_retrain`.
//!
//! * `fleet_score_deep` — a `FleetClient` over two daemons serving the
//!   deep fixture; 512-record score batches (two 256-record chunks), one
//!   batch outstanding. Walk-dominated: kernel and walk work, and the
//!   synchronous router, show here.
//! * `edge_observe_small` — one `DaemonClient` streaming 64-record observe
//!   batches to one daemon serving the edge fixture, eight in flight. The
//!   walk is cheap; framing, lane hand-off, transform and the sequential
//!   threshold fold dominate.
//!
//! An untraced run measures the closed loop. A traced run alternates the
//! untraced loop, the loop with a span per batch (tracing overhead) and
//! the ladder: each repetition serves one batch through the daemon and
//! times the same batch through every layer below it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use detect::prelude::{Detector, HybridGhsomDetector, HybridVerdict, StreamingDetector};
use featurize::FeatureMatrix;
use ghsom_comms::{FleetNode, FleetNodeConfig, NodeEvent, Replicator};
use ghsom_daemon::protocol::{
    self, BatchMode, BatchRequest, FrameHeader, FrameType, Request, Response, VerdictPayload,
    DEFAULT_MAX_FRAME_LEN, HEADER_LEN,
};
use ghsom_daemon::{DaemonClient, DaemonError, FleetClient};
use ghsom_serve::{CompiledGhsom, Engine};
use traffic::ConnectionRecord;

use crate::fixture::{self, Fixture, Tally, Topology, FIXTURE_SEED, POLL_INTERVAL, TENANT};
use crate::trace::{median, quantile, quiet_median, Tracer};
use crate::{Outcome, Res, Run};

const FLEET_NODES: usize = 2;
const FLEET_BATCH: usize = 512;
/// How `FleetClient` splits a 512-record batch over two nodes.
const FLEET_CHUNK: usize = 256;
const EDGE_BATCH: usize = 64;
const EDGE_WINDOW: usize = 8;
/// Daemon bring-ups per run (see [`fixture::bring_up`]).
pub const SETUP_REPS: usize = 9;
/// Batches served before timing starts.
const WARMUP_BATCHES: usize = 32;
/// Wall-clock budget of the ladder (it always runs at least
/// [`LADDER_MIN_REPS`] repetitions).
const LADDER_SECONDS: f64 = 2.0;
const LADDER_MIN_REPS: usize = 32;
/// A traced run alternates untraced loop, traced loop and ladder in this
/// many slices, so all three see the same phases of host load.
const TRACE_SLICES: usize = 8;
/// Repetitions of the one-off layer measurements (snapshot, replication,
/// swap).
const AUX_REPS: usize = 5;
/// Socket read timeout of every client: a wedged daemon fails the run
/// instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Whether ladder slice `slice` (of [`TRACE_SLICES`]) has run its share of
/// the repetitions and of the time budget; `rep` counts every repetition
/// so far.
fn ladder_slice_done(started: Instant, rep: usize, slice: usize) -> bool {
    rep >= LADDER_MIN_REPS * (slice + 1) / TRACE_SLICES
        && started.elapsed().as_secs_f64() >= LADDER_SECONDS / TRACE_SLICES as f64
}

type StreamingHybrid = StreamingDetector<HybridGhsomDetector<CompiledGhsom>>;

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Batches(usize),
}

impl Limit {
    fn reached(self, started: Instant, batches: usize) -> bool {
        match self {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Limit::Batches(n) => batches >= n,
        }
    }
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Per answered batch: seconds since the loop started when the
    /// answer arrived, its latency (ns), and its verified records.
    pub samples: Vec<(f64, f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub records: u64,
    pub elapsed_s: f64,
    pub tally: Tally,
}

/// Time windows a timed serving loop is cut into.
pub const WINDOWS: usize = 50;

/// Share of a loop's windows — those that answered the most records —
/// that its figures come from. The host the bounds were set on is shared
/// and slows by up to 2× for seconds at a time; the quietest fifth of a
/// run measures the code rather than its neighbours.
const QUIET_SHARE: f64 = 0.2;

impl LoopStats {
    fn push(&mut self, started: Instant, latency_ns: f64, records: u64) {
        self.samples
            .push((started.elapsed().as_secs_f64(), latency_ns, records));
    }

    /// Appends another loop's batches after this one's (for loops that
    /// run one after another, like the post-deploy ones).
    pub fn absorb(&mut self, other: &LoopStats) {
        let offset = self.elapsed_s;
        self.samples
            .extend(other.samples.iter().map(|&(t, l, r)| (t + offset, l, r)));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
        self.elapsed_s += other.elapsed_s;
        self.tally.attacks += other.tally.attacks;
        self.tally.attacks_flagged += other.tally.attacks_flagged;
        self.tally.normals += other.tally.normals;
        self.tally.normals_flagged += other.tally.normals_flagged;
    }

    pub fn latencies_ns(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    pub fn p50_ns(&self) -> f64 {
        median(&self.latencies_ns())
    }

    /// Batches answered in each of `n` equal time windows.
    fn windows(&self, n: usize) -> Vec<Vec<(f64, f64, u64)>> {
        let width = self.elapsed_s / n as f64;
        let mut out = vec![Vec::new(); n];
        for &s in &self.samples {
            let w = ((s.0 / width) as usize).min(n - 1);
            out[w].push(s);
        }
        out
    }

    /// The end-to-end metrics a loop yields. The loop is cut into
    /// `windows` equal time windows; records per second, batch p50 and
    /// batch p99 come from the [`QUIET_SHARE`] of them that answered the
    /// most records (one window: the whole loop).
    pub fn report(&self, out: &mut Outcome, windows: usize) {
        let width = self.elapsed_s / windows as f64;
        let mut by_window = self.windows(windows);
        by_window.sort_by_key(|w| std::cmp::Reverse(w.iter().map(|s| s.2).sum::<u64>()));
        let keep = ((windows as f64 * QUIET_SHARE).ceil() as usize).clamp(1, windows);
        let quiet: Vec<(f64, f64, u64)> = by_window[..keep].iter().flatten().copied().collect();
        let records: u64 = quiet.iter().map(|s| s.2).sum();
        let latencies: Vec<f64> = quiet.iter().map(|s| s.1).collect();
        out.set("records_per_s", records as f64 / (keep as f64 * width));
        out.set("batch_p50_ms", median(&latencies) / 1e6);
        out.set("batch_p99_ms", quantile(&latencies, 0.99) / 1e6);
        out.set("detection_rate", self.tally.detection_rate());
        out.set("false_alarm_rate", self.tally.false_alarm_rate());
        let all = self.latencies_ns();
        println!(
            "# loop: {} batches, {} records in {:.2} s ({:.0} rec/s, p50 {:.4} ms, p99 {:.4} ms); quietest {keep} of {windows} windows: {} batches, {:.0} rec/s, p50 {:.4} ms, p99 {:.4} ms",
            self.attempted,
            self.records,
            self.elapsed_s,
            self.records as f64 / self.elapsed_s,
            median(&all) / 1e6,
            quantile(&all, 0.99) / 1e6,
            latencies.len(),
            records as f64 / (keep as f64 * width),
            median(&latencies) / 1e6,
            quantile(&latencies, 0.99) / 1e6,
        );
    }
}

/// Lock-step score loop: one batch outstanding, each answer checked
/// against the reference fingerprint of its batch. With an enabled
/// tracer every batch is a `loop.batch` span.
pub fn score_loop(
    limit: Limit,
    batches: &[&[ConnectionRecord]],
    expected: &[u64],
    next: &mut usize,
    tracer: &mut Tracer,
    mut call: impl FnMut(&[ConnectionRecord]) -> Result<Vec<HybridVerdict>, String>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let started = Instant::now();
    while !limit.reached(started, stats.attempted as usize) {
        let j = *next % batches.len();
        *next += 1;
        let batch = batches[j];
        let t0 = Instant::now();
        let (_, result) = tracer.span("loop.batch", None, batch.len(), || call(batch));
        let latency = t0.elapsed().as_nanos() as f64;
        stats.attempted += 1;
        match result {
            Ok(v) if fixture::hybrid_fingerprint(&v) == expected[j] => {
                stats.push(started, latency, batch.len() as u64);
                stats.records += batch.len() as u64;
                stats.tally.add(batch, v.iter().map(|v| v.anomalous));
            }
            _ => {
                stats.push(started, latency, 0);
                stats.failed += 1;
            }
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    stats
}

/// Pool facts every workload prints: attack share, share of attack types
/// that never occur in training, batch shape.
pub fn traffic_facts(workload: &str, pool: &[ConnectionRecord], batching: &str) {
    let n = pool.len().max(1) as f64;
    let attacks = pool.iter().filter(|r| r.is_attack()).count() as f64;
    let unseen = pool.iter().filter(|r| r.label.is_test_only()).count() as f64;
    println!(
        "# traffic {workload}: {} records (KDD corrected-test mix), attack share {:.4}, test-only attack types {:.4}, {batching}",
        pool.len(),
        attacks / n,
        unseen / n
    );
}

/// A fitted fixture, its bundle, and the reference engine every served
/// verdict is checked against.
pub struct Served {
    pub bundle: Vec<u8>,
    pub reference: Engine,
    /// Seconds from training set to bundle bytes (the quiet median over
    /// the fits).
    pub fit_s: f64,
}

/// Fits `fixture` on its pinned training set (`fits` times; the median of
/// the quickest third counts), encodes it, and builds the reference
/// engine from the same bytes — or, for the self-test, from a fixture
/// trained on another seed.
pub fn prepare(
    fixture: Fixture,
    run: &Run,
    fits: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<Served> {
    let train = fixture.training_set(FIXTURE_SEED)?;
    let config = fixture.config(FIXTURE_SEED);
    let mut times = Vec::with_capacity(fits);
    let mut fitted = None;
    for _ in 0..fits.max(1) {
        let started = Instant::now();
        let engine = if tracer.enabled() {
            fixture::fit_traced(&config, &train, tracer, None)?
        } else {
            Engine::fit(&config, &train)?
        };
        let (_, bytes) = tracer.span("serve.snapshot.encode", None, 0, || engine.to_bytes());
        times.push(started.elapsed().as_secs_f64());
        fitted = Some((engine, bytes));
    }
    let (engine, bundle) = fitted.ok_or("no fit ran")?;
    let reference = if run.wrong_reference {
        let other = fixture.training_set(FIXTURE_SEED + 1)?;
        Engine::fit(&fixture.config(FIXTURE_SEED + 1), &other)?
    } else {
        Engine::from_bytes(&bundle)?
    };
    let (maps, units, depth) = fixture::shape(&engine);
    println!(
        "# fixture {}: {} training records (seed {FIXTURE_SEED}), {maps} maps, {units} units, depth {depth}, bundle {} bytes, fit+encode {:.3} s",
        fixture.name(),
        train.len(),
        bundle.len(),
        quiet_median(&times)
    );
    out.set("core.maps", maps as f64);
    out.set("core.units", units as f64);
    out.set("core.depth", depth as f64);
    out.set("serve.snapshot.bytes", bundle.len() as f64);
    Ok(Served {
        bundle,
        reference,
        fit_s: quiet_median(&times),
    })
}

/// Reference fingerprints of every score batch.
pub fn score_fingerprints(reference: &Engine, batches: &[&[ConnectionRecord]]) -> Res<Vec<u64>> {
    batches
        .iter()
        .map(|b| Ok(fixture::hybrid_fingerprint(&reference.score_records(b)?)))
        .collect()
}

/// A client whose reads time out after [`CLIENT_TIMEOUT`].
pub fn connect(addr: std::net::SocketAddr) -> Res<DaemonClient> {
    let mut client = DaemonClient::connect(addr)?;
    client.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(client)
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from("bench-out").join(format!("spans-{workload}-seed{seed}.jsonl"))
}

// ---------------------------------------------------------------------------
// fleet_score_deep
// ---------------------------------------------------------------------------

pub fn fleet_score_deep(run: &Run) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let pool = fixture::test_pool(run.seed, run.pool_records)?;
    let batches: Vec<&[ConnectionRecord]> = pool.records().chunks_exact(FLEET_BATCH).collect();
    traffic_facts(
        "fleet_score_deep",
        pool.records(),
        &format!(
            "{FLEET_BATCH}-record score batches as {FLEET_NODES} chunks of {FLEET_CHUNK}, window 1"
        ),
    );
    // Two fits: `deploy_p50_s` counts the quicker, as one slowed by other
    // work on the host says nothing about the code.
    let fits = if run.trace { 1 } else { 2 };
    let served = prepare(Fixture::Deep, run, fits, &mut tracer, &mut out)?;
    let expected = score_fingerprints(&served.reference, &batches)?;
    let (topology, setup_s, probe_mismatches) = fixture::bring_up(
        &run.dir,
        SETUP_REPS,
        FLEET_NODES,
        &served.bundle,
        false,
        batches[0],
        expected[0],
    )?;
    if probe_mismatches > 0 {
        out.problem(format!(
            "{probe_mismatches} setup probes differed from the reference"
        ));
    }
    out.set("setup_s", setup_s);
    out.set("deploy_p50_s", served.fit_s + setup_s);
    println!("# setup fleet_score_deep: {FLEET_NODES} daemons, spool poll {POLL_INTERVAL:?}, setup {setup_s:.4} s (quickest third of {SETUP_REPS} bring-ups)");

    let mut fleet = FleetClient::over_ingest(topology.ingest_addrs())?;
    let mut next = 0;
    let mut untraced = Tracer::new(false);
    let warm = score_loop(
        Limit::Batches(WARMUP_BATCHES),
        &batches,
        &expected,
        &mut next,
        &mut untraced,
        |b| fleet.score(TENANT, b).map_err(|e| e.to_string()),
    );
    if warm.failed > 0 {
        out.problem(format!("{} warmup batches failed", warm.failed));
    }
    if !run.trace {
        let stats = score_loop(
            Limit::Seconds(run.seconds),
            &batches,
            &expected,
            &mut next,
            &mut untraced,
            |b| fleet.score(TENANT, b).map_err(|e| e.to_string()),
        );
        out.attempted += stats.attempted;
        out.failed += stats.failed;
        stats.report(&mut out, WINDOWS);
    } else {
        let addrs = topology.ingest_addrs();
        let mut direct = vec![connect(addrs[0])?, connect(addrs[1])?];
        let mut ladder = Ladder::new(&served.reference, &served.bundle, Fixture::Deep)?;
        let (mut stats, mut traced) = (LoopStats::default(), LoopStats::default());
        let mut rep = 0;
        for slice in 0..TRACE_SLICES {
            let seconds = run.seconds / (2 * TRACE_SLICES) as f64;
            stats.absorb(&score_loop(
                Limit::Seconds(seconds),
                &batches,
                &expected,
                &mut next,
                &mut untraced,
                |b| fleet.score(TENANT, b).map_err(|e| e.to_string()),
            ));
            traced.absorb(&score_loop(
                Limit::Seconds(seconds),
                &batches,
                &expected,
                &mut next,
                &mut tracer,
                |b| fleet.score(TENANT, b).map_err(|e| e.to_string()),
            ));
            let started = Instant::now();
            while !ladder_slice_done(started, rep, slice) {
                let j = rep % batches.len();
                rep += 1;
                let b = batches[j];
                let (root, res) =
                    tracer.warm_span("fleet.score", None, b.len(), || fleet.score(TENANT, b));
                ladder.check(fixture::hybrid_fingerprint(&res?) == expected[j]);
                for (k, chunk) in b.chunks(FLEET_CHUNK).enumerate() {
                    ladder.score_roundtrip(&mut tracer, Some(root), &mut direct[k], chunk)?;
                }
                ladder.fold(&mut tracer, b)?;
                ladder.observe_scratch(&mut tracer, b)?;
                ladder.router(&mut tracer, &mut fleet, &mut direct, b, FLEET_CHUNK)?;
                let (c0, c1) = direct.split_at_mut(1);
                ladder.concurrent(&mut tracer, &mut c0[0], &mut c1[0], b, FLEET_CHUNK)?;
            }
        }
        out.attempted += stats.attempted + traced.attempted;
        out.failed += stats.failed + traced.failed;
        ladder.finish(&mut out);
        aux_layers(run, &mut tracer, &served, &topology, &mut out)?;
        layer_metrics(
            &tracer,
            &mut out,
            &LayerSpec {
                root: "fleet.score",
                engine: "serve.engine.score",
                records: FLEET_BATCH,
                untraced_p50_ns: stats.p50_ns(),
                traced_p50_ns: traced.p50_ns(),
            },
        );
        queue_metrics(&topology, &mut out);
        tracer.write(&spans_path("fleet_score_deep", run.seed))?;
    }
    drop(fleet);
    topology.shutdown();
    Ok(out)
}

// ---------------------------------------------------------------------------
// edge_observe_small
// ---------------------------------------------------------------------------

/// One observe batch sent on the pipelined connection, in send order.
struct Sent {
    batch: usize,
    /// Counted in the run's attempted batches (warmup is not).
    timed: bool,
    /// Fingerprint of the served verdicts; `None` when refused.
    fingerprint: Option<u64>,
}

/// Pipelined observe loop: keeps `window` batches in flight on one
/// connection. Verdict checks happen afterwards, in send order, against a
/// reference engine that observes the same batches.
fn observe_loop(
    client: &mut DaemonClient,
    limit: Limit,
    batches: &[&[ConnectionRecord]],
    next: &mut usize,
    timed: bool,
    sent: &mut Vec<Sent>,
    tracer: &mut Tracer,
) -> Res<LoopStats> {
    let mut stats = LoopStats::default();
    let mut in_flight: VecDeque<(u64, usize, Instant, usize)> =
        VecDeque::with_capacity(EDGE_WINDOW);
    let started = Instant::now();
    let mut issued = 0;
    loop {
        while in_flight.len() < EDGE_WINDOW && !limit.reached(started, issued) {
            let j = *next % batches.len();
            *next += 1;
            issued += 1;
            let span = tracer.begin("loop.batch", None, batches[j].len());
            let t0 = Instant::now();
            let req_id = client.send_observe_batch(TENANT, batches[j])?;
            sent.push(Sent {
                batch: j,
                timed,
                fingerprint: None,
            });
            in_flight.push_back((req_id, sent.len() - 1, t0, span));
        }
        if in_flight.is_empty() {
            break;
        }
        let (answered, verdicts) = match client.recv_response()? {
            Response::Verdicts {
                req_id,
                verdicts: VerdictPayload::Stream(v),
            } => (req_id, Some(v)),
            Response::Reject(reject) => (reject.req_id, None),
            other => return Err(format!("unexpected response {other:?}").into()),
        };
        let k = in_flight
            .iter()
            .position(|(id, ..)| *id == answered)
            .ok_or("response for a batch that is not in flight")?;
        let (_, pos, t0, span) = in_flight.remove(k).ok_or("in-flight entry vanished")?;
        tracer.end(span);
        let latency = t0.elapsed().as_nanos() as f64;
        stats.attempted += 1;
        match verdicts {
            Some(v) => {
                let batch = batches[sent[pos].batch];
                sent[pos].fingerprint = Some(fixture::stream_fingerprint(&v));
                stats.push(started, latency, batch.len() as u64);
                stats.records += batch.len() as u64;
                stats.tally.add(batch, v.iter().map(|v| v.anomalous));
            }
            None => stats.push(started, latency, 0),
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    Ok(stats)
}

/// Replays every sent batch through the reference engine in send order
/// and returns how many timed batches failed (refused or different);
/// untimed mismatches become problems.
fn verify_observes(
    reference: &Engine,
    batches: &[&[ConnectionRecord]],
    sent: &[Sent],
    out: &mut Outcome,
) -> Res<u64> {
    let mut failed = 0;
    let mut untimed = 0;
    for s in sent {
        let ok = match s.fingerprint {
            Some(fp) => {
                fixture::stream_fingerprint(&reference.observe_records(batches[s.batch])?) == fp
            }
            None => false,
        };
        if !ok {
            if s.timed {
                failed += 1;
            } else {
                untimed += 1;
            }
        }
    }
    if untimed > 0 {
        out.problem(format!(
            "{untimed} warmup observe batches differed from the reference"
        ));
    }
    Ok(failed)
}

pub fn edge_observe_small(run: &Run) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let pool = fixture::test_pool(run.seed, run.pool_records)?;
    let batches: Vec<&[ConnectionRecord]> = pool.records().chunks_exact(EDGE_BATCH).collect();
    traffic_facts(
        "edge_observe_small",
        pool.records(),
        &format!("{EDGE_BATCH}-record observe batches, window {EDGE_WINDOW}"),
    );
    // The edge fixture fits in tens of milliseconds: `deploy_p50_s` takes
    // the quiet median of several fits.
    let fits = if run.trace { 1 } else { 15 };
    let served = prepare(Fixture::Edge, run, fits, &mut tracer, &mut out)?;
    let probe = fixture::hybrid_fingerprint(&served.reference.score_records(batches[0])?);
    let (topology, setup_s, probe_mismatches) = fixture::bring_up(
        &run.dir,
        SETUP_REPS,
        1,
        &served.bundle,
        false,
        batches[0],
        probe,
    )?;
    if probe_mismatches > 0 {
        out.problem(format!(
            "{probe_mismatches} setup probes differed from the reference"
        ));
    }
    out.set("setup_s", setup_s);
    out.set("deploy_p50_s", served.fit_s + setup_s);
    println!("# setup edge_observe_small: 1 daemon, spool poll {POLL_INTERVAL:?}, setup {setup_s:.4} s (quickest third of {SETUP_REPS} bring-ups)");

    let addr = topology.ingest_addrs()[0];
    let mut client = connect(addr)?;
    let mut next = 0;
    let mut sent = Vec::new();
    let mut untraced = Tracer::new(false);
    observe_loop(
        &mut client,
        Limit::Batches(WARMUP_BATCHES),
        &batches,
        &mut next,
        false,
        &mut sent,
        &mut untraced,
    )?;
    if !run.trace {
        let mut stats = observe_loop(
            &mut client,
            Limit::Seconds(run.seconds),
            &batches,
            &mut next,
            true,
            &mut sent,
            &mut untraced,
        )?;
        // The reference observes exactly what the daemon observed, warmup
        // included, so its adaptive threshold tracks the daemon's.
        stats.failed = verify_observes(&served.reference, &batches, &sent, &mut out)?;
        out.attempted += stats.attempted;
        out.failed += stats.failed;
        stats.report(&mut out, WINDOWS);
    } else {
        let mut client2 = connect(addr)?;
        let mut fleet = FleetClient::over_ingest(vec![addr])?;
        let mut ladder = Ladder::new(&served.reference, &served.bundle, Fixture::Edge)?;
        let (mut stats, mut traced) = (LoopStats::default(), LoopStats::default());
        let mut verified = 0;
        let mut rep = 0;
        for slice in 0..TRACE_SLICES {
            let seconds = run.seconds / (2 * TRACE_SLICES) as f64;
            stats.absorb(&observe_loop(
                &mut client,
                Limit::Seconds(seconds),
                &batches,
                &mut next,
                true,
                &mut sent,
                &mut untraced,
            )?);
            traced.absorb(&observe_loop(
                &mut client,
                Limit::Seconds(seconds),
                &batches,
                &mut next,
                true,
                &mut sent,
                &mut tracer,
            )?);
            // Bring the reference level with the daemon before the ladder
            // observes through both.
            out.failed +=
                verify_observes(&served.reference, &batches, &sent[verified..], &mut out)?;
            verified = sent.len();
            let started = Instant::now();
            while !ladder_slice_done(started, rep, slice) {
                let b = batches[rep % batches.len()];
                rep += 1;
                ladder.observe_roundtrip(&mut tracer, &mut client, b)?;
                ladder.verdict(&mut tracer, b)?;
                ladder.score_engine(&mut tracer, b)?;
                ladder.router(
                    &mut tracer,
                    &mut fleet,
                    std::slice::from_mut(&mut client),
                    b,
                    b.len(),
                )?;
                ladder.concurrent(&mut tracer, &mut client, &mut client2, b, b.len() / 2)?;
            }
        }
        out.attempted += stats.attempted + traced.attempted;
        ladder.finish(&mut out);
        aux_layers(run, &mut tracer, &served, &topology, &mut out)?;
        layer_metrics(
            &tracer,
            &mut out,
            &LayerSpec {
                root: "daemon.roundtrip",
                engine: "serve.engine.observe",
                records: EDGE_BATCH,
                untraced_p50_ns: stats.p50_ns(),
                traced_p50_ns: traced.p50_ns(),
            },
        );
        queue_metrics(&topology, &mut out);
        tracer.write(&spans_path("edge_observe_small", run.seed))?;
    }
    drop(client);
    topology.shutdown();
    Ok(out)
}

// ---------------------------------------------------------------------------
// the ladder
// ---------------------------------------------------------------------------

/// Times one served batch through every layer below the daemon, on the
/// reference engine (which also checks the daemon's verdicts), plus the
/// layer calls the workload's own path does not make.
pub struct Ladder<'a> {
    reference: &'a Engine,
    /// A second engine from the same bundle for observe timings that must
    /// not disturb the reference's adaptive state.
    scratch: Engine,
    /// A streaming wrapper around the reference detector for timing the
    /// threshold fold alone.
    fold: StreamingHybrid,
    features: FeatureMatrix,
    mismatches: usize,
}

impl<'a> Ladder<'a> {
    /// A ladder over `reference`, serving `fixture`'s configuration from
    /// `bundle`.
    pub fn new(reference: &'a Engine, bundle: &[u8], fixture: Fixture) -> Res<Self> {
        let config = fixture.config(FIXTURE_SEED);
        Ok(Ladder {
            reference,
            scratch: Engine::from_bytes(bundle)?,
            fold: StreamingDetector::new(
                reference.detector().clone(),
                config.k_sigma,
                config.warmup,
            ),
            features: FeatureMatrix::new(),
            mismatches: 0,
        })
    }

    pub fn check(&mut self, matched: bool) {
        self.mismatches += usize::from(!matched);
    }

    pub fn finish(&self, out: &mut Outcome) {
        if self.mismatches > 0 {
            out.problem(format!(
                "{} ladder batches differed from the reference",
                self.mismatches
            ));
        }
    }

    /// Transform `batch` into the reused feature matrix as a span.
    fn transform(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        batch: &[ConnectionRecord],
    ) -> Res<()> {
        let (pipeline, features) = (self.reference.pipeline(), &mut self.features);
        let (_, r) = tracer.warm_span(
            "featurize.transform_batch",
            Some(parent),
            batch.len(),
            || pipeline.transform_batch(batch, features),
        );
        Ok(r?)
    }

    /// The arena walk over the transformed batch, as a span.
    fn walk(&self, tracer: &mut Tracer, parent: Option<usize>) -> Res<()> {
        let view = self.features.as_view();
        let (_, r) = tracer.warm_span("serve.walk", parent, view.rows(), || {
            self.reference.compiled().score_all_view(view)
        });
        black_box(r?);
        Ok(())
    }

    /// A lock-step score round trip of `chunk` under `parent`, then the
    /// same chunk through the protocol codec, `Engine::score_records`,
    /// the transform, the verdict layer and the walk.
    pub fn score_roundtrip(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<usize>,
        client: &mut DaemonClient,
        chunk: &[ConnectionRecord],
    ) -> Res<()> {
        let n = chunk.len();
        let (rt, served) = tracer.warm_span("daemon.roundtrip", parent, n, || {
            client.score(TENANT, chunk)
        });
        let reference = self.reference;
        let (eng, verdicts) = tracer.warm_span("serve.engine.score", Some(rt), n, || {
            reference.score_records(chunk)
        });
        let verdicts = verdicts?;
        self.check(fixture::hybrid_fingerprint(&served?) == fixture::hybrid_fingerprint(&verdicts));
        codec(
            tracer,
            rt,
            BatchMode::Score,
            chunk,
            VerdictPayload::Hybrid(verdicts),
        )?;
        self.transform(tracer, eng, chunk)?;
        let view = self.features.as_view();
        let (det, r) = tracer.warm_span("detect.verdict", Some(eng), n, || {
            reference.detector().verdicts_all_view(view)
        });
        black_box(r?);
        self.walk(tracer, Some(det))
    }

    /// A lock-step observe round trip, then the same batch through the
    /// codec and the reference engine's `observe_records` (which keeps it
    /// in step with the daemon), the transform, the detector's score and
    /// flag pass, the walk and the threshold fold.
    pub fn observe_roundtrip(
        &mut self,
        tracer: &mut Tracer,
        client: &mut DaemonClient,
        batch: &[ConnectionRecord],
    ) -> Res<()> {
        let n = batch.len();
        let (rt, served) = tracer.warm_span("daemon.roundtrip", None, n, || {
            client.observe(TENANT, batch)
        });
        let reference = self.reference;
        let (eng, verdicts) = tracer.warm_span("serve.engine.observe", Some(rt), n, || {
            reference.observe_records(batch)
        });
        let verdicts = verdicts?;
        self.check(fixture::stream_fingerprint(&served?) == fixture::stream_fingerprint(&verdicts));
        codec(
            tracer,
            rt,
            BatchMode::Observe,
            batch,
            VerdictPayload::Stream(verdicts),
        )?;
        self.transform(tracer, eng, batch)?;
        let view = self.features.as_view();
        let (saf, pairs) = tracer.warm_span("detect.score_and_flag", Some(eng), n, || {
            reference.detector().score_and_flag_all_view(view)
        });
        let (scores, flags) = pairs?;
        self.walk(tracer, Some(saf))?;
        let fold = &self.fold;
        let (_, v) = tracer.warm_span("detect.fold", Some(eng), n, || {
            fold.observe_prescored(scores.iter().copied().zip(flags.iter().copied()))
        });
        black_box(v);
        Ok(())
    }

    /// The verdict layer alone (for workloads whose tree has none).
    pub fn verdict(&mut self, tracer: &mut Tracer, batch: &[ConnectionRecord]) -> Res<()> {
        self.reference
            .pipeline()
            .transform_batch(batch, &mut self.features)?;
        let view = self.features.as_view();
        let reference = self.reference;
        let (_, r) = tracer.warm_span("detect.verdict", None, batch.len(), || {
            reference.detector().verdicts_all_view(view)
        });
        black_box(r?);
        Ok(())
    }

    /// `Engine::score_records` alone (stateless, so safe on the reference).
    pub fn score_engine(&mut self, tracer: &mut Tracer, batch: &[ConnectionRecord]) -> Res<()> {
        let reference = self.reference;
        let (_, r) = tracer.warm_span("serve.engine.score", None, batch.len(), || {
            reference.score_records(batch)
        });
        black_box(r?);
        Ok(())
    }

    /// The threshold fold alone, on scores computed outside the span.
    pub fn fold(&mut self, tracer: &mut Tracer, batch: &[ConnectionRecord]) -> Res<()> {
        self.reference
            .pipeline()
            .transform_batch(batch, &mut self.features)?;
        let (scores, flags) = self
            .reference
            .detector()
            .score_and_flag_all_view(self.features.as_view())?;
        let fold = &self.fold;
        let (_, v) = tracer.warm_span("detect.fold", None, batch.len(), || {
            fold.observe_prescored(scores.iter().copied().zip(flags.iter().copied()))
        });
        black_box(v);
        Ok(())
    }

    /// `Engine::observe_records` on the scratch engine.
    pub fn observe_scratch(&mut self, tracer: &mut Tracer, batch: &[ConnectionRecord]) -> Res<()> {
        let scratch = &self.scratch;
        let (_, r) = tracer.warm_span("serve.engine.observe", None, batch.len(), || {
            scratch.observe_records(batch)
        });
        black_box(r?);
        Ok(())
    }

    /// `FleetClient::score` of `batch` against the same chunks sent one
    /// after another on direct clients (chunk `k` on `direct[k]`).
    pub fn router(
        &mut self,
        tracer: &mut Tracer,
        fleet: &mut FleetClient,
        direct: &mut [DaemonClient],
        batch: &[ConnectionRecord],
        chunk: usize,
    ) -> Res<()> {
        let (_, routed) = tracer.warm_span("router.fleet", None, batch.len(), || {
            fleet.score(TENANT, batch)
        });
        let (_, parts) = tracer.warm_span("router.direct", None, batch.len(), || {
            batch
                .chunks(chunk)
                .zip(direct.iter_mut())
                .map(|(c, client)| client.score(TENANT, c))
                .collect::<Result<Vec<_>, DaemonError>>()
        });
        let joined: Vec<HybridVerdict> = parts?.into_iter().flatten().collect();
        self.check(fixture::hybrid_fingerprint(&routed?) == fixture::hybrid_fingerprint(&joined));
        Ok(())
    }

    /// Both halves of `batch` in flight at once on two clients.
    pub fn concurrent(
        &mut self,
        tracer: &mut Tracer,
        a: &mut DaemonClient,
        b: &mut DaemonClient,
        batch: &[ConnectionRecord],
        split: usize,
    ) -> Res<()> {
        let (first, second) = batch.split_at(split);
        let (_, answers) = tracer.warm_span("daemon.fleet.concurrent", None, batch.len(), || {
            let ida = a.send_score_batch(TENANT, first)?;
            let idb = b.send_score_batch(TENANT, second)?;
            Ok::<_, DaemonError>([(ida, a.recv_response()?), (idb, b.recv_response()?)])
        });
        let mut joined = Vec::with_capacity(batch.len());
        for (id, answer) in answers? {
            match answer {
                Response::Verdicts {
                    req_id,
                    verdicts: VerdictPayload::Hybrid(v),
                } if req_id == id => joined.extend(v),
                _ => self.check(false),
            }
        }
        let expected = self.reference.score_records(batch)?;
        self.check(fixture::hybrid_fingerprint(&joined) == fixture::hybrid_fingerprint(&expected));
        Ok(())
    }
}

/// The frame codec on both sides of a round trip, as spans under `parent`:
/// request encode (including the record copy the client makes) and
/// decode, response encode and decode.
fn codec(
    tracer: &mut Tracer,
    parent: usize,
    mode: BatchMode,
    records: &[ConnectionRecord],
    verdicts: VerdictPayload,
) -> Res<()> {
    let n = records.len();
    let (_, frame) = tracer.warm_span("daemon.protocol.encode", Some(parent), n, || {
        protocol::encode_request(&Request::Batch(BatchRequest {
            req_id: 1,
            mode,
            tenant: TENANT.to_string(),
            records: records.to_vec(),
        }))
    });
    let frame = frame?;
    let (_, request) = tracer.warm_span("daemon.protocol.decode", Some(parent), n, || {
        decode_frame(&frame, protocol::decode_request)
    });
    black_box(request?);
    let response = Response::Verdicts {
        req_id: 1,
        verdicts,
    };
    let (_, frame) = tracer.warm_span("daemon.protocol.encode", Some(parent), n, || {
        protocol::encode_response(&response)
    });
    let frame = frame?;
    let (_, decoded) = tracer.warm_span("daemon.protocol.decode", Some(parent), n, || {
        decode_frame(&frame, protocol::decode_response)
    });
    black_box(decoded?);
    Ok(())
}

/// Header check plus payload decode, as the daemon's reader does it.
fn decode_frame<T>(
    frame: &[u8],
    decode: fn(FrameType, &[u8]) -> Result<T, DaemonError>,
) -> Result<T, DaemonError> {
    let (head, payload) = frame.split_at(HEADER_LEN.min(frame.len()));
    let head: &[u8; HEADER_LEN] = head.try_into().map_err(|_| DaemonError::Disconnected)?;
    let header = FrameHeader::decode(head, DEFAULT_MAX_FRAME_LEN)?;
    decode(header.frame_type, payload)
}

/// Snapshot decode/encode, GHSF replication into a standalone node, and
/// the watcher swap on the first serving daemon.
fn aux_layers(
    run: &Run,
    tracer: &mut Tracer,
    served: &Served,
    topology: &Topology,
    out: &mut Outcome,
) -> Res<()> {
    let mut engine = None;
    for _ in 0..AUX_REPS {
        let (_, e) = tracer.span("serve.snapshot.decode", None, 0, || {
            Engine::from_bytes(&served.bundle)
        });
        engine = Some(e?);
    }
    if let Some(engine) = engine {
        for _ in 0..AUX_REPS {
            let (_, bytes) = tracer.span("serve.snapshot.encode", None, 0, || engine.to_bytes());
            if bytes != served.bundle {
                out.problem("re-encoding a decoded bundle changed its bytes");
            }
        }
    }

    let spool = run.dir.join("ghsf");
    std::fs::create_dir_all(&spool)?;
    let mut node = FleetNode::start(
        FleetNodeConfig::new("127.0.0.1:0".parse()?, &spool),
        Arc::new(|_: &str| None),
        Arc::new(|_: &NodeEvent| {}),
    )?;
    let replicated = (|| -> Res<()> {
        let mut replicator = Replicator::connect(node.local_addr())?;
        for rep in 0..AUX_REPS {
            let tenant = format!("copy{rep}");
            let (_, report) = tracer.span("comms.replicate", None, 0, || {
                replicator.replicate(&tenant, &served.bundle)
            });
            if report?.bytes_sent != served.bundle.len() as u64 {
                out.problem("a full replication sent a different byte count");
            }
        }
        Ok(())
    })();
    node.stop_and_join();
    replicated?;
    report_replication(tracer, served.bundle.len(), out);

    let daemon = &topology.daemons[0];
    for _ in 0..3 {
        // A fresh mtime is what the watcher's fingerprint sees.
        std::thread::sleep(POLL_INTERVAL);
        let old = daemon.registry().get(TENANT)?;
        ghsom_serve::publish_bundle(topology.spool(0), TENANT, &served.bundle)?;
        let (_, swapped) = tracer.span("serve.watch.swap_visible", None, 0, || {
            fixture::wait_for_swap(daemon.registry(), &old)
        });
        swapped?;
    }
    Ok(())
}

/// `comms.replicate.*` from the replication spans.
pub fn report_replication(tracer: &Tracer, bytes: usize, out: &mut Outcome) {
    let ns = median(&tracer.durations("comms.replicate"));
    out.set("comms.replicate.ms", ns / 1e6);
    out.set(
        "comms.replicate.mib_per_s",
        bytes as f64 / (ns / 1e9) / (1u64 << 20) as f64,
    );
}

/// Queue high water and overload rejects over every daemon's tenant
/// counters.
pub fn queue_metrics(topology: &Topology, out: &mut Outcome) {
    let tenants: Vec<_> = topology
        .daemons
        .iter()
        .filter_map(|d| d.metrics().tenant_if_present(TENANT))
        .collect();
    let high_water = tenants
        .iter()
        .map(|t| t.queue_high_water())
        .max()
        .unwrap_or(0);
    let overloads: u64 = tenants.iter().map(|t| t.overload_batches()).sum();
    out.set("daemon.queue_high_water", high_water as f64);
    out.set("daemon.overload_batches", overloads as f64);
}

/// Which spans make up a workload's ladder tree.
pub struct LayerSpec {
    /// Name of the root span of each ladder repetition.
    pub root: &'static str,
    /// Name of the in-process engine span.
    pub engine: &'static str,
    /// Records under one root.
    pub records: usize,
    pub untraced_p50_ns: f64,
    pub traced_p50_ns: f64,
}

/// Per-layer metrics from the spans, and the self-time breakdown the
/// report checks against the untraced batch time.
pub fn layer_metrics(tracer: &Tracer, out: &mut Outcome, spec: &LayerSpec) {
    let per_rec = |ns: f64| ns / spec.records as f64;
    let self_times = tracer.self_times(spec.root);
    let self_of = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let ms = |name: &str| median(&tracer.durations(name)) / 1e6;

    out.set(
        "featurize.transform_batch.ns_per_rec",
        tracer.ns_per_record("featurize.transform_batch"),
    );
    out.set("featurize.fit.ms", ms("featurize.fit"));
    out.set("serve.walk.ns_per_rec", tracer.ns_per_record("serve.walk"));
    out.set(
        "detect.verdict_self.ns_per_rec",
        tracer.ns_per_record("detect.verdict") - tracer.ns_per_record("serve.walk"),
    );
    out.set(
        "detect.fold.ns_per_rec",
        tracer.ns_per_record("detect.fold"),
    );
    out.set("detect.fit.ms", ms("detect.fit"));
    out.set(
        "serve.engine.score.ns_per_rec",
        tracer.ns_per_record("serve.engine.score"),
    );
    out.set(
        "serve.engine.self.ns_per_rec",
        per_rec(self_of(spec.engine)),
    );
    out.set(
        "serve.engine.observe.ns_per_rec",
        tracer.ns_per_record("serve.engine.observe"),
    );
    out.set(
        "serve.engine.allocs_per_rec",
        tracer.allocs_per_record(spec.engine),
    );
    out.set("core.train.s", ms("core.train") / 1e3);
    out.set("serve.snapshot.encode.ms", ms("serve.snapshot.encode"));
    out.set("serve.snapshot.decode.ms", ms("serve.snapshot.decode"));
    out.set(
        "serve.watch.swap_visible.ms",
        ms("serve.watch.swap_visible"),
    );
    out.set(
        "daemon.protocol.encode.ns_per_rec",
        per_rec(self_of("daemon.protocol.encode")),
    );
    out.set(
        "daemon.protocol.decode.ns_per_rec",
        per_rec(self_of("daemon.protocol.decode")),
    );
    out.set(
        "daemon.roundtrip_overhead.us_per_batch",
        median(&tracer.gaps("daemon.roundtrip", spec.engine)) / 1e3,
    );
    // Waiting behind other batches: the loop's batch time beyond one
    // lock-step pass through the ladder's root.
    let root_ns = median(&tracer.durations(spec.root));
    let queue_wait = (spec.untraced_p50_ns - root_ns).max(0.0);
    out.set("daemon.queue_wait.ms", queue_wait / 1e6);
    out.set(
        "daemon.allocs_per_rec",
        tracer.allocs_per_record("daemon.roundtrip"),
    );
    let routed = median(&tracer.durations("router.fleet"));
    let direct = median(&tracer.durations("router.direct"));
    out.set(
        "daemon.fleet.router_overhead.pct",
        100.0 * (routed - direct) / direct,
    );
    out.set(
        "daemon.fleet.concurrent_ceiling.rec_per_s",
        spec.records as f64 / (median(&tracer.durations("daemon.fleet.concurrent")) / 1e9),
    );
    out.set(
        "trace.overhead.pct",
        100.0 * (spec.traced_p50_ns - spec.untraced_p50_ns) / spec.untraced_p50_ns,
    );

    out.self_times = self_times;
    out.self_times.push(("daemon.queue_wait", queue_wait));
    out.batch_ns = spec.untraced_p50_ns;
}
