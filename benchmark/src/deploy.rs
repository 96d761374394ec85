//! `deploy_retrain`: retrain the deep configuration with `Engine::fit`,
//! encode it with `Engine::to_bytes`, push it to the serving daemon's GHSF
//! endpoint with `Replicator::replicate`, wait until `Daemon::registry()`
//! serves the new generation, and score a verified batch on it — then keep
//! scoring verified batches on that generation before the next retrain.
//!
//! This is the one workload that runs training, replication and the
//! `serve::watch` swap. `deploy_p50_s` is the median time from having the
//! training set to the first verdict of the new model (verified against a
//! reference engine decoded from the same bytes, after the clock stops).
//!
//! A run of `--seconds s` makes `clamp(floor(s / 3), 1, 3)` deploys on the
//! pinned retrain samples `RETRAIN_SEED + i`: training time moves with
//! the sample by up to 2×, so a fixed sample set keeps the median
//! comparable between runs and commits. The seed drives the scored
//! traffic.

use std::time::Instant;

use ghsom_comms::Replicator;
use ghsom_daemon::FleetClient;
use ghsom_serve::Engine;
use traffic::{ConnectionRecord, Dataset};

use crate::fixture::{self, Fixture, FIXTURE_SEED, POLL_INTERVAL, RETRAIN_SEED, TENANT};
use crate::serving::{
    self, layer_metrics, queue_metrics, report_replication, score_fingerprints, score_loop,
    traffic_facts, Ladder, LayerSpec, Limit, LoopStats, SETUP_REPS, WINDOWS,
};
use crate::trace::{median, Tracer};
use crate::{Outcome, Res, Run};

const VERIFY_BATCH: usize = 512;
/// Nominal seconds one deploy takes (training dominates).
const SECONDS_PER_DEPLOY: f64 = 3.0;
/// Deploys per run at most: the pinned samples of a run stay the same for
/// every run length from nine seconds up.
const MAX_DEPLOYS: usize = 3;
const LADDER_REPS: usize = 200;

pub fn deploy_retrain(run: &Run) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let pool = fixture::test_pool(run.seed, run.pool_records)?;
    let batches: Vec<&[ConnectionRecord]> = pool.records().chunks_exact(VERIFY_BATCH).collect();
    traffic_facts(
        "deploy_retrain",
        pool.records(),
        &format!("{VERIFY_BATCH}-record score batches, window 1"),
    );
    let deploys = ((run.seconds / SECONDS_PER_DEPLOY).floor() as usize).clamp(1, MAX_DEPLOYS);
    // Every generation then serves its share of `--seconds` of traffic.
    let serve_s = run.seconds / deploys as f64;
    let samples: Vec<Dataset> = (0..deploys)
        .map(|i| Fixture::Deep.training_set(RETRAIN_SEED + i as u64))
        .collect::<Res<_>>()?;
    let config = Fixture::Deep.config(FIXTURE_SEED);

    // The node starts out serving the edge fixture; every deploy
    // replaces the generation before it.
    let initial = Engine::fit(
        &Fixture::Edge.config(FIXTURE_SEED),
        &Fixture::Edge.training_set(FIXTURE_SEED)?,
    )?;
    let probe = fixture::hybrid_fingerprint(&initial.score_records(batches[0])?);
    let (topology, setup_s, probe_mismatches) = fixture::bring_up(
        &run.dir,
        SETUP_REPS,
        1,
        &initial.to_bytes(),
        true,
        batches[0],
        probe,
    )?;
    if probe_mismatches > 0 {
        out.problem(format!(
            "{probe_mismatches} setup probes differed from the reference"
        ));
    }
    out.set("setup_s", setup_s);
    println!("# setup deploy_retrain: 1 daemon with a GHSF endpoint, spool poll {POLL_INTERVAL:?}, setup {setup_s:.4} s (quickest third of {SETUP_REPS} bring-ups); {deploys} deploys on samples {RETRAIN_SEED}..{}", RETRAIN_SEED + deploys as u64 - 1);

    let daemon = &topology.daemons[0];
    let mut replicator = Replicator::connect(
        daemon
            .fleet_addr()
            .ok_or("the daemon runs no GHSF endpoint")?,
    )?;
    let mut client = serving::connect(daemon.ingest_addr())?;
    let mut untraced = Tracer::new(false);
    let mut deploy_s = Vec::with_capacity(deploys);
    let mut bundle_lens = Vec::with_capacity(deploys);
    let mut shapes = Vec::with_capacity(deploys);
    // First verdicts (with their deploy's time) and the traffic after them.
    let (mut firsts, mut stats) = (LoopStats::default(), LoopStats::default());
    let mut last: Option<(Vec<u8>, Engine)> = None;
    for (i, sample) in samples.iter().enumerate() {
        let old = daemon.registry().get(TENANT)?;
        let root = tracer.begin("deploy", None, 0);
        let started = Instant::now();
        let engine = if run.trace {
            fixture::fit_traced(&config, sample, &mut tracer, Some(root))?
        } else {
            Engine::fit(&config, sample)?
        };
        let (_, bundle) = tracer.span("serve.snapshot.encode", Some(root), 0, || engine.to_bytes());
        let (_, report) = tracer.span("comms.replicate", Some(root), 0, || {
            replicator.replicate(TENANT, &bundle)
        });
        let (_, swapped) = tracer.span("serve.watch.swap_visible", Some(root), 0, || {
            fixture::wait_for_swap(daemon.registry(), &old)
        });
        let sent = Instant::now();
        let (_, first) = tracer.span("daemon.first_batch", Some(root), VERIFY_BATCH, || {
            client.score(TENANT, batches[0])
        });
        let first_ns = sent.elapsed().as_nanos() as f64;
        let elapsed = started.elapsed().as_secs_f64();
        tracer.end(root);
        drop(old);
        report?;
        swapped?;

        // Checker work, outside every timed window.
        let reference = if run.wrong_reference {
            Engine::fit(&Fixture::Deep.config(FIXTURE_SEED + 1), sample)?
        } else {
            let (_, decoded) = tracer.span("serve.snapshot.decode", None, 0, || {
                Engine::from_bytes(&bundle)
            });
            decoded?
        };
        let expected = score_fingerprints(&reference, &batches)?;
        let mut deployed = LoopStats {
            attempted: 1,
            elapsed_s: elapsed,
            ..LoopStats::default()
        };
        match first {
            Ok(v) if fixture::hybrid_fingerprint(&v) == expected[0] => {
                deployed.samples.push((elapsed, first_ns, v.len() as u64));
                deployed.records = v.len() as u64;
                deployed
                    .tally
                    .add(batches[0], v.iter().map(|v| v.anomalous));
            }
            _ => {
                deployed.samples.push((elapsed, first_ns, 0));
                deployed.failed = 1;
            }
        }
        firsts.absorb(&deployed);
        deploy_s.push(elapsed);

        let mut next = 1;
        let post = score_loop(
            Limit::Seconds(serve_s),
            &batches,
            &expected,
            &mut next,
            &mut untraced,
            |b| client.score(TENANT, b).map_err(|e| e.to_string()),
        );
        stats.absorb(&post);

        let (maps, units, depth) = fixture::shape(&engine);
        println!(
            "# deploy {i}: sample seed {}, {maps} maps, {units} units, depth {depth}, bundle {} bytes, first verdict after {elapsed:.3} s",
            RETRAIN_SEED + i as u64,
            bundle.len()
        );
        shapes.push((maps, units, depth));
        bundle_lens.push(bundle.len() as f64);
        if run.trace && i == 0 {
            // The traced path must be `Engine::fit` split at its layer
            // boundaries: same bytes. Its extra cost is the tracing
            // overhead.
            let fit_started = Instant::now();
            let untraced_bundle = Engine::fit(&config, sample)?.to_bytes();
            let untraced_fit = fit_started.elapsed().as_secs_f64();
            if untraced_bundle != bundle {
                out.problem("the traced fit produced a different bundle than Engine::fit");
            }
            let traced_fit: f64 = [
                "featurize.fit",
                "featurize.transform_dataset",
                "core.train",
                "detect.fit",
                "serve.compile",
                "serve.snapshot.encode",
            ]
            .iter()
            .map(|name| tracer.durations(name).iter().sum::<f64>())
            .sum::<f64>()
                / 1e9;
            out.set(
                "trace.overhead.pct",
                100.0 * (traced_fit - untraced_fit) / untraced_fit,
            );
        }
        last = Some((bundle, reference));
    }
    out.attempted = firsts.attempted + stats.attempted;
    out.failed = firsts.failed + stats.failed;
    let median_of = |f: fn(&(usize, usize, usize)) -> usize| {
        median(&shapes.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };

    if run.trace {
        let (bundle, reference) = last.ok_or("no deploy ran")?;
        let addr = daemon.ingest_addr();
        let mut client2 = serving::connect(addr)?;
        let mut fleet = FleetClient::over_ingest(vec![addr])?;
        let mut ladder = Ladder::new(&reference, &bundle, Fixture::Deep)?;
        for rep in 0..LADDER_REPS {
            let b = batches[rep % batches.len()];
            ladder.score_roundtrip(&mut tracer, None, &mut client, b)?;
            ladder.fold(&mut tracer, b)?;
            ladder.observe_scratch(&mut tracer, b)?;
            ladder.router(
                &mut tracer,
                &mut fleet,
                std::slice::from_mut(&mut client),
                b,
                b.len(),
            )?;
            ladder.concurrent(&mut tracer, &mut client, &mut client2, b, b.len() / 2)?;
        }
        ladder.finish(&mut out);
        let overhead = out.metrics.get("trace.overhead.pct").copied();
        layer_metrics(
            &tracer,
            &mut out,
            &LayerSpec {
                root: "daemon.roundtrip",
                engine: "serve.engine.score",
                records: VERIFY_BATCH,
                untraced_p50_ns: stats.p50_ns(),
                traced_p50_ns: stats.p50_ns(),
            },
        );
        if let Some(overhead) = overhead {
            out.set("trace.overhead.pct", overhead);
        }
        report_replication(&tracer, median(&bundle_lens) as usize, &mut out);
        queue_metrics(&topology, &mut out);
        // The deploy breakdown replaces the serving one in the report:
        // every deploy child runs inside the deploy span.
        out.self_times = tracer.self_times("deploy");
        out.batch_ns = median(&tracer.durations("deploy"));
        tracer.write(&serving::spans_path("deploy_retrain", run.seed))?;
    } else {
        // Latency and detection over the traffic after the first verdicts;
        // throughput over the whole run, retraining included.
        stats.report(&mut out, WINDOWS);
        out.set(
            "records_per_s",
            (firsts.records + stats.records) as f64 / (firsts.elapsed_s + stats.elapsed_s),
        );
        out.set("deploy_p50_s", median(&deploy_s));
    }
    out.set("core.maps", median_of(|s| s.0));
    out.set("core.units", median_of(|s| s.1));
    out.set("core.depth", median_of(|s| s.2));
    out.set("serve.snapshot.bytes", median(&bundle_lens));
    drop(client);
    topology.shutdown();
    Ok(out)
}
