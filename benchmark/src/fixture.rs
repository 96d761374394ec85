//! Pinned fixtures, seeded traffic, verdict fingerprints and the
//! in-process daemon topology the workloads serve from.
//!
//! The two model fixtures are trained on pinned data (seed
//! [`FIXTURE_SEED`]), so every run and every commit serves the same
//! hierarchies; the `--seed` argument drives the traffic scored against
//! them. The retrain samples of `deploy_retrain` are pinned the same way,
//! because training time depends on the sample far more than on timing
//! noise.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use detect::prelude::{HybridGhsomDetector, HybridVerdict, StreamVerdict};
use featurize::KddPipeline;
use ghsom_core::{GhsomConfig, GhsomModel};
use ghsom_daemon::{Daemon, DaemonClient, DaemonConfig};
use ghsom_serve::{Engine, EngineConfig, EngineRegistry};
use traffic::{AttackCategory, ConnectionRecord, Dataset};

use crate::trace::Tracer;
use crate::Res;

/// Seed of the pinned fixture training sets and of every GHSOM fit.
pub const FIXTURE_SEED: u64 = 42;

/// First seed of the pinned `deploy_retrain` samples (sample `i` uses
/// `RETRAIN_SEED + i`).
pub const RETRAIN_SEED: u64 = 1_000;

/// The tenant every daemon serves.
pub const TENANT: &str = "prod";

/// Spool poll interval of every daemon: the one non-default knob besides
/// the ephemeral ports, pinned so swap latency is comparable across runs.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// The two serving fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// τ₁ 0.3, depth ≤ 4, 8k training records (86 maps, 2,221 units).
    Deep,
    /// τ₁ 0.5, depth 2, 4k training records (4 maps, 52 units).
    Edge,
}

impl Fixture {
    pub fn name(self) -> &'static str {
        match self {
            Fixture::Deep => "deep",
            Fixture::Edge => "edge",
        }
    }

    /// The engine configuration, with the GHSOM seeded by `model_seed`.
    pub fn config(self, model_seed: u64) -> EngineConfig {
        let ghsom = match self {
            Fixture::Deep => GhsomConfig::default()
                .with_tau1(0.3)
                .with_tau2(0.03)
                .with_max_depth(4)
                .with_epochs(3, 3)
                .with_max_growth_rounds(16)
                .with_max_map_units(256)
                .with_max_total_units(2_000)
                .with_min_unit_samples(10),
            Fixture::Edge => GhsomConfig::default()
                .with_tau1(0.5)
                .with_max_depth(2)
                .with_epochs(2, 2),
        };
        EngineConfig::default()
            .with_ghsom(ghsom.with_seed(model_seed))
            .with_stream(4.0, 1_000)
    }

    pub fn train_len(self) -> usize {
        match self {
            Fixture::Deep => 8_000,
            Fixture::Edge => 4_000,
        }
    }

    /// The training set drawn from the KDD training mix under `seed`.
    pub fn training_set(self, seed: u64) -> Res<Dataset> {
        Ok(traffic::synth::kdd_train_test(self.train_len(), 0, seed)?.0)
    }
}

/// `n` records of the KDD corrected-test mix (with its test-only attack
/// types) drawn under the workload seed.
pub fn test_pool(seed: u64, n: usize) -> Res<Dataset> {
    Ok(traffic::synth::kdd_train_test(0, n, seed)?.1)
}

/// [`Engine::fit`] split at its layer boundaries, one span per layer —
/// the same calls in the same order, so the bundle is byte-identical.
pub fn fit_traced(
    config: &EngineConfig,
    train: &Dataset,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Res<Engine> {
    let n = train.len();
    let (_, pipeline) = tracer.span("featurize.fit", parent, n, || {
        KddPipeline::fit(&config.pipeline, train)
    });
    let pipeline = pipeline?;
    let (_, x) = tracer.span("featurize.transform_dataset", parent, n, || {
        pipeline.transform_dataset(train)
    });
    let x = x?;
    let labels: Vec<AttackCategory> = train.iter().map(|r| r.category()).collect();
    let (_, model) = tracer.span("core.train", parent, n, || {
        GhsomModel::train(&config.ghsom, &x)
    });
    let (_, fitted) = tracer.span("detect.fit", parent, n, || {
        HybridGhsomDetector::fit(model?, &x, &labels, config.percentile)
    });
    let fitted = fitted?;
    let (_, engine) = tracer.span("serve.compile", parent, 0, || {
        Engine::builder()
            .pipeline(pipeline)
            .model(fitted.labeled().model())
            .detector(&fitted)
            .stream(config.k_sigma, config.warmup)
            .build()
    });
    Ok(engine?)
}

/// Maps, units and depth of an engine's compiled hierarchy.
pub fn shape(engine: &Engine) -> (usize, usize, usize) {
    let c = engine.compiled();
    let depth = (0..c.map_count())
        .map(|m| c.map_depth(m))
        .max()
        .unwrap_or(0);
    (c.map_count(), c.total_units(), depth)
}

/// FNV-1a 64 over a byte stream, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of score verdicts over their exact wire bytes: equal
/// fingerprints mean bitwise-equal verdicts (up to a 2⁻⁶⁴ collision).
pub fn hybrid_fingerprint(verdicts: &[HybridVerdict]) -> u64 {
    let mut h = Fnv::new();
    for v in verdicts {
        h.feed(&v.to_wire());
    }
    h.0
}

/// [`hybrid_fingerprint`] for observe verdicts (score, flag and the
/// threshold in force, NaN bit patterns included).
pub fn stream_fingerprint(verdicts: &[StreamVerdict]) -> u64 {
    let mut h = Fnv::new();
    for v in verdicts {
        h.feed(&v.to_wire());
    }
    h.0
}

/// Detection and false-alarm tallies over served verdicts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attacks: u64,
    pub attacks_flagged: u64,
    pub normals: u64,
    pub normals_flagged: u64,
}

impl Tally {
    pub fn add(&mut self, records: &[ConnectionRecord], flags: impl Iterator<Item = bool>) {
        for (r, flagged) in records.iter().zip(flags) {
            if r.is_attack() {
                self.attacks += 1;
                self.attacks_flagged += u64::from(flagged);
            } else {
                self.normals += 1;
                self.normals_flagged += u64::from(flagged);
            }
        }
    }

    pub fn detection_rate(&self) -> f64 {
        self.attacks_flagged as f64 / self.attacks.max(1) as f64
    }

    pub fn false_alarm_rate(&self) -> f64 {
        self.normals_flagged as f64 / self.normals.max(1) as f64
    }
}

/// The serving daemons of one workload, each with its own spool.
pub struct Topology {
    pub daemons: Vec<Daemon>,
    spools: Vec<PathBuf>,
}

impl Topology {
    /// Starts `nodes` daemons serving `bundle` under [`TENANT`] with the
    /// default config, ephemeral ports and [`POLL_INTERVAL`] (plus a GHSF
    /// endpoint when `fleet_endpoint`), then scores `probe` once on each.
    /// Returns the topology, the seconds until every node had answered,
    /// and the probe verdicts per node for the caller to verify.
    pub fn start(
        dir: &Path,
        nodes: usize,
        bundle: &[u8],
        fleet_endpoint: bool,
        probe: &[ConnectionRecord],
    ) -> Res<(Topology, f64, Vec<Vec<HybridVerdict>>)> {
        let spools: Vec<PathBuf> = (0..nodes).map(|i| dir.join(format!("node{i}"))).collect();
        let started = Instant::now();
        let mut daemons = Vec::with_capacity(nodes);
        for spool in &spools {
            std::fs::create_dir_all(spool)?;
            ghsom_serve::publish_bundle(spool, TENANT, bundle)?;
            let mut config = DaemonConfig::new(spool).with_poll_interval(POLL_INTERVAL);
            if fleet_endpoint {
                config = config.with_fleet_addr("127.0.0.1:0");
            }
            daemons.push(Daemon::start(config)?);
        }
        let mut answers = Vec::with_capacity(nodes);
        for daemon in &daemons {
            let mut client = DaemonClient::connect(daemon.ingest_addr())?;
            answers.push(client.score(TENANT, probe)?);
        }
        let seconds = started.elapsed().as_secs_f64();
        Ok((Topology { daemons, spools }, seconds, answers))
    }

    pub fn ingest_addrs(&self) -> Vec<SocketAddr> {
        self.daemons.iter().map(Daemon::ingest_addr).collect()
    }

    pub fn spool(&self, node: usize) -> &Path {
        &self.spools[node]
    }

    /// Stops and joins every daemon thread and removes the spools.
    pub fn shutdown(self) {
        for daemon in self.daemons {
            daemon.shutdown();
        }
        for spool in &self.spools {
            let _ = std::fs::remove_dir_all(spool);
        }
    }
}

/// Brings the topology up `reps` times (keeping the last) and returns it
/// with the benchmark's `setup_s` — the median of the quickest third of
/// the bring-up times — and how many probe answers differed from the
/// `reference` fingerprint.
pub fn bring_up(
    dir: &Path,
    reps: usize,
    nodes: usize,
    bundle: &[u8],
    fleet_endpoint: bool,
    probe: &[ConnectionRecord],
    reference: u64,
) -> Res<(Topology, f64, usize)> {
    let mut times = Vec::with_capacity(reps);
    let mut mismatches = 0;
    let mut kept = None;
    for rep in 0..reps {
        let (topology, seconds, answers) = Topology::start(
            &dir.join(format!("setup{rep}")),
            nodes,
            bundle,
            fleet_endpoint,
            probe,
        )?;
        mismatches += answers
            .iter()
            .filter(|a| hybrid_fingerprint(a) != reference)
            .count();
        times.push(seconds);
        if rep + 1 == reps {
            kept = Some(topology);
        } else {
            topology.shutdown();
        }
    }
    let topology = kept.ok_or("bring-up needs at least one repetition")?;
    Ok((topology, crate::trace::quiet_median(&times), mismatches))
}

/// Waits until `registry` serves a different engine generation for
/// [`TENANT`] than `old`.
pub fn wait_for_swap(registry: &EngineRegistry, old: &Arc<Engine>) -> Res<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(current) = registry.get(TENANT) {
            if !Arc::ptr_eq(&current, old) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("the daemon never served the new bundle".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
