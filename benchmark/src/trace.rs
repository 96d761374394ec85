//! Spans recorded around calls into each layer's public functions, kept
//! in memory and written out when the run ends, plus the quantile helpers
//! every report uses.
//!
//! Two kinds of nesting occur:
//!
//! * **In time** — a deploy's training, encoding and replication run one
//!   after another inside the deploy span.
//! * **Differential** — a serving layer cannot be entered from outside
//!   the call that wraps it, so the benchmark times the child in its own
//!   call on the same input, right after the parent, and records it under
//!   the parent's id. The in-process `Engine::score_records` on a chunk is
//!   the child of the daemon round trip that served the same chunk.
//!
//! Either way a span's self time is its duration minus the durations of
//! its children, and a layer's self time per root is the sum over that
//! root's spans with the layer's name.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The root span of this span's tree (itself for a root).
    pub root: usize,
    /// Process-wide allocations made while the span was open.
    pub allocs: u64,
    /// Records handled by the call inside the span (0 when not a batch).
    pub records: usize,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Id returned by a disabled tracer.
const NO_SPAN: usize = usize::MAX;

/// In-memory span store. A disabled tracer records nothing and only runs
/// the closures it is handed, so untraced runs share the traced code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans may overlap
    /// (pipelined batches).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, records: usize) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let allocs = alloc::allocations();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
            allocs,
            records,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = alloc::allocations();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span and returns the span id with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        records: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.begin(name, parent, records);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// [`Tracer::span`] around the second of two identical calls: the
    /// first, untimed, leaves caches as warm as back-to-back batches in
    /// the serving loop leave them.
    pub fn warm_span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        records: usize,
        mut f: impl FnMut() -> T,
    ) -> (usize, T) {
        std::hint::black_box(f());
        self.span(name, parent, records, f)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Median duration per record (ns) of the spans called `name`.
    pub fn ns_per_record(&self, name: &str) -> f64 {
        let per: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.records > 0)
            .map(|s| s.ns() / s.records as f64)
            .collect();
        median(&per)
    }

    /// Allocations per record over all spans called `name`.
    pub fn allocs_per_record(&self, name: &str) -> f64 {
        let (allocs, records) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(a, r), s| (a + s.allocs, r + s.records));
        allocs as f64 / records.max(1) as f64
    }

    /// For every span called `parent`: its duration minus its children
    /// called `child` (ns).
    pub fn gaps(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut child_ns: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|_| s.name == child) {
                *child_ns.entry(p).or_insert(0.0) += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(id, s)| s.ns() - child_ns.get(&id).copied().unwrap_or(0.0))
            .collect()
    }

    /// Median over the trees rooted at spans called `root_name` of each
    /// layer's self time (ns) in that tree, in first-seen order.
    pub fn self_times(&self, root_name: &str) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut per_root: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        let mut order: Vec<&'static str> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if self.spans[s.root].name != root_name {
                continue;
            }
            if !order.contains(&s.name) {
                order.push(s.name);
            }
            *per_root
                .entry(s.root)
                .or_default()
                .entry(s.name)
                .or_insert(0.0) += s.ns() - child_ns[id];
        }
        order
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = per_root
                    .values()
                    .map(|layers| layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, median(&values))
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"allocs\": {}, \"records\": {}}}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.records
            )?;
        }
        out.flush()
    }
}

/// Linear-interpolated quantile of unsorted values (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of the quickest third of repeated timings: a repetition slowed
/// by other work on the host does not move it.
pub fn quiet_median(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(times.len().div_ceil(3));
    median(&sorted)
}
