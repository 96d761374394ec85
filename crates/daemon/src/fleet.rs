//! The fleet router: fan one GHSD record stream out across N daemon
//! endpoints and reduce their answers back into one.
//!
//! [`FleetClient`] mirrors `ghsom-serve`'s `ShardedEngine` one level
//! up: where the sharded engine splits a batch into contiguous chunks
//! across *threads* and concatenates verdicts in order, the fleet
//! client splits it into contiguous chunks across *daemons* and
//! concatenates in order. Because scoring is deterministic per record,
//! the routed verdicts are bit-identical to a single engine scoring the
//! whole batch — regardless of how many nodes served it.
//!
//! A score call is a scatter/gather: every chunk is written to its
//! primary node before any answer is read, so the nodes score at the
//! same time and a batch costs the slowest node's round trip instead
//! of the sum of all of them. Answers are read back in chunk order.
//!
//! Failure semantics are typed and bounded:
//!
//! - **Score** batches are idempotent (they touch no baseline), so a
//!   chunk whose primary fails is retried, after the gather, on the
//!   other healthy nodes one at a time — each chunk tries each node at
//!   most once per call. Chunks no node could serve come back as
//!   [`FleetError::Partial`] naming the exact record ranges, never as a
//!   silent gap and never as a hang: the node timeout bounds every
//!   connect, write and read.
//! - **Observe** batches mutate the target node's adaptive baseline,
//!   so they are routed whole to one node (round-robin) and **never**
//!   retried — a retry after an ambiguous failure could double-count
//!   records into a baseline. The typed error tells the caller exactly
//!   which node took the failure.
//! - A node that fails at the transport level is marked down and not
//!   retried until a backoff window passes ([`FleetClient::with_backoff`]);
//!   protocol-level rejects (e.g. `UnknownTenant` mid-rolling-deploy)
//!   fail over without tarring the node as down.
//! - A batch whose chunk would not fit in one frame is refused by the
//!   client before a byte is written: [`FleetError::FrameTooLarge`],
//!   with no node marked down and every connection still usable.
//!
//! Fleet-wide baselines reduce through `StreamState::merge_all` over
//! the per-node states fetched from each daemon's GHSF endpoint — the
//! collector-side reduction documented in `detect::online`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use detect::hybrid::HybridVerdict;
use detect::online::{StreamState, StreamVerdict};
use detect::DetectError;
use ghsom_comms::{CommsError, Replicator};
use traffic::ConnectionRecord;

use crate::client::DaemonClient;
use crate::error::{DaemonError, RejectCode};

/// Smallest record chunk worth routing to a distinct node — mirrors
/// `ShardedEngine`'s per-thread floor, one level up.
pub const FLEET_MIN_CHUNK: usize = 64;

/// Default per-node bound on each connect, write and read: the "never
/// a hang" bound.
pub const DEFAULT_NODE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default down-node backoff: how long a transport-failed node sits out
/// before the router offers it work again.
pub const DEFAULT_BACKOFF: Duration = Duration::from_secs(1);

/// One daemon in the fleet: its GHSD ingest address and, optionally,
/// its GHSF fleet endpoint (needed only for baseline state queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEndpoint {
    /// GHSD ingest listener (`Daemon::ingest_addr`).
    pub ingest: SocketAddr,
    /// GHSF fleet endpoint (`Daemon::fleet_addr`), when the node runs
    /// one.
    pub fleet: Option<SocketAddr>,
}

impl FleetEndpoint {
    /// An endpoint with no GHSF side (scoring fan-out only).
    pub fn ingest_only(ingest: SocketAddr) -> Self {
        FleetEndpoint {
            ingest,
            fleet: None,
        }
    }
}

/// Errors produced by the fleet router.
///
/// The enum is `#[non_exhaustive]`. `Partial` is the graceful
/// degradation path: it names exactly which contiguous record ranges
/// went unserved so a caller can re-drive just those.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The client was built with an empty node list.
    NoNodes,
    /// Every node was down or refused the batch.
    AllNodesDown {
        /// Tenant the batch addressed.
        tenant: String,
    },
    /// Some chunks were served, some were not: the typed partial
    /// failure. Served chunks' verdicts were discarded — re-drive the
    /// whole batch or just the missing ranges.
    Partial {
        /// Total records in the batch.
        total: usize,
        /// Unserved record ranges, as `(start, end)` half-open indices
        /// into the submitted batch, ascending and non-overlapping.
        missing: Vec<(usize, usize)>,
        /// The last per-node error seen while trying the missing
        /// ranges, for the operator.
        detail: String,
    },
    /// A single-node operation (observe) failed on the node it was
    /// routed to. The batch was **not** retried elsewhere: observation
    /// mutates the baseline, and a retry after an ambiguous failure
    /// could double-count.
    Node {
        /// The node that failed.
        node: SocketAddr,
        /// The underlying daemon-plane error.
        source: DaemonError,
    },
    /// A GHSF state query failed on one node.
    State {
        /// The node that failed.
        node: SocketAddr,
        /// The underlying comms-plane error.
        source: CommsError,
    },
    /// A state query needs nodes with GHSF endpoints, and none were
    /// configured.
    NoFleetEndpoints,
    /// A node returned state bytes that do not decode as a
    /// `StreamState`.
    BadState {
        /// The node that sent them.
        node: SocketAddr,
        /// Why they were refused.
        reason: &'static str,
    },
    /// The per-node baselines failed to merge (inconsistent or
    /// non-finite state — see `StreamState::merge`).
    Merge(DetectError),
    /// The batch (for a score, one of its chunks) encodes to a frame
    /// above the client's frame cap. It was refused before a byte was
    /// written, so no node was marked down and every connection stays
    /// usable; split the batch and resend.
    FrameTooLarge {
        /// Payload bytes the refused frame would have declared.
        declared: usize,
        /// The frame cap it exceeds.
        max: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "fleet client has no nodes"),
            FleetError::AllNodesDown { tenant } => {
                write!(f, "no fleet node could serve tenant '{tenant}'")
            }
            FleetError::Partial {
                total,
                missing,
                detail,
            } => {
                let lost: usize = missing.iter().map(|(s, e)| e - s).sum();
                write!(
                    f,
                    "partial fleet result: {lost} of {total} records unserved (ranges {missing:?}); last error: {detail}"
                )
            }
            FleetError::Node { node, source } => {
                write!(f, "fleet node {node} failed: {source}")
            }
            FleetError::State { node, source } => {
                write!(f, "state query to {node} failed: {source}")
            }
            FleetError::NoFleetEndpoints => {
                write!(f, "no node has a GHSF fleet endpoint configured")
            }
            FleetError::BadState { node, reason } => {
                write!(f, "node {node} sent an invalid baseline state: {reason}")
            }
            FleetError::Merge(e) => write!(f, "fleet baseline merge failed: {e}"),
            FleetError::FrameTooLarge { declared, max } => write!(
                f,
                "batch refused before sending: a {declared}-byte frame exceeds the {max}-byte cap"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Node { source, .. } => Some(source),
            FleetError::State { source, .. } => Some(source),
            FleetError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

/// One node's routing state.
struct Slot {
    endpoint: FleetEndpoint,
    conn: Option<DaemonClient>,
    down_until: Option<Instant>,
}

/// A router over N daemon endpoints: contiguous-chunk score fan-out
/// with ordered concatenation, round-robin observe routing, per-node
/// health/backoff, and fleet-wide baseline reduction.
pub struct FleetClient {
    slots: Vec<Slot>,
    backoff: Duration,
    node_timeout: Duration,
    failover: bool,
    rr: usize,
}

impl FleetClient {
    /// A client over the given endpoints. Connections are opened
    /// lazily, so building the client never blocks on a dead node.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] when `endpoints` is empty.
    pub fn new(endpoints: Vec<FleetEndpoint>) -> Result<Self, FleetError> {
        if endpoints.is_empty() {
            return Err(FleetError::NoNodes);
        }
        Ok(FleetClient {
            slots: endpoints
                .into_iter()
                .map(|endpoint| Slot {
                    endpoint,
                    conn: None,
                    down_until: None,
                })
                .collect(),
            backoff: DEFAULT_BACKOFF,
            node_timeout: DEFAULT_NODE_TIMEOUT,
            failover: true,
            rr: 0,
        })
    }

    /// A client over ingest addresses only (no GHSF endpoints; state
    /// queries will return [`FleetError::NoFleetEndpoints`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] when `addrs` is empty.
    pub fn over_ingest(addrs: Vec<SocketAddr>) -> Result<Self, FleetError> {
        Self::new(addrs.into_iter().map(FleetEndpoint::ingest_only).collect())
    }

    /// Overrides the down-node backoff window. `Duration::ZERO` makes
    /// failed nodes immediately eligible again (deterministic tests).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the per-node bound on each connect, write and read.
    #[must_use]
    pub fn with_node_timeout(mut self, timeout: Duration) -> Self {
        self.node_timeout = timeout;
        self
    }

    /// Enables/disables score-chunk failover. With failover off a
    /// chunk is tried only on its primary node — useful for observing
    /// deterministic partial failures.
    #[must_use]
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// How many nodes are currently eligible (not inside a backoff
    /// window).
    pub fn healthy_nodes(&self) -> usize {
        let now = Instant::now();
        self.slots.iter().filter(|s| slot_healthy(s, now)).count()
    }

    /// Scores a batch across the fleet: contiguous chunks over the
    /// healthy nodes, all in flight at once, verdicts concatenated in
    /// record order — bit-identical to one engine scoring the whole
    /// batch.
    ///
    /// # Errors
    ///
    /// [`FleetError::AllNodesDown`] when nothing was served;
    /// [`FleetError::Partial`] naming the unserved ranges when only
    /// some chunks found a node; [`FleetError::FrameTooLarge`] when a
    /// chunk does not fit in one frame.
    pub fn score(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, FleetError> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let healthy = self.healthy_indices();
        if healthy.is_empty() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        let chunk = chunk_len(records.len(), healthy.len());
        let ranges: Vec<(usize, usize)> = (0..records.len())
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(records.len())))
            .collect();
        // Attempt `a` at chunk `k` goes to healthy node `(k + a) % n`:
        // attempt 0 is the primary, and no chunk tries a node twice.
        // There are at most `n` chunks, so the primaries are distinct
        // and each connection carries at most one outstanding chunk.
        let node = |k: usize, attempt: usize| {
            healthy
                .get((k + attempt) % healthy.len())
                .copied()
                .unwrap_or_default()
        };
        let slice = |(start, end): (usize, usize)| records.get(start..end).unwrap_or_default();

        // Scatter: every chunk is written to its primary before any
        // answer is read, so the nodes score at the same time.
        let mut sent = Vec::with_capacity(ranges.len());
        for (k, &range) in ranges.iter().enumerate() {
            sent.push(self.send(node(k, 0), tenant, slice(range)));
        }
        let mut failures = Failures::default();
        let mut verdicts = Vec::with_capacity(ranges.len());
        for (k, sent) in sent.into_iter().enumerate() {
            verdicts.push(self.settle(node(k, 0), sent, &mut failures));
        }
        // Failover, one node at a time, for the chunks whose primary
        // failed. A refused chunk would be refused everywhere.
        if self.failover && failures.refused.is_none() {
            for (k, (cell, &range)) in verdicts.iter_mut().zip(&ranges).enumerate() {
                for attempt in 1..healthy.len() {
                    if cell.is_some() {
                        break;
                    }
                    let idx = node(k, attempt);
                    let sent = self.send(idx, tenant, slice(range));
                    *cell = self.settle(idx, sent, &mut failures);
                }
            }
        }
        if let Some(refused) = failures.refused {
            return Err(refused);
        }

        let missing: Vec<(usize, usize)> = ranges
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| v.is_none())
            .map(|(&range, _)| range)
            .collect();
        if missing.is_empty() {
            let mut out = Vec::with_capacity(records.len());
            for v in verdicts.into_iter().flatten() {
                out.extend(v);
            }
            return Ok(out);
        }
        let lost: usize = missing.iter().map(|(s, e)| e - s).sum();
        if lost == records.len() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        Err(FleetError::Partial {
            total: records.len(),
            missing,
            detail: failures.last,
        })
    }

    /// Observes a batch on **one** node (round-robin over the healthy
    /// set). Never retried: observation mutates that node's adaptive
    /// baseline, and a retry after an ambiguous failure could
    /// double-count records.
    ///
    /// # Errors
    ///
    /// [`FleetError::AllNodesDown`] when no node is eligible;
    /// [`FleetError::Node`] naming the node that took (and failed) the
    /// batch; [`FleetError::FrameTooLarge`] when the batch does not fit
    /// in one frame.
    pub fn observe(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, FleetError> {
        let healthy = self.healthy_indices();
        if healthy.is_empty() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        let pick = self.rr % healthy.len();
        self.rr = self.rr.wrapping_add(1);
        let Some(&slot_idx) = healthy.get(pick) else {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        };
        let node = self
            .slots
            .get(slot_idx)
            .map(|s| s.endpoint.ingest)
            .unwrap_or(([0, 0, 0, 0], 0).into());
        let answer = match self
            .conn(slot_idx)
            .and_then(|conn| conn.send_observe_batch(tenant, records))
        {
            Ok(req_id) => self
                .conn(slot_idx)
                .and_then(|conn| conn.recv_observe(req_id)),
            Err(DaemonError::FrameTooLarge { declared, max }) => {
                return Err(FleetError::FrameTooLarge { declared, max })
            }
            Err(e) => Err(e),
        };
        answer.map_err(|source| {
            if transport_failure(&source) {
                self.mark_down(slot_idx);
            }
            FleetError::Node { node, source }
        })
    }

    /// Fetches every node's exported baseline for `tenant` over GHSF
    /// and reduces them with `StreamState::merge_all` (node order =
    /// endpoint order; nodes without the tenant contribute nothing).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoFleetEndpoints`] when no node has a GHSF
    /// address; [`FleetError::State`]/[`FleetError::BadState`] for a
    /// failing or lying node; [`FleetError::Merge`] when the states
    /// don't reduce.
    pub fn fleet_state(&mut self, tenant: &str) -> Result<StreamState, FleetError> {
        let mut states: Vec<StreamState> = Vec::new();
        let mut queried = 0usize;
        for slot in &self.slots {
            let Some(fleet_addr) = slot.endpoint.fleet else {
                continue;
            };
            queried += 1;
            let mut rep = Replicator::connect_with_timeout(fleet_addr, self.node_timeout).map_err(
                |source| FleetError::State {
                    node: fleet_addr,
                    source,
                },
            )?;
            let reply = rep
                .query_state(tenant)
                .map_err(|source| FleetError::State {
                    node: fleet_addr,
                    source,
                })?;
            if let Some(bytes) = reply {
                let Ok(wire): Result<[u8; StreamState::WIRE_LEN], _> = bytes.as_slice().try_into()
                else {
                    return Err(FleetError::BadState {
                        node: fleet_addr,
                        reason: "state payload is not 40 bytes",
                    });
                };
                let state = StreamState::from_wire(&wire).map_err(|_| FleetError::BadState {
                    node: fleet_addr,
                    reason: "state bytes failed validation",
                })?;
                states.push(state);
            }
        }
        if queried == 0 {
            return Err(FleetError::NoFleetEndpoints);
        }
        StreamState::merge_all(&states).map_err(FleetError::Merge)
    }

    fn healthy_indices(&self) -> Vec<usize> {
        let now = Instant::now();
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| slot_healthy(s, now))
            .map(|(i, _)| i)
            .collect()
    }

    fn mark_down(&mut self, idx: usize) {
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.conn = None;
            slot.down_until = Some(Instant::now() + self.backoff);
        }
    }

    /// Writes `records` to node `idx` as one score batch and returns
    /// its `req_id`.
    fn send(
        &mut self,
        idx: usize,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<u64, DaemonError> {
        self.conn(idx)?.send_score_batch(tenant, records)
    }

    /// Settles one attempt at a chunk on node `idx`: reads the answer to
    /// a chunk that went out, or books why the attempt failed. A refusal
    /// raised before the send wrote a byte is the batch's fault and
    /// marks nothing down; a transport failure marks the node down.
    fn settle(
        &mut self,
        idx: usize,
        sent: Result<u64, DaemonError>,
        failures: &mut Failures,
    ) -> Option<Vec<HybridVerdict>> {
        let answer = match sent {
            Ok(req_id) => self.conn(idx).and_then(|conn| conn.recv_score(req_id)),
            Err(DaemonError::FrameTooLarge { declared, max }) => {
                failures.refused = Some(FleetError::FrameTooLarge { declared, max });
                return None;
            }
            Err(e) => Err(e),
        };
        match answer {
            Ok(verdicts) => Some(verdicts),
            Err(e) => {
                if transport_failure(&e) {
                    self.mark_down(idx);
                }
                failures.last = e.to_string();
                None
            }
        }
    }

    /// The slot's connection, opened on first use with the connect,
    /// every write and every read bounded by the node timeout.
    fn conn(&mut self, idx: usize) -> Result<&mut DaemonClient, DaemonError> {
        let timeout = self.node_timeout;
        let Some(slot) = self.slots.get_mut(idx) else {
            return Err(DaemonError::ShuttingDown);
        };
        let conn = match slot.conn.take() {
            Some(conn) => conn,
            None => DaemonClient::connect_timeout(slot.endpoint.ingest, timeout)?,
        };
        Ok(slot.conn.insert(conn))
    }
}

/// What went wrong across the attempts of one `score` call.
#[derive(Default)]
struct Failures {
    /// The last per-node error, reported as [`FleetError::Partial`]'s
    /// detail.
    last: String,
    /// The client's refusal of an oversized chunk, if any.
    refused: Option<FleetError>,
}

/// Whether an error means the node itself (or the pipe to it) is
/// unhealthy, as opposed to a well-formed protocol answer. Only
/// transport failures tar a node as down; a typed reject (unknown
/// tenant mid-deploy, momentary overload) fails over without backoff.
fn transport_failure(e: &DaemonError) -> bool {
    !matches!(e, DaemonError::Rejected { code, .. }
        if matches!(code, RejectCode::Overloaded | RejectCode::UnknownTenant))
}

fn slot_healthy(slot: &Slot, now: Instant) -> bool {
    slot.down_until.is_none_or(|until| now >= until)
}

/// Contiguous chunk width for `n` records over `nodes` healthy nodes —
/// the `ShardedEngine` rule one level up: no chunk smaller than
/// [`FLEET_MIN_CHUNK`], width = ceil(n / workers).
fn chunk_len(n: usize, nodes: usize) -> usize {
    let workers = nodes.min(n / FLEET_MIN_CHUNK).max(1);
    n.div_ceil(workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_mirrors_the_sharded_engine_rule() {
        // Below the per-node floor everything stays on one node.
        assert_eq!(chunk_len(63, 3), 63);
        assert_eq!(chunk_len(127, 3), 127);
        // At 3×64 the batch splits three ways.
        assert_eq!(chunk_len(192, 3), 64);
        assert_eq!(chunk_len(1000, 4), 250);
        // More nodes than useful chunks: width respects the floor.
        assert_eq!(chunk_len(130, 16), 65);
        assert_eq!(chunk_len(1, 8), 1);
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        assert!(matches!(
            FleetClient::over_ingest(Vec::new()),
            Err(FleetError::NoNodes)
        ));
    }

    #[test]
    fn partial_error_reports_exact_ranges() {
        let e = FleetError::Partial {
            total: 300,
            missing: vec![(100, 200)],
            detail: "connection refused".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("100 of 300"));
        assert!(text.contains("(100, 200)"));
        assert!(text.contains("connection refused"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<FleetError>();
    }

    #[test]
    fn rejects_fail_over_without_tarring_the_node() {
        assert!(!transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::UnknownTenant,
            detail: String::new()
        }));
        assert!(!transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::Overloaded,
            detail: String::new()
        }));
        assert!(transport_failure(&DaemonError::Disconnected));
        assert!(transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::Internal,
            detail: String::new()
        }));
    }
}
