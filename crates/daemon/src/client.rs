//! A small synchronous client for the GHSD protocol — used by the
//! integration tests, the soak harness and the benches, and usable as a
//! library building block for real feeders.
//!
//! [`DaemonClient::score`] and [`DaemonClient::observe`] are the simple
//! lock-step calls (send one batch, wait for its response). The
//! `send_*_batch` / [`DaemonClient::recv_response`] split exposes
//! pipelining: fire many batches without waiting, then drain responses
//! and match them back by the echoed `req_id` — which is also how a
//! flooding client observes `Overloaded` rejects interleaved with
//! verdicts for its admitted batches.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use detect::hybrid::HybridVerdict;
use detect::online::StreamVerdict;
use traffic::ConnectionRecord;

use crate::error::DaemonError;
use crate::protocol::{
    self, BatchMode, BatchRequest, FrameHeader, Request, Response, VerdictPayload,
    DEFAULT_MAX_FRAME_LEN, HEADER_LEN,
};

/// A blocking connection to a running daemon's ingest listener.
#[derive(Debug)]
pub struct DaemonClient {
    stream: TcpStream,
    next_req_id: u64,
    max_frame_len: usize,
}

impl DaemonClient {
    /// Connects to a daemon's ingest address.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, DaemonError> {
        Ok(Self::from_stream(TcpStream::connect(addr)?))
    }

    /// Connects to a daemon's ingest address with every socket wait
    /// bounded by `timeout`: the connect itself, each write and each
    /// read. A black-holed node then fails in `timeout` instead of the
    /// kernel's SYN retries, and a peer that stops reading cannot block
    /// a send forever.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the connection cannot be established in
    /// time or the socket rejects the timeouts (e.g. a zero `timeout`).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, DaemonError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self::from_stream(stream))
    }

    fn from_stream(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        DaemonClient {
            stream,
            next_req_id: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// Bounds how long [`DaemonClient::recv_response`] waits for bytes
    /// (`None` waits forever, the default).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), DaemonError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Any protocol or I/O error; [`DaemonError::UnexpectedFrame`] when
    /// the daemon answers with something other than a pong.
    pub fn ping(&mut self) -> Result<(), DaemonError> {
        let frame = protocol::encode_request(&Request::Ping)?;
        self.stream.write_all(&frame)?;
        match self.recv_response()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other, "pong")),
        }
    }

    /// Scores one batch and waits for its verdicts (lock-step).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Rejected`] carrying the server's typed reject
    /// code, or any protocol/I/O error.
    pub fn score(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, DaemonError> {
        let req_id = self.send_score_batch(tenant, records)?;
        self.recv_score(req_id)
    }

    /// Scores **and observes** one batch (folds it into the tenant's
    /// adaptive baseline) and waits for its verdicts (lock-step).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Rejected`] carrying the server's typed reject
    /// code, or any protocol/I/O error.
    pub fn observe(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, DaemonError> {
        let req_id = self.send_observe_batch(tenant, records)?;
        self.recv_observe(req_id)
    }

    /// Sends a score batch without waiting; returns its `req_id` for
    /// matching against [`DaemonClient::recv_response`] (pipelining).
    ///
    /// # Errors
    ///
    /// [`DaemonError::FrameTooLarge`] when the encoded batch exceeds the
    /// client's frame cap — raised before a byte is written, so the
    /// connection stays usable; other encoding or I/O errors.
    pub fn send_score_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<u64, DaemonError> {
        self.send_batch(tenant, records, BatchMode::Score)
    }

    /// Sends an observe batch without waiting; returns its `req_id`.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::send_score_batch`].
    pub fn send_observe_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<u64, DaemonError> {
        self.send_batch(tenant, records, BatchMode::Observe)
    }

    fn send_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
        mode: BatchMode,
    ) -> Result<u64, DaemonError> {
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
        let frame = protocol::encode_request(&Request::Batch(BatchRequest {
            req_id,
            mode,
            tenant: tenant.to_string(),
            records: records.to_vec(),
        }))?;
        // The daemon would answer an oversized frame with a closing
        // `TooLarge` reject; refusing it here keeps the connection.
        let declared = frame.len().saturating_sub(HEADER_LEN);
        if declared > self.max_frame_len {
            return Err(DaemonError::FrameTooLarge {
                declared,
                max: self.max_frame_len,
            });
        }
        self.stream.write_all(&frame)?;
        Ok(req_id)
    }

    /// Reads the next response frame off the connection, whatever it
    /// answers.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Disconnected`] when the daemon closed the
    /// connection; any header/payload decode error for hostile bytes;
    /// [`DaemonError::UnexpectedFrame`] when a *request* frame type
    /// arrives on what should be a response stream.
    pub fn recv_response(&mut self) -> Result<Response, DaemonError> {
        let mut header_bytes = [0u8; HEADER_LEN];
        recv_exact(&mut self.stream, &mut header_bytes)?;
        let header = FrameHeader::decode(&header_bytes, self.max_frame_len)?;
        if header.frame_type.is_request() {
            return Err(DaemonError::UnexpectedFrame {
                expected: "a response frame",
                found: header.frame_type.to_wire(),
            });
        }
        let mut payload = vec![0u8; header.payload_len];
        recv_exact(&mut self.stream, &mut payload)?;
        protocol::decode_response(header.frame_type, &payload)
    }

    /// Receives the hybrid verdicts answering score request `req_id`.
    pub(crate) fn recv_score(&mut self, req_id: u64) -> Result<Vec<HybridVerdict>, DaemonError> {
        match self.recv_matching(req_id)? {
            VerdictPayload::Hybrid(v) => Ok(v),
            VerdictPayload::Stream(_) => Err(DaemonError::UnexpectedFrame {
                expected: "hybrid verdicts",
                found: protocol::FrameType::Verdicts.to_wire(),
            }),
        }
    }

    /// Receives the stream verdicts answering observe request `req_id`.
    pub(crate) fn recv_observe(&mut self, req_id: u64) -> Result<Vec<StreamVerdict>, DaemonError> {
        match self.recv_matching(req_id)? {
            VerdictPayload::Stream(v) => Ok(v),
            VerdictPayload::Hybrid(_) => Err(DaemonError::UnexpectedFrame {
                expected: "stream verdicts",
                found: protocol::FrameType::Verdicts.to_wire(),
            }),
        }
    }

    /// Receives the next response and insists it answers `req_id` with
    /// verdicts; a matching reject becomes [`DaemonError::Rejected`].
    fn recv_matching(&mut self, req_id: u64) -> Result<VerdictPayload, DaemonError> {
        match self.recv_response()? {
            Response::Verdicts {
                req_id: answered,
                verdicts,
            } if answered == req_id => Ok(verdicts),
            Response::Reject(reject) => Err(DaemonError::Rejected {
                req_id: reject.req_id,
                code: reject.code,
                detail: reject.detail,
            }),
            other => Err(unexpected(&other, "verdicts for the outstanding request")),
        }
    }
}

fn unexpected(response: &Response, expected: &'static str) -> DaemonError {
    let found = match response {
        Response::Verdicts { .. } => protocol::FrameType::Verdicts,
        Response::Reject(_) => protocol::FrameType::Reject,
        Response::Pong => protocol::FrameType::Pong,
    };
    DaemonError::UnexpectedFrame {
        expected,
        found: found.to_wire(),
    }
}

/// Fills `buf` completely or explains why it could not.
///
/// Hand-rolled rather than `read_exact` so a clean peer close maps to
/// [`DaemonError::Disconnected`] without inspecting `io::ErrorKind` —
/// this helper shares the serving plane's name-reachability budget
/// through `DaemonClient::score`/`observe`, so its body is held to the
/// hot path's rules.
fn recv_exact(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), DaemonError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let slot = buf.get_mut(filled..).unwrap_or_default();
        match stream.read(slot) {
            Ok(0) => return Err(DaemonError::Disconnected),
            Ok(n) => filled += n,
            Err(e) => return Err(DaemonError::from(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_timeout_bounds_reads_and_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Whole seconds: the kernel stores socket timeouts in jiffies
        // and reads them back rounded to one.
        let timeout = Duration::from_secs(3);
        let client =
            DaemonClient::connect_timeout(listener.local_addr().unwrap(), timeout).unwrap();
        assert_eq!(client.stream.read_timeout().unwrap(), Some(timeout));
        assert_eq!(client.stream.write_timeout().unwrap(), Some(timeout));
    }
}
