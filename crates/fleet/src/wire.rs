//! Length-prefixed JSON framing and the request/response vocabulary.
//!
//! Frame layout: a 4-byte big-endian payload length followed by exactly
//! that many bytes of strict JSON (UTF-8, no trailing newline). Frames
//! above [`MAX_FRAME`] are rejected before allocation — a garbage
//! length prefix must not make the daemon reserve gigabytes.
//!
//! # Multiplexing (protocol v2)
//!
//! Every request frame is an *envelope*: the op fields plus a protocol
//! version `"v"` and a caller-assigned `u64` request id `"id"`. The id
//! tags the response, so many requests can ride one socket
//! concurrently and replies may come back in whatever order the server
//! completes them — the client's in-flight table reassembles them.
//! Endpoints reject frames that carry a different version (or none,
//! i.e. a pre-multiplexing v1 client) with a clear error instead of
//! answering out of a mixed-version conversation.
//!
//! Requests (`"op"` selects the kind; `"v"`/`"id"` shown once):
//!
//! ```text
//! {"v":2,"id":7,"op":"ping"}
//! {"op":"submit","jobs":[{<JobKind>}, ...]}     // batched submit
//! {"op":"status"}                               // whole-fleet snapshot
//! {"op":"status","job":N}                       // one job
//! {"op":"drain"}                                // finish queue, report
//! {"op":"ranking"}                              // §V merged ranking rows
//! {"op":"shutdown"}
//! ```
//!
//! Responses echo the request id: `{"id":N,"ok":true, ...}` or
//! `{"id":N,"ok":false,"error":"...","retry_after_ms":M?}` — the
//! optional backoff hint is the backpressure signal a client must honor
//! when the daemon's queue is full. A response with no id is only ever
//! an unroutable transport-level error (torn/oversize/mixed-version
//! frame, where no id could be recovered).

use std::io::{Read, Write};

use serde::{Serialize, Value};

use crate::codec;
use crate::error::FleetError;
use crate::job::{JobId, JobKind, JobStatus, RankedServer};

/// Frame-size ceiling (1 MiB): larger payloads are protocol errors.
pub const MAX_FRAME: usize = 1 << 20;

/// Wire protocol version: v2 added request-id multiplexing. Endpoints
/// reject any frame not carrying exactly this version.
pub const PROTOCOL_VERSION: u64 = 2;

/// Write one frame: 4-byte big-endian length, then the JSON payload.
pub fn write_frame(w: &mut impl Write, json: &str) -> Result<(), FleetError> {
    w.write_all(&encode_frame(json)?)?;
    w.flush()?;
    Ok(())
}

/// Encode one frame into a byte vector (prefix + payload) without
/// touching a socket — the readiness loop's write state machine needs
/// the bytes up front so it can flush them across partial writes. The
/// one place the [`MAX_FRAME`] cap is checked on the way out.
pub fn encode_frame(json: &str) -> Result<Vec<u8>, FleetError> {
    if json.len() > MAX_FRAME {
        return Err(FleetError::Protocol(format!("frame of {} bytes exceeds cap", json.len())));
    }
    let mut out = Vec::with_capacity(4 + json.len());
    out.extend_from_slice(&(json.len() as u32).to_be_bytes());
    out.extend_from_slice(json.as_bytes());
    Ok(out)
}

/// Incremental frame decoder for non-blocking reads.
///
/// Bytes arrive in whatever slices the kernel hands back — possibly a
/// single byte, possibly three frames and half a length prefix — and
/// [`extend`](FrameDecoder::extend) just buffers them.
/// [`next_frame`](FrameDecoder::next_frame) yields complete payloads in
/// order. The length prefix is validated against [`MAX_FRAME`] as soon
/// as its four bytes are present, *before* any payload is buffered, so
/// a garbage prefix cannot make the daemon reserve gigabytes; a
/// decoder error is sticky for the connection (the server replies and
/// closes, mirroring the blocking `read_frame` discipline).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefix space is reused so a
        // long-lived connection's buffer stays bounded by one frame
        // plus one read chunk.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if one is fully buffered.
    pub fn next_frame(&mut self) -> Result<Option<String>, FleetError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len_buf: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().expect("4-byte slice");
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(FleetError::Protocol(format!("frame length {len} exceeds cap")));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = std::str::from_utf8(&self.buf[start..start + len])
            .map_err(|_| FleetError::Protocol("frame is not UTF-8".to_string()))?
            .to_string();
        self.pos = start + len;
        Ok(Some(payload))
    }
}

/// Read one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FleetError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FleetError::Protocol(format!("frame length {len} exceeds cap")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| FleetError::Protocol("frame is not UTF-8".to_string()))
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a batch of jobs (the wire always carries a batch; a
    /// single submit is a batch of one).
    Submit {
        /// Jobs to enqueue, in order.
        jobs: Vec<JobKind>,
    },
    /// Snapshot of one job (`Some`) or the whole fleet (`None`).
    Status {
        /// Optional job filter.
        job: Option<u64>,
    },
    /// Stop accepting submits, run the queue dry, report the outcome.
    Drain,
    /// The §V power-preference ranking over finished Evaluate jobs.
    Ranking,
    /// Stop the daemon.
    Shutdown,
}

impl Request {
    /// Decode a request frame.
    pub fn from_json(json: &str) -> Result<Request, FleetError> {
        Self::from_value(&codec::parse(json)?)
    }

    /// Decode a request from an already-parsed frame value.
    fn from_value(v: &Value) -> Result<Request, FleetError> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| FleetError::Protocol("request lacks \"op\"".to_string()))?;
        match op {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let jobs = v
                    .get("jobs")
                    .and_then(Value::as_seq)
                    .ok_or_else(|| FleetError::Protocol("submit lacks \"jobs\"".to_string()))?
                    .iter()
                    .map(JobKind::from_value)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| FleetError::Protocol("unparseable job kind".to_string()))?;
                Ok(Request::Submit { jobs })
            }
            "status" => Ok(Request::Status { job: v.get("job").and_then(Value::as_u64) }),
            "drain" => Ok(Request::Drain),
            "ranking" => Ok(Request::Ranking),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(FleetError::Protocol(format!("unknown op {other:?}"))),
        }
    }

    /// Encode as a bare (unversioned, untagged) request payload — the
    /// op fields only. The wire always carries [`encode_envelope`]d
    /// frames; this stays public for tests and tooling.
    pub fn to_json(&self) -> Result<String, FleetError> {
        codec::encode_strict(&Value::Map(self.to_pairs()))
    }

    fn to_pairs(&self) -> Vec<(String, Value)> {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        match self {
            Request::Ping => pairs.push(("op".into(), Value::Str("ping".into()))),
            Request::Submit { jobs } => {
                pairs.push(("op".into(), Value::Str("submit".into())));
                pairs.push((
                    "jobs".into(),
                    Value::Seq(jobs.iter().map(serde::Serialize::to_value).collect()),
                ));
            }
            Request::Status { job } => {
                pairs.push(("op".into(), Value::Str("status".into())));
                if let Some(id) = job {
                    pairs.push(("job".into(), Value::UInt(*id)));
                }
            }
            Request::Drain => pairs.push(("op".into(), Value::Str("drain".into()))),
            Request::Ranking => pairs.push(("op".into(), Value::Str("ranking".into()))),
            Request::Shutdown => pairs.push(("op".into(), Value::Str("shutdown".into()))),
        }
        pairs
    }
}

/// Encode a v2 request envelope: protocol version, request id, op.
pub fn encode_envelope(id: u64, req: &Request) -> Result<String, FleetError> {
    let mut pairs =
        vec![("v".to_string(), Value::UInt(PROTOCOL_VERSION)), ("id".to_string(), Value::UInt(id))];
    pairs.extend(req.to_pairs());
    codec::encode_strict(&Value::Map(pairs))
}

/// Decode a v2 request envelope.
///
/// The outer `Err` is *unroutable*: the frame failed before an id could
/// be recovered (not JSON, wrong or missing protocol version, no id) —
/// the server can only answer with an untagged error. The inner
/// `Result` is an op-level failure on a well-formed envelope: the
/// server answers it tagged with the recovered id.
#[allow(clippy::type_complexity)]
pub fn decode_envelope(json: &str) -> Result<(u64, Result<Request, FleetError>), FleetError> {
    let v = codec::parse(json)?;
    match v.get("v").and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(FleetError::Protocol(format!(
                "protocol version mismatch: frame carries v={other}, this endpoint speaks \
                 v={PROTOCOL_VERSION}"
            )))
        }
        None => {
            return Err(FleetError::Protocol(format!(
                "protocol version mismatch: frame carries no \"v\" (pre-multiplexing v1 \
                 client?), this endpoint speaks v={PROTOCOL_VERSION}"
            )))
        }
    }
    let id = v.get("id").and_then(Value::as_u64).ok_or_else(|| {
        FleetError::Protocol("versioned frame lacks a \"id\" request id".to_string())
    })?;
    Ok((id, Request::from_value(&v)))
}

/// Tag a response body with the request id it answers. Bodies are
/// always `encode_strict` maps with at least the `"ok"` field, so the
/// id is spliced in as the first pair without a re-parse — this runs
/// once per response on the server's hot path.
pub fn attach_id(id: u64, body: &str) -> String {
    debug_assert!(body.starts_with('{') && body.len() > 2, "response bodies are non-empty maps");
    format!("{{\"id\":{id},{}", &body[1..])
}

/// Build a success response with extra fields.
pub fn ok_response(extra: Vec<(String, Value)>) -> Result<String, FleetError> {
    let mut pairs = vec![("ok".to_string(), Value::Bool(true))];
    pairs.extend(extra);
    codec::encode_strict(&Value::Map(pairs))
}

/// Build an error response; `retry_after_ms` carries backpressure.
pub fn error_response(message: &str, retry_after_ms: Option<u64>) -> String {
    let mut pairs = vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms".to_string(), Value::UInt(ms)));
    }
    // Only finite, well-formed values above: encoding cannot fail.
    codec::encode_strict(&Value::Map(pairs)).expect("error response is always encodable")
}

/// Interpret a response payload: `Ok(value)` for `{"ok":true,...}`,
/// the typed error otherwise.
pub fn decode_response(json: &str) -> Result<Value, FleetError> {
    decode_tagged_response(json)?.1
}

/// Interpret a response payload and recover the request id it answers.
///
/// The outer `Err` means the frame itself is unusable (not JSON, no
/// `"ok"`). The id is `None` only on unroutable transport-level errors
/// where the server could not recover one; the inner `Result` is the
/// response body or its typed error.
#[allow(clippy::type_complexity)]
pub fn decode_tagged_response(
    json: &str,
) -> Result<(Option<u64>, Result<Value, FleetError>), FleetError> {
    let v = codec::parse(json)?;
    let id = v.get("id").and_then(Value::as_u64);
    let body = match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        Some(false) => {
            let msg = v.get("error").and_then(Value::as_str).unwrap_or("unspecified").to_string();
            match v.get("retry_after_ms").and_then(Value::as_u64) {
                Some(retry_after_ms) => Err(FleetError::Backlog { retry_after_ms }),
                None => Err(FleetError::Remote(msg)),
            }
        }
        None => return Err(FleetError::Protocol("response lacks \"ok\"".to_string())),
    };
    Ok((id, body))
}

// --- response bodies -------------------------------------------------
//
// Each op's body has one encoder and one decoder here. The daemon and
// the router encode with them, the router and the client decode with
// them, so a body has one form in both directions.

/// An encoded success body, or the error body that reports why the
/// body does not encode (a non-finite score would poison the frame).
fn ok_or_error(extra: Vec<(String, Value)>) -> String {
    ok_response(extra).unwrap_or_else(|e| error_to_response(&e))
}

/// `{"ok":true,"accepted":N,"ids":[...]}`: the ids a submit assigned.
pub fn submit_response(ids: &[JobId]) -> String {
    ok_or_error(vec![
        ("accepted".to_string(), Value::UInt(ids.len() as u64)),
        ("ids".to_string(), ids.to_value()),
    ])
}

/// The ids of a submit response, in submission order.
pub fn decode_ids(v: &Value) -> Result<Vec<JobId>, FleetError> {
    v.get("ids")
        .and_then(Value::as_seq)
        .map(|ids| ids.iter().filter_map(Value::as_u64).collect())
        .ok_or_else(|| FleetError::Protocol("submit response lacks ids".to_string()))
}

/// `{"ok":true,"jobs":[...]}`: status and drain snapshots.
pub fn status_response(jobs: &[JobStatus]) -> String {
    ok_or_error(vec![("jobs".to_string(), jobs.to_value())])
}

/// The snapshots of a status or drain response.
pub fn decode_jobs(v: &Value) -> Result<Vec<JobStatus>, FleetError> {
    decode_seq(v, "jobs", JobStatus::from_value, "unparseable job snapshot")
}

/// `{"ok":true,"ranking":[...]}`: the §V ranking rows, best first.
pub fn ranking_response(rows: &[RankedServer]) -> String {
    ok_or_error(vec![("ranking".to_string(), rows.to_value())])
}

/// The rows of a ranking response.
pub fn decode_ranking(v: &Value) -> Result<Vec<RankedServer>, FleetError> {
    decode_seq(v, "ranking", RankedServer::from_value, "unparseable ranking row")
}

fn decode_seq<T>(
    v: &Value,
    key: &str,
    item: fn(&Value) -> Option<T>,
    unparseable: &str,
) -> Result<Vec<T>, FleetError> {
    v.get(key)
        .and_then(Value::as_seq)
        .ok_or_else(|| FleetError::Protocol(format!("response lacks {key}")))?
        .iter()
        .map(|x| item(x).ok_or_else(|| FleetError::Protocol(unparseable.to_string())))
        .collect()
}

/// `{"ok":true,"stopping":true}`: the shutdown acknowledgement.
pub fn shutdown_response() -> String {
    ok_or_error(vec![("stopping".to_string(), Value::Bool(true))])
}

/// The error body for `e`; a backlog keeps its retry hint, which is
/// how [`decode_tagged_response`] turns it back into
/// [`FleetError::Backlog`].
pub fn error_to_response(e: &FleetError) -> String {
    match e {
        FleetError::Backlog { retry_after_ms } => {
            error_response("queue full", Some(*retry_after_ms))
        }
        other => error_response(&other.to_string(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "{\"op\":\"drain\"}").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"op\":\"drain\"}");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn decoder_reassembles_frames_from_single_byte_slices() {
        let mut stream = Vec::new();
        write_frame(&mut stream, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut stream, "{\"op\":\"ranking\"}").unwrap();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, ["{\"op\":\"ping\"}", "{\"op\":\"ranking\"}"]);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_rejects_oversize_prefix_before_payload_arrives() {
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(FleetError::Protocol(_))));
    }

    #[test]
    fn decoder_waits_on_torn_length_prefix() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 2);
    }

    #[test]
    fn oversize_length_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"junk");
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FleetError::Protocol(_))));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Submit {
                jobs: vec![
                    JobKind::Evaluate { server: "xeon-e5462".into(), seed: 1 },
                    JobKind::Green500 { server: "xeon-4870".into() },
                    JobKind::Tune {
                        server: "opteron-8347".into(),
                        kernel: "dgemm".into(),
                        freq_state: 2,
                        processes: 16,
                        seed: 42,
                    },
                ],
            },
            Request::Status { job: None },
            Request::Status { job: Some(4) },
            Request::Drain,
            Request::Ranking,
            Request::Shutdown,
        ];
        for req in reqs {
            let json = req.to_json().unwrap();
            assert_eq!(Request::from_json(&json).unwrap(), req, "{json}");
        }
    }

    #[test]
    fn envelopes_round_trip_with_their_ids() {
        for (id, req) in [
            (0u64, Request::Ping),
            (7, Request::Status { job: Some(3) }),
            (u64::MAX, Request::Drain),
        ] {
            let json = encode_envelope(id, &req).unwrap();
            let (got_id, got) = decode_envelope(&json).unwrap();
            assert_eq!(got_id, id, "{json}");
            assert_eq!(got.unwrap(), req, "{json}");
        }
    }

    #[test]
    fn mixed_version_frames_are_rejected_with_a_clear_error() {
        // v1 (unversioned) frame: rejected before the op is looked at.
        let err = decode_envelope("{\"op\":\"ping\"}").unwrap_err();
        assert!(err.to_string().contains("protocol version mismatch"), "{err}");
        assert!(err.to_string().contains("v1"), "names the suspected culprit: {err}");
        // A future/other version is named explicitly.
        let err = decode_envelope("{\"v\":3,\"id\":1,\"op\":\"ping\"}").unwrap_err();
        assert!(err.to_string().contains("v=3"), "{err}");
        assert!(err.to_string().contains("v=2"), "{err}");
        // Right version, no id: also unroutable.
        let err = decode_envelope("{\"v\":2,\"op\":\"ping\"}").unwrap_err();
        assert!(err.to_string().contains("request id"), "{err}");
    }

    #[test]
    fn op_errors_on_valid_envelopes_keep_the_id() {
        let (id, req) = decode_envelope("{\"v\":2,\"id\":9,\"op\":\"fly\"}").unwrap();
        assert_eq!(id, 9);
        assert!(matches!(req, Err(FleetError::Protocol(_))));
    }

    #[test]
    fn attach_id_tags_any_encoded_body() {
        let ok = ok_response(vec![("accepted".into(), Value::UInt(3))]).unwrap();
        let (id, body) = decode_tagged_response(&attach_id(42, &ok)).unwrap();
        assert_eq!(id, Some(42));
        assert_eq!(body.unwrap().get("accepted").unwrap().as_u64(), Some(3));

        let backlog = attach_id(7, &error_response("queue full", Some(25)));
        let (id, body) = decode_tagged_response(&backlog).unwrap();
        assert_eq!(id, Some(7));
        assert!(matches!(body, Err(FleetError::Backlog { retry_after_ms: 25 })));

        // Untagged errors (unroutable frames) decode with no id.
        let (id, body) = decode_tagged_response(&error_response("torn", None)).unwrap();
        assert_eq!(id, None);
        assert!(matches!(body, Err(FleetError::Remote(_))));
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in ["{}", "{\"op\":\"fly\"}", "{\"op\":\"submit\"}", "not json"] {
            assert!(matches!(Request::from_json(bad), Err(FleetError::Protocol(_))), "{bad}");
        }
    }

    #[test]
    fn responses_decode_to_ok_or_typed_errors() {
        let ok = ok_response(vec![("accepted".into(), Value::UInt(3))]).unwrap();
        assert_eq!(decode_response(&ok).unwrap().get("accepted").unwrap().as_u64(), Some(3));

        let backlog = error_response("queue full", Some(25));
        assert!(matches!(
            decode_response(&backlog),
            Err(FleetError::Backlog { retry_after_ms: 25 })
        ));

        let plain = error_response("unknown server", None);
        assert!(matches!(decode_response(&plain), Err(FleetError::Remote(_))));
    }

    #[test]
    fn op_bodies_round_trip_through_their_decoders() {
        let ids = [3, 0, 7];
        assert_eq!(decode_ids(&decode_response(&submit_response(&ids)).unwrap()).unwrap(), ids);

        let degraded = JobStatus {
            id: 4,
            kind: "evaluate".into(),
            server: "Xeon-4870".into(),
            state: "Degraded".into(),
            attempts: 2,
            rows_done: 6,
            total_steps: 10,
            score: Some(0.25),
            degraded: true,
            notes: vec!["partial".into()],
        };
        let queued = JobStatus { score: None, state: "Queued".into(), ..degraded.clone() };
        let jobs = [degraded, queued];
        assert_eq!(decode_jobs(&decode_response(&status_response(&jobs)).unwrap()).unwrap(), jobs);

        let rows = [RankedServer { server: "Xeon-E5462".into(), ppw: 0.06, degraded: true }];
        assert_eq!(
            decode_ranking(&decode_response(&ranking_response(&rows)).unwrap()).unwrap(),
            rows
        );

        let backlog = error_to_response(&FleetError::Backlog { retry_after_ms: 25 });
        assert!(matches!(
            decode_response(&backlog),
            Err(FleetError::Backlog { retry_after_ms: 25 })
        ));
        // A body that cannot be encoded reports itself instead.
        let nan = [RankedServer { ppw: f64::NAN, ..rows[0].clone() }];
        assert!(matches!(decode_response(&ranking_response(&nan)), Err(FleetError::Remote(_))));
    }
}
