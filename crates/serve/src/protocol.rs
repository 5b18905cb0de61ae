//! The `mpx serve` wire protocol: length-prefixed binary frames.
//!
//! Full byte-level specification lives in `docs/PROTOCOL.md`; this module
//! is its executable form. The contract the server's robustness suite
//! pins: **decoding never panics** — every malformed input is a typed
//! [`WireError`], which the server converts into an [`ErrorReply`] (or a
//! connection close when framing itself can no longer be trusted).
//!
//! A frame is a 12-byte header followed by a payload, all multi-byte
//! fields little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic: the ASCII bytes "MPXS"
//! 4       2     version: u16, currently 1
//! 6       2     kind: u16 (see FrameKind)
//! 8       4     payload_len: u32, at most MAX_PAYLOAD
//! 12      …     payload (payload_len bytes)
//! ```

use mpx_decomp::{Determinism, Traversal};
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame in either direction.
pub const MAGIC: [u8; 4] = *b"MPXS";

/// Protocol version. A server rejects frames carrying any other value
/// with [`ErrorCode::BadVersion`]; see `docs/PROTOCOL.md` for the
/// versioning rules.
pub const VERSION: u16 = 1;

/// Frame header length in bytes (magic + version + kind + payload_len).
pub const FRAME_HEADER_LEN: usize = 12;

/// Hard upper bound on a frame payload (256 MiB). Large enough for the
/// label array of the biggest supported snapshot, small enough that a
/// hostile length field cannot OOM the peer.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Fixed size of an encoded [`PartitionRequest`] payload.
pub const PARTITION_REQUEST_LEN: usize = 32;

/// Fixed prefix size of an encoded [`PartitionReply`] payload (labels,
/// when present, follow as `n` little-endian u32s).
pub const PARTITION_REPLY_LEN: usize = 64;

/// Fixed size of an encoded [`StatsReply`] payload.
pub const STATS_REPLY_LEN: usize = 80;

/// Frame kinds. Requests are < 128, replies ≥ 128.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: run one decomposition ([`PartitionRequest`]).
    Partition,
    /// Client → server: report server counters (empty payload).
    Stats,
    /// Client → server: drain and stop the server (empty payload).
    Shutdown,
    /// Server → client: a successful decomposition ([`PartitionReply`]).
    PartitionReply,
    /// Server → client: current counters ([`StatsReply`]).
    StatsReply,
    /// Server → client: shutdown acknowledged (empty payload).
    ShutdownReply,
    /// Server → client: a typed error ([`ErrorReply`]).
    Error,
}

impl FrameKind {
    /// Wire discriminant of this kind.
    pub fn as_u16(self) -> u16 {
        match self {
            FrameKind::Partition => 1,
            FrameKind::Stats => 2,
            FrameKind::Shutdown => 3,
            FrameKind::PartitionReply => 129,
            FrameKind::StatsReply => 130,
            FrameKind::ShutdownReply => 131,
            FrameKind::Error => 255,
        }
    }

    /// Parses a wire discriminant; `None` for unknown kinds.
    pub fn from_u16(v: u16) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Partition,
            2 => FrameKind::Stats,
            3 => FrameKind::Shutdown,
            129 => FrameKind::PartitionReply,
            130 => FrameKind::StatsReply,
            131 => FrameKind::ShutdownReply,
            255 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Typed error codes carried by [`ErrorReply`] frames.
///
/// The first group (`BadMagic`…`Truncated`) means framing itself is
/// broken: the server replies once and then **closes the connection**
/// (byte-stream resynchronization is impossible). The second group
/// (`BadKind`…`ShuttingDown`) is a per-request failure: the connection
/// stays open and the next frame is processed normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame did not start with [`MAGIC`].
    BadMagic,
    /// Frame version is not [`VERSION`].
    BadVersion,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// The connection closed mid-frame.
    Truncated,
    /// Unknown or inapplicable frame kind (e.g. a reply kind sent to the
    /// server).
    BadKind,
    /// Payload bytes do not decode as the kind's payload struct.
    BadPayload,
    /// Request named a snapshot id the server does not hold.
    UnknownSnapshot,
    /// Request configuration failed validation (bad beta, graph too
    /// large, …).
    InvalidConfig,
    /// Admission control: the session queue is full. Retry later.
    Overloaded,
    /// The server is draining; the request was not run.
    ShuttingDown,
    /// The decomposition ran but failed the server-side verification.
    VerifyFailed,
    /// Unexpected internal failure.
    Internal,
}

impl ErrorCode {
    /// Wire discriminant of this code.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::Oversized => 3,
            ErrorCode::Truncated => 4,
            ErrorCode::BadKind => 5,
            ErrorCode::BadPayload => 6,
            ErrorCode::UnknownSnapshot => 7,
            ErrorCode::InvalidConfig => 8,
            ErrorCode::Overloaded => 9,
            ErrorCode::ShuttingDown => 10,
            ErrorCode::VerifyFailed => 11,
            ErrorCode::Internal => 12,
        }
    }

    /// Parses a wire discriminant; `None` for unknown codes.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::Oversized,
            4 => ErrorCode::Truncated,
            5 => ErrorCode::BadKind,
            6 => ErrorCode::BadPayload,
            7 => ErrorCode::UnknownSnapshot,
            8 => ErrorCode::InvalidConfig,
            9 => ErrorCode::Overloaded,
            10 => ErrorCode::ShuttingDown,
            11 => ErrorCode::VerifyFailed,
            12 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Canonical lower-case token (stable; used in logs and loadgen JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Truncated => "truncated",
            ErrorCode::BadKind => "bad_kind",
            ErrorCode::BadPayload => "bad_payload",
            ErrorCode::UnknownSnapshot => "unknown_snapshot",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::VerifyFailed => "verify_failed",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Decode-side failure, produced by [`read_frame`] and the payload
/// decoders. Every variant maps onto an [`ErrorCode`] via
/// [`WireError::code`]; `Closed` and `Io` have no wire representation
/// (there is no peer left to tell).
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Underlying socket error.
    Io(io::Error),
    /// Frame did not start with [`MAGIC`].
    BadMagic,
    /// Frame version field was not [`VERSION`].
    BadVersion(u16),
    /// Unknown frame-kind discriminant.
    BadKind(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The connection closed mid-frame (header or payload incomplete).
    Truncated,
    /// Payload bytes do not decode as the expected struct.
    BadPayload(String),
}

impl WireError {
    /// The [`ErrorCode`] a server replies with for this failure, if any.
    pub fn code(&self) -> Option<ErrorCode> {
        Some(match self {
            WireError::Closed | WireError::Io(_) => return None,
            WireError::BadMagic => ErrorCode::BadMagic,
            WireError::BadVersion(_) => ErrorCode::BadVersion,
            WireError::BadKind(_) => ErrorCode::BadKind,
            WireError::Oversized(_) => ErrorCode::Oversized,
            WireError::Truncated => ErrorCode::Truncated,
            WireError::BadPayload(_) => ErrorCode::BadPayload,
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::BadMagic => write!(f, "bad frame magic (expected \"MPXS\")"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(len) => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A decomposition request (kind [`FrameKind::Partition`]). Fixed
/// 32-byte payload:
///
/// ```text
/// 0   u32  snapshot id (index into the server's snapshot list)
/// 4   u64  seed
/// 12  f64  beta
/// 20  u8   traversal  (0 auto | 1 parallel; 2 and 3 are accepted as
///              1 and 0, see [`traversal_from_code`])
/// 21  u8   determinism (0 bitexact | 1 fast)
/// 22  u8   flags (bit 0 = return labels, bit 1 = skip verification;
///              other bits must be zero)
/// 23  u8   reserved, must be zero
/// 24  u64  reserved, must be zero
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionRequest {
    /// Index of the snapshot to decompose (server load order).
    pub snapshot: u32,
    /// RNG seed for the exponential shifts.
    pub seed: u64,
    /// Decomposition parameter β.
    pub beta: f64,
    /// Engine traversal strategy (wall-clock knob).
    pub traversal: Traversal,
    /// Scheduler choice (wall-clock knob).
    pub determinism: Determinism,
    /// Return the per-vertex label array in the reply.
    pub want_labels: bool,
    /// Skip the server-side verification pass.
    pub skip_verify: bool,
}

impl PartitionRequest {
    /// A request with the given snapshot/seed/beta and every knob at its
    /// default (auto traversal, bit-exact, no labels, verify on).
    pub fn new(snapshot: u32, seed: u64, beta: f64) -> Self {
        PartitionRequest {
            snapshot,
            seed,
            beta,
            traversal: Traversal::Auto,
            determinism: Determinism::BitExact,
            want_labels: false,
            skip_verify: false,
        }
    }

    /// Encodes this request as its fixed 32-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PARTITION_REQUEST_LEN);
        out.extend_from_slice(&self.snapshot.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.beta.to_le_bytes());
        out.push(traversal_code(self.traversal));
        out.push(determinism_code(self.determinism));
        out.push(u8::from(self.want_labels) | (u8::from(self.skip_verify) << 1));
        out.push(0);
        out.extend_from_slice(&0u64.to_le_bytes());
        debug_assert_eq!(out.len(), PARTITION_REQUEST_LEN);
        out
    }

    /// Decodes a request payload, rejecting wrong lengths, unknown enum
    /// codes, undefined flag bits and nonzero reserved fields.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() != PARTITION_REQUEST_LEN {
            return Err(WireError::BadPayload(format!(
                "partition request must be {PARTITION_REQUEST_LEN} bytes, got {}",
                payload.len()
            )));
        }
        let snapshot = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        let seed = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        let beta = f64::from_le_bytes(payload[12..20].try_into().unwrap());
        let traversal = traversal_from_code(payload[20]).ok_or_else(|| {
            WireError::BadPayload(format!("unknown traversal code {}", payload[20]))
        })?;
        let determinism = determinism_from_code(payload[21]).ok_or_else(|| {
            WireError::BadPayload(format!("unknown determinism code {}", payload[21]))
        })?;
        let flags = payload[22];
        if flags & !0b11 != 0 {
            return Err(WireError::BadPayload(format!(
                "undefined request flag bits {flags:#04x}"
            )));
        }
        if payload[23] != 0 || payload[24..32] != [0u8; 8] {
            return Err(WireError::BadPayload("nonzero reserved bytes".into()));
        }
        Ok(PartitionRequest {
            snapshot,
            seed,
            beta,
            traversal,
            determinism,
            want_labels: flags & 1 != 0,
            skip_verify: flags & 2 != 0,
        })
    }
}

/// A successful decomposition (kind [`FrameKind::PartitionReply`]).
/// 64-byte fixed prefix, then `n` u32 labels when `has_labels`:
///
/// ```text
/// 0   u32  snapshot id (echoed)
/// 4   u64  seed (echoed)
/// 12  u64  n (vertex count)
/// 20  u64  clusters
/// 28  f64  max cluster radius (integer-valued for unweighted graphs)
/// 36  u64  cut edges
/// 44  u64  rounds (unweighted) / Δ-stepping phases (weighted)
/// 52  u64  edge relaxations
/// 60  u8   weighted (0 | 1)
/// 61  u8   verify  (0 = skipped, 1 = passed; failures are Error replies)
/// 62  u8   has_labels (0 | 1)
/// 63  u8   reserved, zero
/// 64  u32[n]  labels (center id per vertex) — only when has_labels = 1
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionReply {
    /// Snapshot id the decomposition ran on.
    pub snapshot: u32,
    /// Seed the decomposition ran with.
    pub seed: u64,
    /// Vertex count of the snapshot.
    pub n: u64,
    /// Number of clusters formed.
    pub clusters: u64,
    /// Maximum cluster radius (hop count for unweighted snapshots,
    /// weighted distance for weighted ones).
    pub max_radius: f64,
    /// Undirected edges with endpoints in different clusters.
    pub cut_edges: u64,
    /// Engine rounds (unweighted) or Δ-stepping phases (weighted).
    pub rounds: u64,
    /// Edge relaxations performed.
    pub relaxations: u64,
    /// True if the snapshot is weighted.
    pub weighted: bool,
    /// True if the server-side verification ran (and passed — a failing
    /// verification is reported as [`ErrorCode::VerifyFailed`] instead).
    pub verified: bool,
    /// Per-vertex center labels, present when the request asked for them.
    pub labels: Option<Vec<u32>>,
}

impl PartitionReply {
    /// Encodes this reply as its payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let labels_len = self.labels.as_ref().map_or(0, |l| 4 * l.len());
        let mut out = Vec::with_capacity(PARTITION_REPLY_LEN + labels_len);
        out.extend_from_slice(&self.snapshot.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.clusters.to_le_bytes());
        out.extend_from_slice(&self.max_radius.to_le_bytes());
        out.extend_from_slice(&self.cut_edges.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.extend_from_slice(&self.relaxations.to_le_bytes());
        out.push(u8::from(self.weighted));
        out.push(u8::from(self.verified));
        out.push(u8::from(self.labels.is_some()));
        out.push(0);
        if let Some(labels) = &self.labels {
            for &l in labels {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a reply payload, checking the label array length against
    /// the declared vertex count and rejecting flag bytes outside
    /// {0, 1} and a nonzero reserved byte.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() < PARTITION_REPLY_LEN {
            return Err(WireError::BadPayload(format!(
                "partition reply prefix must be {PARTITION_REPLY_LEN} bytes, got {}",
                payload.len()
            )));
        }
        let flag = |offset: usize, name: &str| match payload[offset] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadPayload(format!(
                "partition reply {name} byte must be 0 or 1, got {b}"
            ))),
        };
        let weighted = flag(60, "weighted")?;
        let verified = flag(61, "verify")?;
        let has_labels = flag(62, "has_labels")?;
        if payload[63] != 0 {
            return Err(WireError::BadPayload("nonzero reserved byte".into()));
        }
        let n = u64::from_le_bytes(payload[12..20].try_into().unwrap());
        let expected_len = if has_labels {
            usize::try_from(n)
                .ok()
                .and_then(|n| n.checked_mul(4))
                .and_then(|len| len.checked_add(PARTITION_REPLY_LEN))
        } else {
            Some(PARTITION_REPLY_LEN)
        };
        if expected_len != Some(payload.len()) {
            return Err(WireError::BadPayload(format!(
                "partition reply length {} does not hold n = {n} labels",
                payload.len()
            )));
        }
        let labels = has_labels.then(|| {
            payload[PARTITION_REPLY_LEN..]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        });
        Ok(PartitionReply {
            snapshot: u32::from_le_bytes(payload[0..4].try_into().unwrap()),
            seed: u64::from_le_bytes(payload[4..12].try_into().unwrap()),
            n,
            clusters: u64::from_le_bytes(payload[20..28].try_into().unwrap()),
            max_radius: f64::from_le_bytes(payload[28..36].try_into().unwrap()),
            cut_edges: u64::from_le_bytes(payload[36..44].try_into().unwrap()),
            rounds: u64::from_le_bytes(payload[44..52].try_into().unwrap()),
            relaxations: u64::from_le_bytes(payload[52..60].try_into().unwrap()),
            weighted,
            verified,
            labels,
        })
    }
}

/// Server counters (kind [`FrameKind::StatsReply`]). Fixed 80-byte
/// payload; see `docs/PROTOCOL.md` for the layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Configured worker-session count of the pool.
    pub workers: u32,
    /// Configured admission-queue depth.
    pub queue_depth: u32,
    /// Sessions checked out right now.
    pub in_flight: u32,
    /// High-water mark of concurrently checked-out sessions.
    pub in_flight_hwm: u32,
    /// Requests currently waiting in the admission queue.
    pub waiting: u32,
    /// High-water mark of the admission queue.
    pub waiting_hwm: u32,
    /// Connections accepted since start.
    pub connections: u64,
    /// Partition requests served successfully.
    pub served: u64,
    /// Requests rejected by admission control ([`ErrorCode::Overloaded`]).
    pub rejected_overload: u64,
    /// Queued requests released by a drain ([`ErrorCode::ShuttingDown`]).
    pub drained: u64,
    /// Framing-level protocol errors observed.
    pub protocol_errors: u64,
    /// Total successful session checkouts.
    pub checkouts: u64,
    /// Number of snapshots the server holds.
    pub snapshots: u32,
}

impl StatsReply {
    /// Encodes this stats report as its fixed 80-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(STATS_REPLY_LEN);
        out.extend_from_slice(&self.workers.to_le_bytes());
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out.extend_from_slice(&self.in_flight.to_le_bytes());
        out.extend_from_slice(&self.in_flight_hwm.to_le_bytes());
        out.extend_from_slice(&self.waiting.to_le_bytes());
        out.extend_from_slice(&self.waiting_hwm.to_le_bytes());
        out.extend_from_slice(&self.connections.to_le_bytes());
        out.extend_from_slice(&self.served.to_le_bytes());
        out.extend_from_slice(&self.rejected_overload.to_le_bytes());
        out.extend_from_slice(&self.drained.to_le_bytes());
        out.extend_from_slice(&self.protocol_errors.to_le_bytes());
        out.extend_from_slice(&self.checkouts.to_le_bytes());
        out.extend_from_slice(&self.snapshots.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        debug_assert_eq!(out.len(), STATS_REPLY_LEN);
        out
    }

    /// Decodes a stats payload, rejecting nonzero reserved bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() != STATS_REPLY_LEN {
            return Err(WireError::BadPayload(format!(
                "stats reply must be {STATS_REPLY_LEN} bytes, got {}",
                payload.len()
            )));
        }
        if payload[76..80] != [0u8; 4] {
            return Err(WireError::BadPayload("nonzero reserved bytes".into()));
        }
        let u32_at = |o: usize| u32::from_le_bytes(payload[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
        Ok(StatsReply {
            workers: u32_at(0),
            queue_depth: u32_at(4),
            in_flight: u32_at(8),
            in_flight_hwm: u32_at(12),
            waiting: u32_at(16),
            waiting_hwm: u32_at(20),
            connections: u64_at(24),
            served: u64_at(32),
            rejected_overload: u64_at(40),
            drained: u64_at(48),
            protocol_errors: u64_at(56),
            checkouts: u64_at(64),
            snapshots: u32_at(72),
        })
    }
}

/// A typed error (kind [`FrameKind::Error`]): `u16` code, `u16` message
/// length, UTF-8 message bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// What went wrong.
    pub code: ErrorCode,
    /// Human-readable detail (safe to log; never required for dispatch).
    pub message: String,
}

impl ErrorReply {
    /// An error reply with the given code and message (truncated to
    /// `u16::MAX` bytes).
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        let mut message: String = message.into();
        if message.len() > u16::MAX as usize {
            message.truncate(u16::MAX as usize);
        }
        ErrorReply { code, message }
    }

    /// Encodes this error as its payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let len = msg.len().min(u16::MAX as usize);
        let mut out = Vec::with_capacity(4 + len);
        out.extend_from_slice(&self.code.as_u16().to_le_bytes());
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&msg[..len]);
        out
    }

    /// Decodes an error payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() < 4 {
            return Err(WireError::BadPayload(
                "error reply shorter than 4 bytes".into(),
            ));
        }
        let code_raw = u16::from_le_bytes(payload[0..2].try_into().unwrap());
        let code = ErrorCode::from_u16(code_raw)
            .ok_or_else(|| WireError::BadPayload(format!("unknown error code {code_raw}")))?;
        let msg_len = u16::from_le_bytes(payload[2..4].try_into().unwrap()) as usize;
        if payload.len() != 4 + msg_len {
            return Err(WireError::BadPayload(format!(
                "error reply length {} != 4 + declared {msg_len}",
                payload.len()
            )));
        }
        let message = String::from_utf8_lossy(&payload[4..]).into_owned();
        Ok(ErrorReply { code, message })
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// Wire code of a [`Traversal`] (stable; part of the v1 protocol). Only
/// 0 and 1 are ever emitted.
pub fn traversal_code(t: Traversal) -> u8 {
    match t {
        Traversal::Auto => 0,
        Traversal::TopDownPar => 1,
    }
}

/// Parses a [`Traversal`] wire code; `None` for unknown codes.
///
/// Codes are append-only within a protocol version, so 2 (the retired
/// all-inline top-down strategy) and 3 (the retired pure bottom-up one)
/// stay valid. They are served as 1 (`parallel`) and 0 (`auto`): under
/// [`Determinism::BitExact`] labels never depend on the strategy, so the
/// replies carry the labels the retired strategies returned.
pub fn traversal_from_code(c: u8) -> Option<Traversal> {
    Some(match c {
        0 | 3 => Traversal::Auto,
        1 | 2 => Traversal::TopDownPar,
        _ => return None,
    })
}

/// Wire code of a [`Determinism`] (stable; part of the v1 protocol).
pub fn determinism_code(d: Determinism) -> u8 {
    match d {
        Determinism::BitExact => 0,
        Determinism::Fast => 1,
    }
}

/// Parses a [`Determinism`] wire code; `None` for unknown codes.
pub fn determinism_from_code(c: u8) -> Option<Determinism> {
    Some(match c {
        0 => Determinism::BitExact,
        1 => Determinism::Fast,
        _ => return None,
    })
}

/// Writes one frame: header + payload, then flushes.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload exceeds MAX_PAYLOAD"
    );
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&kind.as_u16().to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame with blocking reads: validates magic, version, kind
/// and payload cap before reading the payload. A clean close *between*
/// frames is [`WireError::Closed`]; a close *inside* a frame is
/// [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    let (kind, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    Ok((kind, payload))
}

/// Validates the framing fields of a 12-byte header — magic, version,
/// payload cap — returning the raw (unvalidated) kind and the payload
/// length. Servers use this so an unknown kind can still have its
/// payload consumed (keeping the byte stream in sync) before the typed
/// `bad_kind` reply.
pub fn parse_header_prefix(header: &[u8; FRAME_HEADER_LEN]) -> Result<(u16, usize), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let kind_raw = u16::from_le_bytes(header[6..8].try_into().unwrap());
    Ok((kind_raw, len as usize))
}

/// Validates a 12-byte frame header, returning the kind and payload
/// length.
pub fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<(FrameKind, usize), WireError> {
    let (kind_raw, len) = parse_header_prefix(header)?;
    let kind = FrameKind::from_u16(kind_raw).ok_or(WireError::BadKind(kind_raw))?;
    Ok((kind, len))
}

/// `read_exact` that distinguishes a clean EOF at offset zero
/// (`Closed`, only when `eof_ok_at_start`) from a mid-buffer EOF
/// (`Truncated`).
fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_ok_at_start: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && eof_ok_at_start {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_request_roundtrip() {
        let mut req = PartitionRequest::new(3, 0xDEAD_BEEF, 0.25);
        req.traversal = Traversal::TopDownPar;
        req.determinism = Determinism::Fast;
        req.want_labels = true;
        let enc = req.encode();
        assert_eq!(enc.len(), PARTITION_REQUEST_LEN);
        assert_eq!(PartitionRequest::decode(&enc).unwrap(), req);
    }

    #[test]
    fn partition_request_rejects_garbage() {
        let req = PartitionRequest::new(0, 1, 0.5);
        let mut enc = req.encode();
        enc[20] = 9; // unknown traversal
        assert!(matches!(
            PartitionRequest::decode(&enc),
            Err(WireError::BadPayload(_))
        ));
        let mut enc = req.encode();
        enc[22] = 0b100; // undefined flag bit
        assert!(matches!(
            PartitionRequest::decode(&enc),
            Err(WireError::BadPayload(_))
        ));
        let mut enc = req.encode();
        enc[25] = 1; // reserved byte
        assert!(matches!(
            PartitionRequest::decode(&enc),
            Err(WireError::BadPayload(_))
        ));
        assert!(matches!(
            PartitionRequest::decode(&enc[..30]),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn partition_reply_roundtrip_with_labels() {
        let reply = PartitionReply {
            snapshot: 1,
            seed: 7,
            n: 4,
            clusters: 2,
            max_radius: 3.5,
            cut_edges: 5,
            rounds: 9,
            relaxations: 100,
            weighted: true,
            verified: true,
            labels: Some(vec![0, 0, 3, 3]),
        };
        let enc = reply.encode();
        assert_eq!(PartitionReply::decode(&enc).unwrap(), reply);
        // Label array length must match the declared n.
        assert!(matches!(
            PartitionReply::decode(&enc[..enc.len() - 4]),
            Err(WireError::BadPayload(_))
        ));
        let bare = PartitionReply {
            labels: None,
            ..reply
        }
        .encode();
        let corrupt = |offset: usize, bytes: &[u8]| {
            let mut bad = bare.clone();
            bad[offset..offset + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let mut malformed = vec![
            corrupt(63, &[7]),   // reserved byte
            corrupt(60, &[9]),   // weighted outside {0, 1}
            corrupt(61, &[200]), // verify outside {0, 1}
        ];
        // A label count whose byte length overflows must not panic or wrap.
        for n in [1u64 << 62, u64::MAX] {
            let mut bad = corrupt(12, &n.to_le_bytes());
            bad[62] = 1;
            malformed.push(bad);
        }
        for bad in malformed {
            assert!(matches!(
                PartitionReply::decode(&bad),
                Err(WireError::BadPayload(_))
            ));
        }
    }

    #[test]
    fn stats_and_error_roundtrip() {
        let stats = StatsReply {
            workers: 4,
            queue_depth: 8,
            served: 123,
            snapshots: 2,
            ..StatsReply::default()
        };
        assert_eq!(StatsReply::decode(&stats.encode()).unwrap(), stats);
        for offset in 76..80 {
            let mut bad = stats.encode();
            bad[offset] = 1;
            assert!(matches!(
                StatsReply::decode(&bad),
                Err(WireError::BadPayload(_))
            ));
        }
        let err = ErrorReply::new(ErrorCode::Overloaded, "queue full (8 waiting)");
        assert_eq!(ErrorReply::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn frame_roundtrip_and_header_validation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stats, &[]).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Stats);
        assert!(payload.is_empty());

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadMagic)
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadVersion(_))
        ));
        let mut bad = buf.clone();
        bad[6] = 77;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadKind(77))
        ));
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::Oversized(_))
        ));
        // Truncated header vs clean close.
        assert!(matches!(
            read_frame(&mut &buf[..5]),
            Err(WireError::Truncated)
        ));
        assert!(matches!(read_frame(&mut &buf[..0]), Err(WireError::Closed)));
    }

    #[test]
    fn enum_codes_roundtrip() {
        for t in [Traversal::Auto, Traversal::TopDownPar] {
            assert_eq!(traversal_from_code(traversal_code(t)), Some(t));
        }
        // The retired codes decode to the strategies that serve them.
        assert_eq!(traversal_from_code(2), Some(Traversal::TopDownPar));
        assert_eq!(traversal_from_code(3), Some(Traversal::Auto));
        assert_eq!(traversal_from_code(4), None);
        for d in [Determinism::BitExact, Determinism::Fast] {
            assert_eq!(determinism_from_code(determinism_code(d)), Some(d));
        }
        for code in 1..=12u16 {
            let c = ErrorCode::from_u16(code).unwrap();
            assert_eq!(c.as_u16(), code);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(13), None);
    }
}
