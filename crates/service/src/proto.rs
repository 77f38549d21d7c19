//! Wire protocol: length-prefixed JSON-RPC 2.0 framing and the service's
//! strict error taxonomy.
//!
//! ## Framing
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The length prefix makes truncation and oversize detectable *before*
//! parsing, so a hostile or broken peer maps to a precise protocol error
//! instead of a parser guess. [`FrameReader`] is an incremental state
//! machine: it tolerates arbitrarily fragmented reads (slow writers, read
//! timeouts used as liveness ticks) and never blocks the caller beyond a
//! single `read`.
//!
//! ## Error taxonomy
//!
//! [`ErrorCode`] pins every failure class to a JSON-RPC error code. The
//! standard codes (`-32700`, `-32600`, `-32601`, `-32602`) follow the
//! spec; the implementation-defined range carries the service's
//! operational states (overload, drain, deadline, frame policy). Tests
//! assert on the numeric codes, so they are part of the public contract.

use bluefi_core::json::Json;
use bluefi_core::pipeline::Synthesis;
use bluefi_wifi::channels::ChannelPlan;
use bluefi_wifi::mcs::Mcs;
use std::io::{self, Read, Write};

/// Default cap on a single frame's payload, in bytes (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// The service's pinned JSON-RPC 2.0 error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// `-32700`: the frame payload was not valid JSON.
    ParseError,
    /// `-32600`: valid JSON but not a JSON-RPC 2.0 request.
    InvalidRequest,
    /// `-32601`: the request named an unknown method.
    MethodNotFound,
    /// `-32602`: the method's parameters were missing or out of range.
    InvalidParams,
    /// `-32000`: the bounded request queue was full — load was shed.
    Overloaded,
    /// `-32001`: the daemon is draining and rejects new work.
    ShuttingDown,
    /// `-32002`: the request's deadline elapsed before synthesis finished.
    DeadlineExceeded,
    /// `-32003`: the declared frame length exceeded the frame cap.
    FrameTooLarge,
    /// `-32004`: the request named a session that is not open.
    UnknownSession,
    /// `-32005`: the backend failed to synthesize (internal).
    Backend,
}

impl ErrorCode {
    /// The numeric JSON-RPC error code.
    pub fn code(self) -> i64 {
        match self {
            ErrorCode::ParseError => -32700,
            ErrorCode::InvalidRequest => -32600,
            ErrorCode::MethodNotFound => -32601,
            ErrorCode::InvalidParams => -32602,
            ErrorCode::Overloaded => -32000,
            ErrorCode::ShuttingDown => -32001,
            ErrorCode::DeadlineExceeded => -32002,
            ErrorCode::FrameTooLarge => -32003,
            ErrorCode::UnknownSession => -32004,
            ErrorCode::Backend => -32005,
        }
    }

    /// The canonical human-readable message for the code.
    pub fn message(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse error",
            ErrorCode::InvalidRequest => "invalid request",
            ErrorCode::MethodNotFound => "method not found",
            ErrorCode::InvalidParams => "invalid params",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::FrameTooLarge => "frame too large",
            ErrorCode::UnknownSession => "unknown session",
            ErrorCode::Backend => "backend error",
        }
    }
}

/// A structured RPC error: a pinned code plus optional detail appended to
/// the canonical message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// The failure class.
    pub code: ErrorCode,
    /// Extra context (empty for the bare canonical message).
    pub detail: String,
}

impl RpcError {
    /// An error carrying only the canonical message.
    pub fn new(code: ErrorCode) -> RpcError {
        RpcError { code, detail: String::new() }
    }

    /// An error with extra context appended after the canonical message.
    pub fn with_detail(code: ErrorCode, detail: impl Into<String>) -> RpcError {
        RpcError { code, detail: detail.into() }
    }

    /// The full message (`canonical` or `canonical: detail`).
    pub fn message(&self) -> String {
        if self.detail.is_empty() {
            self.code.message().to_string()
        } else {
            format!("{}: {}", self.code.message(), self.detail)
        }
    }
}

// -- Framing ---------------------------------------------------------------

/// Writes one frame (4-byte big-endian length + payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// One observable outcome of a [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly on a frame boundary.
    Eof,
    /// The peer closed mid-frame (length or body incomplete).
    TruncatedEof,
    /// No bytes available right now (the read timed out or would block);
    /// poll again after the caller's liveness checks.
    WouldBlock,
    /// The declared payload length exceeded the reader's cap. The
    /// connection cannot be resynchronized and must be closed after the
    /// [`ErrorCode::FrameTooLarge`] response.
    TooLarge(usize),
}

/// Incremental frame decoder: feed it a `Read` repeatedly; partial reads
/// (including timeout-interrupted ones) accumulate across calls.
#[derive(Debug)]
pub struct FrameReader {
    max_frame: usize,
    len_buf: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_need: usize,
    in_body: bool,
}

impl FrameReader {
    /// A reader that rejects frames larger than `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            max_frame,
            len_buf: [0; 4],
            len_got: 0,
            body: Vec::new(),
            body_need: 0,
            in_body: false,
        }
    }

    /// True when a frame is partially received (EOF now would truncate).
    pub fn mid_frame(&self) -> bool {
        self.len_got > 0 || self.in_body
    }

    /// Advances the state machine with whatever `r` can supply right now.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<FrameEvent> {
        loop {
            if !self.in_body {
                // Reading the 4-byte length prefix.
                match r.read(&mut self.len_buf[self.len_got..]) {
                    Ok(0) => {
                        return Ok(if self.len_got == 0 {
                            FrameEvent::Eof
                        } else {
                            FrameEvent::TruncatedEof
                        });
                    }
                    Ok(n) => {
                        self.len_got += n;
                        if self.len_got < 4 {
                            continue;
                        }
                        let len = u32::from_be_bytes(self.len_buf) as usize;
                        self.len_got = 0;
                        if len > self.max_frame {
                            return Ok(FrameEvent::TooLarge(len));
                        }
                        self.in_body = true;
                        self.body_need = len;
                        self.body.clear();
                        self.body.resize(len, 0);
                    }
                    Err(e) => return Self::map_err(e),
                }
            } else {
                // Reading the payload.
                let have = self.body.len() - self.body_need;
                if self.body_need == 0 {
                    self.in_body = false;
                    return Ok(FrameEvent::Frame(std::mem::take(&mut self.body)));
                }
                match r.read(&mut self.body[have..]) {
                    Ok(0) => return Ok(FrameEvent::TruncatedEof),
                    Ok(n) => {
                        self.body_need -= n;
                        if self.body_need == 0 {
                            self.in_body = false;
                            return Ok(FrameEvent::Frame(std::mem::take(&mut self.body)));
                        }
                    }
                    Err(e) => return Self::map_err(e),
                }
            }
        }
    }

    fn map_err(e: io::Error) -> io::Result<FrameEvent> {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(FrameEvent::WouldBlock),
            io::ErrorKind::Interrupted => Ok(FrameEvent::WouldBlock),
            _ => Err(e),
        }
    }
}

// -- JSON-RPC envelopes ----------------------------------------------------

/// Renders a JSON-RPC 2.0 success response.
pub fn response_ok(id: &Json, result: Json) -> Json {
    Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", id.clone()),
        ("result", result),
    ])
}

/// Renders a JSON-RPC 2.0 error response (`id` is `Null` when the request
/// id never became known, per the spec).
pub fn response_err(id: &Json, err: &RpcError) -> Json {
    Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", id.clone()),
        (
            "error",
            Json::obj(vec![
                ("code", Json::Num(err.code.code() as f64)),
                ("message", Json::Str(err.message())),
            ]),
        ),
    ])
}

/// A parsed JSON-RPC request envelope.
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// The request id, echoed verbatim into the response.
    pub id: Json,
    /// The method name.
    pub method: String,
    /// The `params` member (`Null` when absent).
    pub params: Json,
}

/// Validates a parsed JSON document as a JSON-RPC 2.0 request. On failure
/// returns the best-effort id (for the error response) and the error.
pub fn parse_request(doc: &Json) -> Result<RpcRequest, (Json, RpcError)> {
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let version = doc.get("jsonrpc").and_then(Json::as_str);
    if version != Some("2.0") {
        return Err((
            id,
            RpcError::with_detail(ErrorCode::InvalidRequest, "jsonrpc must be \"2.0\""),
        ));
    }
    let Some(method) = doc.get("method").and_then(Json::as_str) else {
        return Err((
            id,
            RpcError::with_detail(ErrorCode::InvalidRequest, "missing method"),
        ));
    };
    let params = doc.get("params").cloned().unwrap_or(Json::Null);
    Ok(RpcRequest { id, method: method.to_string(), params })
}

// -- Payload codecs --------------------------------------------------------

/// Lowercase hex encoding of `bytes`.
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Decodes lowercase/uppercase hex; `None` on odd length or bad digits.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// Packs bits LSB-first into bytes (bit `i` lands in byte `i / 8`, bit
/// position `i % 8`).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks `n` LSB-first bits from `bytes`; `None` when `bytes` is short.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Option<Vec<bool>> {
    if bytes.len() * 8 < n {
        return None;
    }
    Some((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

/// Exact `f64` transport: the IEEE-754 bit pattern as 16 hex digits. JSON
/// numbers round-trip almost always, but the bit pattern *provably*
/// round-trips (including `-0.0`), which the conformance axis relies on.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_to_hex`].
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Serializes a [`Synthesis`] into the wire result object. Floating-point
/// fields travel both as readable JSON numbers and as exact bit patterns.
pub fn synthesis_to_json(syn: &Synthesis) -> Json {
    Json::obj(vec![
        ("psdu", Json::Str(hex_encode(&syn.psdu))),
        ("n_symbols", Json::Num(syn.n_symbols as f64)),
        (
            "flips",
            Json::Arr(syn.flips.iter().map(|&f| Json::Num(f as f64)).collect()),
        ),
        ("forced_bits", Json::Num(syn.forced_bits as f64)),
        ("mcs_index", Json::Num(syn.mcs.index as f64)),
        ("seed", Json::Num(syn.seed as f64)),
        ("mean_quant_error_db", Json::Num(syn.mean_quant_error_db)),
        ("mean_quant_error_db_bits", Json::Str(f64_to_hex(syn.mean_quant_error_db))),
        ("wifi_channel", Json::Num(syn.plan.wifi_channel as f64)),
        ("subcarrier_bits", Json::Str(f64_to_hex(syn.plan.subcarrier))),
        ("tx_subcarrier_bits", Json::Str(f64_to_hex(syn.plan.tx_subcarrier))),
        ("clearance_bits", Json::Str(f64_to_hex(syn.plan.clearance))),
    ])
}

/// Reconstructs a [`Synthesis`] from a wire result object, bit-exact for
/// every field (floats come from their hex bit patterns). `None` when the
/// object is missing fields or carries out-of-range values.
pub fn synthesis_from_json(j: &Json) -> Option<Synthesis> {
    let field_usize = |k: &str| j.get(k).and_then(Json::as_f64).map(|v| v as usize);
    let field_f64_bits = |k: &str| j.get(k).and_then(Json::as_str).and_then(f64_from_hex);
    let psdu = hex_decode(j.get("psdu").and_then(Json::as_str)?)?;
    let flips = j
        .get("flips")
        .and_then(Json::as_arr)?
        .iter()
        .map(|v| v.as_f64().map(|f| f as usize))
        .collect::<Option<Vec<usize>>>()?;
    let mcs = Mcs::try_from_index(field_usize("mcs_index")? as u8)?;
    let plan = ChannelPlan {
        wifi_channel: field_usize("wifi_channel")? as u8,
        subcarrier: field_f64_bits("subcarrier_bits")?,
        tx_subcarrier: field_f64_bits("tx_subcarrier_bits")?,
        clearance: field_f64_bits("clearance_bits")?,
    };
    Some(Synthesis {
        psdu,
        plan,
        mcs,
        seed: field_usize("seed")? as u8,
        n_symbols: field_usize("n_symbols")?,
        flips,
        forced_bits: field_usize("forced_bits")?,
        mean_quant_error_db: field_f64_bits("mean_quant_error_db_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_pinned() {
        assert_eq!(ErrorCode::ParseError.code(), -32700);
        assert_eq!(ErrorCode::InvalidRequest.code(), -32600);
        assert_eq!(ErrorCode::MethodNotFound.code(), -32601);
        assert_eq!(ErrorCode::InvalidParams.code(), -32602);
        assert_eq!(ErrorCode::Overloaded.code(), -32000);
        assert_eq!(ErrorCode::ShuttingDown.code(), -32001);
        assert_eq!(ErrorCode::DeadlineExceeded.code(), -32002);
        assert_eq!(ErrorCode::FrameTooLarge.code(), -32003);
        assert_eq!(ErrorCode::UnknownSession.code(), -32004);
        assert_eq!(ErrorCode::Backend.code(), -32005);
    }

    #[test]
    fn frame_roundtrip_across_fragmented_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"a\":1}").expect("write");
        write_frame(&mut wire, b"xy").expect("write");
        // Deliver one byte at a time: the reader must reassemble exactly.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = OneByte(&wire);
        let mut fr = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut frames = Vec::new();
        loop {
            match fr.poll(&mut r).expect("poll") {
                FrameEvent::Frame(f) => frames.push(f),
                FrameEvent::Eof => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(frames, vec![b"{\"a\":1}".to_vec(), b"xy".to_vec()]);
    }

    #[test]
    fn truncated_and_oversized_frames_are_distinguished() {
        // EOF mid-length.
        let mut fr = FrameReader::new(64);
        let mut cut: &[u8] = &[0, 0];
        assert!(matches!(fr.poll(&mut cut).expect("poll"), FrameEvent::TruncatedEof));
        // EOF mid-body.
        let mut fr = FrameReader::new(64);
        let mut cut: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(matches!(fr.poll(&mut cut).expect("poll"), FrameEvent::TruncatedEof));
        assert!(fr.mid_frame());
        // Declared length beyond the cap.
        let mut fr = FrameReader::new(64);
        let mut big: &[u8] = &[0, 1, 0, 0];
        assert!(matches!(fr.poll(&mut big).expect("poll"), FrameEvent::TooLarge(65536)));
    }

    #[test]
    fn bit_packing_roundtrip() {
        let bits: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 5);
        assert_eq!(unpack_bits(&packed, 37).expect("unpack"), bits);
        assert_eq!(unpack_bits(&packed, 41), None, "short buffer refused");
    }

    #[test]
    fn f64_hex_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, -13.25, f64::MIN_POSITIVE, 1e300, -2.2250738585072014e-308] {
            let back = f64_from_hex(&f64_to_hex(v)).expect("roundtrip");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(f64_from_hex("abc"), None);
    }

    #[test]
    fn request_parse_validates_envelope() {
        let ok = Json::parse(r#"{"jsonrpc":"2.0","id":7,"method":"stats"}"#).expect("json");
        let req = parse_request(&ok).expect("valid");
        assert_eq!(req.method, "stats");
        assert_eq!(req.id.as_f64(), Some(7.0));
        assert_eq!(req.params, Json::Null);

        let bad = Json::parse(r#"{"id":7,"method":"stats"}"#).expect("json");
        let (id, err) = parse_request(&bad).expect_err("no version");
        assert_eq!(id.as_f64(), Some(7.0));
        assert_eq!(err.code, ErrorCode::InvalidRequest);

        let no_method = Json::parse(r#"{"jsonrpc":"2.0","id":1}"#).expect("json");
        let (_, err) = parse_request(&no_method).expect_err("no method");
        assert_eq!(err.code, ErrorCode::InvalidRequest);
    }
}
