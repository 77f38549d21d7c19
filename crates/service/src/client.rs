//! A small blocking client for the daemon — the reference implementation
//! of the wire protocol, used by the test harness, the conformance
//! matrix's `service` axis and the soak bench.

use crate::proto::{self, write_frame, FrameEvent, FrameReader};
use bluefi_core::json::Json;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client-side failure classes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-response).
    Io(io::Error),
    /// The server answered with a JSON-RPC error.
    Rpc {
        /// The numeric JSON-RPC error code.
        code: i64,
        /// The server's message.
        message: String,
    },
    /// The server's bytes violated the protocol (bad frame, bad JSON,
    /// mismatched id).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Rpc { code, message } => write!(f, "rpc {code}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A connected blocking client. One in-flight request at a time (the
/// protocol itself allows pipelining; the soak harness exercises that
/// directly on raw sockets).
#[derive(Debug)]
pub struct ServiceClient {
    stream: UnixStream,
    reader: FrameReader,
    next_id: u64,
}

impl ServiceClient {
    /// Connects to a daemon socket.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<ServiceClient> {
        let stream = UnixStream::connect(path)?;
        Ok(ServiceClient {
            stream,
            reader: FrameReader::new(proto::DEFAULT_MAX_FRAME),
            next_id: 0,
        })
    }

    /// Bounds every call: a response not arriving within `timeout` fails
    /// with an [`ClientError::Io`] timeout instead of hanging.
    pub fn set_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))
    }

    /// Sends `method` with `params` and returns the `result` member, or
    /// the server's error.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let req = Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("id", Json::Num(id as f64)),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ]);
        write_frame(&mut self.stream, req.render().as_bytes())?;
        let resp = self.read_response()?;
        let got_id = resp.get("id").and_then(Json::as_f64);
        if got_id != Some(id as f64) {
            return Err(ClientError::Protocol(format!(
                "response id {got_id:?} does not match request id {id}"
            )));
        }
        if let Some(err) = resp.get("error") {
            return Err(ClientError::Rpc {
                code: err.get("code").and_then(Json::as_f64).unwrap_or(0.0) as i64,
                message: err
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
        resp.get("result")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("response carries neither result nor error".into()))
    }

    /// Reads one complete response frame and parses it.
    pub fn read_response(&mut self) -> Result<Json, ClientError> {
        loop {
            match self.reader.poll(&mut self.stream)? {
                FrameEvent::Frame(payload) => {
                    let text = std::str::from_utf8(&payload)
                        .map_err(|e| ClientError::Protocol(format!("non-UTF-8 frame: {e}")))?;
                    return Json::parse(text)
                        .map_err(|e| ClientError::Protocol(format!("bad response JSON: {e:?}")));
                }
                FrameEvent::Eof | FrameEvent::TruncatedEof => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                FrameEvent::WouldBlock => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for the response",
                    )));
                }
                FrameEvent::TooLarge(n) => {
                    return Err(ClientError::Protocol(format!("oversized response frame ({n} B)")));
                }
            }
        }
    }

    /// Convenience `synthesize`: packs `bits` and fills the job fields.
    pub fn synthesize(
        &mut self,
        bits: &[bool],
        bt_channel: u8,
        seed: u8,
    ) -> Result<Json, ClientError> {
        self.call("synthesize", job_params(bits, bt_channel, seed))
    }

    /// Convenience `batch_synthesize` over `(bits, bt_channel, seed)`
    /// jobs; the result's `results` array is in job order.
    pub fn batch_synthesize(&mut self, jobs: &[(&[bool], u8, u8)]) -> Result<Json, ClientError> {
        let jobs = jobs.iter().map(|&(bits, ch, seed)| job_params(bits, ch, seed)).collect();
        self.call("batch_synthesize", Json::obj(vec![("jobs", Json::Arr(jobs))]))
    }

    /// Convenience `stats`.
    pub fn stats(&mut self, reset: bool) -> Result<Json, ClientError> {
        self.call("stats", Json::obj(vec![("reset", Json::Bool(reset))]))
    }

    /// Convenience `drain`.
    pub fn drain(&mut self) -> Result<Json, ClientError> {
        self.call("drain", Json::Null)
    }
}

/// One job's wire fields: packed `bits`, their count, carrier and seed.
fn job_params(bits: &[bool], bt_channel: u8, seed: u8) -> Json {
    Json::obj(vec![
        ("bits", Json::Str(proto::hex_encode(&proto::pack_bits(bits)))),
        ("n_bits", Json::Num(bits.len() as f64)),
        ("bt_channel", Json::Num(bt_channel as f64)),
        ("seed", Json::Num(seed as f64)),
    ])
}
