//! End-to-end harness for the `bluefi-service` daemon: a concurrent soak
//! (hundreds of mock-backend clients, zero lost or duplicated responses,
//! bounded queue depth) plus protocol fault injection — malformed JSON,
//! oversized and truncated frames, half-closed sockets, slow readers,
//! disconnect-mid-request — each mapped to its pinned JSON-RPC error code
//! or a counted shed, never a hang.

use bluefi_core::json::Json;
use bluefi_core::BatchJob;
use bluefi_service::backend::ServiceBackend;
use bluefi_service::proto::{self, write_frame, FrameEvent, FrameReader};
use bluefi_service::{
    ClientError, MockBackend, Server, ServerState, ServiceClient, ServiceConfig,
};
use bluefi_wifi::channels::{bt_channel_freq_hz, plan_channel};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bluefi-e2e-{}-{tag}.sock", std::process::id()))
}

fn mock_server(tag: &str, cfg: ServiceConfig) -> Server {
    Server::spawn(sock_path(tag), Arc::new(MockBackend::new()), cfg).expect("spawn server")
}

fn test_bits(client: usize, req: usize) -> Vec<bool> {
    (0..96).map(|i| (i * 31 + client * 7 + req * 13) % 5 < 2).collect()
}

/// The locally computed mock response for a job — what the wire must echo.
fn expected_psdu_hex(bits: &[bool], bt_channel: u8, seed: u8) -> String {
    let plan = plan_channel(bt_channel_freq_hz(bt_channel)).expect("plannable channel");
    let syn = MockBackend::new().synthesize(&BatchJob { bits: bits.to_vec(), plan, seed });
    proto::hex_encode(&syn.psdu)
}

/// Reads one response frame from a raw socket, with a hang guard.
fn read_one_frame(stream: &mut UnixStream) -> Option<Json> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut fr = FrameReader::new(proto::DEFAULT_MAX_FRAME);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match fr.poll(stream).expect("poll") {
            FrameEvent::Frame(payload) => {
                let text = std::str::from_utf8(&payload).expect("utf8");
                return Some(Json::parse(text).expect("response json"));
            }
            FrameEvent::Eof | FrameEvent::TruncatedEof => return None,
            FrameEvent::WouldBlock => {
                assert!(Instant::now() < deadline, "no response within 10 s");
            }
            other => panic!("unexpected frame event {other:?}"),
        }
    }
}

fn error_code(resp: &Json) -> Option<i64> {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_f64)
        .map(|c| c as i64)
}

// -- Soak ------------------------------------------------------------------

/// The headline soak: 200 concurrent clients, several requests each, all
/// against one daemon. Every response must arrive (none lost), match its
/// request id (none duplicated or cross-wired), and carry the exact bytes
/// the mock backend computes for that job (no payload mixups). The queue
/// high-water mark must respect the configured bound.
#[test]
fn soak_200_concurrent_clients_zero_lost_zero_duplicated() {
    const CLIENTS: usize = 200;
    const REQS: usize = 5;
    let cfg = ServiceConfig { workers: 4, queue_depth: 512, ..ServiceConfig::default() };
    let queue_bound = cfg.queue_depth;
    let server = mock_server("soak", cfg);
    let path = server.socket_path().to_path_buf();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || -> Result<usize, String> {
                let mut client = ServiceClient::connect(&path).map_err(|e| e.to_string())?;
                client.set_timeout(Duration::from_secs(20)).map_err(|e| e.to_string())?;
                let mut got = 0;
                for r in 0..REQS {
                    let bits = test_bits(c, r);
                    // The standard conformance grid's channels — all
                    // plannable in every chip's WiFi band.
                    let bt_channel = [10u8, 24, 50][c % 3];
                    let seed = (r % 128) as u8;
                    let result = client
                        .synthesize(&bits, bt_channel, seed)
                        .map_err(|e| format!("client {c} req {r}: {e}"))?;
                    let psdu = result.get("psdu").and_then(Json::as_str).unwrap_or("");
                    let want = expected_psdu_hex(&bits, bt_channel, seed);
                    if psdu != want {
                        return Err(format!("client {c} req {r}: psdu mismatch"));
                    }
                    got += 1;
                }
                Ok(got)
            })
        })
        .collect();

    let mut delivered = 0;
    for w in workers {
        delivered += w.join().expect("client thread").expect("soak client");
    }
    assert_eq!(delivered, CLIENTS * REQS, "every request answered exactly once");

    let stats = server.stats();
    assert_eq!(stats.ok(), (CLIENTS * REQS) as u64, "all successes server-side");
    assert_eq!(stats.shed(), 0, "queue bound generous enough to avoid shed");
    assert_eq!(stats.accepted(), CLIENTS as u64);
    assert!(
        stats.queue_highwater() <= queue_bound as u64,
        "queue depth {} exceeded bound {queue_bound}",
        stats.queue_highwater()
    );
    let stopped = server.shutdown();
    assert_eq!(stopped.stats().requests(), (CLIENTS * REQS) as u64);
}

/// A saturating burst against a tiny queue: every request is answered
/// (success or pinned overload), the shed counter reconciles exactly with
/// the -32000 responses observed client-side, and nothing hangs.
#[test]
fn load_shed_is_pinned_and_counted() {
    let cfg = ServiceConfig { workers: 1, queue_depth: 2, ..ServiceConfig::default() };
    let server = Server::spawn(
        sock_path("shed"),
        Arc::new(MockBackend::with_delay(Duration::from_millis(40))),
        cfg,
    )
    .expect("spawn server");
    let path = server.socket_path().to_path_buf();

    const BURST: usize = 16;
    let workers: Vec<_> = (0..BURST)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || -> Result<bool, String> {
                let mut client = ServiceClient::connect(&path).map_err(|e| e.to_string())?;
                client.set_timeout(Duration::from_secs(20)).map_err(|e| e.to_string())?;
                match client.synthesize(&test_bits(c, 0), 24, 7) {
                    Ok(_) => Ok(false),
                    Err(ClientError::Rpc { code: -32000, .. }) => Ok(true),
                    Err(e) => Err(format!("client {c}: unexpected {e}")),
                }
            })
        })
        .collect();

    let mut sheds = 0u64;
    let mut oks = 0u64;
    for w in workers {
        if w.join().expect("thread").expect("burst client") {
            sheds += 1;
        } else {
            oks += 1;
        }
    }
    assert_eq!(oks + sheds, BURST as u64, "every burst request answered");
    assert!(sheds > 0, "a 1-worker 40 ms backend behind a depth-2 queue must shed");
    let stats = server.stats();
    assert_eq!(stats.shed(), sheds, "server shed count reconciles with -32000 responses");
    assert_eq!(stats.ok(), oks);
    server.shutdown();
}

/// A deadline shorter than the backend's service time yields the pinned
/// -32002 within (roughly) the deadline, not after the backend finishes.
#[test]
fn deadline_exceeded_is_pinned() {
    let cfg = ServiceConfig { workers: 1, queue_depth: 8, ..ServiceConfig::default() };
    let server = Server::spawn(
        sock_path("deadline"),
        Arc::new(MockBackend::with_delay(Duration::from_millis(500))),
        cfg,
    )
    .expect("spawn server");
    let mut client = ServiceClient::connect(server.socket_path()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");

    let bits = test_bits(0, 0);
    let params = Json::obj(vec![
        ("bits", Json::Str(proto::hex_encode(&proto::pack_bits(&bits)))),
        ("n_bits", Json::Num(bits.len() as f64)),
        ("bt_channel", Json::Num(24.0)),
        ("seed", Json::Num(7.0)),
        ("deadline_ms", Json::Num(50.0)),
    ]);
    let t0 = Instant::now();
    match client.call("synthesize", params) {
        Err(ClientError::Rpc { code, .. }) => assert_eq!(code, -32002),
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "deadline response must not wait out the backend"
    );
    assert_eq!(server.stats().deadline_exceeded(), 1);
    server.shutdown();
}

// -- Protocol fault injection ----------------------------------------------

/// Malformed JSON maps to -32700 with a null id — and the connection
/// survives to serve a well-formed request afterwards.
#[test]
fn malformed_json_yields_parse_error_and_connection_survives() {
    let server = mock_server("badjson", ServiceConfig::default());
    let mut stream = UnixStream::connect(server.socket_path()).expect("connect");

    write_frame(&mut stream, b"this is not json {").expect("write");
    let resp = read_one_frame(&mut stream).expect("a response");
    assert_eq!(error_code(&resp), Some(-32700));
    assert_eq!(resp.get("id"), Some(&Json::Null), "unknowable id is null");

    // Same connection, now a valid request: the daemon resynchronized.
    write_frame(
        &mut stream,
        br#"{"jsonrpc":"2.0","id":5,"method":"stats"}"#,
    )
    .expect("write");
    let resp = read_one_frame(&mut stream).expect("a response");
    assert_eq!(resp.get("id").and_then(Json::as_f64), Some(5.0));
    assert!(resp.get("result").is_some(), "stats succeeds after the parse error");
    assert_eq!(server.stats().parse_errors(), 1);
    server.shutdown();
}

/// Envelope and parameter violations map to their pinned codes.
#[test]
fn invalid_request_method_and_params_are_pinned() {
    let server = mock_server("invalid", ServiceConfig::default());
    let mut stream = UnixStream::connect(server.socket_path()).expect("connect");

    // Missing jsonrpc version → -32600, echoing the id.
    write_frame(&mut stream, br#"{"id":1,"method":"stats"}"#).expect("write");
    let resp = read_one_frame(&mut stream).expect("resp");
    assert_eq!(error_code(&resp), Some(-32600));
    assert_eq!(resp.get("id").and_then(Json::as_f64), Some(1.0));

    // Unknown method → -32601.
    write_frame(&mut stream, br#"{"jsonrpc":"2.0","id":2,"method":"nonsuch"}"#)
        .expect("write");
    assert_eq!(error_code(&read_one_frame(&mut stream).expect("resp")), Some(-32601));

    // Parameter violations → -32602, one per class.
    for params in [
        r#"{}"#,                                                              // everything missing
        r#"{"bits":"ff","n_bits":8,"bt_channel":24,"seed":200}"#,             // seed range
        r#"{"bits":"ff","n_bits":8,"bt_channel":90,"seed":7}"#,               // channel range
        r#"{"bits":"zz","n_bits":8,"bt_channel":24,"seed":7}"#,               // bad hex
        r#"{"bits":"ff","n_bits":64,"bt_channel":24,"seed":7}"#,              // bits short
    ] {
        let req = format!(
            r#"{{"jsonrpc":"2.0","id":3,"method":"synthesize","params":{params}}}"#
        );
        write_frame(&mut stream, req.as_bytes()).expect("write");
        let resp = read_one_frame(&mut stream).expect("resp");
        assert_eq!(error_code(&resp), Some(-32602), "params {params}");
    }
    server.shutdown();
}

/// A declared frame length beyond the cap maps to -32003, then the
/// connection closes (the stream cannot be resynchronized).
#[test]
fn oversized_frame_yields_frame_too_large_then_close() {
    let cfg = ServiceConfig { max_frame_bytes: 4096, ..ServiceConfig::default() };
    let server = mock_server("oversize", cfg);
    let mut stream = UnixStream::connect(server.socket_path()).expect("connect");

    stream.write_all(&(1u32 << 20).to_be_bytes()).expect("oversized prefix");
    let resp = read_one_frame(&mut stream).expect("error response");
    assert_eq!(error_code(&resp), Some(-32003));
    assert!(read_one_frame(&mut stream).is_none(), "connection closed after -32003");
    assert_eq!(server.stats().oversized(), 1);
    server.shutdown();
}

/// A frame cut off mid-body counts as truncated and closes the
/// connection; the daemon keeps serving others.
#[test]
fn truncated_frame_is_counted_and_closes() {
    let server = mock_server("truncated", ServiceConfig::default());
    {
        let mut stream = UnixStream::connect(server.socket_path()).expect("connect");
        stream.write_all(&100u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"only ten b").expect("partial body");
        // Close both halves mid-frame.
    }
    // The count lands asynchronously once the server's reader sees EOF.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().truncated() == 0 {
        assert!(Instant::now() < deadline, "truncation never counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Daemon is still healthy.
    let mut client = ServiceClient::connect(server.socket_path()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    assert!(client.synthesize(&test_bits(1, 1), 24, 7).is_ok());
    server.shutdown();
}

/// A client that half-closes (shuts down its write side) after sending
/// still receives its response.
#[test]
fn half_closed_socket_still_gets_its_response() {
    let server = mock_server("halfclose", ServiceConfig::default());
    let mut stream = UnixStream::connect(server.socket_path()).expect("connect");

    let bits = test_bits(3, 3);
    let req = Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", Json::Num(9.0)),
        ("method", Json::Str("synthesize".to_string())),
        (
            "params",
            Json::obj(vec![
                ("bits", Json::Str(proto::hex_encode(&proto::pack_bits(&bits)))),
                ("n_bits", Json::Num(bits.len() as f64)),
                ("bt_channel", Json::Num(24.0)),
                ("seed", Json::Num(9.0)),
            ]),
        ),
    ]);
    write_frame(&mut stream, req.render().as_bytes()).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");

    let resp = read_one_frame(&mut stream).expect("response crosses the half-close");
    assert_eq!(resp.get("id").and_then(Json::as_f64), Some(9.0));
    let psdu = resp
        .get("result")
        .and_then(|r| r.get("psdu"))
        .and_then(Json::as_str)
        .expect("psdu");
    assert_eq!(psdu, expected_psdu_hex(&bits, 24, 9));
    assert!(read_one_frame(&mut stream).is_none(), "then EOF");
    server.shutdown();
}

/// A slow reader (pipelines many requests, dawdles over the responses)
/// neither loses responses nor wedges the daemon for other clients.
#[test]
fn slow_reader_gets_everything_and_blocks_nobody() {
    let server = mock_server("slowreader", ServiceConfig::default());
    let path = server.socket_path().to_path_buf();

    // The slow reader: fire 20 pipelined requests, then read at a crawl.
    let mut slow = UnixStream::connect(&path).expect("connect");
    const PIPELINED: usize = 20;
    for i in 0..PIPELINED {
        let req = format!(
            r#"{{"jsonrpc":"2.0","id":{i},"method":"stats","params":null}}"#
        );
        write_frame(&mut slow, req.as_bytes()).expect("write");
    }

    // Meanwhile a normal client must get served promptly.
    let t0 = Instant::now();
    let mut quick = ServiceClient::connect(&path).expect("connect");
    quick.set_timeout(Duration::from_secs(10)).expect("timeout");
    assert!(quick.synthesize(&test_bits(2, 2), 24, 7).is_ok());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fast client served while the slow reader dawdles"
    );

    // Now crawl through the pipelined responses: all 20, in order.
    for want in 0..PIPELINED {
        std::thread::sleep(Duration::from_millis(10));
        let resp = read_one_frame(&mut slow).expect("pipelined response");
        assert_eq!(
            resp.get("id").and_then(Json::as_f64),
            Some(want as f64),
            "responses arrive in request order"
        );
    }
    server.shutdown();
}

/// Clients vanishing mid-request (connection dropped while the job is
/// queued or executing) must not panic, leak, or poison the daemon.
#[test]
fn disconnect_mid_request_is_harmless() {
    let cfg = ServiceConfig { workers: 1, queue_depth: 64, ..ServiceConfig::default() };
    let server = Server::spawn(
        sock_path("vanish"),
        Arc::new(MockBackend::with_delay(Duration::from_millis(30))),
        cfg,
    )
    .expect("spawn server");
    let path = server.socket_path().to_path_buf();

    for c in 0..10 {
        let mut stream = UnixStream::connect(&path).expect("connect");
        let bits = test_bits(c, 0);
        let req = format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"synthesize","params":{{"bits":"{}","n_bits":{},"bt_channel":24,"seed":7}}}}"#,
            proto::hex_encode(&proto::pack_bits(&bits)),
            bits.len()
        );
        write_frame(&mut stream, req.as_bytes()).expect("write");
        drop(stream); // vanish with the job in flight
    }

    // The daemon digests the mess and still serves.
    let mut client = ServiceClient::connect(&path).expect("connect");
    client.set_timeout(Duration::from_secs(20)).expect("timeout");
    let result = client.synthesize(&test_bits(99, 99), 24, 7).expect("daemon healthy");
    assert!(result.get("psdu").is_some());
    assert_eq!(server.state(), ServerState::Running);
    server.shutdown();
}

// -- Sessions & drain ------------------------------------------------------

/// Sessions carry defaults; closing one invalidates its id (-32004).
#[test]
fn sessions_supply_defaults_and_close_cleanly() {
    let server = mock_server("sessions", ServiceConfig::default());
    let mut client = ServiceClient::connect(server.socket_path()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");

    let opened = client
        .call(
            "session_open",
            Json::obj(vec![("seed", Json::Num(9.0)), ("bt_channel", Json::Num(10.0))]),
        )
        .expect("open");
    let sid = opened.get("session").and_then(Json::as_f64).expect("session id");
    assert_eq!(server.stats().active_sessions(), 1);

    // A job naming only the session inherits its seed and channel.
    let bits = test_bits(4, 4);
    let result = client
        .call(
            "synthesize",
            Json::obj(vec![
                ("bits", Json::Str(proto::hex_encode(&proto::pack_bits(&bits)))),
                ("n_bits", Json::Num(bits.len() as f64)),
                ("session", Json::Num(sid)),
            ]),
        )
        .expect("session synthesize");
    assert_eq!(result.get("seed").and_then(Json::as_f64), Some(9.0));
    assert_eq!(
        result.get("psdu").and_then(Json::as_str),
        Some(expected_psdu_hex(&bits, 10, 9).as_str())
    );

    let closed = client
        .call("session_close", Json::obj(vec![("session", Json::Num(sid))]))
        .expect("close");
    assert_eq!(closed.get("requests").and_then(Json::as_f64), Some(1.0));
    assert_eq!(server.stats().active_sessions(), 0);

    // The dead session id is now pinned -32004.
    match client.call(
        "synthesize",
        Json::obj(vec![
            ("bits", Json::Str("ff".to_string())),
            ("n_bits", Json::Num(8.0)),
            ("session", Json::Num(sid)),
        ]),
    ) {
        Err(ClientError::Rpc { code, .. }) => assert_eq!(code, -32004),
        other => panic!("expected unknown-session, got {other:?}"),
    }
    server.shutdown();
}

/// Graceful drain: in-flight work finishes, new work is rejected with
/// -32001, new connections are refused, and the daemon reaches Stopped.
#[test]
fn drain_finishes_in_flight_and_rejects_new_work() {
    let cfg = ServiceConfig { workers: 1, queue_depth: 8, ..ServiceConfig::default() };
    let server = Server::spawn(
        sock_path("drain"),
        Arc::new(MockBackend::with_delay(Duration::from_millis(150))),
        cfg,
    )
    .expect("spawn server");
    let path = server.socket_path().to_path_buf();

    // Client A: a request that will be mid-flight when the drain lands.
    let in_flight = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut a = ServiceClient::connect(&path).expect("connect A");
            a.set_timeout(Duration::from_secs(20)).expect("timeout");
            a.synthesize(&test_bits(0, 0), 24, 7)
        })
    };
    std::thread::sleep(Duration::from_millis(40)); // let A's job start

    // Client B initiates the drain.
    let mut b = ServiceClient::connect(&path).expect("connect B");
    b.set_timeout(Duration::from_secs(10)).expect("timeout");
    let drained = b.drain().expect("drain accepted");
    assert_eq!(drained.get("draining"), Some(&Json::Bool(true)));

    // A's in-flight job still completes.
    let a_result = in_flight.join().expect("thread").expect("in-flight finished");
    assert!(a_result.get("psdu").is_some());

    // New work on the existing connection: pinned shutting-down.
    match b.synthesize(&test_bits(1, 0), 24, 7) {
        Err(ClientError::Rpc { code, .. }) => assert_eq!(code, -32001),
        other => panic!("expected shutting-down, got {other:?}"),
    }

    // New connections are refused once the listener is gone.
    let refused = Instant::now() + Duration::from_secs(5);
    loop {
        if UnixStream::connect(&path).is_err() {
            break;
        }
        assert!(Instant::now() < refused, "listener never went away");
        std::thread::sleep(Duration::from_millis(10));
    }

    let stopped = server.shutdown();
    assert!(stopped.stats().ok() >= 1, "the drained daemon finished real work");
}

/// The `stats` endpoint reflects backend identity and server state, and
/// `reset: true` drains the process-wide telemetry section exactly once.
#[test]
fn stats_endpoint_reports_state_and_backend() {
    let server = mock_server("stats", ServiceConfig::default());
    let mut client = ServiceClient::connect(server.socket_path()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");

    client.synthesize(&test_bits(0, 0), 24, 7).expect("one job");
    let stats = client.stats(false).expect("stats");
    assert_eq!(stats.get("backend").and_then(Json::as_str), Some("mock"));
    assert_eq!(stats.get("state").and_then(Json::as_str), Some("running"));
    let service = stats.get("service").expect("service section");
    assert_eq!(service.get("ok").and_then(Json::as_f64), Some(1.0));
    assert!(stats.get("telemetry").and_then(|t| t.get("counters")).is_some());
    server.shutdown();
}
