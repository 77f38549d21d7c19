//! BlueFi as a service: spin the synthesis daemon on a unix socket, then
//! talk to it over the wire exactly like an external client would — the
//! packet below crosses a real socket as length-prefixed JSON-RPC even
//! though both ends live in this process.
//!
//! Run: `cargo run --release --example service_client`
//!
//! To talk to an already-running daemon instead (see `bluefi-serviced`),
//! pass its socket path:
//! `cargo run --release --example service_client -- /tmp/bluefi.sock`

use bluefi::bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi::core::pipeline::BlueFi;
use bluefi::core::template::CachedEngine;
use bluefi_core::json::Json;
use bluefi_service::{CachedBackend, Server, ServiceClient, ServiceConfig};
use std::sync::Arc;

fn main() {
    // With no argument, host the daemon in-process on a temp socket.
    let (path, server) = match std::env::args().nth(1) {
        Some(p) => (p, None),
        None => {
            let p = std::env::temp_dir().join(format!("bluefi-example-{}.sock", std::process::id()));
            let p = p.to_string_lossy().to_string();
            let server = Server::spawn(
                &p,
                Arc::new(CachedBackend::new(CachedEngine::new(BlueFi::default()), 0)),
                ServiceConfig::default(),
            )
            .expect("bind example socket");
            println!("daemon listening on {p}");
            (p, Some(server))
        }
    };

    // An iBeacon-shaped advertisement, same as the quickstart.
    let pdu = AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: [0xB1, 0x0E, 0xF1, 0x00, 0x00, 0x01],
        adv_data: vec![0x02, 0x01, 0x06, 0x05, 0x09, b'B', b'l', b'u', b'e'],
        tx_add: false,
    };
    let bits = adv_air_bits(&pdu, 38);

    let mut client = ServiceClient::connect(&path).expect("connect to daemon");
    client.set_timeout(std::time::Duration::from_secs(30)).expect("set timeout");

    // One synthesize round-trip: BT channel 24 (2426 MHz), scrambler seed 71.
    let result = client.synthesize(&bits, 24, 71).expect("synthesize over the wire");
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let psdu_hex_chars = result.get("psdu").and_then(Json::as_str).map_or(0, str::len);
    println!(
        "synthesized over the socket: {} PSDU bytes, {} OFDM symbols, \
         MCS index {}, WiFi channel {}, seed {}",
        psdu_hex_chars / 2,
        num("n_symbols"),
        num("mcs_index"),
        num("wifi_channel"),
        num("seed"),
    );

    let stats = client.stats(false).expect("stats");
    let service = stats.get("service").expect("service stats object");
    println!(
        "daemon stats: {} request(s), {} ok, {} shed, state {}",
        service.get("requests").and_then(Json::as_f64).unwrap_or(f64::NAN),
        service.get("ok").and_then(Json::as_f64).unwrap_or(f64::NAN),
        service.get("shed").and_then(Json::as_f64).unwrap_or(f64::NAN),
        stats.get("state").and_then(Json::as_str).unwrap_or("?"),
    );

    // Only drain the daemon we spawned; leave an external one running.
    if let Some(server) = server {
        client.drain().expect("drain");
        server.shutdown();
        println!("daemon drained and stopped");
    }
}
