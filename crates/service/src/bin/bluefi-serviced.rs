//! The BlueFi synthesis daemon, serving the template-cache backend.
//!
//! ```text
//! bluefi-serviced --socket /tmp/bluefi.sock [--workers N] [--queue N]
//! ```
//!
//! Any other flag, a flag without a value or a non-numeric count exits
//! with status 2. Runs until a client calls `drain` (or the process is
//! killed), then finishes in-flight work and exits.

use bluefi_core::pipeline::BlueFi;
use bluefi_core::template::CachedEngine;
use bluefi_service::{CachedBackend, ServerState, ServiceConfig};
use std::sync::Arc;

fn usage_error(msg: &str) -> ! {
    eprintln!("bluefi-serviced: {msg}");
    eprintln!("usage: bluefi-serviced --socket PATH [--workers N] [--queue N]");
    std::process::exit(2);
}

fn count(flag: &str, value: &str) -> usize {
    value.parse().unwrap_or_else(|_| usage_error(&format!("{flag} expects a count, got {value:?}")))
}

fn main() {
    let mut socket = "/tmp/bluefi.sock".to_string();
    let mut workers = 0usize;
    let mut queue = 256usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--socket" => socket = value,
            "--workers" => workers = count(&flag, &value),
            "--queue" => queue = count(&flag, &value),
            _ => usage_error(&format!("unknown flag {flag:?}")),
        }
    }

    let backend = Arc::new(CachedBackend::new(CachedEngine::new(BlueFi::default()), workers));
    let cfg = ServiceConfig { workers, queue_depth: queue, ..ServiceConfig::default() };
    let server = match bluefi_service::Server::spawn(&socket, backend, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {socket}: {e}");
            std::process::exit(2);
        }
    };
    println!("bluefi-serviced: cached backend listening on {socket}");
    while server.state() == ServerState::Running {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stopped = server.shutdown();
    let stats = stopped.stats();
    println!(
        "bluefi-serviced: drained ({} requests, {} ok, {} shed)",
        stats.requests(),
        stats.ok(),
        stats.shed()
    );
}
