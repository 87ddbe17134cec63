//! The serving daemon: load a model once, answer NDJSON what-if queries
//! over TCP with micro-batched RouteNet inference.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin routenet-serve -- \
//!     --model model.json --listen 127.0.0.1:0 --port-file serve.port \
//!     [--queue-cap 256] [--max-batch 32] [--batch-window-us 1000] \
//!     [--cache-cap 8] [--telemetry serve.telemetry.jsonl]
//! ```
//!
//! The resolved port (useful with `:0`) is written to `--port-file` once the
//! socket is bound, so scripts can start the daemon on an ephemeral port and
//! discover it race-free. A `{"cmd": "shutdown"}` line on any connection
//! stops the daemon.

use routenet_bench::{usage_exit, Args};
use routenet_faults::FsHandle;
use routenet_obs::Telemetry;
use routenet_serve::server::serve_tcp;
use routenet_serve::{Engine, Server, ServerConfig};
use std::io::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

const USAGE: &str = "routenet-serve --model <model.json|ckpt> --listen <addr> \
                     [--port-file <path>] [--queue-cap 256] [--max-batch 32] \
                     [--batch-window-us 1000] [--cache-cap 8] [--telemetry <jsonl>]";

fn main() {
    let args = Args::from_env(USAGE);
    let (Some(model_path), Some(addr)) = (args.get("model"), args.get("listen")) else {
        usage_exit(USAGE, "--model and --listen are required");
    };
    let cfg = ServerConfig {
        queue_cap: args.get_or("queue-cap", 256),
        max_batch: args.get_or("max-batch", 32),
        batch_window: Duration::from_micros(args.get_or("batch-window-us", 1000)),
    };
    let cache_cap = args.get_or("cache-cap", 8);
    // A zero would stall the batcher, shed every query or leave the plan
    // cache no slot, so each is a usage error before the model loads.
    if cfg.queue_cap == 0 || cfg.max_batch == 0 || cache_cap == 0 {
        usage_exit(
            USAGE,
            "--queue-cap, --max-batch and --cache-cap must be >= 1",
        );
    }

    let engine = Engine::load(&FsHandle::default(), Path::new(model_path), cache_cap)
        .unwrap_or_else(|e| {
            eprintln!("routenet-serve: {model_path}: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "routenet-serve: model loaded ({} params, T={}), queue_cap={} max_batch={} window={}us",
        engine.model().n_parameters(),
        engine.model().config().t_iterations,
        cfg.queue_cap,
        cfg.max_batch,
        cfg.batch_window.as_micros(),
    );

    let tel = match args.get("telemetry") {
        Some(path) => Telemetry::to_file("routenet-serve", model_path, path),
        None => Telemetry::disabled(),
    };
    let server = Server::start(engine, cfg, tel);

    // Bind before announcing readiness: the port file appears only once the
    // socket accepts connections.
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("routenet-serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("bound socket has an address");
    eprintln!("routenet-serve: listening on {local}");
    if let Some(pf) = args.get("port-file") {
        // The port file is control-plane plumbing for scripts, not data
        // the IO seam needs to see; write-then-rename keeps it atomic.
        let tmp = format!("{pf}.tmp");
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| writeln!(f, "{}", local.port()).and_then(|()| f.flush()))
            .and_then(|()| std::fs::rename(&tmp, pf));
        if let Err(e) = write {
            eprintln!("routenet-serve: cannot write port file {pf}: {e}");
            std::process::exit(1);
        }
    }

    if let Err(e) = serve_tcp(listener, &server) {
        eprintln!("routenet-serve: accept loop failed: {e}");
    }

    let tel = server.telemetry().clone();
    if let Err(e) = server.finish() {
        eprintln!("routenet-serve: telemetry flush failed: {e}");
        std::process::exit(1);
    }
    let table = tel.summary_table();
    if !table.is_empty() {
        eprintln!("{table}");
    }
}
