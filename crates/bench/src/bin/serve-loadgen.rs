//! Load generator / offline reference for the `routenet-serve` daemon.
//!
//! TCP mode — fire a query corpus at a running daemon from concurrent
//! pipelined connections and record every response:
//!
//! ```text
//! cargo run -p routenet-bench --release --bin serve-loadgen -- \
//!     --connect 127.0.0.1:4727 --data eval.jsonl --repeat 25 \
//!     --concurrency 8 --window 4 --out served.jsonl [--shutdown]
//! ```
//!
//! Offline mode — answer the SAME corpus with the library predict path and
//! the SAME wire serializer, so the two output files can be compared
//! byte-for-byte (`cmp served.jsonl offline.jsonl`):
//!
//! ```text
//! cargo run -p routenet-bench --release --bin serve-loadgen -- \
//!     --offline --model model.json --data eval.jsonl --repeat 25 \
//!     --out offline.jsonl
//! ```
//!
//! The corpus is the dataset's scenarios repeated `--repeat` times; query
//! ids enumerate the expanded corpus, and the output holds one response
//! line per id, sorted by id — identical inputs therefore yield identical
//! bytes whenever the daemon honors its determinism contract. Any error
//! response (shed, validation) fails the run: equivalence checks must size
//! the workload below the daemon's shed threshold.

use routenet_bench::{usage_exit, Args};
use routenet_core::prelude::*;
use routenet_dataset::io::load_jsonl;
use routenet_faults::FsHandle;
use routenet_serve::{load_model, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// The expanded query corpus: dataset scenarios cycled `repeat` times.
fn corpus(data_path: &str, repeat: usize) -> Vec<Scenario> {
    let data = load_jsonl(data_path).unwrap_or_else(|e| {
        eprintln!("failed to load {data_path}: {e}");
        std::process::exit(1);
    });
    if data.is_empty() {
        eprintln!("{data_path}: empty dataset");
        std::process::exit(1);
    }
    let mut out = Vec::with_capacity(data.len() * repeat);
    for _ in 0..repeat {
        out.extend(data.iter().map(|s| s.scenario.clone()));
    }
    out
}

/// One pipelined client: sends its id slice with at most `window` queries
/// in flight, returns `(id, response line, latency_s)` per query.
fn run_client(
    addr: &str,
    queries: &[Scenario],
    ids: &[u64],
    window: usize,
) -> std::io::Result<Vec<(u64, String, f64)>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut results = Vec::with_capacity(ids.len());
    let mut sent = BTreeMap::new(); // id -> send instant
    let mut next = 0usize;
    let mut line = String::new();
    while results.len() < ids.len() {
        while next < ids.len() && sent.len() < window {
            let id = ids[next];
            #[expect(
                clippy::cast_possible_truncation,
                reason = "ids enumerate 0..queries.len(), which fits usize by construction"
            )]
            let req = Request {
                id,
                scenario: Some(queries[id as usize].clone()),
                cmd: None,
            };
            let body = serde_json::to_string(&req).map_err(std::io::Error::other)?;
            sent.insert(id, Instant::now());
            out.write_all(body.as_bytes())?;
            out.write_all(b"\n")?;
            next += 1;
        }
        out.flush()?;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        let resp: Response = serde_json::from_str(line.trim()).map_err(std::io::Error::other)?;
        let t0 = sent.remove(&resp.id).ok_or_else(|| {
            std::io::Error::other(format!("response for id {} never sent", resp.id))
        })?;
        results.push((resp.id, line.trim().to_string(), t0.elapsed().as_secs_f64()));
    }
    Ok(results)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "q is a quantile in [0, 1], so the rounded index lies in 0..sorted.len()"
    )]
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn write_lines(out_path: &str, lines: &BTreeMap<u64, String>) {
    let mut buf = String::new();
    for line in lines.values() {
        buf.push_str(line);
        buf.push('\n');
    }
    std::fs::write(out_path, buf).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
}

const USAGE: &str = "serve-loadgen --data <jsonl> --out <jsonl> \
                     (--connect <host:port> [--concurrency K] [--window W] [--shutdown] \
                     | --offline --model <path>) [--repeat N]";

fn main() {
    let args = Args::from_env(USAGE);
    let (Some(data_path), Some(out_path)) = (args.get("data"), args.get("out")) else {
        usage_exit(USAGE, "--data and --out are required");
    };
    let repeat = args.get_at_least("repeat", 1, 1);
    let concurrency = args.get_at_least("concurrency", 4, 1);
    let window = args.get_at_least("window", 4, 1);
    let queries = corpus(data_path, repeat);

    if args.get("offline").is_some() {
        let Some(model_path) = args.get("model") else {
            usage_exit(USAGE, "--offline needs --model");
        };
        let model = load_model(&FsHandle::default(), Path::new(model_path)).unwrap_or_else(|e| {
            eprintln!("{model_path}: {e}");
            std::process::exit(1);
        });
        // Chunked batched predict: equivalence is packing-independent, so
        // chunking only bounds peak memory, never changes the answers.
        let mut lines = BTreeMap::new();
        let t0 = Instant::now();
        for (chunk_idx, chunk) in queries.chunks(32).enumerate() {
            let refs: Vec<&Scenario> = chunk.iter().collect();
            for (off, preds) in model.predict_batch(&refs).into_iter().enumerate() {
                let id = (chunk_idx * 32 + off) as u64;
                lines.insert(id, Response::ok(id, preds).to_line());
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        write_lines(out_path, &lines);
        eprintln!(
            "offline: {} queries in {:.3}s ({:.1} q/s) -> {out_path}",
            lines.len(),
            wall,
            lines.len() as f64 / wall.max(1e-9),
        );
        return;
    }

    let Some(addr) = args.get("connect") else {
        usage_exit(USAGE, "pass --connect or --offline");
    };
    let n = queries.len() as u64;
    let t0 = Instant::now();
    let per_client: Vec<std::io::Result<Vec<(u64, String, f64)>>> = std::thread::scope(|scope| {
        let queries = &queries;
        let handles: Vec<_> = (0..concurrency)
            .map(|c| {
                scope.spawn(move || {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "ids enumerate 0..queries.len(), which fits usize by construction"
                    )]
                    let ids: Vec<u64> = (0..n)
                        .filter(|id| *id as usize % concurrency == c)
                        .collect();
                    run_client(addr, queries, &ids, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut lines = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut errors = 0usize;
    for result in per_client {
        let rows = result.unwrap_or_else(|e| {
            eprintln!("serve-loadgen: client failed: {e}");
            std::process::exit(1);
        });
        for (id, line, lat) in rows {
            if serde_json::from_str::<Response>(&line)
                .map(|r| r.error.is_some())
                .unwrap_or(true)
            {
                errors += 1;
            }
            latencies.push(lat);
            lines.insert(id, line);
        }
    }
    if lines.len() as u64 != n {
        eprintln!("serve-loadgen: {} responses for {n} queries", lines.len());
        std::process::exit(1);
    }
    write_lines(out_path, &lines);

    latencies.sort_by(|a, b| a.total_cmp(b));
    eprintln!(
        "served: {n} queries in {wall:.3}s ({:.1} q/s), client p50 {:.2}ms p95 {:.2}ms, \
         {concurrency} conns x window {window} -> {out_path}",
        n as f64 / wall.max(1e-9),
        quantile(&latencies, 0.50) * 1e3,
        quantile(&latencies, 0.95) * 1e3,
    );
    if errors > 0 {
        eprintln!("serve-loadgen: {errors} error responses (shed or rejected)");
        std::process::exit(1);
    }

    if args.get("shutdown").is_some() {
        let ack = TcpStream::connect(addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            let mut out = stream.try_clone()?;
            out.write_all(b"{\"cmd\": \"shutdown\"}\n")?;
            out.flush()?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        });
        match ack {
            Ok(line) if !line.trim().is_empty() => eprintln!("shutdown acknowledged"),
            Ok(_) => eprintln!("shutdown sent (no ack before close)"),
            Err(e) => {
                eprintln!("serve-loadgen: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
