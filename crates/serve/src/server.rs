//! The daemon core: bounded query queue, micro-batcher thread, and the TCP
//! front-end.
//!
//! Threading model (no locks on the prediction path beyond the queue):
//!
//! ```text
//! conn thread 1 ──┐                     ┌── writer thread 1 (mpsc → socket)
//! conn thread 2 ──┴→ bounded queue ─→ batcher thread (owns Engine) ─→ txs
//!                     (Mutex+Condvar)   one predict_batch per micro-batch
//! ```
//!
//! Connection threads parse, finalize, and validate queries, then enqueue
//! [`Job`]s. The single batcher thread drains up to
//! [`ServerConfig::max_batch`] jobs per [`ServerConfig::batch_window`] and
//! answers them with ONE batched forward pass. When the queue is full the
//! query is *shed* — answered immediately with a typed error — rather than
//! queued unboundedly; the transition into an overload episode emits one
//! `QueryShed` event. Per-shed emission would be quadratic exactly when the
//! daemon is busiest: the file sink rewrites its whole log on every emit, so
//! each event costs O(events so far).

#![expect(
    clippy::disallowed_types,
    reason = "the query queue is the daemon's one lock, taken once per enqueue and once per micro-batch drain"
)]

use crate::engine::Engine;
use crate::wire::{Request, Response};
use routenet_core::Scenario;
use routenet_obs::{Event, Telemetry};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Telemetry metric names, in one place so the bench/validate tooling and
/// the tests agree with the daemon.
pub mod metrics {
    /// Counter: queries accepted into the queue.
    pub const QUERIES: &str = "serve.queries";
    /// Counter: responses sent (success or typed error, sheds included).
    pub const RESPONSES: &str = "serve.responses";
    /// Counter: queries shed at a full queue.
    pub const SHED: &str = "serve.shed";
    /// Histogram: enqueue-to-response latency, seconds.
    pub const LATENCY_S: &str = "serve.latency_s";
    /// Histogram: micro-batch sizes (queries per batched forward pass).
    pub const BATCH_SIZE: &str = "serve.batch_size";
}

/// Tunables of the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Bounded queue capacity; queries arriving beyond it are shed.
    pub queue_cap: usize,
    /// Largest micro-batch handed to one batched forward pass.
    pub max_batch: usize,
    /// How long the batcher waits for more queries after the first one
    /// lands, before running a partial batch. Zero serves every query solo.
    pub batch_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 256,
            max_batch: 32,
            batch_window: Duration::from_millis(1),
        }
    }
}

/// One admitted query waiting for the batcher.
struct Job {
    id: u64,
    scenario: Scenario,
    tx: mpsc::Sender<String>,
    t0: Instant,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    stopped: bool,
    /// Inside an overload episode (set on first shed, cleared by the next
    /// successful admit) — gates the one-per-episode `QueryShed` event.
    shedding: bool,
    shed_total: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    notify: Condvar,
    cfg: ServerConfig,
    tel: Telemetry,
}

fn lock(m: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    // A panicking connection thread must not poison the daemon.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a submitted request line asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// A query (answered or shed) or a malformed line (answered with an
    /// error response); the connection keeps reading.
    Handled,
    /// A shutdown command: the caller should stop its read loop.
    Shutdown,
}

/// The running daemon: queue, batcher thread, telemetry.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<thread::JoinHandle<()>>,
    started: Instant,
}

impl Server {
    /// Start the batcher thread over `engine`.
    pub fn start(engine: Engine, cfg: ServerConfig, tel: Telemetry) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            notify: Condvar::new(),
            cfg,
            tel,
        });
        let batcher_shared = Arc::clone(&shared);
        let batcher = thread::spawn(move || run_batcher(engine, &batcher_shared));
        Server {
            shared,
            batcher: Some(batcher),
            started: Instant::now(),
        }
    }

    /// A cheap handle for connection threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// True once [`Server::stop`] (or a shutdown command) was issued.
    pub fn is_stopped(&self) -> bool {
        lock(&self.shared.state).stopped
    }

    /// Ask the batcher to drain the queue and exit.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Stop, join the batcher (draining queued queries first), emit the
    /// end-of-run `Serve` digest, and flush telemetry. Returns the deferred
    /// telemetry sink failure, if any.
    #[must_use = "ignoring the result hides deferred telemetry sink failures"]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the batch-size maximum is a whole, non-negative count"
    )]
    pub fn finish(mut self) -> std::io::Result<()> {
        self.shared.stop();
        if let Some(b) = self.batcher.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked batcher already printed its panic; finish must still flush telemetry"
            )]
            let _ = b.join();
        }
        let tel = &self.shared.tel;
        let wall_s = self.started.elapsed().as_secs_f64();
        let responses = tel.counter(metrics::RESPONSES);
        let lat = tel.histogram_summary(metrics::LATENCY_S);
        let batch = tel.histogram_summary(metrics::BATCH_SIZE);
        tel.emit(Event::Serve {
            queries: tel.counter(metrics::QUERIES),
            responses,
            shed: tel.counter(metrics::SHED),
            batches: batch.map_or(0, |b| b.count),
            qps: if wall_s > 0.0 {
                responses as f64 / wall_s
            } else {
                0.0
            },
            p50_latency_s: lat.map_or(0.0, |l| l.p50),
            p95_latency_s: lat.map_or(0.0, |l| l.p95),
            mean_batch: batch.map_or(0.0, |b| b.mean),
            max_batch: batch.map_or(0, |b| b.max as u64),
            wall_s,
        });
        tel.finish()
    }

    /// The daemon's telemetry handle (for probes and summaries).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }
}

impl Shared {
    fn stop(&self) {
        lock(&self.state).stopped = true;
        self.notify.notify_all();
    }
}

/// Cloneable queue endpoint used by connection threads.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Parse one request line and act on it. Query responses (including
    /// parse/validation errors and sheds) are delivered through `tx`;
    /// blank lines are ignored. Returns [`Submission::Shutdown`] for a
    /// shutdown command, after acknowledging it on `tx`.
    pub fn submit_line(&self, line: &str, tx: &mpsc::Sender<String>) -> Submission {
        let line = line.trim();
        if line.is_empty() {
            return Submission::Handled;
        }
        let req: Request = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                self.respond(tx, Response::err(0, format!("bad request: {e}")));
                return Submission::Handled;
            }
        };
        if let Some(cmd) = req.cmd.as_deref() {
            return match cmd {
                "shutdown" => {
                    self.respond(tx, Response::ack(req.id));
                    self.shared.stop();
                    Submission::Shutdown
                }
                other => {
                    self.respond(
                        tx,
                        Response::err(req.id, format!("unknown command `{other}`")),
                    );
                    Submission::Handled
                }
            };
        }
        let Some(mut scenario) = req.scenario else {
            self.respond(tx, Response::err(req.id, "query carries no scenario"));
            return Submission::Handled;
        };
        scenario.finalize();
        if let Err(e) = scenario.validate() {
            self.respond(tx, Response::err(req.id, format!("invalid scenario: {e}")));
            return Submission::Handled;
        }
        self.enqueue(req.id, scenario, tx);
        Submission::Handled
    }

    /// Admit a validated query or shed it at a full queue.
    fn enqueue(&self, id: u64, scenario: Scenario, tx: &mpsc::Sender<String>) {
        let cap = self.shared.cfg.queue_cap;
        let shed_msg = {
            let mut st = lock(&self.shared.state);
            if st.stopped {
                Some("server is shutting down".to_string())
            } else if st.jobs.len() >= cap {
                st.shed_total += 1;
                let first_of_episode = !st.shedding;
                st.shedding = true;
                let shed_total = st.shed_total;
                let queue_len = st.jobs.len();
                drop(st);
                self.shared.tel.counter_add(metrics::SHED, 1);
                if first_of_episode {
                    self.shared.tel.emit(Event::QueryShed {
                        queue_len,
                        shed_total,
                    });
                }
                Some(format!("query shed: queue full (cap {cap})"))
            } else {
                st.jobs.push_back(Job {
                    id,
                    scenario,
                    tx: tx.clone(),
                    t0: Instant::now(),
                });
                st.shedding = false;
                None
            }
        };
        match shed_msg {
            Some(msg) => self.respond(tx, Response::err(id, msg)),
            None => {
                self.shared.tel.counter_add(metrics::QUERIES, 1);
                self.shared.notify.notify_one();
            }
        }
    }

    fn respond(&self, tx: &mpsc::Sender<String>, resp: Response) {
        self.shared.tel.counter_add(metrics::RESPONSES, 1);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a disconnected client cannot receive its response; dropping it is the only option"
        )]
        let _ = tx.send(resp.to_line());
    }
}

/// The batcher loop: wait for queries, gather a micro-batch, predict,
/// respond. Exits when the server is stopped AND the queue is drained.
fn run_batcher(mut engine: Engine, shared: &Shared) {
    loop {
        let batch: Vec<Job> = {
            let mut st = lock(&shared.state);
            loop {
                if !st.jobs.is_empty() {
                    break;
                }
                if st.stopped {
                    return;
                }
                st = shared
                    .notify
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Micro-batch window: give concurrently arriving queries a
            // moment to join this batch instead of forcing one forward
            // pass per query.
            let deadline = Instant::now() + shared.cfg.batch_window;
            while st.jobs.len() < shared.cfg.max_batch && !st.stopped {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = shared
                    .notify
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
            let n = st.jobs.len().min(shared.cfg.max_batch);
            st.jobs.drain(..n).collect()
        };
        let scenarios: Vec<&Scenario> = batch.iter().map(|j| &j.scenario).collect();
        let preds = engine.predict(&scenarios);
        shared
            .tel
            .observe_s(metrics::BATCH_SIZE, batch.len() as f64);
        for (job, p) in batch.into_iter().zip(preds) {
            shared.tel.counter_add(metrics::RESPONSES, 1);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a disconnected client cannot receive its response; dropping it is the only option"
            )]
            let _ = job.tx.send(Response::ok(job.id, p).to_line());
            shared
                .tel
                .observe_s(metrics::LATENCY_S, job.t0.elapsed().as_secs_f64());
        }
    }
}

/// Accept loop: serve NDJSON connections until the server stops. Each
/// connection gets a reader (this thread's child) and a writer thread; a
/// hostile or malformed peer only ever affects its own connection.
#[must_use = "ignoring the result hides accept-loop failures"]
pub fn serve_tcp(listener: TcpListener, server: &Server) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    while !server.is_stopped() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let handle = server.handle();
                conns.push(thread::spawn(move || {
                    #[expect(clippy::let_underscore_must_use, reason = "a connection dying mid-dialogue is the peer's business; the daemon keeps serving")]
                    let _ = serve_connection(stream, &handle);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
        conns.retain(|c| !c.is_finished());
    }
    // Connections still open at shutdown belong to clients that already got
    // every response they asked for (the batcher drains before exit); they
    // end when the peer hangs up or the process exits.
    Ok(())
}

fn serve_connection(stream: std::net::TcpStream, handle: &ServerHandle) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let (tx, rx) = mpsc::channel::<String>();
    let mut out = stream.try_clone()?;
    let writer = thread::spawn(move || {
        while let Ok(line) = rx.recv() {
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                break;
            }
            if out.flush().is_err() {
                break;
            }
        }
    });
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // mid-line disconnect or garbage bytes
        };
        if handle.submit_line(&line, &tx) == Submission::Shutdown {
            break;
        }
    }
    drop(tx); // writer drains pending responses, then exits
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writer thread cannot panic; join failure would only repeat a peer disconnect"
    )]
    let _ = writer.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use routenet_core::features::Normalizer;
    use routenet_core::{RouteNet, RouteNetConfig};
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::TrafficMatrix;

    fn model() -> RouteNet {
        let mut m = RouteNet::new(RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 11,
        });
        m.set_normalizer(Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 200.0,
            ..Normalizer::default()
        });
        m
    }

    fn scenario(demand: f64) -> Scenario {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(g.n_nodes());
        for (s, d) in g.node_pairs() {
            traffic.set_demand(s, d, demand + (s.0 * 14 + d.0) as f64);
        }
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    fn query_line(id: u64, sc: &Scenario) -> String {
        serde_json::to_string(&Request {
            id,
            scenario: Some(sc.clone()),
            cmd: None,
        })
        .unwrap()
    }

    fn start_server(cfg: ServerConfig) -> Server {
        Server::start(
            Engine::from_model(model(), 4),
            cfg,
            Telemetry::in_memory("serve-test", "t"),
        )
    }

    #[test]
    fn queries_get_predictions_and_shutdown_acks() {
        let server = start_server(ServerConfig::default());
        let handle = server.handle();
        let (tx, rx) = mpsc::channel();
        let sc = scenario(120.0);
        for id in 0..3u64 {
            assert_eq!(
                handle.submit_line(&query_line(id, &sc), &tx),
                Submission::Handled
            );
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let resp: Response = serde_json::from_str(&line).unwrap();
            let preds = resp.predictions.expect("query must be answered");
            assert_eq!(preds.len(), sc.n_pairs());
            got.push(resp.id);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(
            handle.submit_line(r#"{"id": 9, "cmd": "shutdown"}"#, &tx),
            Submission::Shutdown
        );
        let ack: Response = serde_json::from_str(&rx.recv().unwrap()).unwrap();
        assert_eq!(ack.id, 9);
        assert!(ack.predictions.is_none() && ack.error.is_none());
        server.finish().unwrap();
    }

    #[test]
    fn malformed_lines_get_error_responses_not_crashes() {
        let server = start_server(ServerConfig::default());
        let handle = server.handle();
        let (tx, rx) = mpsc::channel();
        for bad in [
            "{ not json",
            r#"{"id": 1}"#,
            r#"{"id": 2, "cmd": "reboot"}"#,
            r#"{"id": 3, "scenario": {"graph": null, "routing": null, "traffic": null}}"#,
        ] {
            assert_eq!(handle.submit_line(bad, &tx), Submission::Handled);
            let resp: Response = serde_json::from_str(&rx.recv().unwrap()).unwrap();
            assert!(resp.error.is_some(), "{bad} must produce an error");
            assert!(resp.predictions.is_none());
        }
        // Blank lines are ignored without a response.
        assert_eq!(handle.submit_line("   ", &tx), Submission::Handled);
        // The daemon still serves after all that.
        let sc = scenario(90.0);
        handle.submit_line(&query_line(7, &sc), &tx);
        let resp: Response = serde_json::from_str(&rx.recv().unwrap()).unwrap();
        assert_eq!(resp.id, 7);
        assert!(resp.predictions.is_some());
        server.finish().unwrap();
    }

    #[test]
    fn query_routing_no_pairs_gets_an_error_response() {
        let server = start_server(ServerConfig::default());
        let handle = server.handle();
        let (tx, rx) = mpsc::channel();
        let g = routenet_netgraph::Graph::new("one", 1);
        let empty = Scenario {
            routing: shortest_path_routing(&g).unwrap(),
            graph: g,
            traffic: TrafficMatrix::zeros(1),
        };
        handle.submit_line(&query_line(4, &empty), &tx);
        let resp: Response = serde_json::from_str(&rx.recv().unwrap()).unwrap();
        assert_eq!(resp.id, 4);
        assert!(resp.predictions.is_none());
        let err = resp.error.expect("a typed error");
        assert!(err.contains("routes no pairs"), "{err}");
        server.finish().unwrap();
    }

    #[test]
    fn full_queue_sheds_with_typed_error_and_one_episode_event() {
        // queue_cap 1 and a long window: the batcher naps while we flood.
        let server = start_server(ServerConfig {
            queue_cap: 1,
            max_batch: 8,
            batch_window: Duration::from_millis(200),
        });
        let handle = server.handle();
        let (tx, rx) = mpsc::channel();
        let sc = scenario(100.0);
        let mut sheds = 0;
        for id in 0..6u64 {
            handle.submit_line(&query_line(id, &sc), &tx);
        }
        let mut answered = 0;
        for _ in 0..6 {
            let resp: Response =
                serde_json::from_str(&rx.recv_timeout(Duration::from_secs(30)).unwrap()).unwrap();
            match resp.error {
                Some(e) => {
                    assert!(e.contains("queue full"), "{e}");
                    sheds += 1;
                }
                None => answered += 1,
            }
        }
        assert!(sheds > 0, "tiny queue must shed under a burst");
        assert!(answered > 0, "admitted queries must still be answered");
        let tel = server.telemetry().clone();
        server.finish().unwrap();
        assert_eq!(tel.counter(metrics::SHED), sheds);
        let records = tel.records();
        let shed_events: Vec<_> = records
            .iter()
            .filter(|r| r.event.kind() == "QueryShed")
            .collect();
        assert_eq!(
            shed_events.len(),
            1,
            "one uninterrupted overload episode emits exactly one event"
        );
        assert!(records.iter().any(|r| r.event.kind() == "Serve"));
    }
}
