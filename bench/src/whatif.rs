//! `whatif-sweep` and `whatif-reroute`: the what-if daemon (`Server` with
//! `ServerConfig::default()` and a plan cache of 8, behind `serve_tcp` on
//! loopback) answering a seeded query corpus.
//!
//! Three phases share one corpus: a closed loop of 2 connections x 8 in
//! flight (saturated throughput), a closed loop of 1 connection x 1 in
//! flight (single-client throughput), and an open loop of Poisson arrivals
//! at a fixed rate over 1 connection, timed from each query's scheduled
//! send. The closed loops alternate over four rounds on fresh connections.
//! Every response must equal, byte for byte, the offline `predict_batch`
//! answer serialised with `Response::to_line`.
//!
//! Why two workloads: `whatif-sweep` asks about many traffic matrices on
//! one NSFNET routing, so the plan cache hits on every query and JSON
//! parsing, validation, queueing and serialisation dominate.
//! `whatif-reroute` gives every query its own randomised routing on
//! NSFNET, GBN or Geant2, so the cache misses on nearly every query and
//! `PathTensors::build`, heterogeneous packing and the Geant2-sized forward
//! pass dominate. The same layers run in both, used differently.

use crate::metrics::{nearest_rank, set_latencies, sorted, Report};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::prelude::*;
use routenet_faults::FsHandle;
use routenet_netgraph::routing::{randomized_routing, shortest_path_routing};
use routenet_netgraph::topology::{assign_capacities, gbn, geant2, nsfnet, CapacityScheme};
use routenet_netgraph::traffic::sample_traffic_matrix;
use routenet_netgraph::{Graph, TrafficModel};
use routenet_nn::{Session, Tape, Tensor};
use routenet_obs::Telemetry;
use routenet_serve::server::{metrics as served, serve_tcp};
use routenet_serve::{Engine, PlanCache, Request, Response, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// A query gets no answer within this long: the daemon counts as stalled
/// and every query still outstanding on the connection fails.
const DEADLINE: Duration = Duration::from_secs(10);
/// Plan-cache capacity of the daemon under test.
const CACHE_CAP: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Reroute,
}

impl Kind {
    fn corpus_len(self, tiny: bool) -> usize {
        match (tiny, self) {
            (true, _) => 8,
            (false, Kind::Sweep) => 512,
            (false, Kind::Reroute) => 384,
        }
    }

    /// Open-loop arrival rate, queries/s: a tenth of the sweep's saturated
    /// throughput on a 2-core host and a seventh of the reroute's. A shared
    /// host's slow spells can halve the daemon's capacity, and the queue
    /// magnifies them: at a third, the reroute tail spread 50% over ten
    /// runs, and at a sixth, a slow spell over three runs doubled the
    /// sweep's p90 in them.
    fn rate(self) -> f64 {
        match self {
            Kind::Sweep => 24.0,
            Kind::Reroute => 12.0,
        }
    }
}

fn with_capacities(mut g: Graph, rng: &mut StdRng) -> Graph {
    assign_capacities(&mut g, &CapacityScheme::kdn_default(), rng);
    g
}

fn traffic(
    g: &Graph,
    r: &routenet_netgraph::RoutingScheme,
    rng: &mut StdRng,
) -> routenet_netgraph::TrafficMatrix {
    let intensity = rng.gen_range(0.2..=0.8);
    sample_traffic_matrix(
        g,
        r,
        &TrafficModel::Uniform { min_frac: 0.25 },
        intensity,
        rng,
    )
}

/// The query corpus. Sweep: traffic matrices on one NSFNET graph with
/// shortest-path routing. Reroute: NSFNET, GBN and Geant2 in turn, each
/// scenario with its own capacities and randomised routing.
fn corpus(kind: Kind, seed: u64, n: usize) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57A7);
    match kind {
        Kind::Sweep => {
            let graph = with_capacities(nsfnet(), &mut rng);
            let routing = shortest_path_routing(&graph).expect("NSFNET is strongly connected");
            (0..n)
                .map(|_| Scenario {
                    traffic: traffic(&graph, &routing, &mut rng),
                    graph: graph.clone(),
                    routing: routing.clone(),
                })
                .collect()
        }
        Kind::Reroute => (0..n)
            .map(|i| {
                let base = [nsfnet, gbn, geant2][i % 3]();
                let graph = with_capacities(base, &mut rng);
                let routing = randomized_routing(&graph, 2.0, &mut rng)
                    .expect("zoo topologies are strongly connected");
                Scenario {
                    traffic: traffic(&graph, &routing, &mut rng),
                    graph,
                    routing,
                }
            })
            .collect(),
    }
}

/// An in-process daemon: `Server` plus the `serve_tcp` accept loop.
struct Daemon {
    server: Option<Arc<Server>>,
    accept: Option<thread::JoinHandle<std::io::Result<()>>>,
    addr: SocketAddr,
}

impl Daemon {
    fn start(model: &std::path::Path, tel: Telemetry) -> Daemon {
        let engine = Engine::load(&FsHandle::default(), model, CACHE_CAP).expect("load model");
        let server = Arc::new(Server::start(engine, ServerConfig::default(), tel));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let s = Arc::clone(&server);
        let accept = thread::spawn(move || serve_tcp(listener, &s));
        Daemon {
            server: Some(server),
            accept: Some(accept),
            addr,
        }
    }

    /// Stop accepting, drain the queue, join every daemon thread, and hand
    /// back the daemon's telemetry.
    fn stop(&mut self) -> Telemetry {
        let Some(server) = self.server.take() else {
            return Telemetry::disabled();
        };
        server.stop();
        if let Some(a) = self.accept.take() {
            if let Ok(Err(e)) = a.join() {
                eprintln!("bench-ledger: accept loop failed: {e}");
            }
        }
        let tel = server.telemetry().clone();
        match Arc::try_unwrap(server) {
            Ok(s) => {
                if let Err(e) = s.finish() {
                    eprintln!("bench-ledger: daemon telemetry: {e}");
                }
            }
            Err(_) => eprintln!("bench-ledger: daemon still referenced at stop"),
        }
        tel
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

pub struct Setup {
    kind: Kind,
    model_path: PathBuf,
    /// Scenario JSON of each corpus entry; query `id` asks about entry
    /// `id % len`.
    bodies: Vec<String>,
    scenarios: Vec<Scenario>,
    /// The offline answer to each corpus entry, after its `{"id":<n>`;
    /// computed once, after the timed set-up and before measuring.
    tails: OnceLock<Vec<String>>,
    model: RouteNet,
    daemon: Daemon,
}

impl Setup {
    fn tails(&self) -> &[String] {
        self.tails
            .get_or_init(|| oracle(&self.model, &self.scenarios))
    }
}

fn request(id: u64, body: &str) -> Vec<u8> {
    format!("{{\"id\":{id},\"scenario\":{body}}}\n").into_bytes()
}

/// One client connection with the per-query deadline on both directions.
struct Conn {
    out: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEADLINE))?;
        stream.set_write_timeout(Some(DEADLINE))?;
        Ok(Conn {
            out: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn send(&mut self, st: &Setup, id: u64) -> std::io::Result<()> {
        self.out
            .write_all(&request(id, &st.bodies[id as usize % st.bodies.len()]))
    }

    /// Next response line (without its newline).
    fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        Ok(self.line.trim_end())
    }
}

/// The query id a response line echoes.
fn response_id(line: &str) -> Option<u64> {
    let digits = line.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// A correct response is the oracle's line for its corpus entry, with its
/// own id; anything else (an error, a shed, other numbers) is a failure.
fn correct(st: &Setup, line: &str) -> Option<u64> {
    let id = response_id(line)?;
    let prefix_len = "{\"id\":".len() + id.to_string().len();
    let tails = st.tails();
    (line[prefix_len..] == tails[id as usize % tails.len()]).then_some(id)
}

/// Offline answers: `predict_batch` on each corpus entry, serialised with
/// `Response::to_line`, minus the leading `{"id":0`. Answers do not depend
/// on batch composition; batches of 16 keep the tape small.
fn oracle(model: &RouteNet, scenarios: &[Scenario]) -> Vec<String> {
    let refs: Vec<&Scenario> = scenarios.iter().collect();
    refs.chunks(16)
        .flat_map(|chunk| model.predict_batch(chunk))
        .map(|p| Response::ok(0, p).to_line()["{\"id\":0".len()..].to_string())
        .collect()
}

/// Closed loop over one connection: keep `window` queries in flight until
/// `end`, then drain. Returns (answered, failed, seconds).
fn closed_loop(
    st: &Setup,
    ids: impl Iterator<Item = u64>,
    window: usize,
    keep_sending: impl Fn(u64) -> bool,
) -> (u64, u64, f64) {
    let start = Instant::now();
    let Ok(mut conn) = Conn::open(st.daemon.addr) else {
        return (0, 1, 0.0);
    };
    let (mut sent, mut answered, mut failed, mut in_flight) = (0u64, 0u64, 0u64, 0u64);
    let mut ids = ids.peekable();
    loop {
        while in_flight < window as u64 && keep_sending(sent) {
            let Some(id) = ids.next() else { break };
            if conn.send(st, id).is_err() {
                return (
                    answered,
                    failed + in_flight + 1,
                    start.elapsed().as_secs_f64(),
                );
            }
            sent += 1;
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        match conn.recv() {
            Ok(line) => {
                in_flight -= 1;
                answered += 1;
                if correct(st, line).is_none() {
                    failed += 1;
                }
            }
            Err(_) => return (answered, failed + in_flight, start.elapsed().as_secs_f64()),
        }
    }
    (answered, failed, start.elapsed().as_secs_f64())
}

/// Open-loop result.
struct OpenLoop {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    sent: u64,
    tel: Telemetry,
}

/// Poisson arrivals at `kind.rate()` for `seconds` over one connection to
/// a fresh daemon; latency runs from each query's scheduled send.
///
/// The arrival times come from one fixed seed, while `--seed` picks the
/// queries: the tail of an 18 s open loop is set by its few largest bursts,
/// so schedules drawn per seed moved the p99 by up to 2x between seeds.
fn open_loop(ctx: &Ctx, st: &Setup, seconds: f64) -> OpenLoop {
    let mut rng = StdRng::seed_from_u64(0x0BE7_1007);
    let rate = st.kind.rate();
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if (ctx.tiny && offsets.len() == 8) || (!ctx.tiny && t > seconds) {
            break;
        }
        offsets.push(t);
    }
    let tel = if ctx.trace {
        Telemetry::in_memory("bench-ledger", "open-loop")
    } else {
        Telemetry::disabled()
    };
    let mut daemon = Daemon::start(&st.model_path, tel);
    warm_up(st, daemon.addr);
    let mut res = OpenLoop {
        latencies_ms: Vec::with_capacity(offsets.len()),
        late_ms: Vec::new(),
        failed: 0,
        sent: offsets.len() as u64,
        tel: Telemetry::disabled(),
    };
    match Conn::open(daemon.addr) {
        Err(_) => res.failed = res.sent,
        Ok(mut conn) => {
            let mut out = conn.out.try_clone().expect("clone stream");
            let start = Instant::now();
            let offsets = &offsets;
            let (latencies, failed) = (&mut res.latencies_ms, &mut res.failed);
            res.late_ms = thread::scope(|s| {
                let sender = s.spawn(move || {
                    let mut late = Vec::with_capacity(offsets.len());
                    for (id, off) in (0u64..).zip(offsets) {
                        let due = start + Duration::from_secs_f64(*off);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        let body = &st.bodies[id as usize % st.bodies.len()];
                        if out.write_all(&request(id, body)).is_err() {
                            break;
                        }
                    }
                    late
                });
                for received in 0..offsets.len() {
                    let Ok(line) = conn.recv() else {
                        *failed += (offsets.len() - received) as u64;
                        break;
                    };
                    let now = Instant::now();
                    match correct(st, line) {
                        Some(id) => {
                            let due = start + Duration::from_secs_f64(offsets[id as usize]);
                            latencies.push(now.duration_since(due).as_secs_f64() * 1e3);
                        }
                        None => *failed += 1,
                    }
                }
                // Unblocks a sender stuck on a stalled daemon.
                let _ = conn.out.shutdown(std::net::Shutdown::Write);
                sender.join().expect("open-loop sender")
            });
        }
    }
    res.tel = daemon.stop();
    res
}

/// Fill the plan cache and the arena before anything is timed.
fn warm_up(st: &Setup, addr: SocketAddr) {
    if let Ok(mut conn) = Conn::open(addr) {
        for id in 0..16u64.min(st.bodies.len() as u64) {
            if conn.send(st, id).is_err() || conn.recv().is_err() {
                break;
            }
        }
    }
}

pub fn setup(ctx: &Ctx, kind: Kind) -> Setup {
    let dir = ctx.tmp.join("whatif");
    std::fs::create_dir_all(&dir).expect("create whatif scratch dir");
    let scenarios = corpus(kind, ctx.seed, kind.corpus_len(ctx.tiny));
    let bodies = scenarios
        .iter()
        .map(|s| serde_json::to_string(s).expect("scenario serializes"))
        .collect();
    // Prediction cost does not depend on the weights; an untrained model
    // with unit-scale features keeps the forward pass numerically healthy.
    let mut model = RouteNet::new(RouteNetConfig::default());
    model.set_normalizer(Normalizer {
        capacity_scale: 40_000.0,
        traffic_scale: 500.0,
        ..Normalizer::default()
    });
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json()).expect("write model");
    let daemon = Daemon::start(&model_path, Telemetry::disabled());
    let st = Setup {
        kind,
        model_path,
        bodies,
        scenarios,
        tails: OnceLock::new(),
        model,
        daemon,
    };
    warm_up(&st, st.daemon.addr);
    st
}

/// Per-phase shares of the run's seconds; the open loop gets most, so
/// its tail has at least ten samples beyond it at the reroute's low rate.
const SAT_SHARE: f64 = 0.15;
const T1_SHARE: f64 = 0.1;
const OPEN_SHARE: f64 = 0.75;

/// Closed loop of 2 connections x 8 in flight for `seconds`, query ids from
/// `first`: (answered, failed, wall seconds).
fn saturate(ctx: &Ctx, st: &Setup, seconds: f64, first: u64) -> (u64, u64, f64) {
    let phase = Duration::from_secs_f64(seconds);
    let results: Vec<(u64, u64, f64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                s.spawn(move || {
                    let start = Instant::now();
                    let more = move |sent: u64| {
                        if ctx.tiny {
                            sent < 4
                        } else {
                            start.elapsed() < phase
                        }
                    };
                    closed_loop(st, (first + c..).step_by(2), 8, more)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let answered = results.iter().map(|r| r.0).sum();
    let failed = results.iter().map(|r| r.1).sum();
    let wall = results.iter().map(|r| r.2).fold(0.0, f64::max);
    (answered, failed, wall)
}

/// Closed loop of 1 connection x 1 in flight for `seconds`, query ids from
/// `first`.
fn single(ctx: &Ctx, st: &Setup, seconds: f64, first: u64) -> (u64, u64, f64) {
    let start = Instant::now();
    let phase = Duration::from_secs_f64(seconds);
    closed_loop(st, first.., 1, |sent| {
        if ctx.tiny {
            sent < 8
        } else {
            start.elapsed() < phase
        }
    })
}

/// Closed-loop rounds: each round opens fresh connections (so fresh daemon
/// reader and writer threads); the rates pool every round's queries and
/// seconds. A round of `whatif-reroute` holds only a handful of batches, so
/// a median of per-round rates would move in steps of a batch. Query ids
/// run on across rounds, so the rounds walk the corpus instead of asking
/// about its first few scenarios each time.
const ROUNDS: usize = 4;

/// Count one closed-loop round into `acc` (queries answered, seconds).
fn tally(rep: &mut Report, (answered, failed, wall): (u64, u64, f64), acc: &mut (u64, f64)) {
    rep.attempt(answered);
    if failed > 0 {
        rep.fail(failed, "closed loop: wrong, refused or late answers");
    }
    acc.0 += answered;
    acc.1 += wall;
}

pub fn measure(ctx: &Ctx, st: &Setup, rep: &mut Report) {
    st.tails();
    let rounds = if ctx.tiny { 1 } else { ROUNDS };
    let round_s = ctx.seconds / rounds as f64;
    let (mut sat, mut one) = ((0, 0.0), (0, 0.0));
    let mut next = 0;
    for _ in 0..rounds {
        let r = saturate(ctx, st, round_s * SAT_SHARE, next);
        next += r.0;
        tally(rep, r, &mut sat);
        let r = single(ctx, st, round_s * T1_SHARE, next);
        next += r.0;
        tally(rep, r, &mut one);
    }
    rep.set("ops_per_s", sat.0 as f64 / sat.1, sat.0);
    rep.set("ops_per_s_t1", one.0 as f64 / one.1, one.0);

    let open = open_loop(ctx, st, ctx.seconds * OPEN_SHARE);
    rep.attempt(open.sent);
    if open.failed > 0 {
        rep.fail(open.failed, "open loop: wrong, refused or late answers");
    }
    // About 430 latencies on the sweep and 210 on the reroute. The
    // reroute's p95 has only ten beyond it and spread 13% and 27% over two
    // sets of ten runs, where its p90 spread 4% to 6% over three; the tail
    // is p90 on both.
    set_latencies(rep, &open.latencies_ms, 0.9);
    let lat = sorted(&open.latencies_ms);
    let late_p99 = nearest_rank(&sorted(&open.late_ms), 0.99);
    rep.set("serve.gen_late_p99_ms", late_p99, open.late_ms.len() as u64);
    if late_p99 > 1.0 {
        rep.note(
            "open_loop",
            format!("invalid: generator p99 lateness {late_p99:.3} ms > 1 ms"),
        );
    }
    rep.note("open_loop.rate_qps", format!("{}", st.kind.rate()));

    let tel = open.tel;
    if let Some(b) = tel.histogram_summary(served::BATCH_SIZE) {
        rep.set("serve.batch_mean", b.mean, b.count);
        rep.set("serve.batch_p95", b.p95, b.count);
    }
    if let Some(l) = tel.histogram_summary(served::LATENCY_S) {
        rep.set("serve.server_p50_ms", l.p50 * 1e3, l.count);
        rep.set("serve.server_p95_ms", l.p95 * 1e3, l.count);
        // Derived: client-observed median minus the daemon's own median.
        rep.set(
            "serve.transport_ms",
            nearest_rank(&lat, 0.5) - l.p50 * 1e3,
            l.count,
        );
    }
    rep.set("serve.shed", tel.counter(served::SHED) as f64, 1);
}

/// `extract_predictions` of `RouteNet`, over a batch's output rows.
fn predictions(model: &RouteNet, v: &Tensor, batch: &BatchedScenario) -> Vec<Vec<Prediction>> {
    let cfg = model.config();
    let row = |r: usize| {
        let jz = model.jitter_col().map_or(0.0, |c| v.get(r, c));
        let t = model.normalizer().denormalize(v.get(r, 0), jz);
        Prediction {
            delay_s: t.delay_s,
            jitter_s2: if cfg.predict_jitter {
                t.jitter_s2
            } else {
                f64::NAN
            },
            drop_prob: model
                .drop_col()
                .map_or(f64::NAN, |c| v.get(r, c).clamp(0.0, 1.0)),
        }
    };
    (0..batch.n_samples())
        .map(|s| {
            let (lo, hi) = batch.sample_path_range(s);
            (lo..hi).map(row).collect()
        })
        .collect()
}

struct Replay {
    wall_s: f64,
    lines: Vec<String>,
    arena: Tape,
    cache: PlanCache,
}

/// The daemon's per-query and per-batch calls, single-threaded, each in a
/// span: parse, validate, plan lookup, compile, pack, forward, serialise,
/// telemetry.
fn replay(st: &Setup, model: &RouteNet, batch_size: usize, t: &mut Tracer) -> Replay {
    let lines: Vec<Vec<u8>> = (0u64..)
        .zip(&st.bodies)
        .map(|(id, b)| request(id, b))
        .collect();
    let tel = Telemetry::in_memory("bench-ledger", "replay");
    let mut cache = PlanCache::new(CACHE_CAP);
    let mut arena = Tape::new();
    let mut out = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for (b, chunk) in (0u64..).zip(lines.chunks(batch_size)) {
        t.set_request(b);
        let op = t.begin("op");
        let mut queries = Vec::with_capacity(chunk.len());
        for line in chunk {
            let text = std::str::from_utf8(line).expect("utf-8 request").trim_end();
            let req: Request = t
                .span("serve.parse", || serde_json::from_str(text))
                .expect("request parses");
            let mut sc = req.scenario.expect("query carries a scenario");
            t.span("core.validate", || {
                sc.finalize();
                sc.validate()
            })
            .expect("corpus scenarios validate");
            queries.push((req.id, sc));
        }
        let compiled: Vec<_> = queries
            .iter()
            .map(|(_, sc)| {
                let plan = t.span("serve.cache", || cache.plan_for(sc));
                t.span("core.compile", || model.compile_with_index(sc, plan))
            })
            .collect();
        let refs: Vec<_> = compiled.iter().collect();
        let batch = t.span("core.pack", || BatchedScenario::pack(&refs));
        let mut sess = Session::with_tape(model.store(), arena);
        let preds = t.span("core.forward", || {
            let v = model.forward_batch(&mut sess, &batch);
            predictions(model, sess.tape.value(v), &batch)
        });
        arena = sess.into_tape();
        for ((id, _), p) in queries.iter().zip(preds) {
            out.push(t.span("serve.serialize", || Response::ok(*id, p).to_line()));
        }
        t.span("obs.emit", || {
            tel.observe_s(served::BATCH_SIZE, chunk.len() as f64);
            tel.counter_add(served::RESPONSES, chunk.len() as u64);
        });
        t.end(op);
    }
    Replay {
        wall_s: start.elapsed().as_secs_f64(),
        lines: out,
        arena,
        cache,
    }
}

pub fn trace(ctx: &Ctx, st: &Setup, rep: &mut Report) -> (Tracer, f64, f64) {
    let model = &st.model;
    // Batches of the mean size the traced TCP run observed.
    let mean_batch = rep.metrics.get("serve.batch_mean").map_or(1.0, |m| m.value);
    let batch_size = (mean_batch.round() as usize).max(1);
    let a = replay(st, model, batch_size, &mut Tracer::new(false));
    rep.attempt(a.lines.len() as u64);
    let wrong = a.lines.iter().filter(|l| correct(st, l).is_none()).count();
    if wrong > 0 {
        rep.fail(
            wrong as u64,
            "replayed answers differ from the offline oracle",
        );
    }
    let mut t = Tracer::new(true);
    let b = replay(st, model, batch_size, &mut t);

    let (hits, misses) = b.cache.stats();
    rep.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        hits + misses,
    );
    rep.set("nn.tape_nodes_max", b.arena.max_nodes() as f64, 1);
    rep.set("nn.tape_scalars_max", b.arena.max_scalars() as f64, 1);
    let (h, m) = (b.arena.reuse_hits() as f64, b.arena.reuse_misses() as f64);
    rep.set("nn.arena_hit_ratio", h / (h + m), (h + m) as u64);
    // Derived: the daemon's median latency minus the untraced replay's
    // service time for one batch of the observed mean size.
    if let Some(server_p50) = rep.metrics.get("serve.server_p50_ms").map(|m| m.value) {
        let batches = st.bodies.len().div_ceil(batch_size) as f64;
        let service_ms = a.wall_s * 1e3 / batches;
        rep.set(
            "serve.queue_wait_ms",
            server_p50 - service_ms,
            batches as u64,
        );
    }

    let compiled: Vec<_> = st
        .scenarios
        .iter()
        .take(batch_size)
        .map(|s| model.compile(s))
        .collect();
    let refs: Vec<_> = compiled.iter().collect();
    crate::kernels::probe(&refs, ctx.tiny, rep);
    (t, a.wall_s, b.wall_s)
}
