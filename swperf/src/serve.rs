//! The `serve-zipf` workload: `sw-serve` restarted from a persisted
//! store, one client connection driving a closed loop of Zipf-skewed
//! queries.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use sw_algos::{msbfs_distributed, AlgoCluster};
use sw_graph::{generate_kronecker, KroneckerConfig, StorageBackend};
use sw_net::framing::{QueryOp, QueryStatus};
use sw_serve::{counters, Client, Response, ServeConfig, Server};
use sw_trace::{ClockDomain, EventKind, Tracer};

use crate::oracle::{expected_answer, Graph, Op, Outcome, Tally};
use crate::stats::{median, ms, quantile, Rng, Zipf};
use crate::{Metrics, Run};

const SCALE: u32 = 16;
/// Kronecker generator seed: the graph is fixed, `--seed` draws the
/// root pool and the query stream.
const GRAPH_SEED: u64 = 1;
/// Distinct roots the Zipf distribution ranges over.
const POOL: usize = 1024;
const ZIPF_EXPONENT: f64 = 1.0;
/// Queries outstanding on the one connection.
const WINDOW: usize = 16;
/// Queries answered before timing, so the result cache is warm.
const WARMUP_QUERIES: u64 = 512;
const SETUP_REPS: usize = 5;
const RESTARTS: usize = 11;
/// Fixed roots of the one-call MS-BFS probe.
const PROBE_ROOTS: usize = 64;
const PROBE_REPS: usize = 3;
/// A traced run alternates disarmed and armed servers in chunks of
/// this length.
const CHUNK: Duration = Duration::from_millis(500);
/// Events per trace lane (one query span per answer).
const TRACE_CAPACITY: usize = 1 << 18;

#[derive(Clone, Copy)]
struct Query {
    op: Op,
    root: u64,
    target: u64,
}

/// The seeded query stream: roots drawn Zipf over the pool, targets
/// uniform, operations rotating Distance, Reachable, KHop(2).
struct QueryGen {
    rng: Rng,
    zipf: Zipf,
    pool: Vec<u64>,
    n: u64,
    i: u64,
}

impl QueryGen {
    fn next(&mut self) -> Query {
        let op = [Op::Distance, Op::Reachable, Op::KHop(2)][(self.i % 3) as usize];
        self.i += 1;
        let root = self.pool[self.zipf.sample(&mut self.rng)];
        let target = self.rng.below(self.n);
        Query { op, root, target }
    }
}

/// One query as the client saw it end.
struct Answer {
    q: Query,
    latency_ms: f64,
    result: Result<Response, String>,
}

enum Until {
    Count(u64),
    Deadline(Instant),
}

/// Runs a closed loop of [`WINDOW`] outstanding queries until `until`,
/// then drains. Returns the wall time from first send to last answer.
fn closed_loop(
    client: &mut Client,
    gen: &mut QueryGen,
    until: Until,
    out: &mut Vec<Answer>,
) -> Duration {
    let mut inflight: VecDeque<(u64, Query, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut sent = 0u64;
    let may_send = |sent: u64| match until {
        Until::Count(n) => sent < n,
        Until::Deadline(d) => Instant::now() < d,
    };
    let start = Instant::now();
    let mut send = |client: &mut Client, inflight: &mut VecDeque<_>, out: &mut Vec<Answer>| {
        let q = gen.next();
        let (op, hops) = match q.op {
            Op::Distance => (QueryOp::Distance, 0),
            Op::Reachable => (QueryOp::Reachable, 0),
            Op::KHop(h) => (QueryOp::KHop, h),
        };
        let t = Instant::now();
        match client.send(op, q.root, q.target, hops, 0) {
            Ok(id) => inflight.push_back((id, q, t)),
            Err(e) => out.push(Answer {
                q,
                latency_ms: 0.0,
                result: Err(format!("send: {e}")),
            }),
        }
    };
    while inflight.len() < WINDOW && may_send(sent) {
        send(client, &mut inflight, out);
        sent += 1;
    }
    while let Some((id, q, t)) = inflight.pop_front() {
        let result = match client.recv() {
            Ok(r) if r.id() == id => Ok(r),
            Ok(r) => Err(format!("answer for id {} where {id} was due", r.id())),
            Err(e) => Err(format!("recv: {e}")),
        };
        let broken = result.is_err();
        out.push(Answer {
            q,
            latency_ms: ms(t.elapsed()),
            result,
        });
        if broken {
            // The connection's order is lost: everything still in
            // flight fails with it.
            for (_, q, _) in inflight.drain(..) {
                out.push(Answer {
                    q,
                    latency_ms: 0.0,
                    result: Err("connection broken".into()),
                });
            }
            break;
        }
        if may_send(sent) {
            send(client, &mut inflight, out);
            sent += 1;
        }
    }
    start.elapsed()
}

/// Checks every answer against the oracle, one oracle BFS per distinct
/// root.
fn check_answers(graph: &Graph, answers: &[Answer], tally: &mut Tally) {
    let mut order: Vec<usize> = (0..answers.len()).collect();
    order.sort_by_key(|&i| answers[i].q.root);
    let mut levels: Option<(u64, Vec<u32>)> = None;
    for i in order {
        let a = &answers[i];
        let what = format!("{:?} from {} to {}", a.q.op, a.q.root, a.q.target);
        let outcome = match &a.result {
            Err(e) => Outcome::Error(e.clone()),
            Ok(Response::Busy(_)) => Outcome::Busy,
            Ok(Response::Answer(r)) => match r.status {
                QueryStatus::Timeout => Outcome::Timeout,
                QueryStatus::BadQuery => Outcome::Error("answered BadQuery".into()),
                QueryStatus::Ok => {
                    if levels.as_ref().map(|l| l.0) != Some(a.q.root) {
                        levels = Some((a.q.root, graph.levels(a.q.root)));
                    }
                    let level = &levels.as_ref().expect("levels computed").1;
                    let want = expected_answer(a.q.op, a.q.target, level);
                    if r.value == want {
                        Outcome::Ok
                    } else {
                        Outcome::Wrong(format!("got {}, want {want}", r.value))
                    }
                }
            },
        };
        tally.record(&what, outcome);
    }
}

fn answered(a: &Answer) -> Option<&sw_net::framing::ResultFrame> {
    match &a.result {
        Ok(Response::Answer(r)) if r.status == QueryStatus::Ok => Some(r),
        _ => None,
    }
}

/// Queries per second and the median client latency; returns the QPS.
fn loop_metrics(answers: &[Answer], wall: Duration, m: &mut Metrics) -> f64 {
    let lat: Vec<f64> = answers
        .iter()
        .filter(|a| answered(a).is_some())
        .map(|a| a.latency_ms)
        .collect();
    let qps = lat.len() as f64 / wall.as_secs_f64();
    m.set("ops_per_s", qps);
    m.set("op_ms.p50", median(&lat));
    qps
}

fn start(store: &Path, tracer: Option<Tracer>) -> Result<(Server, Client), String> {
    let cfg = ServeConfig {
        tracer,
        ..ServeConfig::default()
    };
    let server = Server::start_from_store(store, StorageBackend::Mapped, cfg)
        .map_err(|e| format!("start_from_store failed: {e}"))?;
    let client = Client::connect(&server.addr()).map_err(|e| format!("connect failed: {e}"))?;
    Ok((server, client))
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Run, String> {
    let kron = KroneckerConfig::graph500(SCALE, GRAPH_SEED);
    let el = generate_kronecker(&kron);
    let graph = Graph::new(el.num_vertices, &el.edges);
    let oracle_mib = graph.heap_bytes() as f64 / (1u64 << 20) as f64;
    println!("  oracle holds {oracle_mib:.1} MiB");
    let mut rng = Rng::new(seed);
    let mut pool = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let v = rng.below(el.num_vertices);
        if graph.degree(v) > 0 && !pool.contains(&v) {
            pool.push(v);
        }
    }
    let mut gen = QueryGen {
        rng,
        zipf: Zipf::new(POOL, ZIPF_EXPONENT),
        pool: pool.clone(),
        n: el.num_vertices,
        i: 0,
    };
    let cfg = ServeConfig::default();
    let store = work.join("store");
    let mut tally = Tally::default();
    let mut answers = Vec::new();
    let mut m = Metrics::default();
    if trace {
        let tb = Instant::now();
        drop(AlgoCluster::new(&el, cfg.ranks, 1, cfg.messaging));
        m.set("core.build_s", tb.elapsed().as_secs_f64());
    }
    drop(el);

    // Set-up: generation, store persist, restart from it, connect.
    let (mut setup, mut gen_s, mut persist, mut first) = (vec![], vec![], vec![], vec![]);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t0 = Instant::now();
        let el = generate_kronecker(&kron);
        gen_s.push(t0.elapsed().as_secs_f64());
        let tp = Instant::now();
        Server::build_store(&el, cfg.ranks, &store)
            .map_err(|e| format!("build_store failed: {e}"))?;
        persist.push(tp.elapsed().as_secs_f64());
        let (server, mut client) = start(&store, None)?;
        setup.push(t0.elapsed().as_secs_f64());
        let mut one = Vec::new();
        closed_loop(&mut client, &mut gen, Until::Count(1), &mut one);
        first.push(one[0].latency_ms);
        answers.extend(one);
        live = Some((server, client));
    }
    let (server, mut client) = live.expect("at least one set-up");
    m.set("setup_s", median(&setup));
    m.set("graph.generate_s", median(&gen_s));
    m.set("graph.store_persist_s", median(&persist));
    m.set("core.warmup_ms", median(&first));

    // Restart: each timed from the call until a client connects.
    let mut restart = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let pair = start(&store, None)?;
        restart.push(ms(t0.elapsed()));
        drop(pair);
    }
    m.set("restart_ms", median(&restart));

    closed_loop(
        &mut client,
        &mut gen,
        Until::Count(WARMUP_QUERIES),
        &mut answers,
    );
    if trace {
        probe(&graph, &store, &pool, &cfg, &mut tally, &mut m)?;
        let path = work.parent().expect("work directory has a parent");
        let path = path.join(format!("serve-zipf-seed{seed}.trace.json"));
        let traced = traced(&mut client, &store, &mut gen, seconds, &path, &mut m)?;
        answers.extend(traced);
    } else {
        let from = answers.len();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let wall = closed_loop(
            &mut client,
            &mut gen,
            Until::Deadline(deadline),
            &mut answers,
        );
        loop_metrics(&answers[from..], wall, &mut m);
    }
    drop((server, client));
    check_answers(&graph, &answers, &mut tally);
    println!("  {} queries answered and checked", answers.len());
    Ok(Run { tally, metrics: m })
}

/// The MS-BFS layer alone: map the store into an `AlgoCluster`, then
/// time one 64-root sweep, its first output checked root by root.
fn probe(
    graph: &Graph,
    store: &Path,
    pool: &[u64],
    cfg: &ServeConfig,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut map = Vec::with_capacity(PROBE_REPS);
    let mut cluster = None;
    for _ in 0..PROBE_REPS {
        drop(cluster.take());
        let t0 = Instant::now();
        let c = AlgoCluster::from_store_dir(
            store,
            StorageBackend::Mapped,
            cfg.group_size,
            cfg.messaging,
        )
        .map_err(|e| format!("AlgoCluster::from_store_dir failed: {e}"))?;
        map.push(ms(t0.elapsed()));
        cluster = Some(c);
    }
    m.set("graph.store_map_ms", median(&map));
    let mut cluster = cluster.expect("at least one map");
    let roots = &pool[..PROBE_ROOTS];
    let mut sweep = Vec::with_capacity(PROBE_REPS);
    for i in 0..PROBE_REPS {
        let t0 = Instant::now();
        let out = msbfs_distributed(&mut cluster, roots);
        sweep.push(ms(t0.elapsed()));
        if i == 0 {
            let bad = roots
                .iter()
                .zip(&out.levels)
                .find(|(&r, l)| graph.levels(r) != **l);
            let outcome = match bad {
                None => Outcome::Ok,
                Some((r, _)) => Outcome::Wrong(format!("levels from {r} differ from the oracle")),
            };
            tally.record("64-root MS-BFS sweep", outcome);
        }
    }
    m.set("algos.msbfs64_ms", median(&sweep));
    Ok(())
}

/// A traced run: a second, armed server beside the disarmed one, the
/// closed loop alternating between them chunk by chunk. Returns every
/// answer, for checking.
fn traced(
    plain: &mut Client,
    store: &Path,
    gen: &mut QueryGen,
    seconds: f64,
    trace_path: &Path,
    m: &mut Metrics,
) -> Result<Vec<Answer>, String> {
    let tracer = Tracer::new(ClockDomain::Wall, &["query", "sweep"], TRACE_CAPACITY);
    let (server, mut client) = start(store, Some(tracer.clone()))?;
    let mut answers = Vec::new();
    closed_loop(&mut client, gen, Until::Count(WARMUP_QUERIES), &mut answers);
    let before = server.metrics();
    let mark = tracer.begin();
    let mut got: [Vec<Answer>; 2] = [Vec::new(), Vec::new()];
    let mut wall = [Duration::ZERO; 2];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let end = (Instant::now() + CHUNK).min(deadline);
        let c: &mut Client = if i % 2 == 0 { &mut *plain } else { &mut client };
        wall[i % 2] += closed_loop(c, gen, Until::Deadline(end), &mut got[i % 2]);
        i += 1;
    }
    let delta = |key: &str| (server.metrics().get(key) - before.get(key)) as f64;
    let queries = delta(counters::QUERIES);
    let batches = delta(counters::BATCHES);
    m.set("serve.hit_ratio", delta(counters::CACHE_HITS) / queries);
    m.set(
        "serve.roots_per_sweep",
        delta(counters::SWEPT_ROOTS) / batches,
    );
    m.set("serve.sweeps_per_kq", batches / queries * 1e3);
    m.set(
        "serve.coalesced_per_kq",
        delta(counters::COALESCED) / queries * 1e3,
    );
    m.set(
        "algos.rounds_per_sweep",
        delta(counters::SWEEP_ROUNDS) / batches,
    );
    drop((server, client));

    let rep = tracer.report();
    std::fs::write(trace_path, rep.chrome_trace_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    if rep.total_dropped() > 0 {
        return Err(format!(
            "trace rings dropped {} events",
            rep.total_dropped()
        ));
    }
    let spans = |lane: usize| {
        rep.lanes[lane]
            .events
            .iter()
            .filter(move |e| e.kind == EventKind::Span && e.ts_ns >= mark)
    };
    let sweep_of: HashMap<u32, f64> = spans(1).map(|e| (e.level, e.dur_ns as f64 / 1e6)).collect();
    let sweeps: Vec<f64> = sweep_of.values().copied().collect();
    m.set("serve.sweep_ms.p50", median(&sweeps));
    let queue: Vec<f64> = spans(0)
        .map(|e| (e.arg as f64 / 1e3 - sweep_of.get(&e.level).copied().unwrap_or(0.0)).max(0.0))
        .collect();
    m.set("serve.queue_ms.p50", median(&queue));
    let traced = &got[1];
    let server_ms: Vec<f64> = traced
        .iter()
        .filter_map(answered)
        .map(|r| r.micros as f64 / 1e3)
        .collect();
    m.set("serve.server_ms.p50", median(&server_ms));
    m.set("serve.server_ms.p99", quantile(&server_ms, 0.99));
    let wire: Vec<f64> = traced
        .iter()
        .filter_map(|a| answered(a).map(|r| a.latency_ms - r.micros as f64 / 1e3))
        .collect();
    m.set("serve.client_wire_ms.p50", median(&wire));

    let mut scratch = Metrics::default();
    let plain_qps = loop_metrics(&got[0], wall[0], &mut scratch);
    let traced_qps = loop_metrics(&got[1], wall[1], &mut scratch);
    m.set("trace.overhead_pct", (plain_qps / traced_qps - 1.0) * 100.0);
    for g in got {
        answers.extend(g);
    }
    Ok(answers)
}
