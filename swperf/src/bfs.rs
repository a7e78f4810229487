//! The two BFS workloads: Graph500 kernel 1 on the shared-memory
//! fabric (`g500-shm`) and the same configuration across the
//! socket fabric's rank daemons (`bfs-socket`).

use std::path::Path;
use std::time::{Duration, Instant};

use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig, StorageBackend};
use sw_trace::{ClockDomain, EventKind, TraceReport, Tracer};
use swbfs_core::config::BfsConfig;
use swbfs_core::engine::{ClusterBuilder, SharedMem, SocketTransport, SuperstepEngine, Transport};
use swbfs_core::instrument as ins;

use crate::oracle::{check_tree, fingerprint, Graph, Outcome, Tally};
use crate::stats::{median, ms, teps};
use crate::{Metrics, Run};

/// Search roots per pass: four Graph500 runs' worth. A root's BFS
/// time is set by how much work direction switching leaves it (from
/// about 9 to 20 ms at scale 16), and the median over 64 roots moved
/// by up to 18% from one seed's roots to the next; over 256 it moves
/// about a third as much.
const ROOTS: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Restarts from the persisted store per run; `restart_ms` is their
/// median.
const RESTARTS: usize = 11;
/// Kronecker generator seed. The graph is fixed per workload, as the
/// Graph500 reference fixes its generator seed; `--seed` draws the
/// roots.
const GRAPH_SEED: u64 = 1;
/// Relay-group width: two groups of four at eight ranks.
const GROUP: u32 = 4;
/// Events per trace lane; one traced pass records a few thousand.
const TRACE_CAPACITY: usize = 1 << 15;

pub struct BfsSpec {
    pub scale: u32,
    pub ranks: u32,
    pub socket: bool,
}

pub const G500_SHM: BfsSpec = BfsSpec {
    scale: 16,
    ranks: 8,
    socket: false,
};

pub const BFS_SOCKET: BfsSpec = BfsSpec {
    scale: 16,
    ranks: 2,
    socket: true,
};

fn cfg() -> BfsConfig {
    BfsConfig::threaded_small(GROUP)
}

pub fn run(
    spec: &BfsSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Run, String> {
    if spec.socket {
        if SocketTransport::unix().resolve_rankd().is_none() {
            return Err(
                "swbfs-rankd not found: build it with `cargo build --release -p swbfs-core \
                        --bin swbfs-rankd` into the same target directory, or set SWBFS_RANKD"
                    .into(),
            );
        }
        drive(
            spec,
            seed,
            seconds,
            trace,
            work,
            SocketTransport::unix,
            |t| {
                let m = t.merged_telemetry();
                (m.frames, m.bytes)
            },
        )
    } else {
        drive(spec, seed, seconds, trace, work, SharedMem::new, |_| (0, 0))
    }
}

/// Checks one BFS output: a parent array identical to one already
/// checked in full passes; anything else is checked in full against a
/// fresh oracle BFS.
struct Checker<'a> {
    graph: &'a Graph,
    roots: &'a [u64],
    verified: Vec<Option<u64>>,
}

impl<'a> Checker<'a> {
    fn new(graph: &'a Graph, roots: &'a [u64]) -> Self {
        Checker {
            graph,
            roots,
            verified: vec![None; roots.len()],
        }
    }

    fn check(&mut self, k: usize, parents: &[u64]) -> Outcome {
        let fp = fingerprint(parents);
        if self.verified[k] == Some(fp) {
            return Outcome::Ok;
        }
        let level = self.graph.levels(self.roots[k]);
        match check_tree(self.graph, self.roots[k], &level, parents) {
            Ok(()) => {
                self.verified[k] = Some(fp);
                Outcome::Ok
            }
            Err(m) => Outcome::Wrong(m),
        }
    }

    fn record<E: std::fmt::Display>(
        &mut self,
        tally: &mut Tally,
        k: usize,
        res: Result<swbfs_core::BfsOutput, E>,
    ) -> Option<swbfs_core::BfsOutput> {
        let what = format!("BFS from {}", self.roots[k]);
        match res {
            Ok(out) => {
                tally.record(&what, self.check(k, &out.parents));
                Some(out)
            }
            Err(e) => {
                tally.record(&what, Outcome::Error(e.to_string()));
                None
            }
        }
    }
}

/// Per-BFS layer sums from one traced pass.
#[derive(Default)]
struct LayerTimes {
    gen: f64,
    handle: f64,
    hub_gather: f64,
    exchange: f64,
    wire_wait: f64,
}

/// Sums the wall spans of a traced pass. `wire_wait` is each level
/// span minus the union of the module and transport spans inside it:
/// the time the parent spent blocked on neither (on the socket fabric,
/// waiting on the daemons).
fn layer_times(rep: &TraceReport) -> LayerTimes {
    let mut t = LayerTimes::default();
    let mut levels: Vec<(u64, u64)> = Vec::new();
    let mut children: Vec<(u64, u64)> = Vec::new();
    for lane in &rep.lanes {
        for ev in lane.events.iter().filter(|e| e.kind == EventKind::Span) {
            let d = ev.dur_ns as f64 / 1e6;
            let child = match ev.name {
                ins::SPAN_LEVEL => {
                    levels.push((ev.ts_ns, ev.ts_ns + ev.dur_ns));
                    false
                }
                ins::SPAN_GEN => {
                    t.gen += d;
                    true
                }
                ins::SPAN_HANDLE => {
                    t.handle += d;
                    true
                }
                ins::SPAN_HUB_GATHER => {
                    t.hub_gather += d;
                    false
                }
                ins::SPAN_BUCKET | ins::SPAN_RELAY | ins::SPAN_DELIVER => {
                    t.exchange += d;
                    true
                }
                _ => false,
            };
            if child {
                children.push((ev.ts_ns, ev.ts_ns + ev.dur_ns));
            }
        }
    }
    children.sort_unstable();
    levels.sort_unstable();
    let mut i = 0;
    for &(s, e) in &levels {
        while i < children.len() && children[i].0 < s {
            i += 1;
        }
        let (mut covered, mut reach) = (0u64, s);
        for &(cs, ce) in children[i..].iter().take_while(|c| c.0 < e) {
            let (cs, ce) = (cs.max(reach), ce.min(e));
            if ce > cs {
                covered += ce - cs;
                reach = ce;
            }
        }
        t.wire_wait += (e - s).saturating_sub(covered) as f64 / 1e6;
    }
    t
}

fn drive<T: Transport>(
    spec: &BfsSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    fabric: fn() -> T,
    wire: fn(&T) -> (u64, u64),
) -> Result<Run, String> {
    let kron = KroneckerConfig::graph500(spec.scale, GRAPH_SEED);
    // Roots and the oracle come from one untimed generation; every
    // timed set-up regenerates the same graph.
    let el = generate_kronecker(&kron);
    let roots = sw_graph500::select_roots(&el, ROOTS, seed);
    let graph = Graph::new(el.num_vertices, &el.edges);
    let oracle_mib = graph.heap_bytes() as f64 / (1u64 << 20) as f64;
    println!("  oracle holds {oracle_mib:.1} MiB");
    drop(el);
    let mut checker = Checker::new(&graph, &roots);
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-up: generation, cluster build and (on the socket fabric) the
    // first run, which spawns the rank daemons.
    let (mut setup, mut gen, mut build, mut warm) = (vec![], vec![], vec![], vec![]);
    let mut engine: Option<SuperstepEngine<T>> = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t0 = Instant::now();
        let el: EdgeList = generate_kronecker(&kron);
        gen.push(t0.elapsed().as_secs_f64());
        let tb = Instant::now();
        let mut e = ClusterBuilder::new(&el, spec.ranks, cfg())
            .transport(fabric())
            .build()
            .map_err(|e| format!("cluster build failed: {e}"))?;
        build.push(tb.elapsed().as_secs_f64());
        let tw = Instant::now();
        let first = e.run(roots[0]);
        let w = tw.elapsed();
        // The socket fabric spawns its daemons on the first run.
        let ready = if spec.socket { t0.elapsed() } else { tw - t0 };
        setup.push(ready.as_secs_f64());
        warm.push(ms(w));
        checker.record(&mut tally, 0, first);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    m.set("setup_s", median(&setup));
    m.set("graph.generate_s", median(&gen));
    m.set("core.build_s", median(&build));
    m.set("core.warmup_ms", median(&warm));

    // One untimed pass: the buffer pools and caches fill before timing.
    for (k, &root) in roots.iter().enumerate() {
        let res = engine.run(root);
        checker.record(&mut tally, k, res);
    }

    // Store restart: persist once, then map it back several times.
    let store = work.join("store");
    let tp = Instant::now();
    engine
        .persist_store(&store)
        .map_err(|e| format!("persist_store failed: {e}"))?;
    m.set("graph.store_persist_s", tp.elapsed().as_secs_f64());
    let mut restart = Vec::with_capacity(RESTARTS);
    for i in 0..RESTARTS {
        let t0 = Instant::now();
        let mut e = ClusterBuilder::from_store_dir(&store, cfg())
            .storage(StorageBackend::Mapped)
            .transport(fabric())
            .build()
            .map_err(|e| format!("restart from store failed: {e}"))?;
        restart.push(ms(t0.elapsed()));
        if i == 0 {
            let res = e.run(roots[0]);
            checker.record(&mut tally, 0, res);
        }
    }
    m.set("restart_ms", median(&restart));

    // Timed passes over the roots until the deadline. In a traced run,
    // passes alternate disarmed and armed so both see the same drift.
    let tracer = Tracer::for_ranks(ClockDomain::Wall, spec.ranks as usize, TRACE_CAPACITY);
    let mut times: [Vec<Vec<f64>>; 2] = [vec![vec![]; roots.len()], vec![vec![]; roots.len()]];
    let (mut levels, mut edges, mut runs) = (0u64, 0u64, 0u64);
    let counter_keys = [
        ("core.exchange.messages", ins::EXCHANGE_MESSAGES),
        ("core.exchange.bytes", ins::EXCHANGE_BYTES),
        ("core.exchange.record_hops", ins::EXCHANGE_RECORD_HOPS),
        ("core.pool.allocs", ins::POOL_ALLOCS),
        ("core.kernel.words_scanned", ins::KERNEL_WORDS_SCANNED),
        ("core.kernel.words_skipped", ins::KERNEL_WORDS_SKIPPED),
    ];
    let mut counters = [0u64; 6];
    let mut layers = LayerTimes::default();
    let mut traced_runs = 0u64;
    let mut dropped = 0u64;
    let wire0 = wire(engine.transport());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0usize;
    'timed: loop {
        let armed = trace && pass % 2 == 1;
        engine.set_tracer(armed.then(|| tracer.clone()));
        for (k, &root) in roots.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'timed;
            }
            let t0 = Instant::now();
            let res = engine.run(root);
            let dt = t0.elapsed().as_secs_f64();
            let Some(out) = checker.record(&mut tally, k, res) else {
                continue;
            };
            times[usize::from(armed)][k].push(dt);
            runs += 1;
            levels += out.levels.len() as u64;
            edges += out.total_edges_scanned();
            for (c, (_, key)) in counters.iter_mut().zip(counter_keys) {
                *c += engine.metrics().get(key);
            }
        }
        if armed {
            let rep = tracer.report();
            let t = layer_times(&rep);
            layers.gen += t.gen;
            layers.handle += t.handle;
            layers.hub_gather += t.hub_gather;
            layers.exchange += t.exchange;
            layers.wire_wait += t.wire_wait;
            dropped += rep.total_dropped();
            traced_runs += roots.len() as u64;
            let name = if spec.socket {
                "bfs-socket"
            } else {
                "g500-shm"
            };
            let path = work.parent().expect("work directory has a parent");
            let path = path.join(format!("{name}-seed{seed}.trace.json"));
            std::fs::write(&path, rep.chrome_trace_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            tracer.reset();
        }
        pass += 1;
    }
    engine.set_tracer(None);
    let wire1 = wire(engine.transport());
    drop(engine);
    if dropped > 0 {
        return Err(format!(
            "trace rings dropped {dropped} events; raise TRACE_CAPACITY"
        ));
    }
    if runs == 0 {
        return Err("no BFS completed".into());
    }

    // Each root's time is the median of its timed passes, so a stall
    // of the machine moves one sample, not a root.
    let per_root = |times: &[Vec<f64>]| -> Vec<(u64, f64)> {
        let timed = roots.iter().zip(times).filter(|(_, t)| !t.is_empty());
        timed.map(|(&r, t)| (r, median(t))).collect()
    };
    let rate = |ops: &[(u64, f64)]| ops.len() as f64 / ops.iter().map(|o| o.1).sum::<f64>();
    let untraced = per_root(&times[0]);
    m.set("ops_per_s", rate(&untraced));
    let secs: Vec<f64> = untraced.iter().map(|o| o.1).collect();
    m.set("op_ms.p50", median(&secs) * 1e3);
    // Graph500's rate, for the reader: it is `ops_per_s` times the
    // mean edges of the roots' components, so it is not a metric.
    let traversed = untraced.iter().map(|&(r, t)| (graph.traversed_edges(r), t));
    println!("  Graph500 TEPS {:.2} M", teps(traversed) / 1e6);
    let per = |x: u64| x as f64 / runs as f64;
    m.set("core.levels", per(levels));
    m.set("core.edges_scanned", per(edges));
    for (c, (name, _)) in counters.iter().zip(counter_keys) {
        m.set(name, per(*c));
    }
    m.set("net.frames", per(wire1.0 - wire0.0));
    m.set("net.wire_bytes", per(wire1.1 - wire0.1));
    if trace {
        let per_t = |x: f64| x / traced_runs.max(1) as f64;
        m.set("core.gen_ms", per_t(layers.gen));
        m.set("core.handle_ms", per_t(layers.handle));
        m.set("core.hub_gather_ms", per_t(layers.hub_gather));
        m.set("core.exchange_ms", per_t(layers.exchange));
        m.set("core.wire_wait_ms", per_t(layers.wire_wait));
        m.set(
            "trace.overhead_pct",
            (rate(&untraced) / rate(&per_root(&times[1])) - 1.0) * 100.0,
        );
    }
    println!("  {runs} timed BFS runs checked");
    Ok(Run { tally, metrics: m })
}
