//! The `wire_lookup` workload: one client connection in a closed loop
//! against a loopback `WireServer` over a durable session.

use crate::check::{canonical, is_ordered};
use crate::layers::{
    self, layer_metrics, layer_object, spans_json, Answer, LayerTotals, Sample, Tracer,
};
use crate::report::{
    data_sizes, list, median, num, object, peak_rss_mb, quantile, sorted, HostScale, Report,
};
use crate::Args;
use pyro::common::{PyroError, Tuple, Value};
use pyro::datagen::rng_with;
use pyro::datagen::tpch::{self, TpchConfig};
use pyro::datagen::StdRng;
use pyro::{QueryResult, Session, SessionBuilder, Strategy};
use pyro_wire::{ServerConfig, WireClient, WireRows, WireServer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The prepared point lookup: about 4 lineitems of one order, found by a
/// seek on the clustering key.
const POINT: &str = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = ? \
                     ORDER BY l_orderkey, l_quantity";

/// The ad hoc query: Query 3's join and grouping restricted to one order.
/// Each request names a new order literal, so its text is new to the plan
/// cache.
fn adhoc_sql(orderkey: i64) -> String {
    format!(
        "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
           AND l_orderkey = {orderkey} \
         GROUP BY ps_availqty, ps_partkey, ps_suppkey \
         ORDER BY ps_partkey"
    )
}

/// Reference for every point lookup at once: a full ordered scan.
const REF_POINT: &str =
    "SELECT l_orderkey, l_quantity FROM lineitem ORDER BY l_orderkey, l_quantity";

/// Reference for every ad hoc query at once: the same join grouped by
/// order as well.
const REF_ADHOC: &str =
    "SELECT l_orderkey, ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY l_orderkey, ps_availqty, ps_partkey, ps_suppkey";

const SCALE: f64 = 0.01;
/// The `pyro serve` plan-cache default.
const PLAN_CACHE_ENTRIES: usize = 256;
/// Smaller than the loaded data, so lookups miss the pool.
const POOL_PAGES: usize = 256;
/// One connection: its client thread and the server's worker take turns,
/// so the two never compete for the host's cores, and the client thread
/// can time the calibration kernel while the server is idle.
const CONNECTIONS: usize = 1;
/// Requests between two calibrations (about 0.2 s); a multiple of
/// [`ADHOC_EVERY`], so every segment has the same mix.
const SEGMENT: u64 = 200;
/// One request in this many is the ad hoc query. With one in ten, the
/// pooled 90th percentile would sit exactly on the boundary between the
/// two classes and jump between them from run to run; with one in eight it
/// sat in the ad hoc class's sparse lower tail and still spread 12% over
/// five seeds. One in five puts it at the ad hoc class's median.
const ADHOC_EVERY: u64 = 5;
/// Unmeasured seconds of traffic before timing starts.
const WARMUP_S: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// In-process requests run through both the public call and the traced
/// path: the same-program guard and the tracing overhead.
const GUARD_REQUESTS: u64 = 200;
/// Wire requests whose client-side spans go into the record.
const CLIENT_SPANS: usize = 10_000;
/// In-process requests traced from a cold pool for the per-layer numbers.
const REPLAY_REQUESTS: u64 = 500;

/// A data directory inside the checkout, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> DataDir {
        let dir = crate::report::checkout_root()
            .join(".perfbench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DataDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

/// Opens a durable session in `dir` and loads TPC-H at [`SCALE`].
fn open_loaded(dir: &Path, seed: u64, checkpoint_bytes: Option<u64>) -> pyro::Result<Session> {
    let mut builder = SessionBuilder::new()
        .plan_cache_entries(PLAN_CACHE_ENTRIES)
        .buffer_pool_pages(POOL_PAGES)
        .seed(seed)
        .data_dir(dir);
    if let Some(bytes) = checkpoint_bytes {
        builder = builder.wal_checkpoint_bytes(bytes);
    }
    let mut session = builder.open()?;
    tpch::load_with_seed(session.catalog_mut(), TpchConfig::scaled(SCALE), seed)?;
    Ok(session)
}

/// Expected rows per order key, from an independent in-memory session
/// (PYRO-P, hash operators off, columnar off).
struct References {
    point: HashMap<i64, Vec<Tuple>>,
    adhoc: HashMap<i64, Vec<Tuple>>,
}

impl References {
    fn build(seed: u64) -> pyro::Result<References> {
        let mut session = Session::builder()
            .strategy(Strategy::pyro_p())
            .hash_operators(false)
            .columnar(false)
            .seed(seed)
            .build();
        tpch::load_with_seed(session.catalog_mut(), TpchConfig::scaled(SCALE), seed)?;
        let by_key = |sql: &str, keep: &[usize]| -> pyro::Result<HashMap<i64, Vec<Tuple>>> {
            let mut map: HashMap<i64, Vec<Tuple>> = HashMap::new();
            for row in session.sql(sql)?.into_rows() {
                let key = row.get(0).as_int().expect("integer order key");
                map.entry(key).or_default().push(row.project(keep));
            }
            Ok(map)
        };
        let point = by_key(REF_POINT, &[0, 1])?;
        let adhoc = by_key(REF_ADHOC, &[1, 2, 3, 4])?
            .into_iter()
            .map(|(k, rows)| (k, canonical(rows)))
            .collect();
        Ok(References { point, adhoc })
    }

    /// Checks one response's rows against the reference.
    fn check(&self, req: Req, rows: &[Tuple]) -> Result<(), String> {
        let empty = Vec::new();
        if req.adhoc {
            if !is_ordered(rows, &[1]) {
                return Err(format!(
                    "ad hoc {}: rows not ordered by ps_partkey",
                    req.key
                ));
            }
            if canonical(rows.to_vec()) != *self.adhoc.get(&req.key).unwrap_or(&empty) {
                return Err(format!(
                    "ad hoc {}: rows differ from the reference",
                    req.key
                ));
            }
        } else if rows != self.point.get(&req.key).unwrap_or(&empty).as_slice() {
            return Err(format!("point {}: rows differ from the reference", req.key));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    adhoc: bool,
    key: i64,
}

/// A seeded request stream: uniform point keys, and every
/// [`ADHOC_EVERY`]th request an ad hoc query on an order no other stream
/// uses, so its text never repeats.
struct Requests {
    rng: StdRng,
    orders: i64,
    n: u64,
    next_adhoc: i64,
    offset: i64,
}

/// Streams in use: one per connection plus the in-process replay.
const STREAMS: i64 = CONNECTIONS as i64 + 1;

impl Requests {
    fn new(seed: u64, stream: usize) -> Requests {
        let orders = (TpchConfig::scaled(SCALE).lineitems / 4) as i64;
        Requests {
            rng: rng_with(seed ^ (0xa5a5_0000 + stream as u64)),
            orders,
            n: 0,
            next_adhoc: stream as i64,
            offset: (seed % orders as u64) as i64,
        }
    }

    fn next(&mut self) -> Req {
        self.n += 1;
        if self.n.is_multiple_of(ADHOC_EVERY) {
            // 7919 is prime and does not divide the order count, so
            // distinct indices give distinct keys until they wrap.
            let key = (self.offset + self.next_adhoc * 7919).rem_euclid(self.orders);
            self.next_adhoc += STREAMS;
            Req { adhoc: true, key }
        } else {
            Req {
                adhoc: false,
                key: self.rng.gen_range(0..self.orders),
            }
        }
    }
}

/// One completed wire request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Done {
    adhoc: bool,
    start_us: f64,
    rtt_ms: f64,
    /// `rtt_ms` scaled to the reference host speed.
    scaled_ms: f64,
    server_ms: f64,
    cache_hit: Option<bool>,
}

#[derive(Debug, Default)]
struct LoopOut {
    done: Vec<Done>,
    attempted: u64,
    errors: Vec<String>,
    /// Time spent on requests, without the calibrations between segments.
    wall_s: f64,
    /// `wall_s` scaled to the reference host speed.
    scaled_s: f64,
}

/// Runs the closed loop on one connection: the next request goes out when
/// the previous reply is complete, until `seconds` have passed. After
/// every [`SEGMENT`] requests the client thread calibrates, and the
/// segment's times are scaled to the reference host speed.
fn closed_loop(
    server: &WireServer,
    refs: &References,
    stream: &mut Requests,
    seconds: f64,
    origin: Instant,
    scale: &mut HostScale,
) -> LoopOut {
    let mut out = LoopOut::default();
    let mut client = match WireClient::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            return out;
        }
    };
    let stmt = match client.prepare(POINT) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("prepare: {e}"));
            return out;
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    scale.mark();
    let mut segment_start = Instant::now();
    let mut segment_first = 0;
    while Instant::now() < deadline {
        if out.attempted > 0 && out.attempted.is_multiple_of(SEGMENT) {
            end_segment(&mut out, segment_start, segment_first, scale);
            segment_start = Instant::now();
            segment_first = out.done.len();
        }
        let req = stream.next();
        out.attempted += 1;
        let sql = if req.adhoc {
            adhoc_sql(req.key)
        } else {
            String::new()
        };
        let t0 = Instant::now();
        let reply: pyro::Result<WireRows> = if req.adhoc {
            client.query(&sql)
        } else {
            client.execute(stmt, &[Value::Int(req.key)])
        };
        let t1 = Instant::now();
        match reply {
            Ok(rows) => {
                let checked = if rows.total_rows != rows.rows.len() as u64 {
                    Err(format!(
                        "DONE reports {} rows, {} received",
                        rows.total_rows,
                        rows.rows.len()
                    ))
                } else {
                    refs.check(req, &rows.rows)
                };
                match checked {
                    Ok(()) => out.done.push(Done {
                        adhoc: req.adhoc,
                        start_us: t0.duration_since(origin).as_secs_f64() * 1e6,
                        rtt_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
                        scaled_ms: 0.0,
                        server_ms: rows.elapsed_us as f64 / 1e3,
                        cache_hit: rows.cache_hit,
                    }),
                    Err(e) => out.errors.push(e),
                }
            }
            Err(PyroError::ServerOverloaded(e)) => out.errors.push(format!("shed: {e}")),
            Err(e) => out.errors.push(e.to_string()),
        }
    }
    end_segment(&mut out, segment_start, segment_first, scale);
    let _ = client.bye();
    out
}

/// Closes a segment of the loop: calibrates, and scales the segment's
/// time and the latencies of the requests it completed.
fn end_segment(out: &mut LoopOut, start: Instant, first: usize, scale: &mut HostScale) {
    let wall = start.elapsed().as_secs_f64();
    let factor = scale.factor();
    for d in &mut out.done[first..] {
        d.scaled_ms = d.rtt_ms * factor;
    }
    out.wall_s += wall;
    out.scaled_s += wall * factor;
}

/// A loaded durable session served on loopback from its own data
/// directory. Fields drop in order: the server stops (and checkpoints)
/// before the session goes and the directory is removed.
struct Served {
    server: WireServer,
    session: Arc<Session>,
    _dir: DataDir,
}

impl Served {
    /// The set-up `setup_s` times: generate, load durably, start the server.
    fn start(seed: u64, tag: &str) -> pyro::Result<Served> {
        let dir = DataDir::new(tag);
        let session = Arc::new(open_loaded(dir.path(), seed, None)?);
        let server = WireServer::start(Arc::clone(&session), ServerConfig::default())?;
        Ok(Served {
            server,
            session,
            _dir: dir,
        })
    }
}

/// Runs the workload. The first set-up serves the run; the others only
/// time set-up, after the peak memory is read, so `peak_rss_mb` is that of
/// one set-up and the workload, as a user would see it. Every timing is
/// scaled to the reference host speed ([`HostScale`]).
pub fn run(args: &Args, report: &mut Report) -> pyro::Result<()> {
    let mut scale = HostScale::new();
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        scale.mark();
        let t0 = Instant::now();
        let served = Served::start(args.seed, &format!("wire{i}"))?;
        let wall = t0.elapsed().as_secs_f64();
        setup_s.push(wall * scale.factor());
        setup_wall.push(wall);
        if i == 0 {
            measure(args, report, &served, &mut scale)?;
            drop(served);
            report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        }
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.detail("setup_s", list(&setup_s));
    report.detail("setup_wall_s", list(&setup_wall));
    report.detail("calibration", scale.json());
    Ok(())
}

/// Checks and times the workload against a running server.
fn measure(
    args: &Args,
    report: &mut Report,
    served: &Served,
    scale: &mut HostScale,
) -> pyro::Result<()> {
    let (server, session) = (&served.server, &served.session);
    let setup_writes = session.catalog().device().io().writes;
    report.detail("data", data_sizes(session));

    let refs = References::build(args.seed)?;

    // --- warm-up, then the timed closed loop -------------------------
    let mut stream = Requests::new(args.seed, 0);
    let warm = closed_loop(server, &refs, &mut stream, WARMUP_S, args.started, scale);
    account(report, &warm, "warm-up");

    let timed = closed_loop(
        server,
        &refs,
        &mut stream,
        args.seconds,
        args.started,
        scale,
    );
    account(report, &timed, "timed");
    let latency = sorted(timed.done.iter().map(|d| d.scaled_ms).collect());
    report.metric(
        "throughput_qps",
        timed.done.len() as f64 / timed.scaled_s,
        "1/s",
    );
    report.metric("latency_p50_ms", quantile(&latency, 0.5), "ms");
    report.metric("latency_p90_ms", quantile(&latency, 0.9), "ms");
    report.metric("latency_p99_ms", quantile(&latency, 0.99), "ms");
    let rtt = sorted(timed.done.iter().map(|d| d.rtt_ms).collect());
    report.detail(
        "wall_clock",
        object(&[
            (
                "throughput_qps",
                num(timed.done.len() as f64 / timed.wall_s),
            ),
            ("latency_p50_ms", num(quantile(&rtt, 0.5))),
            ("latency_p90_ms", num(quantile(&rtt, 0.9))),
        ]),
    );
    let class_latency = |adhoc: bool| {
        let s = sorted(
            timed
                .done
                .iter()
                .filter(|d| d.adhoc == adhoc)
                .map(|d| d.scaled_ms)
                .collect(),
        );
        object(&[
            ("n", s.len().to_string()),
            ("p50_ms", num(quantile(&s, 0.5))),
            ("p99_ms", num(quantile(&s, 0.99))),
        ])
    };
    report.detail(
        "samples",
        object(&[
            ("requests", latency.len().to_string()),
            ("connections", CONNECTIONS.to_string()),
            ("wall_s", num(timed.wall_s)),
        ]),
    );
    report.detail(
        "classes",
        object(&[
            ("point", class_latency(false)),
            ("adhoc", class_latency(true)),
        ]),
    );

    if args.trace {
        traced(args, report, server, session, &refs, &timed, setup_writes)?;
    }
    Ok(())
}

/// Adds a loop's requests and failures to the report.
fn account(report: &mut Report, out: &LoopOut, phase: &str) {
    report.attempted += out.attempted;
    for e in &out.errors {
        report.fail(format!("{phase}: {e}"));
    }
}

/// The traced run of `wire_lookup`: client-side spans from the timed loop,
/// then an in-process replay of both request classes on the same session.
fn traced(
    args: &Args,
    report: &mut Report,
    server: &WireServer,
    session: &Arc<Session>,
    refs: &References,
    traced: &LoopOut,
    setup_writes: u64,
) -> pyro::Result<()> {
    // Client-side spans: every request's round trip, with the server's
    // own DONE time inside it.
    let mut tracer = Tracer::new(args.started);
    for d in traced.done.iter().take(CLIENT_SPANS) {
        let start = args.started + Duration::from_secs_f64(d.start_us / 1e6);
        let end = start + Duration::from_secs_f64(d.rtt_ms / 1e3);
        let server_end = start + Duration::from_secs_f64(d.server_ms.min(d.rtt_ms) / 1e3);
        let class = if d.adhoc { "adhoc" } else { "point" };
        tracer.request(class, start, end, &[("wire.server", start, server_end)]);
    }
    let n = traced.done.len().max(1) as f64;
    let rtt = traced.done.iter().map(|d| d.rtt_ms).sum::<f64>() / n;
    let server_ms = traced.done.iter().map(|d| d.server_ms).sum::<f64>() / n;
    let hits = traced
        .done
        .iter()
        .filter(|d| d.cache_hit == Some(true))
        .count() as f64;
    let adhoc_hits = traced
        .done
        .iter()
        .filter(|d| d.adhoc && d.cache_hit == Some(true))
        .count();
    let admission = server.admission_stats();

    // In-process replay on the same session. First the guard: each
    // request runs through the public call and the traced path, in
    // alternating order so neither always finds the pool warm; their times
    // give the tracing overhead. Then the layer numbers, from a cold pool.
    let (point_plan, ..) = layers::plan(session, POINT)?;
    let prepared = session.prepare(POINT)?;
    let public_call = |req: Req, sql: &str| -> pyro::Result<(QueryResult, Instant)> {
        let t0 = Instant::now();
        let result = if req.adhoc {
            session.sql(sql)?
        } else {
            prepared.execute(&[Value::Int(req.key)])?
        };
        Ok((result, t0))
    };
    let (mut public_ms, mut traced_ms) = (0.0, 0.0);
    let mut replay = Requests::new(args.seed, CONNECTIONS);
    for i in 0..GUARD_REQUESTS {
        let req = replay.next();
        report.attempted += 2;
        let sql = adhoc_sql(req.key);
        let (public, traced) = if i % 2 == 0 {
            let public = public_call(req, &sql).map(|(r, t0)| (r, t0.elapsed()));
            (
                public,
                replay_one(None, session, &point_plan, req, &sql, refs),
            )
        } else {
            let traced = replay_one(None, session, &point_plan, req, &sql, refs);
            let public = public_call(req, &sql).map(|(r, t0)| (r, t0.elapsed()));
            (public, traced)
        };
        match (public, traced) {
            (Ok((public, call)), Ok((sample, checked))) => {
                let class = if req.adhoc { "adhoc" } else { "point" };
                if let Err(e) = checked.and(layers::guard(class, &sample, &Answer::of(&public))) {
                    report.fail(e);
                }
                if let Err(e) = refs.check(req, public.rows()) {
                    report.fail(format!("in-process: {e}"));
                }
                let d0 = Instant::now();
                drop(public);
                public_ms += (call + d0.elapsed()).as_secs_f64() * 1e3;
                traced_ms += sample.ms.iter().sum::<f64>();
            }
            (Err(e), _) | (_, Err(e)) => report.fail(format!("guard request: {e}")),
        }
    }

    session.catalog().store().clear_cache()?;
    let io0 = session.catalog().device().io();
    let pool0 = session.catalog().store().cache_stats();
    let mut totals = LayerTotals::default();
    let mut by_class = [LayerTotals::default(), LayerTotals::default()];
    let mut replay = Requests::new(args.seed ^ 0x7e57, CONNECTIONS);
    for _ in 0..REPLAY_REQUESTS {
        let req = replay.next();
        report.attempted += 1;
        let sql = adhoc_sql(req.key);
        match replay_one(Some(&mut tracer), session, &point_plan, req, &sql, refs) {
            Ok((sample, checked)) => {
                if let Err(e) = checked {
                    report.fail(format!("replay: {e}"));
                }
                totals.add(&sample);
                by_class[usize::from(req.adhoc)].add(&sample);
            }
            Err(e) => report.fail(format!("replay: {e}")),
        }
    }
    let io = session.catalog().device().io().since(&io0);
    let pool = session.catalog().store().cache_stats().since(&pool0);

    // The WAL volume of one set-up: the same load with checkpoints off
    // keeps the whole log.
    let wal_dir = DataDir::new("wal");
    let wal_session = open_loaded(wal_dir.path(), args.seed, Some(u64::MAX))?;
    let wal_bytes = wal_session.catalog().store().wal().map_or(0, |w| w.size());
    drop(wal_session);
    drop(wal_dir);

    layer_metrics(report, &totals, &totals);
    report.metric("core.plan_cache_hit_rate", hits / n, "ratio");
    report.metric(
        "storage.device_reads",
        totals.per_request(io.reads as f64),
        "count",
    );
    report.metric("storage.device_writes", setup_writes as f64, "count");
    report.metric("storage.pool_hit_rate", pool.hit_rate(), "ratio");
    report.metric(
        "storage.pool_evictions",
        totals.per_request(pool.evictions as f64),
        "count",
    );
    report.metric("storage.wal_bytes", wal_bytes as f64, "bytes");
    report.metric("wire.rtt_ms", rtt, "ms");
    report.metric("wire.server_ms", server_ms, "ms");
    report.metric("wire.overhead_ms", rtt - server_ms, "ms");
    report.metric(
        "wire.admission_peak_waiting",
        admission.peak_waiting as f64,
        "count",
    );
    report.metric(
        "wire.shed",
        (admission.shed_queue_full + admission.shed_timeout) as f64,
        "count",
    );
    report.metric(
        "trace.overhead_pct",
        (traced_ms / public_ms - 1.0) * 100.0,
        "%",
    );
    report.detail(
        "layers_by_class",
        object(&[
            ("point", layer_object(&by_class[0])),
            ("adhoc", layer_object(&by_class[1])),
        ]),
    );
    report.detail(
        "wire_trace",
        object(&[
            ("requests", traced.done.len().to_string()),
            ("adhoc_cache_hits", adhoc_hits.to_string()),
            (
                "cache_flag_none",
                traced
                    .done
                    .iter()
                    .filter(|d| d.cache_hit.is_none())
                    .count()
                    .to_string(),
            ),
            (
                "cache_flag_miss",
                traced
                    .done
                    .iter()
                    .filter(|d| d.cache_hit == Some(false))
                    .count()
                    .to_string(),
            ),
            ("replay_requests", REPLAY_REQUESTS.to_string()),
            ("guard_requests", GUARD_REQUESTS.to_string()),
        ]),
    );
    report.detail("spans", spans_json(&tracer));
    Ok(())
}

/// One in-process request through the traced layer-by-layer path, checked
/// against the reference.
fn replay_one(
    tracer: Option<&mut Tracer>,
    session: &Session,
    point_plan: &pyro::core::OptimizedPlan,
    req: Req,
    adhoc_sql: &str,
    refs: &References,
) -> pyro::Result<(Sample, Result<(), String>)> {
    let class = if req.adhoc { "adhoc" } else { "point" };
    let (prepared, params) = if req.adhoc {
        (None, Vec::new())
    } else {
        (Some(point_plan), vec![Value::Int(req.key)])
    };
    layers::request(
        tracer,
        session,
        class,
        adhoc_sql,
        prepared,
        &params,
        |rows, _| refs.check(req, rows),
    )
}
