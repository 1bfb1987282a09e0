//! The in-process workloads, `order_mix` and `bulk_scan_join`: one caller
//! in a closed loop calling `Session::sql` on a default session.

use crate::check::{counters, Expected, Fingerprint};
use crate::layers::{self, layer_metrics, layer_object, spans_json, Answer, LayerTotals, Tracer};
use crate::report::{
    data_sizes, list, median, num, object, peak_rss_mb, quantile, sorted, text, HostScale, Report,
};
use crate::Args;
use pyro::common::{Schema, Tuple, Value};
use pyro::datagen::tpch::{self, TpchConfig};
use pyro::datagen::{consolidation, qtables, rng_with};
use pyro::{QueryResult, Session, SortOrder, Strategy};
use std::time::{Duration, Instant};

/// The paper's Query 2 (Experiment A4).
const QUERY2: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey";

/// The paper's Query 3 ("parts running out of stock").
const QUERY3: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY ps_availqty, ps_partkey, ps_suppkey \
     HAVING sum(l_quantity) > ps_availqty \
     ORDER BY ps_partkey";

/// The paper's Query 4 (Experiment B2).
const QUERY4: &str = "SELECT * FROM r1 FULL OUTER JOIN r2 \
     ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
     FULL OUTER JOIN r3 \
     ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)";

/// The paper's Query 5, with the `min()` wrapper the engine needs for a
/// non-grouped expression.
const QUERY5: &str =
    "SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, \
            min(t1.quantity * t1.price) AS ordervalue, \
            sum(t2.quantity * t2.price) AS executedvalue \
     FROM tran t1, tran t2 \
     WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid \
       AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid \
       AND t1.childorderid = t2.childorderid \
       AND t1.trantype = 'New' AND t2.trantype = 'Executed' \
     GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid";

/// The paper's Query 6.
const QUERY6: &str = "SELECT * FROM basket b, analytics a \
     WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";

/// Example 1's consolidation query (Figs. 1-2).
const EXAMPLE1: &str = "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, \
            c2.breakdowns, r.rating \
     FROM catalog1 c1, catalog2 c2, rating r \
     WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
       AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
     ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating";

/// The quickstart query: ORDER BY (k, v) over a table clustered on k, which
/// a partial sort answers without spilling.
const PARTIAL_SORT: &str = "SELECT k, v FROM events ORDER BY k, v";

/// 1M-row scan → filter → project; the two conjuncts keep about half.
const SCAN_FILTER_PROJECT: &str = "SELECT a, c FROM points WHERE b < 750000 AND c < 65";

/// 1M-row fact probing a 100k-row dimension.
const HASH_JOIN: &str = "SELECT * FROM dim, fact WHERE d_k = f_d";

const EVENTS_ROWS: usize = 1_000_000;
const POINTS_ROWS: usize = 1_000_000;
const FACT_ROWS: usize = 1_000_000;
const DIM_ROWS: usize = 100_000;

/// One query class of a mix. `order_cols` are the output columns its
/// ORDER BY sorts on (empty without ORDER BY).
struct Class {
    name: &'static str,
    sql: &'static str,
    order_cols: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    OrderMix,
    BulkScanJoin,
}

impl Mix {
    fn classes(self) -> Vec<Class> {
        let c = |name, sql, order_cols: &[usize]| Class {
            name,
            sql,
            order_cols: order_cols.to_vec(),
        };
        match self {
            Mix::OrderMix => vec![
                c("q2", QUERY2, &[0, 1]),
                c("q3", QUERY3, &[1]),
                c("q4", QUERY4, &[]),
                c("q5", QUERY5, &[]),
                c("q6", QUERY6, &[]),
                c("example1", EXAMPLE1, &[0, 1, 3, 2, 4, 5, 6]),
                c("partial_sort", PARTIAL_SORT, &[0, 1]),
            ],
            Mix::BulkScanJoin => vec![
                c("scan_filter_project", SCAN_FILTER_PROJECT, &[]),
                c("hash_join", HASH_JOIN, &[]),
            ],
        }
    }

    /// The classes one round runs, in order. Each mix runs one class
    /// twice per round, so the pooled median falls well inside that class
    /// rather than near the boundary between two: Q3 on `order_mix` (with
    /// it once, Q6 and Q4 sat within a few percent on either side), the
    /// scan on `bulk_scan_join`.
    fn schedule(self) -> Vec<usize> {
        match self {
            Mix::OrderMix => vec![0, 1, 2, 3, 1, 4, 5, 6],
            Mix::BulkScanJoin => vec![0, 1, 0],
        }
    }

    /// Generates and loads the workload's tables from `seed` into a default
    /// session.
    fn setup(self, seed: u64) -> pyro::Result<Session> {
        let mut session = Session::builder().seed(seed).build();
        match self {
            Mix::OrderMix => {
                let cat = session.catalog_mut();
                tpch::load_with_seed(cat, TpchConfig::scaled(0.05), seed)?;
                qtables::load_q4_with_seed(cat, 50_000, seed)?;
                qtables::load_tran_with_seed(cat, 100_000, seed)?;
                qtables::load_basket_analytics_with_seed(cat, 100_000, seed)?;
                consolidation::load_with_seed(cat, 60_000, seed)?;
                register_events(&mut session, seed)?;
            }
            Mix::BulkScanJoin => {
                register_points(&mut session, seed)?;
                register_dim_fact(&mut session, seed)?;
            }
        }
        Ok(session)
    }
}

/// The quickstart `events` table: 1M rows in 1000-row clustering segments.
fn register_events(session: &mut Session, seed: u64) -> pyro::Result<()> {
    let mut r = rng_with(seed ^ 0xe7e7);
    let rows: Vec<Tuple> = (0..EVENTS_ROWS as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i / 1000),
                Value::Int(r.gen_range(0..1_000_000)),
            ])
        })
        .collect();
    session.register_table(
        "events",
        Schema::ints(&["k", "v"]),
        SortOrder::new(["k"]),
        &rows,
    )
}

fn register_points(session: &mut Session, seed: u64) -> pyro::Result<()> {
    let mut r = rng_with(seed ^ 0x9019);
    let rows: Vec<Tuple> = (0..POINTS_ROWS as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(r.gen_range(0..1_000_000)),
                Value::Int(r.gen_range(0..97)),
            ])
        })
        .collect();
    session.register_table(
        "points",
        Schema::ints(&["a", "b", "c"]),
        SortOrder::new(["a"]),
        &rows,
    )
}

fn register_dim_fact(session: &mut Session, seed: u64) -> pyro::Result<()> {
    let mut r = rng_with(seed ^ 0xfac7);
    let dim: Vec<Tuple> = (0..DIM_ROWS as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)]))
        .collect();
    session.register_table(
        "dim",
        Schema::ints(&["d_k", "d_v"]),
        SortOrder::new(["d_k"]),
        &dim,
    )?;
    drop(dim);
    let fact: Vec<Tuple> = (0..FACT_ROWS as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(r.gen_range(0..DIM_ROWS as i64)),
            ])
        })
        .collect();
    session.register_table(
        "fact",
        Schema::ints(&["f_k", "f_d"]),
        SortOrder::new(["f_k"]),
        &fact,
    )
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Runs `sql` through `Session::sql`, timing the call and the drop of the
/// result but not the check in between.
fn timed_sql(
    session: &Session,
    sql: &str,
    check: impl FnOnce(&QueryResult),
) -> pyro::Result<Duration> {
    let t0 = Instant::now();
    let result = session.sql(sql)?;
    let t1 = Instant::now();
    check(&result);
    let d0 = Instant::now();
    drop(result);
    Ok(t1.duration_since(t0) + d0.elapsed())
}

/// Runs one workload. The first set-up serves the run; the others only
/// time set-up, after the peak memory is read, so `peak_rss_mb` is that of
/// one set-up and the workload, as a user would see it. Every timing is
/// scaled to the reference host speed ([`HostScale`]).
pub fn run(mix: Mix, args: &Args, report: &mut Report) -> pyro::Result<()> {
    let mut scale = HostScale::new();
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        scale.mark();
        let t0 = Instant::now();
        let session = mix.setup(args.seed)?;
        let wall = t0.elapsed().as_secs_f64();
        setup_s.push(wall * scale.factor());
        setup_wall.push(wall);
        if i == 0 {
            measure(mix, args, report, session, &mut scale)?;
            report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        }
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.detail("setup_s", list(&setup_s));
    report.detail("setup_wall_s", list(&setup_wall));
    report.detail("calibration", scale.json());
    Ok(())
}

/// Checks and times the workload on a loaded session.
fn measure(
    mix: Mix,
    args: &Args,
    report: &mut Report,
    mut session: Session,
    scale: &mut HostScale,
) -> pyro::Result<()> {
    let classes = mix.classes();
    let schedule = mix.schedule();
    let setup_writes = session.catalog().device().io().writes;
    report.detail("data", data_sizes(&session));

    // --- reference: a different plan and execution path ---------------
    let (strategy, hash, columnar) = (
        session.strategy(),
        session.hash_operators(),
        session.columnar(),
    );
    session.set_strategy(Strategy::pyro_p());
    session.set_hash_operators(false);
    session.set_columnar(false);
    let mut expected = Vec::with_capacity(classes.len());
    for class in &classes {
        let result = session.sql(class.sql)?;
        if !crate::check::is_ordered(result.rows(), &class.order_cols) {
            report.fail(format!(
                "{}: reference rows not in ORDER BY order",
                class.name
            ));
        }
        expected.push(Expected {
            reference: Fingerprint::of(result.rows()),
            order_cols: class.order_cols.clone(),
            first_counters: None,
        });
    }
    session.set_strategy(strategy);
    session.set_hash_operators(hash);
    session.set_columnar(columnar);
    let session = session;

    // --- warm-up round: checks, and the public answers for the guard ---
    let mut public = Vec::with_capacity(classes.len());
    for (class, exp) in classes.iter().zip(expected.iter_mut()) {
        report.attempted += 1;
        let mut answer = None;
        let outcome = timed_sql(&session, class.sql, |r| {
            let c = counters(r.metrics());
            if let Err(e) = exp.check(r.rows(), c) {
                report.fail(format!("{} warm-up: {e}", class.name));
            }
            answer = Some(Answer::of(r));
        });
        if let Err(e) = outcome {
            report.fail(format!("{} warm-up: {e}", class.name));
        }
        if class.name == "partial_sort"
            && answer
                .as_ref()
                .is_some_and(|a| a.counters[1] + a.counters[2] > 0)
        {
            report.fail(
                "partial_sort spilled runs; a partial sort over the clustering must not".into(),
            );
        }
        public.push(answer);
    }

    // --- timed closed loop, whole rounds until the deadline -----------
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Latencies scaled to the reference host speed, per class, and the
    // wall-clock time inside the calls.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    let mut wall_ms = Vec::new();
    let mut rounds = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(untraced_s);
    scale.mark();
    while rounds == 0 || Instant::now() < deadline {
        for &i in &schedule {
            let class = &classes[i];
            report.attempted += 1;
            let exp = &mut expected[i];
            let mut bad = None;
            let outcome = timed_sql(&session, class.sql, |r| {
                bad = exp.check(r.rows(), counters(r.metrics())).err()
            });
            let factor = scale.factor();
            match outcome {
                Ok(d) => {
                    let ms = d.as_secs_f64() * 1e3;
                    latencies[i].push(ms * factor);
                    wall_ms.push(ms);
                }
                Err(e) => bad = Some(e.to_string()),
            }
            if let Some(e) = bad {
                report.fail(format!("{}: {e}", class.name));
            }
        }
        rounds += 1;
    }
    let all: Vec<f64> = latencies.iter().flatten().copied().collect();
    let scaled_ms: f64 = all.iter().sum();
    let all = sorted(all);
    report.metric(
        "throughput_qps",
        all.len() as f64 / (scaled_ms / 1e3),
        "1/s",
    );
    report.metric("latency_p50_ms", quantile(&all, 0.5), "ms");
    report.metric("latency_p90_ms", quantile(&all, 0.9), "ms");
    report.metric("latency_p99_ms", quantile(&all, 0.99), "ms");
    let busy_ms: f64 = wall_ms.iter().sum();
    let wall_ms = sorted(wall_ms);
    report.detail(
        "samples",
        object(&[
            ("queries", all.len().to_string()),
            ("rounds", rounds.to_string()),
            (
                "throughput",
                text("queries / time inside Session::sql and result drop"),
            ),
        ]),
    );
    report.detail(
        "wall_clock",
        object(&[
            (
                "throughput_qps",
                num(wall_ms.len() as f64 / (busy_ms / 1e3)),
            ),
            ("latency_p50_ms", num(quantile(&wall_ms, 0.5))),
            ("latency_p90_ms", num(quantile(&wall_ms, 0.9))),
        ]),
    );
    let per_class: Vec<(&str, String)> = classes
        .iter()
        .zip(&latencies)
        .map(|(c, l)| {
            let s = sorted(l.clone());
            (
                c.name,
                object(&[
                    ("n", s.len().to_string()),
                    ("p50_ms", num(quantile(&s, 0.5))),
                    ("max_ms", num(s.last().copied().unwrap_or(0.0))),
                ]),
            )
        })
        .collect();
    report.detail("classes", object(&per_class));
    if !args.trace {
        return Ok(());
    }

    // --- traced run: layer by layer, with the same-program guard ------
    // Both halves are scaled to the reference host speed, so that the
    // overhead does not take in a change of host speed between them.
    let untraced_round_ms = scaled_ms / rounds as f64;
    let mut traced_ms = 0.0;
    let mut tracer = Tracer::new(args.started);
    let mut totals = LayerTotals::default();
    let mut first_round = LayerTotals::default();
    let mut class_totals = vec![LayerTotals::default(); classes.len()];
    let mut first_reads = 0u64;
    let mut traced_rounds = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds - untraced_s);
    scale.mark();
    while traced_rounds == 0 || Instant::now() < deadline {
        for &i in &schedule {
            let class = &classes[i];
            report.attempted += 1;
            let io0 = session.catalog().device().io();
            let exp = &mut expected[i];
            let outcome = layers::request(
                Some(&mut tracer),
                &session,
                class.name,
                class.sql,
                None,
                &[],
                |rows, m| exp.check(rows, counters(m)),
            );
            let io1 = session.catalog().device().io();
            let factor = scale.factor();
            match outcome {
                Ok((sample, checked)) => {
                    traced_ms += sample.ms.iter().sum::<f64>() * factor;
                    if let Err(e) = checked {
                        report.fail(format!("{} traced: {e}", class.name));
                    }
                    if traced_rounds == 0 {
                        match &public[i] {
                            Some(p) => {
                                if let Err(e) = layers::guard(class.name, &sample, p) {
                                    report.fail(e);
                                }
                            }
                            None => report.fail(format!("guard {}: no public answer", class.name)),
                        }
                        first_round.add(&sample);
                        first_reads += io1.since(&io0).reads;
                    }
                    totals.add(&sample);
                    class_totals[i].add(&sample);
                }
                Err(e) => report.fail(format!("{} traced: {e}", class.name)),
            }
        }
        traced_rounds += 1;
    }
    let traced_round_ms = traced_ms / traced_rounds as f64;
    layer_metrics(report, &totals, &first_round);
    report.metric("core.plan_cache_hit_rate", 0.0, "ratio");
    report.metric(
        "storage.device_reads",
        first_round.per_request(first_reads as f64),
        "count",
    );
    report.metric("storage.device_writes", setup_writes as f64, "count");
    report.metric("storage.pool_hit_rate", 0.0, "ratio");
    report.metric("storage.pool_evictions", 0.0, "count");
    report.metric("storage.wal_bytes", 0.0, "bytes");
    for name in ["wire.rtt_ms", "wire.server_ms", "wire.overhead_ms"] {
        report.metric(name, 0.0, "ms");
    }
    report.metric("wire.admission_peak_waiting", 0.0, "count");
    report.metric("wire.shed", 0.0, "count");
    report.metric(
        "trace.overhead_pct",
        (traced_round_ms / untraced_round_ms - 1.0) * 100.0,
        "%",
    );
    report.detail(
        "layers_by_class",
        object(
            &classes
                .iter()
                .zip(&class_totals)
                .map(|(c, t)| (c.name, layer_object(t)))
                .collect::<Vec<_>>(),
        ),
    );
    report.detail("traced_rounds", traced_rounds.to_string());
    report.detail("spans", spans_json(&tracer));
    Ok(())
}
