//! The traced path: one request split into the engine's public layer
//! calls, each timed from outside as a span.
//!
//! `Session::sql` runs parse → lower → optimize → compile → run behind one
//! call. Here the same calls are made one by one — `pyro_sql::parse_query`,
//! `pyro_sql::lower_with_params`, `Optimizer::optimize`,
//! `OptimizedPlan::compile_bound_columnar` with the session's knobs,
//! `Pipeline::run`, then dropping the rows — so each layer gets its own
//! span. Every traced result is checked against the public path (see
//! [`guard`]) so the per-layer numbers measure the program users run.

use crate::check::{counters, Counters, Fingerprint};
use crate::report::{num, object, text, Report};
use pyro::common::{Tuple, Value};
use pyro::core::{OptimizedPlan, Optimizer};
use pyro::exec::MetricsRef;
use pyro::{QueryResult, Session};
use std::time::Instant;

/// Layer spans in call order; `*_ms` metric names are these plus `_ms`.
pub const LAYERS: [&str; 6] = [
    "sql.parse",
    "sql.lower",
    "core.optimize",
    "core.compile",
    "exec.run",
    "result.drop",
];
const PARSE: usize = 0;
const LOWER: usize = 1;
const OPTIMIZE: usize = 2;
const COMPILE: usize = 3;
const RUN: usize = 4;
const DROP: usize = 5;

/// One recorded span. `parent` is the index of the request's root span
/// (`None` for the root itself); spans of one request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub class: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    next_req: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            next_req: 0,
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a request's root span and its child spans; `children` are
    /// `(layer, start, end)` triples.
    pub fn request(
        &mut self,
        class: &'static str,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) {
        let req = self.next_req;
        self.next_req += 1;
        let root = self.spans.len();
        self.spans.push(Span {
            req,
            class,
            name: "request",
            start_us: self.us(start),
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            parent: None,
        });
        for &(name, s, e) in children {
            self.spans.push(Span {
                req,
                class,
                name,
                start_us: self.us(s),
                dur_us: e.duration_since(s).as_secs_f64() * 1e6,
                parent: Some(root),
            });
        }
    }
}

/// What one traced request did, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Milliseconds per layer, indexed like [`LAYERS`]; skipped layers 0.
    pub ms: [f64; 6],
    pub planned: bool,
    pub cost: f64,
    pub groups: u64,
    pub candidates: u64,
    pub rows_out: u64,
    pub counters: Counters,
    pub fingerprint: Fingerprint,
}

/// Parses, lowers and optimizes `sql` exactly as the session would,
/// mirroring every plan-affecting knob the session exposes. Returns the
/// plan and the three planning layer times.
pub fn plan(session: &Session, sql: &str) -> pyro::Result<(OptimizedPlan, [f64; 3], [Instant; 4])> {
    let t0 = Instant::now();
    if session.plan_cache_entries() > 0 {
        // A cached session lexes the statement into its cache key before
        // the (missing) lookup; that lexing is charged to parse.
        pyro::sql::normalize(sql)?;
    }
    let query = pyro::sql::parse_query(sql)?;
    let t1 = Instant::now();
    let (logical, _params) = pyro::sql::lower_with_params(&query, session.catalog())?;
    let t2 = Instant::now();
    let optimizer = Optimizer::new(session.catalog())
        .with_strategy(session.strategy())
        .with_hash(session.hash_operators())
        .with_enum_strategy(session.enum_strategy())
        .with_join_enum_threshold(session.join_enum_threshold());
    let plan = optimizer.optimize(&logical)?;
    let t3 = Instant::now();
    Ok((plan, [ms(t0, t1), ms(t1, t2), ms(t2, t3)], [t0, t1, t2, t3]))
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// Runs one request layer by layer. With `prepared` set, planning is
/// skipped (a prepared statement or plan-cache hit); otherwise `sql` is
/// planned from scratch. `inspect` sees the rows and metrics between run
/// and drop, outside every span — the caller's output check goes there.
pub fn request<R>(
    tracer: Option<&mut Tracer>,
    session: &Session,
    class: &'static str,
    sql: &str,
    prepared: Option<&OptimizedPlan>,
    params: &[Value],
    inspect: impl FnOnce(&[Tuple], &MetricsRef) -> R,
) -> pyro::Result<(Sample, R)> {
    let mut sample = Sample::default();
    let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(6);
    let start = Instant::now();
    let planned;
    let plan = match prepared {
        Some(plan) => plan,
        None => {
            let (plan, times, t) = plan(session, sql)?;
            sample.ms[PARSE] = times[0];
            sample.ms[LOWER] = times[1];
            sample.ms[OPTIMIZE] = times[2];
            spans.push((LAYERS[PARSE], t[0], t[1]));
            spans.push((LAYERS[LOWER], t[1], t[2]));
            spans.push((LAYERS[OPTIMIZE], t[2], t[3]));
            sample.planned = true;
            planned = plan;
            &planned
        }
    };
    let c0 = Instant::now();
    let pipeline = plan.compile_bound_columnar(
        session.catalog(),
        session.batch_size(),
        session.workers(),
        params,
        session.columnar(),
    )?;
    let c1 = Instant::now();
    let out = pipeline.run()?;
    let c2 = Instant::now();
    sample.ms[COMPILE] = ms(c0, c1);
    sample.ms[RUN] = ms(c1, c2);
    spans.push((LAYERS[COMPILE], c0, c1));
    spans.push((LAYERS[RUN], c1, c2));

    sample.cost = plan.cost();
    if sample.planned {
        sample.groups = plan.planning.groups;
        sample.candidates = plan.planning.candidates;
    }
    sample.rows_out = out.rows.len() as u64;
    sample.counters = counters(&out.metrics);
    sample.fingerprint = Fingerprint::of(&out.rows);
    let inspected = inspect(&out.rows, &out.metrics);

    let d0 = Instant::now();
    drop(out);
    let d1 = Instant::now();
    sample.ms[DROP] = ms(d0, d1);
    spans.push((LAYERS[DROP], d0, d1));
    if let Some(tracer) = tracer {
        // The root span excludes the check between run and drop.
        let end = d1 - d0.duration_since(c2);
        tracer.request(class, start, end, &spans);
    }
    Ok((sample, inspected))
}

/// The public path's answer for one request: what the same-program guard
/// compares the traced path against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub fingerprint: Fingerprint,
    pub counters: Counters,
    pub cost: f64,
}

impl Answer {
    pub fn of(result: &QueryResult) -> Answer {
        Answer {
            fingerprint: Fingerprint::of(result.rows()),
            counters: counters(result.metrics()),
            cost: result.cost(),
        }
    }
}

/// Same-program guard: the traced path must give the same rows, the same
/// four counters and the same estimated plan cost as the public call.
pub fn guard(class: &str, traced: &Sample, public: &Answer) -> Result<(), String> {
    if traced.fingerprint != public.fingerprint {
        return Err(format!(
            "guard {class}: traced rows differ from the public path ({} vs {} rows)",
            traced.fingerprint.rows, public.fingerprint.rows
        ));
    }
    if traced.counters != public.counters {
        return Err(format!(
            "guard {class}: traced counters {:?} differ from the public path's {:?}",
            traced.counters, public.counters
        ));
    }
    if traced.cost.to_bits() != public.cost.to_bits() {
        return Err(format!(
            "guard {class}: traced plan cost {} differs from the public path's {} \
             (a session knob is not mirrored)",
            traced.cost, public.cost
        ));
    }
    Ok(())
}

/// Per-request sums over traced samples; metrics report per-request means.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub requests: u64,
    pub ms: [f64; 6],
    pub cost: f64,
    pub groups: u64,
    pub candidates: u64,
    pub rows_out: u64,
    pub counters: Counters,
}

impl LayerTotals {
    pub fn add(&mut self, s: &Sample) {
        self.requests += 1;
        for (acc, v) in self.ms.iter_mut().zip(s.ms) {
            *acc += v;
        }
        self.cost += s.cost;
        self.groups += s.groups;
        self.candidates += s.candidates;
        self.rows_out += s.rows_out;
        for (acc, v) in self.counters.iter_mut().zip(s.counters) {
            *acc += v;
        }
    }

    pub fn per_request(&self, total: f64) -> f64 {
        total / self.requests.max(1) as f64
    }

    /// Mean layer milliseconds per request, in [`LAYERS`] order.
    pub fn layer_ms(&self) -> [f64; 6] {
        self.ms.map(|t| self.per_request(t))
    }
}

/// The per-layer metrics every workload reports from its traced requests:
/// times are per-request means over every traced request, counts are
/// per-request means over the first traced round (which repeats exactly).
pub fn layer_metrics(report: &mut Report, times: &LayerTotals, counts: &LayerTotals) {
    for (layer, ms) in LAYERS.iter().zip(times.layer_ms()) {
        report.metric(&format!("{layer}_ms"), ms, "ms");
    }
    report.metric(
        "core.plan_groups",
        counts.per_request(counts.groups as f64),
        "count",
    );
    report.metric(
        "core.plan_candidates",
        counts.per_request(counts.candidates as f64),
        "count",
    );
    report.metric(
        "core.plan_cost",
        counts.per_request(counts.cost),
        "io_units",
    );
    report.metric(
        "exec.rows_out",
        counts.per_request(counts.rows_out as f64),
        "count",
    );
    let names = [
        "exec.comparisons",
        "exec.run_pages_written",
        "exec.run_pages_read",
        "exec.runs_created",
    ];
    for (name, v) in names.iter().zip(counts.counters) {
        report.metric(name, counts.per_request(v as f64), "count");
    }
}

/// Per-request layer means of one class, for the record.
pub fn layer_object(t: &LayerTotals) -> String {
    let mut fields: Vec<(String, String)> = LAYERS
        .iter()
        .zip(t.layer_ms())
        .map(|(l, v)| (format!("{l}_ms"), num(v)))
        .collect();
    fields.push(("requests".into(), t.requests.to_string()));
    fields.push((
        "comparisons".into(),
        num(t.per_request(t.counters[0] as f64)),
    ));
    fields.push((
        "runs_created".into(),
        num(t.per_request(t.counters[3] as f64)),
    ));
    fields.push(("rows_out".into(), num(t.per_request(t.rows_out as f64))));
    object(&fields)
}

/// The spans of a traced run as a JSON array (capped, so a long run keeps
/// its record small).
pub fn spans_json(tracer: &Tracer) -> String {
    const MAX_SPANS: usize = 50_000;
    let spans: Vec<String> = tracer
        .spans
        .iter()
        .take(MAX_SPANS)
        .map(|s| {
            object(&[
                ("req", s.req.to_string()),
                ("class", text(s.class)),
                ("name", text(s.name)),
                ("start_us", num(s.start_us)),
                ("dur_us", num(s.dur_us)),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
            ])
        })
        .collect();
    format!("[{}]", spans.join(",\n"))
}
