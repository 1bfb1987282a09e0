//! `perfbench` — the PYRO engine measured from outside, through the calls
//! users make: `Session::sql`, `Prepared::execute` and a loopback
//! `WireServer`.
//!
//! ```text
//! perfbench --workload <order_mix|bulk_scan_join|wire_lookup>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A fuller record (host, provenance, data sizes, sample counts, per-class
//! numbers and, when traced, the spans) is written under
//! `.perfbench_out/`. See `perfbench/README.md` for the workloads and
//! metrics.

mod check;
mod inproc;
mod layers;
mod report;
mod wire;

use report::{num, object, text, Report};
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`. `latency_p99_ms` is in
/// the record but not here: on `wire_lookup` it follows the host's CPU
/// steal, and the in-process mixes have too few samples for it.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [&str; 26] = [
    "sql.parse_ms",
    "sql.lower_ms",
    "core.optimize_ms",
    "core.plan_groups",
    "core.plan_candidates",
    "core.plan_cost",
    "core.plan_cache_hit_rate",
    "core.compile_ms",
    "exec.run_ms",
    "exec.rows_out",
    "exec.comparisons",
    "exec.run_pages_written",
    "exec.run_pages_read",
    "exec.runs_created",
    "result.drop_ms",
    "storage.device_reads",
    "storage.device_writes",
    "storage.pool_hit_rate",
    "storage.pool_evictions",
    "storage.wal_bytes",
    "wire.rtt_ms",
    "wire.server_ms",
    "wire.overhead_ms",
    "wire.admission_peak_waiting",
    "wire.shed",
    "trace.overhead_pct",
];

const WORKLOADS: [&str; 3] = ["order_mix", "bulk_scan_join", "wire_lookup"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started; spans are timed from here.
    pub started: Instant,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> String {
        match args.iter().position(|a| a == name) {
            Some(i) => args
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value"))),
            None => usage(&format!("missing {name}")),
        }
    };
    let workload = flag("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = flag("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds: f64 = flag("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        started: Instant::now(),
    }
}

fn main() {
    let args = parse_args();
    report::pin_to_current_cpu();
    let host = report::HostWatch::start();
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "order_mix" => inproc::run(inproc::Mix::OrderMix, &args, &mut report),
        "bulk_scan_join" => inproc::run(inproc::Mix::BulkScanJoin, &args, &mut report),
        _ => wire::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut printed = Vec::with_capacity(wanted.len());
    for name in wanted {
        let Some(m) = report.metrics.iter().find(|m| m.name == *name) else {
            eprintln!("perfbench: {} did not produce metric {name}", args.workload);
            std::process::exit(1);
        };
        printed.push(m.clone());
    }

    let mut record: Vec<(String, String)> = vec![
        ("workload".into(), text(&args.workload)),
        ("trace".into(), args.trace.to_string()),
        ("seconds".into(), num(args.seconds)),
    ];
    record.extend(report::provenance(args.seed));
    let host = object(&[("steal_pct", num(host.steal_pct()))]);
    record.push(("host".into(), host.clone()));
    record.push(("correct".into(), report.correct().to_string()));
    record.push(("attempted".into(), report.attempted.to_string()));
    record.push(("failed".into(), report.failed.to_string()));
    let errors: Vec<String> = report.errors.iter().map(|e| text(e)).collect();
    record.push(("errors".into(), format!("[{}]", errors.join(", "))));
    let all: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(&[("value", num(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    record.push(("metrics".into(), object(&all)));
    record.append(&mut report.details);
    let dir = report::checkout_root().join(".perfbench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, object(&record)))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    for (k, v) in report::provenance(args.seed) {
        println!("{k:>14}: {v}");
    }
    println!("{:>14}: {host}", "host");
    for m in &report.metrics {
        println!("{:>28}  {:>14}  {}", m.name, num(m.value), m.unit);
    }
    let metrics: Vec<(String, String)> = printed
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(&[("value", num(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        object(&[
            ("correct", report.correct().to_string()),
            ("attempted", report.attempted.max(1).to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", object(&metrics)),
        ])
    );
}
