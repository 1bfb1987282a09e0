//! Result assembly: metrics with units, sample statistics, host and
//! provenance, the final JSON line and the on-disk record.

use pyro::Session;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports. `details` holds extra JSON fields for the
/// record (sample counts, per-class numbers, data sizes).
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub details: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a record field; `json` must already be valid JSON.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    /// Records a failed check. The first few are kept for the record.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded `(key, value)` pairs.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", text(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `q`-quantile (0..=1) of `sorted`, linearly interpolated between
/// closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A JSON array of numbers.
pub fn list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
    )
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How much CPU time the hypervisor gave to other guests over a run
/// (`/proc/stat` steal), for the record. The host's speed changes without
/// any steal, too; [`HostScale`] measures that.
#[derive(Debug)]
pub struct HostWatch {
    ticks: Option<(u64, u64)>,
}

impl HostWatch {
    pub fn start() -> HostWatch {
        HostWatch { ticks: cpu_ticks() }
    }

    /// Steal over the run so far, in percent of all CPU time.
    pub fn steal_pct(&self) -> f64 {
        match (self.ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0
            }
            _ => 0.0,
        }
    }
}

/// `(steal, total)` CPU ticks since boot, summed over all CPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Keys the calibration kernel sorts, and the pool it hashes from.
const CALIBRATION_KEYS: usize = 50_000;
/// Keys the kernel inserts into a hash map; it then probes three times as
/// many, a third of them hits.
const CALIBRATION_HASHED: usize = 12_500;

/// The unit of host speed: every end-to-end time is reported as it would
/// be on a host where the calibration kernel takes this long (about its
/// median on the 2-vCPU host the benchmark was written on).
pub const CALIBRATION_REFERENCE_MS: f64 = 4.0;

type FixedHasher = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// A fixed kernel that does not touch the engine, in two parts of about
/// equal time that do what the engine does most: sort integers, and build
/// and probe a hash map. Timed between requests, it tells how fast the
/// host runs at that moment. It owns all its memory (about 1 MiB, so it
/// stays in a core's cache) and allocates nothing, and it runs once
/// untimed before the timed passes, so neither the engine's heap nor what
/// the engine left in the caches changes its time.
struct Calibrator {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: HashMap<u64, u64, FixedHasher>,
}

impl Calibrator {
    fn new() -> Calibrator {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys: Vec<u64> = (0..CALIBRATION_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            scratch: keys.clone(),
            keys,
            map: HashMap::with_capacity_and_hasher(CALIBRATION_HASHED, FixedHasher::default()),
        }
    }

    fn pass(&mut self) {
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        self.map.clear();
        for &k in &self.keys[..CALIBRATION_HASHED] {
            self.map.insert(k, k);
        }
        let hits = self.keys[..3 * CALIBRATION_HASHED]
            .iter()
            .filter(|k| self.map.contains_key(k))
            .count();
        std::hint::black_box(hits);
    }

    /// One untimed pass, then the time of two passes, in ms.
    fn measure(&mut self) -> f64 {
        self.pass();
        let t0 = std::time::Instant::now();
        self.pass();
        self.pass();
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Scales timings to the reference host speed. The host this benchmark
/// runs on shares its cores and changes speed by up to half for seconds at
/// a time, in the engine and in the kernel alike. An interval is
/// multiplied by `CALIBRATION_REFERENCE_MS / c`, where `c` is the mean of
/// the kernel's times just before and just after it.
pub struct HostScale {
    calibrator: Calibrator,
    last: f64,
    samples: Vec<f64>,
}

impl HostScale {
    pub fn new() -> HostScale {
        let mut calibrator = Calibrator::new();
        let last = calibrator.measure();
        HostScale {
            calibrator,
            last,
            samples: vec![last],
        }
    }

    /// Calibrates now: the start of an interval.
    pub fn mark(&mut self) {
        self.last = self.calibrator.measure();
        self.samples.push(self.last);
    }

    /// Calibrates now and returns the factor for the interval since the
    /// previous calibration; now is also the start of the next interval.
    pub fn factor(&mut self) -> f64 {
        let before = self.last;
        self.mark();
        2.0 * CALIBRATION_REFERENCE_MS / (before + self.last)
    }

    /// The record field: the kernel's times over the run.
    pub fn json(&self) -> String {
        let s = sorted(self.samples.clone());
        object(&[
            ("reference_ms", num(CALIBRATION_REFERENCE_MS)),
            ("n", s.len().to_string()),
            ("p10_ms", num(quantile(&s, 0.1))),
            ("p50_ms", num(quantile(&s, 0.5))),
            ("p90_ms", num(quantile(&s, 0.9))),
        ])
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Keeps this process, and every thread it starts from now on, on the CPU
/// it runs on now, so the calibration kernel and the engine run on the
/// same core. Left unpinned if the host refuses.
pub fn pin_to_current_cpu() {
    // SAFETY: glibc calls with no preconditions; the mask outlives the call
    // and its size is passed with it.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Host, build and seed provenance, as record fields.
pub fn provenance(seed: u64) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    vec![
        ("cores".into(), cores.to_string()),
        ("commit".into(), text(env!("PERFBENCH_COMMIT"))),
        (
            "source_digest".into(),
            text(env!("PERFBENCH_SOURCE_DIGEST")),
        ),
        ("rustc".into(), text(env!("PERFBENCH_RUSTC"))),
        ("seed".into(), seed.to_string()),
    ]
}

/// The directory that holds the engine and this benchmark.
pub fn checkout_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Rows and pages of every loaded table, plus the store's page count.
pub fn data_sizes(session: &Session) -> String {
    let cat = session.catalog();
    let mut tables: Vec<(String, String)> = cat
        .tables()
        .iter()
        .map(|(name, t)| {
            let index_pages: u64 = t.index_files.values().map(|f| f.block_count()).sum();
            (
                name.clone(),
                object(&[
                    ("rows", t.heap.tuple_count().to_string()),
                    ("pages", t.heap.block_count().to_string()),
                    ("index_pages", index_pages.to_string()),
                ]),
            )
        })
        .collect();
    tables.push((
        "store_live_pages".into(),
        cat.store().live_pages().to_string(),
    ));
    tables.push((
        "pool_pages".into(),
        session.buffer_pool_pages().unwrap_or(0).to_string(),
    ));
    object(&tables)
}
