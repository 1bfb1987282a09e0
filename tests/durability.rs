//! Durability integration tests: clean reopen, kill-9 crash recovery, and
//! in-memory/durable result parity.
//!
//! The kill-9 suite spawns the `pyro_ingest` helper binary (see
//! `src/bin/pyro_ingest.rs`), SIGKILLs it mid-ingest, reopens the data
//! directory in-process and asserts the committed prefix survived
//! bit-identically — the WAL replay path is load-bearing because the
//! helper runs with an infinite checkpoint threshold.

use pyro::{SessionBuilder, SortOrder};
use pyro_common::{Schema, Tuple, Value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A fresh per-test data directory under the target tmpdir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

/// Must match `table_rows` in `src/bin/pyro_ingest.rs`.
fn ingest_rows(table: usize, rows: usize) -> Vec<Tuple> {
    (0..rows)
        .map(|k| {
            let v = (k as i64)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(table as i64 * 97)
                % 100_000;
            Tuple::new(vec![Value::Int(k as i64), Value::Int(v)])
        })
        .collect()
}

fn sample_rows() -> Vec<Tuple> {
    (0..500)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int((k * 37) % 101)]))
        .collect()
}

#[test]
fn clean_reopen_recovers_tables_and_checkpoint_truncates_wal() {
    let dir = fresh_dir("durability_clean_reopen");
    let rows = sample_rows();
    {
        let mut session = SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(8)
            .open()
            .expect("open fresh durable session");
        assert!(session.is_durable());
        session
            .register_table("t", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &rows)
            .expect("register");
        session.checkpoint().expect("checkpoint");
        // A checkpoint flushes everything and truncates the log back to
        // its 8-byte header: reopening replays nothing.
        let wal_len = std::fs::metadata(dir.join("wal.pyro")).expect("wal").len();
        assert_eq!(wal_len, pyro::storage::WAL_HEADER_LEN);
    }
    let session = SessionBuilder::new()
        .data_dir(&dir)
        .open()
        .expect("reopen durable session");
    let got = session.sql("SELECT k, v FROM t ORDER BY k").expect("query");
    assert_eq!(got.rows(), &rows[..]);
}

#[test]
fn reopen_without_checkpoint_replays_wal() {
    let dir = fresh_dir("durability_no_checkpoint");
    let rows = sample_rows();
    {
        let mut session = SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(64)
            .wal_checkpoint_bytes(u64::MAX)
            .open()
            .expect("open");
        session
            .register_table("t", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &rows)
            .expect("register");
        // Dropped without checkpoint: dirty pool pages are lost, as in a
        // crash. Only the WAL can bring the table back.
        assert!(
            std::fs::metadata(dir.join("wal.pyro")).expect("wal").len()
                > pyro::storage::WAL_HEADER_LEN
        );
    }
    let session = SessionBuilder::new().data_dir(&dir).open().expect("reopen");
    let got = session.sql("SELECT k, v FROM t ORDER BY k").expect("query");
    assert_eq!(got.rows(), &rows[..]);
}

#[test]
fn durable_results_match_in_memory() {
    let dir = fresh_dir("durability_parity");
    let rows = sample_rows();
    let schema = Schema::ints(&["k", "v"]);
    let sql = "SELECT v, k FROM t WHERE v > 50 ORDER BY v, k";

    let mut mem = SessionBuilder::new().build();
    mem.register_table("t", schema.clone(), SortOrder::new(["k"]), &rows)
        .expect("register in-memory");
    let expected = mem.sql(sql).expect("in-memory query");

    let mut durable = SessionBuilder::new()
        .data_dir(&dir)
        .buffer_pool_pages(8)
        .open()
        .expect("open durable");
    durable
        .register_table("t", schema, SortOrder::new(["k"]), &rows)
        .expect("register durable");
    let got = durable.sql(sql).expect("durable query");
    assert_eq!(got.rows(), expected.rows());
}

#[test]
fn kill9_mid_ingest_recovers_committed_prefix_bit_identically() {
    const N_TABLES: usize = 40;
    const ROWS_PER: usize = 1000;
    const KILL_AFTER: usize = 3;

    let dir = fresh_dir("durability_kill9");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pyro_ingest"))
        .arg(&dir)
        .arg(N_TABLES.to_string())
        .arg(ROWS_PER.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pyro_ingest");

    // Synchronize on the helper's per-commit lines, then SIGKILL it — no
    // destructors, no flush: whatever survives survived the hard way.
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut committed = 0usize;
    let mut line = String::new();
    while committed < KILL_AFTER {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "helper exited after only {committed} commits");
        assert!(line.starts_with("committed "), "unexpected line: {line:?}");
        committed += 1;
    }
    child.kill().expect("SIGKILL helper");
    // Commits that raced the kill still flushed their line into the pipe;
    // drain them so `committed` is exact.
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line.starts_with("committed ") => committed += 1,
            Ok(_) => break,
        }
    }
    child.wait().expect("reap helper");
    assert!(
        committed < N_TABLES,
        "helper finished before the kill landed"
    );

    let session = SessionBuilder::new()
        .data_dir(&dir)
        .open()
        .expect("reopen after SIGKILL");
    let recovered = session.catalog().tables().len();
    // Every acknowledged commit must survive; one unacknowledged trailing
    // commit may additionally have made it to the WAL before the kill.
    assert!(
        recovered >= committed && recovered <= committed + 1,
        "acknowledged {committed} commits but recovered {recovered} tables"
    );
    for i in 0..recovered {
        let name = format!("t{i}");
        assert!(
            session.catalog().tables().contains_key(&name),
            "recovered tables are not the prefix t0..t{}: missing {name}",
            recovered - 1
        );
        let got = session
            .sql(&format!("SELECT k, v FROM {name} ORDER BY k"))
            .unwrap_or_else(|e| panic!("query {name} after recovery: {e}"));
        assert_eq!(
            got.rows(),
            &ingest_rows(i, ROWS_PER)[..],
            "{name} not bit-identical after recovery"
        );
    }
}

/// Point lookups on a reopened session: the recovered files start with
/// empty page fences and fill them on first use. Every prepared
/// `l_orderkey = ?` lookup — each order key, plus keys below, between and
/// above the domain — must equal a full-scan reference, and a repeated
/// lookup must read no page beyond the range it scans. Then four threads
/// seek the same freshly reopened file at once.
#[test]
fn seeks_after_reopen_match_full_scan() {
    use pyro::datagen::tpch::{self, TpchConfig};
    use pyro::exec::scan::eq_key_page_range;
    use std::collections::HashMap;
    use std::sync::Arc;

    const SEED: u64 = 7;
    const POINT: &str = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = ? \
                         ORDER BY l_orderkey, l_quantity";
    let dir = fresh_dir("durability_seek_fences");
    let cfg = TpchConfig::scaled(0.002);
    let open = || {
        SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(16)
            .seed(SEED)
            .open()
            .expect("open durable session")
    };
    {
        let mut session = open();
        tpch::load_with_seed(session.catalog_mut(), cfg, SEED).expect("load");
    }

    // Reference: a full scan of an independent in-memory copy.
    let mut mem = SessionBuilder::new().seed(SEED).build();
    tpch::load_with_seed(mem.catalog_mut(), cfg, SEED).expect("load in memory");
    let mut reference: HashMap<i64, Vec<Tuple>> = HashMap::new();
    for row in mem
        .sql("SELECT l_orderkey, l_quantity FROM lineitem ORDER BY l_orderkey, l_quantity")
        .expect("full scan")
        .into_rows()
    {
        let key = row.get(0).as_int().expect("integer key");
        reference.entry(key).or_default().push(row);
    }
    let orders = reference.len() as i64;
    assert_eq!(reference.keys().max(), Some(&(orders - 1)), "dense keys");
    // Numeric keys compare numerically, so a whole double finds its order.
    fn expect<'a>(reference: &'a HashMap<i64, Vec<Tuple>>, key: &Value) -> &'a [Tuple] {
        let k = match key {
            Value::Int(k) => *k,
            Value::Double(d) if d.fract() == 0.0 => *d as i64,
            _ => return &[],
        };
        reference.get(&k).map_or(&[], Vec::as_slice)
    }
    let mut keys: Vec<Value> = (0..orders).map(Value::Int).collect();
    keys.extend([-1, orders, orders + 1000].map(Value::Int));
    keys.extend([-0.5, 10.5, (orders / 2) as f64 + 0.5, 20.0].map(Value::Double));

    let session = open();
    let heap = session
        .catalog()
        .table("lineitem")
        .expect("lineitem")
        .heap
        .clone();
    let dev = session.catalog().device().clone();
    let stmt = session.prepare(POINT).expect("prepare");
    for key in &keys {
        let binding = std::slice::from_ref(key);
        let first = stmt.execute(binding).expect("first lookup");
        assert_eq!(
            first.rows(),
            expect(&reference, key),
            "first lookup of {key}"
        );
        // The first lookup filled the fences its search probes.
        let before = dev.io();
        let (start, end) = eq_key_page_range(&heap, &[0], binding).expect("seek");
        assert_eq!(
            dev.io().since(&before).reads,
            0,
            "probes of {key} are in memory"
        );
        let before = dev.io();
        let second = stmt.execute(binding).expect("second lookup");
        let reads = dev.io().since(&before).reads;
        assert_eq!(
            second.rows(),
            expect(&reference, key),
            "second lookup of {key}"
        );
        assert!(
            reads <= (end - start) as u64,
            "second lookup of {key} read {reads} pages, scans {start}..{end}"
        );
    }
    drop(stmt);
    drop(session);

    // Four threads seek one freshly reopened file, filling its fences as
    // they go; each visits every key, starting a quarter further along.
    let session = Arc::new(open());
    let keys = Arc::new(keys);
    let reference = Arc::new(reference);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let (session, keys, reference) = (session.clone(), keys.clone(), reference.clone());
            std::thread::spawn(move || {
                let stmt = session.prepare(POINT).expect("prepare");
                let skip = t * keys.len() / 4;
                for key in keys.iter().cycle().skip(skip).take(keys.len()) {
                    let got = stmt.execute(std::slice::from_ref(key)).expect("lookup");
                    assert_eq!(got.rows(), expect(&reference, key), "thread {t}, key {key}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("seeking thread must not panic");
    }
}
