//! Access paths: table scan, clustered scan and covering-index scan —
//! serial ([`FileScan`]) and morsel-driven parallel ([`MorselScan`]).
//!
//! All of them read a [`TupleFile`] sequentially; what differs is the schema
//! they expose and the sort order they guarantee (knowledge the *optimizer*
//! holds — the operators themselves just stream pages, counting I/O via the
//! device).

use crate::op::{Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnBuilder, ColumnarBatch, Result, Schema, Tuple, Value};
use pyro_storage::{TupleFile, TupleFileScan};
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages claimed per morsel. At the default 4 KB block size this is ~128 KB
/// of encoded tuples per claim — large enough that the shared counter is
/// touched rarely, small enough that stragglers rebalance.
pub const MORSEL_PAGES: usize = 32;

/// Sequential scan over a tuple file (base heap or index entry file).
///
/// Whether this acts as the paper's "Table scan", "C.Idx Scan" (clustering
/// index scan — same file, known order) or "Cov. Idx Scan" (covering-index
/// entry file — narrower schema, key order) is decided by which file and
/// schema the planner binds.
pub struct FileScan {
    schema: Schema,
    scan: TupleFileScan,
    /// Decoded-but-unemitted rows of the current page (batch path only).
    pending: Vec<Tuple>,
    batch: usize,
    /// Tuples in the scanned range, for `size_hint`.
    total: usize,
    emitted: usize,
}

impl FileScan {
    /// Scans `file`, exposing `schema` (column count must match the stored
    /// tuples).
    pub fn new(schema: Schema, file: &TupleFile) -> Self {
        FileScan {
            schema,
            scan: file.scan(),
            pending: Vec::new(),
            batch: DEFAULT_BATCH_SIZE,
            total: file.tuple_count() as usize,
            emitted: 0,
        }
    }

    /// Scans only the half-open page range `[start, end)` of `file` — one
    /// worker's share of a range-partitioned parallel scan. The tuple count
    /// of a partial range is unknown up front, so `size_hint` stays
    /// unbounded.
    pub fn over_pages(schema: Schema, file: &TupleFile, start: usize, end: usize) -> Self {
        FileScan {
            schema,
            scan: file.scan_pages(start, end),
            pending: Vec::new(),
            batch: DEFAULT_BATCH_SIZE,
            total: usize::MAX,
            emitted: 0,
        }
    }
}

impl Operator for FileScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let t = self.scan.next_tuple()?;
        if t.is_some() {
            self.emitted += 1;
        }
        Ok(t)
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        // Decode pages straight into the pending buffer until the batch is
        // full (or the file ends), then hand the vector over whole.
        if self.pending.is_empty() && !self.scan.fill_chunk(&mut self.pending, self.batch)? {
            return Ok(None);
        }
        let out: Vec<Tuple> = if self.pending.len() <= self.batch {
            std::mem::take(&mut self.pending)
        } else {
            self.pending.drain(..self.batch).collect()
        };
        self.emitted += out.len();
        Ok(Some(out))
    }

    /// Native columnar scan: pages decode straight into typed column
    /// vectors — no `Tuple` is boxed. May overshoot the batch size by the
    /// tail of the last decoded page (allowed by the batch contract).
    fn next_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        debug_assert!(
            self.pending.is_empty(),
            "columnar and row batch pulls must not interleave on a scan"
        );
        let mut builders: Vec<ColumnBuilder> = (0..self.schema.len())
            .map(|_| ColumnBuilder::new())
            .collect();
        if !self.scan.fill_columns(&mut builders, self.batch)? {
            return Ok(None);
        }
        let batch = ColumnarBatch::from_builders(builders);
        self.emitted += batch.num_rows();
        Ok(Some(batch))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.total == usize::MAX {
            return (self.pending.len(), None);
        }
        let rem = self.total.saturating_sub(self.emitted);
        (rem, Some(rem))
    }
}

/// Binary-searches the half-open page range of a sorted `file` that can
/// hold tuples whose `key_cols` prefix equals `key`, probing the opening
/// tuple of O(log P) pages.
///
/// The returned range is a *superset* of the pages holding matches — the
/// first candidate page's opening tuple may still sort below the key — so
/// callers must keep their residual predicate; a conservatively wide range
/// costs extra I/O, never a wrong answer. Probes compare with the same
/// [`Value`] total order the executor's `=` uses. They read the file's
/// in-memory page fences ([`TupleFile::fence`]), so they cost no device
/// read — except the first probe of a page on a file rebuilt from its
/// persisted parts, which reads that page once.
pub fn eq_key_page_range(
    file: &TupleFile,
    key_cols: &[usize],
    key: &[Value],
) -> Result<(usize, usize)> {
    let pages = file.block_count() as usize;
    if pages == 0 || key_cols.is_empty() || key_cols.len() != key.len() {
        return Ok((0, pages));
    }
    // Orders page p's opening tuple against the key, prefix-lexicographically.
    let probe = |p: usize| file.fence(p)?.cmp_prefix(key_cols, key);
    // First page whose opening tuple is >= key. Matches can start one page
    // earlier: that page opens below the key but may reach it further in.
    let (mut lo, mut hi) = (0usize, pages);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? == CmpOrdering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_ge = lo;
    // First page whose opening tuple is > key: the file is sorted on the
    // probed prefix, so no match can live there or beyond.
    let (mut lo, mut hi) = (first_ge, pages);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? == CmpOrdering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok((first_ge.saturating_sub(1), lo))
}

/// The shared work queue of a morsel-driven parallel scan: worker scans
/// claim fixed-size page ranges of one file from an atomic cursor, so fast
/// workers naturally take more morsels (Leis et al.'s load-balancing
/// property) without any coordination beyond one `fetch_add`.
#[derive(Debug)]
pub struct MorselSource {
    file: TupleFile,
    next_page: AtomicUsize,
    pages_per_morsel: usize,
}

impl MorselSource {
    /// A shared morsel queue over `file` with [`MORSEL_PAGES`]-page morsels.
    pub fn new(file: &TupleFile) -> Arc<MorselSource> {
        MorselSource::with_morsel_pages(file, MORSEL_PAGES)
    }

    /// A shared morsel queue with an explicit morsel size in pages.
    pub fn with_morsel_pages(file: &TupleFile, pages: usize) -> Arc<MorselSource> {
        Arc::new(MorselSource {
            file: file.clone(),
            next_page: AtomicUsize::new(0),
            pages_per_morsel: pages.max(1),
        })
    }

    /// Claims the next unclaimed page range, or `None` when the file is
    /// fully claimed. Each page is claimed exactly once across all workers,
    /// so total device reads match a serial scan.
    pub fn claim(&self) -> Option<(usize, usize)> {
        let total = self.file.block_count() as usize;
        let start = self
            .next_page
            .fetch_add(self.pages_per_morsel, Ordering::Relaxed);
        if start >= total {
            return None;
        }
        Some((start, (start + self.pages_per_morsel).min(total)))
    }
}

/// One worker's scan operator over a shared [`MorselSource`]: streams the
/// morsels it claims, in claim order. Several `MorselScan`s over the same
/// source partition the file between them dynamically.
pub struct MorselScan {
    schema: Schema,
    source: Arc<MorselSource>,
    current: Option<TupleFileScan>,
    pending: Vec<Tuple>,
    batch: usize,
}

impl MorselScan {
    /// A worker scan pulling morsels from `source`, exposing `schema`.
    pub fn new(schema: Schema, source: Arc<MorselSource>) -> Self {
        MorselScan {
            schema,
            source,
            current: None,
            pending: Vec::new(),
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// Installs the next claimed morsel; `false` when the file is done.
    fn advance(&mut self) -> bool {
        match self.source.claim() {
            Some((start, end)) => {
                self.current = Some(self.source.file.scan_pages(start, end));
                true
            }
            None => false,
        }
    }
}

impl Operator for MorselScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(scan) = &mut self.current {
                if let Some(t) = scan.next_tuple()? {
                    return Ok(Some(t));
                }
                self.current = None;
            }
            if !self.advance() {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        while self.pending.len() < self.batch {
            if let Some(scan) = &mut self.current {
                if !scan.fill_chunk(&mut self.pending, self.batch)? {
                    self.current = None;
                }
            } else if !self.advance() {
                break;
            }
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        if self.pending.len() <= self.batch {
            return Ok(Some(std::mem::take(&mut self.pending)));
        }
        Ok(Some(self.pending.drain(..self.batch).collect()))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, collect_batched, BoxOp};
    use pyro_common::Value;
    use pyro_storage::{write_file, SimDevice};

    fn sample_file(n: i64, block_size: usize) -> (pyro_storage::DeviceRef, TupleFile, Vec<Tuple>) {
        let dev = SimDevice::with_block_size(block_size);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        (dev, file, rows)
    }

    #[test]
    fn scan_streams_file_counting_io() {
        let (dev, file, rows) = sample_file(40, 128);
        dev.reset_io();
        let scan = FileScan::new(Schema::ints(&["a", "b"]), &file);
        assert_eq!(scan.size_hint(), (40, Some(40)));
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out, rows);
        assert_eq!(dev.io().reads, file.block_count());
    }

    #[test]
    fn batched_scan_same_rows_and_io() {
        let (dev, file, rows) = sample_file(40, 128);
        for batch in [1usize, 3, 1024] {
            dev.reset_io();
            let mut scan: BoxOp = Box::new(FileScan::new(Schema::ints(&["a", "b"]), &file));
            scan.set_batch_size(batch);
            let out = collect_batched(scan).unwrap();
            assert_eq!(out, rows, "batch={batch}");
            assert_eq!(dev.io().reads, file.block_count(), "batch={batch}");
        }
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let (_dev, file, _) = sample_file(40, 128);
        let mut scan = FileScan::new(Schema::ints(&["a", "b"]), &file);
        scan.next().unwrap();
        scan.next().unwrap();
        assert_eq!(scan.size_hint(), (38, Some(38)));
    }

    #[test]
    fn range_scans_cover_file_disjointly() {
        let (dev, file, rows) = sample_file(60, 128);
        let pages = file.block_count() as usize;
        let mid = pages / 2;
        dev.reset_io();
        let lo = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b"]),
            &file,
            0,
            mid,
        )) as BoxOp)
        .unwrap();
        let hi = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b"]),
            &file,
            mid,
            pages,
        )) as BoxOp)
        .unwrap();
        let mut all = lo;
        all.extend(hi);
        assert_eq!(all, rows, "range halves concatenate to the full file");
        assert_eq!(dev.io().reads, file.block_count(), "each page read once");
    }

    /// Every key present in the file must be fully covered by its probed
    /// range, absent keys must land on ranges without them, and the range
    /// must be a genuine restriction for selective keys.
    #[test]
    fn eq_key_page_range_covers_exactly() {
        // 4 rows per key, keys 0..100, tiny pages so keys straddle pages.
        let dev = SimDevice::with_block_size(128);
        let rows: Vec<Tuple> = (0..400i64)
            .map(|i| Tuple::new(vec![Value::Int(i / 4), Value::Int(i)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        let pages = file.block_count() as usize;
        assert!(pages > 10, "need a multi-page file, got {pages}");
        for key in [0i64, 1, 37, 50, 98, 99] {
            let (start, end) = eq_key_page_range(&file, &[0], &[Value::Int(key)]).unwrap();
            assert!(start < end, "key {key}: empty range {start}..{end}");
            assert!(end <= pages);
            let got: Vec<Tuple> = collect(Box::new(FileScan::over_pages(
                Schema::ints(&["k", "v"]),
                &file,
                start,
                end,
            )) as BoxOp)
            .unwrap()
            .into_iter()
            .filter(|t| t.get(0) == &Value::Int(key))
            .collect();
            let expect: Vec<Tuple> = rows
                .iter()
                .filter(|t| t.get(0) == &Value::Int(key))
                .cloned()
                .collect();
            assert_eq!(got, expect, "key {key} rows lost by the page bounds");
            assert!(
                end - start <= 2,
                "key {key}: 4 rows should sit on at most 2 pages, got {}",
                end - start
            );
        }
        // Absent keys: below, between (impossible here — keys are dense),
        // and above the domain. The range may be nonempty; it just must not
        // contain the key.
        for key in [-5i64, 100, 1000] {
            let (start, end) = eq_key_page_range(&file, &[0], &[Value::Int(key)]).unwrap();
            let hits = collect(Box::new(FileScan::over_pages(
                Schema::ints(&["k", "v"]),
                &file,
                start,
                end,
            )) as BoxOp)
            .unwrap()
            .into_iter()
            .filter(|t| t.get(0) == &Value::Int(key))
            .count();
            assert_eq!(hits, 0, "key {key} does not exist");
        }
    }

    /// Two-column keys narrow further than their one-column prefix, and an
    /// empty/oversized key degrades to the full file.
    #[test]
    fn eq_key_page_range_multi_column_and_degenerate() {
        let dev = SimDevice::with_block_size(128);
        let rows: Vec<Tuple> = (0..300i64)
            .map(|i| Tuple::new(vec![Value::Int(i / 30), Value::Int(i % 30), Value::Int(i)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        let pages = file.block_count() as usize;
        let (s1, e1) = eq_key_page_range(&file, &[0], &[Value::Int(5)]).unwrap();
        let (s2, e2) = eq_key_page_range(&file, &[0, 1], &[Value::Int(5), Value::Int(7)]).unwrap();
        assert!(e2 - s2 <= e1 - s1, "longer key must not widen the range");
        let got: Vec<Tuple> = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b", "v"]),
            &file,
            s2,
            e2,
        )) as BoxOp)
        .unwrap()
        .into_iter()
        .filter(|t| t.get(0) == &Value::Int(5) && t.get(1) == &Value::Int(7))
        .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(2), &Value::Int(5 * 30 + 7));
        // Degenerate inputs fall back to the whole file.
        assert_eq!(eq_key_page_range(&file, &[], &[]).unwrap(), (0, pages));
        assert_eq!(
            eq_key_page_range(&file, &[0], &[Value::Int(1), Value::Int(2)]).unwrap(),
            (0, pages)
        );
        let no_rows: Vec<Tuple> = Vec::new();
        let empty = write_file(&dev, &no_rows).unwrap();
        assert_eq!(
            eq_key_page_range(&empty, &[0], &[Value::Int(1)]).unwrap(),
            (0, 0)
        );
    }

    /// Checks one seek on `file` (sorted on `cols`) against `rows`: every
    /// fence probe ranks like the page's decoded opening tuple under
    /// [`Value::cmp`], and the returned range holds every row whose key
    /// compares equal.
    fn check_seek(file: &TupleFile, rows: &[Tuple], cols: &[usize], key: &[Value]) {
        let cmp_key = |t: &Tuple| {
            cols.iter()
                .zip(key)
                .map(|(&c, k)| t.get(c).cmp(k))
                .find(|o| o.is_ne())
                .unwrap_or(CmpOrdering::Equal)
        };
        for p in 0..file.block_count() as usize {
            let opening = file.scan_pages(p, p + 1).next_tuple().unwrap().unwrap();
            let fence = file.fence(p).unwrap();
            assert_eq!(fence.decode().unwrap(), opening, "page {p} fence");
            assert_eq!(
                fence.cmp_prefix(cols, key).unwrap(),
                cmp_key(&opening),
                "page {p} probe for {key:?}"
            );
        }
        let (start, end) = eq_key_page_range(file, cols, key).unwrap();
        let schema = Schema::ints(&["c0", "c1", "c2"][..rows[0].arity()]);
        let got: Vec<Tuple> =
            collect(Box::new(FileScan::over_pages(schema, file, start, end)) as BoxOp)
                .unwrap()
                .into_iter()
                .filter(|t| cmp_key(t).is_eq())
                .collect();
        let expect: Vec<Tuple> = rows
            .iter()
            .filter(|t| cmp_key(t).is_eq())
            .cloned()
            .collect();
        assert_eq!(
            got, expect,
            "key {key:?} rows lost by the page bounds {start}..{end}"
        );
    }

    /// String, double and NULL-bearing sort keys: the in-place fence
    /// comparison keeps the `Value` order, including mixed-numeric and
    /// cross-type keys and NULLs sorting last.
    #[test]
    fn eq_key_page_range_str_double_null_keys() {
        let dev = SimDevice::with_block_size(128);
        let strs: Vec<Tuple> = (0..300i64)
            .map(|i| Tuple::new(vec![Value::Str(format!("k{:03}", i / 3)), Value::Int(i)]))
            .collect();
        let file = write_file(&dev, &strs).unwrap();
        assert!(file.block_count() > 10);
        for key in [
            Value::Str("k000".into()),
            Value::Str("k050".into()),
            Value::Str("k099".into()),
            Value::Str("a".into()),
            Value::Str("k0505".into()),
            Value::Str("z".into()),
            Value::Str(String::new()),
            Value::Int(5),
            Value::Null,
        ] {
            check_seek(&file, &strs, &[0], &[key]);
        }

        let doubles: Vec<Tuple> = (0..300i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Double((i / 3) as f64 * 0.5 - 20.0),
                    Value::Int(i),
                ])
            })
            .collect();
        let file = write_file(&dev, &doubles).unwrap();
        for key in [
            Value::Double(-20.0),
            Value::Double(0.0),
            Value::Double(0.25),
            Value::Double(29.5),
            Value::Double(1e9),
            Value::Double(f64::NAN),
            Value::Int(3),
            Value::Str("x".into()),
        ] {
            check_seek(&file, &doubles, &[0], &[key]);
        }

        // NULLs sort last, on both key columns.
        let mut nulls: Vec<Tuple> = (0..300i64)
            .map(|i| {
                let a = if i < 200 {
                    Value::Int(i / 20)
                } else {
                    Value::Null
                };
                let b = if i % 20 < 15 {
                    Value::Str(format!("s{:02}", i % 20))
                } else {
                    Value::Null
                };
                Tuple::new(vec![a, b, Value::Int(i)])
            })
            .collect();
        nulls.sort();
        let file = write_file(&dev, &nulls).unwrap();
        for key in [Value::Int(0), Value::Int(9), Value::Int(10), Value::Null] {
            check_seek(&file, &nulls, &[0], &[key]);
        }
        for key in [
            [Value::Int(3), Value::Str("s07".into())],
            [Value::Int(3), Value::Null],
            [Value::Null, Value::Null],
            [Value::Null, Value::Str("s00".into())],
        ] {
            check_seek(&file, &nulls, &[0, 1], &key);
        }
    }

    /// A file rebuilt from its persisted parts starts with empty fences:
    /// its first seeks read pages to fill them, then seek for free, and
    /// every range matches the writer-built file's.
    #[test]
    fn eq_key_page_range_from_parts_fills_fences_lazily() {
        let (dev, built, _) = sample_file(400, 128);
        let reopened = TupleFile::from_parts(
            dev.clone(),
            built.pages().to_vec(),
            built.tuple_count(),
            built.byte_count(),
        );
        let pages = built.block_count() as usize;
        let log_pages = usize::BITS - pages.leading_zeros();
        for key in [0i64, 17, 399, -1, 400] {
            let key = [Value::Int(key)];
            dev.reset_io();
            let range = eq_key_page_range(&reopened, &[0], &key).unwrap();
            assert_eq!(range, eq_key_page_range(&built, &[0], &key).unwrap());
            assert!(dev.io().reads <= 2 * log_pages as u64, "{:?}", dev.io());
            dev.reset_io();
            assert_eq!(eq_key_page_range(&reopened, &[0], &key).unwrap(), range);
            assert_eq!(dev.io().reads, 0, "a repeated seek probes filled fences");
        }
        // Clones share the fences filled above.
        dev.reset_io();
        eq_key_page_range(&reopened.clone(), &[0], &[Value::Int(17)]).unwrap();
        assert_eq!(dev.io().reads, 0);
    }

    /// A writer fills every fence as it starts each page, so seeking a
    /// freshly written file reads nothing.
    #[test]
    fn eq_key_page_range_probes_read_no_pages() {
        let (dev, file, _) = sample_file(400, 128);
        dev.reset_io();
        for key in [-3i64, 0, 123, 399, 1000] {
            eq_key_page_range(&file, &[0], &[Value::Int(key)]).unwrap();
        }
        assert_eq!(dev.io().reads, 0);
    }

    #[test]
    fn morsel_scans_partition_file_exactly_once() {
        let (dev, file, rows) = sample_file(200, 128);
        let source = MorselSource::with_morsel_pages(&file, 3);
        dev.reset_io();
        let mut out = Vec::new();
        // Two workers drain the shared queue serially here; page accounting
        // and multiset coverage are what we pin (threaded use is exercised
        // by the exchange tests).
        for _ in 0..2 {
            let scan = MorselScan::new(Schema::ints(&["a", "b"]), source.clone());
            out.extend(collect_batched(Box::new(scan)).unwrap());
        }
        assert_eq!(dev.io().reads, file.block_count(), "each page read once");
        out.sort();
        let mut expect = rows;
        expect.sort();
        assert_eq!(out, expect);
    }

    #[test]
    fn morsel_scan_row_and_batch_paths_agree() {
        let (_dev, file, rows) = sample_file(50, 128);
        let by_row = collect(Box::new(MorselScan::new(
            Schema::ints(&["a", "b"]),
            MorselSource::with_morsel_pages(&file, 2),
        )) as BoxOp)
        .unwrap();
        let by_batch = collect_batched(Box::new(MorselScan::new(
            Schema::ints(&["a", "b"]),
            MorselSource::with_morsel_pages(&file, 2),
        )) as BoxOp)
        .unwrap();
        assert_eq!(by_row, rows);
        assert_eq!(by_batch, rows);
    }
}
