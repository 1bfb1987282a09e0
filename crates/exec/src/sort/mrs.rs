//! Modified replacement selection (MRS) — the paper's §3.1 contribution.
//!
//! The input is known to be sorted on a *prefix* `(a1..ak)` of the requested
//! key `(a1..an)`. Tuples sharing a prefix value form a **partial sort
//! segment**; segments arrive in prefix order, so sorting each segment
//! independently on the suffix `(ak+1..an)` yields the full order. The three
//! benefits the paper lists all fall out of the structure:
//!
//! 1. a segment that fits in memory is sorted and emitted with **zero run
//!    I/O** — fully pipelined;
//! 2. tuples are produced **early** (as soon as a segment closes, not after
//!    the whole input);
//! 3. comparisons drop from `O(n log n)` to `O(n log(n/k))` *and* compare
//!    only suffix columns.
//!
//! Oversized segments degrade gracefully: the segment alone spills to runs
//! that are merged when it closes — at the extreme (one segment = whole
//! input, `k` columns sharing one value) MRS behaves like a plain external
//! sort, the convergence Fig. 9's right edge shows.

use super::runs::{InMemorySortStream, MergeStream};
use super::{sort_buffer, SortBudget};
use crate::metrics::MetricsRef;
use crate::op::{pull_row, BoxOp, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple, Value};
use pyro_storage::{IntoStore, StoreRef, TupleFile};
use std::cmp::Ordering;

enum Output {
    Buffered(InMemorySortStream),
    Merging(MergeStream),
}

/// The MRS operator: enforces the full key given a sorted prefix.
pub struct PartialSort {
    child: BoxOp,
    schema: Schema,
    /// Columns of the already-sorted prefix.
    prefix: KeySpec,
    /// Remaining key columns each segment is sorted on.
    suffix: KeySpec,
    store: StoreRef,
    budget: SortBudget,
    metrics: MetricsRef,
    /// Buffered tuples of the currently accumulating segment.
    buffer: Vec<Tuple>,
    buffer_bytes: usize,
    /// Prefix values identifying the current segment (set on its first
    /// tuple, cleared when it closes). Survives buffer spills.
    segment_key: Option<Vec<Value>>,
    /// Spill runs of the current segment (only when it outgrew memory).
    segment_runs: Vec<TupleFile>,
    /// First tuple of the *next* segment, read but not yet accumulated.
    pending: Option<Tuple>,
    /// Segment currently being drained to the parent.
    output: Option<Output>,
    input_done: bool,
    segments_seen: u64,
    stash: Stash,
    batch: usize,
}

impl PartialSort {
    /// Sorts `child` by `key`, exploiting that the input is already sorted
    /// on the first `prefix_len` columns of `key`.
    ///
    /// `prefix_len = 0` is allowed (degenerates to a chunk-sort external
    /// sort); `prefix_len = key.len()` makes the operator a pass-through
    /// verifier.
    pub fn new(
        child: BoxOp,
        key: KeySpec,
        prefix_len: usize,
        store: impl IntoStore,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Self {
        let schema = child.schema().clone();
        let (prefix, suffix) = key.split_at(prefix_len);
        PartialSort {
            child,
            schema,
            prefix,
            suffix,
            store: store.into_store(),
            budget,
            metrics,
            buffer: Vec::new(),
            buffer_bytes: 0,
            segment_key: None,
            segment_runs: Vec::new(),
            pending: None,
            output: None,
            input_done: false,
            segments_seen: 0,
            stash: Stash::new(),
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// Number of partial-sort segments that have been closed so far.
    pub fn segments_seen(&self) -> u64 {
        self.segments_seen
    }

    /// True iff `t` opens a new segment. The first row after a segment
    /// closes opens the next one and records its prefix values; later rows
    /// compare against that stored prefix in place, one scalar comparison
    /// per column (added to `cmps`), under `Value`'s total order — the
    /// order the input is clustered and sorted by.
    fn starts_new_segment(&mut self, t: &Tuple, cmps: &mut u64) -> bool {
        let Some(key) = &self.segment_key else {
            self.segment_key = Some(t.key(self.prefix.cols()));
            return false;
        };
        for (k, &c) in key.iter().zip(self.prefix.cols()) {
            *cmps += 1;
            if k.cmp(t.get(c)) != Ordering::Equal {
                return true;
            }
        }
        false
    }

    /// Spills the current buffer as one sorted run of the current segment.
    fn spill_buffer(&mut self) -> Result<()> {
        sort_buffer(&mut self.buffer, &self.suffix, &self.metrics);
        let run =
            super::runs::write_run(&self.store, std::mem::take(&mut self.buffer), &self.metrics)?;
        self.segment_runs.push(run);
        self.buffer_bytes = 0;
        Ok(())
    }

    /// Closes the current segment and installs its output stream.
    fn close_segment(&mut self) -> Result<()> {
        self.segments_seen += 1;
        self.segment_key = None;
        if self.segment_runs.is_empty() {
            // The common case: segment fit in memory → zero run I/O.
            let mut buf = std::mem::take(&mut self.buffer);
            self.buffer_bytes = 0;
            sort_buffer(&mut buf, &self.suffix, &self.metrics);
            self.output = Some(Output::Buffered(InMemorySortStream::new(buf)));
        } else {
            // Oversized segment: spill the tail and merge this segment's
            // runs only.
            if !self.buffer.is_empty() {
                self.spill_buffer()?;
            }
            let runs = std::mem::take(&mut self.segment_runs);
            let merge = MergeStream::new(
                &self.store,
                runs,
                self.suffix.clone(),
                self.budget,
                self.metrics.clone(),
            )?;
            self.output = Some(Output::Merging(merge));
        }
        Ok(())
    }

    /// Admits one tuple into the current segment's buffer, spilling first
    /// when the byte budget would overflow. Shared by both ingest paths so
    /// spill boundaries (and the charged comparisons behind them) are
    /// identical row-wise and batch-wise.
    fn admit(&mut self, t: Tuple) -> Result<()> {
        let size = t.byte_size();
        if self.buffer_bytes + size > self.budget.bytes() && !self.buffer.is_empty() {
            self.spill_buffer()?;
        }
        self.buffer_bytes += size;
        self.buffer.push(t);
        Ok(())
    }

    /// Accumulates input until the current segment ends (or input does).
    /// Returns `true` if a segment was closed. Segment-boundary comparisons
    /// accumulate locally and are charged once per call, errors included.
    fn fill_segment(&mut self, batched: bool) -> Result<bool> {
        let mut cmps = 0;
        let closed = if batched {
            self.fill_segment_batched(&mut cmps)
        } else {
            self.fill_segment_rows(&mut cmps)
        };
        self.metrics.add_comparisons(cmps);
        closed
    }

    /// Input is exhausted: closes the last segment, if it holds anything.
    fn end_of_input(&mut self) -> Result<bool> {
        self.input_done = true;
        if self.buffer.is_empty() && self.segment_runs.is_empty() {
            return Ok(false);
        }
        self.close_segment()?;
        Ok(true)
    }

    fn fill_segment_rows(&mut self, cmps: &mut u64) -> Result<bool> {
        loop {
            let t = match self.pending.take() {
                Some(t) => Some(t),
                None => pull_row(&mut self.child, &mut self.stash, false)?,
            };
            let Some(t) = t else {
                return self.end_of_input();
            };
            if self.starts_new_segment(&t, cmps) {
                self.pending = Some(t);
                self.close_segment()?;
                return Ok(true);
            }
            self.admit(t)?;
        }
    }

    /// Batch-granularity ingest: walks whole child batches instead of
    /// issuing a per-row pull. At a segment boundary the unconsumed tail of
    /// the batch is stashed for the next segment. Boundary checks, charged
    /// comparisons and spill points are per-row exactly as in
    /// [`Self::fill_segment_rows`].
    fn fill_segment_batched(&mut self, cmps: &mut u64) -> Result<bool> {
        // The row deferred at the previous boundary opens this segment; it
        // can never itself be a boundary (the key was just cleared).
        if let Some(t) = self.pending.take() {
            debug_assert!(self.segment_key.is_none(), "pending row mid-segment");
            self.starts_new_segment(&t, cmps);
            self.admit(t)?;
        }
        loop {
            let Some(chunk) = self.stash.next_chunk(&mut self.child)? else {
                return self.end_of_input();
            };
            let mut it = chunk.into_iter();
            while let Some(t) = it.next() {
                if self.starts_new_segment(&t, cmps) {
                    self.pending = Some(t);
                    self.stash.preload(it.collect());
                    self.close_segment()?;
                    return Ok(true);
                }
                self.admit(t)?;
            }
        }
    }
}

impl Operator for PartialSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(out) = &mut self.output {
                let t = match out {
                    Output::Buffered(s) => s.next_tuple(),
                    Output::Merging(m) => m.next_tuple()?,
                };
                if t.is_some() {
                    return Ok(t);
                }
                self.output = None;
            }
            if self.input_done && self.buffer.is_empty() && self.segment_runs.is_empty() {
                return Ok(None);
            }
            if !self.fill_segment(false)? {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        // One chunk of the current segment per call — a whole segment when
        // it fits the batch (handed over zero-copy by the sort stream).
        // Short batches are fine under the batch contract, and demand-
        // driven behaviour (Top-K closing only the segments it needs) is
        // preserved: no segment beyond the emitted chunk is filled or
        // sorted (input read-ahead is bounded by one child batch).
        loop {
            if let Some(o) = &mut self.output {
                let chunk = match o {
                    Output::Buffered(s) => s.next_chunk(self.batch),
                    Output::Merging(m) => m.next_chunk(self.batch)?,
                };
                match chunk {
                    Some(c) => return Ok(Some(c)),
                    None => self.output = None,
                }
            }
            if self.input_done && self.buffer.is_empty() && self.segment_runs.is_empty() {
                return Ok(None);
            }
            if !self.fill_segment(true)? {
                return Ok(None);
            }
        }
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
    use crate::metrics::ExecMetrics;
    use crate::op::{collect, ValuesOp};
    use pyro_common::Value;
    use pyro_storage::SimDevice;

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    /// Input sorted on col 0, random col 1.
    fn segmented_input(segments: i64, per_segment: i64) -> Vec<Tuple> {
        let mut rows = Vec::new();
        let mut state = 99u64;
        for s in 0..segments {
            for _ in 0..per_segment {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rows.push(t2(s, (state >> 40) as i64));
            }
        }
        rows
    }

    fn run_mrs(
        rows: Vec<Tuple>,
        prefix_len: usize,
        budget_blocks: u64,
        block_size: usize,
    ) -> (Vec<Tuple>, MetricsRef) {
        let dev = SimDevice::with_block_size(block_size);
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), rows);
        let op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            prefix_len,
            dev,
            SortBudget::new(budget_blocks, block_size),
            m.clone(),
        );
        (collect(Box::new(op)).unwrap(), m)
    }

    fn assert_sorted(rows: &[Tuple]) {
        let key = KeySpec::new(vec![0, 1]);
        assert!(
            rows.windows(2)
                .all(|w| key.compare(&w[0], &w[1]) != std::cmp::Ordering::Greater),
            "output not sorted"
        );
    }

    #[test]
    fn zero_run_io_when_segments_fit() {
        // This is the paper's headline §3.1 claim, as an exact assertion.
        let rows = segmented_input(50, 20);
        let (out, m) = run_mrs(rows.clone(), 1, 100, 4096);
        assert_eq!(out.len(), rows.len());
        assert_sorted(&out);
        assert_eq!(m.run_io(), 0, "MRS must not touch disk when segments fit");
    }

    #[test]
    fn fewer_comparisons_than_full_sort() {
        let rows = segmented_input(100, 10);
        let (_, m_mrs) = run_mrs(rows.clone(), 1, 100, 4096);

        // Same data through SRS for comparison.
        let dev = SimDevice::new();
        let m_srs = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), rows);
        let op = super::super::srs::StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            dev,
            SortBudget::new(100, 4096),
            m_srs.clone(),
        );
        collect(Box::new(op)).unwrap();
        assert!(
            m_mrs.comparisons() < m_srs.comparisons(),
            "MRS {} should compare less than SRS {}",
            m_mrs.comparisons(),
            m_srs.comparisons()
        );
    }

    #[test]
    fn oversized_segment_spills_and_merges() {
        // One giant segment (all same prefix) much larger than 3×128B.
        let rows = segmented_input(1, 500);
        let (out, m) = run_mrs(rows, 1, 3, 128);
        assert_eq!(out.len(), 500);
        assert_sorted(&out);
        assert!(m.run_io() > 0, "oversized segment must spill");
    }

    #[test]
    fn mixed_small_and_large_segments() {
        let mut rows = segmented_input(1, 300); // big segment 0
        rows.extend(
            segmented_input(5, 4)
                .into_iter()
                .map(|t| t2(t.get(0).as_int().unwrap() + 1, t.get(1).as_int().unwrap())),
        );
        let (out, _) = run_mrs(rows, 1, 3, 128);
        assert_eq!(out.len(), 320);
        assert_sorted(&out);
    }

    #[test]
    fn early_output_before_input_consumed() {
        // MRS must yield the first segment's tuples before reading the whole
        // input; we detect this by pulling one tuple, then checking the
        // source's remaining count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingSource {
            schema: Schema,
            rows: Vec<Tuple>,
            idx: usize,
            reads: Arc<AtomicUsize>,
        }
        impl Operator for CountingSource {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn next(&mut self) -> Result<Option<Tuple>> {
                if self.idx < self.rows.len() {
                    self.idx += 1;
                    self.reads.fetch_add(1, Ordering::Relaxed);
                    Ok(Some(self.rows[self.idx - 1].clone()))
                } else {
                    Ok(None)
                }
            }
        }

        let reads = Arc::new(AtomicUsize::new(0));
        let rows = segmented_input(100, 10);
        let n = rows.len();
        let src = CountingSource {
            schema: Schema::ints(&["a", "b"]),
            rows,
            idx: 0,
            reads: reads.clone(),
        };
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let mut op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        let first = op.next().unwrap();
        assert!(first.is_some());
        assert!(
            reads.load(Ordering::Relaxed) <= 11,
            "MRS read {} tuples before first output; expected ≈ one segment (SRS would read all {n})",
            reads.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn prefix_len_zero_degenerates_to_full_sort() {
        let rows = vec![t2(3, 1), t2(1, 2), t2(2, 0)];
        let (out, _) = run_mrs(rows, 0, 100, 4096);
        assert_eq!(out, vec![t2(1, 2), t2(2, 0), t2(3, 1)]);
    }

    #[test]
    fn full_prefix_is_passthrough() {
        // With prefix_len = |key| the operator's contract says the input is
        // already fully sorted; it must stream through unchanged with zero
        // run I/O.
        let key = KeySpec::new(vec![0, 1]);
        let mut rows = segmented_input(5, 3);
        rows.sort_by(|x, y| key.compare(x, y));
        let (out, m) = run_mrs(rows.clone(), 2, 100, 4096);
        assert_eq!(out, rows);
        assert_eq!(m.run_io(), 0);
    }

    #[test]
    fn empty_input() {
        let (out, m) = run_mrs(vec![], 1, 10, 4096);
        assert!(out.is_empty());
        assert_eq!(m.run_io(), 0);
    }

    #[test]
    fn segments_counted() {
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), segmented_input(7, 3));
        let mut op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        while op.next().unwrap().is_some() {}
        assert_eq!(op.segments_seen(), 7);
    }
}
