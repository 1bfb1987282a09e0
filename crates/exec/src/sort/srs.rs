//! Standard replacement selection (SRS) — the baseline external sort.
//!
//! Classical behaviour (matching PostgreSQL's sort, which the paper
//! modified):
//!
//! * If the whole input fits in the memory budget, sort in memory — no disk
//!   I/O at all.
//! * Otherwise run replacement selection: a memory-filling heap emits the
//!   smallest current-run tuple, replacing it with the next input tuple
//!   (demoted to the next run if it sorts below the last emitted key). Runs
//!   average twice the memory size; *presorted input yields a single giant
//!   run* — which is still written to disk and read back, breaking the
//!   pipeline. That wasted round-trip on partially-sorted input is exactly
//!   the deficiency [`super::PartialSort`] removes.
//! * Merge the runs with bounded fan-in (multi-pass if needed).

use super::heap::RsHeap;
use super::runs::{InMemorySortStream, MergeStream};
use super::{sort_buffer, SortBudget};
use crate::metrics::MetricsRef;
use crate::op::{pull_row, BoxOp, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple};
use pyro_storage::{IntoStore, StoreRef, TupleFile, TupleFileWriter};
use std::cmp::Ordering;

enum State {
    /// Input not yet consumed.
    Pending,
    /// Whole input fit in memory.
    InMemory(InMemorySortStream),
    /// Merging spill runs.
    Merging(MergeStream),
    Done,
}

/// The SRS sort operator.
pub struct StandardReplacementSort {
    child: Option<BoxOp>,
    schema: Schema,
    key: KeySpec,
    store: StoreRef,
    budget: SortBudget,
    metrics: MetricsRef,
    state: State,
    stash: Stash,
    batch: usize,
}

impl StandardReplacementSort {
    /// Sorts `child` by `key` using at most `budget` memory; spill runs
    /// live on `store` (a [`StoreRef`], or a bare device for uncached
    /// spills).
    pub fn new(
        child: BoxOp,
        key: KeySpec,
        store: impl IntoStore,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Self {
        let schema = child.schema().clone();
        StandardReplacementSort {
            child: Some(child),
            schema,
            key,
            store: store.into_store(),
            budget,
            metrics,
            state: State::Pending,
            stash: Stash::new(),
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// Consumes the input: in-memory sort or replacement selection into
    /// runs. Run-formation comparisons (heap sifts and admission checks)
    /// accumulate locally and are charged in bulk, not per row.
    fn build(&mut self, batched: bool) -> Result<State> {
        let mut child = self.child.take().expect("build called once");
        let budget_bytes = self.budget.bytes();

        // Buffer until the budget overflows or input ends. The batched path
        // ingests whole child batches (one Vec move per batch instead of a
        // per-row pull); byte accounting and the overflow boundary are
        // per-row in both paths, so the buffered prefix — and therefore
        // every downstream comparison and run counter — is identical.
        let mut buffer: Vec<Tuple> = Vec::new();
        let mut bytes = 0usize;
        let mut overflow: Option<Tuple> = None;
        if batched {
            'ingest: while let Some(chunk) = self.stash.next_chunk(&mut child)? {
                let mut it = chunk.into_iter();
                while let Some(t) = it.next() {
                    let size = t.byte_size();
                    if bytes + size > budget_bytes && !buffer.is_empty() {
                        overflow = Some(t);
                        // Unconsumed rows feed the replacement-selection
                        // refill loop below.
                        self.stash.preload(it.collect());
                        break 'ingest;
                    }
                    bytes += size;
                    buffer.push(t);
                }
            }
        } else {
            while let Some(t) = pull_row(&mut child, &mut self.stash, false)? {
                let size = t.byte_size();
                if bytes + size > budget_bytes && !buffer.is_empty() {
                    overflow = Some(t);
                    break;
                }
                bytes += size;
                buffer.push(t);
            }
        }

        if overflow.is_none() {
            // Everything fits: pure CPU sort, zero disk I/O.
            sort_buffer(&mut buffer, &self.key, &self.metrics);
            return Ok(State::InMemory(InMemorySortStream::new(buffer)));
        }

        // Replacement selection: heapify the buffer as run 0, then cycle.
        let mut heap = RsHeap::new(self.key.clone(), self.metrics.clone());
        for t in buffer {
            heap.push(0, self.key.abbreviate(&t), t);
        }
        let mut admission_cmps: u64 = 0;
        let mut next_input = overflow;
        let mut runs: Vec<TupleFile> = Vec::new();
        let mut current_run: u32 = 0;
        let mut writer = TupleFileWriter::new(&self.store);

        loop {
            match heap.peek_run() {
                None => break,
                Some(r) if r != current_run => {
                    // Current run exhausted: seal its file, open the next.
                    let file = writer.finish()?;
                    self.metrics.add_run_pages_written(file.block_count());
                    self.metrics.add_run();
                    runs.push(file);
                    writer = TupleFileWriter::new(&self.store);
                    current_run = r;
                }
                Some(_) => {}
            }
            let (_, floor, tuple) = heap.pop().expect("peek_run returned Some");
            writer.append(&tuple)?;

            // Refill from input while there is input left. The just-emitted
            // tuple is the floor for current-run admission: anything smaller
            // must wait for the next run or the run would become unsorted.
            if let Some(incoming) = next_input.take() {
                let abbrev = self.key.abbreviate(&incoming);
                let (ord, n) = self.key.compare_abbrev(abbrev, &incoming, floor, &tuple);
                admission_cmps += n;
                let run = if ord == Ordering::Less {
                    current_run + 1
                } else {
                    current_run
                };
                heap.push(run, abbrev, incoming);
                next_input = pull_row(&mut child, &mut self.stash, batched)?;
            }
        }
        heap.flush_comparisons();
        self.metrics.add_comparisons(admission_cmps);
        // Seal the final run.
        let file = writer.finish()?;
        self.metrics.add_run_pages_written(file.block_count());
        self.metrics.add_run();
        runs.push(file);

        let merge = MergeStream::new(
            &self.store,
            runs,
            self.key.clone(),
            self.budget,
            self.metrics.clone(),
        )?;
        Ok(State::Merging(merge))
    }
}

impl Operator for StandardReplacementSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            match &mut self.state {
                State::Pending => {
                    self.state = self.build(false)?;
                }
                State::InMemory(s) => {
                    let t = s.next_tuple();
                    if t.is_none() {
                        self.state = State::Done;
                    }
                    return Ok(t);
                }
                State::Merging(m) => {
                    let t = m.next_tuple()?;
                    if t.is_none() {
                        self.state = State::Done;
                    }
                    return Ok(t);
                }
                State::Done => return Ok(None),
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        loop {
            match &mut self.state {
                State::Pending => {
                    self.state = self.build(true)?;
                }
                State::InMemory(s) => {
                    let c = s.next_chunk(self.batch);
                    if c.is_none() {
                        self.state = State::Done;
                    }
                    return Ok(c);
                }
                State::Merging(m) => {
                    let c = m.next_chunk(self.batch)?;
                    if c.is_none() {
                        self.state = State::Done;
                    }
                    return Ok(c);
                }
                State::Done => return Ok(None),
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

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect()
    }

    fn ints(out: Vec<Tuple>) -> Vec<i64> {
        out.iter().map(|t| t.get(0).as_int().unwrap()).collect()
    }

    fn sort_op(vals: &[i64], budget_blocks: u64, block_size: usize) -> (Vec<i64>, MetricsRef) {
        let dev = SimDevice::with_block_size(block_size);
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a"]), rows(vals));
        let op = StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0]),
            dev,
            SortBudget::new(budget_blocks, block_size),
            m.clone(),
        );
        (ints(collect(Box::new(op)).unwrap()), m)
    }

    #[test]
    fn in_memory_when_fits() {
        let (out, m) = sort_op(&[5, 2, 9, 1, 7], 100, 4096);
        assert_eq!(out, vec![1, 2, 5, 7, 9]);
        assert_eq!(m.run_io(), 0, "in-memory sort must not spill");
        assert!(m.comparisons() > 0);
    }

    #[test]
    fn external_sort_correct() {
        // ~25 bytes/tuple, budget 3 blocks × 128B = 384B ≈ 15 tuples; 200
        // tuples forces spilling.
        let vals: Vec<i64> = (0..200).rev().collect();
        let (out, m) = sort_op(&vals, 3, 128);
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
        assert!(m.run_io() > 0, "external sort must spill");
        assert!(
            m.runs_created() >= 2,
            "reverse input defeats RS run extension"
        );
    }

    #[test]
    fn presorted_input_yields_single_run_but_still_spills() {
        // The paper's point: SRS on sorted input writes ONE big run to disk
        // and reads it back — I/O that MRS avoids.
        let vals: Vec<i64> = (0..200).collect();
        let (out, m) = sort_op(&vals, 3, 128);
        assert_eq!(out, vals);
        assert_eq!(
            m.runs_created(),
            1,
            "replacement selection extends the run forever"
        );
        assert!(m.run_pages_written() > 0);
        assert_eq!(m.run_pages_read(), m.run_pages_written());
    }

    #[test]
    fn random_input_runs_average_twice_memory() {
        // Classic RS property: with random input, expected run length ≈ 2×
        // memory. We only sanity-check runs are fewer than naive chunking.
        let mut vals: Vec<i64> = (0..2000).collect();
        // Pseudo-shuffle deterministically.
        let mut state = 12345u64;
        for i in (1..vals.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            vals.swap(i, j);
        }
        let (out, m) = sort_op(&vals, 4, 256);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // naive chunking would need ~ bytes/total ≈ 2000*25/1024 ≈ 48 runs;
        // RS should do substantially better.
        assert!(
            m.runs_created() < 40,
            "expected < 40 runs, got {}",
            m.runs_created()
        );
    }

    #[test]
    fn empty_and_single_input() {
        let (out, m) = sort_op(&[], 10, 4096);
        assert!(out.is_empty());
        assert_eq!(m.run_io(), 0);
        let (out, _) = sort_op(&[42], 10, 4096);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn duplicates_preserved() {
        let (out, _) = sort_op(&[3, 1, 3, 1, 3], 100, 4096);
        assert_eq!(out, vec![1, 1, 3, 3, 3]);
    }

    #[test]
    fn multi_column_key() {
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let data = vec![
            Tuple::new(vec![Value::Int(2), Value::Int(1)]),
            Tuple::new(vec![Value::Int(1), Value::Int(9)]),
            Tuple::new(vec![Value::Int(1), Value::Int(3)]),
            Tuple::new(vec![Value::Int(2), Value::Int(0)]),
        ];
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data);
        let op = StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        let keys: Vec<(i64, i64)> = out
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        assert_eq!(keys, vec![(1, 3), (1, 9), (2, 0), (2, 1)]);
    }
}
