//! Spill-run plumbing shared by SRS and MRS: writing runs, k-way merging
//! with bounded fan-in, and the streaming output adapters.

use super::SortBudget;
use crate::metrics::MetricsRef;
use pyro_common::{AbbrevKey, KeySpec, Result, Tuple};
use pyro_storage::{StoreRef, TupleFile, TupleFileScan, TupleFileWriter};
use std::cmp::Ordering;

/// Writes `tuples` (already sorted) as one spill run, charging run I/O.
/// Run pages go through `store`, so a pooled store keeps hot runs cached
/// (the logical `run_pages_written` charge is unchanged either way).
pub(crate) fn write_run(
    store: &StoreRef,
    tuples: impl IntoIterator<Item = Tuple>,
    metrics: &MetricsRef,
) -> Result<TupleFile> {
    let mut w = TupleFileWriter::new(store);
    for t in tuples {
        w.append(&t)?;
    }
    let file = w.finish()?;
    metrics.add_run_pages_written(file.block_count());
    metrics.add_run();
    Ok(file)
}

/// An open run being merged.
struct OpenRun {
    scan: TupleFileScan,
    file: Option<TupleFile>,
    /// The run's next tuple with its abbreviated key, computed once per
    /// head rather than once per comparison.
    head: Option<(AbbrevKey, Tuple)>,
}

impl OpenRun {
    /// Reads the run's next tuple into `head`.
    fn advance(&mut self, key: &KeySpec) -> Result<()> {
        self.head = self.scan.next_tuple()?.map(|t| (key.abbreviate(&t), t));
        Ok(())
    }
}

/// Streaming k-way merge over sorted runs. Run pages are charged as *run
/// reads* when each run is opened (runs are always fully consumed); files
/// are freed as they are exhausted so device memory stays bounded.
pub struct MergeStream {
    runs: Vec<OpenRun>,
    key: KeySpec,
    metrics: MetricsRef,
}

impl MergeStream {
    /// Opens the given sorted runs for merging. If there are more runs than
    /// `budget.fan_in()`, intermediate merge passes are performed first
    /// (reading and re-writing runs, exactly the
    /// `B(e)·(2·passes + 1)`-style cost the paper's model charges).
    pub fn new(
        store: &StoreRef,
        mut files: Vec<TupleFile>,
        key: KeySpec,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Result<MergeStream> {
        let fan_in = budget.fan_in();
        // Intermediate passes until a single merge can finish the job.
        while files.len() > fan_in {
            let batch: Vec<TupleFile> = files.drain(..fan_in).collect();
            let mut merged = MergeStream::open(batch, key.clone(), metrics.clone())?;
            let mut w = TupleFileWriter::new(store);
            while let Some(t) = merged.next_tuple()? {
                w.append(&t)?;
            }
            let out = w.finish()?;
            metrics.add_run_pages_written(out.block_count());
            files.push(out);
        }
        MergeStream::open(files, key, metrics)
    }

    fn open(files: Vec<TupleFile>, key: KeySpec, metrics: MetricsRef) -> Result<MergeStream> {
        let mut runs = Vec::with_capacity(files.len());
        for file in files {
            metrics.add_run_pages_read(file.block_count());
            let mut run = OpenRun {
                scan: file.scan(),
                file: Some(file),
                head: None,
            };
            run.advance(&key)?;
            runs.push(run);
        }
        Ok(MergeStream { runs, key, metrics })
    }

    /// Pops the globally smallest head tuple, charging comparisons once per
    /// call.
    pub fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        let mut acc = 0;
        let out = self.pop_smallest(&mut acc);
        self.metrics.add_comparisons(acc);
        out
    }

    /// Pops up to `max_rows` tuples in merge order; comparisons accumulate
    /// locally and hit the shared metrics once per chunk. `Ok(None)` only
    /// at end of the merged stream.
    pub fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Vec<Tuple>>> {
        let mut acc = 0;
        let mut out = Vec::new();
        while out.len() < max_rows.max(1) {
            match self.pop_smallest(&mut acc) {
                Ok(Some(t)) => out.push(t),
                Ok(None) => break,
                Err(e) => {
                    self.metrics.add_comparisons(acc);
                    return Err(e);
                }
            }
        }
        self.metrics.add_comparisons(acc);
        Ok(if out.is_empty() { None } else { Some(out) })
    }

    fn pop_smallest(&mut self, acc: &mut u64) -> Result<Option<Tuple>> {
        // Linear scan over ≤ fan-in heads: simple and cache-friendly for the
        // small fan-ins used here.
        let mut best: Option<usize> = None;
        for i in 0..self.runs.len() {
            let Some((ka, ta)) = &self.runs[i].head else {
                continue;
            };
            best = Some(match best {
                None => i,
                Some(b) => {
                    let (kb, tb) = self.runs[b].head.as_ref().expect("head is some");
                    let (ord, n) = self.key.compare_abbrev(*ka, ta, *kb, tb);
                    *acc += n;
                    if ord == Ordering::Less {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let Some(i) = best else { return Ok(None) };
        let (_, out) = self.runs[i].head.take().expect("winner has a head");
        self.runs[i].advance(&self.key)?;
        if self.runs[i].head.is_none() {
            // Run exhausted: free its pages.
            if let Some(f) = self.runs[i].file.take() {
                f.delete();
            }
        }
        Ok(Some(out))
    }
}

/// Output adapter for a fully in-memory sorted buffer.
pub struct InMemorySortStream {
    buf: Vec<Tuple>,
    pos: usize,
}

impl InMemorySortStream {
    /// Wraps an already-sorted buffer.
    pub fn new(sorted: Vec<Tuple>) -> Self {
        InMemorySortStream {
            buf: sorted,
            pos: 0,
        }
    }

    /// Next tuple of the sorted buffer (O(1) move-out, no clone).
    pub fn next_tuple(&mut self) -> Option<Tuple> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let t = std::mem::take(&mut self.buf[self.pos]);
        self.pos += 1;
        Some(t)
    }

    /// Next chunk of up to `max_rows` tuples; `None` at end of buffer. An
    /// untouched buffer that fits the chunk is handed over whole — zero
    /// copies, zero allocation — which is the common case for a
    /// partial-sort segment smaller than the batch size.
    pub fn next_chunk(&mut self, max_rows: usize) -> Option<Vec<Tuple>> {
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        let n = remaining.min(max_rows.max(1));
        if self.pos == 0 && n == self.buf.len() {
            return Some(std::mem::take(&mut self.buf));
        }
        let mut out = Vec::with_capacity(n);
        for slot in &mut self.buf[self.pos..self.pos + n] {
            out.push(std::mem::take(slot));
        }
        self.pos += n;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use pyro_common::Value;
    use pyro_storage::{IntoStore, SimDevice};

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn run_of(store: &StoreRef, vals: &[i64], m: &MetricsRef) -> TupleFile {
        write_run(store, vals.iter().map(|&v| t(v)), m).unwrap()
    }

    #[test]
    fn merge_two_runs() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        let r1 = run_of(&dev, &[1, 3, 5], &m);
        let r2 = run_of(&dev, &[2, 4, 6], &m);
        let mut ms = MergeStream::new(
            &dev,
            vec![r1, r2],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 128),
            m.clone(),
        )
        .unwrap();
        let mut out = Vec::new();
        while let Some(x) = ms.next_tuple().unwrap() {
            out.push(x.get(0).as_int().unwrap());
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.runs_created(), 2);
        assert!(m.run_pages_read() >= 2);
    }

    #[test]
    fn multipass_merge_with_tiny_fanin() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        // 7 runs but fan-in only 2 → intermediate passes required.
        let files: Vec<TupleFile> = (0..7)
            .map(|i| run_of(&dev, &[i, i + 10, i + 20], &m))
            .collect();
        let written_before = m.run_pages_written();
        let mut ms = MergeStream::new(
            &dev,
            files,
            KeySpec::new(vec![0]),
            SortBudget::new(3, 128), // fan_in = 2
            m.clone(),
        )
        .unwrap();
        let mut out = Vec::new();
        while let Some(x) = ms.next_tuple().unwrap() {
            out.push(x.get(0).as_int().unwrap());
        }
        assert_eq!(out.len(), 21);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            m.run_pages_written() > written_before,
            "intermediate passes must write new runs"
        );
    }

    #[test]
    fn exhausted_runs_free_pages() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        let r1 = run_of(&dev, &[1, 2], &m);
        let live_before = dev.live_pages();
        assert!(live_before > 0);
        let mut ms = MergeStream::new(
            &dev,
            vec![r1],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 128),
            m,
        )
        .unwrap();
        while ms.next_tuple().unwrap().is_some() {}
        assert_eq!(dev.live_pages(), 0);
    }

    #[test]
    fn empty_merge() {
        let dev = SimDevice::new().into_store();
        let m = ExecMetrics::new();
        let mut ms = MergeStream::new(
            &dev,
            vec![],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 4096),
            m,
        )
        .unwrap();
        assert!(ms.next_tuple().unwrap().is_none());
    }

    #[test]
    fn in_memory_stream() {
        let mut s = InMemorySortStream::new(vec![t(1), t(2)]);
        assert_eq!(s.next_tuple(), Some(t(1)));
        assert_eq!(s.next_tuple(), Some(t(2)));
        assert_eq!(s.next_tuple(), None);
    }
}
