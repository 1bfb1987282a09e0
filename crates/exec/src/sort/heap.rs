//! The replacement-selection heap.
//!
//! A manual binary min-heap over `(run_number, tuple)` ordered first by run
//! number, then by sort key — so the entries of the *current* run always
//! surface before entries demoted to the next run, which is exactly what
//! replacement selection needs. Each entry carries the tuple's abbreviated
//! key, so most sift comparisons read one word instead of two rows. A
//! manual implementation (rather than `BinaryHeap`) lets every key
//! comparison be counted. Comparisons accumulate in a local counter per
//! `push`/`pop` and the caller charges the pipeline metrics in batches,
//! keeping the shared `Cell` out of the sift loops.

use crate::metrics::MetricsRef;
use pyro_common::{AbbrevKey, KeySpec, Tuple};
use std::cmp::Ordering;

/// One heap entry: the abbreviated key is split around the run number so
/// the entry packs into 32 bytes.
struct Entry {
    word: u64,
    run: u32,
    tag: u8,
    tuple: Tuple,
}

impl Entry {
    fn abbrev(&self) -> AbbrevKey {
        AbbrevKey {
            word: self.word,
            tag: self.tag,
        }
    }
}

/// Min-heap of `(run, tuple)` used by SRS.
pub(crate) struct RsHeap {
    data: Vec<Entry>,
    key: KeySpec,
    metrics: MetricsRef,
    /// Total `byte_size` of buffered tuples.
    bytes: usize,
    /// Comparisons performed but not yet charged to `metrics`.
    uncharged: u64,
}

impl RsHeap {
    pub(crate) fn new(key: KeySpec, metrics: MetricsRef) -> Self {
        RsHeap {
            data: Vec::new(),
            key,
            metrics,
            bytes: 0,
            uncharged: 0,
        }
    }

    /// Flushes locally accumulated comparison counts to the shared metrics.
    pub(crate) fn flush_comparisons(&mut self) {
        self.metrics.add_comparisons(self.uncharged);
        self.uncharged = 0;
    }

    /// Test/diagnostic accessors — replacement selection itself only needs
    /// push/pop/peek_run (the heap's population stays constant during the
    /// emit-refill cycle).
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    #[allow(dead_code)]
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[allow(dead_code)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    fn less(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.data[i], &self.data[j]);
        match a.run.cmp(&b.run) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                let (ord, n) = self
                    .key
                    .compare_abbrev(a.abbrev(), &a.tuple, b.abbrev(), &b.tuple);
                self.uncharged += n;
                ord == Ordering::Less
            }
        }
    }

    /// Adds `tuple` to `run`; `abbrev` must be its abbreviated key under
    /// the heap's key.
    pub(crate) fn push(&mut self, run: u32, abbrev: AbbrevKey, tuple: Tuple) {
        self.bytes += tuple.byte_size();
        self.data.push(Entry {
            word: abbrev.word,
            run,
            tag: abbrev.tag,
            tuple,
        });
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// The run number of the minimum entry.
    pub(crate) fn peek_run(&self) -> Option<u32> {
        self.data.first().map(|e| e.run)
    }

    /// Removes the minimum entry: its run, abbreviated key and tuple.
    pub(crate) fn pop(&mut self) -> Option<(u32, AbbrevKey, Tuple)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let out = self.data.pop().expect("non-empty");
        self.bytes -= out.tuple.byte_size();
        // sift down
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.data.len() && self.less(l, smallest) {
                smallest = l;
            }
            if r < self.data.len() && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.data.swap(i, smallest);
            i = smallest;
        }
        Some((out.run, out.abbrev(), out.tuple))
    }
}

impl Drop for RsHeap {
    fn drop(&mut self) {
        // Never lose counted comparisons, even on early teardown.
        self.flush_comparisons();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use pyro_common::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn push(h: &mut RsHeap, run: u32, tuple: Tuple) {
        let k = h.key.abbreviate(&tuple);
        h.push(run, k, tuple);
    }

    fn pop(h: &mut RsHeap) -> Option<(u32, Tuple)> {
        h.pop().map(|(run, _, tuple)| (run, tuple))
    }

    #[test]
    fn pops_in_run_then_key_order() {
        let m = ExecMetrics::new();
        let mut h = RsHeap::new(KeySpec::new(vec![0]), m.clone());
        push(&mut h, 1, t(1)); // next run, smallest key
        push(&mut h, 0, t(9)); // current run, larger key
        push(&mut h, 0, t(5));
        assert_eq!(h.peek_run(), Some(0));
        assert_eq!(pop(&mut h).unwrap(), (0, t(5)));
        assert_eq!(pop(&mut h).unwrap(), (0, t(9)));
        assert_eq!(pop(&mut h).unwrap(), (1, t(1)));
        assert!(pop(&mut h).is_none());
        h.flush_comparisons();
        assert!(m.comparisons() > 0);
    }

    #[test]
    fn drop_flushes_uncharged_comparisons() {
        let m = ExecMetrics::new();
        {
            let mut h = RsHeap::new(KeySpec::new(vec![0]), m.clone());
            for v in [5i64, 3, 8, 1] {
                push(&mut h, 0, t(v));
            }
            assert_eq!(m.comparisons(), 0, "charged only on flush/drop");
        }
        assert!(m.comparisons() > 0, "drop flushed the local counter");
    }

    #[test]
    fn byte_tracking() {
        let m = ExecMetrics::new();
        let mut h = RsHeap::new(KeySpec::new(vec![0]), m);
        assert_eq!(h.bytes(), 0);
        push(&mut h, 0, t(1));
        let b1 = h.bytes();
        assert!(b1 > 0);
        push(&mut h, 0, t(2));
        assert!(h.bytes() > b1);
        pop(&mut h);
        pop(&mut h);
        assert_eq!(h.bytes(), 0);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn random_order_drains_sorted() {
        let m = ExecMetrics::new();
        let mut h = RsHeap::new(KeySpec::new(vec![0]), m);
        for v in [5i64, 3, 8, 1, 9, 2, 7] {
            push(&mut h, 0, t(v));
        }
        let mut out = Vec::new();
        while let Some((_, tu)) = pop(&mut h) {
            out.push(tu.get(0).as_int().unwrap());
        }
        assert_eq!(out, vec![1, 2, 3, 5, 7, 8, 9]);
    }
}
