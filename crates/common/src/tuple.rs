//! Row representation and key extraction.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A row: a boxed slice of values positionally matching a
/// [`crate::Schema`].
///
/// `Default` is the empty (zero-arity) tuple; it allocates nothing, so
/// `std::mem::take` moves a tuple out of a buffer slot in O(1) — the trick
/// the batch-at-a-time sort streams use to emit without cloning.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate in-memory size in bytes; drives sort-memory budgeting so
    /// the replacement-selection heap respects the paper's `M` blocks.
    pub fn byte_size(&self) -> usize {
        // Box<[Value]> header + per-value payloads.
        16 + self.values.iter().map(Value::byte_size).sum::<usize>()
    }

    /// Extracts the values at `cols` as an owned key.
    pub fn key(&self, cols: &[usize]) -> Vec<Value> {
        let mut out = Vec::with_capacity(cols.len());
        self.key_into(cols, &mut out);
        out
    }

    /// Fills `out` (cleared first) with the values at `cols`. Reusing one
    /// buffer across calls avoids a fresh key allocation per tuple — the
    /// hash-join probe loop's hot path.
    pub fn key_into(&self, cols: &[usize], out: &mut Vec<Value>) {
        out.clear();
        out.extend(cols.iter().map(|&i| self.values[i].clone()));
    }

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Projects to the columns at `indices` (cloning values).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let mut v = Vec::with_capacity(indices.len());
        v.extend(indices.iter().map(|&i| self.values[i].clone()));
        Tuple::new(v)
    }

    /// Like [`Tuple::project`], but stages the values through a reusable
    /// `scratch` buffer before moving them into the output tuple's
    /// exact-capacity storage (the one allocation either variant makes).
    /// The staging step costs an extra O(arity) move, so this is about API
    /// symmetry with [`Tuple::key_into`] for callers that assemble values
    /// incrementally, not a speedup over `project`; the batched project
    /// operator uses it with one long-lived scratch.
    pub fn project_into(&self, indices: &[usize], scratch: &mut Vec<Value>) -> Tuple {
        scratch.clear();
        scratch.extend(indices.iter().map(|&i| self.values[i].clone()));
        // Move the staged values into exact-capacity storage, keeping the
        // scratch allocation alive for the next call.
        let mut out = Vec::with_capacity(scratch.len());
        out.append(scratch);
        Tuple::new(out)
    }

    /// An all-NULL tuple of the given arity (outer-join padding).
    pub fn nulls(arity: usize) -> Tuple {
        Tuple::new(vec![Value::Null; arity])
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A lexicographic comparison key: an ordered list of column positions.
///
/// The paper ignores ASC/DESC ("our techniques are applicable independent of
/// the sort direction"), and so do we — `KeySpec` always compares ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeySpec {
    cols: Vec<usize>,
}

impl KeySpec {
    /// Builds a key over the given column positions.
    pub fn new(cols: Vec<usize>) -> Self {
        KeySpec { cols }
    }

    /// The column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of key columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True iff the key is empty (every tuple compares equal).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Lexicographic comparison of two tuples under this key.
    ///
    /// Returns the ordering *and* does exactly as many [`Value`] comparisons
    /// as needed; callers that track comparison counts should use
    /// [`KeySpec::compare_counting`].
    pub fn compare(&self, a: &Tuple, b: &Tuple) -> Ordering {
        for &c in &self.cols {
            match a.get(c).cmp(b.get(c)) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Like [`KeySpec::compare`] but also reports how many scalar
    /// comparisons were performed — the statistic Experiment A1/A3 plots.
    pub fn compare_counting(&self, a: &Tuple, b: &Tuple) -> (Ordering, u64) {
        let mut n = 0;
        for &c in &self.cols {
            n += 1;
            match a.get(c).cmp(b.get(c)) {
                Ordering::Equal => continue,
                non_eq => return (non_eq, n),
            }
        }
        (Ordering::Equal, n)
    }

    /// The abbreviated key of `t`: an order-preserving 8-byte word of its
    /// leading key column (see [`AbbrevKey`]). An empty key abbreviates
    /// every tuple alike, so [`KeySpec::compare_abbrev`] always falls back.
    pub fn abbreviate(&self, t: &Tuple) -> AbbrevKey {
        let Some(&c) = self.cols.first() else {
            return AbbrevKey::NULL;
        };
        match t.get(c) {
            Value::Int(v) => AbbrevKey {
                word: (*v as u64) ^ SIGN_BIT,
                tag: AbbrevKey::INT,
            },
            Value::Double(v) => {
                // The `f64::total_cmp` transform: negative values flip every
                // bit, non-negative ones only the sign bit.
                let bits = v.to_bits();
                let word = if bits & SIGN_BIT != 0 {
                    !bits
                } else {
                    bits ^ SIGN_BIT
                };
                AbbrevKey {
                    word,
                    tag: AbbrevKey::DOUBLE,
                }
            }
            Value::Str(s) => {
                let bytes = s.as_bytes();
                let n = bytes.len().min(8);
                let mut prefix = [0u8; 8];
                prefix[..n].copy_from_slice(&bytes[..n]);
                AbbrevKey {
                    word: u64::from_be_bytes(prefix),
                    tag: AbbrevKey::STR,
                }
            }
            Value::Null => AbbrevKey::NULL,
        }
    }

    /// [`KeySpec::compare_counting`] with abbreviated keys: `ka` and `kb`
    /// must be [`KeySpec::abbreviate`] of `a` and `b` under this key.
    ///
    /// Different type ranks or different words under one tag decide the
    /// leading column alone — one scalar comparison, exactly as
    /// `compare_counting` would charge. Everything else (equal words, which
    /// strings longer than 8 bytes or NULLs may hide, and an `Int` against
    /// a `Double`) falls back to `compare_counting` on the tuples, so the
    /// `(Ordering, count)` pair equals `compare_counting(a, b)` by
    /// construction.
    #[inline]
    pub fn compare_abbrev(
        &self,
        ka: AbbrevKey,
        a: &Tuple,
        kb: AbbrevKey,
        b: &Tuple,
    ) -> (Ordering, u64) {
        if ka.tag == kb.tag {
            if ka.word != kb.word {
                return (ka.word.cmp(&kb.word), 1);
            }
        } else if ka.rank() != kb.rank() {
            return (ka.rank().cmp(&kb.rank()), 1);
        }
        self.compare_counting(a, b)
    }

    /// Stably sorts `buf` by this key and returns the scalar comparisons
    /// made — the same permutation and the same count as
    /// `buf.sort_by` over [`KeySpec::compare_counting`].
    ///
    /// The sort moves 16-byte `(word, index, tag)` entries rather than the
    /// rows, and most comparisons read only the entries' words; the rows
    /// are permuted into place once at the end. An entry is the size of a
    /// [`Tuple`] on purpose: the standard library's stable sort sizes its
    /// scratch and small-sort cut-offs from the element size, and only at
    /// equal sizes does it issue the very same comparison sequence — which
    /// is what keeps the charged count identical.
    pub fn sort_counting(&self, buf: &mut [Tuple]) -> u64 {
        if self.cols.is_empty() || buf.len() < 2 {
            // Every pair compares equal at zero cost; stable order is the
            // input order.
            return 0;
        }
        let mut entries: Vec<SortEntry> = buf
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let k = self.abbreviate(t);
                SortEntry {
                    word: k.word,
                    idx: u32::try_from(i).expect("sort buffer exceeds u32::MAX rows"),
                    tag: k.tag,
                }
            })
            .collect();
        let mut count = 0u64;
        let rows: &[Tuple] = buf;
        entries.sort_by(|x, y| {
            let (ord, n) = self.compare_abbrev(
                x.key(),
                &rows[x.idx as usize],
                y.key(),
                &rows[y.idx as usize],
            );
            count += n;
            ord
        });
        permute(buf, &mut entries);
        count
    }

    /// True iff `a` and `b` agree on every key column.
    pub fn eq_on(&self, a: &Tuple, b: &Tuple) -> bool {
        self.compare(a, b) == Ordering::Equal
    }

    /// Splits the key at `k`: `(prefix, suffix)` — used by the partial-sort
    /// operator which knows the first `k` columns are already sorted.
    pub fn split_at(&self, k: usize) -> (KeySpec, KeySpec) {
        let (p, s) = self.cols.split_at(k.min(self.cols.len()));
        (KeySpec::new(p.to_vec()), KeySpec::new(s.to_vec()))
    }

    /// True iff a run of tuples sorted by `self` is also sorted by `other`
    /// (i.e. `other` is a prefix of `self`).
    pub fn satisfies(&self, other: &KeySpec) -> bool {
        other.cols.len() <= self.cols.len() && self.cols[..other.cols.len()] == other.cols[..]
    }
}

const SIGN_BIT: u64 = 1 << 63;

/// An abbreviated sort key: a type tag and an order-preserving `u64` word
/// of a tuple's leading key column, built by [`KeySpec::abbreviate`].
///
/// * `Int`: the value with its sign bit flipped;
/// * `Double`: the `f64::total_cmp` bit transform;
/// * `Str`: the first 8 bytes, big-endian, zero-padded;
/// * `NULL`: a tag that ranks after every other one.
///
/// Under one tag, a smaller word means a smaller value; an equal word
/// decides nothing (strings may differ after byte 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbbrevKey {
    /// Order-preserving word of the leading key column.
    pub word: u64,
    /// Value kind of the leading key column.
    pub tag: u8,
}

impl AbbrevKey {
    const INT: u8 = 0;
    const DOUBLE: u8 = 1;
    const STR: u8 = 2;
    const NULL_TAG: u8 = 3;
    const NULL: AbbrevKey = AbbrevKey {
        word: 0,
        tag: AbbrevKey::NULL_TAG,
    };

    /// The cross-type rank of [`Value`]'s order: numbers (`INT` and
    /// `DOUBLE` share rank 0), then strings, then NULL.
    #[inline]
    fn rank(self) -> u8 {
        self.tag.max(Self::DOUBLE) - 1
    }
}

/// One row of [`KeySpec::sort_counting`]: its abbreviated key split around
/// the row index so the entry packs into 16 bytes.
struct SortEntry {
    word: u64,
    idx: u32,
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<SortEntry>() == std::mem::size_of::<Tuple>());

impl SortEntry {
    #[inline]
    fn key(&self) -> AbbrevKey {
        AbbrevKey {
            word: self.word,
            tag: self.tag,
        }
    }
}

/// Reorders `buf` in place so slot `i` holds the row `entries[i].idx`
/// named, following each permutation cycle once (entries are marked done
/// by pointing them at themselves).
fn permute(buf: &mut [Tuple], entries: &mut [SortEntry]) {
    for start in 0..entries.len() {
        if entries[start].idx as usize == start {
            continue;
        }
        let held = std::mem::take(&mut buf[start]);
        let mut slot = start;
        loop {
            let src = entries[slot].idx as usize;
            entries[slot].idx = slot as u32;
            if src == start {
                buf[slot] = held;
                break;
            }
            buf[slot] = std::mem::take(&mut buf[src]);
            slot = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn key_compare_lexicographic() {
        let k = KeySpec::new(vec![0, 1]);
        assert_eq!(k.compare(&t(&[1, 2]), &t(&[1, 3])), Ordering::Less);
        assert_eq!(k.compare(&t(&[2, 0]), &t(&[1, 9])), Ordering::Greater);
        assert_eq!(k.compare(&t(&[1, 2]), &t(&[1, 2])), Ordering::Equal);
    }

    #[test]
    fn key_compare_respects_column_order() {
        let k = KeySpec::new(vec![1, 0]);
        // compares col1 first
        assert_eq!(k.compare(&t(&[9, 1]), &t(&[0, 2])), Ordering::Less);
    }

    #[test]
    fn counting_stops_early() {
        let k = KeySpec::new(vec![0, 1, 2]);
        let (_, n) = k.compare_counting(&t(&[1, 0, 0]), &t(&[2, 0, 0]));
        assert_eq!(n, 1);
        let (_, n) = k.compare_counting(&t(&[1, 1, 1]), &t(&[1, 1, 1]));
        assert_eq!(n, 3);
    }

    #[test]
    fn split_and_satisfies() {
        let k = KeySpec::new(vec![3, 1, 2]);
        let (p, s) = k.split_at(1);
        assert_eq!(p.cols(), &[3]);
        assert_eq!(s.cols(), &[1, 2]);
        assert!(k.satisfies(&p));
        assert!(!p.satisfies(&k));
        assert!(k.satisfies(&KeySpec::default()));
    }

    #[test]
    fn tuple_ops() {
        let a = t(&[1, 2]);
        let b = t(&[3]);
        assert_eq!(a.concat(&b), t(&[1, 2, 3]));
        assert_eq!(a.project(&[1]), t(&[2]));
        assert_eq!(a.key(&[1, 0]), vec![Value::Int(2), Value::Int(1)]);
        assert!(Tuple::nulls(2).get(0).is_null());
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let a = t(&[7, 8, 9]);
        let mut scratch = Vec::new();
        assert_eq!(a.project_into(&[2, 0], &mut scratch), a.project(&[2, 0]));
        assert!(scratch.is_empty(), "scratch drained but reusable");
        // Second call reuses the buffer.
        assert_eq!(a.project_into(&[1], &mut scratch), t(&[8]));
        let mut key = Vec::new();
        a.key_into(&[1, 0], &mut key);
        assert_eq!(key, a.key(&[1, 0]));
        a.key_into(&[2], &mut key);
        assert_eq!(key, a.key(&[2]), "key_into clears before filling");
    }

    #[test]
    fn byte_size_grows_with_content() {
        assert!(t(&[1, 2, 3]).byte_size() > t(&[1]).byte_size());
    }

    /// Values whose abbreviations collide, tie or cross types: signed
    /// zeros, NaNs, infinities, strings sharing 8-byte prefixes or holding
    /// NULs and multibyte characters, NULL, the `i64` extremes, and `Int`s
    /// next to equal or adjacent `Double`s.
    fn abbrev_pool() -> Vec<Value> {
        let mut pool = vec![
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(1.0),
            Value::Double(-2.5),
            Value::Double(9007199254740992.0),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-3),
            Value::Int(9007199254740993),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Null,
        ];
        for s in [
            "",
            "\0",
            "a",
            "a\0",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghX",
            "abcdefghY",
            "abcdefg\u{e9}",
            "\u{1F600}\u{1F600}",
            "\u{1F600}\u{1F601}",
        ] {
            pool.push(Value::Str(s.to_string()));
        }
        pool
    }

    #[test]
    fn compare_abbrev_matches_compare_counting() {
        let pool = abbrev_pool();
        // Every pool value in every column position, over a few partners.
        let partners = [Value::Null, Value::Int(1), Value::Double(-0.0)];
        let mut rows = Vec::new();
        for (i, a) in pool.iter().enumerate() {
            for b in &pool {
                let c = partners[i % partners.len()].clone();
                rows.push(Tuple::new(vec![a.clone(), b.clone(), c]));
            }
        }
        let keys = [
            vec![0],
            vec![2],
            vec![0, 1],
            vec![1, 0],
            vec![0, 1, 2],
            vec![2, 1, 0],
        ];
        for cols in keys {
            let key = KeySpec::new(cols);
            let abbrevs: Vec<AbbrevKey> = rows.iter().map(|r| key.abbreviate(r)).collect();
            for (a, ka) in rows.iter().zip(&abbrevs) {
                for (b, kb) in rows.iter().zip(&abbrevs) {
                    assert_eq!(
                        key.compare_abbrev(*ka, a, *kb, b),
                        key.compare_counting(a, b),
                        "{a} vs {b} under {:?}",
                        key.cols()
                    );
                }
            }
        }
    }

    #[test]
    fn sort_counting_matches_sort_by_compare_counting() {
        let pool = abbrev_pool();
        let mut state = 0x5eed_u64;
        let mut pick = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for len in [0usize, 1, 2, 7, 20, 21, 33, 64, 200, 257, 1000, 4000] {
            for cols in [vec![0], vec![0, 1], vec![1, 0, 2], vec![]] {
                let key = KeySpec::new(cols);
                // Column 2 is a unique row id: it pins the exact stable
                // permutation, not merely an order-equal one.
                let rows: Vec<Tuple> = (0..len)
                    .map(|id| {
                        Tuple::new(vec![
                            pool[pick(pool.len())].clone(),
                            pool[pick(6)].clone(),
                            Value::Int(id as i64),
                        ])
                    })
                    .collect();
                let mut expect = rows.clone();
                let mut expect_count = 0u64;
                expect.sort_by(|a, b| {
                    let (ord, n) = key.compare_counting(a, b);
                    expect_count += n;
                    ord
                });
                let mut got = rows;
                let count = key.sort_counting(&mut got);
                assert_eq!(count, expect_count, "len {len} key {:?}", key.cols());
                let ids = |v: &[Tuple]| v.iter().map(|t| t.get(2).as_int()).collect::<Vec<_>>();
                assert_eq!(ids(&got), ids(&expect), "len {len} key {:?}", key.cols());
            }
        }
    }
}
