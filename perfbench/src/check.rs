//! Output checks: order-independent result fingerprints, ORDER BY checks,
//! and the per-repeat "same rows, same counters" rule.

use pyro::common::{Tuple, Value};
use pyro::exec::MetricsRef;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes one row by value (doubles by bit pattern), independent of the
/// process, so the same rows fingerprint identically in every run.
fn row_hash(row: &Tuple) -> u64 {
    let mut h = 0x51ed_270b_2f4e_1a33u64;
    for v in row.values() {
        h = match v {
            Value::Null => mix(h ^ 0x1),
            Value::Int(i) => mix(mix(h ^ 0x2) ^ *i as u64),
            Value::Double(d) => mix(mix(h ^ 0x3) ^ d.to_bits()),
            Value::Str(s) => {
                let mut g = mix(h ^ 0x4 ^ s.len() as u64);
                for chunk in s.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    g = mix(g ^ u64::from_le_bytes(word));
                }
                g
            }
        };
    }
    h
}

/// An order-independent summary of a row multiset: two results with equal
/// fingerprints hold the same rows with the same multiplicities (up to a
/// 128-bit hash collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: u64,
    sum: u64,
    sum_mixed: u64,
}

impl Fingerprint {
    pub fn of(rows: &[Tuple]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for row in rows {
            let h = row_hash(row);
            f.rows += 1;
            f.sum = f.sum.wrapping_add(h);
            f.sum_mixed = f.sum_mixed.wrapping_add(mix(h ^ 0x6a09_e667_f3bc_c908));
        }
        f
    }
}

/// True iff `rows` are in non-descending order on the columns `cols`
/// (the engine's value order, NULLs last).
pub fn is_ordered(rows: &[Tuple], cols: &[usize]) -> bool {
    rows.windows(2).all(|w| {
        for &c in cols {
            match w[0].get(c).cmp(w[1].get(c)) {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => {}
            }
        }
        true
    })
}

/// The paper's four execution counters: comparisons, run pages written,
/// run pages read, runs created.
pub type Counters = [u64; 4];

pub fn counters(m: &MetricsRef) -> Counters {
    [
        m.comparisons(),
        m.run_pages_written(),
        m.run_pages_read(),
        m.runs_created(),
    ]
}

/// What a query class must return every time: the reference multiset (from
/// an independent plan and execution path) and, once the first timed
/// repeat has run, its row count and counters.
#[derive(Debug, Clone)]
pub struct Expected {
    pub reference: Fingerprint,
    pub order_cols: Vec<usize>,
    pub first_counters: Option<Counters>,
}

impl Expected {
    /// Checks one result; `Err` describes the first mismatch.
    pub fn check(&mut self, rows: &[Tuple], c: Counters) -> Result<(), String> {
        let got = Fingerprint::of(rows);
        if got != self.reference {
            return Err(format!(
                "result multiset differs from the reference ({} rows, reference {})",
                got.rows, self.reference.rows
            ));
        }
        if !is_ordered(rows, &self.order_cols) {
            return Err(format!(
                "rows not in ORDER BY order on columns {:?}",
                self.order_cols
            ));
        }
        match self.first_counters {
            None => self.first_counters = Some(c),
            Some(first) if first != c => {
                return Err(format!(
                    "counters {c:?} differ from the first repeat's {first:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// Sorts rows into a canonical order, so two multisets compare with `==`.
pub fn canonical(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[i64]) -> Tuple {
        Tuple::new(v.iter().map(|&x| Value::Int(x)).collect())
    }

    #[test]
    fn fingerprint_is_order_independent_and_multiplicity_aware() {
        let a = [t(&[1, 2]), t(&[3, 4]), t(&[3, 4])];
        let b = [t(&[3, 4]), t(&[1, 2]), t(&[3, 4])];
        let c = [t(&[3, 4]), t(&[1, 2]), t(&[1, 2])];
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&c));
    }

    #[test]
    fn order_check_uses_the_listed_columns() {
        let rows = [t(&[1, 9]), t(&[1, 3]), t(&[2, 0])];
        assert!(is_ordered(&rows, &[0]));
        assert!(!is_ordered(&rows, &[0, 1]));
    }
}
