//! Property-based tests over the core invariants.
//!
//! Offline builds cannot fetch `proptest`, so these run on a hand-rolled
//! driver: each property is checked over many deterministic pseudo-random
//! cases drawn from the workspace's own seeded PRNG
//! (`pyro::datagen::rng::StdRng`). The cases are fixed across runs, so any
//! failure reproduces exactly.

use pyro::common::{KeySpec, Schema, Tuple, Value};
use pyro::datagen::rng::StdRng;
use pyro::exec::agg::{AggExpr, AggFunc, GroupAggregate, HashAggregate};
use pyro::exec::join::{HashJoin, JoinKind, MergeJoin, NestedLoopsJoin};
use pyro::exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro::exec::{collect, ExecMetrics, Expr, ValuesOp};
use pyro::ordering::{benefit_of, path_order, two_approx_tree_order, AttrSet, JoinTree, SortOrder};
use pyro::storage::SimDevice;
use std::collections::BTreeSet;

const CASES: u64 = 64;

/// Runs `check` against `CASES` independently seeded generators.
fn for_all_cases(check: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ (case << 32));
        check(&mut rng);
    }
}

/// Random `(i64, i64)` pairs: up to `max_len` of them, components in
/// `0..hi0` / `0..hi1`.
fn pairs(rng: &mut StdRng, max_len: usize, hi0: i64, hi1: i64) -> Vec<(i64, i64)> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (rng.gen_range(0..hi0), rng.gen_range(0..hi1)))
        .collect()
}

fn tuples2(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

fn sorted_by(rows: &[Tuple], key: &KeySpec) -> bool {
    rows.windows(2)
        .all(|w| key.compare(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

/// SRS output = sorted permutation of the input, for any memory budget.
#[test]
fn srs_sorts_any_input() {
    for_all_cases(|rng| {
        let rows = pairs(rng, 400, 100, 100);
        let budget_blocks = rng.gen_range(3u64..20);
        let dev = SimDevice::with_block_size(256);
        let m = ExecMetrics::new();
        let data = tuples2(&rows);
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data.clone());
        let key = KeySpec::new(vec![0, 1]);
        let op = StandardReplacementSort::new(
            Box::new(src),
            key.clone(),
            dev,
            SortBudget::new(budget_blocks, 256),
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        assert!(sorted_by(&out, &key));
        let mut expect = data;
        expect.sort();
        let mut got = out;
        got.sort();
        assert_eq!(got, expect, "must be a permutation of the input");
    });
}

/// Sort-key edge values: signed zeros, NaNs and infinities; strings that
/// share 8-byte prefixes or hold NULs, multibyte characters or nothing;
/// NULL; the `i64` extremes; and `Int`s next to equal or adjacent
/// `Double`s, so one column mixes both.
fn edge_values() -> Vec<Value> {
    let mut pool = vec![
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(f64::NAN),
        Value::Double(-f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(f64::NEG_INFINITY),
        Value::Double(1.0),
        Value::Double(2.5),
        Value::Int(1),
        Value::Int(2),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Null,
    ];
    for s in [
        "",
        "\0",
        "a\0b",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghij",
        "abcdefghik",
        "abcdefg\u{e9}",
        "\u{1F600}\u{1F600}x",
        "\u{1F600}\u{1F600}y",
    ] {
        pool.push(Value::Str(s.to_string()));
    }
    pool
}

/// Runs MRS (prefix `a`) and SRS over `data` — `(a, b, id)` rows already
/// sorted on `a` — and checks both against a std sort on `(a, b)`. Rows are
/// compared under `Ord` (NaN != NaN under `==`), and the unique `id`
/// column pins each output as a permutation of the input.
fn check_mrs_srs_std(data: Vec<Tuple>, budget_blocks: u64) {
    let key = KeySpec::new(vec![0, 1]);
    let schema = Schema::ints(&["a", "b", "id"]);
    let mrs_out = collect(Box::new(PartialSort::new(
        Box::new(ValuesOp::new(schema.clone(), data.clone())),
        key.clone(),
        1,
        SimDevice::with_block_size(256),
        SortBudget::new(budget_blocks, 256),
        ExecMetrics::new(),
    )))
    .unwrap();
    let srs_out = collect(Box::new(StandardReplacementSort::new(
        Box::new(ValuesOp::new(schema, data.clone())),
        key.clone(),
        SimDevice::with_block_size(256),
        SortBudget::new(budget_blocks, 256),
        ExecMetrics::new(),
    )))
    .unwrap();
    let mut expect = data;
    expect.sort_by(|x, y| key.compare(x, y));
    let ids = |rows: &[Tuple]| {
        let mut ids: Vec<i64> = rows.iter().map(|t| t.get(2).as_int().unwrap()).collect();
        ids.sort_unstable();
        ids
    };
    for (name, out) in [("MRS", &mrs_out), ("SRS", &srs_out)] {
        assert_eq!(out.len(), expect.len(), "{name} row count");
        for (got, want) in out.iter().zip(&expect) {
            assert!(
                key.compare(got, want).is_eq(),
                "{name}: {got} where the std sort has {want}"
            );
        }
        assert_eq!(ids(out), ids(&expect), "{name} is not a permutation");
    }
}

/// MRS on prefix-sorted input ≡ SRS ≡ std sort, for any budget: over `Int`
/// pairs, and over rows drawn from [`edge_values`].
#[test]
fn mrs_equals_srs_equals_std_sort() {
    for_all_cases(|rng| {
        let mut rows = pairs(rng, 400, 20, 100);
        let budget_blocks = rng.gen_range(3u64..20);
        rows.sort_by_key(|r| r.0); // establish the prefix order
        let data = rows
            .iter()
            .enumerate()
            .map(|(id, &(a, b))| {
                Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Int(id as i64)])
            })
            .collect();
        check_mrs_srs_std(data, budget_blocks);
    });
    let pool = edge_values();
    for_all_cases(|rng| {
        let len = rng.gen_range(0..=400usize);
        let budget_blocks = rng.gen_range(3u64..20);
        let mut data: Vec<Tuple> = (0..len)
            .map(|id| {
                let a = pool[rng.gen_range(0..pool.len())].clone();
                let b = pool[rng.gen_range(0..pool.len())].clone();
                Tuple::new(vec![a, b, Value::Int(id as i64)])
            })
            .collect();
        data.sort_by(|x, y| x.get(0).cmp(y.get(0))); // establish the prefix order
        check_mrs_srs_std(data, budget_blocks);
    });
}

/// Merge join ≡ hash join ≡ nested loops (inner, as multisets).
#[test]
fn joins_agree() {
    for_all_cases(|rng| {
        let mut left = pairs(rng, 80, 15, 50);
        let mut right = pairs(rng, 80, 15, 50);
        left.sort();
        right.sort();
        let lschema = Schema::ints(&["a", "b"]);
        let rschema = Schema::ints(&["c", "d"]);
        let key = KeySpec::new(vec![0]);

        let mj = MergeJoin::new(
            Box::new(ValuesOp::new(lschema.clone(), tuples2(&left))),
            Box::new(ValuesOp::new(rschema.clone(), tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::Inner,
            ExecMetrics::new(),
        );
        let hj = HashJoin::new(
            Box::new(ValuesOp::new(lschema.clone(), tuples2(&left))),
            Box::new(ValuesOp::new(rschema.clone(), tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::Inner,
        );
        let nl = NestedLoopsJoin::new(
            Box::new(ValuesOp::new(lschema, tuples2(&left))),
            Box::new(ValuesOp::new(rschema, tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::Inner,
        );
        let mut a = collect(Box::new(mj)).unwrap();
        let mut b = collect(Box::new(hj)).unwrap();
        let mut c = collect(Box::new(nl)).unwrap();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b);
        assert_eq!(a, c);
    });
}

/// Full outer joins agree between merge and nested loops.
#[test]
fn full_outer_joins_agree() {
    for_all_cases(|rng| {
        let mut left = pairs(rng, 60, 10, 50);
        let mut right = pairs(rng, 60, 10, 50);
        left.sort();
        right.sort();
        let key = KeySpec::new(vec![0]);
        let mj = MergeJoin::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&left))),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::FullOuter,
            ExecMetrics::new(),
        );
        let nl = NestedLoopsJoin::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&left))),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), tuples2(&right))),
            key.clone(),
            key,
            JoinKind::FullOuter,
        );
        let mut a = collect(Box::new(mj)).unwrap();
        let mut b = collect(Box::new(nl)).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}

/// Hash aggregate ≡ sort aggregate on the same grouping.
#[test]
fn aggregates_agree() {
    for_all_cases(|rng| {
        let len = rng.gen_range(0..=200usize);
        let mut rows: Vec<(i64, i64)> = (0..len)
            .map(|_| (rng.gen_range(0..12), rng.gen_range(-50i64..50)))
            .collect();
        let aggs = || {
            vec![
                AggExpr::new(AggFunc::Count, Expr::col(1), "c"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
                AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
            ]
        };
        let hash = HashAggregate::new(
            Box::new(ValuesOp::new(Schema::ints(&["g", "v"]), tuples2(&rows))),
            vec![0],
            aggs(),
        );
        rows.sort();
        let sortagg = GroupAggregate::new(
            Box::new(ValuesOp::new(Schema::ints(&["g", "v"]), tuples2(&rows))),
            vec![0],
            aggs(),
        );
        let mut a = collect(Box::new(hash)).unwrap();
        let mut b = collect(Box::new(sortagg)).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}

/// Distinct attribute names drawn from a contiguous alphabet range.
fn attr_sample(rng: &mut StdRng, alphabet: &[&str], max_len: usize) -> Vec<String> {
    let len = rng.gen_range(0..=max_len);
    let mut picked: Vec<String> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())].to_string())
        .collect();
    picked.sort();
    picked.dedup();
    picked
}

/// Order algebra laws: concat/minus inverse, lcp prefix bound,
/// prefix partial order.
#[test]
fn order_algebra_laws() {
    for_all_cases(|rng| {
        // Disjoint alphabets guarantee no dedup surprises in concat/minus.
        let a = attr_sample(rng, &["a", "b", "c", "d", "e", "f"], 5);
        let b = attr_sample(rng, &["g", "h", "i", "j", "k", "l"], 5);
        let oa = SortOrder::new(a);
        let ob = SortOrder::new(b);
        let cat = oa.concat(&ob);
        // (a + b) − a = b
        assert_eq!(cat.minus(&oa), Some(ob.clone()));
        // a ≤ a + b
        assert!(oa.is_prefix_of(&cat));
        // lcp is a prefix of both
        let l = oa.lcp(&ob);
        assert!(l.is_prefix_of(&oa));
        assert!(l.is_prefix_of(&ob));
        // lcp with itself is identity
        assert_eq!(oa.lcp(&oa), oa.clone());
        // set-restricted prefix really is within the set
        let set = ob.attr_set();
        let p = cat.lcp_with_set(&set);
        assert!(p.attrs().iter().all(|x| set.contains(x)));
    });
}

/// Non-empty random attribute set over a small alphabet.
fn attr_set(rng: &mut StdRng, alphabet: &[&str], max_len: usize) -> AttrSet {
    let len = rng.gen_range(1..=max_len);
    let set: BTreeSet<String> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())].to_string())
        .collect();
    AttrSet::from_iter(set)
}

/// The path DP's reported benefit always matches the realized benefit of
/// the permutations it emits, and is at least any single-alignment
/// baseline.
#[test]
fn path_order_sound() {
    for_all_cases(|rng| {
        let n = rng.gen_range(2..6usize);
        let attr_sets: Vec<AttrSet> = (0..n)
            .map(|_| attr_set(rng, &["a", "b", "c", "d", "e"], 3))
            .collect();
        let sol = path_order(&attr_sets);
        let realized: u64 = sol
            .orders
            .windows(2)
            .map(|w| w[0].lcp(&w[1]).len() as u64)
            .sum();
        assert_eq!(realized, sol.benefit, "DP benefit must be realizable");
        // permutations cover their sets
        for (s, o) in attr_sets.iter().zip(&sol.orders) {
            assert_eq!(&o.attr_set(), s);
        }
        // baseline: everyone uses the canonical order
        let baseline: u64 = attr_sets
            .windows(2)
            .map(|w| w[0].arbitrary_order().lcp(&w[1].arbitrary_order()).len() as u64)
            .sum();
        assert!(sol.benefit >= baseline);
    });
}

/// The tree 2-approximation achieves at least half of the exhaustive
/// optimum on small random trees.
#[test]
fn two_approx_bound() {
    for_all_cases(|rng| {
        let nodes = rng.gen_range(1..8usize);
        let mut tree = JoinTree::new();
        let mut ids: Vec<usize> = Vec::new();
        for _ in 0..nodes {
            let attrs = attr_set(rng, &["a", "b", "c", "d"], 3);
            if ids.is_empty() {
                ids.push(tree.add_root(attrs));
            } else {
                // pick a parent with < 2 children
                let candidates: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&v| tree.children(v).len() < 2)
                    .collect();
                let parent = candidates[rng.gen_range(0..100usize) % candidates.len()];
                ids.push(tree.add_child(parent, attrs));
            }
        }
        let approx = two_approx_tree_order(&tree);
        assert_eq!(benefit_of(&tree, &approx.orders), approx.benefit);
        let exact = pyro::ordering::exhaustive::exhaustive_tree_order(&tree);
        assert!(
            2 * approx.benefit >= exact.benefit,
            "2-approx bound violated: 2·{} < {}",
            approx.benefit,
            exact.benefit
        );
        assert!(
            approx.benefit <= exact.benefit,
            "approx cannot beat the optimum"
        );
    });
}

/// MRS never spills when every segment fits in the budget.
#[test]
fn mrs_zero_io_when_fitting() {
    for_all_cases(|rng| {
        let segments = rng.gen_range(1..20usize);
        let per_segment = rng.gen_range(1..20usize);
        let rows: Vec<(i64, i64)> = (0..segments)
            .flat_map(|s| (0..per_segment).map(move |i| (s as i64, (i * 31 % 17) as i64)))
            .collect();
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let op = PartialSort::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&rows))),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m.clone(),
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), rows.len());
        assert_eq!(m.run_io(), 0);
    });
}
