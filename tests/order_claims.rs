//! Order-claim verification: every sort order the optimizer *claims* on the
//! root of a plan must actually hold on the produced stream, for every
//! strategy and query. This is the invariant that separates "the plan looks
//! like the paper's figure" from "the plan is correct" — and the test
//! pattern that exposed the merge-full-outer-join NULL-ordering bug during
//! development. All plans come through the `pyro::Session` front door.

use pyro::common::Value;
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::{Session, Strategy};

/// Executes `sql` under every strategy/hash combination and asserts the
/// stream is sorted by the root's claimed output order.
fn assert_order_claims(session: &mut Session, sql: &str) {
    for strategy in Strategy::all() {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            let plan = session.plan(sql).unwrap();
            let claimed = plan.root.out_order.clone();
            let schema = plan.root.schema.clone();
            let rows = plan.execute(session.catalog()).unwrap().rows;
            if claimed.is_empty() {
                continue;
            }
            let cols: Vec<usize> = claimed
                .attrs()
                .iter()
                .map(|a| {
                    schema
                        .index_of(a)
                        .unwrap_or_else(|_| panic!("claimed order attr {a} not in schema"))
                })
                .collect();
            let key = |t: &pyro::common::Tuple| -> Vec<Value> {
                cols.iter().map(|&c| t.get(c).clone()).collect()
            };
            for w in rows.windows(2) {
                assert!(
                    key(&w[0]) <= key(&w[1]),
                    "{} (hash={hash}) claimed {claimed} but stream violates it:\n{}\n vs\n{}\nplan:\n{}",
                    strategy.name(),
                    w[0],
                    w[1],
                    plan.explain()
                );
            }
        }
    }
}

#[test]
fn claims_hold_on_simple_order_by() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
    );
}

#[test]
fn claims_hold_on_query3() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
         GROUP BY ps_availqty, ps_partkey, ps_suppkey \
         HAVING sum(l_quantity) > ps_availqty \
         ORDER BY ps_partkey",
    );
}

#[test]
fn claims_hold_on_full_outer_joins() {
    // The regression case: FO merge joins interleaving NULL-padded rows.
    let mut session = Session::new();
    qtables::load_q4(session.catalog_mut(), 500).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT * FROM r1 FULL OUTER JOIN r2 \
         ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
         FULL OUTER JOIN r3 \
         ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5) \
         ORDER BY r1.c4, r1.c5",
    );
}

#[test]
fn claims_hold_on_consolidation_query() {
    let mut session = Session::new();
    consolidation::load(session.catalog_mut(), 2_000).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
         ORDER BY c1.make, c1.year, c1.color",
    );
}

#[test]
fn distinct_agrees_across_strategies_and_orders_hold() {
    let mut session = Session::new();
    qtables::load_basket_analytics(session.catalog_mut(), 2_000).unwrap();
    let sql = "SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange";
    assert_order_claims(&mut session, sql);
    // Result equality across strategies.
    let mut reference: Option<Vec<_>> = None;
    for strategy in [
        Strategy::pyro(),
        Strategy::pyro_p(),
        Strategy::pyro_o(),
        Strategy::pyro_e(),
    ] {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            let rows = session.sql(sql).unwrap().into_rows();
            // DISTINCT must actually deduplicate.
            let mut dedup = rows.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), rows.len(), "duplicates survived DISTINCT");
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(r, &rows),
            }
        }
    }
}

#[test]
fn distinct_exploits_clustering_via_sort_distinct() {
    // basket is clustered on (prodtype, symbol): a DISTINCT over exactly
    // those columns should stream off the clustered scan without any sort.
    let mut session = Session::builder().hash_operators(false).build();
    qtables::load_basket_analytics(session.catalog_mut(), 2_000).unwrap();
    let plan = session
        .plan("SELECT DISTINCT prodtype, symbol FROM basket")
        .unwrap();
    assert_eq!(
        plan.root.count_nodes(&|n| matches!(
            n.op,
            pyro::core::PhysOp::Sort { .. } | pyro::core::PhysOp::PartialSort { .. }
        )),
        0,
        "clustering satisfies the DISTINCT order:\n{}",
        plan.explain()
    );
    let result = session
        .sql("SELECT DISTINCT prodtype, symbol FROM basket")
        .unwrap();
    assert!(!result.is_empty());
}

#[test]
fn limit_truncates_and_preserves_order() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let rows = session
        .sql("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 50")
        .unwrap()
        .into_rows();
    assert_eq!(rows.len(), 50);
    let keys: Vec<(i64, i64)> = rows
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));

    // The Top-K must be the *global* minimum prefix, not an arbitrary 50.
    let all_rows = session
        .sql("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey")
        .unwrap()
        .into_rows();
    assert_eq!(&all_rows[..50], &rows[..]);
}

#[test]
fn top_k_via_mrs_reads_less() {
    // §3.1 benefit 2: with a partial sort in the pipeline, LIMIT stops after
    // the first segments — far fewer comparisons than draining everything.
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.02)).unwrap();
    let run = |sql: &str| {
        let result = session.sql(sql).unwrap();
        (result.len(), result.metrics().comparisons())
    };
    let (n_limited, cmp_limited) =
        run("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 100");
    let (n_full, cmp_full) =
        run("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey");
    assert_eq!(n_limited, 100);
    assert!(n_full > 10_000);
    assert!(
        cmp_limited * 10 < cmp_full,
        "Top-K should compare at least 10x less: {cmp_limited} vs {cmp_full}"
    );
}

/// Rows of `(k Double, v Int)` in `k`'s total order: two signed zeros (two
/// segments under `total_cmp`, one under f64 `==`) and two NaNs with the
/// same bits (one segment under `total_cmp`, two under `==`).
fn signed_zero_nan_rows() -> Vec<pyro::common::Tuple> {
    let d = |k: f64, v: i64| pyro::common::Tuple::new(vec![Value::Double(k), Value::Int(v)]);
    vec![
        d(-2.5, 4),
        d(-0.0, 5),
        d(-0.0, 2),
        d(0.0, 1),
        d(1.5, 7),
        d(f64::NAN, 9),
        d(f64::NAN, 3),
    ]
}

#[test]
fn partial_sort_agrees_with_full_sort_on_signed_zeros_and_nans() {
    use pyro::common::{Column, DataType, Schema};
    let schema = Schema::new(vec![
        Column::new("k", DataType::Double),
        Column::new("v", DataType::Int),
    ]);
    let rows = signed_zero_nan_rows();
    let mut session = Session::new();
    session
        .register_table("t", schema, pyro::SortOrder::new(["k"]), &rows)
        .unwrap();
    let mut expect = rows;
    expect.sort_by(|a, b| a.values().cmp(b.values()));
    let sql = "SELECT k, v FROM t ORDER BY k, v";
    let mut saw_partial_sort = false;
    for strategy in Strategy::all() {
        session.set_strategy(strategy);
        saw_partial_sort |= session.explain(sql).unwrap().contains("Partial Sort");
        let got = session.sql(sql).unwrap().into_rows();
        // Compare under `Ord`: NaN != NaN under `==`.
        assert!(
            got.len() == expect.len() && got.iter().zip(&expect).all(|(a, b)| a.cmp(b).is_eq()),
            "{}: {got:?}\n expected {expect:?}",
            strategy.name()
        );
    }
    assert!(saw_partial_sort, "no strategy planned a partial sort");
}
