//! Serial-vs-parallel agreement: for every `gen` workload generator and
//! both fixpoint strategies, evaluation with 1, 2, and 4 worker threads
//! must produce the identical IDB (compared as `BTreeMap`-normalized
//! sorted-tuple maps) and identical workload counters.

use semrec::datalog::{Pred, Program, Value};
use semrec::engine::fxhash::hash_slice;
use semrec::engine::{Cutover, Database, Evaluator, Strategy, Tuple};
use semrec::gen::{fanout, genealogy, graphs, org, parse_scenario, university};
use std::collections::{BTreeMap, HashMap};

/// Evaluates and normalizes the full IDB into a deterministic map.
fn idb_map(
    db: &Database,
    prog: &Program,
    strategy: Strategy,
    threads: usize,
) -> (BTreeMap<Pred, Vec<Tuple>>, semrec::engine::Stats) {
    let mut ev = Evaluator::new(db, prog, strategy)
        .unwrap()
        .with_parallelism(threads);
    ev.run().unwrap();
    finish(ev)
}

/// Like [`idb_map`], but forces every round through the sharded pool
/// path with an explicit merge-shard count (Auto cutover would route
/// small rounds — or single-core machines — to the control thread and
/// the sharded merge would never execute).
fn idb_map_sharded(
    db: &Database,
    prog: &Program,
    threads: usize,
    shards: usize,
) -> (BTreeMap<Pred, Vec<Tuple>>, semrec::engine::Stats) {
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive)
        .unwrap()
        .with_parallelism(threads)
        .with_shards(shards)
        .with_cutover(Cutover::ForceParallel);
    ev.run().unwrap();
    let ps = ev.pool_stats();
    assert!(
        ps.parallel_rounds > 0,
        "ForceParallel must exercise the pool (shards={shards}): {ps:?}"
    );
    assert_eq!(ps.shards, shards, "shard override not honored: {ps:?}");
    finish(ev)
}

fn finish(ev: Evaluator<'_>) -> (BTreeMap<Pred, Vec<Tuple>>, semrec::engine::Stats) {
    let res = ev.finish();
    let map = res
        .idb
        .iter()
        .map(|(&p, rel)| (p, rel.sorted_tuples()))
        .collect();
    (map, res.stats)
}

fn workloads() -> Vec<(&'static str, Program, Database)> {
    let mut w = Vec::new();
    {
        let s = parse_scenario(org::PROGRAM);
        let db = org::generate(&org::OrgParams {
            employees: 120,
            seed: 11,
            ..org::OrgParams::default()
        });
        w.push(("org", s.program, db));
    }
    {
        let s = parse_scenario(university::PROGRAM);
        let db = university::generate(&university::UniversityParams {
            professors: 30,
            students: 80,
            chain_len: 4,
            seed: 12,
            ..university::UniversityParams::default()
        });
        w.push(("university", s.program, db));
    }
    {
        let s = parse_scenario(genealogy::PROGRAM);
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 3,
            depth: 4,
            branching: 3,
            seed: 13,
        });
        w.push(("genealogy", s.program, db));
    }
    {
        let s = parse_scenario(fanout::PROGRAM);
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 200,
            extra_edges: 300,
            fanout: 2,
            seed: 14,
        });
        w.push(("fanout", s.program, db));
    }
    {
        let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
            .parse()
            .unwrap();
        let db = graphs::random_digraph("e", 120, 400, 15);
        w.push(("random_digraph", prog, db));
    }
    w
}

#[test]
fn parallel_agrees_with_serial_on_all_generators() {
    for (name, prog, db) in workloads() {
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (base, base_stats) = idb_map(&db, &prog, strategy, 1);
            assert!(
                base.values().any(|rows| !rows.is_empty()),
                "{name}: workload derived nothing — test is vacuous"
            );
            for threads in [2, 4] {
                let (par, par_stats) = idb_map(&db, &prog, strategy, threads);
                assert_eq!(
                    base, par,
                    "{name} ({strategy:?}): IDB diverged at {threads} threads"
                );
                // Partitioning must not change the amount of work, only
                // where it runs.
                assert_eq!(
                    base_stats.derived, par_stats.derived,
                    "{name} ({strategy:?}): derived drifted at {threads} threads"
                );
                assert_eq!(
                    base_stats.rows_scanned, par_stats.rows_scanned,
                    "{name} ({strategy:?}): rows_scanned drifted at {threads} threads"
                );
                assert_eq!(
                    base_stats.inserted, par_stats.inserted,
                    "{name} ({strategy:?}): inserted drifted at {threads} threads"
                );
            }
        }
    }
}

/// Sharded-merge agreement: hash-partitioning the IDB tuple space into
/// K merge shards must not change the fixpoint. Pins IDB equality (and
/// work-counter invariance) across K ∈ {1, 2, 4, 8} against the serial
/// baseline on the genealogy and fanout generators.
#[test]
fn sharded_merge_agrees_across_shard_counts() {
    let mut targets = Vec::new();
    {
        let s = parse_scenario(genealogy::PROGRAM);
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 3,
            depth: 4,
            branching: 3,
            seed: 13,
        });
        targets.push(("genealogy", s.program, db));
    }
    {
        let s = parse_scenario(fanout::PROGRAM);
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 200,
            extra_edges: 300,
            fanout: 2,
            seed: 14,
        });
        targets.push(("fanout", s.program, db));
    }
    for (name, prog, db) in targets {
        let (base, base_stats) = idb_map(&db, &prog, Strategy::SemiNaive, 1);
        assert!(
            base.values().any(|rows| !rows.is_empty()),
            "{name}: workload derived nothing — test is vacuous"
        );
        for shards in [1usize, 2, 4, 8] {
            let (sharded, stats) = idb_map_sharded(&db, &prog, 4, shards);
            assert_eq!(base, sharded, "{name}: IDB diverged at K={shards} shards");
            assert_eq!(
                base_stats.derived, stats.derived,
                "{name}: derived drifted at K={shards}"
            );
            assert_eq!(
                base_stats.inserted, stats.inserted,
                "{name}: inserted drifted at K={shards}"
            );
            assert_eq!(
                base_stats.iterations, stats.iterations,
                "{name}: round count drifted at K={shards}"
            );
            // The shard drains pre-size their own table parts, so no
            // shard count may rehash mid-insert.
            assert_eq!(
                stats.dedup_regrows, 0,
                "{name}: mid-drain dedup regrows at K={shards}"
            );
        }
    }
}

/// Two distinct rows whose content hashes agree on the 32-bit
/// fingerprint half (the high bits every dedup-table slot stores) and
/// on the low two bits (the drain shard at K ≤ 4) land in the same
/// table part at the same probe start, so only the content comparison
/// can tell them apart. Found by a birthday search over two-int rows.
/// FxHash maps a dense grid of small ints almost linearly, which keeps
/// those 34 bits distinct there; coordinates scaled by two primes give
/// a twin within ~100k rows.
fn fingerprint_twins() -> (Tuple, Tuple) {
    let key = |h: u64| (h >> 32) << 2 | (h & 3);
    let mut seen: HashMap<u64, Tuple> = HashMap::new();
    for a in 0..2048i64 {
        for b in 0..2048i64 {
            let row = vec![Value::Int(a * 7919), Value::Int(b * 104_729)];
            let k = key(hash_slice(&row));
            match seen.get(&k) {
                Some(twin) => return (twin.clone(), row),
                None => {
                    seen.insert(k, row);
                }
            }
        }
    }
    panic!("no fingerprint twins among 4M rows");
}

/// Both fingerprint twins must survive the drain at every shard count,
/// and a duplicate of each — derived in the same round by a second rule
/// — must be rejected against its own twin, not the other one.
#[test]
fn fingerprint_twins_survive_the_drain_at_every_shard_count() {
    let (a, b) = fingerprint_twins();
    assert_ne!(a, b);
    let (ha, hb) = (hash_slice(&a), hash_slice(&b));
    assert_eq!(ha >> 32, hb >> 32, "twins share the fingerprint half");
    assert_eq!(ha & 3, hb & 3, "twins share the shard at K <= 4");
    let mut db = Database::new();
    for rel in ["e", "f"] {
        db.insert(rel, a.clone());
        db.insert(rel, b.clone());
    }
    let prog: Program = "t(X, Y) :- e(X, Y). t(X, Y) :- f(X, Y).".parse().unwrap();
    let mut want = vec![a, b];
    want.sort();
    for shards in [1usize, 2, 4] {
        let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive).unwrap();
        if shards > 1 {
            ev = ev
                .with_parallelism(shards)
                .with_shards(shards)
                .with_cutover(Cutover::ForceParallel);
        }
        ev.run().unwrap();
        ev.check_invariants().unwrap();
        let res = ev.finish();
        assert_eq!(res.stats.derived, 4, "K={shards}: each rule derives both");
        assert_eq!(res.stats.inserted, 2, "K={shards}: both twins, once each");
        assert_eq!(
            res.relation("t").unwrap().sorted_tuples(),
            want,
            "K={shards}: a twin was lost or duplicated"
        );
    }
}
