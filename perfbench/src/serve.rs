//! The serve workload: `serve_write`.
//!
//! It runs an in-process `semrec_serve::Server` with the default
//! configuration and a write-ahead log in the run's scratch directory,
//! over a guarded-reachability EDB of about one million `reach` rows.
//! Clients speak the line protocol through `Connection::handle_line`,
//! so request parsing and reply rendering are in the measured path.

use crate::machine::peak_rss_mb;
use crate::report::Report;
use crate::stats::{highest_tail, median, quantile, sorted, MIN_BEYOND};
use crate::trace::Tracer;
use crate::zipf::Zipf;
use crate::{scratch_dir, Args};
use semrec_core::{MaintainedQuery, OptimizerConfig};
use semrec_datalog::parser::{parse_atom, parse_unit, Unit};
use semrec_datalog::{Atom, Pred, Term, Value};
use semrec_engine::{
    answer_goal, evaluate, tx_to_stream, Budget, Database, Relation, Strategy, Tuning, Tx,
};
use semrec_gen::export::to_dl;
use semrec_gen::rng::Rng;
use semrec_gen::{fanout, parse_scenario};
use semrec_serve::protocol::render_fact;
use semrec_serve::{
    relation_stamp, AnswerCache, Connection, EpochRegistry, EpochState, GoalShape, Response,
    ServeConfig, Server,
};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Graph size: 1000 nodes, 500 extra edges, 16 witnesses per node.
const NODES: usize = 1000;
const EXTRA_EDGES: usize = 500;
const FANOUT: usize = 16;
/// Set-ups before the script, and as many again after it; `setup_s`
/// is the median of all of them.
const SETUPS: usize = 3;
/// Leaf nodes the writers add are numbered from here, clear of the
/// generated graph's nodes.
const FRESH_NODE: i64 = 1_000_000;

/// Zipf exponent over the 3000-goal universe ([`goal_universe`]):
/// more shapes than the 1024-entry answer cache holds, while the hot
/// head fits.
const ZIPF_S: f64 = 1.0;
/// Reads the traced run replays through the read layers.
const READ_SAMPLE: usize = 4000;
/// `serve_write`: a fixed script of this many transactions, split over
/// two closed-loop writer connections.
const SCRIPT_TXS: usize = 240;
/// Every this many transactions of a writer, one deletes a leaf edge
/// the same writer inserted earlier.
const DELETE_EVERY: usize = 10;

/// The generated serve input: the unit text (rules, IC and facts).
fn serve_text(seed: u64) -> String {
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: NODES,
        extra_edges: EXTRA_EDGES,
        fanout: FANOUT,
        seed,
    });
    to_dl(&parse_scenario(fanout::PROGRAM), Some(&db))
}

/// A live server, how long it took to set up, and its parsed unit.
struct Opened {
    server: Arc<Server>,
    unit: Unit,
    setup_s: f64,
    parse_s: f64,
    replayed: usize,
}

/// Parses the unit text, opens the server on `wal`, and answers one
/// read: the span a user waits before the daemon serves.
fn open(text: &str, wal: &Path) -> Result<Opened, String> {
    let start = Instant::now();
    let unit = parse_unit(text).map_err(|e| format!("unit text: {e}"))?;
    let parse_s = start.elapsed().as_secs_f64();
    let (server, recovery) = Server::open(&unit, ServeConfig::default(), Some(wal))
        .map_err(|e| format!("Server::open: {e}"))?;
    let mut conn = Connection::new(Arc::clone(&server));
    read_reply(&conn.handle_line("query reach(0, Y).")).map_err(|e| format!("first read: {e}"))?;
    Ok(Opened {
        server,
        unit,
        setup_s: start.elapsed().as_secs_f64(),
        parse_s,
        replayed: recovery.replayed_commits,
    })
}

/// Set-up times: whole set-ups, and the unit parse within each.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    parse_s: Vec<f64>,
}

/// Opens a fresh server in `server<k>` for each `k` in `ks`, in turn,
/// and keeps the last.
fn setup(
    text: &str,
    dir: &Path,
    ks: std::ops::Range<usize>,
    times: &mut SetupTimes,
) -> Result<Opened, String> {
    let mut last = None;
    for k in ks {
        drop(last.take());
        let d = dir.join(format!("server{k}"));
        std::fs::create_dir_all(&d).map_err(|e| e.to_string())?;
        let o = open(text, &d.join("wal"))?;
        times.setup_s.push(o.setup_s);
        times.parse_s.push(o.parse_s);
        last = Some(o);
    }
    last.ok_or_else(|| "no set-up".to_string())
}

fn header_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

/// Checks a read reply's framing — `ok epoch=E … rows=N`, N facts,
/// `end` — and returns the rendered facts.
fn read_reply(resp: &Response) -> Result<Vec<String>, String> {
    let Response::Lines(lines) = resp else {
        return Err(format!("no reply lines: {resp:?}"));
    };
    let head = lines.first().map_or("", String::as_str);
    let bad = || format!("bad reply header {head:?}");
    if !head.starts_with("ok ") {
        return Err(bad());
    }
    header_field(head, "epoch")
        .and_then(|e| e.parse::<u64>().ok())
        .ok_or_else(bad)?;
    let rows: usize = header_field(head, "rows")
        .and_then(|e| e.parse().ok())
        .ok_or_else(bad)?;
    if lines.len() != rows + 2 || lines.last().map(String::as_str) != Some("end") {
        return Err(format!("reply framing: {rows} rows"));
    }
    Ok(lines[1..=rows].to_vec())
}

/// Sends one transaction's lines; returns the commit epoch.
fn commit_lines(conn: &mut Connection, tx: &Tx) -> Result<u64, String> {
    let stream = tx_to_stream(tx);
    let mut reply = Response::None;
    for line in stream.lines() {
        reply = conn.handle_line(line);
    }
    match &reply {
        Response::Lines(l) if l.len() == 1 && l[0].starts_with("ok epoch=") => {
            header_field(&l[0], "epoch")
                .and_then(|e| e.parse().ok())
                .ok_or_else(|| format!("bad commit reply {:?}", l[0]))
        }
        other => Err(format!("commit failed: {other:?}")),
    }
}

/// A fresh leaf edge `a → b` with a witness for `b`.
fn leaf_insert(rng: &mut Rng, b: i64) -> (Tx, (i64, i64)) {
    let a = rng.gen_range(0..NODES as i64);
    let mut tx = Tx::new();
    tx.insert("edge", vec![Value::Int(a), Value::Int(b)]);
    tx.insert("witness", vec![Value::Int(b), Value::Int(b * 1000)]);
    (tx, (a, b))
}

fn leaf_delete(edge: (i64, i64)) -> Tx {
    let mut tx = Tx::new();
    tx.delete("edge", vec![Value::Int(edge.0), Value::Int(edge.1)]);
    tx
}

/// One acknowledged commit: its epoch, transaction and edge change.
#[derive(Clone)]
struct Acked {
    epoch: u64,
    tx: Tx,
    latency_ms: f64,
    is_delete: bool,
}

/// The read goal universe, hottest first. Kinds interleave by rank —
/// `reach(x, Y)`, `reach(X, y)`, `reach(x, y)` — so every seed sends
/// the same mix of answer sizes; the seed picks the nodes.
fn goal_universe(seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0060_A15E);
    let mut xs: Vec<usize> = (0..NODES).collect();
    let mut ys: Vec<usize> = (0..NODES).collect();
    rng.shuffle(&mut xs);
    rng.shuffle(&mut ys);
    let mut goals = Vec::with_capacity(3 * NODES);
    for (&x, &y) in xs.iter().zip(&ys) {
        goals.push(format!("query reach({x}, Y)."));
        goals.push(format!("query reach(X, {y})."));
        let (a, b) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        goals.push(format!("query reach({a}, {b})."));
    }
    goals
}

/// The traced run's reads: [`READ_SAMPLE`] goals drawn Zipf-skewed
/// from [`goal_universe`].
fn read_sample(seed: u64) -> Vec<String> {
    let universe = goal_universe(seed);
    let zipf = Zipf::new(universe.len(), ZIPF_S);
    let mut rng = Rng::seed_from_u64(seed ^ 0x2EAD);
    (0..READ_SAMPLE)
        .map(|_| universe[zipf.sample(&mut rng)].clone())
        .collect()
}

/// The generated EDB with `txs` applied serially, in order.
fn replayed_edb(unit: &Unit, txs: &[&Tx]) -> Database {
    let mut db = Database::from_facts(&unit.facts);
    for tx in txs {
        for (p, ts) in tx.deletes() {
            for t in ts {
                db.delete(*p, t);
            }
        }
        for (p, ts) in tx.inserts() {
            for t in ts {
                db.insert(*p, t.clone());
            }
        }
    }
    db
}

/// The reference: the original program evaluated from scratch on the
/// generated EDB with `txs` applied in commit order.
fn reference(unit: &Unit, txs: &[&Tx]) -> Result<Relation, String> {
    let db = replayed_edb(unit, txs);
    let res = evaluate(&db, &unit.program(), Strategy::SemiNaive).map_err(|e| e.to_string())?;
    res.idb
        .get(&Pred::new("reach"))
        .cloned()
        .ok_or_else(|| "reference has no reach".to_string())
}

fn reference_answer(rel: &Relation, goal: &Atom) -> Vec<String> {
    let mut tuples = answer_goal(rel, goal, rel.all_rows());
    tuples.sort();
    tuples.iter().map(|t| render_fact(goal.pred, t)).collect()
}

/// Resident bytes of every retained epoch, shared relations once.
fn resident_mb(server: &Server) -> f64 {
    let reg = server.registry();
    let mut seen = HashSet::new();
    let mut bytes = 0u64;
    for e in reg.oldest()..=reg.latest().epoch {
        if let Ok(state) = reg.pin(Some(e)) {
            for rel in state.rels.values() {
                if seen.insert(Arc::as_ptr(rel)) {
                    bytes += rel.estimated_bytes();
                }
            }
        }
    }
    bytes as f64 / (1024.0 * 1024.0)
}

/// States the sample count and the highest percentile it supports.
fn tail_note(n: usize) -> String {
    format!(
        "{n} latency samples; highest percentile with {MIN_BEYOND} beyond: p{}",
        highest_tail(n, MIN_BEYOND).map_or(0.0, |q| q * 100.0)
    )
}

/// One writer's script: leaf inserts, and every [`DELETE_EVERY`]th
/// transaction a delete of one of this writer's earlier leaf edges.
fn writer_script(seed: u64, writer: usize, len: usize) -> Vec<(Tx, bool)> {
    let mut rng = Rng::seed_from_u64(seed ^ (0xC0FFEE + writer as u64));
    let mut live: Vec<(i64, i64)> = Vec::new();
    let mut script = Vec::with_capacity(len);
    for i in 0..len {
        if i % DELETE_EVERY == DELETE_EVERY - 1 && !live.is_empty() {
            let k = rng.gen_range(0..live.len());
            script.push((leaf_delete(live.swap_remove(k)), true));
        } else {
            let b = FRESH_NODE + (writer * len + i) as i64;
            let (tx, edge) = leaf_insert(&mut rng, b);
            live.push(edge);
            script.push((tx, false));
        }
    }
    script
}

/// Runs `serve_write`.
pub fn serve_write(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = scratch_dir(args)?;
    let text = serve_text(args.seed);
    let mut times = SetupTimes::default();
    let opened = setup(&text, &dir, 0..SETUPS, &mut times)?;
    let server = Arc::clone(&opened.server);
    let scripts: Vec<Vec<(Tx, bool)>> = (0..2)
        .map(|w| writer_script(args.seed, w, SCRIPT_TXS / 2))
        .collect();

    let before = server.stats();
    let start = Instant::now();
    let results: Vec<Result<Vec<Acked>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    let mut conn = Connection::new(server);
                    let mut acked = Vec::new();
                    for (tx, is_delete) in script {
                        let t0 = Instant::now();
                        let epoch = commit_lines(&mut conn, tx)?;
                        acked.push(Acked {
                            epoch,
                            tx: tx.clone(),
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            is_delete: *is_delete,
                        });
                    }
                    Ok(acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = server.stats();
    let mut acked: Vec<Acked> = Vec::new();
    for r in results {
        acked.extend(r?);
    }
    acked.sort_by_key(|a| a.epoch);
    let lat = sorted(acked.iter().map(|a| a.latency_ms).collect());
    report.note(tail_note(lat.len()));
    report.note(format!(
        "commit ms deciles: {:?}",
        (1..10)
            .map(|d| (quantile(&lat, f64::from(d) / 10.0) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    report.set("latency_ms_p50", quantile(&lat, 0.5));
    report.set("latency_ms_tail", quantile(&lat, 0.9));
    report.set("throughput_per_s", acked.len() as f64 / wall);
    report.set(
        "server.batch_size",
        (after.batched_txs - before.batched_txs) as f64
            / (after.batches - before.batches).max(1) as f64,
    );
    report.set("epoch.resident_mb", resident_mb(&server));
    report.note(format!(
        "{} commits ({} deletes) in {wall:.2} s over {} batches",
        acked.len(),
        acked.iter().filter(|a| a.is_delete).count(),
        after.batches - before.batches
    ));
    report.attempted = SCRIPT_TXS as u64;
    report.failed = SCRIPT_TXS as u64 - acked.len() as u64;

    // Recovery: drop the server, reopen from its WAL, and check that
    // exactly the acknowledged commits are visible.
    let wal = dir.join(format!("server{}", SETUPS - 1)).join("wal");
    drop(server);
    drop(opened.server);
    let reopened = open(&text, &wal)?;
    // Before the checks below, whose reference evaluation is not the
    // workload's memory.
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("server.recovery_s", reopened.setup_s);
    report.set(
        "wal.replay_ms_per_commit",
        reopened.setup_s * 1e3 / reopened.replayed.max(1) as f64,
    );
    report.note(format!(
        "recovery replayed {} commits in {:.2} s",
        reopened.replayed, reopened.setup_s
    ));
    let mut wrong = Vec::new();
    if reopened.replayed != acked.len() {
        wrong.push(format!(
            "recovery replayed {} commits, {} were acknowledged",
            reopened.replayed,
            acked.len()
        ));
    }
    let txs: Vec<&Tx> = acked.iter().map(|a| &a.tx).collect();
    let expected_db = replayed_edb(&reopened.unit, &txs);
    let edge_goal = parse_atom("edge(X, Y)").expect("goal parses");
    let got: Vec<Vec<Value>> = reopened
        .server
        .query(&edge_goal, None, None)
        .map_err(|e| e.to_string())?
        .tuples;
    let want = expected_db
        .get(Pred::new("edge"))
        .map(|r| r.sorted_tuples())
        .unwrap_or_default();
    if got != want {
        wrong.push(format!(
            "recovered edge set has {} rows, expected {}",
            got.len(),
            want.len()
        ));
    }
    let reference = reference(&reopened.unit, &txs)?;
    let mut conn = Connection::new(Arc::clone(&reopened.server));
    for a in acked.iter().step_by(4) {
        let (p, ts) =
            a.tx.inserts()
                .iter()
                .next()
                .or(a.tx.deletes().iter().next())
                .expect("non-empty tx");
        debug_assert_eq!(p.name(), "edge");
        let from = ts[0][0];
        let goal = Atom::new(Pred::new("reach"), vec![Term::Const(from), Term::var("Y")]);
        let line = format!("query {goal}.");
        match read_reply(&conn.handle_line(&line)) {
            Ok(facts) if facts == reference_answer(&reference, &goal) => {}
            Ok(_) => wrong.push(format!("recovered answer to {goal} differs from replay")),
            Err(e) => wrong.push(format!("recovered read {goal}: {e}")),
        }
    }
    report.correct = wrong.is_empty();
    for w in &wrong {
        report.note(format!("wrong: {w}"));
    }
    report.set(
        "run.failed_frac",
        report.failed as f64 / report.attempted as f64,
    );

    let mut tracer = Tracer::new(args.trace);
    if args.trace {
        let reads = replay_reads(
            &reopened.server,
            &read_sample(args.seed),
            &mut tracer,
            &mut report,
        )?;
        report.note(format!(
            "tracing overhead on the replayed reads: {reads:.3}"
        ));
    }
    let unit = reopened.unit;
    drop(conn);
    drop(reopened.server);
    if args.trace {
        if let Some(o) = replay_commits(&unit, &acked, &dir, &mut tracer, &mut report)? {
            report.set("trace.overhead_frac", o);
        }
        let commit_ms = median(
            &acked
                .iter()
                .filter(|a| !a.is_delete)
                .map(|a| a.latency_ms)
                .collect::<Vec<_>>(),
        );
        let apply_ms = report
            .values
            .get("maintain.insert_ms")
            .copied()
            .unwrap_or(0.0);
        report.set("server.commit_other_ms", commit_ms - apply_ms);
        report.set("trace.unattributed_frac", tracer.unattributed_frac());
    }
    // As many set-ups again after the run, so `setup_s` samples the
    // machine at both ends of it rather than in one burst.
    setup(&text, &dir, SETUPS..2 * SETUPS, &mut times)?;
    report.set("setup_s", median(&times.setup_s));
    report.set("parser.edb_load_s", median(&times.parse_s));
    crate::write_trace(args, &tracer)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Every relation a maintained query exposes: EDB, then IDB.
fn live(q: &MaintainedQuery) -> impl Iterator<Item = (Pred, &Relation)> {
    q.db().iter().chain(q.idb().iter().map(|(&p, r)| (p, r)))
}

/// Traced run: replays the acknowledged commits in epoch order against
/// the layer functions `Server::commit` runs as one call — WAL append
/// and sync on a scratch log, `MaintainedQuery::apply` on a replica,
/// and the copy-on-write publish. Commits alternate between recorded
/// and unrecorded; returns the tracing overhead, the median ratio of a
/// recorded insert commit to the unrecorded insert commit after it.
fn replay_commits(
    unit: &Unit,
    acked: &[Acked],
    dir: &Path,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<Option<f64>, String> {
    let mut q = MaintainedQuery::new_tuned(
        Database::from_facts(&unit.facts),
        &unit.program(),
        &unit.constraints,
        OptimizerConfig::default(),
        Tuning::default(),
    )
    .map_err(|e| e.to_string())?;
    let seed = EpochState {
        epoch: 0,
        route: q.route(),
        rels: BTreeMap::new(),
    };
    let registry = EpochRegistry::new(seed.cow_successor(0, q.route(), live(&q)), 8);
    let (mut wal, _) =
        semrec_serve::Wal::open(&dir.join("replay.wal")).map_err(|e| e.to_string())?;
    let mut insert_ms = Vec::new();
    let mut delete_ms = Vec::new();
    let mut insert_wall: Vec<Option<f64>> = Vec::with_capacity(acked.len());
    let (mut over_deleted, mut rederived, mut from_scratch, mut replans) = (0u64, 0u64, 0u64, 0u64);
    let (mut append_ns, mut sync_ns, mut publish_ns) = (0u64, 0u64, 0u64);
    let on = t.on();
    for (i, a) in acked.iter().enumerate() {
        let record = i % 2 == 0;
        t.set_on(on && record);
        let start = Instant::now();
        t.begin("commit");
        let payload = tx_to_stream(&a.tx);
        let t0 = Instant::now();
        t.time("wal.append", || wal.append_record(&payload))
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        t.time("wal.sync", || wal.sync())
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let outcome = t
            .time("maintain.apply", || {
                q.apply(&a.tx, Budget::unlimited(), None)
            })
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        t.time("epoch.publish", || {
            let prev = registry.latest();
            registry.publish(prev.cow_successor(i as u64 + 1, outcome.route, live(&q)))
        })
        .map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        t.end();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        append_ns += (t1 - t0).as_nanos() as u64;
        sync_ns += (t2 - t1).as_nanos() as u64;
        publish_ns += (t4 - t3).as_nanos() as u64;
        let apply_ms = (t3 - t2).as_secs_f64() * 1e3;
        if a.is_delete {
            delete_ms.push(apply_ms);
            insert_wall.push(None);
        } else {
            insert_ms.push(apply_ms);
            insert_wall.push(Some(wall_ms));
        }
        over_deleted += outcome.stats.over_deleted;
        rederived += outcome.stats.rederived;
        from_scratch += u64::from(outcome.stats.from_scratch);
        replans += u64::from(outcome.replanned);
    }
    t.set_on(on);
    let n = acked.len().max(1) as f64;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    report.set("maintain.insert_ms", mean(&insert_ms));
    report.set("maintain.delete_ms", mean(&delete_ms));
    report.set("maintain.over_deleted", over_deleted as f64 / n);
    report.set("maintain.rederived", rederived as f64 / n);
    report.set("maintain.from_scratch", from_scratch as f64);
    report.set("maintain.replans", replans as f64);
    report.set("wal.append_us", append_ns as f64 / n / 1e3);
    report.set("wal.sync_us", sync_ns as f64 / n / 1e3);
    report.set("wal.bytes_per_commit", wal.len() as f64 / n);
    report.set("epoch.publish_ms", publish_ns as f64 / n / 1e6);
    let ratios: Vec<f64> = insert_wall
        .chunks_exact(2)
        .filter_map(|pair| Some(pair[0]? / pair[1]?))
        .collect();
    Ok((!ratios.is_empty()).then(|| median(&ratios) - 1.0))
}

/// Traced run: replays reads through the layers `Server::query` runs —
/// admit, pin, cache get, `answer_goal` on the pinned relation, render
/// — each in a span. Each goal runs twice, recorded and not, so the two
/// can be compared; returns that tracing overhead.
fn replay_reads(
    server: &Arc<Server>,
    goals: &[String],
    t: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let before = server.stats();
    let cache = AnswerCache::new(ServeConfig::default().cache_capacity);
    let (mut hits, mut tuples_out) = (0u64, 0u64);
    let on = t.on();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, line) in goals.iter().enumerate() {
        for pass in 0..2 {
            let record = (i + pass) % 2 == 0;
            t.set_on(on && record);
            let start = Instant::now();
            t.begin("read");
            let goal = t
                .time("protocol.parse", || {
                    parse_atom(line["query ".len()..].trim_end_matches('.'))
                })
                .map_err(|e| e.to_string())?;
            let permit = t
                .time("admission.admit", || server.admission().admit(None))
                .map_err(|e| e.to_string())?;
            let state = t
                .time("epoch.pin", || server.registry().pin(None))
                .map_err(|e| e.to_string())?;
            let rel = state.relation(goal.pred).ok_or("no reach relation")?;
            let shape = GoalShape::of(&goal);
            let stamp = relation_stamp(rel);
            let cached = t.time("cache.get", || cache.get(&shape, stamp));
            let kind = match (&goal.args[0], &goal.args[1]) {
                (Term::Const(_), Term::Const(_)) => "answer.member",
                (Term::Const(_), _) => "answer.bound1",
                _ => "answer.bound2",
            };
            let a0 = Instant::now();
            let mut tuples = t.time(kind, || answer_goal(rel, &goal, rel.snapshot_rows()));
            if record {
                by_kind
                    .entry(kind)
                    .or_default()
                    .push(a0.elapsed().as_secs_f64() * 1e6);
            }
            t.time("answer.sort", || tuples.sort());
            // A goal's first pass meets the cache as the stream left
            // it; its second pass always hits.
            if pass == 0 {
                hits += u64::from(cached.is_some());
                tuples_out += tuples.len() as u64;
            }
            if cached.is_none() {
                let tuples = Arc::new(tuples.clone());
                t.time("cache.insert", || cache.insert(shape, stamp, tuples));
            }
            t.time("protocol.render", || {
                let lines: Vec<String> =
                    tuples.iter().map(|tp| render_fact(goal.pred, tp)).collect();
                std::hint::black_box(lines);
            });
            drop((permit, tuples, state));
            t.end();
            let us = start.elapsed().as_secs_f64() * 1e6;
            if record {
                traced.push(us)
            } else {
                plain.push(us)
            }
        }
    }
    t.set_on(on);
    let totals = t.totals();
    let n = goals.len().max(1) as f64;
    let per = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / s.count.max(1) as f64 / 1e3)
    };
    report.set("protocol.parse_us", per("protocol.parse"));
    report.set("protocol.render_us", per("protocol.render"));
    report.set("admission.admit_us", per("admission.admit"));
    report.set("epoch.pin_us", per("epoch.pin"));
    report.set("cache.get_us", per("cache.get"));
    for (kind, metric) in [
        ("answer.member", "answer.member_us"),
        ("answer.bound1", "answer.bound1_us"),
        ("answer.bound2", "answer.bound2_us"),
    ] {
        report.set(metric, by_kind.get(kind).map_or(0.0, |v| median(v)));
    }
    report.set("protocol.reply_tuples", tuples_out as f64 / n);
    report.set("cache.hit_frac", hits as f64 / n);
    report.note(format!("replayed {n} reads through the read layers"));

    // Protocol overhead: the same read through `handle_line` and
    // through `Server::query`, both after a warming call.
    let mut conn = Connection::new(Arc::clone(server));
    let mut diffs = Vec::new();
    for line in goals.iter().take(1000) {
        let goal =
            parse_atom(line["query ".len()..].trim_end_matches('.')).map_err(|e| e.to_string())?;
        server.query(&goal, None, None).map_err(|e| e.to_string())?;
        let q0 = Instant::now();
        std::hint::black_box(server.query(&goal, None, None).map_err(|e| e.to_string())?);
        let q = q0.elapsed().as_secs_f64();
        let h0 = Instant::now();
        std::hint::black_box(conn.handle_line(line));
        let h = h0.elapsed().as_secs_f64();
        diffs.push((h - q) * 1e6);
    }
    report.set("protocol.read_overhead_us", median(&diffs));
    let after = server.stats();
    report.set("admission.shed", (after.rejected - before.rejected) as f64);
    Ok(median(&traced) / median(&plain) - 1.0)
}
