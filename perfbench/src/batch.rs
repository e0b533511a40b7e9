//! The batch workloads: `fanout_batch` and `compile_mix`.
//!
//! One closed-loop client runs queries back to back. A query is the
//! program text (rules plus constraints) parsed and evaluated through
//! `semrec_core::evaluate_governed` (optimizer, cost routing,
//! semi-naive evaluation at two threads) over a preloaded EDB. Answers
//! are checked after the clock stops against a reference evaluation of
//! the original, unoptimized program made once per run.

use crate::machine::peak_rss_mb;
use crate::report::Report;
use crate::stats::{
    beyond, cheapest, highest_tail, median, quantile, samples_needed, sorted, MIN_BEYOND,
};
use crate::trace::Tracer;
use crate::Args;
use semrec_core::detect::detect;
use semrec_core::{evaluate_governed, route_alternatives, Optimizer, OptimizerConfig};
use semrec_datalog::analysis::{rectify, validate};
use semrec_datalog::parser::parse_unit;
use semrec_datalog::{Pred, Program};
use semrec_engine::{
    evaluate, Budget, CancelToken, CostMemo, Database, EdbStats, EvalResult, Evaluator, PoolStats,
    Stats, Strategy,
};
use semrec_gen::export::to_dl;
use semrec_gen::rng::Rng;
use semrec_gen::{fanout, flights, genealogy, org, university};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Evaluator threads (the box the benchmark targets has two cores).
const THREADS: usize = 2;
/// Set-ups before the measured loop; `setup_s` is the median of these
/// and of one more every [`SETUP_EVERY_S`] seconds of the loop.
const SETUPS: usize = 3;
const SETUP_EVERY_S: f64 = 3.0;
/// `compile_mix` runs every scenario with its constraints copied this
/// many times. With five scenarios that makes 15 variants, and the
/// loop runs whole cycles of them, so the p50 and p90 ranks fall inside
/// one variant's latencies rather than on the edge between two.
const IC_MULTIPLICITIES: [usize; 3] = [1, 4, 16];

/// How a run is cut into windows for the end-to-end latency and
/// throughput: windows of `cycles` whole cycles through the variants,
/// of which the fastest `share` are kept (see [`cheapest`]). The tail
/// is quantile `tail` of the kept queries; a run lasts until the kept
/// queries leave [`MIN_BEYOND`] beyond it.
struct Windows {
    cycles: usize,
    share: f64,
    tail: f64,
}

/// `fanout_batch`: one variant, two to five queries a second. A window
/// is one query and the faster half is kept; a 60-second run keeps 60
/// to 150 queries, so the tail is their p75.
const FANOUT_WINDOWS: Windows = Windows {
    cycles: 1,
    share: 0.5,
    tail: 0.75,
};
/// `compile_mix`: 500 to 1000 queries a second, so a window of 20
/// cycles (300 queries) lasts about 0.4 s, and the fastest tenth of a
/// 40-second run holds 2000 to 4000 queries.
const COMPILE_MIX_WINDOWS: Windows = Windows {
    cycles: 20,
    share: 0.1,
    tail: 0.9,
};

/// An order-independent digest of a relation per IDB predicate:
/// row count and the wrapping sum of per-row hashes.
type Digest = BTreeMap<Pred, (usize, u64)>;

fn digest(idb_preds: &[Pred], res: &EvalResult) -> Digest {
    idb_preds
        .iter()
        .map(|&p| {
            let (mut n, mut sum) = (0usize, 0u64);
            if let Some(rel) = res.idb.get(&p) {
                for row in rel.iter() {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    row.hash(&mut h);
                    sum = sum.wrapping_add(h.finish());
                    n += 1;
                }
            }
            (p, (n, sum))
        })
        .collect()
}

/// One generated scenario: its EDB as text, and the program text with
/// its constraints at each multiplicity the workload runs.
struct ScenarioInput {
    name: &'static str,
    edb_text: String,
    /// `(multiplicity, program text)`.
    programs: Vec<(usize, String)>,
}

/// The program text with `copies` copies of every constraint; copy
/// `k > 1` of `ic icN:` is named `icN_k`. The copies hold wherever the
/// original does, so they add optimizer work without changing answers.
fn with_ic_copies(src: &str, copies: usize) -> String {
    let mut out = String::new();
    for line in src.lines().map(str::trim).filter(|l| !l.is_empty()) {
        out.push_str(line);
        out.push('\n');
        if let Some(rest) = line.strip_prefix("ic ") {
            let (name, body) = rest.split_once(':').expect("built-in ICs are named");
            for k in 2..=copies {
                out.push_str(&format!("ic {name}_{k}:{body}\n"));
            }
        }
    }
    out
}

fn edb_text(db: &Database) -> String {
    let empty = semrec_gen::Scenario {
        program: Program::new(Vec::new()),
        constraints: Vec::new(),
    };
    to_dl(&empty, Some(db))
}

fn fanout_inputs(seed: u64) -> Vec<ScenarioInput> {
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 600,
        extra_edges: 300,
        fanout: 32,
        seed,
    });
    vec![ScenarioInput {
        name: "fanout",
        edb_text: edb_text(&db),
        programs: vec![(1, with_ic_copies(fanout::PROGRAM, 1))],
    }]
}

/// The compile-heavy mix: every scenario at a size where one query
/// takes a few milliseconds at most — the generators' defaults, except
/// flights and fanout, whose defaults run tens of milliseconds of
/// evaluation (that regime is `fanout_batch`'s).
fn compile_mix_inputs(seed: u64) -> Vec<ScenarioInput> {
    let dbs: [(&'static str, &str, Database); 5] = [
        (
            "org",
            org::PROGRAM,
            org::generate(&org::OrgParams {
                seed,
                ..Default::default()
            }),
        ),
        (
            "university",
            university::PROGRAM,
            university::generate(&university::UniversityParams {
                seed,
                ..Default::default()
            }),
        ),
        (
            "genealogy",
            genealogy::PROGRAM,
            genealogy::generate(&genealogy::GenealogyParams {
                seed,
                ..Default::default()
            }),
        ),
        (
            "flights",
            flights::PROGRAM,
            flights::generate(&flights::FlightsParams {
                airports: 30,
                flights: 120,
                seed,
                ..Default::default()
            }),
        ),
        (
            "fanout",
            fanout::PROGRAM,
            fanout::generate(&fanout::FanoutParams {
                nodes: 60,
                extra_edges: 30,
                fanout: 4,
                seed,
            }),
        ),
    ];
    dbs.into_iter()
        .map(|(name, src, db)| ScenarioInput {
            name,
            edb_text: edb_text(&db),
            programs: IC_MULTIPLICITIES
                .into_iter()
                .map(|m| (m, with_ic_copies(src, m)))
                .collect(),
        })
        .collect()
}

/// One query variant ready to run.
struct Variant {
    label: String,
    text: String,
    scenario: usize,
}

/// A loaded scenario: its database and original program.
struct Loaded {
    db: Database,
    program: Program,
    idb_preds: Vec<Pred>,
}

fn load_edb(text: &str) -> Result<Database, String> {
    let unit = parse_unit(text).map_err(|e| format!("EDB text: {e}"))?;
    Ok(Database::from_facts(&unit.facts))
}

/// One set-up: load every EDB, then run one warm-up query per variant.
/// Returns the databases, the load time and the whole set-up's time.
fn set_up(
    inputs: &[ScenarioInput],
    variants: &[Variant],
) -> Result<(Vec<Database>, f64, f64), String> {
    let start = Instant::now();
    let dbs = inputs
        .iter()
        .map(|s| load_edb(&s.edb_text))
        .collect::<Result<Vec<_>, _>>()?;
    let load_s = start.elapsed().as_secs_f64();
    for v in variants {
        governed(&dbs[v.scenario], &v.text)?;
    }
    Ok((dbs, load_s, start.elapsed().as_secs_f64()))
}

/// The measured query: program text to evaluated answers.
fn governed(db: &Database, text: &str) -> Result<EvalResult, String> {
    let unit = parse_unit(text).map_err(|e| format!("program text: {e}"))?;
    evaluate_governed(
        db,
        &unit.program(),
        &unit.constraints,
        OptimizerConfig::default(),
        Budget::unlimited(),
        CancelToken::new(),
        THREADS,
    )
    .map(|o| o.result)
    .map_err(|e| e.to_string())
}

/// Counters gathered from traced queries.
#[derive(Default)]
struct LayerCounts {
    queries: u64,
    applied: u64,
    skipped: u64,
    alternatives: u64,
    mispredict: f64,
    steps: u64,
    round_max_ns: u64,
    detect_ns: u64,
    stats: Stats,
    pool: PoolStats,
}

/// The same query as [`governed`], made of the public calls that
/// `evaluate_governed` makes, each inside a span.
fn traced(
    t: &mut Tracer,
    db: &Database,
    text: &str,
    c: &mut LayerCounts,
) -> Result<EvalResult, String> {
    let unit = t
        .time("parser.program", || parse_unit(text))
        .map_err(|e| e.to_string())?;
    let program = unit.program();
    let plan = t
        .time("optimizer.run", || {
            Optimizer::new(&program)
                .with_constraints(&unit.constraints)
                .with_config(OptimizerConfig::default())
                .run()
        })
        .map_err(|e| e.to_string())?;
    let (choice, run_program, alternatives) = t
        .time("cost.plan", || {
            let (alts, _) = route_alternatives(&program, &plan, None);
            let n = alts.len();
            CostMemo::build(db, &mut EdbStats::new(), alts)
                .map(|memo| (memo.choice(), memo.best().program.clone(), n))
        })
        .map_err(|e| e.to_string())?;
    let mut ev = t
        .time("eval.compile", || {
            Evaluator::new(db, &run_program, Strategy::SemiNaive).map(|ev| {
                ev.with_parallelism(THREADS)
                    .with_budget(Budget::unlimited())
                    .with_cancel_token(CancelToken::new())
            })
        })
        .map_err(|e| e.to_string())?;
    let mut round_max = 0u64;
    loop {
        let start = Instant::now();
        let more = t
            .time("eval.round", || ev.step())
            .map_err(|e| e.to_string())?;
        round_max = round_max.max(start.elapsed().as_nanos() as u64);
        c.steps += 1;
        if !more {
            break;
        }
    }
    let pool = ev.pool_stats();
    let res = t.time("eval.finish", || ev.finish());
    let rows: u64 = res.idb.values().map(|r| r.len() as u64).sum();
    c.queries += 1;
    c.applied += plan.applied.len() as u64;
    c.skipped += plan.skipped.len() as u64;
    c.alternatives += alternatives as u64;
    c.mispredict += choice.misprediction(rows);
    c.round_max_ns += round_max;
    c.stats += res.stats;
    add_pool(&mut c.pool, &pool);
    Ok(res)
}

fn add_pool(acc: &mut PoolStats, p: &PoolStats) {
    acc.parallel_rounds += p.parallel_rounds;
    acc.serial_rounds += p.serial_rounds;
    acc.join_nanos += p.join_nanos;
    acc.merge_nanos += p.merge_nanos;
    acc.concat_nanos += p.concat_nanos;
}

/// Times `core::detect::detect` over every recursive predicate × IC of
/// the program, as `Optimizer::run` calls it; outside any query span.
fn time_detect(text: &str) -> Result<u64, String> {
    let unit = parse_unit(text).map_err(|e| e.to_string())?;
    let cfg = OptimizerConfig::default();
    let (rectified, _) = rectify(&unit.program());
    let infos = validate(&rectified, &unit.constraints).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for info in &infos {
        for ic in &unit.constraints {
            detect(&rectified, info, ic, cfg.method, cfg.pad).map_err(|e| e.to_string())?;
        }
    }
    Ok(start.elapsed().as_nanos() as u64)
}

/// Runs `fanout_batch`.
pub fn fanout_batch(args: &Args) -> Result<Report, String> {
    run(args, fanout_inputs(args.seed), &FANOUT_WINDOWS)
}

/// Runs `compile_mix`.
pub fn compile_mix(args: &Args) -> Result<Report, String> {
    run(args, compile_mix_inputs(args.seed), &COMPILE_MIX_WINDOWS)
}

/// Latency and throughput over the fastest windows: `(sorted
/// latencies, queries per second)`. `lat_ms` holds `(cycle, ms)` per
/// answered query and `cycles` the start and end of every cycle; a
/// trailing part window joins the window before it.
fn windowed(
    lat_ms: &[(usize, f64)],
    cycles: &[(Instant, Instant)],
    w: &Windows,
) -> (Vec<f64>, f64) {
    let n = (cycles.len() / w.cycles).max(1);
    let window_of = |c: usize| (c / w.cycles).min(n - 1);
    let mut wall = vec![0.0; n];
    for (c, (start, end)) in cycles.iter().enumerate() {
        wall[window_of(c)] += (*end - *start).as_secs_f64();
    }
    let mut queries = vec![0usize; n];
    for &(c, _) in lat_ms {
        queries[window_of(c)] += 1;
    }
    let per_query: Vec<f64> = (0..n).map(|k| wall[k] / queries[k].max(1) as f64).collect();
    let kept = cheapest(&per_query, w.share);
    let mut keep = vec![false; n];
    for &k in &kept {
        keep[k] = true;
    }
    let lat = sorted(
        lat_ms
            .iter()
            .filter(|(c, _)| keep[window_of(*c)])
            .map(|&(_, ms)| ms)
            .collect(),
    );
    let (q, s) = kept
        .iter()
        .fold((0usize, 0.0), |(q, s), &k| (q + queries[k], s + wall[k]));
    (lat, q as f64 / s)
}

fn run(args: &Args, inputs: Vec<ScenarioInput>, windows: &Windows) -> Result<Report, String> {
    let mut report = Report::default();
    let variants: Vec<Variant> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            s.programs.iter().map(move |(m, text)| Variant {
                label: format!("{}x{m}", s.name),
                text: text.clone(),
                scenario: i,
            })
        })
        .collect();

    let (mut setup_s, mut load_s) = (Vec::new(), Vec::new());
    let mut dbs = Vec::new();
    for _ in 0..SETUPS {
        let (d, load, setup) = set_up(&inputs, &variants)?;
        dbs = d;
        load_s.push(load);
        setup_s.push(setup);
    }

    let loaded: Vec<Loaded> = inputs
        .iter()
        .zip(dbs)
        .map(|(s, db)| {
            let unit = parse_unit(&s.programs[0].1).map_err(|e| e.to_string())?;
            let program = unit.program();
            Ok(Loaded {
                db,
                idb_preds: program.idb_preds().into_iter().collect(),
                program,
            })
        })
        .collect::<Result<_, String>>()?;

    // The closed loop: variants in a seeded order, reshuffled each
    // cycle; whole cycles, at least `--seconds` long and long enough
    // for the tail.
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5EED_0F0B);
    let mut order: Vec<usize> = (0..variants.len()).collect();
    let min_queries =
        (samples_needed(windows.tail, MIN_BEYOND) as f64 / windows.share).ceil() as usize;
    let mut tracer = Tracer::new(args.trace);
    let mut counts = LayerCounts::default();
    let mut lat_ms = Vec::new();
    let mut cycles: Vec<(Instant, Instant)> = Vec::new();
    let mut last_setup = Instant::now();
    let mut by_variant: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    // Per scenario, each distinct answer digest and a variant that gave it.
    let mut answers: Vec<BTreeMap<Digest, &str>> = vec![BTreeMap::new(); loaded.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(order.len())
        || start.elapsed().as_secs_f64() < args.seconds
        || lat_ms.len() < min_queries
    {
        if i.is_multiple_of(order.len()) {
            if let Some(c) = cycles.last_mut() {
                c.1 = Instant::now();
            }
            // Set-ups spread through the loop, between cycles and
            // outside every window, sample the machine over the whole
            // run rather than in one burst.
            if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
                let (_, load, setup) = set_up(&inputs, &variants)?;
                load_s.push(load);
                setup_s.push(setup);
                last_setup = Instant::now();
            }
            rng.shuffle(&mut order);
            let now = Instant::now();
            cycles.push((now, now));
        }
        let cycle = i / order.len();
        let v = &variants[order[i % order.len()]];
        let l = &loaded[v.scenario];
        // The traced run alternates plain and traced queries, so the
        // two can be compared for the tracing overhead.
        let with_spans = args.trace && i % 2 == 1;
        attempted += 1;
        let t0 = Instant::now();
        let out = if with_spans {
            tracer.begin("query");
            let out = traced(&mut tracer, &l.db, &v.text, &mut counts);
            tracer.end();
            out
        } else {
            governed(&l.db, &v.text)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        i += 1;
        let res = match out {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                report.note(format!("query {} failed: {e}", v.label));
                continue;
            }
        };
        lat_ms.push((cycle, ms));
        by_variant.entry(v.label.as_str()).or_default().push(ms);
        if with_spans {
            traced_ms.push(ms);
            counts.detect_ns += time_detect(&v.text)?;
        } else {
            plain_ms.push(ms);
        }
        answers[v.scenario]
            .entry(digest(&l.idb_preds, &res))
            .or_insert(v.label.as_str());
    }
    if let Some(c) = cycles.last_mut() {
        c.1 = Instant::now();
    }
    let wall = start.elapsed().as_secs_f64();
    // Before the references, whose evaluation is not the workload's
    // memory.
    report.set("peak_rss_mb", peak_rss_mb());

    // References: the original program, unoptimized, once per run.
    let mut wrong = Vec::new();
    for (l, seen) in loaded.iter().zip(&answers) {
        let res = evaluate(&l.db, &l.program, Strategy::SemiNaive).map_err(|e| e.to_string())?;
        let reference = digest(&l.idb_preds, &res);
        wrong.extend(
            seen.iter()
                .filter(|(d, _)| **d != reference)
                .map(|(_, label)| label.to_string()),
        );
    }

    report.correct = wrong.is_empty();
    report.attempted = attempted;
    report.failed = failed;
    if !wrong.is_empty() {
        report.note(format!("wrong answers from: {}", wrong.join(", ")));
    }
    let answered = lat_ms.len();
    let (lat, qps) = windowed(&lat_ms, &cycles, windows);
    for (label, ms) in &by_variant {
        report.note(format!(
            "variant {label}: median {:.3} ms over {}",
            median(ms),
            ms.len()
        ));
    }
    report.note(format!(
        "{answered} queries over {} variants in {wall:.1} s; {} of them in the fastest {} \
         of windows of {} cycles; tail is p{} with {} beyond; \
         highest percentile with {MIN_BEYOND} beyond: p{}",
        variants.len(),
        lat.len(),
        windows.share,
        windows.cycles,
        windows.tail * 100.0,
        beyond(lat.len(), windows.tail),
        highest_tail(lat.len(), MIN_BEYOND).map_or(0.0, |q| q * 100.0)
    ));
    report.set("setup_s", median(&setup_s));
    report.set("latency_ms_p50", quantile(&lat, 0.5));
    report.set("latency_ms_tail", quantile(&lat, windows.tail));
    report.set("throughput_per_s", qps);
    report.set("parser.edb_load_s", median(&load_s));
    report.set("run.failed_frac", failed as f64 / attempted.max(1) as f64);
    if args.trace {
        layer_metrics(&mut report, &tracer, &counts, &plain_ms, &traced_ms);
    }
    crate::write_trace(args, &tracer)?;
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    c: &LayerCounts,
    plain_ms: &[f64],
    traced_ms: &[f64],
) {
    let n = c.queries.max(1) as f64;
    let totals = tracer.totals();
    let mean_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / n / 1e6);
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.set("parser.program_ms", mean_ms("parser.program"));
    report.set("optimizer.run_ms", mean_ms("optimizer.run"));
    report.set("optimizer.detect_ms", c.detect_ns as f64 / n / 1e6);
    report.set("optimizer.applied", c.applied as f64 / n);
    report.set("optimizer.skipped", c.skipped as f64 / n);
    report.set("cost.plan_ms", mean_ms("cost.plan"));
    report.set("cost.alternatives", c.alternatives as f64 / n);
    report.set("cost.mispredict", c.mispredict / n);
    report.set("eval.compile_ms", mean_ms("eval.compile"));
    report.set("eval.rounds", c.steps as f64 / n);
    report.set("eval.rounds_ms", mean_ms("eval.round"));
    report.set("eval.round_ms_max", c.round_max_ns as f64 / n / 1e6);
    report.set("eval.finish_ms", mean_ms("eval.finish"));
    let s = &c.stats;
    report.set("eval.dedup_useful_frac", frac(s.inserted, s.derived));
    report.set("eval.probe_hits_per_probe", frac(s.probe_hits, s.probes));
    report.set(
        "eval.memo_hit_frac",
        frac(s.dict_memo_hits, s.dict_memo_hits + s.dict_probes),
    );
    report.set("eval.dedup_regrows", s.dedup_regrows as f64 / n);
    report.set("eval.scratch_hw_bytes", s.scratch_hw_bytes as f64 / n);
    report.set(
        "eval.kernel_frac",
        frac(s.kernel_firings, s.kernel_firings + s.interp_firings),
    );
    let p = &c.pool;
    report.set(
        "pool.parallel_round_frac",
        frac(p.parallel_rounds, p.parallel_rounds + p.serial_rounds),
    );
    report.set("pool.join_ms", p.join_nanos as f64 / n / 1e6);
    report.set("pool.merge_ms", p.merge_nanos as f64 / n / 1e6);
    report.set("pool.concat_ms", p.concat_nanos as f64 / n / 1e6);
    report.set(
        "trace.overhead_frac",
        median(traced_ms) / median(plain_ms) - 1.0,
    );
    report.set("trace.unattributed_frac", tracer.unattributed_frac());
    for (name, t) in &totals {
        report.note(format!(
            "layer {name}: {:.4} ms self per query over {} spans",
            t.self_ns as f64 / n / 1e6,
            t.count
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_keeps_the_fastest_windows() {
        use std::time::Duration;
        // Four one-cycle windows of two queries each, lasting 1, 4, 2
        // and 1.5 seconds; the last cycle's end closes the run.
        let t0 = Instant::now();
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let spans = [(0.0, 1.0), (1.0, 5.0), (5.0, 7.0), (7.0, 8.5)].map(|(s, e)| (at(s), at(e)));
        let lat: Vec<(usize, f64)> = (0..4)
            .flat_map(|c| [(c, c as f64 * 10.0 + 1.0), (c, c as f64 * 10.0 + 2.0)])
            .collect();
        let half = Windows {
            cycles: 1,
            share: 0.5,
            tail: 0.9,
        };
        let (kept, qps) = windowed(&lat, &spans, &half);
        assert_eq!(kept, vec![1.0, 2.0, 31.0, 32.0]);
        assert!((qps - 4.0 / 2.5).abs() < 1e-9, "{qps}");
        // Windows of two cycles: 5 s and 3.5 s.
        let pairs = Windows {
            cycles: 2,
            share: 0.5,
            tail: 0.9,
        };
        let (kept, qps) = windowed(&lat, &spans, &pairs);
        assert_eq!(kept, vec![21.0, 22.0, 31.0, 32.0]);
        assert!((qps - 4.0 / 3.5).abs() < 1e-9, "{qps}");
        // Three cycles make one window of 1 + 4 + 2 + 1.5 seconds: the
        // trailing part joins it.
        let triples = Windows {
            cycles: 3,
            share: 0.5,
            tail: 0.9,
        };
        let (kept, qps) = windowed(&lat, &spans, &triples);
        assert_eq!(kept.len(), 8);
        assert!((qps - 8.0 / 8.5).abs() < 1e-9, "{qps}");
        let all = Windows { share: 1.0, ..half };
        assert_eq!(windowed(&lat, &spans, &all).0.len(), 8);
    }

    #[test]
    fn ic_copies_are_renamed_and_parse() {
        let text = with_ic_copies(university::PROGRAM, 3);
        let unit = parse_unit(&text).expect("copies parse");
        assert_eq!(unit.constraints.len(), 6);
        assert!(text.contains("ic ic1_3:"));
        assert!(text.contains("ic ic2_2:"));
        assert_eq!(with_ic_copies(org::PROGRAM, 1).matches("ic ").count(), 1);
    }
}
