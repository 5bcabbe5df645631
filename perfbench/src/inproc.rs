//! `engine-topk` and `batch-zipf`: in-process closed loops on one thread
//! with the result cache off, so list traversal does the work.

use std::collections::HashMap;
use std::time::Instant;

use ipm_core::{
    Algorithm, BackendChoice, BatchItem, BatchPlan, Budget, QueryEngine, SearchOptions,
    SearchResponse,
};
use ipm_corpus::Feature;

use crate::gen::{self, OpHash};
use crate::report::Report;
use crate::setup::{self, Setup};
use crate::stats::Samples;

const K: usize = 10;
/// engine-topk draws its words uniformly from this many hottest words.
const TOPK_WORDS: usize = 256;
/// Queries generated per run (cycled if a run gets through all of them).
const TOPK_QUERIES: usize = 40_000;
const TOPK_WARMUP: usize = 100;
/// The six (algorithm, backend) cells every engine-topk query runs in.
pub const CELLS: [(Algorithm, BackendChoice); 6] = [
    (Algorithm::Nra, BackendChoice::Memory),
    (Algorithm::Ta, BackendChoice::Memory),
    (Algorithm::Nra, BackendChoice::Disk),
    (Algorithm::Ta, BackendChoice::Disk),
    (Algorithm::Nra, BackendChoice::Block),
    (Algorithm::Ta, BackendChoice::Block),
];
const BATCH_WORDS: usize = 32;
const BATCH_SIZE: usize = 64;
const BATCHES: usize = 3_000;
/// Untimed batches: two per backend, enough for the decoded-block cache
/// to reach its steady state.
const BATCH_WARMUP: usize = 4;
const ZIPF_S: f64 = 1.1;

/// A result list as the oracles compare it: phrase id and score bits.
pub type Hits = Vec<(u64, u64)>;

pub fn hits(resp: &SearchResponse) -> Hits {
    resp.hits
        .iter()
        .map(|h| (u64::from(h.hit.phrase.raw()), h.hit.score.to_bits()))
        .collect()
}

fn phrases(h: &[(u64, u64)]) -> Vec<u64> {
    h.iter().map(|p| p.0).collect()
}

/// Whether two top-k lists from different algorithms are the same
/// answer up to floating-point rounding: position by position the scores
/// agree to 1e-9 (relative), so any reordering is among scores equal in
/// exact arithmetic, and a phrase only one list holds ties the k-th
/// score. TA and SMJ sum a phrase's per-word terms in different orders,
/// so on three-word queries their sums can differ in the last bit.
fn same_up_to_rounding(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    let close = |x: u64, y: u64| {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
    };
    if a.len() != b.len() || !a.iter().zip(b).all(|(x, y)| close(x.1, y.1)) {
        return false;
    }
    let last = |h: &[(u64, u64)]| h.last().map_or(0, |e| e.1);
    let only_in = |h: &[(u64, u64)], other: &[(u64, u64)]| {
        h.iter()
            .filter(|e| !other.iter().any(|o| o.0 == e.0))
            .all(|e| close(e.1, last(h)))
    };
    only_in(a, b) && only_in(b, a)
}

/// A result list for a mismatch report: phrase id and score.
fn scored(h: &[(u64, u64)]) -> Vec<(u64, f64)> {
    h.iter().map(|&(p, s)| (p, f64::from_bits(s))).collect()
}

pub fn cell_name(a: Algorithm, b: BackendChoice) -> String {
    format!("{}-{}", a.name(), b.name())
}

/// Checks one query's six answers: disk and block against memory for
/// the same algorithm (block bit for bit, disk within 1e-9), and TA
/// against SMJ from the oracle engine. Returns the wrong cells' count
/// and whether TA and SMJ differed only within rounding.
fn check_cells(
    oracle: &QueryEngine,
    query: &str,
    answers: &[Option<Hits>],
    smj: &mut HashMap<String, Hits>,
) -> (u64, bool) {
    let mut wrong = 0;
    let mut rounding = false;
    for (c, &(algorithm, backend)) in CELLS.iter().enumerate() {
        let Some(got) = &answers[c] else { continue };
        let reference = CELLS
            .iter()
            .position(|&(a, b)| a == algorithm && b == BackendChoice::Memory)
            .expect("every algorithm has a memory cell");
        let Some(want) = &answers[reference] else {
            continue;
        };
        let ok = match backend {
            BackendChoice::Memory => true,
            BackendChoice::Block => got == want,
            BackendChoice::Disk => {
                phrases(got) == phrases(want)
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| (f64::from_bits(a.1) - f64::from_bits(b.1)).abs() <= 1e-9)
            }
        };
        if !ok {
            wrong += 1;
            println!(
                "mismatch: {} {:?} vs memory {:?} on {query:?}",
                cell_name(algorithm, backend),
                scored(got),
                scored(want)
            );
        }
        if algorithm == Algorithm::Ta && backend == BackendChoice::Memory {
            let reference = smj.entry(query.to_owned()).or_insert_with(|| {
                oracle
                    .request(query)
                    .k(K)
                    .algorithm(Algorithm::Smj)
                    .run()
                    .map(|r| hits(&r))
                    .unwrap_or_default()
            });
            if phrases(got) != phrases(reference) {
                if same_up_to_rounding(got, reference) {
                    rounding = true;
                } else {
                    wrong += 1;
                    println!(
                        "mismatch: TA {:?} vs SMJ {:?} on {query:?}",
                        scored(got),
                        scored(reference)
                    );
                }
            }
        }
    }
    (wrong, rounding)
}

pub fn engine_topk(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Vec<String> {
    let engine = &setup.engine;
    let miner = engine.miner();
    let pool = setup::top_words(miner.corpus(), TOPK_WORDS);
    let warm = gen::uniform_queries(&mut gen::rng(seed, 1), &pool, TOPK_WARMUP);
    let queries = gen::uniform_queries(&mut gen::rng(seed, 2), &pool, TOPK_QUERIES);
    let mut hash = OpHash::default();
    queries.iter().for_each(|q| hash.add_str(q));
    println!(
        "ops: {} queries × {} cells, sequence hash {}",
        queries.len(),
        CELLS.len(),
        hash.hex()
    );
    let cost = ipm_storage::CostModel::default();

    let run = |q: &str, (algorithm, backend): (Algorithm, BackendChoice)| {
        engine
            .request(q)
            .k(K)
            .algorithm(algorithm)
            .backend(backend)
            .run()
    };
    for q in &warm {
        for cell in CELLS {
            let _ = run(q, cell);
        }
    }

    // Latencies in order; answers are checked after each query's six
    // calls, outside the timed calls.
    let mut service_s: Vec<f64> = Vec::with_capacity(CELLS.len() * 4 * TOPK_QUERIES);
    let mut smj: HashMap<String, Hits> = HashMap::new();
    let (mut errors, mut wrong, mut rounding) = (0u64, 0u64, 0u64);
    let mut io = (0.0f64, 0usize);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let q = queries[i % queries.len()].as_str();
        let mut answers: Vec<Option<Hits>> = Vec::with_capacity(CELLS.len());
        for &cell in &CELLS {
            let t = Instant::now();
            let out = run(q, cell);
            service_s.push(t.elapsed().as_secs_f64());
            match out {
                Ok(resp) => {
                    if let Some(stats) = &resp.io {
                        io.0 += stats.io_ms(&cost);
                        io.1 += 1;
                    }
                    answers.push(Some(hits(&resp)));
                }
                Err(e) => {
                    errors += 1;
                    println!("error: {} on {q:?}: {e}", cell_name(cell.0, cell.1));
                    answers.push(None);
                }
            }
        }
        let (w, r) = check_cells(&setup.oracle, q, &answers, &mut smj);
        wrong += w;
        rounding += u64::from(r);
        i += 1;
    }
    report.attempted = service_s.len() as u64;
    report.fail(errors, "request failed");
    report.fail(wrong, "answer differs from its oracle");
    println!(
        "TA and SMJ ranked near-equal scores differently (sums differing in the last bits) on {rounding} of {i} TA requests"
    );
    println!(
        "sim_io_ms_per_query = {} ms over {} disk and block requests (§5.5 cost model)",
        io.0 / io.1.max(1) as f64,
        io.1
    );
    report.query_latency(
        &service_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
        trace,
    );
    if !trace {
        report.closed_loop_qps(&service_s, 1);
    }
    queries
}

/// Per-batch counters of the fused path, from the plan and the engine.
struct BatchRecord {
    secs: f64,
    block: bool,
    groups: usize,
    scans_saved: usize,
    decode_misses: u64,
}

/// List walks a batch's shared scans save: for each planner group of two
/// or more members, member walks minus distinct lists walked.
fn scans_saved(plan: &BatchPlan, parsed: &[ipm_core::Query]) -> usize {
    plan.groups
        .iter()
        .filter(|g| g.members.len() > 1)
        .map(|g| {
            let mut distinct: Vec<Feature> = Vec::new();
            let mut walks = 0;
            for &m in &g.members {
                for &f in &parsed[m].features {
                    walks += 1;
                    if !distinct.contains(&f) {
                        distinct.push(f);
                    }
                }
            }
            walks - distinct.len()
        })
        .sum()
}

pub fn batch_zipf(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Vec<String> {
    let engine = &setup.engine;
    let miner = engine.miner();
    let corpus = miner.corpus();
    let pool = setup::top_words(corpus, BATCH_WORDS);
    let mut rng = gen::rng(seed, 3);
    let batches: Vec<Vec<String>> = (0..BATCHES)
        .map(|_| gen::zipf_batch(&mut rng, &pool, ZIPF_S, BATCH_SIZE))
        .collect();
    let mut hash = OpHash::default();
    batches.iter().flatten().for_each(|q| hash.add_str(q));
    println!(
        "ops: {} batches of {BATCH_SIZE}, sequence hash {}",
        batches.len(),
        hash.hex()
    );
    let parsed: Vec<Vec<ipm_core::Query>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|q| ipm_core::parse_query(corpus, q).expect("generated queries parse"))
                .collect()
        })
        .collect();
    // Batches alternate between the memory and block backends.
    let options = |bi: usize| SearchOptions {
        algorithm: Algorithm::Smj,
        backend: if bi % 2 == 1 {
            BackendChoice::Block
        } else {
            BackendChoice::Memory
        },
        ..SearchOptions::default()
    };
    let run_batch = |bi: usize| {
        let opts = options(bi);
        let items: Vec<BatchItem<'_>> = parsed[bi % BATCHES]
            .iter()
            .map(|q| BatchItem {
                query: q.clone(),
                k: K,
                options: opts.clone(),
                budget: Budget::none(),
            })
            .collect();
        let before = engine.decode_cache_stats().1;
        let t = Instant::now();
        let out = engine.execute_batch(items);
        let secs = t.elapsed().as_secs_f64();
        (out, secs, engine.decode_cache_stats().1 - before)
    };
    let mut first_misses = Vec::new();
    for bi in 0..BATCH_WARMUP {
        first_misses.push(run_batch(bi).2);
    }

    // Every member is checked against its own single-query execution on
    // the oracle engine, bit for bit, after its batch returns.
    let mut memo: HashMap<(&str, bool), Hits> = HashMap::new();
    let (mut errors, mut wrong) = (0u64, 0u64);
    let mut records: Vec<BatchRecord> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut bi = BATCH_WARMUP;
    while Instant::now() < deadline {
        let (out, secs, decode_misses) = run_batch(bi);
        let opts = options(bi);
        let block = opts.backend == BackendChoice::Block;
        let queries = &parsed[bi % BATCHES];
        for ((q, query), got) in batches[bi % BATCHES].iter().zip(queries).zip(&out) {
            let Ok(got) = got else {
                errors += 1;
                continue;
            };
            let want = memo.entry((q.as_str(), block)).or_insert_with(|| {
                setup
                    .oracle
                    .execute_with_budget(query.clone(), K, &opts, Budget::none())
                    .map(|r| hits(&r))
                    .unwrap_or_default()
            });
            if hits(got) != *want {
                wrong += 1;
                println!(
                    "mismatch: batch member {:?} vs own execution {:?} on {q:?}",
                    scored(&hits(got)),
                    scored(want)
                );
            }
        }
        let plan = BatchPlan::group(queries.iter().map(|q| (q, &opts)), 1);
        records.push(BatchRecord {
            secs,
            block,
            groups: plan.groups.len(),
            scans_saved: scans_saved(&plan, queries),
            decode_misses,
        });
        bi += 1;
    }
    report.attempted = (records.len() * BATCH_SIZE) as u64;
    report.fail(errors, "batch member failed");
    report.fail(wrong, "batch member differs from its own execution");

    for block in [false, true] {
        let s = Samples::new(
            records
                .iter()
                .filter(|r| r.block == block)
                .map(|r| r.secs * 1e6)
                .collect(),
        );
        println!(
            "batch p50 {}: {:.1} us",
            if block { "block" } else { "memory" },
            s.median().unwrap_or(0.0)
        );
    }
    println!(
        "decode misses per batch, from the first (block batches are the odd ones): {:?}",
        first_misses
            .iter()
            .copied()
            .chain(records.iter().take(12).map(|r| r.decode_misses))
            .collect::<Vec<_>>()
    );
    let service_s: Vec<f64> = records.iter().map(|r| r.secs).collect();
    // A member's answer arrives when its batch returns: the batch is the
    // unit of latency.
    report.query_latency(
        &service_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
        trace,
    );
    if !trace {
        report.closed_loop_qps(&service_s, BATCH_SIZE);
        return batches.concat();
    }
    let n = records.len().max(1) as f64;
    report.metric(
        "batch.p50_us",
        Samples::new(service_s.iter().map(|s| s * 1e6).collect())
            .median()
            .unwrap_or(0.0),
        "us",
    );
    report.metric(
        "fused.groups_per_batch",
        records.iter().map(|r| r.groups).sum::<usize>() as f64 / n,
        "count",
    );
    report.metric(
        "fused.scans_saved_per_batch",
        records.iter().map(|r| r.scans_saved).sum::<usize>() as f64 / n,
        "count",
    );
    let block_n = records.iter().filter(|r| r.block).count().max(1) as f64;
    report.metric(
        "fused.decode_misses_per_batch",
        records
            .iter()
            .filter(|r| r.block)
            .map(|r| r.decode_misses)
            .sum::<u64>() as f64
            / block_n,
        "count",
    );
    // Serial equivalent: the first timed batches again, member by
    // member, against their fused time.
    let mut serial = Vec::new();
    let mut fused = Vec::new();
    for (r, record) in records.iter().enumerate().take(32) {
        let bi = BATCH_WARMUP + r;
        let opts = options(bi);
        let t = Instant::now();
        for q in &parsed[bi % BATCHES] {
            let _ = engine.execute_with_budget(q.clone(), K, &opts, Budget::none());
        }
        serial.push(t.elapsed().as_secs_f64());
        fused.push(record.secs);
    }
    let ratio =
        Samples::new(serial).median().unwrap_or(0.0) / Samples::new(fused).median().unwrap_or(1.0);
    report.metric("fused.serial_equiv_ratio", ratio, "ratio");
    batches.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(v: &[(u64, f64)]) -> Hits {
        v.iter().map(|&(p, s)| (p, s.to_bits())).collect()
    }

    #[test]
    fn rounding_only_reorders_ties() {
        let third = 1.0 / 3.0;
        let a = list(&[(1, 1.8), (2, 1.6666666666666667), (3, 1.0), (4, third)]);
        // Same scores to the last bits, tied phrases swapped, and a
        // different phrase tying the last place.
        let b = list(&[
            (1, 1.8),
            (2, 1.6666666666666665),
            (3, 1.0),
            (5, 0.3333333333333333),
        ]);
        assert!(same_up_to_rounding(&a, &b));
        // A phrase missing that does not tie the last place.
        let c = list(&[(1, 1.8), (9, 1.6666666666666665), (3, 1.0), (4, third)]);
        assert!(!same_up_to_rounding(&a, &c));
        // Scores that differ for real.
        let d = list(&[(1, 1.8), (2, 1.6), (3, 1.0), (4, third)]);
        assert!(!same_up_to_rounding(&a, &d));
        assert!(!same_up_to_rounding(&a, &a[..3]));
    }
}
