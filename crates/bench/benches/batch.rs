//! Shared-scan batch benchmark: the zipfian shared-word scenario run two
//! ways — N independent `execute_with_budget` calls against one
//! `execute_batch` call — written to `BENCH_batch.json` at the repo root
//! (schema and acceptance bounds in `ipm_bench::batchbench`, validated
//! before the write: block-backend fused aggregate ≤ 0.6× serial, and on
//! every backend the fused run saves more than half of the serial list
//! walks).
//!
//! Like `blocklists.rs`, this target does its own timing — the artifact
//! needs real aggregate numbers. `IPM_BATCHBENCH_QUERIES` overrides the
//! batch size (CI uses a smaller value; the default is the acceptance
//! scenario's 64).

use ipm_bench::batchbench::{self, BatchRow};
use ipm_core::{
    Algorithm, BackendChoice, BatchItem, BatchPlan, Budget, EngineConfig, MinerConfig, PhraseMiner,
    QueryEngine, SearchOptions,
};
use ipm_server::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const K: usize = 10;
const ZIPF_S: f64 = 1.1;
const WORD_POOL: usize = 16;

fn batch_queries() -> usize {
    std::env::var("IPM_BATCHBENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(64)
}

/// A fresh engine over an identically-built index; the result cache is
/// off so both sides pay full traversals.
fn build_engine(corpus: &ipm_corpus::Corpus) -> QueryEngine {
    QueryEngine::with_config(
        PhraseMiner::build(corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    )
}

/// The zipfian shared-word workload: two-word `OR` queries whose words
/// are drawn Zipf(s)-distributed from the hottest `WORD_POOL` words, so
/// hot lists repeat across the batch — the case shared scans amortize.
fn sample_queries(engine: &QueryEngine, n: usize) -> Vec<String> {
    let miner = engine.miner();
    let corpus = miner.corpus();
    let pool: Vec<String> = ipm_corpus::stats::top_words_by_df(corpus, WORD_POOL)
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap().to_owned())
        .collect();
    let zipf = ipm_corpus::synth::Zipf::new(pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| {
            let a = zipf.sample(&mut rng);
            let mut b = zipf.sample(&mut rng);
            while b == a {
                b = zipf.sample(&mut rng);
            }
            format!("{} OR {}", pool[a], pool[b])
        })
        .collect()
}

fn measure(corpus: &ipm_corpus::Corpus, queries: &[String], backend: BackendChoice) -> BatchRow {
    let options = SearchOptions {
        algorithm: Algorithm::Smj,
        backend,
        ..Default::default()
    };
    // Two identically-built engines: images and allocator state are
    // engine-local, so neither run warms the other.
    let serial_engine = build_engine(corpus);
    let fused_engine = build_engine(corpus);
    let parsed: Vec<_> = queries
        .iter()
        .map(|q| {
            serial_engine
                .miner()
                .parse_query_str(q)
                .expect("bench query")
        })
        .collect();
    // Warm both engines through the single-query path: builds the lazy
    // disk/block images outside the measured runs.
    for engine in [&serial_engine, &fused_engine] {
        for query in &parsed {
            let _ = engine.execute_with_budget(query.clone(), K, &options, Budget::none());
        }
    }

    let serial_started = Instant::now();
    let serial: Vec<_> = parsed
        .iter()
        .map(|query| {
            serial_engine
                .execute_with_budget(query.clone(), K, &options, Budget::none())
                .expect("serial execution")
        })
        .collect();
    let serial_total_us = serial_started.elapsed().as_secs_f64() * 1e6;

    let budget = Budget::none();
    let items: Vec<BatchItem<'_>> = parsed
        .iter()
        .map(|query| BatchItem {
            query: query.clone(),
            k: K,
            options: options.clone(),
            budget,
        })
        .collect();
    let fused_started = Instant::now();
    let fused = fused_engine.execute_batch(items);
    let fused_total_us = fused_started.elapsed().as_secs_f64() * 1e6;
    let fused_scans_saved = fused_engine
        .metrics_registry()
        .counter("ipm_batch_fused_scans_saved_total", "")
        .get();

    // Parity sanity: the artifact's speedup claim is only meaningful if
    // the fused path returned the same answers.
    for (s, f) in serial.iter().zip(&fused) {
        let f = f.as_ref().expect("fused execution");
        assert_eq!(s.hits.len(), f.hits.len(), "fused batch diverged");
        for (sh, fh) in s.hits.iter().zip(&f.hits) {
            assert_eq!(sh.hit.phrase, fh.hit.phrase);
            assert_eq!(sh.hit.score.to_bits(), fh.hit.score.to_bits());
        }
    }

    let groups = BatchPlan::group(parsed.iter().map(|q| (q, &options)), 0)
        .groups
        .len() as u64;
    // A serial run walks each query's distinct words once.
    let list_walks = parsed
        .iter()
        .map(|q| {
            let mut words = q.features.clone();
            words.sort_unstable();
            words.dedup();
            words.len() as u64
        })
        .sum();
    BatchRow {
        backend: wire::backend_name(backend).to_owned(),
        algorithm: "smj".to_owned(),
        serial_total_us,
        fused_total_us,
        speedup: serial_total_us / fused_total_us,
        groups,
        list_walks,
        fused_scans_saved,
    }
}

fn main() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let n = batch_queries();
    let engine = build_engine(&corpus);
    let queries = sample_queries(&engine, n);
    drop(engine);
    eprintln!(
        "batch bench: {} docs, {n} queries over {WORD_POOL} zipfian words (s={ZIPF_S}), k={K}",
        corpus.num_docs(),
    );

    let mut rows = Vec::new();
    for backend in [BackendChoice::Memory, BackendChoice::Block] {
        let row = measure(&corpus, &queries, backend);
        println!(
            "{:<6} serial {:>10.1} us   fused {:>10.1} us   {:>5.2}x   groups {:>2}   walks saved {}/{}",
            row.backend,
            row.serial_total_us,
            row.fused_total_us,
            row.speedup,
            row.groups,
            row.fused_scans_saved,
            row.list_walks,
        );
        rows.push(row);
    }

    let doc = batchbench::report("synth-tiny", K, n, ZIPF_S, &rows);
    batchbench::validate(&doc).expect("generated artifact must match its own schema");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_batch.json");
    let json = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_batch.json");
    println!("wrote {}", path.display());
}
