//! The traced run's layer ledger: each layer's public entry point timed
//! on its own, over the workload's own queries, from outside the
//! program. Runs on the oracle engine (result cache off) after the
//! workload, so it never disturbs the workload's counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ipm_core::{
    AccessTotals, BackendChoice, BatchPlan, Query, QueryEngine, QueryPlan, SearchOptions, StageKind,
};
use ipm_corpus::{Feature, PhraseId};
use ipm_index::backend::ListBackend;
use ipm_index::cursor::{IdListCursor, ScoredListCursor};
use ipm_server::wire;

use crate::inproc::{cell_name, CELLS};
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::Samples;

/// Distinct workload queries the ledger runs.
const SAMPLE: usize = 200;
/// Features whose lists the backend walks and probes cover.
const FEATURES: usize = 48;
const PROBES_PER_FEATURE: usize = 32;
const K: usize = 10;
/// The engine ledger closes when the top-level stages account for all
/// but this share of the summed response times.
const LEDGER_TOLERANCE: f64 = 0.05;

/// Mean time per call of `f` over `items`, repeating the pass until at
/// least 20 ms have been measured.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> Duration {
    let mut calls = 0u32;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(20) || calls == 0 {
        for it in items {
            f(it);
        }
        calls += items.len() as u32;
    }
    start.elapsed() / calls.max(1)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Nanoseconds per entry walking every feature's full list in score
/// order, and (when `id`) in phrase-id order.
fn walks<B: ListBackend>(b: &B, features: &[Feature], id: bool) -> f64 {
    let mut entries = 0usize;
    let start = Instant::now();
    for &f in features {
        if id {
            let mut c = b.id_cursor(f);
            while let Some(e) = c.next_entry() {
                black_box(e);
                entries += 1;
            }
        } else {
            let mut c = b.score_cursor(f, 1.0);
            while let Some(e) = c.next_entry() {
                black_box(e);
                entries += 1;
            }
        }
    }
    ns(start.elapsed()) / entries.max(1) as f64
}

fn probes<B: ListBackend>(b: &B, targets: &[(Feature, PhraseId)]) -> f64 {
    ns(per_call(targets, |&(f, p)| {
        black_box(b.probe(f, p));
    }))
}

fn access_delta(
    engine: &QueryEngine,
    backend: BackendChoice,
    before: AccessTotals,
) -> AccessTotals {
    let after = engine.access_totals(backend);
    AccessTotals {
        sorted_accesses: after.sorted_accesses - before.sorted_accesses,
        random_probes: after.random_probes - before.random_probes,
        entries_skipped: after.entries_skipped - before.entries_skipped,
        rounds: after.rounds - before.rounds,
    }
}

/// Times every layer over `queries` (the workload's own, in order) and
/// adds the per-layer metrics to `report`.
pub fn run(setup: &Setup, queries: &[String], report: &mut Report) {
    let engine = &setup.oracle;
    let miner = engine.miner();
    let corpus = miner.corpus();
    let mut sample: Vec<&str> = Vec::new();
    for q in queries {
        if sample.len() == SAMPLE {
            break;
        }
        if !sample.contains(&q.as_str()) {
            sample.push(q);
        }
    }
    let parsed: Vec<Query> = sample
        .iter()
        .map(|q| ipm_core::parse_query(corpus, q).expect("workload queries parse"))
        .collect();
    let default_opts = SearchOptions::default();

    // Parse, plan, batch planning, wire.
    report.metric(
        "parse.us",
        us(per_call(&sample, |q| {
            black_box(ipm_core::parse_query(corpus, q).ok());
        })),
        "us",
    );
    report.metric(
        "plan.resolve_ns",
        ns(per_call(&CELLS, |&(algorithm, backend)| {
            let opts = SearchOptions {
                algorithm,
                backend,
                ..SearchOptions::default()
            };
            black_box(QueryPlan::resolve(black_box(&opts), 1));
        })),
        "ns",
    );
    let chunks: Vec<&[Query]> = parsed.chunks(64).collect();
    report.metric(
        "plan.batch_group_us",
        us(per_call(&chunks, |chunk| {
            black_box(BatchPlan::group(
                chunk.iter().map(|q| (q, &default_opts)),
                1,
            ));
        })),
        "us",
    );
    let lines: Vec<String> = sample
        .iter()
        .map(|q| wire::SearchRequest::new(*q).to_line())
        .collect();
    report.metric(
        "wire.parse_request_us",
        us(per_call(&lines, |l| {
            black_box(wire::parse_request(l).ok());
        })),
        "us",
    );
    let responses: Vec<_> = sample
        .iter()
        .filter_map(|q| engine.request(*q).k(K).run().ok())
        .collect();
    report.metric(
        "wire.encode_response_us",
        us(per_call(&responses, |r| {
            black_box(serde_json::to_string(&wire::response_value(r, corpus)).ok());
        })),
        "us",
    );
    let hit_phrases: Vec<PhraseId> = responses
        .iter()
        .flat_map(|r| r.hits.iter().map(|h| h.hit.phrase))
        .collect();
    report.metric(
        "text.resolve_ns_per_hit",
        ns(per_call(&hit_phrases, |&p| {
            black_box(miner.phrase_text(p));
        })),
        "ns",
    );
    let durations: Vec<Duration> = (0..4096u64)
        .map(|i| Duration::from_nanos(i * 7919 % 5_000_000))
        .collect();
    let histogram = ipm_obs::Histogram::new();
    report.metric(
        "obs.histogram_observe_ns",
        ns(per_call(&durations, |&d| histogram.observe(d))),
        "ns",
    );

    // Engine cells, traced and untraced, alternating which goes first.
    let cost = ipm_storage::CostModel::default();
    let backends = [
        BackendChoice::Memory,
        BackendChoice::Disk,
        BackendChoice::Block,
    ];
    let access_before: Vec<AccessTotals> =
        backends.iter().map(|&b| engine.access_totals(b)).collect();
    let mut exec: Vec<Vec<f64>> = vec![Vec::new(); CELLS.len()];
    let mut per_backend_queries = [0usize; 3];
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let stage_kinds = [
        StageKind::Parse,
        StageKind::Plan,
        StageKind::CacheProbe,
        StageKind::Execute,
        StageKind::TextResolve,
    ];
    let mut stage_us = [0.0f64; 5];
    let (mut elapsed_sum, mut unattributed_sum, mut traced_n) = (0.0, 0.0, 0usize);
    let mut fetches = [[0u64; 2]; 2]; // [disk, block] × [sequential, random]
    let mut sim_io_ms = 0.0;
    for (qi, q) in sample.iter().enumerate() {
        for (c, &(algorithm, backend)) in CELLS.iter().enumerate() {
            let run = |trace: bool| {
                let t = Instant::now();
                let r = engine
                    .request(*q)
                    .k(K)
                    .algorithm(algorithm)
                    .backend(backend)
                    .trace(trace)
                    .run();
                (r, t.elapsed().as_secs_f64())
            };
            let ((traced, t_on), (_, t_off)) = if qi % 2 == 0 {
                let on = run(true);
                (on, run(false))
            } else {
                let off = run(false);
                (run(true), off)
            };
            traced_s += t_on;
            untraced_s += t_off;
            let bi = backends
                .iter()
                .position(|&b| b == backend)
                .expect("known backend");
            per_backend_queries[bi] += 2;
            let Ok(resp) = traced else {
                report.fail(1, "traced ledger request failed");
                continue;
            };
            exec[c].push(us(resp.elapsed));
            if let Some(io) = resp.io {
                fetches[bi - 1][0] += io.sequential_fetches;
                fetches[bi - 1][1] += io.random_fetches;
                sim_io_ms += io.io_ms(&cost);
            }
            if let Some(trace) = resp.trace {
                for (slot, kind) in stage_us.iter_mut().zip(stage_kinds) {
                    *slot += us(trace.stage_total(kind));
                }
                elapsed_sum += us(resp.elapsed);
                unattributed_sum += us(resp.elapsed) - us(trace.top_level_total());
                traced_n += 1;
            }
        }
    }
    for (c, &(algorithm, backend)) in CELLS.iter().enumerate() {
        report.metric(
            format!("engine.exec_p50_us.{}", cell_name(algorithm, backend)),
            Samples::new(std::mem::take(&mut exec[c]))
                .median()
                .unwrap_or(0.0),
            "us",
        );
    }
    let traced_n_f = traced_n.max(1) as f64;
    for (kind, total) in stage_kinds.iter().zip(stage_us) {
        report.metric(
            format!("engine.stage_us.{}", kind.name()),
            total / traced_n_f,
            "us",
        );
    }
    report.metric(
        "engine.ledger_unattributed_us",
        unattributed_sum / traced_n_f,
        "us",
    );
    println!(
        "engine ledger: top-level stages leave {:.2}% of {:.0} us of response time unattributed (tolerance {}%)",
        100.0 * unattributed_sum / elapsed_sum.max(1e-9),
        elapsed_sum,
        LEDGER_TOLERANCE * 100.0
    );
    if traced_n == 0 || unattributed_sum.abs() > LEDGER_TOLERANCE * elapsed_sum {
        report.invalid("engine ledger does not close: stages do not sum to elapsed");
    }
    report.metric(
        "trace.overhead_ratio",
        traced_s / untraced_s.max(1e-12),
        "ratio",
    );
    for (bi, name) in ["disk", "block"].iter().enumerate() {
        let n = (per_backend_queries[bi + 1] / 2).max(1) as f64;
        report.metric(
            format!("storage.seq_fetches_per_query.{name}"),
            fetches[bi][0] as f64 / n,
            "count",
        );
        report.metric(
            format!("storage.rand_fetches_per_query.{name}"),
            fetches[bi][1] as f64 / n,
            "count",
        );
    }
    let io_queries = ((per_backend_queries[1] + per_backend_queries[2]) / 2).max(1) as f64;
    report.metric("storage.sim_io_ms_per_query", sim_io_ms / io_queries, "ms");
    for (bi, &backend) in backends.iter().enumerate() {
        let d = access_delta(engine, backend, access_before[bi]);
        let n = per_backend_queries[bi].max(1) as f64;
        let name = backend.name();
        report.metric(
            format!("access.sorted_per_query.{name}"),
            d.sorted_accesses as f64 / n,
            "count",
        );
        report.metric(
            format!("access.probes_per_query.{name}"),
            d.random_probes as f64 / n,
            "count",
        );
        report.metric(
            format!("access.skipped_per_query.{name}"),
            d.entries_skipped as f64 / n,
            "count",
        );
    }

    // Backends: list walks and random probes over the sample's features.
    let mut features: Vec<Feature> = Vec::new();
    for q in &parsed {
        for &f in &q.features {
            if features.len() < FEATURES && !features.contains(&f) {
                features.push(f);
            }
        }
    }
    let memory = miner.memory_backend();
    let disk = engine.disk();
    let block = engine.block();
    // Probe targets: phrases in the list (hits) and phrases from other
    // lists (mostly misses), like TA's candidate resolution.
    let mut targets: Vec<(Feature, PhraseId)> = Vec::new();
    for (i, &f) in features.iter().enumerate() {
        let other = features[(i + 1) % features.len()];
        for (source, n) in [(f, PROBES_PER_FEATURE / 2), (other, PROBES_PER_FEATURE / 2)] {
            let mut c = memory.id_cursor(source);
            let len = c.len().max(1);
            let step = (len / n).max(1);
            let mut j = 0;
            while let Some(e) = c.next_entry() {
                if j % step == 0 && targets.len() < (i + 1) * PROBES_PER_FEATURE {
                    targets.push((f, e.phrase));
                }
                j += 1;
            }
        }
    }
    report.metric("backend.probe_ns.memory", probes(&memory, &targets), "ns");
    report.metric("backend.probe_ns.disk", probes(&*disk, &targets), "ns");
    report.metric("backend.probe_ns.block", probes(&*block, &targets), "ns");
    report.metric(
        "backend.score_walk_ns_per_entry.memory",
        walks(&memory, &features, false),
        "ns",
    );
    report.metric(
        "backend.score_walk_ns_per_entry.disk",
        walks(&*disk, &features, false),
        "ns",
    );
    report.metric(
        "backend.score_walk_ns_per_entry.block",
        walks(&*block, &features, false),
        "ns",
    );
    report.metric(
        "backend.id_walk_ns_per_entry.memory",
        walks(&memory, &features, true),
        "ns",
    );
    report.metric(
        "backend.id_walk_ns_per_entry.block",
        walks(&*block, &features, true),
        "ns",
    );

    // Set-up and footprint.
    let s = setup.stages;
    report.metric("setup.corpus_s", s.corpus_s, "s");
    report.metric("setup.miner_build_s", s.miner_build_s, "s");
    report.metric("setup.disk_image_s", s.disk_image_s, "s");
    report.metric("setup.block_image_s", s.block_image_s, "s");
    report.metric("setup.server_spawn_s", s.server_spawn_s, "s");
    report.metric("index.bytes.memory", memory.size_bytes() as f64, "bytes");
    report.metric("index.bytes.disk", disk.size_bytes() as f64, "bytes");
    report.metric(
        "index.bytes.block",
        ListBackend::size_bytes(&*block) as f64,
        "bytes",
    );
}
