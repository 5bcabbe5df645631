//! `serve-hot` and `serve-ingest`: an open loop over loopback TCP to the
//! in-process server.
//!
//! Arrivals follow a fixed schedule (`RATE` operations per second) over
//! one connection per generator thread. Each operation's latency runs
//! from its *scheduled* arrival, so a stall is charged to every request
//! it delays; how late the generator sent each request is recorded too.
//! Answers are recorded during the timed phase and checked afterwards
//! against an identically built engine with its result cache off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ipm_core::QueryEngine;
use ipm_server::{wire, Client};
use serde_json::Value;

use crate::gen::{self, Op, OpHash};
use crate::inproc::{hits, Hits};
use crate::report::Report;
use crate::setup::{self, Setup};
use crate::stats::Samples;

/// Offered load, operations per second.
pub const RATE: f64 = 300.0;
/// Untimed warm-up at the same rate: fills the result cache.
const WARMUP_S: f64 = 2.0;
const HOT_WORDS: usize = 64;
const ZIPF_S: f64 = 1.1;
/// In `serve-ingest`, every `INGEST_EVERY`th operation is an ingest.
const INGEST_EVERY: usize = 10;
const DOC_LEN: usize = 6;
const K: usize = 10;
/// The generator has fallen behind when the median lateness over the
/// last tenth of the schedule exceeds this: the backlog grows, and the
/// run no longer measures the offered rate.
const MAX_LATE_US: f64 = 10_000.0;

enum Outcome {
    Query {
        hits: Hits,
        elapsed_us: f64,
        wait_us: f64,
        cached: bool,
        coalesced: bool,
        /// Highest ingest epoch acknowledged before the send.
        lo: u64,
        /// Ingests started before the response arrived.
        hi: u64,
    },
    Ingest {
        epoch: u64,
    },
    Error(String),
}

struct Record {
    op: usize,
    scheduled_us: f64,
    sent_us: f64,
    done_us: f64,
    outcome: Outcome,
}

fn hits_of(result: &Value) -> Option<Hits> {
    result["hits"]
        .as_array()?
        .iter()
        .map(|h| Some((h["phrase"].as_u64()?, h["score"].as_f64()?.to_bits())))
        .collect()
}

fn parse_reply(reply: std::io::Result<Value>, ingest: bool) -> Result<Value, String> {
    let v = reply.map_err(|e| format!("transport: {e}"))?;
    if v["ok"].as_bool() != Some(true) {
        return Err(format!(
            "{} error: {}",
            if ingest { "ingest" } else { "query" },
            v["error"]["kind"].as_str().unwrap_or("unknown")
        ));
    }
    Ok(v)
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(250));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs `lines` (one per op, op index alongside) on the open-loop
/// schedule over `conns` connections. Returns the records in op order
/// and the phase's wall time in seconds.
fn open_loop(addr: &str, lines: &[(String, bool)], conns: usize) -> (Vec<Record>, f64) {
    let acked = AtomicU64::new(0);
    let started_ingests = AtomicU64::new(0);
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr).expect("connect to the benchmark server"))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
    let interval_us = 1e6 / RATE;
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                let (acked, started_ingests) = (&acked, &started_ingests);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(lines.len() / conns + 1);
                    for (i, (line, ingest)) in lines.iter().enumerate().skip(t).step_by(conns) {
                        let scheduled_us = i as f64 * interval_us;
                        wait_until(t0 + Duration::from_secs_f64(scheduled_us / 1e6));
                        let sent = Instant::now();
                        let outcome = if *ingest {
                            started_ingests.fetch_add(1, Ordering::SeqCst);
                            match parse_reply(client.roundtrip(line), true) {
                                Ok(v) => match v["epoch"].as_u64() {
                                    Some(epoch) => {
                                        acked.fetch_max(epoch, Ordering::SeqCst);
                                        Outcome::Ingest { epoch }
                                    }
                                    None => Outcome::Error("ingest reply has no epoch".into()),
                                },
                                Err(e) => Outcome::Error(e),
                            }
                        } else {
                            let lo = acked.load(Ordering::SeqCst);
                            let reply = parse_reply(client.roundtrip(line), false);
                            let hi = started_ingests.load(Ordering::SeqCst);
                            match reply {
                                Ok(v) => match hits_of(&v["result"]) {
                                    Some(hits) => Outcome::Query {
                                        hits,
                                        elapsed_us: v["result"]["elapsed_us"]
                                            .as_f64()
                                            .unwrap_or(0.0),
                                        wait_us: v["server"]["wait_us"].as_f64().unwrap_or(0.0),
                                        cached: v["result"]["served_from_cache"].as_bool()
                                            == Some(true),
                                        coalesced: v["server"]["coalesced"].as_bool() == Some(true),
                                        lo,
                                        hi,
                                    },
                                    None => Outcome::Error("malformed hits".into()),
                                },
                                Err(e) => Outcome::Error(e),
                            }
                        };
                        out.push(Record {
                            op: i,
                            scheduled_us,
                            sent_us: us(sent),
                            done_us: us(Instant::now()),
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.op);
    let wall = records.iter().map(|r| r.done_us).fold(0.0, f64::max) / 1e6;
    (records, wall)
}

fn oracle_hits(oracle: &QueryEngine, q: &str, use_delta: bool) -> Hits {
    oracle
        .request(q)
        .k(K)
        .use_delta(use_delta)
        .run()
        .map(|r| hits(&r))
        .unwrap_or_default()
}

/// Checks every query answer of the timed phase against the oracle
/// engine, replaying the acknowledged ingests in epoch order so each
/// answer is compared with the index state(s) it could have seen.
/// Returns the number of wrong answers, leaves the oracle at the final
/// state, and appends each replayed ingest's call time (µs) to
/// `ingest_call_us`.
fn check_answers(
    oracle: &QueryEngine,
    ops: &[Op],
    records: &[Record],
    use_delta: bool,
    ingest_call_us: &mut Vec<f64>,
) -> Result<u64, String> {
    // Acknowledged ingests by epoch.
    let mut by_epoch: Vec<Option<usize>> = Vec::new();
    for r in records {
        if let Outcome::Ingest { epoch } = r.outcome {
            let e = epoch as usize;
            if by_epoch.len() < e {
                by_epoch.resize(e, None);
            }
            if e == 0 || by_epoch[e - 1].replace(r.op).is_some() {
                return Err(format!("ingest epoch {epoch} acknowledged twice or zero"));
            }
        }
    }
    if by_epoch.iter().any(Option::is_none) {
        return Err("acknowledged ingest epochs are not contiguous".into());
    }
    // Queries waiting for their epoch window, by window start.
    let mut pending: Vec<(u64, u64, &str, &Hits)> = records
        .iter()
        .filter_map(|r| match (&r.outcome, &ops[r.op]) {
            (Outcome::Query { hits, lo, hi, .. }, Op::Query(q)) => {
                Some((*lo, *hi, q.as_str(), hits))
            }
            _ => None,
        })
        .collect();
    pending.sort_by_key(|p| p.0);
    let mut matched = vec![false; pending.len()];
    let corpus_miner = oracle.miner();
    let mut first_open = 0;
    for epoch in 0..=by_epoch.len() as u64 {
        let mut memo: HashMap<&str, Hits> = HashMap::new();
        for (i, &(lo, hi, q, hits)) in pending.iter().enumerate().skip(first_open) {
            if lo > epoch {
                break;
            }
            if matched[i] || hi < epoch {
                continue;
            }
            let expect = memo
                .entry(q)
                .or_insert_with(|| oracle_hits(oracle, q, use_delta));
            matched[i] = expect == hits;
        }
        while first_open < pending.len() && (matched[first_open] || pending[first_open].1 <= epoch)
        {
            first_open += 1;
        }
        if let Some(Some(op)) = by_epoch.get(epoch as usize) {
            let Op::Ingest(tokens) = &ops[*op] else {
                return Err("an ingest epoch points at a query".into());
            };
            let ids: Vec<_> = tokens
                .iter()
                .filter_map(|t| corpus_miner.corpus().word_id(t))
                .collect();
            let t = Instant::now();
            oracle.ingest_document(&ids, &[]);
            ingest_call_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(matched.iter().filter(|m| !**m).count() as u64)
}

/// Runs one serving workload and fills `report` with its end-to-end
/// (`trace == false`) or per-layer metrics.
pub fn run(
    setup: &Setup,
    ingest: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Vec<String> {
    let engine = &setup.engine;
    let miner = engine.miner();
    let corpus = miner.corpus();
    let hot = setup::top_words(corpus, HOT_WORDS);
    let vocab = setup::top_words(corpus, usize::MAX);
    let doc_zipf = ipm_corpus::synth::Zipf::new(vocab.len(), ZIPF_S);

    let make_ops = |stream: u64, n: usize, with_ingest: bool| -> Vec<Op> {
        let mut rng = gen::rng(seed, stream);
        let queries = gen::zipf_pairs(&mut rng, &hot, ZIPF_S, n);
        queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                if with_ingest && i % INGEST_EVERY == INGEST_EVERY - 1 {
                    Op::Ingest(gen::zipf_document(&mut rng, &vocab, &doc_zipf, DOC_LEN))
                } else {
                    Op::Query(q)
                }
            })
            .collect()
    };
    let to_lines = |ops: &[Op]| -> Vec<(String, bool)> {
        ops.iter()
            .map(|op| match op {
                Op::Query(q) => {
                    let mut req = wire::SearchRequest::new(q.clone());
                    req.k = K;
                    req.use_delta = ingest;
                    (req.to_line(), false)
                }
                Op::Ingest(tokens) => (wire::ingest_line(tokens, &[]), true),
            })
            .collect()
    };
    // Warm-up never ingests: the timed phase starts from the freshly
    // built index, so the delta grows the same way on every run.
    let warm_ops = make_ops(1, (RATE * WARMUP_S) as usize, false);
    let ops = make_ops(2, (RATE * seconds) as usize, ingest);
    let mut hash = OpHash::default();
    ops.iter().for_each(|op| hash.add_op(op));
    println!(
        "ops: {} timed at {RATE}/s, sequence hash {}",
        ops.len(),
        hash.hex()
    );

    let addr = setup.addr();
    let conns = setup::parallelism();
    let (warm, _) = open_loop(&addr, &to_lines(&warm_ops), conns);
    let warm_errors = warm
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Error(_)))
        .count();
    report.fail(warm_errors as u64, "warm-up request failed");

    let cache_before = engine.cache_stats();
    let (records, wall_s) = open_loop(&addr, &to_lines(&ops), conns);
    let cache_after = engine.cache_stats();
    let server_stats = setup.server.as_ref().expect("server").stats();
    report.attempted = records.len() as u64;

    let mut errors: HashMap<String, u64> = HashMap::new();
    for r in &records {
        if let Outcome::Error(e) = &r.outcome {
            *errors.entry(e.clone()).or_default() += 1;
        }
    }
    for (e, n) in errors {
        report.fail(n, e);
    }
    let mut ingest_call_us = Vec::new();
    match check_answers(&setup.oracle, &ops, &records, ingest, &mut ingest_call_us) {
        Ok(wrong) => report.fail(wrong, "query answer differs from the oracle"),
        Err(e) => report.invalid(e),
    }
    let acked = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Ingest { .. }))
        .count() as u64;
    let ingested = engine.lifecycle_stats().ingested;
    if acked != ingested {
        report.invalid(format!(
            "{acked} ingests acknowledged but the engine holds {ingested}"
        ));
    }

    let late = Samples::new(records.iter().map(|r| r.sent_us - r.scheduled_us).collect());
    let tail_start = records.len() - records.len() / 10;
    let late_tail = Samples::new(
        records[tail_start..]
            .iter()
            .map(|r| r.sent_us - r.scheduled_us)
            .collect(),
    );
    println!(
        "generator lateness: p50 {:.1} us, p99 {:.1} us, last-tenth p50 {:.1} us",
        late.median().unwrap_or(0.0),
        late.quantile(0.99).unwrap_or(0.0),
        late_tail.median().unwrap_or(0.0)
    );
    if late_tail.median().unwrap_or(0.0) > MAX_LATE_US {
        report.invalid("generator fell behind the schedule (growing backlog)");
    }

    let queries: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Query { .. }))
        .collect();
    let latency_us: Vec<f64> = queries.iter().map(|r| r.done_us - r.scheduled_us).collect();
    let ingests = Samples::new(
        records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ingest { .. }))
            .map(|r| r.done_us - r.scheduled_us)
            .collect(),
    );

    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    println!(
        "result cache hit ratio {:.3} over {lookups} lookups",
        hits as f64 / lookups.max(1) as f64
    );
    let query_strings: Vec<String> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Query(q) => Some(q.clone()),
            Op::Ingest(_) => None,
        })
        .collect();
    report.query_latency(&latency_us, trace);
    if !trace {
        report.metric("query_qps", queries.len() as f64 / wall_s, "1/s");
        return query_strings;
    }

    // Per-layer view of the same run.
    let mut overhead = Vec::new();
    let mut cached_us = Vec::new();
    let mut coalesced = 0usize;
    let mut ledger_open = 0usize;
    let mut transport = Vec::new();
    let mut queue_parse = Vec::new();
    for r in &queries {
        if let Outcome::Query {
            elapsed_us,
            wait_us,
            cached,
            coalesced: c,
            ..
        } = r.outcome
        {
            let rtt = r.done_us - r.sent_us;
            overhead.push(rtt - elapsed_us);
            if cached {
                cached_us.push(elapsed_us);
            }
            if c {
                coalesced += 1;
            } else {
                // Ledger: engine time ⊆ server time ⊆ client round trip
                // (whole microseconds on the wire, hence the 1 µs slack).
                if elapsed_us > wait_us + 1.0 || wait_us > rtt + 1.0 {
                    ledger_open += 1;
                }
                transport.push(rtt - wait_us);
                queue_parse.push(wait_us - elapsed_us);
            }
        }
    }
    let overhead = Samples::new(overhead);
    println!(
        "server ledger: client RTT = transport {:.1} + queue/parse {:.1} + engine elapsed (medians, us); {} of {} responses break it",
        Samples::new(transport).median().unwrap_or(0.0),
        Samples::new(queue_parse).median().unwrap_or(0.0),
        ledger_open,
        queries.len() - coalesced
    );
    if ledger_open > 0 {
        report.invalid(format!(
            "server ledger does not close on {ledger_open} responses"
        ));
    }
    report.metric(
        "server.overhead_p50_us",
        overhead.median().unwrap_or(0.0),
        "us",
    );
    match overhead.tail(0.99) {
        Ok(v) => report.metric("server.overhead_p99_us", v, "us"),
        Err(e) => {
            report.invalid(format!("server overhead: {e}"));
            report.metric("server.overhead_p99_us", 0.0, "us");
        }
    }
    report.metric(
        "server.coalesced_ratio",
        coalesced as f64 / queries.len().max(1) as f64,
        "ratio",
    );
    report.metric(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cache.hit_us",
        Samples::new(cached_us).median().unwrap_or(0.0),
        "us",
    );
    report.metric("gen.late_p99_us", late.tail(0.99).unwrap_or(0.0), "us");
    report.metric("ingest.ack_p50_us", ingests.median().unwrap_or(0.0), "us");
    report.metric(
        "ingest.ack_p90_us",
        if ingest {
            ingests.tail(0.9).unwrap_or(0.0)
        } else {
            0.0
        },
        "us",
    );
    if ingest {
        report.metric(
            "delta.ingest_call_us",
            Samples::new(ingest_call_us).mean().unwrap_or(0.0),
            "us",
        );
        report.metric(
            "delta.docs_end",
            engine.lifecycle_stats().delta_docs as f64,
            "count",
        );
        // Same queries with the (final) delta applied and not.
        let sample = &query_strings[..query_strings.len().min(200)];
        let time = |use_delta: bool| {
            let t = Instant::now();
            for q in sample {
                let _ = setup
                    .oracle
                    .request(q.as_str())
                    .k(K)
                    .use_delta(use_delta)
                    .run();
            }
            t.elapsed().as_secs_f64()
        };
        time(true);
        let off = time(false) + time(false);
        let on = time(true) + time(true);
        report.metric("delta.overlay_ratio", on / off, "ratio");
    }
    println!(
        "server: served {} shed {} coalesced {} failed {}",
        server_stats.served, server_stats.shed, server_stats.coalesced, server_stats.failed
    );
    query_strings
}
