//! Shared set-up: the corpus, the index, both simulated images and (for
//! the serving workloads) the in-process server, built the same way on
//! every run. Set-up is done [`REPS`] times per run and its median is
//! `setup_s`, so work moved into set-up shows even though one set-up is
//! a few seconds of CPU on a shared machine.

use std::time::{Duration, Instant};

use ipm_core::{EngineConfig, MinerConfig, PhraseMiner, QueryEngine};
use ipm_corpus::synth::{self, SynthConfig};
use ipm_corpus::Corpus;
use ipm_server::{Client, Server, ServerConfig, ServerHandle};

use crate::stats::Samples;

/// Set-ups per run. The first becomes the oracle engine, the last serves
/// the workload, the ones between are timed and dropped.
pub const REPS: usize = 3;

/// Documents in the shared corpus: the PubMed-like generator's
/// vocabulary and topic structure at its 1000-document scale, cut to a
/// corpus whose index builds in about a second on one core, so that
/// [`REPS`] set-ups fit in every run.
pub const DOCS: usize = 200;

pub fn corpus_config() -> SynthConfig {
    SynthConfig {
        num_docs: DOCS,
        ..synth::pubmed_like(1000)
    }
}

/// Worker threads, generator threads and connections: the machine's
/// parallelism, so all load comes from this one process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds spent in each set-up stage (medians over the repetitions).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub corpus_s: f64,
    pub miner_build_s: f64,
    pub disk_image_s: f64,
    pub block_image_s: f64,
    pub server_spawn_s: f64,
}

pub struct Setup {
    /// The engine the workload drives.
    pub engine: QueryEngine,
    /// An identically built engine with the result cache off, used only
    /// for oracle answers and the traced layer timings.
    pub oracle: QueryEngine,
    pub server: Option<ServerHandle>,
    /// Median set-up time, server start included when there is one.
    pub setup_s: f64,
    pub stages: StageTimes,
}

impl Setup {
    pub fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("serving workload has a server")
            .addr()
            .to_string()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn build_engine(config: EngineConfig) -> (QueryEngine, [f64; 5]) {
    let start = Instant::now();
    let (corpus, _) = synth::generate(&corpus_config());
    let corpus_s = secs(start.elapsed());
    let t = Instant::now();
    // One counting thread, like the workloads: a multi-threaded build
    // makes set-up time and peak memory vary with thread scheduling.
    let mut miner_config = MinerConfig::default();
    miner_config.wordlists.threads = 1;
    let miner = PhraseMiner::build(&corpus, miner_config);
    let miner_s = secs(t.elapsed());
    let engine = QueryEngine::with_config(miner, config);
    let t = Instant::now();
    engine.disk();
    let disk_s = secs(t.elapsed());
    let t = Instant::now();
    engine.block();
    let block_s = secs(t.elapsed());
    (
        engine,
        [corpus_s, miner_s, disk_s, block_s, secs(start.elapsed())],
    )
}

/// Builds everything a workload needs. `cache` turns the workload
/// engine's result cache on; `serve` starts a server over it.
pub fn build(cache: bool, serve: bool) -> Setup {
    let no_cache = || EngineConfig {
        cache: None,
        ..EngineConfig::default()
    };
    let mut reps: Vec<[f64; 5]> = Vec::with_capacity(REPS);
    let (oracle, t) = build_engine(no_cache());
    reps.push(t);
    let mut engine = None;
    for i in 1..REPS {
        let config = if cache {
            EngineConfig::default()
        } else {
            no_cache()
        };
        let (e, t) = build_engine(config);
        reps.push(t);
        if i == REPS - 1 {
            engine = Some(e);
        }
    }
    let engine = engine.expect("REPS >= 2");
    let median = |i: usize| {
        Samples::new(reps.iter().map(|r| r[i]).collect())
            .median()
            .expect("REPS > 0")
    };
    let mut stages = StageTimes {
        corpus_s: median(0),
        miner_build_s: median(1),
        disk_image_s: median(2),
        block_image_s: median(3),
        server_spawn_s: 0.0,
    };
    let mut setup_s = median(4);
    let server = serve.then(|| {
        let t = Instant::now();
        let handle = Server::spawn(
            engine.clone(),
            ServerConfig {
                workers: parallelism(),
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let mut client =
            Client::connect_with_retries(&handle.addr().to_string(), 50, Duration::from_millis(20))
                .expect("server accepts connections");
        client.ping().expect("server answers ping");
        stages.server_spawn_s = secs(t.elapsed());
        setup_s += stages.server_spawn_s;
        handle
    });
    Setup {
        engine,
        oracle,
        server,
        setup_s,
        stages,
    }
}

/// The `n` most document-frequent words of the corpus, most frequent
/// first.
pub fn top_words(corpus: &Corpus, n: usize) -> Vec<String> {
    ipm_corpus::stats::top_words_by_df(corpus, n)
        .iter()
        .map(|&(w, _)| {
            corpus
                .words()
                .term(w)
                .expect("top words come from the vocabulary")
                .to_owned()
        })
        .collect()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
