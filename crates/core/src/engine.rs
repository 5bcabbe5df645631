//! A shared, thread-safe query front-end over pluggable list backends.
//!
//! The paper's closing claim is that list-based scoring makes interesting-
//! phrase mining "a feasible task for search-like interactive systems".
//! Such a system serves many concurrent queries over one immutable index.
//! [`QueryEngine`] packages a built [`PhraseMiner`] behind an [`Arc`] with:
//!
//! * a string-query API and per-query algorithm choice (all four: NRA,
//!   SMJ, TA, exact);
//! * per-query **backend** choice ([`BackendChoice`]): the in-memory lists
//!   or the simulated-disk image (`ipm_storage::DiskLists`), which is
//!   built lazily on first use and reports per-query [`IoStats`];
//! * a sharded LRU **result cache** keyed by `(query, k, options)`
//!   ([`crate::cache`]), so repeated interactive queries skip list
//!   traversal entirely — hit/miss counters sit next to
//!   [`QueryEngine::queries_served`];
//! * optional §5.6 redundancy filtering, composed with every algorithm,
//!   backend and NRA fraction;
//! * **partitioned intra-query execution**: requests are resolved by a
//!   planner ([`crate::plan::QueryPlan`]) into an algorithm, a backend and
//!   a shard fanout; the executor runs the algorithm per phrase-id shard
//!   on scoped threads and merges the local top-k under the deterministic
//!   result order (see [`crate::plan`] for why the merge is exact).
//!   Sharded index layouts (memory and disk) are built lazily per fanout
//!   and cached.
//!
//! Each index *generation* is immutable after build, so clones of the
//! engine can be handed to any number of threads; mutation happens through
//! the §4.5.1 **lifecycle** instead (`ingest_document` / `delete_document`
//! → per-query [`crate::delta::DeltaOverlay`] corrections →
//! [`QueryEngine::compact`], which rebuilds offline and atomically swaps
//! the serving generation). Every mutation bumps a monotonic **epoch**
//! that tags [`CacheKey`]s, so cached results age out by key mismatch
//! instead of wholesale cache clears. Disk-backed requests serialize on
//! an internal lock: the simulated buffer pools model one device set, and
//! per-query cold-cache IO accounting (the paper's §5.5 methodology) is
//! only meaningful for one query at a time — shards of a single query
//! still run in parallel, each against its own per-shard pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::budget::ApproxReason;
use crate::budget::{Budget, Completeness, SearchError, Trip};
use crate::cache::{CacheConfig, CacheStats, ShardedLruCache};
use crate::delta::DeltaIndex;
use crate::miner::PhraseMiner;
use crate::parse::ParseError;
use crate::plan::{
    run_one_shard, run_query_on, ExecContext, ExecStats, NraTuning, QueryPlan, ShardExecutor,
    ShardOutcome,
};
use crate::query::{Operator, Query};
use crate::redundancy::RedundancyConfig;
use crate::request::SearchRequest;
use crate::result::PhraseHit;
use crate::scoring::estimated_interestingness;
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{DocId, FacetId, Feature, WordId};
use ipm_index::backend::{ListBackend, MemoryBackend};
use ipm_index::sharding::{ListShard, ShardedWordLists};
use ipm_obs::{
    Counter, Gauge, Histogram, QueryTrace, Registry, SlowQueryConfig, SlowQueryLog, StageKind,
    TraceMeta, Tracer,
};
use ipm_storage::{
    BlockImage, CostModel, DiskLists, IoStats, PoolConfig, ShardedBlockImage, ShardedDiskImage,
};

/// Which retrieval algorithm serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// NRA over score-ordered lists (paper Alg. 1) — the default.
    #[default]
    Nra,
    /// Sort-merge join over ID-ordered lists (paper Alg. 2).
    Smj,
    /// The threshold algorithm with random probes into the ID-ordered
    /// lists.
    Ta,
    /// The exact scorer (ground truth; linear in `|D'|`).
    Exact,
}

impl Algorithm {
    /// The wire / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Nra => "nra",
            Algorithm::Smj => "smj",
            Algorithm::Ta => "ta",
            Algorithm::Exact => "exact",
        }
    }
}

/// Which list backend serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// The in-memory word lists — the default.
    #[default]
    Memory,
    /// The serialized disk image behind the simulated buffer pool; the
    /// response carries the query's [`IoStats`].
    Disk,
    /// The block-compressed image (`ipm_storage::BlockImage`): bit-packed
    /// 128-entry blocks with skip metadata behind a buffer pool of its
    /// own, charging per-*block* fetches — skipped blocks cost no IO. The
    /// response carries the query's [`IoStats`]; scores are bit-identical
    /// to the memory backend (integer-rational dequantization).
    Block,
}

impl BackendChoice {
    /// The wire / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Memory => "memory",
            BackendChoice::Disk => "disk",
            BackendChoice::Block => "block",
        }
    }
}

/// Per-request options.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Retrieval algorithm.
    pub algorithm: Algorithm,
    /// List backend.
    pub backend: BackendChoice,
    /// Fraction of each score-ordered list NRA may read (`1.0` = full;
    /// ignored by the other algorithms — SMJ's fraction is fixed at build
    /// time, paper §4.4.2). Composes with `redundancy`.
    pub nra_fraction: Option<f64>,
    /// Optional §5.6 redundancy filter applied post-retrieval (the engine
    /// over-fetches until `k` survivors are found or candidates run out).
    pub redundancy: Option<RedundancyConfig>,
    /// Apply the engine's attached §4.5.1 [`DeltaIndex`] corrections —
    /// honoured uniformly by **all four algorithms over both backends and
    /// every shard fanout**, via a [`crate::delta::DeltaOverlay`] wrapped
    /// around each shard backend (the exact scorer uses its delta-aware
    /// arm instead). Per the paper, corrections keep SMJ exact, and this
    /// engine extends that to TA (which surrenders its threshold stop —
    /// the stale order cannot justify it) and the exact scorer, while NRA
    /// stays `Approximate { delta_corrections }`: its pruning bounds were
    /// computed from the stale list order. A no-op when no delta is
    /// attached.
    pub use_delta: bool,
    /// Intra-query shard fanout: run this request over that many disjoint
    /// phrase-id partitions in parallel and merge the per-shard top-k
    /// (exact on the default full-list path; see [`crate::plan`]). `None`
    /// uses the engine's configured default ([`EngineConfig::shards`]);
    /// the planner clamps to [`crate::plan::MAX_SHARDS`].
    pub shards: Option<usize>,
    /// Collect a structured [`QueryTrace`] for this request and return it
    /// in [`SearchResponse::trace`]. Tracing never changes results — the
    /// cache key deliberately excludes this flag, so a traced request
    /// shares cached entries with untraced ones (and a traced cache hit
    /// reports just the probe stages).
    pub trace: bool,
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fraction of each score-ordered list serialized into the lazily
    /// built disk image (`1.0` = full lists). Below `1.0`, disk-backed
    /// NRA automatically runs with partial-list bound semantics (the
    /// truncated tail may hold any phrase), and disk-backed SMJ/TA
    /// become approximate exactly like their in-memory partial-list
    /// counterparts (paper §4.3/§4.4.2).
    pub disk_fraction: f64,
    /// Result-cache sizing; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Default intra-query shard fanout for requests that leave
    /// [`SearchOptions::shards`] unset. `1` (the default) executes
    /// unsharded on the calling thread; `N > 1` splits every list by
    /// phrase-id range into `N` partitions served on `N` scoped threads,
    /// turning per-query latency into a function of core count.
    pub shards: usize,
    /// Buffer-pool geometry of the lazily built disk image(s) — page
    /// size, capacity, lookahead (the paper's §5.5 defaults). Smaller
    /// pages make per-query fetch counts finer-grained, which tightens
    /// what an [`crate::budget::Budget`] IO cap can enforce.
    pub pool: PoolConfig,
    /// Simulated per-fetch costs of the disk image(s) (§5.5 defaults:
    /// 1 ms sequential, 10 ms random).
    pub cost: CostModel,
    /// Keep a ring buffer of traces for queries at or above a wall-time
    /// threshold ([`QueryEngine::slow_queries`]). `None` (the default)
    /// disables the log — and with it the internal tracing it forces on
    /// otherwise-untraced queries.
    pub slow_query: Option<SlowQueryConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            disk_fraction: 1.0,
            cache: Some(CacheConfig::default()),
            shards: 1,
            pool: PoolConfig::default(),
            cost: CostModel::default(),
            slow_query: None,
        }
    }
}

/// One resolved result row.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The raw hit (phrase id, score, bounds).
    pub hit: PhraseHit,
    /// The phrase rendered as text.
    pub text: String,
    /// The score mapped back to an interestingness estimate in `[0, 1]`.
    pub interestingness: f64,
}

/// A served response.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The parsed query that was executed.
    pub query: Query,
    /// Resolved hits, best first.
    pub hits: Vec<SearchHit>,
    /// Wall-clock service time.
    pub elapsed: Duration,
    /// Simulated IO performed by *this* request (disk backend only;
    /// `None` on the memory backend and on cache hits, which perform no
    /// list IO at all). For a sharded disk run this is the aggregate over
    /// all shard pools.
    pub io: Option<IoStats>,
    /// Whether the result came from the query cache.
    pub served_from_cache: bool,
    /// The shard fanout the planner resolved for this request (`1` =
    /// unsharded execution).
    pub shards: usize,
    /// How complete the result is: the exact top-k, an inherently
    /// approximate configuration (partial lists, truncated image, delta
    /// corrections — paper §4.3/§4.4), or a budget-truncated anytime
    /// result. Budget-truncated responses are never cached; cache hits
    /// report the completeness of the exact/approximate entry they serve.
    pub completeness: Completeness,
    /// The structured trace, when [`SearchOptions::trace`] asked for one
    /// (boxed: untraced responses pay one machine word).
    pub trace: Option<Box<QueryTrace>>,
}

/// One `shard_exec` call's execution parameters — what the wire-v5 verb
/// carries beyond the query itself. The coordinator (the in-process
/// fan-out or a remote router) owns fetch depth, seeded floor and batch
/// scaling; the shard just executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardExecParams {
    /// Fetch depth (the coordinator's over-fetch for this round).
    pub fetch: usize,
    /// Total shard fanout the coordinator is scattering over.
    pub fanout: usize,
    /// This shard's index in `[0, fanout)`.
    pub shard: usize,
    /// Seeded NRA defence line (`-∞` when inactive).
    pub floor: f64,
    /// Fanout-scaled NRA prune batch (`None` keeps the configured batch).
    pub batch_size: Option<usize>,
}

/// One member of a [`QueryEngine::execute_batch`] call: the same request
/// surface as [`QueryEngine::execute_with_budget`], with a per-item
/// budget (use [`Budget::none`] for unbudgeted items).
#[derive(Debug)]
pub struct BatchItem<'a> {
    /// The parsed query.
    pub query: Query,
    /// Result size.
    pub k: usize,
    /// Per-item options (algorithm, backend, fanout, ...).
    pub options: SearchOptions,
    /// Per-item execution budget; trips truncate this item only.
    pub budget: &'a Budget,
}

/// One fused batch member's precomputed execution: the shared scan's
/// hits for this member plus its view of the work counters. Carried
/// into `execute_one` in place of an `execute_uncached` run — cache
/// probe/insert, completeness, tracing and response assembly stay on
/// the one shared path.
struct FusedHits {
    hits: Vec<PhraseHit>,
    stats: ExecStats,
}

/// A cloneable, thread-safe handle to an immutable phrase-mining index.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    inner: Arc<Inner>,
}

/// The cache key: every request field that can change the result. Public
/// so request coalescers (e.g. `ipm_server`'s single-flight layer) can key
/// their in-flight maps identically to the result cache — two requests
/// with equal keys are guaranteed to produce equal responses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Encoded features, sorted — feature order never changes results, so
    /// `a AND b` and `b AND a` share an entry.
    features: Vec<u64>,
    op: Operator,
    k: usize,
    algorithm: Algorithm,
    backend: BackendChoice,
    /// `nra_fraction` bit pattern (`1.0` when unset).
    fraction_bits: u64,
    /// `redundancy.max_overlap` bit pattern, when set.
    redundancy_bits: Option<u64>,
    /// Whether delta corrections were requested. Together with `epoch`
    /// this fully determines the delta-corrected result: every delta
    /// mutation bumps the engine's epoch, so entries computed against an
    /// older corpus state simply stop matching.
    use_delta: bool,
    /// The engine's index **epoch** at key-build time — a monotonic
    /// counter bumped by every observable index mutation (ingest, delete,
    /// delta attach/update/detach that changes state, compaction).
    /// Epoch-tagging replaces wholesale `cache.clear()` on mutation:
    /// stale-epoch entries miss naturally and age out of the LRU, while
    /// read-heavy workloads keep their warm entries untouched across
    /// unrelated mutations of *other* engines and across no-op updates.
    epoch: u64,
    /// The planner-resolved shard fanout (request override or engine
    /// default, clamped). Approximate paths (partial fractions, truncated
    /// images, delta corrections) can legitimately return different
    /// results under different shard layouts, so cached entries must
    /// never be shared across fanouts — but requests that *resolve* to
    /// the same fanout (e.g. `None` vs an explicit default) share one
    /// entry.
    shards: usize,
}

impl CacheKey {
    /// Builds the key for one request. `resolved_shards` is the fanout
    /// the planner resolved for it ([`QueryPlan::resolve`] — resolve
    /// once, key once), so requests that resolve identically share one
    /// entry; `epoch` is the engine's index epoch
    /// ([`QueryEngine::epoch`]) the request executes against.
    pub fn new(
        query: &Query,
        k: usize,
        options: &SearchOptions,
        resolved_shards: usize,
        epoch: u64,
    ) -> Self {
        let mut features: Vec<u64> = query.features.iter().map(|f| f.encode()).collect();
        features.sort_unstable();
        Self {
            features,
            op: query.op,
            k,
            algorithm: options.algorithm,
            backend: options.backend,
            fraction_bits: options.nra_fraction.unwrap_or(1.0).to_bits(),
            redundancy_bits: options.redundancy.as_ref().map(|r| r.max_overlap.to_bits()),
            use_delta: options.use_delta,
            shards: resolved_shards,
            epoch,
        }
    }
}

/// Most distinct shard layouts the engine keeps cached at once. The
/// fanout is client-controllable per request (CLI flag, wire field) and
/// every layout pins a full copy of the word lists (plus, after a
/// disk-backed request, a serialized disk image) — without a bound, a
/// client sweeping fanouts 2..=64 would pin ~63 index-sized copies and
/// OOM the server. Least-recently-used non-default layouts are evicted;
/// in-flight queries keep theirs alive through their `Arc`.
const MAX_CACHED_LAYOUTS: usize = 4;

/// One lazily built shard layout: the in-memory partitions, plus (once a
/// disk-backed sharded request arrives) their serialized disk images.
#[derive(Debug)]
struct ShardedIndex {
    mem: ShardedWordLists,
    disk: OnceLock<ShardedDiskImage>,
    /// Lazily built block-compressed images, one per shard (first
    /// block-backed sharded request pays the encode).
    block: OnceLock<ShardedBlockImage>,
    /// Eviction stamp (engine-wide logical clock; larger = more recent).
    last_used: AtomicU64,
}

/// One immutable generation of the index: the miner plus every layout
/// lazily derived from it (disk image, shard layouts). Compaction builds
/// a fresh `IndexState` offline and swaps it in atomically; in-flight
/// queries keep serving from the generation their snapshot pinned.
#[derive(Debug)]
struct IndexState {
    miner: Arc<PhraseMiner>,
    /// Lazily built disk image (first disk-backed request pays the build).
    disk: OnceLock<Arc<DiskLists>>,
    /// Lazily built block-compressed image (first block-backed request
    /// pays the encode).
    block: OnceLock<Arc<BlockImage>>,
    /// Lazily built shard layouts, keyed by fanout (a request may ask for
    /// any fanout; layouts are built once and reused, bounded by
    /// [`MAX_CACHED_LAYOUTS`] with LRU eviction).
    sharded: RwLock<FxHashMap<usize, Arc<ShardedIndex>>>,
    /// Logical clock stamping layout use for eviction.
    layout_clock: AtomicU64,
}

impl IndexState {
    fn new(miner: Arc<PhraseMiner>) -> Self {
        Self {
            miner,
            disk: OnceLock::new(),
            block: OnceLock::new(),
            sharded: RwLock::new(FxHashMap::default()),
            layout_clock: AtomicU64::new(0),
        }
    }
}

/// The mutable head of the engine: which index generation serves, which
/// delta corrects it, and the epoch that names this exact combination.
/// Readers snapshot the whole struct under one read lock (three cheap
/// `Arc` clones), so a query always sees a *consistent* (epoch, index,
/// delta) triple — never a new epoch with an old delta or vice versa.
#[derive(Debug, Clone)]
struct LiveState {
    /// Monotonic index epoch: bumped by every observable mutation
    /// (ingest, delete, state-changing delta attach/update/detach,
    /// compaction). Tags every [`CacheKey`].
    epoch: u64,
    index: Arc<IndexState>,
    /// The attached §4.5.1 side index over inserted/deleted documents;
    /// `None` until an ingest/delete/[`QueryEngine::attach_delta`].
    delta: Option<Arc<DeltaIndex>>,
}

/// What [`QueryEngine::compact`] reports.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Whether a rebuild actually happened (`false` when the delta was
    /// empty or absent — compaction is then a no-op and the epoch does
    /// not move).
    pub compacted: bool,
    /// The epoch serving *after* the call.
    pub epoch: u64,
    /// Documents in the (possibly rebuilt) corpus.
    pub docs: usize,
    /// Phrases in the (possibly rebuilt) dictionary.
    pub phrases: usize,
    /// Added documents the rebuild absorbed.
    pub absorbed_adds: usize,
    /// Deletions the rebuild absorbed.
    pub absorbed_deletes: usize,
    /// Wall-clock cost of the rebuild (zero for a no-op).
    pub elapsed: Duration,
}

/// A snapshot of the engine's lifecycle counters (served by the wire
/// protocol's `stats` verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Current index epoch.
    pub epoch: u64,
    /// Documents ingested since engine construction.
    pub ingested: u64,
    /// Documents deleted since engine construction.
    pub deleted: u64,
    /// Compactions performed (no-ops excluded).
    pub compactions: u64,
    /// Documents currently tracked by the attached delta
    /// (added + deleted; `0` when no delta is attached).
    pub delta_docs: usize,
}

/// Aggregated list-access counters of one backend across every query the
/// engine served (uncached executions only — cache hits touch no lists).
/// Served by [`QueryEngine::access_totals`] and mirrored as the
/// per-backend `ipm_list_*` metric series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTotals {
    /// Sorted (sequential list) entry accesses.
    pub sorted_accesses: u64,
    /// Random accesses (TA probes, NRA resolution probes).
    pub random_probes: u64,
    /// Entries skipped via block-max metadata.
    pub entries_skipped: u64,
    /// Algorithm loop progress (NRA prune rounds, SMJ merge steps).
    pub rounds: u64,
}

/// Per-backend registry handles (one set per [`BackendChoice`]).
#[derive(Debug)]
struct BackendCounters {
    sorted_accesses: Counter,
    random_probes: Counter,
    entries_skipped: Counter,
    rounds: Counter,
}

/// The engine's observability surface: one [`Registry`] shared with
/// whoever embeds the engine (the server registers its own families on
/// it), pre-registered handles for everything the query path bumps, and
/// the optional slow-query ring.
#[derive(Debug)]
struct EngineObs {
    registry: Arc<Registry>,
    /// `ipm_queries_served_total` — kept in lockstep with `Inner::served`
    /// so the latency histogram's `_count` equals the served total.
    queries_served: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    sharded_queries: Counter,
    latency: Histogram,
    /// Batch-execution families: planner groups formed, items executed,
    /// group-size distribution, list walks saved by fused shared scans.
    batch_groups: Counter,
    batch_items: Counter,
    batch_group_size: Histogram,
    fused_saved: Counter,
    trip_deadline: Counter,
    trip_io: Counter,
    trip_steps: Counter,
    io_sequential: Counter,
    io_random: Counter,
    io_pool_hits: Counter,
    docs_ingested: Counter,
    docs_deleted: Counter,
    compactions: Counter,
    slow_queries: Counter,
    epoch: Gauge,
    delta_docs: Gauge,
    delta_corrections: Gauge,
    cached_layouts: Gauge,
    /// Indexed like [`BackendChoice`]: memory, disk, block.
    backends: [BackendCounters; 3],
    slow: Option<Arc<SlowQueryLog>>,
}

impl EngineObs {
    fn new(slow_query: Option<SlowQueryConfig>) -> Self {
        let registry = Arc::new(Registry::default());
        let r = &registry;
        let backend = |name: &'static str| BackendCounters {
            sorted_accesses: r.counter_with(
                "ipm_list_sorted_accesses_total",
                "Sorted list entry accesses across all served queries",
                &[("backend", name)],
            ),
            random_probes: r.counter_with(
                "ipm_list_random_probes_total",
                "Random list probes across all served queries",
                &[("backend", name)],
            ),
            entries_skipped: r.counter_with(
                "ipm_block_entries_skipped_total",
                "List entries skipped via block-max metadata",
                &[("backend", name)],
            ),
            rounds: r.counter_with(
                "ipm_algorithm_rounds_total",
                "Algorithm loop rounds (NRA prune rounds, SMJ merge steps)",
                &[("backend", name)],
            ),
        };
        Self {
            queries_served: r.counter(
                "ipm_queries_served_total",
                "Queries served, cache hits included",
            ),
            cache_hits: r.counter("ipm_cache_hits_total", "Result-cache hits"),
            cache_misses: r.counter("ipm_cache_misses_total", "Result-cache misses"),
            sharded_queries: r.counter(
                "ipm_queries_sharded_total",
                "Uncached executions that fanned out to more than one shard",
            ),
            latency: r.histogram(
                "ipm_query_latency_seconds",
                "End-to-end engine service time per query (cache hits included)",
            ),
            batch_groups: r.counter(
                "ipm_batch_groups_total",
                "Shared-scan groups formed by the batch planner",
            ),
            batch_items: r.counter(
                "ipm_batch_items_total",
                "Queries executed through the batch path",
            ),
            batch_group_size: r.histogram(
                "ipm_batch_group_size",
                "Members per shared-scan batch group",
            ),
            fused_saved: r.counter(
                "ipm_batch_fused_scans_saved_total",
                "Word-list walks saved by fused batch groups: each fused member's distinct \
                 words summed, minus the distinct words the group's shared scan walked",
            ),
            trip_deadline: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "deadline")],
            ),
            trip_io: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "io")],
            ),
            trip_steps: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "steps")],
            ),
            io_sequential: r.counter_with(
                "ipm_io_fetches_total",
                "Simulated page fetches across all disk/block-backed queries",
                &[("kind", "sequential")],
            ),
            io_random: r.counter_with(
                "ipm_io_fetches_total",
                "Simulated page fetches across all disk/block-backed queries",
                &[("kind", "random")],
            ),
            io_pool_hits: r.counter(
                "ipm_io_pool_hits_total",
                "Buffer-pool page hits across all disk/block-backed queries",
            ),
            docs_ingested: r.counter(
                "ipm_docs_ingested_total",
                "Documents ingested since engine construction",
            ),
            docs_deleted: r.counter(
                "ipm_docs_deleted_total",
                "Documents deleted since engine construction",
            ),
            compactions: r.counter("ipm_compactions_total", "Compactions performed"),
            slow_queries: r.counter(
                "ipm_slow_queries_total",
                "Queries at or above the slow-query threshold",
            ),
            epoch: r.gauge("ipm_index_epoch", "Current index epoch"),
            delta_docs: r.gauge(
                "ipm_delta_docs",
                "Documents tracked by the attached delta (added + deleted)",
            ),
            delta_corrections: r.gauge(
                "ipm_delta_corrections",
                "P(q|p) corrections served by the live delta (dies with it at compaction)",
            ),
            cached_layouts: r.gauge(
                "ipm_cached_layouts",
                "Shard layouts cached by the serving generation",
            ),
            backends: [backend("memory"), backend("disk"), backend("block")],
            slow: slow_query.map(|c| Arc::new(SlowQueryLog::new(c))),
            registry,
        }
    }

    fn backend(&self, choice: BackendChoice) -> &BackendCounters {
        match choice {
            BackendChoice::Memory => &self.backends[0],
            BackendChoice::Disk => &self.backends[1],
            BackendChoice::Block => &self.backends[2],
        }
    }

    /// Feeds one uncached execution's counters into the registry.
    fn record_execution(&self, backend: BackendChoice, stats: &ExecStats, io: Option<&IoStats>) {
        let b = self.backend(backend);
        b.sorted_accesses.add(stats.sorted_accesses);
        b.random_probes.add(stats.random_probes);
        b.entries_skipped.add(stats.entries_skipped);
        b.rounds.add(stats.rounds);
        if let Some(io) = io {
            self.io_sequential.add(io.sequential_fetches);
            self.io_random.add(io.random_fetches);
            self.io_pool_hits.add(io.cache_hits);
        }
    }
}

/// The trace/display label of a completeness outcome (`exact`,
/// `approximate:<reason>`, `truncated:<kind>`).
fn completeness_label(c: &Completeness) -> String {
    match c {
        Completeness::Exact => "exact".to_owned(),
        Completeness::Approximate { reason } => format!("approximate:{}", reason.name()),
        Completeness::Truncated { budget_hit } => format!("truncated:{}", budget_hit.name()),
    }
}

#[derive(Debug)]
struct Inner {
    /// The serving head. Queries take a brief read lock to snapshot it;
    /// mutators write-lock only for the O(1) swap/bump itself.
    live: RwLock<LiveState>,
    /// Serializes the *mutators* (ingest, delete, delta attach/detach,
    /// compaction) without ever blocking queries: compaction holds this
    /// across its whole offline rebuild so the delta it flushes cannot
    /// grow underneath it, while the read path keeps serving the old
    /// generation until the swap.
    maintenance: Mutex<()>,
    disk_fraction: f64,
    /// Buffer-pool geometry / cost model every disk image is built with.
    pool: PoolConfig,
    cost: CostModel,
    /// Serializes disk-backed execution for exact per-query IO accounting
    /// over the shared simulated pool. Held across a whole sharded fan-out
    /// too: shards of *one* query run in parallel against their own pools,
    /// but two concurrent queries must not interleave.
    disk_gate: Mutex<()>,
    cache: Option<ShardedLruCache<CacheKey, Arc<Vec<SearchHit>>>>,
    /// Default shard fanout for requests that don't specify one.
    default_shards: usize,
    /// Uncached executions that fanned out to more than one shard.
    sharded_queries: AtomicU64,
    served: AtomicU64,
    /// Lifecycle counters (see [`LifecycleStats`]).
    ingested: AtomicU64,
    deleted: AtomicU64,
    compactions: AtomicU64,
    /// Simulated IO accumulated across every disk-backed query served
    /// (cache hits add nothing — they perform no list IO).
    io_totals: Mutex<IoStats>,
    /// Metrics registry, pre-registered handles and the slow-query ring.
    obs: EngineObs,
}

// Every index generation is immutable after build and the mutable head is
// swapped atomically; a compile-time check that the engine really is
// shareable keeps that invariant honest.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
};

impl QueryEngine {
    /// Wraps a built miner with the default configuration (full-fraction
    /// lazy disk image, default-sized cache).
    pub fn new(miner: PhraseMiner) -> Self {
        Self::with_config(miner, EngineConfig::default())
    }

    /// Wraps a built miner with explicit engine options.
    pub fn with_config(miner: PhraseMiner, config: EngineConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                live: RwLock::new(LiveState {
                    epoch: 0,
                    index: Arc::new(IndexState::new(Arc::new(miner))),
                    delta: None,
                }),
                maintenance: Mutex::new(()),
                disk_fraction: config.disk_fraction,
                pool: config.pool,
                cost: config.cost,
                disk_gate: Mutex::new(()),
                cache: config.cache.map(ShardedLruCache::new),
                default_shards: config.shards.max(1),
                sharded_queries: AtomicU64::new(0),
                served: AtomicU64::new(0),
                ingested: AtomicU64::new(0),
                deleted: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
                io_totals: Mutex::new(IoStats::default()),
                obs: EngineObs::new(config.slow_query),
            }),
        }
    }

    /// A consistent snapshot of the serving head.
    fn live(&self) -> LiveState {
        self.inner.live.read().unwrap().clone()
    }

    /// The miner of the currently serving index generation (for direct
    /// algorithm access). The handle pins its generation: it stays valid
    /// — and keeps answering from the pre-swap state — across a
    /// concurrent [`QueryEngine::compact`].
    pub fn miner(&self) -> Arc<PhraseMiner> {
        self.inner.live.read().unwrap().index.miner.clone()
    }

    /// The current index epoch: a monotonic counter bumped by every
    /// observable index mutation (ingest, delete, state-changing delta
    /// attach/update/detach, compaction). Tags every [`CacheKey`], so
    /// mutations invalidate cached results by *missing* instead of by
    /// clearing.
    pub fn epoch(&self) -> u64 {
        self.inner.live.read().unwrap().epoch
    }

    /// The current generation's disk image, building it on first use.
    pub fn disk(&self) -> Arc<DiskLists> {
        let state = self.live().index;
        self.disk_for(&state)
    }

    fn disk_for(&self, state: &IndexState) -> Arc<DiskLists> {
        state
            .disk
            .get_or_init(|| {
                Arc::new(state.miner.to_disk_with(
                    self.inner.disk_fraction,
                    self.inner.pool,
                    self.inner.cost,
                ))
            })
            .clone()
    }

    /// The current generation's block-compressed image, encoding it on
    /// first use ([`EngineConfig::disk_fraction`] applies here too: both
    /// simulated images truncate at the same build-time cut).
    pub fn block(&self) -> Arc<BlockImage> {
        let state = self.live().index;
        self.block_for(&state)
    }

    fn block_for(&self, state: &IndexState) -> Arc<BlockImage> {
        state
            .block
            .get_or_init(|| {
                Arc::new(state.miner.to_block_with(
                    self.inner.disk_fraction,
                    self.inner.pool,
                    self.inner.cost,
                ))
            })
            .clone()
    }

    /// Queries served across all clones of this engine (cache hits
    /// included).
    pub fn queries_served(&self) -> u64 {
        // lint-allow: relaxed-ordering — monotonic query counter, read only for exposition
        self.inner.served.load(Ordering::Relaxed)
    }

    /// The configured default shard fanout ([`EngineConfig::shards`]).
    pub fn default_shards(&self) -> usize {
        self.inner.default_shards
    }

    /// Uncached executions that fanned out across more than one shard
    /// (cache hits are not counted — they run nothing).
    pub fn sharded_queries(&self) -> u64 {
        // lint-allow: relaxed-ordering — monotonic query counter, read only for exposition
        self.inner.sharded_queries.load(Ordering::Relaxed)
    }

    /// Number of shard layouts currently cached by the serving generation
    /// (bounded by `MAX_CACHED_LAYOUTS`).
    pub fn cached_layouts(&self) -> usize {
        self.live().index.sharded.read().unwrap().len()
    }

    /// The shard layout for fanout `n` within one index generation,
    /// building it on first use and evicting the least-recently-used
    /// non-default layout past the cap.
    fn sharded_index(&self, state: &IndexState, n: usize) -> Arc<ShardedIndex> {
        // lint-allow: relaxed-ordering — LRU recency clock; skew only costs a suboptimal eviction victim
        let stamp = state.layout_clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(idx) = state.sharded.read().unwrap().get(&n) {
            // lint-allow: relaxed-ordering — LRU recency stamp; skew only costs a suboptimal eviction victim
            idx.last_used.store(stamp, Ordering::Relaxed);
            return idx.clone();
        }
        let mut map = state.sharded.write().unwrap();
        if let Some(idx) = map.get(&n) {
            // lint-allow: relaxed-ordering — LRU recency stamp; skew only costs a suboptimal eviction victim
            idx.last_used.store(stamp, Ordering::Relaxed);
            return idx.clone();
        }
        while map.len() >= MAX_CACHED_LAYOUTS {
            let victim = map
                .iter()
                .filter(|&(&key, _)| key != self.inner.default_shards)
                // lint-allow: relaxed-ordering — LRU recency read; skew only costs a suboptimal eviction victim
                .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(&key, _)| key);
            match victim {
                Some(key) => {
                    map.remove(&key);
                }
                None => break,
            }
        }
        let m = &state.miner;
        let idx = Arc::new(ShardedIndex {
            mem: ShardedWordLists::build(m.lists(), m.id_lists(), m.index().dict.len(), n),
            disk: OnceLock::new(),
            block: OnceLock::new(),
            last_used: AtomicU64::new(stamp),
        });
        map.insert(n, idx.clone());
        idx
    }

    /// Result-cache hit/miss counters (all zero when the cache is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner
            .cache
            .as_ref()
            .map(ShardedLruCache::stats)
            .unwrap_or_default()
    }

    /// Drops every cached result (counters keep accumulating).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.inner.cache {
            // lint-allow: cache-clear — the admin escape hatch is the one sanctioned wholesale clear; serving invalidates by epoch key
            cache.clear();
        }
    }

    /// Simulated IO accumulated across all disk-backed queries served by
    /// every clone of this engine (cache hits contribute nothing).
    pub fn io_totals(&self) -> IoStats {
        *self.inner.io_totals.lock().unwrap()
    }

    /// The engine's metrics registry. Shared across clones; embedders
    /// (e.g. the server) register their own families on it so one
    /// [`QueryEngine::render_metrics`] call exposes everything.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        self.inner.obs.registry.clone()
    }

    /// Renders the full metrics surface in Prometheus text exposition
    /// format, refreshing the point-in-time gauges (epoch, delta size,
    /// cached layouts) first.
    pub fn render_metrics(&self) -> String {
        let obs = &self.inner.obs;
        {
            let live = self.inner.live.read().unwrap();
            obs.epoch.set(live.epoch);
            obs.delta_docs.set(
                live.delta
                    .as_ref()
                    .map(|d| (d.num_added() + d.num_deleted()) as u64)
                    .unwrap_or(0),
            );
            obs.delta_corrections.set(
                live.delta
                    .as_ref()
                    .map(|d| d.corrections_applied())
                    .unwrap_or(0),
            );
            obs.cached_layouts
                .set(live.index.sharded.read().unwrap().len() as u64);
        }
        obs.registry.render()
    }

    /// Aggregated list-access counters for one backend across every query
    /// served (the per-backend `ipm_list_*` series, as numbers).
    pub fn access_totals(&self, backend: BackendChoice) -> AccessTotals {
        let b = self.inner.obs.backend(backend);
        AccessTotals {
            sorted_accesses: b.sorted_accesses.get(),
            random_probes: b.random_probes.get(),
            entries_skipped: b.entries_skipped.get(),
            rounds: b.rounds.get(),
        }
    }

    /// The slow-query log, when [`EngineConfig::slow_query`] enabled one.
    pub fn slow_queries(&self) -> Option<Arc<SlowQueryLog>> {
        self.inner.obs.slow.clone()
    }

    /// The per-query latency histogram's snapshot (the
    /// `ipm_query_latency_seconds` family, as numbers — its count equals
    /// [`QueryEngine::queries_served`]).
    pub fn latency_snapshot(&self) -> ipm_obs::HistogramSnapshot {
        self.inner.obs.latency.snapshot()
    }

    /// Attaches (or replaces) the §4.5.1 side index. Bumps the index
    /// epoch — invalidating cached results by key mismatch — but only if
    /// the swap actually changes observable state: replacing nothing (or
    /// an empty delta) with another empty delta leaves every cached
    /// result valid and the epoch untouched.
    pub fn attach_delta(&self, delta: DeltaIndex) {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let was_active = live.delta.as_ref().is_some_and(|d| !d.is_empty());
        let now_active = !delta.is_empty();
        live.delta = Some(Arc::new(delta));
        if was_active || now_active {
            live.epoch += 1;
        }
    }

    /// Mutates the attached delta in place (attaching an empty one first
    /// if none is present). The epoch is bumped only when the closure
    /// actually changed the delta ([`DeltaIndex::fingerprint`] moved) —
    /// a no-op update costs no cached result. Use for ongoing ingestion:
    /// `engine.update_delta(|d| d.add_document(...))`.
    pub fn update_delta(&self, f: impl FnOnce(&mut DeltaIndex)) {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let delta = live.delta.get_or_insert_with(Default::default);
        let before = delta.fingerprint();
        f(Arc::make_mut(delta));
        if delta.fingerprint() != before {
            live.epoch += 1;
        }
    }

    /// Detaches the side index (e.g. after an offline rebuild absorbed
    /// it). Bumps the epoch only when a non-empty delta was actually
    /// detached — detaching nothing changes nothing.
    pub fn detach_delta(&self) {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let was_active = live.delta.as_ref().is_some_and(|d| !d.is_empty());
        live.delta = None;
        if was_active {
            live.epoch += 1;
        }
    }

    /// A snapshot handle to the attached delta, if any.
    pub fn delta(&self) -> Option<Arc<DeltaIndex>> {
        self.inner.live.read().unwrap().delta.clone()
    }

    /// Ingests one document into the serving index's §4.5.1 side index:
    /// the live lists stay untouched, `use_delta` queries see the
    /// document immediately through corrected probabilities, and the next
    /// [`QueryEngine::compact`] folds it into a full rebuild. Tokens are
    /// word ids of the *current* vocabulary (the wire layer resolves
    /// strings; out-of-vocabulary words can only enter at a rebuild).
    /// Bumps the epoch.
    pub fn ingest_document(&self, tokens: &[WordId], facets: &[FacetId]) {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let index = live.index.clone();
        let delta = Arc::make_mut(live.delta.get_or_insert_with(Default::default));
        delta.add_document(index.miner.index(), tokens, facets);
        live.epoch += 1;
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.ingested.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.docs_ingested.inc();
    }

    /// Batched [`QueryEngine::ingest_document`]: one maintenance-lock
    /// acquisition and one epoch bump for the whole batch.
    pub fn ingest_documents(&self, docs: &[(Vec<WordId>, Vec<FacetId>)]) {
        if docs.is_empty() {
            return;
        }
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let index = live.index.clone();
        let delta = Arc::make_mut(live.delta.get_or_insert_with(Default::default));
        for (tokens, facets) in docs {
            delta.add_document(index.miner.index(), tokens, facets);
        }
        live.epoch += 1;
        self.inner
            .ingested
            // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        self.inner.obs.docs_ingested.add(docs.len() as u64);
    }

    /// Marks a document of the serving corpus deleted (through the side
    /// index; the postings stay untouched until compaction). Returns
    /// `false` — with no epoch bump and no cache impact — when `doc` is
    /// out of range or already deleted.
    pub fn delete_document(&self, doc: DocId) -> bool {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        if doc.index() >= live.index.miner.corpus().num_docs() {
            return false;
        }
        if live.delta.as_ref().is_some_and(|d| d.is_deleted(doc)) {
            return false;
        }
        let delta = Arc::make_mut(live.delta.get_or_insert_with(Default::default));
        delta.delete_document(doc);
        live.epoch += 1;
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.deleted.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.docs_deleted.inc();
        true
    }

    /// Flushes the delta into a **full offline rebuild** — the third leg
    /// of the paper's §4.5.1 contract ("periodically, the [side index] is
    /// flushed and the list indexes are re-constructed"):
    ///
    /// 1. snapshot the serving generation and its delta (the maintenance
    ///    lock keeps the delta frozen; queries keep serving throughout);
    /// 2. reconstruct the corpus — surviving base documents plus every
    ///    ingested document, over the *same shared vocabulary* — and
    ///    rebuild the miner (dictionary, postings, forward lists, both
    ///    word-list orders) from scratch; new phrases and pairs the delta
    ///    had to defer now enter the lists;
    /// 3. atomically swap the new generation in, drop the delta, and bump
    ///    the epoch. Lazily derived layouts (disk image, shard layouts)
    ///    rebuild on first use against the new lists.
    ///
    /// After the swap the delta is empty, so all four algorithms answer
    /// `Exact` again (`use_delta` becomes a no-op until the next ingest).
    /// Ingest/delete calls block for the duration of the rebuild (they
    /// share the maintenance lock); queries never do — they serve the
    /// pre-swap generation until the O(1) swap, which is the behaviour
    /// the server relies on to keep compaction off the query path.
    ///
    /// A call with no attached (or an empty) delta is a no-op that
    /// reports `compacted: false` and leaves the epoch untouched.
    pub fn compact(&self) -> CompactionReport {
        let start = Instant::now();
        let _m = self.inner.maintenance.lock().unwrap();
        let snap = self.live();
        let delta = snap.delta.as_ref().filter(|d| !d.is_empty());
        let miner = &snap.index.miner;
        let Some(delta) = delta else {
            return CompactionReport {
                compacted: false,
                epoch: snap.epoch,
                docs: miner.corpus().num_docs(),
                phrases: miner.index().dict.len(),
                absorbed_adds: 0,
                absorbed_deletes: 0,
                elapsed: Duration::ZERO,
            };
        };
        // Offline rebuild (queries keep serving `snap.index`): surviving
        // base docs + ingested docs over the shared vocabulary.
        let mut docs: Vec<(Vec<WordId>, Vec<FacetId>)> =
            Vec::with_capacity(miner.corpus().num_docs() + delta.num_added());
        for d in miner.corpus().docs() {
            if !delta.is_deleted(d.id) {
                docs.push((d.tokens.clone(), d.facets.clone()));
            }
        }
        for (tokens, facets) in delta.added_docs() {
            docs.push((tokens.clone(), facets.clone()));
        }
        let new_corpus = miner.corpus().with_docs(docs);
        let new_miner = Arc::new(PhraseMiner::build(&new_corpus, miner.config().clone()));
        let report = CompactionReport {
            compacted: true,
            epoch: 0, // patched below, after the swap fixes the epoch
            docs: new_corpus.num_docs(),
            phrases: new_miner.index().dict.len(),
            absorbed_adds: delta.num_added(),
            absorbed_deletes: delta.num_deleted(),
            elapsed: Duration::ZERO,
        };
        let epoch = {
            let mut live = self.inner.live.write().unwrap();
            live.index = Arc::new(IndexState::new(new_miner));
            live.delta = None;
            live.epoch += 1;
            live.epoch
        };
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.compactions.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.compactions.inc();
        CompactionReport {
            epoch,
            elapsed: start.elapsed(),
            ..report
        }
    }

    /// Lifecycle counters: epoch, ingest/delete/compaction totals, and
    /// the live delta's size.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        let live = self.inner.live.read().unwrap();
        LifecycleStats {
            epoch: live.epoch,
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            ingested: self.inner.ingested.load(Ordering::Relaxed),
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            deleted: self.inner.deleted.load(Ordering::Relaxed),
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            delta_docs: live
                .delta
                .as_ref()
                .map(|d| d.num_added() + d.num_deleted())
                .unwrap_or(0),
        }
    }

    /// Starts a budgeted, cancellable request for a query string — the
    /// canonical API; `search`/`search_with`/`execute` are thin shims
    /// over the same path.
    ///
    /// ```text
    /// engine.request("trade AND reserves")
    ///     .k(10)
    ///     .algorithm(Algorithm::Nra)
    ///     .backend(BackendChoice::Disk)
    ///     .shards(4)
    ///     .deadline(Duration::from_millis(50))
    ///     .io_budget(10_000)
    ///     .cancel_token(token)
    ///     .run()?;
    /// ```
    pub fn request(&self, input: impl Into<String>) -> SearchRequest<'_> {
        SearchRequest::new(self, input.into())
    }

    /// [`QueryEngine::request`] for an already-parsed [`Query`].
    pub fn request_query(&self, query: Query) -> SearchRequest<'_> {
        SearchRequest::for_query(self, query)
    }

    /// Parses and serves a string query (`"trade AND reserves"`,
    /// `"topic:t04 OR minister"`) with default options. A shim over
    /// [`QueryEngine::request`] with an unlimited budget.
    ///
    /// # Errors
    /// Returns the parse error for malformed input or unknown terms.
    pub fn search(&self, input: &str, k: usize) -> Result<SearchResponse, ParseError> {
        self.search_with(input, k, &SearchOptions::default())
    }

    /// Parses and serves a string query with explicit options. A shim
    /// over [`QueryEngine::request`] with an unlimited budget.
    ///
    /// # Errors
    /// Returns the parse error for malformed input or unknown terms.
    pub fn search_with(
        &self,
        input: &str,
        k: usize,
        options: &SearchOptions,
    ) -> Result<SearchResponse, ParseError> {
        let query = self.miner().parse_query_str(input)?;
        Ok(self.execute(query, k, options))
    }

    /// Serves an already-parsed query with an unlimited budget — the
    /// legacy shim over [`QueryEngine::execute_with_budget`] (which is
    /// infallible without a deadline or cancel token).
    pub fn execute(&self, query: Query, k: usize, options: &SearchOptions) -> SearchResponse {
        self.execute_with_budget(query, k, options, Budget::none())
            .expect("an unlimited budget cannot fail")
    }

    /// Serves an already-parsed query under an execution [`Budget`]:
    /// planner, dead-on-arrival check, cache lookup, then the (possibly
    /// sharded) executor with cooperative budget checks in every
    /// algorithm loop. The single code path behind every public entry
    /// point.
    ///
    /// A budget that trips *during* execution yields `Ok` with
    /// [`Completeness::Truncated`] — the anytime result at the stopping
    /// point (such responses are never cached). Cache hits perform no
    /// list work and satisfy any budget.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the deadline expired before
    /// execution started; [`SearchError::Cancelled`] when the cancel
    /// token fired before or during execution.
    pub fn execute_with_budget(
        &self,
        query: Query,
        k: usize,
        options: &SearchOptions,
        budget: &Budget,
    ) -> Result<SearchResponse, SearchError> {
        // Snapshot the serving head once: a consistent (epoch, index,
        // delta) triple. Everything below — cache key, completeness,
        // execution — works off this snapshot, so a concurrent ingest or
        // compaction never mixes generations within one request.
        let live = self.live();
        self.execute_one(&live, query, k, options, budget, None)
    }

    /// Serves several parsed queries as one batch: a single live-state
    /// snapshot, the [`crate::plan::BatchPlan`] planner grouping items
    /// that share query words (within one execution-config class), a
    /// fused shared scan walking each group's distinct word lists **once**
    /// for all eligible members (`fused.rs`), so each list — and, on the
    /// block backend, each encoded block — is read and decoded once per
    /// group instead of once per query. Results come back in input order.
    ///
    /// **Parity contract**: every item returns exactly what its own
    /// [`QueryEngine::execute_with_budget`] call would have returned
    /// against the same snapshot — bit-identical hits, the same per-item
    /// [`Completeness`], per-item budgets still honored via their sticky
    /// trips (budgeted members always take the per-item path; the shared
    /// scan fuses only fully unbudgeted members). The one observable
    /// difference: a fused member reports `io: None`, because the group's
    /// shared scan cannot be attributed to single items — the group's
    /// combined [`IoStats`] still lands in [`QueryEngine::io_totals`].
    /// Grouping changes execution *order*, never hits.
    pub fn execute_batch(
        &self,
        items: Vec<BatchItem<'_>>,
    ) -> Vec<Result<SearchResponse, SearchError>> {
        let obs = &self.inner.obs;
        let live = self.live();
        let plan = crate::plan::BatchPlan::group(
            items.iter().map(|it| (&it.query, &it.options)),
            self.inner.default_shards,
        );
        obs.batch_items.add(items.len() as u64);
        obs.batch_groups.add(plan.groups.len() as u64);
        let mut items: Vec<Option<BatchItem<'_>>> = items.into_iter().map(Some).collect();
        let mut out: Vec<Option<Result<SearchResponse, SearchError>>> =
            (0..items.len()).map(|_| None).collect();
        for group in &plan.groups {
            obs.batch_group_size
                .observe_seconds(group.members.len() as f64);
            let mut fused = self.try_fuse_group(&live, &items, &group.members);
            for &i in &group.members {
                let item = items[i].take().expect("planner emits each item once");
                out[i] = Some(self.execute_one(
                    &live,
                    item.query,
                    item.k,
                    &item.options,
                    item.budget,
                    fused.remove(&i),
                ));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every item executed"))
            .collect()
    }

    /// Attempts the shared-scan fused execution for one batch group.
    /// Eligible members — single-shard SMJ on the memory or block
    /// backend, no redundancy filter, no live delta, fully unlimited
    /// budget, not already result-cached — are served by **one**
    /// synchronized walk over the group's distinct word lists
    /// ([`crate::fused::run_fused_smj`]), each list walked once for the
    /// whole group; the walks this saves over serial execution are booked
    /// to `ipm_batch_fused_scans_saved_total`. Returns each fused member's
    /// hits keyed by item index; members absent from the map (and groups
    /// that don't qualify at all) fall back to the per-item path, which
    /// keeps budget truncation, NRA/TA/exact semantics, redundancy
    /// filtering and sharded fanout trivially identical to serial
    /// execution.
    fn try_fuse_group(
        &self,
        live: &LiveState,
        items: &[Option<BatchItem<'_>>],
        members: &[usize],
    ) -> FxHashMap<usize, FusedHits> {
        let mut fused = FxHashMap::default();
        if members.len() < 2 {
            return fused;
        }
        // The planner groups within one execution-config class, so the
        // group-wide gates can read any member's options.
        let first = items[members[0]].as_ref().expect("member not yet taken");
        let plan = QueryPlan::resolve(&first.options, self.inner.default_shards);
        if plan.algorithm != Algorithm::Smj
            || plan.shards != 1
            || !matches!(plan.backend, BackendChoice::Memory | BackendChoice::Block)
            || first.options.redundancy.is_some()
        {
            return fused;
        }
        // Delta corrections ride the per-item overlay seam.
        if first.options.use_delta && live.delta.as_ref().is_some_and(|d| !d.is_empty()) {
            return fused;
        }
        // Per-member gates: a budget's trip point depends on the item's
        // own traversal order, which a shared scan does not reproduce;
        // result-cached items skip list work entirely. `peek` leaves the
        // result cache's recency order and hit/miss counters untouched —
        // the real probe in `execute_one` still books the hit.
        let eligible: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| {
                let it = items[i].as_ref().expect("member not yet taken");
                it.k > 0
                    && it.budget.is_unlimited()
                    && !self.inner.cache.as_ref().is_some_and(|c| {
                        c.peek(&CacheKey::new(
                            &it.query,
                            it.k,
                            &it.options,
                            plan.shards,
                            live.epoch,
                        ))
                    })
            })
            .collect();
        if eligible.len() < 2 {
            return fused;
        }
        // Distinct features in first-appearance order, plus each member's
        // cursor positions in its own query feature order.
        let mut index_of: FxHashMap<u64, usize> = FxHashMap::default();
        let mut features: Vec<Feature> = Vec::new();
        let mut specs: Vec<crate::fused::FusedSpec> = Vec::with_capacity(eligible.len());
        for &i in &eligible {
            let it = items[i].as_ref().expect("member not yet taken");
            let positions = it
                .query
                .features
                .iter()
                .map(|&f| {
                    *index_of.entry(f.encode()).or_insert_with(|| {
                        features.push(f);
                        features.len() - 1
                    })
                })
                .collect();
            specs.push(crate::fused::FusedSpec {
                positions,
                op: it.query.op,
                k: it.k,
            });
        }
        // A serial run walks each member's distinct words once; the shared
        // scan walks each of the group's distinct words once.
        let member_walks: usize = specs
            .iter()
            .map(|spec| {
                let mut lists = spec.positions.clone();
                lists.sort_unstable();
                lists.dedup();
                lists.len()
            })
            .sum();
        self.inner
            .obs
            .fused_saved
            .add((member_walks - features.len()) as u64);
        let m = &*live.index.miner;
        let results = match plan.backend {
            BackendChoice::Memory => {
                let backend = m.memory_backend();
                let cursors: Vec<_> = features.iter().map(|&f| backend.id_cursor(f)).collect();
                crate::fused::run_fused_smj(cursors, &specs)
            }
            BackendChoice::Block => {
                let block = self.block_for(&live.index);
                let block = &*block;
                let _serial = self.inner.disk_gate.lock().unwrap();
                block.reset_io(); // one shared cold scan for the whole group
                let cursors: Vec<_> = features.iter().map(|&f| block.id_cursor(f)).collect();
                let results = crate::fused::run_fused_smj(cursors, &specs);
                let io = block.io_stats();
                self.inner.io_totals.lock().unwrap().accumulate(&io);
                results
            }
            _ => unreachable!("backend gated above"),
        };
        for (&i, (hits, smj)) in eligible.iter().zip(results) {
            fused.insert(
                i,
                FusedHits {
                    hits,
                    stats: ExecStats {
                        sorted_accesses: smj.entries_read,
                        random_probes: 0,
                        entries_skipped: 0,
                        rounds: smj.merge_steps,
                    },
                },
            );
        }
        fused
    }

    /// Always `(0, 0)`: the engine keeps no decoded-block cache (fused
    /// batch groups already walk each list once). Kept only because the
    /// external benchmark harness under `perfbench/` still calls it.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The single uncached-or-cached execution path behind
    /// [`QueryEngine::execute_with_budget`] and every batch item, against
    /// an already-pinned snapshot of the serving head. `fused` carries
    /// hits already produced by the group's shared scan, which replace
    /// the `execute_uncached` run while cache probe/insert, completeness,
    /// counters and tracing stay on this one path.
    fn execute_one(
        &self,
        live: &LiveState,
        query: Query,
        k: usize,
        options: &SearchOptions,
        budget: &Budget,
        fused: Option<FusedHits>,
    ) -> Result<SearchResponse, SearchError> {
        let start = Instant::now();
        let obs = &self.inner.obs;
        if let Some(err) = budget.dead_on_arrival() {
            return Err(err);
        }
        // An explicitly traced request always collects; a configured
        // slow-query log additionally forces collection for every query
        // (its ring needs the trace of whichever query turns out slow).
        let tracer = if options.trace || obs.slow.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let plan_span = tracer.span(StageKind::Plan);
        let plan = QueryPlan::resolve(options, self.inner.default_shards);
        let key = CacheKey::new(&query, k, options, plan.shards, live.epoch);
        let delta_snapshot = if options.use_delta {
            live.delta.clone().filter(|d| !d.is_empty())
        } else {
            None
        };
        let exact_probes = Self::exact_probes(&live.index.miner);
        let base = crate::plan::base_completeness(
            options,
            matches!(plan.backend, BackendChoice::Disk | BackendChoice::Block)
                && self.inner.disk_fraction < 1.0,
            delta_snapshot.is_some(),
            exact_probes,
            plan.shards,
        );
        plan_span.end();
        let trace_meta = |served_from_cache: bool, completeness: &Completeness| TraceMeta {
            query: query.render(live.index.miner.corpus()),
            algorithm: plan.algorithm.name(),
            backend: plan.backend.name(),
            k,
            shards: plan.shards,
            epoch: live.epoch,
            served_from_cache,
            completeness: completeness_label(completeness),
            budget_trip: budget.trip_cause().and_then(|t| match t {
                Trip::Cancelled => Some("cancelled"),
                t => t.budget_kind().map(crate::budget::BudgetKind::name),
            }),
        };
        if let Some(cache) = &self.inner.cache {
            let probe_span = tracer.span(StageKind::CacheProbe);
            let cached = cache.get(&key);
            probe_span.end();
            if let Some(hits) = cached {
                // lint-allow: relaxed-ordering — monotone query counter, read only by stats
                self.inner.served.fetch_add(1, Ordering::Relaxed);
                obs.queries_served.inc();
                obs.cache_hits.inc();
                let elapsed = start.elapsed();
                obs.latency.observe(elapsed);
                let trace = self.finish_trace(tracer, trace_meta(true, &base), options);
                return Ok(SearchResponse {
                    query,
                    hits: hits.as_ref().clone(),
                    elapsed,
                    io: None,
                    served_from_cache: true,
                    shards: plan.shards,
                    completeness: base,
                    trace,
                });
            }
            obs.cache_misses.inc();
        }

        let exec_span = tracer.span(StageKind::Execute);
        let (hits, io, stats) = match fused {
            Some(f) => {
                // Hits come from the group's shared scan; only text
                // resolution remains. `io: None` — the fused walk's IO is
                // a group quantity, accumulated once into the engine
                // totals by `try_fuse_group`.
                let m = &*live.index.miner;
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved: Vec<SearchHit> = f
                    .hits
                    .into_iter()
                    .map(|hit| SearchHit {
                        text: m.phrase_text(hit.phrase),
                        interestingness: estimated_interestingness(query.op, hit.score),
                        hit,
                    })
                    .collect();
                text_span.end();
                (resolved, None, f.stats)
            }
            None => self.execute_uncached(
                &live.index,
                &query,
                k,
                options,
                &plan,
                &delta_snapshot,
                budget,
                &tracer,
            ),
        };
        exec_span.end();
        obs.record_execution(plan.backend, &stats, io.as_ref());
        let completeness = match budget.trip_cause() {
            Some(Trip::Cancelled) => return Err(SearchError::Cancelled),
            Some(trip) => {
                let kind = trip.budget_kind().expect("non-cancel trip maps to a kind");
                match kind {
                    crate::budget::BudgetKind::Deadline => obs.trip_deadline.inc(),
                    crate::budget::BudgetKind::Io => obs.trip_io.inc(),
                    crate::budget::BudgetKind::Steps => obs.trip_steps.inc(),
                }
                Completeness::Truncated { budget_hit: kind }
            }
            None => base,
        };
        if plan.shards > 1 {
            // lint-allow: relaxed-ordering — monotone query counter, read only by stats
            self.inner.sharded_queries.fetch_add(1, Ordering::Relaxed);
            obs.sharded_queries.inc();
        }
        if !completeness.is_truncated() {
            // Truncated results reflect this request's budget, not the
            // query — caching them would serve partial answers to
            // unbudgeted callers.
            if let Some(cache) = &self.inner.cache {
                cache.insert(key, Arc::new(hits.clone()));
            }
        }
        // lint-allow: relaxed-ordering — monotone query counter, read only by stats
        self.inner.served.fetch_add(1, Ordering::Relaxed);
        obs.queries_served.inc();
        let elapsed = start.elapsed();
        obs.latency.observe(elapsed);
        let trace = self.finish_trace(tracer, trace_meta(false, &completeness), options);
        Ok(SearchResponse {
            query,
            hits,
            elapsed,
            io,
            served_from_cache: false,
            shards: plan.shards,
            completeness,
            trace,
        })
    }

    /// Closes a request's tracer: offers the trace to the slow-query ring
    /// (when configured) and returns it boxed iff the request asked for
    /// it.
    fn finish_trace(
        &self,
        tracer: Tracer,
        meta: TraceMeta,
        options: &SearchOptions,
    ) -> Option<Box<QueryTrace>> {
        let trace = tracer.finish(meta)?;
        if let Some(slow) = &self.inner.obs.slow {
            if slow.offer(&trace) {
                self.inner.obs.slow_queries.inc();
            }
        }
        options.trace.then(|| Box::new(trace))
    }

    /// Whether the backends' id-ordered (probe) lists are complete (no
    /// build-time SMJ fraction froze a prefix).
    fn exact_probes(miner: &PhraseMiner) -> bool {
        miner.config().smj_fraction.is_none_or(|f| f >= 1.0)
    }

    /// Runs the planned query — one backend per shard — and resolves hit
    /// texts (through the disk phrase file on the disk backend, so even
    /// the exact scorer charges its final phrase lookups there — the
    /// paper's last retrieval step; on a sharded image the lookup charges
    /// the shard owning the hit).
    #[allow(clippy::too_many_arguments)]
    fn execute_uncached(
        &self,
        state: &IndexState,
        query: &Query,
        k: usize,
        options: &SearchOptions,
        plan: &QueryPlan,
        delta_snapshot: &Option<Arc<DeltaIndex>>,
        budget: &Budget,
        tracer: &Tracer,
    ) -> (Vec<SearchHit>, Option<IoStats>, ExecStats) {
        let m = &*state.miner;
        let ctx = ExecContext {
            miner: m,
            options,
            image_truncated: matches!(plan.backend, BackendChoice::Disk | BackendChoice::Block)
                && self.inner.disk_fraction < 1.0,
            delta: delta_snapshot.as_deref(),
            exact_probes: Self::exact_probes(m),
            budget,
            tracer,
        };
        let resolve = |hit: PhraseHit, text: String| SearchHit {
            text,
            interestingness: estimated_interestingness(query.op, hit.score),
            hit,
        };
        // IO-budgeted (and budget-stopped) requests resolve result texts
        // from the in-memory phrase table: the cap governs *list* IO, and
        // the final phrase lookups must neither push a query past a cap
        // it respected nor charge IO after a budget said stop.
        let charge_texts = |budget: &Budget| !budget.has_io_budget() && !budget.is_tripped();
        match plan.backend {
            BackendChoice::Memory => {
                let (hits, stats) = if plan.shards == 1 {
                    let backend = m.memory_backend();
                    crate::plan::run_query(&ctx, &[&backend], query, k)
                } else {
                    let idx = self.sharded_index(state, plan.shards);
                    let backends: Vec<MemoryBackend<'_>> =
                        idx.mem.shards().iter().map(ListShard::backend).collect();
                    let refs: Vec<&MemoryBackend<'_>> = backends.iter().collect();
                    crate::plan::run_query(&ctx, &refs, query, k)
                };
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved = hits
                    .into_iter()
                    .map(|hit| resolve(hit, m.phrase_text(hit.phrase)))
                    .collect();
                text_span.end();
                (resolved, None, stats)
            }
            BackendChoice::Disk if plan.shards == 1 => {
                let disk = self.disk_for(state);
                let disk = &*disk;
                let _serial = self.inner.disk_gate.lock().unwrap();
                disk.reset_io(); // per-query cold cache (paper §5.5)
                let (hits, stats) = crate::plan::run_query(&ctx, &[disk], query, k);
                let via_disk = charge_texts(budget);
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved = hits
                    .into_iter()
                    .map(|hit| {
                        let text = via_disk
                            .then(|| disk.phrase_text(hit.phrase))
                            .flatten()
                            .unwrap_or_else(|| m.phrase_text(hit.phrase));
                        resolve(hit, text)
                    })
                    .collect();
                text_span.end();
                let io = disk.io_stats();
                self.inner.io_totals.lock().unwrap().accumulate(&io);
                (resolved, Some(io), stats)
            }
            BackendChoice::Disk => {
                let idx = self.sharded_index(state, plan.shards);
                let image = idx.disk.get_or_init(|| {
                    ShardedDiskImage::build(
                        m.corpus(),
                        &m.index().dict,
                        &idx.mem,
                        self.inner.disk_fraction,
                        self.inner.pool,
                        self.inner.cost,
                    )
                });
                let _serial = self.inner.disk_gate.lock().unwrap();
                image.reset_io(); // per-query cold cache across all shards
                let refs: Vec<&DiskLists> = image.shards().iter().collect();
                let (hits, stats) = crate::plan::run_query(&ctx, &refs, query, k);
                let via_disk = charge_texts(budget);
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved = hits
                    .into_iter()
                    .map(|hit| {
                        let text = via_disk
                            .then(|| image.phrase_text(hit.phrase))
                            .flatten()
                            .unwrap_or_else(|| m.phrase_text(hit.phrase));
                        resolve(hit, text)
                    })
                    .collect();
                text_span.end();
                let io = image.io_stats();
                self.inner.io_totals.lock().unwrap().accumulate(&io);
                (resolved, Some(io), stats)
            }
            BackendChoice::Block if plan.shards == 1 => {
                let block = self.block_for(state);
                let block = &*block;
                let _serial = self.inner.disk_gate.lock().unwrap();
                block.reset_io(); // per-query cold cache (paper §5.5)
                let (hits, stats) = crate::plan::run_query(&ctx, &[block], query, k);
                // The block image carries no phrase file; texts resolve
                // from the miner's in-memory dictionary (like the memory
                // backend), so the IoStats are pure list traffic.
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved = hits
                    .into_iter()
                    .map(|hit| resolve(hit, m.phrase_text(hit.phrase)))
                    .collect();
                text_span.end();
                let io = block.io_stats();
                self.inner.io_totals.lock().unwrap().accumulate(&io);
                (resolved, Some(io), stats)
            }
            BackendChoice::Block => {
                let idx = self.sharded_index(state, plan.shards);
                let image = idx.block.get_or_init(|| {
                    ShardedBlockImage::build(
                        m.index(),
                        &idx.mem,
                        self.inner.disk_fraction,
                        self.inner.pool,
                        self.inner.cost,
                    )
                });
                let _serial = self.inner.disk_gate.lock().unwrap();
                image.reset_io(); // per-query cold cache across all shards
                let refs: Vec<&BlockImage> = image.shards().iter().collect();
                let (hits, stats) = crate::plan::run_query(&ctx, &refs, query, k);
                let text_span = tracer.span(StageKind::TextResolve);
                let resolved = hits
                    .into_iter()
                    .map(|hit| resolve(hit, m.phrase_text(hit.phrase)))
                    .collect();
                text_span.end();
                let io = image.io_stats();
                self.inner.io_totals.lock().unwrap().accumulate(&io);
                (resolved, Some(io), stats)
            }
        }
    }

    /// The half-open phrase-id range shard `shard` owns in a fanout-
    /// `fanout` layout of this engine's current index generation (`None`
    /// when `shard >= fanout`). Fanout 1 owns the full id space. Both
    /// ends of a distributed deployment derive these ranges
    /// deterministically from the corpus build, so a router can validate
    /// its configured shard set against each shard server's answer.
    pub fn shard_phrase_range(&self, fanout: usize, shard: usize) -> Option<(u32, u32)> {
        let fanout = fanout.clamp(1, crate::plan::MAX_SHARDS);
        if shard >= fanout {
            return None;
        }
        if fanout == 1 {
            return Some((0, u32::MAX));
        }
        let live = self.live();
        let idx = self.sharded_index(&live.index, fanout);
        let (lo, hi) = idx.mem.shards()[shard].range();
        Some((lo.raw(), hi.raw()))
    }

    /// Executes exactly one shard of a fanout-`params.fanout` scatter —
    /// the server-side half of the wire-v5 `shard_exec` verb. The node
    /// carves shard `params.shard` out of its own fanout-wide layout
    /// (deterministic equal-width phrase-id ranges, so every node serving
    /// the same corpus build derives the same partition) and runs the
    /// same per-shard unit a local scoped thread runs: algorithm dispatch
    /// plus, on NRA's exact path, resolution of the shard's own hits.
    ///
    /// Disk- and block-backed calls serialize on the engine's disk gate
    /// and reset the simulated pool, exactly like local execution — the
    /// per-query cold-cache accounting (paper §5.5) then covers this
    /// shard's run alone.
    ///
    /// A budget that trips *during* the run returns `Ok` with
    /// [`ShardOutcome::tripped`] set — the anytime envelope at the
    /// stopping point, which the router surfaces as a truncated response.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the forwarded deadline
    /// expired before execution started; [`SearchError::Cancelled`] when
    /// the budget's cancel token fired.
    pub fn execute_shard(
        &self,
        query: &Query,
        options: &SearchOptions,
        params: &ShardExecParams,
        budget: &Budget,
    ) -> Result<ShardOutcome, SearchError> {
        if let Some(err) = budget.dead_on_arrival() {
            return Err(err);
        }
        let tracer = Tracer::disabled();
        let live = self.live();
        let state = &live.index;
        let m = &*state.miner;
        let delta_snapshot = if options.use_delta {
            live.delta.clone().filter(|d| !d.is_empty())
        } else {
            None
        };
        let ctx = ExecContext {
            miner: m,
            options,
            image_truncated: matches!(options.backend, BackendChoice::Disk | BackendChoice::Block)
                && self.inner.disk_fraction < 1.0,
            delta: delta_snapshot.as_deref(),
            exact_probes: Self::exact_probes(m),
            budget,
            tracer: &tracer,
        };
        let tuning = NraTuning {
            lower_floor: params.floor,
            batch_size: params.batch_size,
        };
        let fanout = params.fanout.clamp(1, crate::plan::MAX_SHARDS);
        let shard = params.shard.min(fanout - 1);
        let fetch = params.fetch;
        let mut out = match options.backend {
            BackendChoice::Memory if fanout == 1 => {
                let backend = m.memory_backend();
                run_one_shard(&ctx, &backend, query, fetch, tuning, None)
            }
            BackendChoice::Memory => {
                let idx = self.sharded_index(state, fanout);
                let backend = idx.mem.shards()[shard].backend();
                run_one_shard(&ctx, &backend, query, fetch, tuning, None)
            }
            BackendChoice::Disk if fanout == 1 => {
                let disk = self.disk_for(state);
                let disk = &*disk;
                let _serial = self.inner.disk_gate.lock().unwrap();
                disk.reset_io(); // per-query cold cache (paper §5.5)
                run_one_shard(&ctx, disk, query, fetch, tuning, None)
            }
            BackendChoice::Disk => {
                let idx = self.sharded_index(state, fanout);
                let image = idx.disk.get_or_init(|| {
                    ShardedDiskImage::build(
                        m.corpus(),
                        &m.index().dict,
                        &idx.mem,
                        self.inner.disk_fraction,
                        self.inner.pool,
                        self.inner.cost,
                    )
                });
                let _serial = self.inner.disk_gate.lock().unwrap();
                image.reset_io(); // per-query cold cache
                run_one_shard(&ctx, &image.shards()[shard], query, fetch, tuning, None)
            }
            BackendChoice::Block if fanout == 1 => {
                let block = self.block_for(state);
                let block = &*block;
                let _serial = self.inner.disk_gate.lock().unwrap();
                block.reset_io(); // per-query cold cache (paper §5.5)
                run_one_shard(&ctx, block, query, fetch, tuning, None)
            }
            BackendChoice::Block => {
                let idx = self.sharded_index(state, fanout);
                let image = idx.block.get_or_init(|| {
                    ShardedBlockImage::build(
                        m.index(),
                        &idx.mem,
                        self.inner.disk_fraction,
                        self.inner.pool,
                        self.inner.cost,
                    )
                });
                let _serial = self.inner.disk_gate.lock().unwrap();
                image.reset_io(); // per-query cold cache
                run_one_shard(&ctx, &image.shards()[shard], query, fetch, tuning, None)
            }
        };
        if matches!(budget.trip_cause(), Some(Trip::Cancelled)) {
            return Err(SearchError::Cancelled);
        }
        out.tripped = budget.is_tripped();
        Ok(out)
    }

    /// Serves an already-parsed query by scattering it over `executors` —
    /// one [`ShardExecutor`] per shard, typically a router's remote
    /// `shard_exec` clients — and gathering under the same seeded-floor,
    /// over-fetch and merge logic as the in-process fan-out: both paths
    /// run the identical per-shard unit and the identical total-order
    /// merge, which is what makes routed results bit-identical to
    /// single-process sharded execution in the fully-resolved regime.
    ///
    /// Differences from [`QueryEngine::execute_with_budget`]: no result
    /// cache (the shard tier ages independently of the router's epoch),
    /// the NRA seed floor is computed from the router's own copy of the
    /// lists (the floor is only consulted on the exact path, where the
    /// untruncated lists match the memory lists entry for entry — the
    /// value is identical on every node of the same corpus build), and
    /// shards whose every replica failed degrade the response to
    /// [`Completeness::Approximate`] with [`ApproxReason::ShardsMissing`]
    /// instead of erroring — exact over the surviving partitions, honest
    /// about the absent ones.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the deadline expired before
    /// execution started; [`SearchError::Cancelled`] when the budget's
    /// cancel token fired.
    pub fn execute_routed(
        &self,
        query: Query,
        k: usize,
        options: &SearchOptions,
        budget: &Budget,
        executors: &[&dyn ShardExecutor],
    ) -> Result<SearchResponse, SearchError> {
        let start = Instant::now();
        let obs = &self.inner.obs;
        if let Some(err) = budget.dead_on_arrival() {
            return Err(err);
        }
        let tracer = if options.trace || obs.slow.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let plan_span = tracer.span(StageKind::Plan);
        let n = executors.len().max(1);
        let live = self.live();
        let m = &*live.index.miner;
        let delta_snapshot = if options.use_delta {
            live.delta.clone().filter(|d| !d.is_empty())
        } else {
            None
        };
        let exact_probes = Self::exact_probes(m);
        let image_truncated = matches!(options.backend, BackendChoice::Disk | BackendChoice::Block)
            && self.inner.disk_fraction < 1.0;
        let base = crate::plan::base_completeness(
            options,
            image_truncated,
            delta_snapshot.is_some(),
            exact_probes,
            n,
        );
        plan_span.end();
        let ctx = ExecContext {
            miner: m,
            options,
            image_truncated,
            delta: delta_snapshot.as_deref(),
            exact_probes,
            budget,
            tracer: &tracer,
        };
        let seed = |fetch: usize| {
            let idx = self.sharded_index(&live.index, n);
            let backends: Vec<MemoryBackend<'_>> =
                idx.mem.shards().iter().map(ListShard::backend).collect();
            let refs: Vec<&MemoryBackend<'_>> = backends.iter().collect();
            crate::plan::seed_floor(&ctx, &refs, &query, fetch)
        };
        let exec_span = tracer.span(StageKind::Execute);
        let (hits, stats, report) = run_query_on(&ctx, executors, &seed, &query, k);
        exec_span.end();
        obs.record_execution(options.backend, &stats, None);
        if matches!(budget.trip_cause(), Some(Trip::Cancelled)) {
            return Err(SearchError::Cancelled);
        }
        let completeness = if !report.missing.is_empty() {
            Completeness::Approximate {
                reason: ApproxReason::ShardsMissing {
                    missing: report.missing.len() as u32,
                },
            }
        } else {
            match budget.trip_cause() {
                Some(Trip::Cancelled) => return Err(SearchError::Cancelled),
                Some(trip) => {
                    let kind = trip.budget_kind().expect("non-cancel trip maps to a kind");
                    match kind {
                        crate::budget::BudgetKind::Deadline => obs.trip_deadline.inc(),
                        crate::budget::BudgetKind::Io => obs.trip_io.inc(),
                        crate::budget::BudgetKind::Steps => obs.trip_steps.inc(),
                    }
                    Completeness::Truncated { budget_hit: kind }
                }
                // A shard's own deadline budget tripped even though the
                // router's did not: the merge is an anytime envelope.
                None if report.remote_tripped => Completeness::Truncated {
                    budget_hit: crate::budget::BudgetKind::Deadline,
                },
                None => base,
            }
        };
        if n > 1 {
            // lint-allow: relaxed-ordering — monotone query counter, read only by stats
            self.inner.sharded_queries.fetch_add(1, Ordering::Relaxed);
            obs.sharded_queries.inc();
        }
        // lint-allow: relaxed-ordering — monotone query counter, read only by stats
        self.inner.served.fetch_add(1, Ordering::Relaxed);
        obs.queries_served.inc();
        let text_span = tracer.span(StageKind::TextResolve);
        let hits: Vec<SearchHit> = hits
            .into_iter()
            .map(|hit| SearchHit {
                text: m.phrase_text(hit.phrase),
                interestingness: estimated_interestingness(query.op, hit.score),
                hit,
            })
            .collect();
        text_span.end();
        let elapsed = start.elapsed();
        obs.latency.observe(elapsed);
        let meta = TraceMeta {
            query: query.render(m.corpus()),
            algorithm: options.algorithm.name(),
            backend: options.backend.name(),
            k,
            shards: n,
            epoch: live.epoch,
            served_from_cache: false,
            completeness: completeness_label(&completeness),
            budget_trip: budget.trip_cause().and_then(|t| match t {
                Trip::Cancelled => Some("cancelled"),
                t => t.budget_kind().map(crate::budget::BudgetKind::name),
            }),
        };
        let trace = self.finish_trace(tracer, meta, options);
        Ok(SearchResponse {
            query,
            hits,
            elapsed,
            io: None,
            served_from_cache: false,
            shards: n,
            completeness,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MinerConfig;
    use crate::query::Operator;
    use ipm_index::corpus_index::IndexConfig;
    use ipm_index::mining::MiningConfig;

    fn engine() -> QueryEngine {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        QueryEngine::new(PhraseMiner::build(
            &c,
            MinerConfig {
                index: IndexConfig {
                    mining: MiningConfig {
                        min_df: 3,
                        max_len: 4,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        ))
    }

    fn query_string(e: &QueryEngine, op: Operator) -> String {
        let miner = e.miner();
        let corpus = miner.corpus();
        let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        words.join(&format!(" {op} "))
    }

    const ALL_ALGORITHMS: [Algorithm; 4] = [
        Algorithm::Nra,
        Algorithm::Smj,
        Algorithm::Ta,
        Algorithm::Exact,
    ];

    #[test]
    fn search_returns_resolved_hits() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let resp = e.search(&q, 5).unwrap();
        assert!(!resp.hits.is_empty());
        for h in &resp.hits {
            assert!(!h.text.is_empty());
            assert!((0.0..=1.0).contains(&h.interestingness));
        }
        assert!(resp.io.is_none());
        assert!(!resp.served_from_cache);
        assert_eq!(e.queries_served(), 1);
    }

    #[test]
    fn malformed_query_is_an_error_not_a_panic() {
        let e = engine();
        assert!(e.search("", 5).is_err());
        assert!(e.search("zzzz_not_a_word_zzzz", 5).is_err());
        assert_eq!(e.queries_served(), 0);
    }

    #[test]
    fn algorithms_agree_through_the_engine() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let mut phrases: Vec<Vec<_>> = Vec::new();
        for alg in [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta] {
            let resp = e
                .search_with(
                    &q,
                    5,
                    &SearchOptions {
                        algorithm: alg,
                        ..Default::default()
                    },
                )
                .unwrap();
            phrases.push(resp.hits.iter().map(|h| h.hit.phrase).collect());
        }
        assert_eq!(phrases[0], phrases[1], "NRA vs SMJ");
        assert_eq!(phrases[1], phrases[2], "SMJ vs TA");
    }

    #[test]
    fn disk_backend_matches_memory_for_every_algorithm() {
        let e = engine();
        for op in [Operator::And, Operator::Or] {
            let q = query_string(&e, op);
            for alg in ALL_ALGORITHMS {
                let mem = e
                    .search_with(
                        &q,
                        5,
                        &SearchOptions {
                            algorithm: alg,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                let disk = e
                    .search_with(
                        &q,
                        5,
                        &SearchOptions {
                            algorithm: alg,
                            backend: BackendChoice::Disk,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                assert_eq!(
                    mem.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    disk.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    "{alg:?} {op}: memory and disk backends disagree"
                );
                for (a, b) in mem.hits.iter().zip(&disk.hits) {
                    assert_eq!(a.text, b.text, "{alg:?}: text resolution differs");
                }
                let io = disk.io.expect("disk run reports IoStats");
                assert!(io.total_accesses() > 0, "{alg:?} {op}: no IO charged");
                assert!(mem.io.is_none());
            }
        }
    }

    #[test]
    fn block_backend_matches_memory_bit_for_bit() {
        let e = engine();
        for op in [Operator::And, Operator::Or] {
            let q = query_string(&e, op);
            for alg in ALL_ALGORITHMS {
                let mem = e
                    .search_with(
                        &q,
                        5,
                        &SearchOptions {
                            algorithm: alg,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                let block = e
                    .search_with(
                        &q,
                        5,
                        &SearchOptions {
                            algorithm: alg,
                            backend: BackendChoice::Block,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                assert_eq!(
                    mem.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    block.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    "{alg:?} {op}: memory and block backends disagree"
                );
                for (a, b) in mem.hits.iter().zip(&block.hits) {
                    assert_eq!(
                        a.hit.score.to_bits(),
                        b.hit.score.to_bits(),
                        "{alg:?} {op}: dequantized scores must be bit-identical"
                    );
                    assert_eq!(a.text, b.text);
                }
                let io = block.io.expect("block run reports IoStats");
                if alg != Algorithm::Exact {
                    // The exact scorer never touches the lists, and the
                    // block image resolves texts in memory — only the
                    // list algorithms charge block fetches.
                    assert!(io.total_accesses() > 0, "{alg:?} {op}: no IO charged");
                }
            }
        }
    }

    #[test]
    fn cache_serves_repeats_and_counts() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let cold = e.search(&q, 5).unwrap();
        assert!(!cold.served_from_cache);
        let warm = e.search(&q, 5).unwrap();
        assert!(warm.served_from_cache);
        assert_eq!(cold.hits, warm.hits);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(e.queries_served(), 2);
        // Different options are different cache entries.
        let other = e
            .search_with(
                &q,
                5,
                &SearchOptions {
                    algorithm: Algorithm::Smj,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!other.served_from_cache);
        // Clearing forgets results but keeps counters.
        e.clear_cache();
        assert!(!e.search(&q, 5).unwrap().served_from_cache);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn cache_key_ignores_feature_order() {
        let e = engine();
        let miner = e.miner();
        let corpus = miner.corpus();
        let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        let fwd = format!("{} OR {}", words[0], words[1]);
        let rev = format!("{} OR {}", words[1], words[0]);
        assert!(!e.search(&fwd, 5).unwrap().served_from_cache);
        assert!(
            e.search(&rev, 5).unwrap().served_from_cache,
            "feature order must not fragment the cache"
        );
    }

    #[test]
    fn disk_cache_hit_skips_io() {
        let e = engine();
        let q = query_string(&e, Operator::And);
        let opts = SearchOptions {
            backend: BackendChoice::Disk,
            ..Default::default()
        };
        let cold = e.search_with(&q, 5, &opts).unwrap();
        assert!(cold.io.unwrap().total_accesses() > 0);
        let warm = e.search_with(&q, 5, &opts).unwrap();
        assert!(warm.served_from_cache);
        assert!(warm.io.is_none(), "cache hit performs no simulated IO");
        assert_eq!(cold.hits, warm.hits);
    }

    #[test]
    fn truncated_disk_image_keeps_partial_nra_semantics() {
        // Regression: with `disk_fraction < 1.0` and no run-time
        // `nra_fraction`, disk NRA must use partial-list bounds — its
        // results must match memory NRA at the same fraction, not drop
        // AND candidates whose tail entries were truncated away.
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let e = QueryEngine::with_config(
            PhraseMiner::build(&c, MinerConfig::default()),
            EngineConfig {
                disk_fraction: 0.5,
                cache: None,
                ..Default::default()
            },
        );
        for op in [Operator::And, Operator::Or] {
            let q = query_string(&e, op);
            let disk = e
                .search_with(
                    &q,
                    5,
                    &SearchOptions {
                        backend: BackendChoice::Disk,
                        ..Default::default()
                    },
                )
                .unwrap();
            let mem_partial = e
                .search_with(
                    &q,
                    5,
                    &SearchOptions {
                        nra_fraction: Some(0.5),
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(
                disk.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                mem_partial
                    .hits
                    .iter()
                    .map(|h| h.hit.phrase)
                    .collect::<Vec<_>>(),
                "{op}: truncated disk image must behave like run-time partial lists"
            );
        }
    }

    #[test]
    fn cache_can_be_disabled() {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let e = QueryEngine::with_config(
            PhraseMiner::build(&c, MinerConfig::default()),
            EngineConfig {
                cache: None,
                ..Default::default()
            },
        );
        let q = query_string(&e, Operator::Or);
        assert!(!e.search(&q, 5).unwrap().served_from_cache);
        assert!(!e.search(&q, 5).unwrap().served_from_cache);
        assert_eq!(e.cache_stats(), CacheStats::default());
    }

    #[test]
    fn redundancy_option_filters_across_algorithms_and_backends() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let red = RedundancyConfig::default();
        for backend in [BackendChoice::Memory, BackendChoice::Disk] {
            for alg in ALL_ALGORITHMS {
                let resp = e
                    .search_with(
                        &q,
                        5,
                        &SearchOptions {
                            algorithm: alg,
                            backend,
                            redundancy: Some(red),
                            ..Default::default()
                        },
                    )
                    .unwrap();
                let query = &resp.query;
                let miner = e.miner();
                for h in &resp.hits {
                    let words = miner.index().dict.words(h.hit.phrase).unwrap();
                    assert!(
                        crate::redundancy::overlap_fraction(words, query) < red.max_overlap,
                        "{alg:?}/{backend:?} leaked redundant phrase {}",
                        h.text
                    );
                }
            }
        }
    }

    #[test]
    fn nra_fraction_composes_with_redundancy() {
        // Regression: the old engine dropped `nra_fraction` whenever a
        // redundancy filter was set. A fraction small enough to change the
        // candidate set must now change the filtered results too.
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let red = RedundancyConfig { max_overlap: 2.0 }; // filter disabled ⇒ pure pass-through
        let filtered = e
            .search_with(
                &q,
                5,
                &SearchOptions {
                    nra_fraction: Some(0.05),
                    redundancy: Some(red),
                    ..Default::default()
                },
            )
            .unwrap();
        let partial_only = e
            .search_with(
                &q,
                5,
                &SearchOptions {
                    nra_fraction: Some(0.05),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            filtered
                .hits
                .iter()
                .map(|h| h.hit.phrase)
                .collect::<Vec<_>>(),
            partial_only
                .hits
                .iter()
                .map(|h| h.hit.phrase)
                .collect::<Vec<_>>(),
            "a no-op filter must not change partial-NRA results"
        );
    }

    #[test]
    fn concurrent_clones_serve_identical_results() {
        let e = engine();
        let q = query_string(&e, Operator::And);
        let baseline: Vec<_> = e
            .search(&q, 5)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        let threads = 8;
        let per_thread = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let eng = e.clone();
                let q = q.clone();
                let want = baseline.clone();
                s.spawn(move || {
                    // Half the threads hit the disk backend to exercise the
                    // serialization gate concurrently with memory serving.
                    let opts = if t % 2 == 0 {
                        SearchOptions::default()
                    } else {
                        SearchOptions {
                            backend: BackendChoice::Disk,
                            ..Default::default()
                        }
                    };
                    for _ in 0..per_thread {
                        let got: Vec<_> = eng
                            .search_with(&q, 5, &opts)
                            .unwrap()
                            .hits
                            .iter()
                            .map(|h| h.hit.phrase)
                            .collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
        assert_eq!(e.queries_served(), 1 + (threads * per_thread) as u64);
        let stats = e.cache_stats();
        assert!(stats.hits > 0, "repeat queries must hit the cache");
    }

    #[test]
    fn attached_delta_corrects_nra_and_clears_cache() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let delta_opts = SearchOptions {
            use_delta: true,
            ..Default::default()
        };
        // Without a delta attached the flag is a no-op (and a distinct
        // cache entry).
        let plain: Vec<_> = e
            .search(&q, 5)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        let noop: Vec<_> = e
            .search_with(&q, 5, &delta_opts)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        assert_eq!(plain, noop);

        // Warm the cache, then attach a delta: cached entries must drop.
        assert!(e.search(&q, 5).unwrap().served_from_cache);
        let top = ipm_corpus::stats::top_words_by_df(e.miner().corpus(), 2);
        let mut delta = crate::delta::DeltaIndex::new();
        for _ in 0..20 {
            delta.add_document(e.miner().index(), &[top[0].0], &[]);
        }
        e.attach_delta(delta);
        assert!(
            !e.search(&q, 5).unwrap().served_from_cache,
            "attach_delta must clear the result cache"
        );

        // The engine's delta path matches the miner's reference
        // implementation exactly.
        let query = e.miner().parse_query_str(&q).unwrap();
        let want: Vec<_> = e
            .miner()
            .top_k_nra_with_delta(&query, 5, &e.delta().unwrap())
            .hits
            .iter()
            .map(|h| h.phrase)
            .collect();
        let got: Vec<_> = e
            .search_with(&q, 5, &delta_opts)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        assert_eq!(got, want, "engine delta path must match the miner's");

        // In-place updates and detaching clear the cache too.
        assert!(e.search_with(&q, 5, &delta_opts).unwrap().served_from_cache);
        e.update_delta(|d| d.delete_document(ipm_corpus::DocId(0)));
        assert!(
            !e.search_with(&q, 5, &delta_opts).unwrap().served_from_cache,
            "update_delta must clear the result cache"
        );
        e.detach_delta();
        assert!(e.delta().is_none());
        assert!(!e.search(&q, 5).unwrap().served_from_cache);
    }

    #[test]
    fn io_totals_accumulate_across_disk_queries() {
        let e = engine();
        assert_eq!(e.io_totals(), ipm_storage::IoStats::default());
        let opts = SearchOptions {
            backend: BackendChoice::Disk,
            ..Default::default()
        };
        let q = query_string(&e, Operator::Or);
        let first = e.search_with(&q, 5, &opts).unwrap().io.unwrap();
        assert_eq!(e.io_totals(), first);
        // A cache hit performs no IO and adds nothing.
        assert!(e.search_with(&q, 5, &opts).unwrap().served_from_cache);
        assert_eq!(e.io_totals(), first);
        // A distinct disk query accumulates on top.
        let q2 = query_string(&e, Operator::And);
        let second = e.search_with(&q2, 5, &opts).unwrap().io.unwrap();
        let totals = e.io_totals();
        assert_eq!(
            totals.total_accesses(),
            first.total_accesses() + second.total_accesses()
        );
        // Memory-backed queries never contribute.
        let q3 = format!("{q} "); // same query, same key — cached
        let _ = e.search(&q3, 5).unwrap();
        assert_eq!(e.io_totals(), totals);
    }

    #[test]
    fn clear_cache_races_with_concurrent_searches() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let want: Vec<_> = e
            .search(&q, 5)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let eng = e.clone();
                let q = q.clone();
                let want = want.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let got: Vec<_> = eng
                            .search(&q, 5)
                            .unwrap()
                            .hits
                            .iter()
                            .map(|h| h.hit.phrase)
                            .collect();
                        assert_eq!(got, want, "a racing clear must never corrupt results");
                    }
                });
            }
            let eng = e.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    eng.clear_cache();
                    std::thread::yield_now();
                }
            });
        });
    }

    #[test]
    fn sharded_execution_matches_unsharded_for_all_algorithms() {
        let e = engine();
        for op in [Operator::And, Operator::Or] {
            let q = query_string(&e, op);
            for backend in [BackendChoice::Memory, BackendChoice::Disk] {
                for alg in ALL_ALGORITHMS {
                    let base = e
                        .search_with(
                            &q,
                            5,
                            &SearchOptions {
                                algorithm: alg,
                                backend,
                                ..Default::default()
                            },
                        )
                        .unwrap();
                    assert_eq!(base.shards, 1);
                    for n in [2usize, 3, 8] {
                        let sharded = e
                            .search_with(
                                &q,
                                5,
                                &SearchOptions {
                                    algorithm: alg,
                                    backend,
                                    shards: Some(n),
                                    ..Default::default()
                                },
                            )
                            .unwrap();
                        assert!(
                            !sharded.served_from_cache,
                            "distinct cache entry per fanout"
                        );
                        assert_eq!(sharded.shards, n);
                        assert_eq!(
                            base.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                            sharded
                                .hits
                                .iter()
                                .map(|h| h.hit.phrase)
                                .collect::<Vec<_>>(),
                            "{alg:?}/{backend:?}/{op} @ {n} shards: phrase drift"
                        );
                        for (a, b) in base.hits.iter().zip(&sharded.hits) {
                            assert!(
                                (a.hit.score - b.hit.score).abs() < 1e-12,
                                "{alg:?}/{backend:?}/{op} @ {n}: score drift"
                            );
                            assert_eq!(a.text, b.text);
                        }
                        if backend == BackendChoice::Disk {
                            let io = sharded.io.expect("sharded disk run reports IO");
                            assert!(io.total_accesses() > 0, "{alg:?}/{op}: no IO charged");
                        }
                    }
                }
            }
        }
        assert!(e.sharded_queries() > 0);
    }

    #[test]
    fn sharded_merge_breaks_ties_deterministically() {
        // Three phrases with byte-identical scores: the merge's total
        // order (score desc, phrase id asc) must produce one canonical
        // sequence regardless of shard count, thread interleaving, or
        // repetition.
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for t in [
            "x aa", "x aa", "x bb", "x bb", "x cc", "x cc", "x dd", "x dd",
        ] {
            b.add_text(t);
        }
        let e = QueryEngine::new(PhraseMiner::build(
            &b.build(),
            MinerConfig {
                index: IndexConfig {
                    mining: MiningConfig {
                        min_df: 2,
                        max_len: 2,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        ));
        // Scores live on different scales per algorithm (the exact scorer
        // returns interestingness, the list algorithms return aggregate
        // scores), so each algorithm keeps its own canonical sequence —
        // but phrase *order* must also agree across all of them.
        let mut canonical_order: Option<Vec<ipm_corpus::PhraseId>> = None;
        let mut canonical: [Option<Vec<(ipm_corpus::PhraseId, u64)>>; 4] = Default::default();
        for _ in 0..10 {
            for n in [1usize, 2, 3, 8] {
                for (ai, alg) in ALL_ALGORITHMS.into_iter().enumerate() {
                    let got: Vec<_> = e
                        .search_with(
                            "x",
                            3,
                            &SearchOptions {
                                algorithm: alg,
                                shards: Some(n),
                                ..Default::default()
                            },
                        )
                        .unwrap()
                        .hits
                        .iter()
                        .map(|h| (h.hit.phrase, h.hit.score.to_bits()))
                        .collect();
                    let order: Vec<_> = got.iter().map(|&(p, _)| p).collect();
                    match &canonical_order {
                        None => canonical_order = Some(order),
                        Some(want) => assert_eq!(
                            &order, want,
                            "{alg:?} @ {n} shards: tie order must be canonical"
                        ),
                    }
                    match &canonical[ai] {
                        None => canonical[ai] = Some(got),
                        Some(want) => assert_eq!(
                            &got, want,
                            "{alg:?} @ {n} shards: results must be byte-identical"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn engine_default_fanout_applies_when_request_leaves_it_unset() {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let sharded_engine = QueryEngine::with_config(
            PhraseMiner::build(&c, MinerConfig::default()),
            EngineConfig {
                shards: 4,
                ..Default::default()
            },
        );
        assert_eq!(sharded_engine.default_shards(), 4);
        let q = query_string(&sharded_engine, Operator::Or);
        let resp = sharded_engine.search(&q, 5).unwrap();
        assert_eq!(resp.shards, 4, "default fanout must apply");
        assert_eq!(sharded_engine.sharded_queries(), 1);
        // An explicit single-shard request on the same engine matches it.
        let single = sharded_engine
            .search_with(
                &q,
                5,
                &SearchOptions {
                    shards: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(single.shards, 1);
        assert_eq!(
            resp.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
            single.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn layout_cache_is_bounded_and_keeps_serving() {
        // A client sweeping fanouts must not pin one full index copy per
        // distinct value: the layout cache evicts LRU entries past its
        // cap, and every fanout keeps serving correct results (a rebuilt
        // layout is identical to the evicted one).
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let want: Vec<_> = e
            .search(&q, 5)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        for n in 2..=12usize {
            let got: Vec<_> = e
                .search_with(
                    &q,
                    5,
                    &SearchOptions {
                        shards: Some(n),
                        ..Default::default()
                    },
                )
                .unwrap()
                .hits
                .iter()
                .map(|h| h.hit.phrase)
                .collect();
            assert_eq!(got, want, "{n} shards after evictions");
            assert!(
                e.cached_layouts() <= 4,
                "layout cache exceeded its bound: {}",
                e.cached_layouts()
            );
        }
        // A re-requested evicted fanout rebuilds and still matches.
        let again: Vec<_> = e
            .search_with(
                &q,
                6, // different k: bypass the result cache
                &SearchOptions {
                    shards: Some(2),
                    ..Default::default()
                },
            )
            .unwrap()
            .hits
            .iter()
            .map(|h| h.hit.phrase)
            .collect();
        assert_eq!(again[..5], want[..]);
    }

    #[test]
    fn cache_key_resolves_fanout_before_keying() {
        // Requests that resolve to the same fanout must share one cache
        // entry: `None` on a default-4 engine equals an explicit 4, and
        // over-clamp values collapse onto MAX_SHARDS.
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let e = QueryEngine::with_config(
            PhraseMiner::build(&c, MinerConfig::default()),
            EngineConfig {
                shards: 4,
                ..Default::default()
            },
        );
        let q = query_string(&e, Operator::Or);
        assert!(!e.search(&q, 5).unwrap().served_from_cache);
        let explicit = e
            .search_with(
                &q,
                5,
                &SearchOptions {
                    shards: Some(4),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            explicit.served_from_cache,
            "explicit default fanout must hit the None-keyed entry"
        );
        let over = |n: usize| SearchOptions {
            shards: Some(n),
            ..Default::default()
        };
        assert!(
            !e.search_with(&q, 5, &over(1_000))
                .unwrap()
                .served_from_cache
        );
        assert!(
            e.search_with(&q, 5, &over(crate::plan::MAX_SHARDS))
                .unwrap()
                .served_from_cache,
            "over-clamp fanouts must share the clamped entry"
        );
    }

    #[test]
    fn redundancy_filter_composes_with_sharding() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let red = RedundancyConfig::default();
        for n in [1usize, 3] {
            let resp = e
                .search_with(
                    &q,
                    5,
                    &SearchOptions {
                        redundancy: Some(red),
                        shards: Some(n),
                        ..Default::default()
                    },
                )
                .unwrap();
            let query = &resp.query;
            let miner = e.miner();
            for h in &resp.hits {
                let words = miner.index().dict.words(h.hit.phrase).unwrap();
                assert!(
                    crate::redundancy::overlap_fraction(words, query) < red.max_overlap,
                    "{n} shards leaked redundant phrase {}",
                    h.text
                );
            }
        }
    }

    #[test]
    fn sharded_delta_composes_and_cache_invalidates() {
        // §4.5.1 delta corrections apply per shard on the NRA path. With a
        // k covering every candidate, each shard exhausts its corrected
        // lists, so the merged result is the full corrected candidate set
        // — identical across sharded fanouts, set-equal to the unsharded
        // reference (whose upper-bound ranking may order ties differently),
        // and re-ranked by the deterministic merge order.
        let e = engine();
        let q = query_string(&e, Operator::Or);
        let top = ipm_corpus::stats::top_words_by_df(e.miner().corpus(), 2);
        let mut delta = crate::delta::DeltaIndex::new();
        for _ in 0..25 {
            delta.add_document(e.miner().index(), &[top[0].0], &[]);
        }
        e.attach_delta(delta);
        let k = 200;
        let opts = |n: usize| SearchOptions {
            use_delta: true,
            shards: Some(n),
            ..Default::default()
        };
        let reference = e.search_with(&q, k, &opts(1)).unwrap();
        let mut want: Vec<_> = reference.hits.iter().map(|h| h.hit.phrase).collect();
        want.sort_unstable();
        let mut first: Option<Vec<(ipm_corpus::PhraseId, u64)>> = None;
        for n in [2usize, 3, 8] {
            let resp = e.search_with(&q, k, &opts(n)).unwrap();
            // Deterministic merge order: score desc, ties by id asc.
            for w in resp.hits.windows(2) {
                assert!(
                    w[0].hit.score > w[1].hit.score
                        || (w[0].hit.score == w[1].hit.score && w[0].hit.phrase < w[1].hit.phrase),
                    "sharded delta results must follow the merge total order"
                );
            }
            let mut got: Vec<_> = resp.hits.iter().map(|h| h.hit.phrase).collect();
            let pairs: Vec<_> = resp
                .hits
                .iter()
                .map(|h| (h.hit.phrase, h.hit.score.to_bits()))
                .collect();
            match &first {
                None => first = Some(pairs),
                Some(want) => assert_eq!(&pairs, want, "{n} shards: fanout-dependent results"),
            }
            got.sort_unstable();
            assert_eq!(got, want, "{n} shards: candidate set drift vs unsharded");
        }
        // Mutating the delta must clear sharded cache entries too.
        assert!(e.search_with(&q, k, &opts(3)).unwrap().served_from_cache);
        e.update_delta(|d| d.delete_document(ipm_corpus::DocId(0)));
        assert!(
            !e.search_with(&q, k, &opts(3)).unwrap().served_from_cache,
            "update_delta must clear sharded entries"
        );
        e.detach_delta();
    }

    #[test]
    fn nra_fraction_option_is_honoured() {
        let e = engine();
        let q = query_string(&e, Operator::Or);
        // A tiny fraction still returns *something* (≥1 entry per list) and
        // must not panic.
        let resp = e
            .search_with(
                &q,
                5,
                &SearchOptions {
                    nra_fraction: Some(0.05),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!resp.hits.is_empty());
    }

    /// Uncached engine for batch tests: the result cache would otherwise
    /// serve later batch members from earlier items' entries and hide the
    /// execution path under test.
    fn uncached_engine() -> QueryEngine {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        QueryEngine::with_config(
            PhraseMiner::build(
                &c,
                MinerConfig {
                    index: IndexConfig {
                        mining: MiningConfig {
                            min_df: 3,
                            max_len: 4,
                            min_len: 1,
                        },
                    },
                    ..Default::default()
                },
            ),
            EngineConfig {
                cache: None,
                ..Default::default()
            },
        )
    }

    #[test]
    fn batch_matches_serial_execution_and_saves_list_walks() {
        let e = uncached_engine();
        let q = query_string(&e, Operator::Or);
        let miner = e.miner();
        let opts = SearchOptions {
            backend: BackendChoice::Block,
            algorithm: Algorithm::Smj,
            ..Default::default()
        };
        // Serial baseline first (fresh IO state either way: per-query
        // reset).
        let serial: Vec<SearchResponse> = (0..6)
            .map(|_| e.search_with(&q, 5, &opts).unwrap())
            .collect();
        let items: Vec<BatchItem<'_>> = (0..6)
            .map(|_| BatchItem {
                query: miner.parse_query_str(&q).unwrap(),
                k: 5,
                options: opts.clone(),
                budget: Budget::none(),
            })
            .collect();
        let batched = e.execute_batch(items);
        assert_eq!(batched.len(), serial.len());
        for (b, s) in batched.iter().zip(&serial) {
            let b = b.as_ref().unwrap();
            assert_eq!(b.hits.len(), s.hits.len());
            for (x, y) in b.hits.iter().zip(&s.hits) {
                assert_eq!(x.hit.phrase, y.hit.phrase);
                assert_eq!(x.hit.score.to_bits(), y.hit.score.to_bits());
                assert_eq!(x.text, y.text);
            }
            assert_eq!(
                format!("{:?}", b.completeness),
                format!("{:?}", s.completeness)
            );
            // Fused members report no per-item IO: the shared scan's
            // block traffic is a group quantity (it lands in the engine's
            // IO totals instead).
            assert!(s.io.is_some(), "serial block query reports IO");
            assert!(b.io.is_none(), "fused member IO is a group quantity");
        }
        // 6 identical two-word members: 12 serial walks, 2 shared ones.
        assert_eq!(e.inner.obs.fused_saved.get(), 10);
    }

    /// A fused group of N identical two-word SMJ queries walks each of
    /// its two lists once instead of N times: `2·(N−1)` walks saved, on
    /// both fusable backends.
    #[test]
    fn batch_books_list_walks_saved_on_both_fused_backends() {
        const N: u64 = 4;
        for backend in [BackendChoice::Memory, BackendChoice::Block] {
            let e = uncached_engine();
            let q = query_string(&e, Operator::And);
            let miner = e.miner();
            let opts = SearchOptions {
                backend,
                algorithm: Algorithm::Smj,
                ..Default::default()
            };
            let items: Vec<BatchItem<'_>> = (0..N)
                .map(|_| BatchItem {
                    query: miner.parse_query_str(&q).unwrap(),
                    k: 5,
                    options: opts.clone(),
                    budget: Budget::none(),
                })
                .collect();
            assert!(e.execute_batch(items).iter().all(Result::is_ok));
            assert_eq!(e.inner.obs.fused_saved.get(), 2 * (N - 1), "{backend:?}");
        }
    }

    /// The fused shared scan must be bit-identical to serial execution
    /// for *distinct* member queries too: different word pairs sharing a
    /// hot head word, AND and OR mixed in one group, on both fusable
    /// backends.
    #[test]
    fn batch_fuses_distinct_word_sharing_queries_bit_for_bit() {
        let e = uncached_engine();
        let miner = e.miner();
        let words: Vec<String> = {
            let corpus = miner.corpus();
            ipm_corpus::stats::top_words_by_df(corpus, 5)
                .iter()
                .map(|&(w, _)| corpus.words().term(w).unwrap().to_string())
                .collect()
        };
        let queries: Vec<String> = words[1..]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let op = if i % 2 == 0 { "OR" } else { "AND" };
                format!("{} {op} {w}", words[0])
            })
            .collect();
        for backend in [BackendChoice::Memory, BackendChoice::Block] {
            let opts = SearchOptions {
                backend,
                algorithm: Algorithm::Smj,
                ..Default::default()
            };
            let serial: Vec<SearchResponse> = queries
                .iter()
                .map(|q| e.search_with(q, 4, &opts).unwrap())
                .collect();
            let items: Vec<BatchItem<'_>> = queries
                .iter()
                .map(|q| BatchItem {
                    query: miner.parse_query_str(q).unwrap(),
                    k: 4,
                    options: opts.clone(),
                    budget: Budget::none(),
                })
                .collect();
            let batched = e.execute_batch(items);
            for (qs, (b, s)) in queries.iter().zip(batched.iter().zip(&serial)) {
                let b = b.as_ref().unwrap();
                assert_eq!(b.hits.len(), s.hits.len(), "{backend:?} {qs}");
                for (x, y) in b.hits.iter().zip(&s.hits) {
                    assert_eq!(x.hit.phrase, y.hit.phrase, "{backend:?} {qs}");
                    assert_eq!(
                        x.hit.score.to_bits(),
                        y.hit.score.to_bits(),
                        "{backend:?} {qs}"
                    );
                    assert_eq!(x.text, y.text, "{backend:?} {qs}");
                }
                assert_eq!(
                    format!("{:?}", b.completeness),
                    format!("{:?}", s.completeness),
                    "{backend:?} {qs}"
                );
            }
        }
    }

    /// A batch after a generation bump runs against the new generation:
    /// every member equals its own serial execution there, bit for bit.
    #[test]
    fn batch_after_epoch_bump_matches_serial() {
        let e = uncached_engine();
        let q = query_string(&e, Operator::Or);
        let miner = e.miner();
        let opts = SearchOptions {
            backend: BackendChoice::Block,
            ..Default::default()
        };
        let run_batch = |n: usize| {
            let items: Vec<BatchItem<'_>> = (0..n)
                .map(|_| BatchItem {
                    query: miner.parse_query_str(&q).unwrap(),
                    k: 5,
                    options: opts.clone(),
                    budget: Budget::none(),
                })
                .collect();
            e.execute_batch(items)
        };
        run_batch(2);
        e.delete_document(ipm_corpus::DocId(0));
        let serial = e.search_with(&q, 5, &opts).unwrap();
        for b in run_batch(3) {
            let b = b.unwrap();
            assert_eq!(b.hits.len(), serial.hits.len());
            for (x, y) in b.hits.iter().zip(&serial.hits) {
                assert_eq!(x.hit.phrase, y.hit.phrase);
                assert_eq!(x.hit.score.to_bits(), y.hit.score.to_bits());
                assert_eq!(x.text, y.text);
            }
            assert_eq!(
                format!("{:?}", b.completeness),
                format!("{:?}", serial.completeness)
            );
        }
    }

    #[test]
    fn batch_honors_per_item_budgets_via_sticky_trips() {
        let e = uncached_engine();
        let q = query_string(&e, Operator::Or);
        let miner = e.miner();
        let opts = SearchOptions {
            backend: BackendChoice::Block,
            ..Default::default()
        };
        let tight = Budget::unlimited().with_io_budget(1);
        let items = vec![
            BatchItem {
                query: miner.parse_query_str(&q).unwrap(),
                k: 5,
                options: opts.clone(),
                budget: Budget::none(),
            },
            BatchItem {
                query: miner.parse_query_str(&q).unwrap(),
                k: 5,
                options: opts.clone(),
                budget: &tight,
            },
            BatchItem {
                query: miner.parse_query_str(&q).unwrap(),
                k: 5,
                options: opts.clone(),
                budget: Budget::none(),
            },
        ];
        let out = e.execute_batch(items);
        assert!(matches!(
            out[1].as_ref().unwrap().completeness,
            Completeness::Truncated { .. }
        ));
        for i in [0, 2] {
            assert!(
                !out[i].as_ref().unwrap().completeness.is_truncated(),
                "item {i}: a neighbour's tripped budget must not leak"
            );
        }
        // The truncated item matches its own serial execution exactly.
        let tight2 = Budget::unlimited().with_io_budget(1);
        let serial = e
            .execute_with_budget(miner.parse_query_str(&q).unwrap(), 5, &opts, &tight2)
            .unwrap();
        let b = out[1].as_ref().unwrap();
        assert_eq!(b.hits.len(), serial.hits.len());
        for (x, y) in b.hits.iter().zip(&serial.hits) {
            assert_eq!(x.hit.phrase, y.hit.phrase);
            assert_eq!(x.hit.score.to_bits(), y.hit.score.to_bits());
        }
    }
}
