//! Disk-resident **block-compressed** lists: the third serving backend.
//!
//! [`BlockImage`] wraps an `ipm_index::block::BlockLists` encoding with a
//! simulated [`BufferPool`]: the two encoded regions (score-ordered blocks
//! first, id-ordered blocks behind them) form one contiguous "file", and
//! every *block decode* charges its byte range to the pool via the block
//! cursors' fetch hooks. Blocks the traversal skips — block-max pruning on
//! the score side, `seek` galloping on the id side — are never decoded and
//! therefore never fetched, which is exactly the IO reduction the skip
//! metadata exists to buy (compare `IoStats` against [`crate::DiskLists`],
//! whose flat cursors must stream every 12-byte entry they pass over).
//!
//! Like the flat disk image, the pool simulates residency and cost only;
//! the encoded bytes stay in `BlockLists`' own memory and decoding slices
//! into them directly (the paper's §5.5 log-based methodology).
//!
//! The image carries no phrase file: result texts resolve through the
//! miner's in-memory dictionary, same as the memory backend.

use std::sync::Arc;

use ipm_corpus::{Feature, PhraseId};
use ipm_index::backend::ListBackend;
use ipm_index::block::{df_table, BlockIdCursor, BlockLists, BlockScoreCursor, FetchHook};
use ipm_index::corpus_index::CorpusIndex;
use ipm_index::sharding::ShardedWordLists;
use ipm_index::wordlists::{IdOrderedLists, WordPhraseLists};
use parking_lot::Mutex;

use crate::cost::{CostModel, IoStats};
use crate::pool::{BufferPool, PoolConfig};

/// Block-compressed lists behind a simulated buffer pool.
pub struct BlockImage {
    lists: BlockLists,
    pool: Mutex<BufferPool>,
    cost: CostModel,
}

impl BlockImage {
    /// Wraps an encoded `BlockLists` with a pool in the paper's default
    /// configuration.
    pub fn new(lists: BlockLists) -> Self {
        Self::with_config(lists, PoolConfig::default(), CostModel::default())
    }

    /// Full-control constructor.
    pub fn with_config(lists: BlockLists, pool: PoolConfig, cost: CostModel) -> Self {
        Self {
            lists,
            pool: Mutex::new(BufferPool::new(pool)),
            cost,
        }
    }

    /// Encodes `lists`/`id_lists` against `index`'s df table and wraps the
    /// result (the common unsharded case; `score_fraction < 1.0` freezes a
    /// build-time cut of the score-ordered lists, paper §4.3).
    pub fn build(
        index: &CorpusIndex,
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        score_fraction: f64,
        pool: PoolConfig,
        cost: CostModel,
    ) -> Self {
        let df = Arc::new(df_table(index));
        let encoded = if score_fraction < 1.0 {
            BlockLists::build(&lists.partial(score_fraction), id_lists, df, None)
        } else {
            BlockLists::build(lists, id_lists, df, None)
        };
        Self::with_config(encoded, pool, cost)
    }

    /// The wrapped encoding (sizes, compression ratio, df table).
    pub fn lists(&self) -> &BlockLists {
        &self.lists
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshot of accumulated IO statistics.
    pub fn io_stats(&self) -> IoStats {
        self.pool.lock().stats()
    }

    /// Simulated IO milliseconds accumulated so far.
    pub fn io_ms(&self) -> f64 {
        self.io_stats().io_ms(&self.cost)
    }

    /// Cold-cache reset (between queries in the experiment harness).
    pub fn reset_io(&self) {
        self.pool.lock().reset();
    }

    /// Length of the simulated file: both encoded regions, contiguous.
    pub(crate) fn file_len(&self) -> u64 {
        self.lists.image_bytes() as u64
    }

    /// A fetch hook charging one block's byte range to the pool.
    pub(crate) fn charge_hook(&self) -> FetchHook<'_> {
        let file_len = self.file_len();
        Box::new(move |offset, len| self.pool.lock().access_range(offset, len, file_len))
    }
}

impl std::fmt::Debug for BlockImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockImage")
            .field("encoded_bytes", &self.lists.encoded_bytes())
            .field("flat_bytes", &self.lists.flat_bytes())
            .field("io", &self.io_stats())
            .finish()
    }
}

impl ListBackend for BlockImage {
    type ScoreCursor<'a> = BlockScoreCursor<'a>;
    type IdCursor<'a> = BlockIdCursor<'a>;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> BlockScoreCursor<'_> {
        self.lists
            .score_cursor_with_hook(feature, fraction, Some(self.charge_hook()))
    }

    fn id_cursor(&self, feature: Feature) -> BlockIdCursor<'_> {
        self.lists
            .id_cursor_with_hook(feature, Some(self.charge_hook()))
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        let file_len = self.file_len();
        let charge = |offset: u64, len: u64| self.pool.lock().access_range(offset, len, file_len);
        self.lists.probe_with_hook(feature, phrase, Some(&charge))
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.lists.list_len(feature)
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.lists.phrase_range()
    }

    fn io_fetches(&self) -> u64 {
        self.pool.lock().stats().total_fetches()
    }

    fn size_bytes(&self) -> usize {
        self.lists.size_bytes()
    }
}

/// A block-compressed image partitioned by phrase-id range: one
/// [`BlockImage`] (own pool — deterministic per-shard accounting under
/// parallel execution, as for [`crate::ShardedDiskImage`]) per shard, one
/// shared df table.
pub struct ShardedBlockImage {
    shards: Vec<BlockImage>,
    ranges: Vec<(PhraseId, PhraseId)>,
}

impl ShardedBlockImage {
    /// Encodes every shard of `sharded` against one shared df table.
    /// `score_fraction < 1.0` truncates each shard's score-ordered lists
    /// before encoding (per-shard build-time cut, mirroring
    /// [`crate::ShardedDiskImage::build`]).
    pub fn build(
        index: &CorpusIndex,
        sharded: &ShardedWordLists,
        score_fraction: f64,
        pool: PoolConfig,
        cost: CostModel,
    ) -> Self {
        let df = Arc::new(df_table(index));
        let mut shards = Vec::with_capacity(sharded.num_shards());
        let mut ranges = Vec::with_capacity(sharded.num_shards());
        for s in sharded.shards() {
            let lists = if score_fraction < 1.0 {
                s.lists().partial(score_fraction)
            } else {
                s.lists().clone()
            };
            let encoded = BlockLists::build(&lists, s.id_lists(), df.clone(), Some(s.range()));
            shards.push(BlockImage::with_config(encoded, pool, cost));
            ranges.push(s.range());
        }
        Self { shards, ranges }
    }

    /// The per-shard images, in ascending range order. Each is a complete
    /// `ListBackend` over its partition.
    pub fn shards(&self) -> &[BlockImage] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The image owning `phrase` (ranges cover the full id space).
    pub fn owner(&self, phrase: PhraseId) -> &BlockImage {
        let i = self
            .ranges
            .iter()
            .position(|&(lo, hi)| lo <= phrase && phrase < hi)
            .expect("ranges cover the full phrase-id space");
        &self.shards[i]
    }

    /// Cold-cache reset of every shard's pool.
    pub fn reset_io(&self) {
        for s in &self.shards {
            s.reset_io();
        }
    }

    /// Aggregate IO across shards since the last reset.
    pub fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for s in &self.shards {
            total.accumulate(&s.io_stats());
        }
        total
    }

    /// Total encoded bytes across shards plus the shared df table, counted
    /// once (every shard holds the same `Arc`).
    pub fn size_bytes(&self) -> usize {
        let encoded: usize = self.shards.iter().map(|s| s.lists().encoded_bytes()).sum();
        encoded + self.shards.first().map_or(0, |s| s.lists().df_bytes())
    }
}

impl std::fmt::Debug for ShardedBlockImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBlockImage")
            .field("shards", &self.shards.len())
            .field("bytes", &self.size_bytes())
            .field("io", &self.io_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::Corpus;
    use ipm_index::corpus_index::IndexConfig;
    use ipm_index::cursor::{IdListCursor, ScoredListCursor};
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::WordListConfig;

    fn setup() -> (Corpus, CorpusIndex, WordPhraseLists, IdOrderedLists) {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 3,
                    max_len: 4,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let idl = IdOrderedLists::from_score_ordered(&lists);
        (c, index, lists, idl)
    }

    fn image() -> (BlockImage, WordPhraseLists, IdOrderedLists) {
        let (_, index, lists, idl) = setup();
        let img = BlockImage::build(
            &index,
            &lists,
            &idl,
            1.0,
            PoolConfig::default(),
            CostModel::default(),
        );
        (img, lists, idl)
    }

    #[test]
    fn cursors_match_memory_lists_and_charge_io() {
        let (img, lists, idl) = image();
        for &feat in lists.features() {
            let mut cur = img.score_cursor(feat, 1.0);
            for e in lists.list(feat) {
                let got = ScoredListCursor::next_entry(&mut cur).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(ScoredListCursor::next_entry(&mut cur).is_none());
            let mut idc = img.id_cursor(feat);
            for e in idl.list(feat) {
                let got = IdListCursor::next_entry(&mut idc).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
        }
        assert!(
            img.io_stats().total_accesses() > 0,
            "block decodes must reach the pool"
        );
    }

    #[test]
    fn probe_matches_memory_and_charges() {
        let (img, lists, _) = image();
        img.reset_io();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        for e in lists.list(feat).iter().take(10) {
            assert_eq!(img.probe(feat, e.phrase), e.prob);
        }
        assert_eq!(img.probe(feat, PhraseId(u32::MAX)), 0.0);
        assert!(img.io_stats().total_accesses() > 0);
    }

    #[test]
    fn io_accounting_and_reset() {
        let (img, lists, _) = image();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let mut cur = img.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        assert!(img.io_ms() > 0.0);
        assert!(img.io_fetches() > 0);
        let paid = img.io_stats().total_accesses();
        // A second identical pass re-decodes, but pages may be resident.
        let mut cur = img.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        assert!(img.io_stats().total_accesses() > paid);
        img.reset_io();
        assert_eq!(img.io_stats(), IoStats::default());
    }

    #[test]
    fn seek_skips_blocks_without_fetching_them() {
        // Galloping to the tail of a long id-ordered list must touch fewer
        // pages than streaming it: skipped blocks are never decoded, so
        // their byte ranges never reach the pool.
        let (_, index, lists, idl) = setup();
        let small_pages = PoolConfig {
            page_size: 64,
            capacity_pages: 16,
            lookahead_pages: 0,
        };
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let last = idl.list(feat).last().unwrap().phrase;

        let build =
            || BlockImage::build(&index, &lists, &idl, 1.0, small_pages, CostModel::default());
        let streamed = build();
        let mut cur = streamed.id_cursor(feat);
        while IdListCursor::next_entry(&mut cur).is_some() {}
        let full = streamed.io_stats().total_accesses();

        let sought = build();
        let mut cur = sought.id_cursor(feat);
        assert_eq!(cur.seek(last).unwrap().phrase, last);
        let skipped = sought.io_stats().total_accesses();
        assert!(
            skipped < full,
            "seek paid {skipped} accesses, full stream paid {full}"
        );
    }

    #[test]
    fn sharded_image_covers_every_entry_and_aggregates_io() {
        let (_, index, lists, idl) = setup();
        let sharded = ShardedWordLists::build(&lists, &idl, index.dict.len(), 3);
        let img = ShardedBlockImage::build(
            &index,
            &sharded,
            1.0,
            PoolConfig::default(),
            CostModel::default(),
        );
        assert_eq!(img.num_shards(), 3);
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let mut seen = 0usize;
        for shard in img.shards() {
            let (lo, hi) = shard.phrase_range().unwrap();
            let mut cur = shard.score_cursor(feat, 1.0);
            while let Some(e) = ScoredListCursor::next_entry(&mut cur) {
                assert!(lo <= e.phrase && e.phrase < hi);
                assert!(lists
                    .list(feat)
                    .iter()
                    .any(|x| x.phrase == e.phrase && x.prob.to_bits() == e.prob.to_bits()));
                seen += 1;
            }
        }
        assert_eq!(seen, lists.list(feat).len(), "no entry lost or invented");
        let total = img.io_stats();
        let per_shard: u64 = img
            .shards()
            .iter()
            .map(|s| s.io_stats().total_accesses())
            .sum();
        assert_eq!(total.total_accesses(), per_shard);
        assert!(img.owner(lists.list(feat)[0].phrase).io_fetches() > 0);
        img.reset_io();
        assert_eq!(img.io_stats(), IoStats::default());
    }

    #[test]
    fn df_table_counted_once_in_sharded_size() {
        let (_, index, lists, idl) = setup();
        let build = |n| {
            ShardedBlockImage::build(
                &index,
                &ShardedWordLists::build(&lists, &idl, index.dict.len(), n),
                1.0,
                PoolConfig::default(),
                CostModel::default(),
            )
        };
        let one = build(1);
        let four = build(4);
        // Sharding re-cuts the same entries into narrower blocks; sizes
        // may differ slightly (per-block widths), but the df table must
        // not be multiplied by the fanout.
        let df = one.shards()[0].lists().df_bytes();
        assert!(four.size_bytes() < four.shards().iter().map(|s| s.size_bytes()).sum::<usize>());
        assert!(one.size_bytes() >= df);
    }

    #[test]
    fn build_time_fraction_truncates_score_side_only() {
        let (_, index, lists, idl) = setup();
        let img = BlockImage::build(
            &index,
            &lists,
            &idl,
            0.25,
            PoolConfig::default(),
            CostModel::default(),
        );
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let full = lists.list(feat).len();
        assert_eq!(
            img.list_len(feat),
            ipm_index::cursor::prefix_len(full, 0.25)
        );
        let mut idc = img.id_cursor(feat);
        let mut n = 0;
        while IdListCursor::next_entry(&mut idc).is_some() {
            n += 1;
        }
        assert_eq!(n, full, "id side frozen at its own fraction");
    }
}
