//! Decoded-block LRU cache: the batch executor's shared-scan store.
//!
//! Two queries that share a word walk the same encoded blocks; without
//! help each one pays the bit-unpack + dequantize cost again. The
//! [`DecodedBlockCache`] keeps recently decoded blocks (as shared
//! `Arc<Vec<ListEntry>>`) keyed by `(epoch, image, offset)`:
//!
//! * **epoch** — the engine's live-state generation, same keying as the
//!   result cache: a generation swap (compaction, live-swap) strands every
//!   old entry on a key no reader will ever form again, so invalidation is
//!   free and a mid-batch bump can never serve a stale block.
//! * **image** — [`BlockImage::image_id`], process-unique per image, so
//!   shard slices and rebuilt images never collide at equal offsets.
//! * **offset** — the absolute payload offset inside the image's combined
//!   data file (score region first, id region behind it; disjoint).
//!
//! The cache sits **behind** the buffer pool, not in front of it: cursors
//! fire the pool-charging fetch hook before consulting the cache, so IO
//! accounting, §5.5 cost numbers, and io-budget trip points are identical
//! with or without it. A hit saves decode CPU only — which is the point:
//! on one core, amortized decode is the whole batching win. Random probes
//! bypass the cache: a probe unpacks only the gaps up to its target and
//! one count, which costs less than a lookup.
//!
//! Capacity is counted in *blocks* (each decoded block is at most
//! [`BLOCK_SIZE`](ipm_index::block::BLOCK_SIZE) entries of 12 bytes), and
//! eviction is least-recently-used across eight independent shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{Feature, PhraseId};
use ipm_index::backend::ListBackend;
use ipm_index::block::{BlockIdCursor, BlockScoreCursor, DecodedBlockProvider};
use ipm_index::wordlists::ListEntry;
use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::blockimage::BlockImage;

/// Lock shards: enough to keep batch members off each other's necks,
/// small enough that a few thousand blocks still spread usefully.
const CACHE_SHARDS: usize = 8;

/// Full cache key for one decoded block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockKey {
    epoch: u64,
    image: u64,
    offset: u64,
}

impl BlockKey {
    fn shard(self) -> usize {
        // Offsets are block-aligned-ish multiples of tens of bytes; mix
        // before taking the top bits so neighbouring blocks spread.
        let h = (self.offset ^ self.image.rotate_left(32) ^ self.epoch.rotate_left(17))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 61) as usize % CACHE_SHARDS
    }
}

/// Monotone hit / miss counters (cumulative, never reset).
#[derive(Debug, Default)]
pub struct DecodeStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecodeStats {
    /// Records one physical lookup standing in for `weight` logical
    /// per-member block reads — the fused shared-scan accounting. A fused
    /// cursor walks a list once on behalf of `weight` member queries:
    /// the one decode it performs (or the one cached block it finds)
    /// serves all of them, so a miss books `1` miss plus `weight - 1`
    /// hits, and a hit books `weight` hits. With `weight == 1` this is
    /// the plain per-item accounting, which keeps fused and per-item
    /// batch paths directly comparable: hits always count block reads
    /// that needed no bit-unpack.
    fn record_weighted(&self, hit: bool, weight: u64) {
        if hit {
            self.hits.fetch_add(weight, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.hits
                .fetch_add(weight.saturating_sub(1), Ordering::Relaxed);
        }
    }

    /// Lookups that found a decoded block.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh decode.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[derive(Default)]
struct Shard {
    /// key -> (recency stamp, shared decoded entries)
    map: FxHashMap<BlockKey, (u64, Arc<Vec<ListEntry>>)>,
    /// stamp -> key, ascending: the front is the LRU victim.
    order: BTreeMap<u64, BlockKey>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: BlockKey) -> Option<Arc<Vec<ListEntry>>> {
        self.clock += 1;
        let clock = self.clock;
        let (stamp, entries) = self.map.get_mut(&key)?;
        self.order.remove(&*stamp);
        *stamp = clock;
        let entries = entries.clone();
        self.order.insert(clock, key);
        Some(entries)
    }

    fn insert(&mut self, key: BlockKey, entries: Arc<Vec<ListEntry>>, capacity: usize) {
        self.clock += 1;
        if let Some((old, _)) = self.map.insert(key, (self.clock, entries)) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key);
        while self.map.len() > capacity {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            self.map.remove(&victim);
        }
    }
}

/// Sharded LRU of decoded blocks, sized in blocks. See the module docs
/// for the keying and accounting contract.
pub struct DecodedBlockCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    stats: DecodeStats,
}

impl DecodedBlockCache {
    /// A cache holding at most (roughly) `capacity_blocks` decoded blocks.
    /// Capacities below `CACHE_SHARDS` round up to one block per shard.
    pub fn new(capacity_blocks: usize) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard_capacity: capacity_blocks.div_ceil(CACHE_SHARDS).max(1),
            stats: DecodeStats::default(),
        }
    }

    /// Total block capacity (after per-shard rounding).
    pub fn capacity_blocks(&self) -> usize {
        self.per_shard_capacity * CACHE_SHARDS
    }

    /// Decoded blocks currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit / miss counters across all users of the cache.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    fn get(&self, key: BlockKey, weight: u64) -> Option<Arc<Vec<ListEntry>>> {
        let hit = self.shards[key.shard()].lock().touch(key);
        self.stats.record_weighted(hit.is_some(), weight);
        hit
    }

    fn put(&self, key: BlockKey, entries: Arc<Vec<ListEntry>>) {
        self.shards[key.shard()]
            .lock()
            .insert(key, entries, self.per_shard_capacity);
    }
}

impl std::fmt::Debug for DecodedBlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedBlockCache")
            .field("capacity_blocks", &self.capacity_blocks())
            .field("len", &self.len())
            .field("hits", &self.stats.hits())
            .field("misses", &self.stats.misses())
            .finish()
    }
}

/// A [`BlockImage`] viewed through the decoded-block cache at a pinned
/// epoch: the batch executor's per-group backend. Delegates every
/// `ListBackend` call to the underlying image — same pool-charging fetch
/// hooks, same IO accounting — but lets the block cursors reuse (and
/// admit) decoded blocks under `(epoch, image_id, offset)` keys.
///
/// `batch` counts this wrapper's own lookups, so a batch can report its
/// local hit rate without racing other traffic on the shared cumulative
/// counters.
pub struct CachedBlockImage<'a> {
    image: &'a BlockImage,
    cache: &'a DecodedBlockCache,
    epoch: u64,
    batch: &'a DecodeStats,
    /// Logical per-member reads each physical lookup stands in for
    /// (`1` on the per-item batch path; the member multiplicity of the
    /// walked feature on the fused shared-scan path — see
    /// [`DecodeStats`]' weighted accounting).
    weight: u64,
}

impl<'a> CachedBlockImage<'a> {
    /// Views `image` through `cache` at `epoch`, tallying this view's
    /// lookups into `batch`.
    pub fn new(
        image: &'a BlockImage,
        cache: &'a DecodedBlockCache,
        epoch: u64,
        batch: &'a DecodeStats,
    ) -> Self {
        Self {
            image,
            cache,
            epoch,
            batch,
            weight: 1,
        }
    }

    /// A view whose every block lookup stands in for `weight` logical
    /// per-member reads (fused shared scans: one cursor walks a list on
    /// behalf of `weight` member queries). Weights below one round up.
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// The wrapped image.
    pub fn image(&self) -> &'a BlockImage {
        self.image
    }

    fn key(&self, offset: u64) -> BlockKey {
        BlockKey {
            epoch: self.epoch,
            image: self.image.image_id(),
            offset,
        }
    }
}

impl DecodedBlockProvider for CachedBlockImage<'_> {
    fn lookup(&self, offset: u64) -> Option<Arc<Vec<ListEntry>>> {
        let hit = self.cache.get(self.key(offset), self.weight);
        self.batch.record_weighted(hit.is_some(), self.weight);
        hit
    }

    fn admit(&self, offset: u64, entries: Arc<Vec<ListEntry>>) {
        self.cache.put(self.key(offset), entries);
    }
}

impl ListBackend for CachedBlockImage<'_> {
    type ScoreCursor<'b>
        = BlockScoreCursor<'b>
    where
        Self: 'b;
    type IdCursor<'b>
        = BlockIdCursor<'b>
    where
        Self: 'b;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> BlockScoreCursor<'_> {
        self.image.lists().score_cursor_cached(
            feature,
            fraction,
            Some(self.image.charge_hook()),
            Some(self),
        )
    }

    fn id_cursor(&self, feature: Feature) -> BlockIdCursor<'_> {
        self.image
            .lists()
            .id_cursor_cached(feature, Some(self.image.charge_hook()), Some(self))
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        self.image.probe(feature, phrase)
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.image.list_len(feature)
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.image.phrase_range()
    }

    fn io_fetches(&self) -> u64 {
        self.image.io_fetches()
    }

    fn size_bytes(&self) -> usize {
        self.image.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::pool::PoolConfig;
    use ipm_index::corpus_index::{CorpusIndex, IndexConfig};
    use ipm_index::cursor::ScoredListCursor;
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::{IdOrderedLists, WordListConfig, WordPhraseLists};

    fn image() -> (BlockImage, WordPhraseLists) {
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
        let img = BlockImage::build(
            &index,
            &lists,
            &idl,
            1.0,
            PoolConfig::default(),
            CostModel::default(),
        );
        (img, lists)
    }

    fn widest(lists: &WordPhraseLists) -> Feature {
        *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap()
    }

    #[test]
    fn second_scan_hits_and_stays_bit_identical_with_equal_io() {
        let (img, lists) = image();
        let feat = widest(&lists);
        let cache = DecodedBlockCache::new(4096);
        let batch = DecodeStats::default();
        let cached = CachedBlockImage::new(&img, &cache, 7, &batch);

        img.reset_io();
        let mut cur = cached.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        let first_io = img.io_stats();
        assert_eq!(batch.hits(), 0);
        assert!(batch.misses() > 0);

        // Uncached pass on a fresh image: the IO it pays from cold is what
        // the cached hit pass must also pay — the cache saves decode only.
        let (plain, _) = image();
        plain.reset_io();
        let mut cur = plain.score_cursor(feat, 1.0);
        let mut want = Vec::new();
        while let Some(e) = ScoredListCursor::next_entry(&mut cur) {
            want.push(e);
        }
        assert_eq!(plain.io_stats().total_fetches(), first_io.total_fetches());

        img.reset_io();
        let mut cur = cached.score_cursor(feat, 1.0);
        for e in &want {
            let got = ScoredListCursor::next_entry(&mut cur).unwrap();
            assert_eq!(got.phrase, e.phrase);
            assert_eq!(got.prob.to_bits(), e.prob.to_bits());
        }
        assert!(ScoredListCursor::next_entry(&mut cur).is_none());
        assert_eq!(
            img.io_stats().total_fetches(),
            first_io.total_fetches(),
            "a hit pass charges the pool exactly like a cold pass"
        );
        assert!(batch.hits() > 0, "second scan must reuse decoded blocks");
        assert_eq!(cache.stats().hits(), batch.hits());
        assert!(batch.hit_rate() > 0.0);
    }

    #[test]
    fn epochs_and_images_partition_the_key_space() {
        let (img, lists) = image();
        let feat = widest(&lists);
        let cache = DecodedBlockCache::new(4096);
        let warm = DecodeStats::default();
        let at_epoch = |epoch: u64, stats: &DecodeStats| {
            let cached = CachedBlockImage::new(&img, &cache, epoch, stats);
            let mut cur = cached.score_cursor(feat, 1.0);
            while ScoredListCursor::next_entry(&mut cur).is_some() {}
        };
        at_epoch(1, &warm);
        // Same image, bumped epoch: every block misses — old entries are
        // unreachable, never stale.
        let bumped = DecodeStats::default();
        at_epoch(2, &bumped);
        assert_eq!(bumped.hits(), 0, "epoch bump must invalidate everything");
        assert!(bumped.misses() > 0);
        // Same epoch again: all hits.
        let again = DecodeStats::default();
        at_epoch(2, &again);
        assert_eq!(again.misses(), 0);

        // A different image at the same epoch shares nothing either.
        let (other, _) = image();
        assert_ne!(other.image_id(), img.image_id());
        let cross = DecodeStats::default();
        let cached = CachedBlockImage::new(&other, &cache, 2, &cross);
        let mut cur = cached.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        assert_eq!(cross.hits(), 0, "image ids must not collide");
    }

    #[test]
    fn weighted_view_books_member_reuse_as_hits() {
        let (img, lists) = image();
        let feat = widest(&lists);
        let cache = DecodedBlockCache::new(4096);
        let batch = DecodeStats::default();
        let cached = CachedBlockImage::new(&img, &cache, 3, &batch).with_weight(4);
        let mut cur = cached.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        // Cold walk at weight 4: every block books one decode (miss) and
        // three avoided decodes (hits), in both tallies.
        assert!(batch.misses() > 0);
        assert_eq!(batch.hits(), batch.misses() * 3);
        assert_eq!(cache.stats().hits(), batch.hits());
        assert_eq!(cache.stats().misses(), batch.misses());
        // Warm walk at the same weight: four hits per block, no misses.
        let (h0, m0) = (batch.hits(), batch.misses());
        let mut cur = cached.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        assert_eq!(batch.misses(), m0);
        assert_eq!(batch.hits(), h0 + m0 * 4);
    }

    #[test]
    fn capacity_is_enforced_by_lru_eviction() {
        let (img, lists) = image();
        let feat = widest(&lists);
        let cache = DecodedBlockCache::new(1); // rounds to 1 block per shard
        let batch = DecodeStats::default();
        let cached = CachedBlockImage::new(&img, &cache, 1, &batch);
        let mut cur = cached.score_cursor(feat, 1.0);
        while ScoredListCursor::next_entry(&mut cur).is_some() {}
        assert!(cache.len() <= cache.capacity_blocks());
        assert!(cache.capacity_blocks() < batch.misses() as usize + batch.hits() as usize);
    }
}
