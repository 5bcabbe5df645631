//! Block-compressed word-specific phrase lists with skip metadata.
//!
//! The third [`ListBackend`]: each list is cut into fixed-size blocks of
//! [`BLOCK_SIZE`] entries. Phrase ids are bit-packed to the block's
//! minimum width (delta-encoded gaps in the id-ordered region, absolute
//! ids in the score-ordered region, whose ids are not monotone). Scores
//! are **not** stored as doubles: every probability the miner emits is the
//! integer rational `count / df(phrase)` (paper Eq. 13), so each entry
//! stores the co-occurrence count bit-packed to the block's minimum count
//! width, next to a shared per-phrase document-frequency table — the same
//! integer-recovery trick the delta layer uses for corrections. Decoding
//! recomputes `count as f64 / df as f64`, which reproduces the miner's
//! `f64` **bit for bit**, so every algorithm over `BlockLists` returns
//! results byte-identical to [`MemoryBackend`](crate::backend::MemoryBackend).
//!
//! Every block carries skip metadata — lowest/highest phrase id and
//! max/min probability — which feeds the cursor capability hooks
//! ([`ScoredListCursor::block_max_hint`], [`ScoredListCursor::skip_block`],
//! [`IdListCursor::seek`]): the threshold algorithms skip score blocks
//! whose max cannot beat the defended top-k floor, and SMJ gallops over id
//! blocks whose highest id is below the merge frontier, all without
//! decoding (or, behind `ipm_storage`'s block image, fetching) them.
//!
//! The block-granular hot loops (batch dequantize, metadata max-scan, the
//! Eq. 8/12 accumulations) have a SIMD fast path in [`simd`] behind the
//! `simd` cargo feature — stable `std::arch` AVX2 with runtime detection;
//! the scalar path is the default and the only path on other
//! architectures.

use crate::backend::ListBackend;
use crate::corpus_index::CorpusIndex;
use crate::cursor::{prefix_len, IdListCursor, ScoredListCursor};
use crate::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists, ENTRY_BYTES};
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{Feature, PhraseId};
use std::sync::Arc;

/// Entries per block. 128 keeps a decoded block inside two cache lines of
/// ids plus two of counts at typical widths, and is the granularity of
/// both skip metadata and the simulated per-block disk fetch.
pub const BLOCK_SIZE: usize = 128;

/// Skip metadata and layout of one encoded block.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// Byte offset of the block payload within its region's data array.
    pub offset: u64,
    /// Encoded payload length in bytes (blocks are byte-aligned).
    pub bytes: u32,
    /// Entries in the block (`<= BLOCK_SIZE`).
    pub len: u16,
    /// Bit width of the id column (absolute ids in score blocks, gaps in
    /// id-ordered blocks).
    pub id_bits: u8,
    /// Bit width of the co-count column.
    pub count_bits: u8,
    /// Lowest phrase id present in the block.
    pub first: PhraseId,
    /// Highest phrase id present in the block.
    pub last: PhraseId,
    /// Largest probability in the block (the block-max pruning bound).
    pub max_prob: f64,
    /// Smallest probability in the block.
    pub min_prob: f64,
}

/// One feature's list as a sequence of encoded blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockRun {
    /// Per-block metadata, in list order.
    pub blocks: Vec<BlockMeta>,
    /// Total entries across blocks.
    pub len: usize,
}

/// Observer invoked once per block *fetch* (decode) with the absolute
/// `(offset, bytes)` of the payload inside the backend's combined data
/// image — the seam `ipm_storage`'s block image uses to charge its buffer
/// pool per block instead of per entry. Skipped blocks are never fetched.
pub type FetchHook<'a> = Box<dyn Fn(u64, u64) + 'a>;

/// Fetches one block into `buf`: the hook fires (the fetch is real),
/// then the block is decoded.
#[allow(clippy::too_many_arguments)]
fn fetch_block_into(
    meta: &BlockMeta,
    region: &[u8],
    id_ordered: bool,
    df: &[u32],
    base: u64,
    hook: Option<&FetchHook<'_>>,
    scratch: &mut DecodeScratch,
    buf: &mut Vec<ListEntry>,
) {
    if let Some(h) = hook {
        h(base + meta.offset, u64::from(meta.bytes));
    }
    decode_block(meta, region, id_ordered, df, scratch, buf);
}

/// Block-compressed lists in both orders plus the shared df table.
#[derive(Debug, Clone)]
pub struct BlockLists {
    slots: FxHashMap<Feature, u32>,
    features: Vec<Feature>,
    score_runs: Vec<BlockRun>,
    id_runs: Vec<BlockRun>,
    score_data: Vec<u8>,
    id_data: Vec<u8>,
    /// Per-phrase document frequency, indexed by raw phrase id. Shared
    /// (`Arc`) so shard slices dequantize against one table.
    df: Arc<Vec<u32>>,
    range: Option<(PhraseId, PhraseId)>,
}

impl BlockLists {
    /// Encodes `lists` / `id_lists` against the per-phrase `df` table.
    /// `range` marks a phrase-id shard (the inputs must already be
    /// restricted to it), `None` the full space.
    ///
    /// # Panics
    /// Panics if any probability is not exactly `count / df(phrase)` for
    /// an integer count — the miner's Eq. 13 contract, which is what makes
    /// lossless integer storage (and hence bit-identical parity) possible.
    pub fn build(
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        df: Arc<Vec<u32>>,
        range: Option<(PhraseId, PhraseId)>,
    ) -> Self {
        let mut slots = FxHashMap::default();
        let mut features = Vec::new();
        let mut score_runs = Vec::new();
        let mut id_runs = Vec::new();
        let mut score_data = Vec::new();
        let mut id_data = Vec::new();
        for &feature in lists.features() {
            slots.insert(feature, features.len() as u32);
            features.push(feature);
            score_runs.push(encode_run(lists.list(feature), false, &df, &mut score_data));
            id_runs.push(encode_run(id_lists.list(feature), true, &df, &mut id_data));
        }
        Self {
            slots,
            features,
            score_runs,
            id_runs,
            score_data,
            id_data,
            df,
            range,
        }
    }

    /// [`build`](Self::build) with the df table derived from `index` (the
    /// common unsharded case).
    pub fn from_index(
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        index: &CorpusIndex,
    ) -> Self {
        Self::build(lists, id_lists, Arc::new(df_table(index)), None)
    }

    /// The shared df table (for building further shard slices).
    pub fn df(&self) -> &Arc<Vec<u32>> {
        &self.df
    }

    /// Features with a (possibly empty) encoded list.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Total entries across score-ordered runs.
    pub fn total_entries(&self) -> usize {
        self.score_runs.iter().map(|r| r.len).sum()
    }

    /// Bytes of encoded payload (both regions) — the simulated on-disk
    /// image the block-image backend charges fetches against.
    pub fn image_bytes(&self) -> usize {
        self.score_data.len() + self.id_data.len()
    }

    /// Encoded footprint: payload plus per-block metadata.
    pub fn encoded_bytes(&self) -> usize {
        let metas = self.score_runs.iter().chain(&self.id_runs);
        self.image_bytes()
            + metas.map(|r| r.blocks.len()).sum::<usize>() * std::mem::size_of::<BlockMeta>()
    }

    /// Heap bytes of the shared df table (count once across shard slices).
    pub fn df_bytes(&self) -> usize {
        self.df.len() * std::mem::size_of::<u32>()
    }

    /// What the same entries cost in the flat 12-byte-per-entry model
    /// (§5.7 accounting), over both list orders.
    pub fn flat_bytes(&self) -> usize {
        let ids: usize = self.id_runs.iter().map(|r| r.len).sum();
        (self.total_entries() + ids) * ENTRY_BYTES
    }

    /// Flat bytes over encoded bytes — the headline compression win.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes() == 0 {
            return 1.0;
        }
        self.flat_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Score-ordered cursor with an optional per-block fetch observer.
    pub fn score_cursor_with_hook<'a>(
        &'a self,
        feature: Feature,
        fraction: f64,
        hook: Option<FetchHook<'a>>,
    ) -> BlockScoreCursor<'a> {
        let run = self
            .slots
            .get(&feature)
            .map(|&s| &self.score_runs[s as usize]);
        let limit = prefix_len(run.map_or(0, |r| r.len), fraction);
        BlockScoreCursor {
            blocks: run.map_or(&[], |r| &r.blocks),
            data: &self.score_data,
            df: &self.df,
            base: 0,
            limit,
            pos: 0,
            next_block: 0,
            buf: Vec::new(),
            buf_pos: 0,
            scratch: DecodeScratch::default(),
            hook,
        }
    }

    /// Id-ordered cursor with an optional per-block fetch observer.
    pub fn id_cursor_with_hook<'a>(
        &'a self,
        feature: Feature,
        hook: Option<FetchHook<'a>>,
    ) -> BlockIdCursor<'a> {
        let run = self.slots.get(&feature).map(|&s| &self.id_runs[s as usize]);
        BlockIdCursor {
            blocks: run.map_or(&[], |r| &r.blocks),
            len: run.map_or(0, |r| r.len),
            data: &self.id_data,
            df: &self.df,
            base: self.score_data.len() as u64,
            next_block: 0,
            buf: Vec::new(),
            buf_pos: 0,
            scratch: DecodeScratch::default(),
            hook,
        }
    }

    /// Probe with an optional fetch observer. Binary-searches the id-run
    /// skip metadata for the one block whose `[first, last]` covers
    /// `phrase`, charges that whole block to `hook` (a §5.5 fetch is
    /// page-granular, however little of it is read), then reads only
    /// what the answer needs: gaps summed from `first` up to the target,
    /// and the one matching count at its fixed bit offset. The score is
    /// the same `count / df` division the block decode performs, so it
    /// is bit-identical to a full decode; nothing is allocated.
    pub fn probe_with_hook(
        &self,
        feature: Feature,
        phrase: PhraseId,
        hook: Option<&dyn Fn(u64, u64)>,
    ) -> f64 {
        let Some(&slot) = self.slots.get(&feature) else {
            return 0.0;
        };
        let run = &self.id_runs[slot as usize];
        let b = run.blocks.partition_point(|m| m.last < phrase);
        let Some(meta) = run.blocks.get(b) else {
            return 0.0;
        };
        if phrase < meta.first {
            return 0.0;
        }
        if let Some(h) = hook {
            h(
                self.score_data.len() as u64 + meta.offset,
                u64::from(meta.bytes),
            );
        }
        match probe_id_block(meta, &self.id_data, phrase) {
            Some(count) => f64::from(count) / f64::from(self.df[phrase.raw() as usize]),
            None => 0.0,
        }
    }
}

impl ListBackend for BlockLists {
    type ScoreCursor<'a>
        = BlockScoreCursor<'a>
    where
        Self: 'a;
    type IdCursor<'a>
        = BlockIdCursor<'a>
    where
        Self: 'a;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> BlockScoreCursor<'_> {
        self.score_cursor_with_hook(feature, fraction, None)
    }

    fn id_cursor(&self, feature: Feature) -> BlockIdCursor<'_> {
        self.id_cursor_with_hook(feature, None)
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        self.probe_with_hook(feature, phrase, None)
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.slots
            .get(&feature)
            .map_or(0, |&s| self.score_runs[s as usize].len)
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.range
    }

    fn size_bytes(&self) -> usize {
        self.encoded_bytes() + self.df_bytes()
    }
}

/// The per-phrase document-frequency table of `index`, indexed by raw
/// phrase id — the denominator column every block dequantizes against.
pub fn df_table(index: &CorpusIndex) -> Vec<u32> {
    (0..index.dict.len() as u32)
        .map(|i| index.phrases.df(PhraseId(i)) as u32)
        .collect()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Bits needed to store `max_value` (at least 1).
fn width(max_value: u64) -> u32 {
    if max_value == 0 {
        1
    } else {
        u64::BITS - max_value.leading_zeros()
    }
}

fn encode_run(entries: &[ListEntry], id_ordered: bool, df: &[u32], data: &mut Vec<u8>) -> BlockRun {
    let mut blocks = Vec::with_capacity(entries.len().div_ceil(BLOCK_SIZE));
    for chunk in entries.chunks(BLOCK_SIZE) {
        blocks.push(encode_block(chunk, id_ordered, df, data));
    }
    BlockRun {
        blocks,
        len: entries.len(),
    }
}

fn encode_block(
    chunk: &[ListEntry],
    id_ordered: bool,
    df: &[u32],
    data: &mut Vec<u8>,
) -> BlockMeta {
    let counts: Vec<u32> = chunk.iter().map(|e| recover_count(e, df)).collect();
    let count_bits = width(u64::from(counts.iter().copied().max().unwrap_or(0)));
    let id_bits = if id_ordered {
        // Strictly ascending ids: store gaps from the predecessor; the
        // first id lives in the metadata.
        let max_gap = chunk
            .windows(2)
            .map(|w| u64::from(w[1].phrase.raw() - w[0].phrase.raw()))
            .max()
            .unwrap_or(0);
        width(max_gap)
    } else {
        width(u64::from(
            chunk.iter().map(|e| e.phrase.raw()).max().unwrap_or(0),
        ))
    };

    let mut w = BitWriter::default();
    if id_ordered {
        for pair in chunk.windows(2) {
            w.write(
                u64::from(pair[1].phrase.raw() - pair[0].phrase.raw()),
                id_bits,
            );
        }
    } else {
        for e in chunk {
            w.write(u64::from(e.phrase.raw()), id_bits);
        }
    }
    for &c in &counts {
        w.write(u64::from(c), count_bits);
    }
    let payload = w.into_bytes();
    let offset = data.len() as u64;
    let bytes = payload.len() as u32;
    data.extend_from_slice(&payload);

    let probs: Vec<f64> = chunk.iter().map(|e| e.prob).collect();
    let (max_prob, min_prob) = if id_ordered {
        // Id order says nothing about scores: scan (the SIMD max-scan
        // build kernel).
        let max = simd::max_scan(&probs);
        let min = probs.iter().copied().fold(f64::INFINITY, f64::min);
        (max, min)
    } else {
        // Score order is non-increasing: the extremes are the endpoints.
        (chunk[0].prob, chunk[chunk.len() - 1].prob)
    };
    let (first, last) = if id_ordered {
        (chunk[0].phrase, chunk[chunk.len() - 1].phrase)
    } else {
        (
            chunk.iter().map(|e| e.phrase).min().unwrap(),
            chunk.iter().map(|e| e.phrase).max().unwrap(),
        )
    };

    BlockMeta {
        offset,
        bytes,
        len: chunk.len() as u16,
        id_bits: id_bits as u8,
        count_bits: count_bits as u8,
        first,
        last,
        max_prob,
        min_prob,
    }
}

/// Recovers the integer co-count behind `e.prob = count / df(phrase)` and
/// verifies the round trip is exact — the lossless-storage contract.
fn recover_count(e: &ListEntry, df: &[u32]) -> u32 {
    let d = df.get(e.phrase.raw() as usize).copied().unwrap_or_default();
    assert!(
        d > 0,
        "phrase {:?} has no document frequency; df table does not match the lists",
        e.phrase
    );
    let count = (e.prob * f64::from(d)).round();
    let exact = count >= 0.0
        && count <= f64::from(u32::MAX)
        && (count / f64::from(d)).to_bits() == e.prob.to_bits();
    assert!(
        exact,
        "probability {} of phrase {:?} is not an exact integer rational over df {d} \
         (Eq. 13 contract); lossless block storage is impossible",
        e.prob, e.phrase
    );
    count as u32
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct DecodeScratch {
    ids: Vec<u32>,
    counts: Vec<u32>,
    dfs: Vec<f64>,
    probs: Vec<f64>,
}

fn decode_block(
    meta: &BlockMeta,
    region: &[u8],
    id_ordered: bool,
    df: &[u32],
    scratch: &mut DecodeScratch,
    out: &mut Vec<ListEntry>,
) {
    let payload = &region[meta.offset as usize..meta.offset as usize + meta.bytes as usize];
    let len = usize::from(meta.len);
    let id_bits = u32::from(meta.id_bits);
    let count_bits = u32::from(meta.count_bits);

    scratch.ids.clear();
    let counts_at = if id_ordered {
        let mut id = meta.first.raw();
        scratch.ids.push(id);
        for i in 0..len - 1 {
            id += read_bits(payload, i as u64 * u64::from(id_bits), id_bits) as u32;
            scratch.ids.push(id);
        }
        (len - 1) as u64 * u64::from(id_bits)
    } else {
        for i in 0..len {
            scratch
                .ids
                .push(read_bits(payload, i as u64 * u64::from(id_bits), id_bits) as u32);
        }
        len as u64 * u64::from(id_bits)
    };
    scratch.counts.clear();
    for i in 0..len {
        scratch.counts.push(read_bits(
            payload,
            counts_at + i as u64 * u64::from(count_bits),
            count_bits,
        ) as u32);
    }
    scratch.dfs.clear();
    scratch
        .dfs
        .extend(scratch.ids.iter().map(|&id| f64::from(df[id as usize])));
    simd::dequantize(&scratch.counts, &scratch.dfs, &mut scratch.probs);

    out.clear();
    out.extend(
        scratch
            .ids
            .iter()
            .zip(&scratch.probs)
            .map(|(&id, &prob)| ListEntry {
                phrase: PhraseId(id),
                prob,
            }),
    );
}

/// The co-count stored for `target` in an id-ordered block, or `None` if
/// the block does not hold it. Requires `meta.first <= target <=
/// meta.last`: the gap sum stops at the first id at or past the target,
/// which the `last` bound guarantees exists, so at most the gaps before
/// the target and one count are unpacked.
fn probe_id_block(meta: &BlockMeta, region: &[u8], target: PhraseId) -> Option<u32> {
    debug_assert!(meta.first <= target && target <= meta.last);
    let payload = &region[meta.offset as usize..meta.offset as usize + meta.bytes as usize];
    let id_bits = u32::from(meta.id_bits);
    let count_bits = u32::from(meta.count_bits);
    let mut id = meta.first.raw();
    let mut i = 0u64;
    while id < target.raw() {
        id += read_bits(payload, i * u64::from(id_bits), id_bits) as u32;
        i += 1;
    }
    if id != target.raw() {
        return None;
    }
    let counts_at = u64::from(meta.len - 1) * u64::from(id_bits);
    Some(read_bits(payload, counts_at + i * u64::from(count_bits), count_bits) as u32)
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// Score-ordered cursor over a block run. Decodes one block at a time;
/// [`block_max_hint`](ScoredListCursor::block_max_hint) answers from skip
/// metadata without fetching, and
/// [`skip_block`](ScoredListCursor::skip_block) drops a whole undecoded
/// block when the caller has proven it irrelevant.
pub struct BlockScoreCursor<'a> {
    blocks: &'a [BlockMeta],
    data: &'a [u8],
    df: &'a [u32],
    base: u64,
    limit: usize,
    pos: usize,
    next_block: usize,
    buf: Vec<ListEntry>,
    buf_pos: usize,
    scratch: DecodeScratch,
    hook: Option<FetchHook<'a>>,
}

impl BlockScoreCursor<'_> {
    fn fetch_next_block(&mut self) -> bool {
        let Some(meta) = self.blocks.get(self.next_block) else {
            return false;
        };
        fetch_block_into(
            meta,
            self.data,
            false,
            self.df,
            self.base,
            self.hook.as_ref(),
            &mut self.scratch,
            &mut self.buf,
        );
        self.next_block += 1;
        self.buf_pos = 0;
        true
    }
}

impl ScoredListCursor for BlockScoreCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        if self.pos >= self.limit {
            return None;
        }
        if self.buf_pos >= self.buf.len() && !self.fetch_next_block() {
            return None;
        }
        let e = self.buf[self.buf_pos];
        self.buf_pos += 1;
        self.pos += 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.limit
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn block_max_hint(&self) -> Option<f64> {
        if self.pos >= self.limit {
            return None;
        }
        if self.buf_pos < self.buf.len() {
            // Within a decoded block the list is non-increasing: the next
            // entry bounds the rest.
            return Some(self.buf[self.buf_pos].prob);
        }
        self.blocks.get(self.next_block).map(|m| m.max_prob)
    }

    fn skip_block(&mut self) -> usize {
        let remaining = self.limit - self.pos;
        if remaining == 0 {
            return 0;
        }
        if self.buf_pos < self.buf.len() {
            // Drop the rest of the decoded block.
            let n = (self.buf.len() - self.buf_pos).min(remaining);
            self.buf_pos += n;
            self.pos += n;
            return n;
        }
        // At a block boundary: drop the next block without decoding or
        // fetching it (entries past the partial-list limit would never be
        // yielded anyway).
        let Some(meta) = self.blocks.get(self.next_block) else {
            return 0;
        };
        let n = usize::from(meta.len).min(remaining);
        self.next_block += 1;
        self.pos += n;
        n
    }
}

/// Id-ordered cursor over a block run. [`seek`](IdListCursor::seek) skips
/// whole blocks via first/last-id metadata without decoding them.
pub struct BlockIdCursor<'a> {
    blocks: &'a [BlockMeta],
    len: usize,
    data: &'a [u8],
    df: &'a [u32],
    base: u64,
    next_block: usize,
    buf: Vec<ListEntry>,
    buf_pos: usize,
    scratch: DecodeScratch,
    hook: Option<FetchHook<'a>>,
}

impl BlockIdCursor<'_> {
    fn fetch_next_block(&mut self) -> bool {
        let Some(meta) = self.blocks.get(self.next_block) else {
            return false;
        };
        fetch_block_into(
            meta,
            self.data,
            true,
            self.df,
            self.base,
            self.hook.as_ref(),
            &mut self.scratch,
            &mut self.buf,
        );
        self.next_block += 1;
        self.buf_pos = 0;
        true
    }
}

impl IdListCursor for BlockIdCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        if self.buf_pos >= self.buf.len() && !self.fetch_next_block() {
            return None;
        }
        let e = self.buf[self.buf_pos];
        self.buf_pos += 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn seek(&mut self, target: PhraseId) -> Option<ListEntry> {
        // Finish the decoded block first (binary search — it is sorted).
        if self.buf_pos < self.buf.len() {
            self.buf_pos += self.buf[self.buf_pos..].partition_point(|e| e.phrase < target);
            if self.buf_pos < self.buf.len() {
                return self.next_entry();
            }
        }
        // Skip every block whose highest id is below the target — pure
        // metadata, nothing decoded or fetched.
        while let Some(meta) = self.blocks.get(self.next_block) {
            if meta.last < target {
                self.next_block += 1;
            } else {
                break;
            }
        }
        if !self.fetch_next_block() {
            return None;
        }
        self.buf_pos = self.buf.partition_point(|e| e.phrase < target);
        self.next_entry()
    }
}

// ---------------------------------------------------------------------------
// Bit packing (LSB-first, byte-aligned per block)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: u64,
}

impl BitWriter {
    /// Appends the low `bits` bits of `value` (`1..=64`).
    fn write(&mut self, value: u64, bits: u32) {
        debug_assert!((1..=64).contains(&bits));
        debug_assert!(
            bits == 64 || value < (1u64 << bits),
            "value overflows width"
        );
        let mut v = value;
        let mut remaining = bits;
        while remaining > 0 {
            let byte_idx = (self.bit_len / 8) as usize;
            let bit_in_byte = (self.bit_len % 8) as u32;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            let take = (8 - bit_in_byte).min(remaining);
            let mask = (1u64 << take) - 1;
            self.bytes[byte_idx] |= ((v & mask) as u8) << bit_in_byte;
            v >>= take;
            self.bit_len += u64::from(take);
            remaining -= take;
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads `bits` bits (`1..=64`) at absolute `bit_offset`, mirroring
/// [`BitWriter::write`]. Fields up to 56 bits wide whose containing 8
/// bytes lie inside `data` come from one little-endian word load, a
/// shift and a mask (the in-byte shift is at most 7, so the field always
/// fits the word); wider fields and reads in a slice's last 7 bytes fall
/// back to the byte loop.
fn read_bits(data: &[u8], bit_offset: u64, bits: u32) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    if bits <= 56 {
        let word = data
            .get((bit_offset / 8) as usize..)
            .and_then(<[u8]>::first_chunk::<8>);
        if let Some(word) = word {
            return (u64::from_le_bytes(*word) >> (bit_offset % 8)) & ((1u64 << bits) - 1);
        }
    }
    read_bits_bytewise(data, bit_offset, bits)
}

/// Byte-at-a-time [`read_bits`]: the fallback for wide fields and slice
/// tails, and the reference the word path is tested against.
fn read_bits_bytewise(data: &[u8], bit_offset: u64, bits: u32) -> u64 {
    debug_assert!(
        bit_offset + u64::from(bits) <= data.len() as u64 * 8,
        "bit range out of bounds"
    );
    let mut v = 0u64;
    let mut got = 0u32;
    let mut off = bit_offset;
    while got < bits {
        let byte = u64::from(data[(off / 8) as usize]);
        let bit_in_byte = (off % 8) as u32;
        let take = (8 - bit_in_byte).min(bits - got);
        let chunk = (byte >> bit_in_byte) & ((1u64 << take) - 1);
        v |= chunk << got;
        got += take;
        off += u64::from(take);
    }
    v
}

// ---------------------------------------------------------------------------
// SIMD kernels
// ---------------------------------------------------------------------------

/// Block-granular kernels with an AVX2 fast path behind the `simd` cargo
/// feature (stable `std::arch`, `is_x86_feature_detected!` dispatch). The
/// scalar path is the default build and the only path on non-x86-64
/// targets. [`dequantize`](simd::dequantize) and
/// [`max_scan`](simd::max_scan) are elementwise / order-insensitive IEEE
/// operations, so both paths produce bit-identical results and sit on the
/// exact decode path; the Eq. 8/12 accumulators reassociate additions and
/// are therefore *bench kernels only*, never used where parity matters.
pub mod simd {
    /// `out[i] = counts[i] as f64 / dfs[i]` — the block dequantize step.
    /// Conversion and division are exact elementwise IEEE ops: the AVX2
    /// path is bit-identical to the scalar path.
    pub fn dequantize(counts: &[u32], dfs: &[f64], out: &mut Vec<f64>) {
        assert_eq!(counts.len(), dfs.len());
        out.clear();
        out.resize(counts.len(), 0.0);
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime; slices are equal-length.
            unsafe { avx2::dequantize(counts, dfs, out) };
            return;
        }
        for (o, (&c, &d)) in out.iter_mut().zip(counts.iter().zip(dfs)) {
            *o = f64::from(c) / d;
        }
    }

    /// Maximum of a block of probabilities (the build-time metadata scan).
    /// `max` is order-insensitive on NaN-free inputs, so both paths agree
    /// bit for bit. Returns `0.0` for an empty slice.
    pub fn max_scan(vals: &[f64]) -> f64 {
        if vals.is_empty() {
            return 0.0;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime.
            return unsafe { avx2::max_scan(vals) };
        }
        vals.iter().copied().fold(vals[0], f64::max)
    }

    /// Eq. 12 union cut over a block: `Σ probs`. The vector path
    /// reassociates additions, so this is a throughput kernel for the
    /// bench harness — **not** bit-identical to a left-to-right sum and
    /// never used on the parity-sensitive scoring path.
    pub fn or_sum(probs: &[f64]) -> f64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime.
            return unsafe { avx2::sum(probs) };
        }
        probs.iter().sum()
    }

    /// Eq. 8 log-accumulation over a block: `ln Π probs`, the multiply
    /// form of `Σ ln p`. Same caveat as [`or_sum`]: bench kernel only.
    pub fn and_log_product(probs: &[f64]) -> f64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime.
            return unsafe { avx2::product(probs) }.ln();
        }
        probs.iter().product::<f64>().ln()
    }

    /// Whether the AVX2 fast path is compiled in *and* available on this
    /// machine (reported by the bench harness next to its numbers).
    pub fn active() -> bool {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            false
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(unsafe_op_in_unsafe_fn)]
    mod avx2 {
        use std::arch::x86_64::*;

        /// # Safety
        /// Caller must have verified AVX2 support; `counts`, `dfs` and
        /// `out` must have equal lengths.
        #[target_feature(enable = "avx2")]
        pub unsafe fn dequantize(counts: &[u32], dfs: &[f64], out: &mut [f64]) {
            let n = counts.len();
            let mut i = 0;
            while i + 4 <= n {
                // Counts are document frequencies: always < 2^31, so the
                // signed i32 -> f64 conversion is exact.
                let c = _mm_loadu_si128(counts.as_ptr().add(i).cast());
                let cf = _mm256_cvtepi32_pd(c);
                let d = _mm256_loadu_pd(dfs.as_ptr().add(i));
                _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_div_pd(cf, d));
                i += 4;
            }
            while i < n {
                out[i] = f64::from(counts[i]) / dfs[i];
                i += 1;
            }
        }

        /// # Safety
        /// Caller must have verified AVX2 support; `vals` is non-empty.
        #[target_feature(enable = "avx2")]
        pub unsafe fn max_scan(vals: &[f64]) -> f64 {
            let n = vals.len();
            let mut best = vals[0];
            let mut i = 0;
            if n >= 4 {
                let mut acc = _mm256_loadu_pd(vals.as_ptr());
                i = 4;
                while i + 4 <= n {
                    acc = _mm256_max_pd(acc, _mm256_loadu_pd(vals.as_ptr().add(i)));
                    i += 4;
                }
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                best = lanes.iter().copied().fold(lanes[0], f64::max);
            }
            while i < n {
                best = best.max(vals[i]);
                i += 1;
            }
            best
        }

        /// # Safety
        /// Caller must have verified AVX2 support.
        #[target_feature(enable = "avx2")]
        pub unsafe fn sum(vals: &[f64]) -> f64 {
            let n = vals.len();
            let mut acc = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= n {
                acc = _mm256_add_pd(acc, _mm256_loadu_pd(vals.as_ptr().add(i)));
                i += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
            let mut total = lanes.iter().sum::<f64>();
            while i < n {
                total += vals[i];
                i += 1;
            }
            total
        }

        /// # Safety
        /// Caller must have verified AVX2 support.
        #[target_feature(enable = "avx2")]
        pub unsafe fn product(vals: &[f64]) -> f64 {
            let n = vals.len();
            let mut acc = _mm256_set1_pd(1.0);
            let mut i = 0;
            while i + 4 <= n {
                acc = _mm256_mul_pd(acc, _mm256_loadu_pd(vals.as_ptr().add(i)));
                i += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
            let mut total = lanes.iter().product::<f64>();
            while i < n {
                total *= vals[i];
                i += 1;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::mining::MiningConfig;
    use crate::wordlists::WordListConfig;

    fn setup() -> (CorpusIndex, WordPhraseLists, IdOrderedLists) {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let idl = IdOrderedLists::from_score_ordered(&lists);
        (index, lists, idl)
    }

    fn blocks() -> (BlockLists, WordPhraseLists, IdOrderedLists) {
        let (index, lists, idl) = setup();
        let b = BlockLists::from_index(&lists, &idl, &index);
        (b, lists, idl)
    }

    #[test]
    fn score_cursor_is_bit_identical_to_memory() {
        let (b, lists, _) = blocks();
        for &feat in lists.features() {
            let want = lists.list(feat);
            assert_eq!(b.list_len(feat), want.len());
            let mut cur = b.score_cursor(feat, 1.0);
            assert_eq!(cur.len(), want.len());
            for e in want {
                let got = cur.next_entry().unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits(), "lossless scores");
            }
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn id_cursor_is_bit_identical_and_sorted() {
        let (b, lists, idl) = blocks();
        for &feat in lists.features() {
            let want = idl.list(feat);
            let mut cur = b.id_cursor(feat);
            assert_eq!(cur.len(), want.len());
            let mut prev = None;
            for e in want {
                let got = cur.next_entry().unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
                if let Some(p) = prev {
                    assert!(got.phrase > p);
                }
                prev = Some(got.phrase);
            }
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn probe_agrees_with_lists() {
        let (b, lists, _) = blocks();
        for &feat in lists.features() {
            for e in lists.list(feat) {
                assert_eq!(b.probe(feat, e.phrase).to_bits(), e.prob.to_bits());
            }
            assert_eq!(b.probe(feat, PhraseId(u32::MAX)), 0.0);
        }
    }

    #[test]
    fn partial_cursor_truncates_like_memory() {
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        for fraction in [0.1, 0.3, 0.7] {
            let cur = b.score_cursor(feat, fraction);
            assert_eq!(cur.len(), prefix_len(lists.list(feat).len(), fraction));
        }
    }

    #[test]
    fn hint_tracks_the_next_entry_and_skip_drops_blocks() {
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let want = lists.list(feat);
        let mut cur = b.score_cursor(feat, 1.0);
        // Before any read the hint is block 0's max = the head entry.
        assert_eq!(
            cur.block_max_hint().unwrap().to_bits(),
            want[0].prob.to_bits()
        );
        let first = cur.next_entry().unwrap();
        // Hint never exceeds the last returned score (non-increasing list).
        if let Some(h) = cur.block_max_hint() {
            assert!(h <= first.prob);
        }
        // Skipping at the head of a decoded block drops its remainder.
        let skipped = cur.skip_block();
        assert!(skipped > 0);
        assert_eq!(cur.position(), 1 + skipped);
        // Drain; total yielded + skipped covers the list exactly.
        let mut n = cur.position();
        while cur.next_entry().is_some() {
            n += 1;
        }
        assert_eq!(n, want.len());
        assert_eq!(cur.block_max_hint(), None);
        assert_eq!(cur.skip_block(), 0);
    }

    #[test]
    fn seek_skips_undecoded_blocks() {
        let (b, lists, idl) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let want = idl.list(feat);
        let target = want[want.len() / 2].phrase;
        let mut cur = b.id_cursor(feat);
        let got = cur.seek(target).unwrap();
        assert_eq!(got.phrase, target);
        // A target beyond the last id exhausts the cursor.
        let mut cur = b.id_cursor(feat);
        assert!(cur
            .seek(PhraseId(want.last().unwrap().phrase.raw() + 1))
            .is_none());
        // Seeking to a gap lands on the next larger id.
        let mut cur = b.id_cursor(feat);
        let got = cur.seek(PhraseId(0)).unwrap();
        assert_eq!(got.phrase, want[0].phrase);
    }

    #[test]
    fn fetch_hook_fires_once_per_block_and_skips_are_free() {
        use std::cell::Cell;
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let fetches = Cell::new(0u32);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let mut cur = b.score_cursor_with_hook(feat, 1.0, Some(hook));
        while cur.next_entry().is_some() {}
        let expected = lists.list(feat).len().div_ceil(BLOCK_SIZE) as u32;
        assert_eq!(fetches.get(), expected, "one fetch per block");

        // Skipping a block at a boundary must not fetch it.
        fetches.set(0);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let mut cur = b.score_cursor_with_hook(feat, 1.0, Some(hook));
        let n = cur.skip_block();
        assert!(n > 0);
        assert_eq!(fetches.get(), 0, "metadata-only skip");
    }

    /// Deterministic splitmix64 stream for the bit-packing tests.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn read_bits_word_path_matches_byte_loop() {
        // Every (offset, width) that fits a 40-byte buffer, so reads end
        // anywhere from the first word to the slice's last bit — the last
        // 7 bytes take the byte-loop fallback, widths > 56 always do.
        let mut seed = 7;
        let data: Vec<u8> = (0..40).map(|_| splitmix(&mut seed) as u8).collect();
        let total = data.len() as u64 * 8;
        for bits in 1..=64u32 {
            for off in 0..=total - u64::from(bits) {
                assert_eq!(
                    read_bits(&data, off, bits),
                    read_bits_bytewise(&data, off, bits),
                    "offset {off}, width {bits}"
                );
            }
        }
    }

    #[test]
    fn bit_writer_round_trips_every_width() {
        let mut seed = 11;
        for bits in 1..=64u32 {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            // A 3-bit lead-in misaligns every value after it.
            let values: Vec<u64> = (0..37).map(|_| splitmix(&mut seed) & mask).collect();
            let mut w = BitWriter::default();
            w.write(0b101, 3);
            for &v in &values {
                w.write(v, bits);
            }
            let bytes = w.into_bytes();
            assert_eq!(read_bits(&bytes, 0, 3), 0b101);
            for (i, &v) in values.iter().enumerate() {
                let at = 3 + i as u64 * u64::from(bits);
                assert_eq!(read_bits(&bytes, at, bits), v, "width {bits}, value {i}");
            }
        }
    }

    #[test]
    fn compression_beats_the_flat_model() {
        let (b, lists, idl) = blocks();
        let flat = (lists.total_entries() + idl.total_entries()) * ENTRY_BYTES;
        assert_eq!(b.flat_bytes(), flat);
        assert!(
            b.encoded_bytes() < flat,
            "encoded {} vs flat {flat}",
            b.encoded_bytes()
        );
        assert!(b.compression_ratio() > 1.0);
        assert!(b.size_bytes() >= b.encoded_bytes());
    }

    #[test]
    fn simd_kernels_match_scalar_reference() {
        let counts: Vec<u32> = (0..531).map(|i| (i * 7 + 1) % 97 + 1).collect();
        let dfs: Vec<f64> = (0..531).map(|i| ((i % 113) + 2) as f64).collect();
        let mut out = Vec::new();
        simd::dequantize(&counts, &dfs, &mut out);
        for i in 0..counts.len() {
            let want = counts[i] as f64 / dfs[i];
            assert_eq!(out[i].to_bits(), want.to_bits(), "dequantize lane {i}");
        }
        let max = simd::max_scan(&out);
        let want = out.iter().copied().fold(out[0], f64::max);
        assert_eq!(max.to_bits(), want.to_bits());
        // Accumulators: numerically close to the scalar forms (they may
        // reassociate, so no bit equality here).
        let s: f64 = out.iter().sum();
        assert!((simd::or_sum(&out) - s).abs() < 1e-9 * s.abs().max(1.0));
        let p: f64 = out.iter().map(|p| p.ln()).sum();
        assert!((simd::and_log_product(&out) - p).abs() < 1e-6 * p.abs().max(1.0));
        let _ = simd::active();
    }

    #[test]
    #[should_panic(expected = "not an exact integer rational")]
    fn non_rational_scores_are_rejected() {
        let (index, lists, idl) = setup();
        // A df table that disagrees with the lists' denominators: over
        // df = 1 only probabilities 0 and 1 are representable, and the
        // lists carry plenty of proper fractions.
        let bogus = vec![1u32; df_table(&index).len()];
        let _ = BlockLists::build(&lists, &idl, Arc::new(bogus), None);
    }

    #[test]
    fn empty_and_unknown_features_are_empty() {
        let (b, _, _) = blocks();
        let ghost = Feature::Word(ipm_corpus::WordId(u32::MAX));
        assert_eq!(b.list_len(ghost), 0);
        let mut cur = b.score_cursor(ghost, 1.0);
        assert!(cur.is_empty());
        assert!(cur.next_entry().is_none());
        assert_eq!(cur.block_max_hint(), None);
        let mut idc = b.id_cursor(ghost);
        assert!(idc.next_entry().is_none());
        assert!(idc.seek(PhraseId(0)).is_none());
        assert_eq!(b.probe(ghost, PhraseId(0)), 0.0);
    }
}
