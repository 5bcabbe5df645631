//! Bounded proof harnesses for the engine's algorithmic contracts.
//!
//! Each harness is a `check_*` function that takes a *bounded* input and
//! asserts a contract of real workspace code — the kani discipline: state
//! the property over all inputs of a small shape, then let a checker
//! enumerate the shape. The container has no kani toolchain, so every
//! harness runs two ways:
//!
//! * as an ordinary `#[test]` that enumerates its input domain
//!   **exhaustively** (the domains are chosen small enough that this is
//!   complete, not sampled); and
//! * as a `#[kani::proof]` in the `proofs` module, compiled only under
//!   `--cfg kani`, where the same `check_*` is driven by symbolic values.
//!
//! The properties:
//!
//! * **Block-max bound soundness** ([`check_block_roundtrip_and_bounds`])
//!   — a `BlockLists` encode/decode round-trips bit-exactly, every
//!   `block_max_hint` upper-bounds all entries it stands for (so pruning
//!   on it never drops a qualifying phrase), and `probe` agrees with the
//!   source list.
//! * **Partial probe equivalence** ([`check_block_probe_matches_reference`])
//!   — a block probe that unpacks only the gaps up to its target and one
//!   count returns the reference probe's score bit for bit over sparse
//!   ids and mixed gap widths, and charges exactly the covering block.
//! * **Merge-order determinism** ([`check_sort_hits_total`]) — result
//!   ordering (score desc, ties id asc) is a total order on NaN-free
//!   hits: permutation-invariant, and `truncate_top_k` is its prefix.
//! * **Histogram monotonicity** ([`check_histogram_contract`]) —
//!   cumulative bucket counts are non-decreasing, reproduce the exact
//!   per-bucket assignment, and `quantile` is monotone in `q` and never
//!   under-reports the nearest-rank observation (the property the
//!   router's hedge delay and the serving report lean on).
//! * **Wire float totality** ([`check_f64_hex_roundtrip`],
//!   [`check_f64_hex_rejects`]) — the 16-hex-digit f64 encoding
//!   round-trips *every* bit pattern (NaN payloads, `-0.0`, infinities)
//!   and the decoder rejects every malformed string instead of guessing.

use ipm_core::result::{sort_hits, truncate_top_k, PhraseHit};
use ipm_corpus::{Feature, PhraseId, WordId};
use ipm_index::block::{FetchHook, BLOCK_SIZE};
use ipm_index::{
    BlockLists, IdListCursor, IdOrderedLists, ListEntry, ScoredListCursor, WordPhraseLists,
};
use ipm_obs::Histogram;
use ipm_server::wire::{f64_from_bits_str, f64_to_bits_str};
use std::cell::RefCell;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Block-max bound soundness
// ---------------------------------------------------------------------------

/// Encodes one feature's id-ascending `by_id` list (both orders) against
/// the per-phrase `df` table; returns the lists and the score order
/// (prob desc, id asc on ties — the list builder's order).
fn one_feature_blocks(
    feature: Feature,
    by_id: &[ListEntry],
    df: &[u32],
) -> (BlockLists, Vec<ListEntry>) {
    let mut by_score = by_id.to_vec();
    by_score.sort_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .expect("counts/dfs produce finite probs")
            .then(a.phrase.cmp(&b.phrase))
    });
    let lists = WordPhraseLists::from_feature_lists(vec![(feature, by_score.clone())]);
    let id_lists = IdOrderedLists::from_feature_lists(vec![(feature, by_id.to_vec())]);
    let blocks = BlockLists::build(&lists, &id_lists, Arc::new(df.to_vec()), None);
    (blocks, by_score)
}

/// Builds a one-feature `BlockLists` over phrases `0..counts.len()` where
/// phrase `i` has co-occurrence count `counts[i]` and document frequency
/// `dfs[i]` (`1 <= count <= df`, the miner's Eq. 13 contract), then
/// asserts, for the score- and id-ordered runs:
///
/// * decode round-trips the exact `(phrase, count/df)` entries in order;
/// * at every score-cursor position, `block_max_hint()` bounds every
///   entry the cursor has not yet yielded (block-max pruning soundness);
/// * `skip_block()` advances by exactly the entries the hint bounded;
/// * `probe(phrase)` returns the exact stored probability, and `0.0` for
///   absent phrases.
///
/// # Panics
/// On any violation (the harness convention: panics are the property).
pub fn check_block_roundtrip_and_bounds(counts: &[u32], dfs: &[u32]) {
    assert_eq!(counts.len(), dfs.len(), "harness input shape");
    for (&c, &d) in counts.iter().zip(dfs) {
        assert!(1 <= c && c <= d, "harness inputs must satisfy 1<=count<=df");
    }
    let entries: Vec<ListEntry> = counts
        .iter()
        .zip(dfs)
        .enumerate()
        .map(|(i, (&c, &d))| ListEntry {
            phrase: PhraseId(i as u32),
            prob: f64::from(c) / f64::from(d),
        })
        .collect();
    let feature = Feature::Word(WordId(0));

    let by_id = entries; // already ascending by construction
    let (blocks, by_score) = one_feature_blocks(feature, &by_id, dfs);

    // Round-trip, both orders, bit-exact.
    let mut cur = blocks.score_cursor_with_hook(feature, 1.0, None);
    let mut decoded = Vec::new();
    while let Some(e) = cur.next_entry() {
        decoded.push(e);
    }
    assert_eq!(decoded, by_score, "score run must decode bit-exactly");
    let mut cur = blocks.id_cursor_with_hook(feature, None);
    let mut decoded = Vec::new();
    while let Some(e) = cur.next_entry() {
        decoded.push(e);
    }
    assert_eq!(decoded, by_id, "id run must decode bit-exactly");

    // Hint soundness: before each yield, the hint bounds the whole
    // remaining suffix.
    let mut cur = blocks.score_cursor_with_hook(feature, 1.0, None);
    for pos in 0..by_score.len() {
        let hint = cur
            .block_max_hint()
            .expect("entries remain, hint must exist");
        for rest in &by_score[pos..] {
            assert!(
                rest.prob <= hint,
                "hint {hint} at position {pos} under-bounds remaining prob {}",
                rest.prob
            );
        }
        cur.next_entry().expect("cursor agrees entries remain");
    }
    assert!(
        cur.block_max_hint().is_none(),
        "exhausted cursor hints None"
    );

    // Skip soundness: skipping from any block boundary drops exactly the
    // entries the pre-skip hint bounded.
    let mut cur = blocks.score_cursor_with_hook(feature, 1.0, None);
    let mut pos = 0usize;
    while pos < by_score.len() {
        let hint = cur.block_max_hint().expect("entries remain");
        let skipped = cur.skip_block();
        assert!(skipped >= 1, "skip at position {pos} must make progress");
        for e in &by_score[pos..pos + skipped] {
            assert!(
                e.prob <= hint,
                "skip dropped prob {} above its hint {hint}",
                e.prob
            );
        }
        pos += skipped;
        assert_eq!(cur.position(), pos, "cursor position tracks skips");
    }

    // Probe agreement, present and absent.
    for e in &by_id {
        let got = blocks.probe_with_hook(feature, e.phrase, None);
        assert!(
            got == e.prob,
            "probe({:?}) = {got}, stored {}",
            e.phrase,
            e.prob
        );
    }
    let absent = PhraseId(counts.len() as u32);
    assert_eq!(blocks.probe_with_hook(feature, absent, None), 0.0);
}

/// Partial block probes against the reference probe. Builds a
/// one-feature `BlockLists` holding phrase `ids[i]` (strictly ascending,
/// each `< df.len()`) with co-count `counts[i]` over document frequency
/// `df[ids[i]]`, then probes every target in `0..=df.len() + 1` — present
/// ids, ids in the gaps, and ids beyond either end — and asserts:
///
/// * the probe returns the source entry's probability bit for bit, and
///   `0.0` for an absent target;
/// * the fetch hook fires exactly once, with the covering block's
///   `(offset, bytes)`, when some id block's `[first, last]` holds the
///   target, and never otherwise.
///
/// The reference block extents come from the id cursor: block `j` covers
/// entries `j·BLOCK_SIZE ..` of the id list, and its hook call is the
/// cursor's `j`-th.
///
/// # Panics
/// On any violation (the harness convention: panics are the property).
pub fn check_block_probe_matches_reference(ids: &[u32], counts: &[u32], df: &[u32]) {
    assert_eq!(ids.len(), counts.len(), "harness input shape");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
    let by_id: Vec<ListEntry> = ids
        .iter()
        .zip(counts)
        .map(|(&id, &c)| {
            let d = df[id as usize];
            assert!(1 <= c && c <= d, "harness inputs must satisfy 1<=count<=df");
            ListEntry {
                phrase: PhraseId(id),
                prob: f64::from(c) / f64::from(d),
            }
        })
        .collect();
    let feature = Feature::Word(WordId(0));
    let (blocks, _) = one_feature_blocks(feature, &by_id, df);

    let fetches = RefCell::new(Vec::new());
    let hook: FetchHook<'_> = Box::new(|offset, bytes| fetches.borrow_mut().push((offset, bytes)));
    let mut cur = blocks.id_cursor_with_hook(feature, Some(hook));
    while cur.next_entry().is_some() {}
    let extents = fetches.take();
    let chunks: Vec<&[ListEntry]> = by_id.chunks(BLOCK_SIZE).collect();
    assert_eq!(extents.len(), chunks.len(), "one id-cursor fetch per block");

    for target in 0..=df.len() as u32 + 1 {
        let phrase = PhraseId(target);
        let want = by_id
            .binary_search_by_key(&phrase, |e| e.phrase)
            .map_or(0.0, |i| by_id[i].prob);
        let got = blocks.probe_with_hook(
            feature,
            phrase,
            Some(&|o, b| {
                fetches.borrow_mut().push((o, b));
            }),
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "probe({target}) = {got}, reference {want}"
        );
        let covering = chunks
            .iter()
            .position(|c| c[0].phrase <= phrase && phrase <= c[c.len() - 1].phrase);
        let want_fetches: Vec<(u64, u64)> = covering.map(|j| extents[j]).into_iter().collect();
        assert_eq!(
            fetches.take(),
            want_fetches,
            "probe({target}) must charge exactly its covering block"
        );
    }
}

// ---------------------------------------------------------------------------
// Merge-order determinism
// ---------------------------------------------------------------------------

fn is_result_order(hits: &[PhraseHit]) -> bool {
    hits.windows(2).all(|w| {
        w[0].score > w[1].score || (w[0].score == w[1].score && w[0].phrase <= w[1].phrase)
    })
}

/// Asserts the result-order contract on one (NaN-free) hit multiset:
/// `sort_hits` yields score-descending, id-ascending-on-ties order; the
/// sorted sequence is identical for *every* permutation of the input
/// (the distributed merge must not depend on shard arrival order); and
/// `truncate_top_k(k)` equals the sorted prefix for every `k`.
///
/// # Panics
/// On any violation.
pub fn check_sort_hits_total(hits: &[PhraseHit]) {
    assert!(
        hits.iter().all(|h| !h.score.is_nan()),
        "the order is total on NaN-free scores only (scorers never emit NaN)"
    );
    let mut canonical = hits.to_vec();
    sort_hits(&mut canonical);
    assert!(is_result_order(&canonical), "sort_hits output out of order");

    // Permutation invariance via exhaustive permutation (inputs are <= 6).
    let mut perm = hits.to_vec();
    permute(&mut perm, 0, &mut |p| {
        let mut sorted = p.to_vec();
        sort_hits(&mut sorted);
        assert_eq!(
            sorted, canonical,
            "sort_hits depends on input order (non-deterministic merge)"
        );
    });

    for k in 0..=hits.len() + 1 {
        let mut truncated = hits.to_vec();
        truncate_top_k(&mut truncated, k);
        assert_eq!(
            truncated[..],
            canonical[..k.min(canonical.len())],
            "truncate_top_k({k}) is not the sorted prefix"
        );
    }
}

/// Heap-style permutation visitor (bounded inputs keep this cheap).
fn permute(v: &mut [PhraseHit], at: usize, visit: &mut impl FnMut(&[PhraseHit])) {
    if at == v.len() {
        visit(v);
        return;
    }
    for i in at..v.len() {
        v.swap(at, i);
        permute(v, at + 1, visit);
        v.swap(at, i);
    }
}

// ---------------------------------------------------------------------------
// Histogram monotonicity
// ---------------------------------------------------------------------------

/// Observes `samples` into a histogram over `bounds` and asserts:
///
/// * the snapshot's cumulative counts are non-decreasing and end at the
///   observation count;
/// * each bucket holds exactly the samples `partition_point` assigns it
///   (first bound `>= v`, `+Inf` past the last);
/// * `quantile` is monotone in `q`; and
/// * `quantile(q)` never under-reports: at least `ceil(q·n)` samples are
///   `<=` the reported value whenever the rank lands in a finite bucket
///   (past the last finite bound the histogram reports its largest bound
///   — the documented saturation).
///
/// # Panics
/// On any violation. `bounds` must be strictly ascending and non-empty;
/// `samples` must be finite and non-negative (latencies).
pub fn check_histogram_contract(bounds: &[f64], samples: &[f64]) {
    let hist = Histogram::with_bounds(bounds.iter().copied().collect::<Arc<[f64]>>());
    for &s in samples {
        assert!(s.is_finite() && s >= 0.0, "latency samples only");
        hist.observe_seconds(s);
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count(), samples.len() as u64);

    let cumulative = snap.cumulative();
    assert_eq!(cumulative.len(), bounds.len() + 1, "finite buckets + Inf");
    assert!(
        cumulative.windows(2).all(|w| w[0] <= w[1]),
        "cumulative counts must be non-decreasing: {cumulative:?}"
    );
    assert_eq!(*cumulative.last().expect("non-empty"), snap.count());

    // Exact per-bucket assignment.
    let mut expected = vec![0u64; bounds.len() + 1];
    for &s in samples {
        expected[bounds.partition_point(|&b| b < s)] += 1;
    }
    let mut acc = 0;
    for (i, &e) in expected.iter().enumerate() {
        acc += e;
        assert_eq!(
            cumulative[i], acc,
            "bucket {i} cumulative mismatch (expected per-bucket {expected:?})"
        );
    }

    // Quantile monotonicity over a q-grid, plus rank soundness.
    let grid = [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    for w in grid.windows(2) {
        assert!(
            snap.quantile(w[0]) <= snap.quantile(w[1]),
            "quantile not monotone between {} and {}",
            w[0],
            w[1]
        );
    }
    if !samples.is_empty() {
        let last_bound = *bounds.last().expect("non-empty");
        for &q in &grid {
            let v = snap.quantile(q);
            let rank = ((q * samples.len() as f64).ceil() as u64).max(1);
            let at_or_below = samples.iter().filter(|&&s| s <= v).count() as u64;
            if v < last_bound || samples.iter().all(|&s| s <= last_bound) {
                assert!(
                    at_or_below >= rank,
                    "quantile({q}) = {v} under-reports: {at_or_below} samples <= it, rank {rank}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire float totality
// ---------------------------------------------------------------------------

/// Round-trip: encoding any f64 bit pattern and decoding it returns the
/// identical bits — including NaN payloads, `-0.0` and the infinities
/// (`==` would conflate `0.0`/`-0.0` and reject NaN, so bits are
/// compared).
///
/// # Panics
/// On any violation.
pub fn check_f64_hex_roundtrip(bits: u64) {
    let f = f64::from_bits(bits);
    let s = f64_to_bits_str(f);
    assert_eq!(s.len(), 16, "encoding must be exactly 16 digits");
    assert!(
        s.bytes().all(|b| b.is_ascii_hexdigit()),
        "encoding must be hex: {s}"
    );
    let back = f64_from_bits_str(&s).expect("own encoding must decode");
    assert_eq!(back.to_bits(), bits, "round-trip must be bit-identical");
}

/// Decoder totality: every input is either exactly 16 hex digits (and
/// accepted) or rejected with an error — never a panic, never a guess.
///
/// # Panics
/// On any violation.
pub fn check_f64_hex_rejects(s: &str) {
    let well_formed = s.len() == 16
        && s.is_ascii()
        && s.bytes().all(|b| b.is_ascii_hexdigit())
        // `from_str_radix` tolerates a leading `+`; the wire must not.
        && !s.starts_with('+');
    assert_eq!(
        f64_from_bits_str(s).is_ok(),
        well_formed,
        "decoder accepted/rejected '{s}' wrongly"
    );
}

// ---------------------------------------------------------------------------
// Kani proof harnesses (compiled only under `--cfg kani`; the same
// properties the tests below enumerate exhaustively).
// ---------------------------------------------------------------------------

#[cfg(kani)]
mod proofs {
    use super::*;

    #[kani::proof]
    #[kani::unwind(6)]
    fn block_bounds_small() {
        let dfs: [u32; 3] = kani::any();
        let counts: [u32; 3] = kani::any();
        for i in 0..3 {
            kani::assume(1 <= dfs[i] && dfs[i] <= 4);
            kani::assume(1 <= counts[i] && counts[i] <= dfs[i]);
        }
        check_block_roundtrip_and_bounds(&counts, &dfs);
    }

    #[kani::proof]
    #[kani::unwind(6)]
    fn block_probe_small() {
        let present: [bool; 4] = kani::any();
        let counts: [u32; 4] = kani::any();
        let dfs: [u32; 4] = kani::any();
        let mut ids = Vec::new();
        let mut cs = Vec::new();
        for i in 0..4 {
            kani::assume(1 <= dfs[i] && dfs[i] <= 4);
            kani::assume(1 <= counts[i] && counts[i] <= dfs[i]);
            if present[i] {
                ids.push(i as u32);
                cs.push(counts[i]);
            }
        }
        check_block_probe_matches_reference(&ids, &cs, &dfs);
    }

    #[kani::proof]
    #[kani::unwind(8)]
    fn sort_hits_total_small() {
        let scores: [u8; 3] = kani::any();
        let ids: [u8; 3] = kani::any();
        let hits: Vec<PhraseHit> = (0..3)
            .map(|i| PhraseHit::exact(PhraseId(ids[i] as u32 % 3), f64::from(scores[i] % 3)))
            .collect();
        check_sort_hits_total(&hits);
    }

    #[kani::proof]
    #[kani::unwind(8)]
    fn histogram_small() {
        let raw: [u8; 3] = kani::any();
        let samples: Vec<f64> = raw.iter().map(|&r| f64::from(r % 8) * 0.5).collect();
        check_histogram_contract(&[1.0, 2.0, 3.0], &samples);
    }

    #[kani::proof]
    fn f64_hex_roundtrip_total() {
        check_f64_hex_roundtrip(kani::any());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 stream for the large (but fixed) block
    /// inputs; no RNG dependency, no flakiness.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn block_bounds_hold_on_multi_block_lists() {
        // 300 entries = 3 blocks (BLOCK_SIZE = 128): hints cross block
        // boundaries, skips hit both mid-block and boundary paths.
        let mut seed = 42;
        let dfs: Vec<u32> = (0..300)
            .map(|_| 1 + (splitmix(&mut seed) % 1000) as u32)
            .collect();
        let counts: Vec<u32> = dfs
            .iter()
            .map(|&d| 1 + (splitmix(&mut seed) % u64::from(d)) as u32)
            .collect();
        check_block_roundtrip_and_bounds(&counts, &dfs);
    }

    #[test]
    fn block_bounds_hold_exhaustively_on_tiny_lists() {
        // Every (count, df) list of length <= 2 with df <= 3 — complete
        // over the shape, including all-equal probs (tie handling) and
        // prob = 1.0 endpoints.
        let mut pairs = Vec::new();
        for df in 1..=3u32 {
            for count in 1..=df {
                pairs.push((count, df));
            }
        }
        for &(c, d) in &pairs {
            check_block_roundtrip_and_bounds(&[c], &[d]);
        }
        for &(c0, d0) in &pairs {
            for &(c1, d1) in &pairs {
                check_block_roundtrip_and_bounds(&[c0, c1], &[d0, d1]);
            }
        }
    }

    #[test]
    fn block_bounds_hold_on_degenerate_shapes() {
        // All-identical probs (every tie path) and a single entry per
        // boundary condition.
        check_block_roundtrip_and_bounds(&[1; 200], &[2; 200]);
        check_block_roundtrip_and_bounds(&[5], &[5]);
    }

    #[test]
    fn partial_probe_matches_reference_on_every_small_id_set() {
        // Every subset of ids 0..10 (gaps 1..=9, so id widths 1..=4 bits),
        // under three count/df assignments that vary the count width.
        const N: u32 = 10;
        for mask in 0u32..1 << N {
            let ids: Vec<u32> = (0..N).filter(|i| mask & (1 << i) != 0).collect();
            for variant in 0..3u32 {
                let df: Vec<u32> = (0..N)
                    .map(|i| {
                        1 + (mask.wrapping_mul(7) + i * 13 + variant * 101)
                            % [3, 60, 1000][variant as usize]
                    })
                    .collect();
                let counts: Vec<u32> = ids
                    .iter()
                    .map(|&i| 1 + (mask ^ (i * 31 + variant)) % df[i as usize])
                    .collect();
                check_block_probe_matches_reference(&ids, &counts, &df);
            }
        }
    }

    #[test]
    fn partial_probe_matches_reference_on_multi_block_lists() {
        // 300 entries = 3 id blocks with random gaps up to 2^k, so gap
        // widths, count widths and every word-load alignment vary; every
        // id in the span (present or in a gap) is probed.
        for max_gap_bits in [1u32, 4, 8] {
            let mut seed = 99 + u64::from(max_gap_bits);
            let mut ids = Vec::new();
            let mut id = (splitmix(&mut seed) % 4) as u32;
            for _ in 0..300 {
                ids.push(id);
                id += 1 + (splitmix(&mut seed) % (1u64 << max_gap_bits)) as u32;
            }
            let df: Vec<u32> = (0..id)
                .map(|_| 1 + (splitmix(&mut seed) % 5000) as u32)
                .collect();
            let counts: Vec<u32> = ids
                .iter()
                .map(|&i| 1 + (splitmix(&mut seed) % u64::from(df[i as usize])) as u32)
                .collect();
            check_block_probe_matches_reference(&ids, &counts, &df);
        }
    }

    #[test]
    fn sort_hits_is_total_on_every_small_multiset() {
        // Exhaustive: every hit sequence of length <= 3 over a 6-element
        // alphabet (2 scores x 3 ids) — covers all tie shapes, duplicate
        // hits and duplicate ids; each sequence is checked under all of
        // its permutations inside the harness.
        let alphabet: Vec<PhraseHit> = [0.5f64, 2.0]
            .iter()
            .flat_map(|&s| (0..3).map(move |id| PhraseHit::exact(PhraseId(id), s)))
            .collect();
        let n = alphabet.len();
        for len in 0..=3usize {
            let combos = n.pow(len as u32);
            for mut code in 0..combos {
                let mut hits = Vec::with_capacity(len);
                for _ in 0..len {
                    hits.push(alphabet[code % n]);
                    code /= n;
                }
                check_sort_hits_total(&hits);
            }
        }
    }

    #[test]
    fn sort_hits_handles_negative_and_infinite_scores() {
        // AND-semantics scores are log-probs (negative); NRA seeds ship
        // -inf floors. The order must stay total there too.
        let hits = vec![
            PhraseHit::exact(PhraseId(3), f64::NEG_INFINITY),
            PhraseHit::exact(PhraseId(1), -2.5),
            PhraseHit::exact(PhraseId(0), -2.5),
            PhraseHit::exact(PhraseId(2), 0.0),
        ];
        check_sort_hits_total(&hits);
    }

    #[test]
    fn histogram_contract_holds_exhaustively_on_small_domains() {
        // Exhaustive: every sample vector of length <= 3 over an 8-value
        // grid that straddles each bucket boundary of [1.0, 2.0, 4.0]
        // (below/at/above every bound, plus past-the-last saturation).
        let values = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0];
        let bounds = [1.0, 2.0, 4.0];
        let n = values.len();
        for len in 0..=3usize {
            let combos = n.pow(len as u32);
            for mut code in 0..combos {
                let mut samples = Vec::with_capacity(len);
                for _ in 0..len {
                    samples.push(values[code % n]);
                    code /= n;
                }
                check_histogram_contract(&bounds, &samples);
            }
        }
    }

    #[test]
    fn histogram_contract_holds_on_latency_shaped_streams() {
        // The real default bounds and a long mixed stream.
        let bounds: Vec<f64> = (0..26).map(|i| 1e-6 * f64::from(1u32 << i)).collect();
        let mut seed = 7;
        let samples: Vec<f64> = (0..500)
            .map(|_| (splitmix(&mut seed) % 40_000_000) as f64 / 1e9)
            .collect();
        check_histogram_contract(&bounds, &samples);
    }

    #[test]
    fn f64_hex_roundtrips_every_high_word() {
        // Exhaustive over the 2^16 sign/exponent/top-mantissa patterns —
        // every exponent (subnormals, infinities, NaNs included) under
        // three low-word fills. Bit-identity, not numeric equality.
        for hi in 0..=u16::MAX {
            let hi = u64::from(hi) << 48;
            check_f64_hex_roundtrip(hi);
            check_f64_hex_roundtrip(hi | 0x0000_ffff_ffff_ffff);
            check_f64_hex_roundtrip(hi | 0x0000_dead_beef_cafe);
        }
    }

    #[test]
    fn f64_hex_roundtrips_the_wire_specials() {
        for f in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
        ] {
            check_f64_hex_roundtrip(f.to_bits());
        }
    }

    #[test]
    fn f64_hex_decoder_rejects_every_malformed_single_byte_corruption() {
        // Take a valid encoding and corrupt each position with every
        // byte value — the decoder must accept exactly the hex digits.
        let valid = f64_to_bits_str(std::f64::consts::PI);
        check_f64_hex_rejects(&valid);
        for pos in 0..16 {
            for b in 0u8..=255 {
                let Some(c) = char::from_u32(u32::from(b)) else {
                    continue;
                };
                let mut s = valid.clone();
                s.replace_range(pos..pos + 1, &c.to_string());
                check_f64_hex_rejects(&s);
            }
        }
        // Length violations, both sides, and the sign cases
        // `from_str_radix` would otherwise wave through.
        for s in [
            "",
            "0",
            &valid[..15],
            &format!("{valid}0"),
            "+123456789abcdef",
            "-123456789abcdef",
        ] {
            check_f64_hex_rejects(s);
        }
    }
}
