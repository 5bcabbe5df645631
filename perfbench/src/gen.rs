//! Seeded input generation. Everything a workload sends is derived from
//! `--seed` and the corpus alone, generated before the timed phase, and
//! summarized by an FNV-1a hash so two runs with one seed are shown to
//! send identical inputs.

use ipm_corpus::synth::Zipf;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One operation of a workload's sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query string in the engine's syntax (`"a AND b"`).
    Query(String),
    /// A document to ingest, as term strings.
    Ingest(Vec<String>),
}

/// An independent generator stream: the same `(seed, stream)` always
/// yields the same values.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` words, drawn distinct, each rank Zipf-distributed over `pool`.
fn distinct_words(rng: &mut StdRng, pool: &[String], zipf: &Zipf, n: usize) -> Vec<String> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let i = zipf.sample(rng).min(pool.len() - 1);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.into_iter().map(|i| pool[i].clone()).collect()
}

fn join(words: &[String], and: bool) -> String {
    words.join(if and { " AND " } else { " OR " })
}

/// Two-word AND/OR queries, words Zipf(`s`) over `pool` (the serving
/// workloads' mix).
pub fn zipf_pairs(rng: &mut StdRng, pool: &[String], s: f64, n: usize) -> Vec<String> {
    let zipf = Zipf::new(pool.len(), s);
    (0..n)
        .map(|_| {
            let and = rng.gen_bool(0.5);
            join(&distinct_words(rng, pool, &zipf, 2), and)
        })
        .collect()
}

/// One- to three-word AND/OR queries, words uniform over `pool`. The
/// draw is stratified so that runs with different seeds cost alike: the
/// query shapes cycle through (1, 2, 3 words) × (AND, OR), and words
/// are dealt from a shuffled deck of the whole pool, reshuffled when
/// spent, so every word is used equally often.
pub fn uniform_queries(rng: &mut StdRng, pool: &[String], n: usize) -> Vec<String> {
    let mut deck: Vec<usize> = Vec::new();
    (0..n)
        .map(|i| {
            let (len, and) = (i % 6 / 2 + 1, i % 2 == 0);
            let mut words: Vec<usize> = Vec::with_capacity(len);
            while words.len() < len {
                if deck.is_empty() {
                    deck = (0..pool.len()).collect();
                    deck.shuffle(rng);
                }
                let w = deck.pop().expect("refilled above");
                if !words.contains(&w) {
                    words.push(w);
                }
            }
            let words: Vec<String> = words.into_iter().map(|w| pool[w].clone()).collect();
            join(&words, and)
        })
        .collect()
}

/// A batch of `n` two-word queries over `pool` (Zipf `s`): the first
/// half OR, the second half AND.
pub fn zipf_batch(rng: &mut StdRng, pool: &[String], s: f64, n: usize) -> Vec<String> {
    let zipf = Zipf::new(pool.len(), s);
    (0..n)
        .map(|i| join(&distinct_words(rng, pool, &zipf, 2), i >= n / 2))
        .collect()
}

/// A document of `len` tokens, each drawn Zipf(`s`) over `vocab` (ranked
/// by document frequency; repeats allowed, as in text).
pub fn zipf_document(rng: &mut StdRng, vocab: &[String], zipf: &Zipf, len: usize) -> Vec<String> {
    (0..len)
        .map(|_| vocab[zipf.sample(rng).min(vocab.len() - 1)].clone())
        .collect()
}

/// FNV-1a over a sequence of operations.
#[derive(Debug, Clone, Copy)]
pub struct OpHash(u64);

impl Default for OpHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl OpHash {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    pub fn add_op(&mut self, op: &Op) {
        match op {
            Op::Query(q) => self.add_str(q),
            Op::Ingest(tokens) => {
                self.add_str("ingest");
                for t in tokens {
                    self.add_str(t);
                }
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{i}")).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        let p = pool(64);
        let a = zipf_pairs(&mut rng(7, 1), &p, 1.1, 200);
        let b = zipf_pairs(&mut rng(7, 1), &p, 1.1, 200);
        let c = zipf_pairs(&mut rng(8, 1), &p, 1.1, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let hash = |qs: &[String]| {
            let mut h = OpHash::default();
            qs.iter().for_each(|q| h.add_str(q));
            h.hex()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));
    }

    #[test]
    fn query_shapes() {
        let p = pool(256);
        let qs = uniform_queries(&mut rng(1, 2), &p, 512);
        let mut uses = vec![0usize; p.len()];
        for (i, q) in qs.iter().enumerate() {
            let words: Vec<&str> = q
                .split_whitespace()
                .filter(|w| w.starts_with('w'))
                .collect();
            assert_eq!(words.len(), i % 6 / 2 + 1, "{q}");
            for w in words {
                uses[w[1..].parse::<usize>().unwrap()] += 1;
            }
        }
        // 1024 words dealt from a 256-card deck: every word four times,
        // give or take a redraw at a deck boundary.
        assert!(uses.iter().all(|&u| (3..=5).contains(&u)), "{uses:?}");
        let batch = zipf_batch(&mut rng(1, 3), &pool(32), 1.1, 64);
        assert!(batch[..32].iter().all(|q| q.contains(" OR ")));
        assert!(batch[32..].iter().all(|q| q.contains(" AND ")));
        for q in zipf_pairs(&mut rng(1, 4), &p, 1.1, 500) {
            let w: Vec<&str> = q.split(' ').collect();
            assert_eq!(w.len(), 3);
            assert_ne!(w[0], w[2], "words of one query are distinct");
        }
    }
}
