//! Schema for `BENCH_batch.json` — the shared-scan batch-execution
//! benchmark artifact written at the repo root by `benches/batch.rs`.
//!
//! The bench target runs a zipfian shared-word workload (many concurrent
//! queries drawing their words from the hot head of the vocabulary) two
//! ways: N independent `execute_with_budget` calls (the serial baseline)
//! and one `execute_batch` call (the fused shared-scan path). Each row
//! records the aggregate latency of both, the word-list walks the serial
//! run makes and the walks the fused run saved. The validator enforces
//! the acceptance bounds: on the block backend the fused aggregate must
//! stay at or below 0.6× the serial aggregate, and on every row the
//! fused run must save more than half of the serial walks — so CI fails
//! when the fusion win regresses, not just when the schema drifts.

use serde_json::Value;
use std::collections::BTreeMap;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 2;

/// The acceptance bound on the block backend: fused aggregate latency
/// must be ≤ this fraction of the serial aggregate.
pub const MAX_FUSED_RATIO: f64 = 0.6;

/// The acceptance floor, on every row, for the share of serial list walks
/// the fused run saves (`fused_scans_saved / list_walks`, exclusive).
pub const MIN_SAVED_SHARE: f64 = 0.5;

/// One workload measurement: a (backend, algorithm) cell of the zipfian
/// shared-word scenario.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Backend name as the wire protocol spells it (`memory|disk|block`).
    pub backend: String,
    /// Algorithm name as the wire protocol spells it.
    pub algorithm: String,
    /// Aggregate latency of the serial per-item baseline, microseconds.
    pub serial_total_us: f64,
    /// Aggregate (wall-clock) latency of the fused batch, microseconds.
    pub fused_total_us: f64,
    /// `serial_total_us / fused_total_us`.
    pub speedup: f64,
    /// Shared-scan groups the planner formed for the batch.
    pub groups: u64,
    /// Word-list walks the serial run makes: each query's distinct words,
    /// summed over the batch.
    pub list_walks: u64,
    /// List walks the fused run saved (`ipm_batch_fused_scans_saved_total`).
    pub fused_scans_saved: u64,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Assembles the full `BENCH_batch.json` document.
pub fn report(corpus: &str, k: usize, queries: usize, zipf_s: f64, rows: &[BatchRow]) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("algorithm", Value::from(r.algorithm.as_str())),
                ("serial_total_us", Value::from(r.serial_total_us)),
                ("fused_total_us", Value::from(r.fused_total_us)),
                ("speedup", Value::from(r.speedup)),
                ("groups", Value::from(r.groups)),
                ("list_walks", Value::from(r.list_walks)),
                ("fused_scans_saved", Value::from(r.fused_scans_saved)),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("queries", Value::from(queries)),
        ("zipf_s", Value::from(zipf_s)),
        ("rows", Value::Array(row_values)),
    ])
}

fn require<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing key: {key}"))
}

fn require_number(v: &Value, key: &str) -> Result<f64, String> {
    require(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key} is not a number"))
}

/// Structural AND acceptance check for the artifact — the bench runs
/// this before writing, and `ipm bench-check` runs it against the
/// committed file.
pub fn validate(v: &Value) -> Result<(), String> {
    let version = require(v, "schema_version")?
        .as_u64()
        .ok_or("schema_version is not an integer")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {SCHEMA_VERSION}"
        ));
    }
    require(v, "corpus")?
        .as_str()
        .ok_or("corpus is not a string")?;
    require(v, "k")?.as_u64().ok_or("k is not an integer")?;
    let queries = require(v, "queries")?
        .as_u64()
        .ok_or("queries is not an integer")?;
    if queries < 2 {
        return Err("queries < 2: nothing to fuse".into());
    }
    require_number(v, "zipf_s")?;
    let rows = require(v, "rows")?
        .as_array()
        .ok_or("rows is not an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    let mut block_seen = false;
    for row in rows {
        let backend = require(row, "backend")?
            .as_str()
            .ok_or("backend not a string")?;
        require(row, "algorithm")?
            .as_str()
            .ok_or("algorithm not a string")?;
        let serial = require_number(row, "serial_total_us")?;
        let fused = require_number(row, "fused_total_us")?;
        if serial <= 0.0 || fused <= 0.0 {
            return Err("non-positive aggregate latency".into());
        }
        let speedup = require_number(row, "speedup")?;
        if (speedup - serial / fused).abs() > 1e-6 * speedup.abs().max(1.0) {
            return Err("speedup does not equal serial/fused".into());
        }
        let groups = require(row, "groups")?
            .as_u64()
            .ok_or("groups not an integer")?;
        let walks = require(row, "list_walks")?
            .as_u64()
            .ok_or("list_walks not an integer")?;
        let saved = require(row, "fused_scans_saved")?
            .as_u64()
            .ok_or("fused_scans_saved not an integer")?;
        if saved > walks {
            return Err(format!(
                "{backend}: fused_scans_saved {saved} exceeds list_walks {walks}"
            ));
        }
        if saved as f64 <= MIN_SAVED_SHARE * walks as f64 {
            return Err(format!(
                "{backend}: fused run saved {saved} of {walks} list walks, \
                 not above {MIN_SAVED_SHARE} of them"
            ));
        }
        if backend == "block" {
            block_seen = true;
            if groups == 0 {
                return Err("block row formed no batch groups".into());
            }
            if fused > MAX_FUSED_RATIO * serial {
                return Err(format!(
                    "block backend: fused aggregate {fused:.0} µs exceeds \
                     {MAX_FUSED_RATIO}× serial aggregate {serial:.0} µs"
                ));
            }
        }
    }
    if !block_seen {
        return Err("rows has no block backend row".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_row() -> BatchRow {
        BatchRow {
            backend: "block".into(),
            algorithm: "smj".into(),
            serial_total_us: 10_000.0,
            fused_total_us: 4_000.0,
            speedup: 2.5,
            groups: 3,
            list_walks: 128,
            fused_scans_saved: 112,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mem = BatchRow {
            backend: "memory".into(),
            serial_total_us: 5_000.0,
            fused_total_us: 4_900.0,
            speedup: 5_000.0 / 4_900.0,
            groups: 3,
            ..block_row()
        };
        let v = report("synth-tiny", 10, 64, 1.1, &[block_row(), mem]);
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["rows"][0]["backend"], "block");
        assert_eq!(back["zipf_s"], 1.1);
    }

    #[test]
    fn validate_enforces_the_acceptance_bounds() {
        // Fused slower than 0.6× serial on the block backend.
        let mut slow = block_row();
        slow.fused_total_us = 7_000.0;
        slow.speedup = slow.serial_total_us / slow.fused_total_us;
        let v = report("c", 5, 64, 1.1, &[slow]);
        assert!(validate(&v).unwrap_err().contains("exceeds"));
        // Fused run saving only half of the serial walks — on a memory
        // row too, which the floor covers as well as block rows.
        let mut unshared = block_row();
        unshared.fused_scans_saved = 64;
        let v = report("c", 5, 64, 1.1, &[unshared]);
        assert!(validate(&v).unwrap_err().contains("list walks"));
        let mut mem_unshared = block_row();
        mem_unshared.backend = "memory".into();
        mem_unshared.fused_scans_saved = 10;
        let v = report("c", 5, 64, 1.1, &[block_row(), mem_unshared]);
        assert!(validate(&v)
            .unwrap_err()
            .contains("memory: fused run saved"));
        // More walks saved than a serial run makes.
        let mut impossible = block_row();
        impossible.fused_scans_saved = 129;
        let v = report("c", 5, 64, 1.1, &[impossible]);
        assert!(validate(&v).unwrap_err().contains("exceeds list_walks"));
        // No block row at all.
        let mut mem = block_row();
        mem.backend = "memory".into();
        let v = report("c", 5, 64, 1.1, &[mem]);
        assert!(validate(&v).unwrap_err().contains("no block"));
        // Inconsistent speedup.
        let mut lying = block_row();
        lying.speedup = 99.0;
        let v = report("c", 5, 64, 1.1, &[lying]);
        assert!(validate(&v).unwrap_err().contains("speedup"));
        // Wrong version and a fused-only sanity case.
        let mut v = report("c", 5, 64, 1.1, &[block_row()]);
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        // A single query has nothing to share.
        let v = report("c", 5, 1, 1.1, &[block_row()]);
        assert!(validate(&v).unwrap_err().contains("nothing to fuse"));
    }
}
