//! Schema for `BENCH_blocklists.json` — the block-backend benchmark
//! artifact written at the repo root by `benches/blocklists.rs`.
//!
//! The bench target samples end-to-end query latency per algorithm ×
//! backend and records the index footprint of each backend next to the
//! flat 12-byte-per-entry model (§4.2.2), so the compression win and its
//! runtime cost live in one file. The shape is versioned and checked here
//! (unit-tested, and re-validated by the bench before it writes) so CI
//! can fail on schema drift instead of silently shipping a stale file.

use serde_json::Value;
use std::collections::BTreeMap;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 1;

/// Ceiling on the `ta/block` p50 over the `ta/disk` p50. TA is the
/// random-probe algorithm, and a block probe unpacks one entry of one
/// block, so block TA must stay in disk TA's range. The bound is on p50
/// rather than p95: at 25 samples the two cells' p95s trade places
/// between runs.
pub const TA_BLOCK_OVER_DISK_MAX: f64 = 1.5;

/// One latency measurement: an (algorithm, backend) cell.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Backend name as the wire protocol spells it (`memory|disk|block`).
    pub backend: String,
    /// Algorithm name as the wire protocol spells it.
    pub algorithm: String,
    /// Number of measured iterations behind the percentiles.
    pub samples: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
}

/// One footprint measurement: a backend's resident index bytes against
/// the flat model over the same entries.
#[derive(Debug, Clone)]
pub struct FootprintRow {
    /// Backend name (`memory|disk|block`).
    pub backend: String,
    /// Bytes the backend actually holds.
    pub size_bytes: u64,
    /// The same entries at 12 bytes each (both list orders).
    pub flat_bytes: u64,
    /// `flat_bytes / size_bytes` — > 1 means the backend compresses.
    pub compression_ratio: f64,
}

/// One kernel micro-measurement: a (kernel, dispatch path) cell, so the
/// scalar reference and — where AVX2 is compiled in and detected — the
/// vector path both appear in the same artifact.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name (`dequantize`, `max_scan`, `or_sum`, `and_log_product`).
    pub kernel: String,
    /// `scalar` or `avx2`.
    pub path: String,
    /// Nanoseconds per 128-entry block.
    pub ns_per_block: f64,
}

/// Nearest-rank percentile over an ascending-sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Assembles the full `BENCH_blocklists.json` document.
pub fn report(
    corpus: &str,
    k: usize,
    simd_active: bool,
    latencies: &[LatencyRow],
    footprints: &[FootprintRow],
    kernels: &[KernelRow],
) -> Value {
    let latency_rows: Vec<Value> = latencies
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("algorithm", Value::from(r.algorithm.as_str())),
                ("samples", Value::from(r.samples)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
            ])
        })
        .collect();
    let footprint_rows: Vec<Value> = footprints
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("size_bytes", Value::from(r.size_bytes)),
                ("flat_bytes", Value::from(r.flat_bytes)),
                ("compression_ratio", Value::from(r.compression_ratio)),
            ])
        })
        .collect();
    let kernel_rows: Vec<Value> = kernels
        .iter()
        .map(|r| {
            obj(vec![
                ("kernel", Value::from(r.kernel.as_str())),
                ("path", Value::from(r.path.as_str())),
                ("ns_per_block", Value::from(r.ns_per_block)),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("simd", Value::from(simd_active)),
        ("latency_us", Value::Array(latency_rows)),
        ("footprint", Value::Array(footprint_rows)),
        ("kernels", Value::Array(kernel_rows)),
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

/// Structural check for the artifact, plus one performance gate: the
/// `ta/block` p50 must stay within [`TA_BLOCK_OVER_DISK_MAX`] of the
/// `ta/disk` p50. The bench runs this before writing, and `ipm
/// bench-check` runs it against the committed file.
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
    require(v, "simd")?.as_bool().ok_or("simd is not a bool")?;
    let latency = require(v, "latency_us")?
        .as_array()
        .ok_or("latency_us is not an array")?;
    if latency.is_empty() {
        return Err("latency_us is empty".into());
    }
    let mut ta_p50 = BTreeMap::new();
    for row in latency {
        let backend = require(row, "backend")?
            .as_str()
            .ok_or("backend not a string")?;
        let algorithm = require(row, "algorithm")?
            .as_str()
            .ok_or("algorithm not a string")?;
        require(row, "samples")?
            .as_u64()
            .ok_or("samples not an integer")?;
        let p50 = require_number(row, "p50_us")?;
        let p95 = require_number(row, "p95_us")?;
        if p95 < p50 {
            return Err("p95_us below p50_us".into());
        }
        if algorithm == "ta" {
            ta_p50.insert(backend, p50);
        }
    }
    if let (Some(&block), Some(&disk)) = (ta_p50.get("block"), ta_p50.get("disk")) {
        if block > TA_BLOCK_OVER_DISK_MAX * disk {
            return Err(format!(
                "ta/block p50 {block}us exceeds {TA_BLOCK_OVER_DISK_MAX}x ta/disk p50 {disk}us: \
                 block random probes have regressed"
            ));
        }
    }
    let footprint = require(v, "footprint")?
        .as_array()
        .ok_or("footprint is not an array")?;
    let mut block_seen = false;
    for row in footprint {
        let backend = require(row, "backend")?
            .as_str()
            .ok_or("backend not a string")?;
        block_seen |= backend == "block";
        require(row, "size_bytes")?
            .as_u64()
            .ok_or("size_bytes not an integer")?;
        require(row, "flat_bytes")?
            .as_u64()
            .ok_or("flat_bytes not an integer")?;
        require_number(row, "compression_ratio")?;
    }
    if !block_seen {
        return Err("footprint has no block backend row".into());
    }
    let kernels = require(v, "kernels")?
        .as_array()
        .ok_or("kernels is not an array")?;
    let mut scalar_seen = false;
    for row in kernels {
        require(row, "kernel")?
            .as_str()
            .ok_or("kernel not a string")?;
        let path = require(row, "path")?.as_str().ok_or("path not a string")?;
        if !matches!(path, "scalar" | "avx2") {
            return Err(format!("unknown kernel path: {path}"));
        }
        scalar_seen |= path == "scalar";
        require_number(row, "ns_per_block")?;
    }
    if !kernels.is_empty() && !scalar_seen {
        return Err("kernels has no scalar reference row".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        report(
            "synth-tiny",
            10,
            false,
            &[LatencyRow {
                backend: "block".into(),
                algorithm: "nra".into(),
                samples: 25,
                p50_us: 140.0,
                p95_us: 300.5,
            }],
            &[FootprintRow {
                backend: "block".into(),
                size_bytes: 4096,
                flat_bytes: 12288,
                compression_ratio: 3.0,
            }],
            &[KernelRow {
                kernel: "dequantize".into(),
                path: "scalar".into(),
                ns_per_block: 85.0,
            }],
        )
    }

    #[test]
    fn report_round_trips_and_validates() {
        let v = sample();
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["latency_us"][0]["algorithm"], "nra");
        assert_eq!(back["footprint"][0]["compression_ratio"], 3.0);
    }

    #[test]
    fn validate_rejects_drift() {
        // Wrong version.
        let mut v = sample();
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        // Missing block footprint row.
        let lat = [LatencyRow {
            backend: "memory".into(),
            algorithm: "ta".into(),
            samples: 1,
            p50_us: 1.0,
            p95_us: 1.0,
        }];
        let v = report("c", 5, true, &lat, &[], &[]);
        assert!(validate(&v).is_err());
        // Empty latency table.
        let v = report("c", 5, true, &[], &[], &[]);
        assert!(validate(&v).is_err());
        // Vector rows without a scalar reference.
        let fp = [FootprintRow {
            backend: "block".into(),
            size_bytes: 1,
            flat_bytes: 12,
            compression_ratio: 12.0,
        }];
        let kr = [KernelRow {
            kernel: "or_sum".into(),
            path: "avx2".into(),
            ns_per_block: 10.0,
        }];
        let v = report("c", 5, true, &lat, &fp, &kr);
        assert!(validate(&v).is_err());
        // Block TA more than 1.5x disk TA at p50; exactly 1.5x passes.
        let ta = |backend: &str, p50_us: f64| LatencyRow {
            backend: backend.into(),
            algorithm: "ta".into(),
            samples: 25,
            p50_us,
            p95_us: p50_us,
        };
        let ta_report = |block_p50| {
            let lat = [ta("disk", 20.0), ta("block", block_p50)];
            validate(&report("c", 5, true, &lat, &fp, &[]))
        };
        assert!(ta_report(31.0).unwrap_err().contains("ta/block"));
        ta_report(30.0).unwrap();
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.50), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
    }
}
