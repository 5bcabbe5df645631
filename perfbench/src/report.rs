//! One run's outcome: operation counts, correctness problems, and named
//! metrics with units, printed as readable lines followed by the final
//! one-line JSON result.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::Samples;

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// Reasons the run's output cannot be trusted (wrong answers, a
    /// generator that fell behind, a ledger that does not close, a tail
    /// percentile without enough samples).
    problems: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records `count` failed operations of one kind.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.problems.push(format!("{count} × {}", why.into()));
        }
    }

    /// Marks the run invalid without counting an operation.
    pub fn invalid(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// Query latency from per-query latencies in arrival order.
    /// End-to-end (`trace == false`): `query_p50_us`, the median over
    /// consecutive windows of each window's median (see [`windows`]), so
    /// one burst of host noise moves one window, not the run. Traced:
    /// the whole run's `query.p90_us` and `query.p99_us`; a tail with
    /// fewer than ten samples beyond it is refused and reported as 0.
    /// The tails carry no bound: on a small virtual machine they are set
    /// by host scheduling stalls and swing by 2-3× between identical runs.
    pub fn query_latency(&mut self, ordered_us: &[f64], trace: bool) {
        let all = Samples::new(ordered_us.to_vec());
        println!(
            "query latency over {} samples (us): p50 {:.0} p75 {:.0} p90 {:.0} p95 {:.0} p99 {:.0}",
            ordered_us.len(),
            all.quantile(0.5).unwrap_or(0.0),
            all.quantile(0.75).unwrap_or(0.0),
            all.quantile(0.9).unwrap_or(0.0),
            all.quantile(0.95).unwrap_or(0.0),
            all.quantile(0.99).unwrap_or(0.0),
        );
        if ordered_us.is_empty() {
            self.invalid("no query latency samples");
        }
        if trace {
            for (q, name) in [(0.9, "query.p90_us"), (0.99, "query.p99_us")] {
                let v = all.tail(q).unwrap_or_else(|e| {
                    println!("{name} refused: {e}");
                    0.0
                });
                self.metric(name, v, "us");
            }
            return;
        }
        let w = windows(ordered_us.len());
        let chunks = split(ordered_us, w);
        println!(
            "query_p50_us: median of {w} windows of >= {} samples",
            chunks.iter().map(|c| c.len()).min().unwrap_or(0)
        );
        let p50 = chunks
            .iter()
            .map(|c| Samples::new(c.to_vec()).median().unwrap_or(0.0))
            .collect();
        self.metric("query_p50_us", middle(p50), "us");
    }

    /// `query_qps` of a closed loop: per window, queries answered per
    /// second spent serving them; the median over windows. `service_s`
    /// holds each call's time in order, `per_call` the queries a call
    /// answers.
    pub fn closed_loop_qps(&mut self, service_s: &[f64], per_call: usize) {
        let rates = split(service_s, windows(service_s.len()))
            .iter()
            .map(|c| (c.len() * per_call) as f64 / c.iter().sum::<f64>())
            .collect();
        self.metric("query_qps", middle(rates), "1/s");
    }

    pub fn names(&self) -> Vec<String> {
        self.metrics.iter().map(|m| m.0.clone()).collect()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints every metric with its unit, then the result line.
    /// `declared` is the `(name, unit)` list `BENCHMARK.json` promises for
    /// this mode; emitting anything else is a bug in the benchmark.
    pub fn print(&self, declared: &[(String, String)]) {
        let mut emitted: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let mut promised: Vec<(&str, &str)> = declared
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        emitted.sort_unstable();
        promised.sort_unstable();
        assert_eq!(
            emitted, promised,
            "emitted metrics differ from the declared ones"
        );

        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        println!(
            "error_rate = {} ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("problem: {p}");
        }
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_owned(), Value::from(*value));
                m.insert("unit".to_owned(), Value::from(unit.as_str()));
                (name.clone(), Value::Object(m))
            })
            .collect();
        let mut out = BTreeMap::new();
        out.insert("correct".to_owned(), Value::from(self.correct()));
        out.insert("attempted".to_owned(), Value::from(self.attempted.max(1)));
        out.insert("failed".to_owned(), Value::from(self.failed));
        out.insert("metrics".to_owned(), Value::Object(metrics));
        println!(
            "{}",
            serde_json::to_string(&Value::Object(out)).expect("serializable")
        );
    }
}

/// Most windows a run's samples are split into.
const MAX_WINDOWS: usize = 9;
/// Fewest samples in a window.
const WINDOW_MIN: usize = 400;

/// The largest odd number of windows, at most [`MAX_WINDOWS`], that
/// leaves every window at least [`WINDOW_MIN`] samples (1 when there
/// are fewer).
pub fn windows(n: usize) -> usize {
    let w = (n / WINDOW_MIN).clamp(1, MAX_WINDOWS);
    if w.is_multiple_of(2) {
        w - 1
    } else {
        w
    }
}

/// `w` consecutive chunks of near-equal length.
fn split(v: &[f64], w: usize) -> Vec<&[f64]> {
    (0..w)
        .map(|i| &v[i * v.len() / w..(i + 1) * v.len() / w])
        .collect()
}

/// The middle value of an odd-length list (0 when empty).
fn middle(v: Vec<f64>) -> f64 {
    Samples::new(v).median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_odd_and_full() {
        assert_eq!(windows(10), 1);
        assert_eq!(windows(799), 1);
        assert_eq!(windows(800), 1);
        assert_eq!(windows(1200), 3);
        assert_eq!(windows(2399), 5);
        assert_eq!(windows(50_000), 9);
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let parts = split(&v, 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        assert_eq!(parts[0], &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn one_noisy_window_does_not_move_the_result() {
        let mut r = Report::default();
        // Nine windows of 1000 samples at 100 us; two at 10 ms.
        let mut v = vec![100.0; 9000];
        v[2000..4000].iter_mut().for_each(|x| *x = 10_000.0);
        r.query_latency(&v, false);
        assert_eq!(r.metrics[0], ("query_p50_us".into(), 100.0, "us".into()));
        assert!(r.correct());
        r.closed_loop_qps(&[0.001; 5000], 1);
        assert!((r.metrics[1].1 - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn traced_tails_are_refused_without_ten_samples_beyond() {
        let mut r = Report::default();
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        r.query_latency(&v, true);
        assert_eq!(r.metrics[0], ("query.p90_us".into(), 1800.0, "us".into()));
        assert_eq!(r.metrics[1], ("query.p99_us".into(), 1980.0, "us".into()));
        assert!(r.correct());
        let mut r = Report::default();
        r.query_latency(&v[..999], true);
        assert_eq!(r.metrics[1].1, 0.0, "p99 of 999 samples has 9 beyond it");
    }
}
