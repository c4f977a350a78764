//! Order statistics, operation accounting and the peak-memory probe.

use serde_json::Value;
use taj_core::Score;

/// One measured operation: a (program, config) analysis in the batch
/// workloads, one client request on `serve-edits`.
#[derive(Debug)]
pub struct Op {
    /// Wall time of the operation on the benchmark's clock.
    pub latency_ms: f64,
    /// Score against ground truth; `None` when no report was produced.
    pub score: Option<Score>,
    /// Why the operation failed, if it did. An operation without a
    /// score and without a failure is undecided (a budget OOM).
    pub failure: Option<String>,
}

impl Op {
    /// A report was produced and scored. Under a sound configuration any
    /// ground-truth flow missed beyond those declared out of reach
    /// (`undeclared_misses`) is a failure.
    pub fn decided(latency_ms: f64, score: Score, undeclared_misses: usize, sound: bool) -> Op {
        let failure = (sound && undeclared_misses > 0)
            .then(|| format!("{undeclared_misses} false negative(s) under a sound config"));
        Op { latency_ms, score: Some(score), failure }
    }

    /// The configuration ran out of its memory budget (the paper's "-").
    pub fn undecided(latency_ms: f64) -> Op {
        Op { latency_ms, score: None, failure: None }
    }

    /// Any other error, a panic, or a wrong answer.
    pub fn failed(latency_ms: f64, why: String) -> Op {
        Op { latency_ms, score: None, failure: Some(why) }
    }

    /// The operation as a JSON object, for a child process to report.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.insert("latency_ms", Value::Float(self.latency_ms));
        if let Some(s) = &self.score {
            let counts = [s.true_positives, s.false_positives, s.false_negatives];
            o.insert("score", Value::Array(counts.map(|n| Value::UInt(n as u128)).to_vec()));
        }
        if let Some(why) = &self.failure {
            o.insert("failure", Value::String(why.clone()));
        }
        o
    }

    /// Reads back [`Op::to_json`].
    pub fn from_json(v: &Value) -> Option<Op> {
        let score = match v.get("score") {
            Some(counts) => {
                let n = |i: usize| counts.as_array()?.get(i)?.as_u64().map(|n| n as usize);
                Some(Score {
                    true_positives: n(0)?,
                    false_positives: n(1)?,
                    false_negatives: n(2)?,
                })
            }
            None => None,
        };
        Some(Op {
            latency_ms: v.get("latency_ms")?.as_f64()?,
            score,
            failure: v.get("failure").and_then(Value::as_str).map(str::to_string),
        })
    }
}

/// Nearest-rank percentile `p` (0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Without
/// kernel support the mark is simply not reset.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Derives the seed of one input from the workload seed and a stream
/// label (splitmix64 over their combination), so every preset, edit
/// chain and revisit order gets its own decorrelated stream.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
