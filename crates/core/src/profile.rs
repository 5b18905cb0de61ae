//! Per-seed latency/throughput profiling over decomposition sessions.
//!
//! [`crate::Decomposer::run_many_profiled`] (and its weighted twin)
//! time every seed's run and return the decompositions alongside a
//! [`ProfileReport`]: one [`RunSample`] per seed plus a
//! [`LatencySummary`] with p50/p99 over the per-run wall times. The
//! percentile math lives in `mpx_trace` so CLI reports and library
//! callers agree bit-for-bit.

use crate::engine::PartitionTelemetry;
use crate::wengine::WeightedTelemetry;

/// One timed decomposition run within a profile batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSample {
    /// The seed the run used.
    pub seed: u64,
    /// Wall-clock time of the run in milliseconds.
    pub ms: f64,
    /// Engine rounds (depth proxy; paper predicts `O(log n / β)`).
    pub rounds: u64,
    /// Directed edges scanned (work proxy; paper predicts `O(m)`).
    pub relaxations: u64,
    /// Clusters in the output.
    pub clusters: u64,
}

impl RunSample {
    /// Builds a sample from a run's telemetry and wall time.
    pub fn new(seed: u64, ms: f64, telemetry: &PartitionTelemetry) -> Self {
        RunSample {
            seed,
            ms,
            rounds: telemetry.rounds,
            relaxations: telemetry.relaxations,
            clusters: telemetry.clusters,
        }
    }
}

/// One timed weighted decomposition run within a profile batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedRunSample {
    /// The seed the run used.
    pub seed: u64,
    /// Wall-clock time of the run in milliseconds.
    pub ms: f64,
    /// Δ-stepping buckets processed.
    pub buckets: u64,
    /// Light-relaxation phases.
    pub phases: u64,
    /// Edge relaxations performed.
    pub relaxations: u64,
    /// Clusters in the output.
    pub clusters: u64,
}

impl WeightedRunSample {
    /// Builds a sample from a weighted run's telemetry and wall time.
    pub fn new(seed: u64, ms: f64, telemetry: &WeightedTelemetry) -> Self {
        WeightedRunSample {
            seed,
            ms,
            buckets: telemetry.buckets,
            phases: telemetry.phases,
            relaxations: telemetry.relaxations,
            clusters: telemetry.clusters as u64,
        }
    }
}

/// Latency distribution over a profile batch, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Median run time.
    pub p50_ms: f64,
    /// 99th-percentile run time (linear interpolation over the sorted
    /// samples, so small batches report near the maximum).
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Fastest run.
    pub min_ms: f64,
    /// Slowest run.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a batch of run times (empty input yields all zeros).
    pub fn from_times(ms: &[f64]) -> Self {
        if ms.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = ms.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("run times are finite"));
        LatencySummary {
            p50_ms: mpx_trace::percentile(&sorted, 0.50),
            p99_ms: mpx_trace::percentile(&sorted, 0.99),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min_ms: sorted[0],
            max_ms: sorted[sorted.len() - 1],
        }
    }
}

/// Aggregated result of a multi-seed profiled run.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// One sample per seed, in input order.
    pub samples: Vec<RunSample>,
    /// Latency distribution over the samples.
    pub latency: LatencySummary,
}

impl ProfileReport {
    /// Builds the report (computes the latency summary) from samples.
    pub fn from_samples(samples: Vec<RunSample>) -> Self {
        let times: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        ProfileReport {
            samples,
            latency: LatencySummary::from_times(&times),
        }
    }

    /// Maximum round count over the batch (the observable to compare
    /// against the paper's `O(log n / β)` bound).
    pub fn max_rounds(&self) -> u64 {
        self.samples.iter().map(|s| s.rounds).max().unwrap_or(0)
    }

    /// Maximum relaxation count over the batch (`O(m)` work proxy).
    pub fn max_relaxations(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.relaxations)
            .max()
            .unwrap_or(0)
    }
}

/// Aggregated result of a multi-seed weighted profiled run.
#[derive(Clone, Debug, Default)]
pub struct WeightedProfileReport {
    /// One sample per seed, in input order.
    pub samples: Vec<WeightedRunSample>,
    /// Latency distribution over the samples.
    pub latency: LatencySummary,
}

impl WeightedProfileReport {
    /// Builds the report (computes the latency summary) from samples.
    pub fn from_samples(samples: Vec<WeightedRunSample>) -> Self {
        let times: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        WeightedProfileReport {
            samples,
            latency: LatencySummary::from_times(&times),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_orders_and_interpolates() {
        let s = LatencySummary::from_times(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 4.0);
        assert_eq!(s.p50_ms, 2.5);
        assert!((s.mean_ms - 2.5).abs() < 1e-12);
        assert!(s.p99_ms > 3.9 && s.p99_ms <= 4.0);
    }

    #[test]
    fn empty_batch_is_zeroed() {
        let s = LatencySummary::from_times(&[]);
        assert_eq!(s, LatencySummary::default());
        assert_eq!(ProfileReport::default().max_rounds(), 0);
    }

    #[test]
    fn report_tracks_maxima() {
        let report = ProfileReport::from_samples(vec![
            RunSample {
                seed: 1,
                ms: 1.0,
                rounds: 7,
                relaxations: 100,
                clusters: 3,
            },
            RunSample {
                seed: 2,
                ms: 2.0,
                rounds: 9,
                relaxations: 80,
                clusters: 4,
            },
        ]);
        assert_eq!(report.max_rounds(), 9);
        assert_eq!(report.max_relaxations(), 100);
        assert_eq!(report.latency.min_ms, 1.0);
    }
}
