//! One benchmark cell: a declarative spec and its measured outcome.

use crate::{measure_duration, warmup_duration};
use serde::Json;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::metrics::{Counter, EngineMetrics, MetricsSnapshot};
use txsql_core::{ConfigDelta, Database, EngineConfig, Protocol};
use txsql_replication::{ReplFaultPlan, ReplicationHook, ReplicationMode, SyncState};
use txsql_workloads::{
    run_closed_loop, run_fixed_tps_report, BuiltWorkload, ClosedLoopOptions, FixedTpsOptions,
    WorkloadSpec,
};

/// Fresh-database repeats behind every cell.  A constant of the grid, as in
/// `benchmark/`: a recorded number is a median with a spread, and two records
/// taken with different repeat counts do not compare (odd, so that one repeat
/// *is* the median).
pub const REPEATS: usize = 5;

/// Median and inter-quartile range (quartiles interpolated linearly between
/// order statistics) of a non-empty sample.
pub fn median_iqr(sample: &[f64]) -> (f64, f64) {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// One point of an experiment grid, as pure data.
///
/// `run` builds the [`Database`] from the protocol plus [`ConfigDelta`]s,
/// optionally registers a replication hook, runs the workload under the
/// driver the spec's workload family requires (closed-loop for SysBench /
/// FiT / TPC-C, fixed-TPS open loop for Hotspots), tears everything down,
/// and does so [`REPEATS`] times.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Concurrency-control protocol under test.
    pub protocol: Protocol,
    /// Workload family and parameters.
    pub workload: WorkloadSpec,
    /// Client threads (closed loop) or worker-pool size (open loop).
    pub threads: usize,
    /// Configuration knobs applied on top of the protocol defaults.
    pub deltas: Vec<ConfigDelta>,
    /// Replication hook to register, if any (two replicas).
    pub replication: Option<ReplicationMode>,
    /// Replication fault plan injected into the hook (replication cells
    /// only) — e.g. a follower-tier stall that forces the semi-sync
    /// degrade → re-sync cycle under load.
    pub replication_fault: Option<ReplFaultPlan>,
    /// Latency model override (defaults to semi-sync timings when a
    /// replication mode is set, instant otherwise).
    pub latency: Option<LatencyModel>,
    /// Base RNG seed for the driver's worker streams.
    pub seed: u64,
}

impl CellSpec {
    /// A cell with default threads (8), no deltas, no replication, seed 42.
    pub fn new(protocol: Protocol, workload: WorkloadSpec) -> Self {
        Self {
            protocol,
            workload,
            threads: 8,
            deltas: Vec::new(),
            replication: None,
            replication_fault: None,
            latency: None,
            seed: 42,
        }
    }

    /// Sets the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Adds a configuration delta.
    pub fn delta(mut self, delta: ConfigDelta) -> Self {
        self.deltas.push(delta);
        self
    }

    /// Enables the replication hook in `mode` (`None`: no hook).
    pub fn replication(mut self, mode: impl Into<Option<ReplicationMode>>) -> Self {
        self.replication = mode.into();
        self
    }

    /// Injects a replication fault plan into the hook (requires a
    /// replication mode).
    pub fn replication_fault(mut self, plan: ReplFaultPlan) -> Self {
        self.replication_fault = Some(plan);
        self
    }

    /// Overrides the latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resizes the workload's table (SysBench rows, FiT users); the other
    /// families have no such size.  Not part of the cell id.
    pub fn rows(mut self, rows: u64) -> Self {
        match &mut self.workload {
            WorkloadSpec::Sysbench { table_size, .. }
            | WorkloadSpec::SysbenchAbortInject { table_size, .. } => *table_size = rows,
            WorkloadSpec::Fit { users, .. } => *users = rows,
            WorkloadSpec::Tpcc { .. } | WorkloadSpec::HotspotBurst { .. } => {}
        }
        self
    }

    /// A stable cell id: `workload/protocol/tN[/delta...][/repl-...][/latency]`.
    pub fn id(&self) -> String {
        let protocol = self.protocol.label().to_lowercase();
        format!(
            "{}/{protocol}/t{}{}",
            self.workload.label(),
            self.threads,
            self.settings()
        )
    }

    /// The id's tail: what is set besides workload, protocol and threads.
    pub fn settings(&self) -> String {
        let mut settings: String = self
            .deltas
            .iter()
            .map(|d| format!("/{}", d.label()))
            .collect();
        match self.replication {
            Some(ReplicationMode::Synchronous) => settings.push_str("/repl-sync"),
            Some(ReplicationMode::Asynchronous) => settings.push_str("/repl-async"),
            None => {}
        }
        if let Some(plan) = &self.replication_fault {
            settings.push_str("/rplfault-");
            settings.push_str(plan.label());
        }
        if let Some(model) = &self.latency {
            let (fsync, rtt) = (model.fsync, model.network_round_trip());
            settings += &format!("/fsync={}us/rtt={}us", fsync.as_micros(), rtt.as_micros());
        }
        settings
    }

    /// Runs the cell [`REPEATS`] times on fresh databases and returns the
    /// repeat with the median goodput (every field of the outcome is that
    /// one run's, so counters and rates agree with each other) carrying the
    /// inter-quartile range of the repeats' goodput.
    pub fn run(&self) -> CellOutcome {
        let mut runs: Vec<CellOutcome> = (0..REPEATS).map(|_| self.run_once()).collect();
        runs.sort_by(|a, b| a.goodput_tps.total_cmp(&b.goodput_tps));
        let goodput: Vec<f64> = runs.iter().map(|run| run.goodput_tps).collect();
        let mut median = runs.swap_remove(REPEATS / 2);
        median.goodput_iqr = median_iqr(&goodput).1;
        median
    }

    fn run_once(&self) -> CellOutcome {
        let mut config = EngineConfig::for_protocol(self.protocol).with_deltas(&self.deltas);
        let latency = self.latency.or(self
            .replication
            .map(|_| LatencyModel::semi_sync_replication()));
        if let Some(model) = latency {
            config = config.with_latency(model);
        }
        let db = Database::new(config);
        // The hook's counters land in a dedicated registry (not the engine's,
        // which the drivers reset at window boundaries), so the recorded
        // degrade/re-sync counts cover the whole cell.
        let repl_metrics = Arc::new(EngineMetrics::new());
        let hook = self.replication.map(|mode| {
            let hook = ReplicationHook::builder(mode, latency.expect("latency set above"), 2)
                .faults(self.replication_fault.clone().unwrap_or_default())
                .metrics(Arc::clone(&repl_metrics))
                .build();
            db.register_commit_hook(hook.clone());
            hook
        });

        let mut outcome = match self.workload.build() {
            BuiltWorkload::Closed(workload) => {
                let options = ClosedLoopOptions {
                    threads: self.threads,
                    duration: measure_duration(),
                    warmup: warmup_duration(),
                    seed: self.seed,
                    max_retries: 0,
                };
                let snapshot = run_closed_loop(&db, workload.as_ref(), &options);
                CellOutcome {
                    spec: self.clone(),
                    goodput_tps: snapshot.tps,
                    goodput_iqr: 0.0,
                    abort_rate_pct: snapshot.abort_ratio * 100.0,
                    p50_ms: snapshot.p50_latency_ms,
                    p95_ms: snapshot.p95_latency_ms,
                    p99_ms: snapshot.p99_latency_ms,
                    committed: snapshot.committed,
                    failed: snapshot.aborted,
                    snapshot: Some(snapshot),
                    tpcc_consistent: None,
                    extras: Vec::new(),
                }
            }
            BuiltWorkload::Open(trace) => {
                let options = FixedTpsOptions {
                    threads: self.threads,
                    seed: self.seed,
                    ..Default::default()
                };
                let report = run_fixed_tps_report(&db, &trace, &options);
                // Phase-resolved goodput: the first and last trace phases are
                // the calm shoulders, so "did the burst end in re-admission"
                // is `post / pre` staying near 1.0.
                let total = trace.total_seconds();
                let pre_end = trace.phases().first().map_or(0, |p| p.seconds);
                let post_start = total - trace.phases().last().map_or(0, |p| p.seconds);
                let pre = report.goodput_tps_in(0..pre_end);
                let post = report.goodput_tps_in(post_start..total);
                let extras = vec![
                    ("admission_shed", Json::U64(report.total_shed())),
                    ("admission_queued", Json::U64(report.total_queued())),
                    (
                        "retry_budget_exhausted",
                        Json::U64(report.total_budget_exhausted()),
                    ),
                    ("pre_burst_goodput_tps", Json::F64(pre)),
                    ("post_burst_goodput_tps", Json::F64(post)),
                ];
                CellOutcome {
                    spec: self.clone(),
                    goodput_tps: report.goodput_tps(),
                    goodput_iqr: 0.0,
                    abort_rate_pct: report.failure_rate_pct(),
                    p50_ms: report.latencies.p50_millis(),
                    p95_ms: report.latencies.p95_millis(),
                    p99_ms: report.latencies.p99_millis(),
                    committed: report.total_committed(),
                    failed: report.total_failed(),
                    snapshot: None,
                    tpcc_consistent: None,
                    extras,
                }
            }
        };

        if let Some(checker) = self.workload.tpcc_checker() {
            outcome.tpcc_consistent = Some(checker.consistency_check(&db));
        }
        if let Some(hook) = hook {
            // Let the replicas catch up on the retained binlog (an injected
            // stall may have left them behind), then snapshot the
            // degrade/re-sync trajectory for the record.
            let caught_up = hook.wait_caught_up(hook.binlog_len(), Duration::from_secs(5));
            let resynced = hook.sync_state() == SyncState::SemiSync;
            let (count, m) = (|c: &Counter| Json::U64(c.get()), &repl_metrics);
            outcome.extras.extend([
                ("degraded_commits", count(&m.degraded_commits)),
                ("semi_sync_timeouts", count(&m.semi_sync_timeouts)),
                ("semi_sync_resyncs", count(&m.semi_sync_resyncs)),
                ("ship_retries", count(&m.ship_retries)),
                ("replicas_caught_up", Json::Bool(caught_up)),
                ("resynced", Json::Bool(resynced)),
            ]);
            hook.shutdown();
        }
        db.shutdown();
        outcome
    }
}

/// The measured result of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The spec that produced this outcome.
    pub spec: CellSpec,
    /// Committed (and, open-loop, within-deadline) transactions per second:
    /// the median of the cell's repeats.
    pub goodput_tps: f64,
    /// Inter-quartile range of the repeats' goodput.
    pub goodput_iqr: f64,
    /// Closed loop: engine abort ratio; open loop: failure rate.  Percent.
    pub abort_rate_pct: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 95th percentile end-to-end latency (ms).
    pub p95_ms: f64,
    /// 99th percentile end-to-end latency (ms).
    pub p99_ms: f64,
    /// Committed transactions in the measurement window.
    pub committed: u64,
    /// Aborted (closed loop) or failed/late (open loop) transactions.
    pub failed: u64,
    /// Full engine snapshot — closed-loop cells only (the open-loop driver
    /// resets engine metrics every second).
    pub snapshot: Option<MetricsSnapshot>,
    /// TPC-C warehouse/district YTD consistency — TPC-C cells only.
    pub tpcc_consistent: Option<bool>,
    /// What only some cells measure, under the keys it is recorded by.
    /// Open-loop cells: front-door admission activity summed over the run
    /// (`admission_shed`, `admission_queued`, `retry_budget_exhausted`) and
    /// goodput over the trace's calm first and last phases
    /// (`pre_burst_goodput_tps`, `post_burst_goodput_tps`) — the "did the
    /// burst end in re-admission" evidence; closed-loop cells carry the same
    /// counters inside their `snapshot`.  Replication cells: how often the
    /// semi-sync pipeline degraded and re-synced, its ship retries, and
    /// whether the replicas caught up and the hook ended back in semi-sync.
    pub extras: Vec<(&'static str, Json)>,
}

impl CellOutcome {
    /// The cell id of the producing spec.
    pub fn id(&self) -> String {
        self.spec.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_workloads::SysbenchVariant;

    #[test]
    fn cell_ids_encode_every_axis() {
        let spec = CellSpec::new(
            Protocol::GroupLockingTxsql,
            WorkloadSpec::Sysbench {
                variant: SysbenchVariant::HotspotUpdate,
                table_size: 1_000,
            },
        )
        .threads(32)
        .delta(ConfigDelta::BatchSize(64))
        .replication(ReplicationMode::Synchronous);
        assert_eq!(
            spec.id(),
            "sysbench-hotspot-update/txsql/t32/batch=64/repl-sync"
        );

        let faulted = spec.replication_fault(ReplFaultPlan::none().with_stall(
            None,
            1,
            std::time::Duration::from_millis(50),
        ));
        assert_eq!(
            faulted.id(),
            "sysbench-hotspot-update/txsql/t32/batch=64/repl-sync/rplfault-stall"
        );

        let plain = CellSpec::new(Protocol::Mysql2pl, WorkloadSpec::Tpcc { warehouses: 2 });
        assert_eq!(plain.id(), "tpcc-w2/mysql/t8");

        // Two specs that differ in one thing only have two ids.
        let trace = |phase_seconds| WorkloadSpec::HotspotBurst {
            base_tps: 300,
            phase_seconds,
        };
        let [short, long] = [1, 5].map(|s| CellSpec::new(Protocol::QueueLockingO2, trace(s)).id());
        assert_eq!(short, "hotspot-burst-tps300-phase1s/o2/t8");
        assert_ne!(short, long);
        let rtt = |one_way| LatencyModel {
            network_one_way: std::time::Duration::from_micros(one_way),
            ..LatencyModel::semi_sync_replication()
        };
        let [near, far] = [50, 1_500].map(|us| plain.clone().latency(rtt(us)).id());
        assert_eq!(near, "tpcc-w2/mysql/t8/fsync=100us/rtt=100us");
        assert_ne!(near, far);
    }

    #[test]
    fn builders_apply() {
        let spec = CellSpec::new(
            Protocol::Aria,
            WorkloadSpec::Fit {
                hot_accounts: 1,
                users: 100,
            },
        )
        .threads(0)
        .seed(9)
        .latency(LatencyModel::local_ssd());
        assert_eq!(spec.threads, 1, "thread count is clamped to >= 1");
        assert_eq!(spec.seed, 9);
        assert!(spec.latency.is_some());
    }

    #[test]
    fn median_and_iqr_of_a_known_sample() {
        assert_eq!(median_iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 2.0));
        assert_eq!(median_iqr(&[10.0, 20.0, 40.0, 30.0]), (25.0, 15.0));
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
        // One stalled repeat in five moves neither figure.
        assert_eq!(median_iqr(&[100.0, 101.0, 102.0, 103.0, 3.0]), (101.0, 2.0));
    }
}
