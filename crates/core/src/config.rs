//! Engine configuration: protocol selection, every knob the evaluation
//! sweeps, and the switches the tests and sim suites set (history
//! recording, the sweeper, fault plans).  What follows from the protocol
//! alone (its read-view mode, whether it detects hotspots) is a method of
//! [`Protocol`], not a knob.

use crate::admission::AdmissionConfig;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_lockmgr::group_lock::GroupLockConfig;
use txsql_lockmgr::hotspot::HotspotConfig;
use txsql_storage::fault::FaultPlan;
use txsql_txn::ReadViewMode;

/// The concurrency-control protocol / optimization level to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Vanilla MySQL-style 2PL on the page-sharded `lock_sys`.
    Mysql2pl,
    /// General lock optimization (§3.1): lightweight record-keyed locking and
    /// copy-free read views.
    LightweightO1,
    /// O1 plus queue locking for detected hotspots (§3.2).
    QueueLockingO2,
    /// O1 plus group locking for detected hotspots (§3.3/§4) — "TXSQL".
    GroupLockingTxsql,
    /// Bamboo: early lock release with cascading-abort tracking (baseline).
    Bamboo,
    /// Aria: batched deterministic execution (baseline).
    Aria,
}

impl Protocol {
    /// All protocols, in the order the paper's figures list them.
    pub const ALL: [Protocol; 6] = [
        Protocol::Mysql2pl,
        Protocol::LightweightO1,
        Protocol::QueueLockingO2,
        Protocol::GroupLockingTxsql,
        Protocol::Bamboo,
        Protocol::Aria,
    ];

    /// The four systems compared in Figures 8–12.
    pub const SYSTEMS: [Protocol; 4] = [
        Protocol::Mysql2pl,
        Protocol::Aria,
        Protocol::Bamboo,
        Protocol::GroupLockingTxsql,
    ];

    /// The four ablation levels of Figure 6.
    pub const ABLATION: [Protocol; 4] = [
        Protocol::Mysql2pl,
        Protocol::LightweightO1,
        Protocol::QueueLockingO2,
        Protocol::GroupLockingTxsql,
    ];

    /// Short label used in benchmark output (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Mysql2pl => "MySQL",
            Protocol::LightweightO1 => "O1",
            Protocol::QueueLockingO2 => "O2",
            Protocol::GroupLockingTxsql => "TXSQL",
            Protocol::Bamboo => "Bamboo",
            Protocol::Aria => "Aria",
        }
    }

    /// True when hotspot detection is active for this protocol.
    pub fn uses_hotspots(&self) -> bool {
        matches!(self, Protocol::QueueLockingO2 | Protocol::GroupLockingTxsql)
    }

    /// The read-view implementation (§3.1.2): the MySQL baseline copies the
    /// active transaction list, every other level is copy-free.
    pub fn read_view_mode(&self) -> ReadViewMode {
        match self {
            Protocol::Mysql2pl => ReadViewMode::Copying,
            _ => ReadViewMode::CopyFree,
        }
    }
}

/// One declarative knob override for an experiment-grid cell.
///
/// The `bench_workloads` harness describes each cell as *data* — protocol ×
/// workload × threads × knob overrides — so the knobs themselves must be
/// values rather than closures.  [`EngineConfig::with_deltas`] applies a list
/// of these on top of [`EngineConfig::for_protocol`], and
/// [`ConfigDelta::label`] renders the override into the cell id recorded in
/// `BENCH_workloads.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigDelta {
    /// Group-locking batch size (0 = unbounded), see `with_batch_size`.
    BatchSize(usize),
    /// Group commit on/off (Figure 13 ablation).
    GroupCommit(bool),
    /// Front-door admission control (hot-key queues + shedding) on/off.
    Admission(bool),
    /// Per-hot-key admission-queue waiter bound.
    AdmissionDepth(usize),
}

impl ConfigDelta {
    /// Applies the override to a configuration.
    pub fn apply(self, config: EngineConfig) -> EngineConfig {
        match self {
            ConfigDelta::BatchSize(n) => config.with_batch_size(n),
            ConfigDelta::GroupCommit(on) => config.with_group_commit(on),
            ConfigDelta::Admission(on) => config.with_admission(on),
            ConfigDelta::AdmissionDepth(n) => config.with_admission_depth(n),
        }
    }

    /// Short `key=value` label used in recorded cell ids.
    pub fn label(&self) -> String {
        match self {
            ConfigDelta::BatchSize(n) => format!("batch={n}"),
            ConfigDelta::GroupCommit(on) => format!("gc={on}"),
            ConfigDelta::Admission(on) => format!("admission={on}"),
            ConfigDelta::AdmissionDepth(n) => format!("admdepth={n}"),
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Protocol to run.
    pub protocol: Protocol,
    /// Simulated durability / replication latencies.
    pub latency: LatencyModel,
    /// Lock-wait timeout for the record-lock table.
    pub lock_wait_timeout: Duration,
    /// Hotspot detection configuration (§4.1), read by the protocols that
    /// [`Protocol::uses_hotspots`] and by admission control.
    pub hotspot: HotspotConfig,
    /// Group-locking configuration: the follower batch size (§4.2) and the
    /// hot-row wait timeout.  (The §4.6.1 dynamic batch size is not a knob:
    /// a hand-over with nobody parked always leaves the row leaderless.)
    pub group: GroupLockConfig,
    /// Group commit in the 2PC commit pipeline (§4.3, Figure 13).
    pub group_commit: bool,
    /// Aria batch size (transactions per deterministic batch).
    pub aria_batch_size: usize,
    /// Record read/write sets of committed transactions so the
    /// serializability checker can audit the run (§6.4.5).
    pub record_history: bool,
    /// Spawn the background hotspot sweeper thread (§4.1).
    pub start_sweeper: bool,
    /// Crash-fault injection plan (`None` = no injected faults).  Seeded
    /// plans drive the sim crash exploration; see
    /// `txsql_storage::fault::FaultPlan`.
    pub fault_plan: Option<FaultPlan>,
    /// Front-door admission control: hot-key queues, shedding, and the
    /// drivers' retry/backoff policy (see [`crate::admission`]).
    pub admission: AdmissionConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::for_protocol(Protocol::GroupLockingTxsql)
    }
}

impl EngineConfig {
    /// A sensible configuration for the given protocol: the defaults the
    /// paper's evaluation uses (batch size 10, hotspot threshold 32; the read
    /// views follow from the protocol, see [`Protocol::read_view_mode`]).
    pub fn for_protocol(protocol: Protocol) -> Self {
        Self {
            protocol,
            latency: LatencyModel::in_memory(),
            lock_wait_timeout: Duration::from_millis(200),
            hotspot: HotspotConfig::default(),
            group: GroupLockConfig::default(),
            group_commit: true,
            aria_batch_size: 64,
            record_history: false,
            start_sweeper: protocol.uses_hotspots(),
            fault_plan: None,
            admission: AdmissionConfig::default(),
        }
    }

    /// Sets the simulated latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the lock-wait timeout (the record-lock table and hotspot queues).
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self.group.hot_wait_timeout = timeout;
        self
    }

    /// Sets the group-locking batch size (0 = unbounded).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.group.batch_size = batch_size;
        self
    }

    /// Enables or disables group commit (Figure 13 ablation).
    pub fn with_group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Sets the hotspot promotion threshold.
    pub fn with_hotspot_threshold(mut self, threshold: usize) -> Self {
        self.hotspot = self.hotspot.clone().with_threshold(threshold);
        self
    }

    /// Enables history recording for the serializability checker.
    pub fn with_history_recording(mut self, enabled: bool) -> Self {
        self.record_history = enabled;
        self
    }

    /// Sets the Aria batch size (the engine runs 0 as 1).
    pub fn with_aria_batch_size(mut self, batch: usize) -> Self {
        self.aria_batch_size = batch;
        self
    }

    /// Installs a crash-fault injection plan (sim crash exploration).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables or disables the front-door hot-key admission queues.
    pub fn with_admission(mut self, enabled: bool) -> Self {
        self.admission.enabled = enabled;
        self
    }

    /// Sets the per-hot-key admission-queue waiter bound.
    pub fn with_admission_depth(mut self, depth: usize) -> Self {
        self.admission = self.admission.with_queue_depth(depth);
        self
    }

    /// Applies a list of declarative knob overrides in order.
    pub fn with_deltas(self, deltas: &[ConfigDelta]) -> Self {
        deltas
            .iter()
            .fold(self, |config, delta| delta.apply(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_defaults_match_the_paper() {
        assert_eq!(Protocol::Mysql2pl.read_view_mode(), ReadViewMode::Copying);
        assert_eq!(
            Protocol::GroupLockingTxsql.read_view_mode(),
            ReadViewMode::CopyFree
        );
        let txsql = EngineConfig::for_protocol(Protocol::GroupLockingTxsql);
        assert_eq!(txsql.group.batch_size, 10);
        assert_eq!(txsql.hotspot.promote_threshold, 32);
        assert!(
            !txsql.admission.enabled,
            "admission queues are opt-in per cell"
        );
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = EngineConfig::for_protocol(Protocol::GroupLockingTxsql)
            .with_batch_size(64)
            .with_group_commit(false)
            .with_hotspot_threshold(4)
            .with_lock_wait_timeout(Duration::from_millis(77))
            .with_aria_batch_size(3)
            .with_history_recording(true)
            .with_fault_plan(FaultPlan::seeded(7));
        assert_eq!(cfg.group.batch_size, 64);
        assert!(cfg.fault_plan.is_some());
        assert!(!cfg.group_commit);
        assert_eq!(cfg.hotspot.promote_threshold, 4);
        assert_eq!(cfg.lock_wait_timeout, Duration::from_millis(77));
        assert_eq!(cfg.group.hot_wait_timeout, Duration::from_millis(77));
        assert_eq!(cfg.aria_batch_size, 3);
        assert!(cfg.record_history);
    }

    #[test]
    fn config_deltas_apply_declaratively() {
        let deltas = [
            ConfigDelta::BatchSize(64),
            ConfigDelta::GroupCommit(false),
            ConfigDelta::Admission(true),
            ConfigDelta::AdmissionDepth(4),
        ];
        let cfg = EngineConfig::for_protocol(Protocol::GroupLockingTxsql).with_deltas(&deltas);
        assert!(cfg.admission.enabled);
        assert_eq!(cfg.admission.queue_depth, 4);
        assert_eq!(ConfigDelta::Admission(true).label(), "admission=true");
        assert_eq!(cfg.group.batch_size, 64);
        assert!(!cfg.group_commit);
        assert_eq!(ConfigDelta::BatchSize(64).label(), "batch=64");
        // Labels are distinct per knob kind.
        let labels: std::collections::HashSet<String> = deltas.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), deltas.len());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Protocol::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Protocol::ALL.len());
    }

    #[test]
    fn protocol_classification() {
        assert!(Protocol::QueueLockingO2.uses_hotspots());
        assert!(!Protocol::Bamboo.uses_hotspots());
    }
}
