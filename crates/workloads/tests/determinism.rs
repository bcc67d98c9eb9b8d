//! Pinned stream digests for every workload family.
//!
//! A recorded benchmark cell is only comparable across PRs if its seed still
//! produces the same transaction stream.  These tests pin one FNV-1a digest
//! per family (computed over the first 200 programs of worker 0, the same
//! derivation the closed-loop driver uses), so any change to a generator's
//! RNG consumption pattern — an extra draw, a reordered draw, a new mix —
//! fails loudly here instead of silently shifting every future benchmark
//! block.  When such a change is intentional, re-pin the constant and note
//! the break in the PR.

use txsql_workloads::digest::{stream_digest, trace_digest};
use txsql_workloads::spec::{BuiltWorkload, WorkloadSpec};
use txsql_workloads::sysbench::SysbenchVariant;

const SEED: u64 = 42;
const PROGRAMS: usize = 200;

fn closed_digest(spec: WorkloadSpec) -> u64 {
    match spec.build() {
        BuiltWorkload::Closed(workload) => stream_digest(workload.as_ref(), SEED, PROGRAMS),
        BuiltWorkload::Open(_) => panic!("{} is open-loop", spec.label()),
    }
}

#[test]
fn sysbench_stream_is_pinned() {
    assert_eq!(
        closed_digest(WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate)),
        12550968451213093157,
        "sysbench hotspot-update stream changed; re-pin if intentional"
    );
    assert_eq!(
        closed_digest(WorkloadSpec::sysbench(SysbenchVariant::UniformUpdate {
            length: 2
        })),
        14748094650021319322,
        "sysbench uniform-update stream changed; re-pin if intentional"
    );
}

#[test]
fn fit_stream_is_pinned() {
    assert_eq!(
        closed_digest(WorkloadSpec::fit_standard()),
        16965394232391298830,
        "FiT stream changed; re-pin if intentional"
    );
}

#[test]
fn tpcc_stream_is_pinned() {
    assert_eq!(
        closed_digest(WorkloadSpec::tpcc(1)),
        5074008595761981002,
        "TPC-C w=1 stream changed; re-pin if intentional"
    );
    assert_eq!(
        closed_digest(WorkloadSpec::tpcc(4)),
        3378853032016629370,
        "TPC-C w=4 stream changed; re-pin if intentional"
    );
}

#[test]
fn hotspot_burst_trace_is_pinned() {
    let spec = WorkloadSpec::HotspotBurst {
        base_tps: 50,
        phase_seconds: 1,
    };
    let BuiltWorkload::Open(trace) = spec.build() else {
        panic!("hotspot-burst is open-loop");
    };
    assert_eq!(
        trace_digest(&trace, SEED, 20),
        5227420549542702638,
        "hotspot-burst trace stream changed; re-pin if intentional"
    );
}

#[test]
fn digests_differ_across_families() {
    let digests = [
        closed_digest(WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate)),
        closed_digest(WorkloadSpec::fit_standard()),
        closed_digest(WorkloadSpec::tpcc(1)),
    ];
    let mut dedup = digests.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), digests.len(), "family digests collide");
}
