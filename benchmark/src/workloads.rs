//! The benchmark's own workload streams and the bookkeeping that lets every
//! run check its outputs.
//!
//! The generators live here, not in `crates/workloads`, so an edit to that
//! crate cannot shift what the gate measures; `digests_are_pinned` below fails
//! if these streams move.  The engine only ever sees the `TxnProgram`s.
//!
//! Why these four (one line each is repeated in `BENCHMARK.json`):
//!
//! * `hot_update_sync` — every transaction updates one pinned row and commits
//!   through a semi-synchronous replica round trip: the paper's Fig. 2b/9
//!   regime.  Time sits in group locking, the commit pipeline and
//!   replication; the plain lock tables barely run.
//! * `hot_update_mem` — the same stream with no commit latency at all, so
//!   lock hand-off, wake-ups and commit-order waits are what is left; the WAL
//!   flush and replication do nothing.
//! * `fit_ssd` — the FiT payment shape: the hot row is held across later
//!   statements, 1 % of transactions roll back after touching it (rollback
//!   turn, cascading dooms), and there are inserts and group-commit flushes.
//!   A commit-path gain that costs the rollback path shows here.
//! * `uniform_mixed_mem` — no hotspot at all: point reads and cold updates
//!   over 100k rows.  Lock-table fast path, read views, version chains and
//!   WAL appends do the work; hotspot, group and admission code is bypassed,
//!   so every hot-row optimisation predicts *no change* here.

use crate::engine::{Operation, TableId, TxnProgram};

/// The one table of the sysbench-shaped workloads: `[pk, value]`.
pub const MAIN: TableId = TableId(1);
/// FiT: the hot merchant balance, `[pk, balance]`.
pub const FIT_ACCOUNTS: TableId = TableId(20);
/// FiT: the append-only journal, `[pk, amount, amount]`.
pub const FIT_JOURNAL: TableId = TableId(21);
/// FiT: cold per-user balances, `[pk, balance]`.
pub const FIT_USERS: TableId = TableId(22);

/// Rows in `MAIN` and in `FIT_USERS`: far above the client count, so cold
/// rows do not contend, and the same order as the paper's tables.
pub const TABLE_ROWS: i64 = 100_000;

/// A table the set-up creates and bulk-loads with `rows` rows of
/// `[pk, initial, ..]`.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    pub id: TableId,
    pub name: &'static str,
    pub columns: usize,
    pub rows: i64,
    pub initial: i64,
}

/// How commits become durable in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `LatencyModel::in_memory()`, no hook.
    InMemory,
    /// `LatencyModel::local_ssd()`: a 100 µs flush per commit batch.
    LocalSsd,
    /// `LatencyModel::semi_sync_replication()` plus a synchronous
    /// replication hook with two replicas.
    SemiSync,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotUpdateSync,
    HotUpdateMem,
    FitSsd,
    UniformMixedMem,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotUpdateSync,
        Workload::HotUpdateMem,
        Workload::FitSsd,
        Workload::UniformMixedMem,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotUpdateSync => "hot_update_sync",
            Workload::HotUpdateMem => "hot_update_mem",
            Workload::FitSsd => "fit_ssd",
            Workload::UniformMixedMem => "uniform_mixed_mem",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durability(self) -> Durability {
        match self {
            Workload::HotUpdateSync => Durability::SemiSync,
            Workload::FitSsd => Durability::LocalSsd,
            Workload::HotUpdateMem | Workload::UniformMixedMem => Durability::InMemory,
        }
    }

    pub fn tables(self) -> &'static [TableSpec] {
        const SYSBENCH: [TableSpec; 1] = [TableSpec {
            id: MAIN,
            name: "main",
            columns: 2,
            rows: TABLE_ROWS,
            initial: 0,
        }];
        const FIT: [TableSpec; 3] = [
            TableSpec {
                id: FIT_ACCOUNTS,
                name: "fit_accounts",
                columns: 2,
                rows: 1,
                initial: 1_000_000,
            },
            TableSpec {
                id: FIT_JOURNAL,
                name: "fit_journal",
                columns: 3,
                rows: 0,
                initial: 0,
            },
            TableSpec {
                id: FIT_USERS,
                name: "fit_users",
                columns: 2,
                rows: TABLE_ROWS,
                initial: 10_000,
            },
        ];
        match self {
            Workload::FitSsd => &FIT,
            _ => &SYSBENCH,
        }
    }

    /// Rows declared hot during set-up.  Organic promotion needs 32 waiters
    /// on one row, which `nproc` clients can never form; without the pin a
    /// run would silently measure the lightweight table, not group locking.
    pub fn hot_rows(self) -> &'static [(TableId, i64)] {
        match self {
            Workload::HotUpdateSync | Workload::HotUpdateMem => &[(MAIN, 0)],
            Workload::FitSsd => &[(FIT_ACCOUNTS, 0)],
            Workload::UniformMixedMem => &[],
        }
    }
}

/// SplitMix64: the benchmark's own generator, so the streams do not depend
/// on `txsql_common::rng`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds is
    /// below 2^-40).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One client's program stream for one repeat.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// Journal keys are `client << 40 | sequence`: unique across clients and
    /// independent of how the clients interleave.
    client: u64,
    sequence: u64,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, repeat: u64, client: u64) -> Self {
        // Mix the three coordinates through the generator itself so nearby
        // seeds, repeats and clients give unrelated streams.
        let mut mix = Rng::new(seed);
        let a = mix.next_u64() ^ repeat.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut mix = Rng::new(a);
        let b = mix.next_u64() ^ client.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Self {
            workload,
            rng: Rng::new(b),
            client,
            sequence: 0,
        }
    }

    pub fn next_program(&mut self) -> TxnProgram {
        self.sequence += 1;
        let rng = &mut self.rng;
        let add = |table, pk, delta| Operation::UpdateAdd {
            table,
            pk,
            column: 1,
            delta,
        };
        let operations = match self.workload {
            Workload::HotUpdateSync | Workload::HotUpdateMem => {
                vec![add(MAIN, 0, 1 + rng.below(100) as i64)]
            }
            Workload::FitSsd => {
                let amount = 1 + rng.below(100) as i64;
                let mut ops = vec![
                    add(FIT_ACCOUNTS, 0, amount),
                    Operation::Insert {
                        table: FIT_JOURNAL,
                        pk: ((self.client << 40) | self.sequence) as i64,
                        fill: amount,
                    },
                ];
                if rng.below(2) == 0 {
                    ops.push(add(FIT_USERS, rng.below(TABLE_ROWS as u64) as i64, -amount));
                }
                if rng.below(100) == 0 {
                    ops.push(Operation::ForcedRollback);
                }
                ops
            }
            Workload::UniformMixedMem => {
                if rng.below(2) == 0 {
                    (0..10)
                        .map(|_| Operation::Read {
                            table: MAIN,
                            pk: rng.below(TABLE_ROWS as u64) as i64,
                        })
                        .collect()
                } else {
                    (0..4)
                        .map(|_| add(MAIN, rng.below(TABLE_ROWS as u64) as i64, 1))
                        .collect()
                }
            }
        };
        TxnProgram::new(operations)
    }
}

/// The final outcome of one client transaction, after retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commit {
    /// Acknowledged as committed.
    Committed,
    /// Rolled back because the program asked for it (`ForcedRollback`).
    RolledBack,
    /// Neither: a non-retryable error, or the retry budget ran out.
    Failed,
}

/// What the database must contain after a set of acknowledged outcomes: a
/// delta per pre-loaded row, the journal rows that must exist and the ones
/// that must not.  Each client keeps its own and they are merged for the
/// check, so recording costs one array write per statement.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `(table, rows, delta per pk)` for every pre-loaded table.
    pub deltas: Vec<(TableSpec, Vec<i64>)>,
    /// `(table, pk, fill)` of every committed insert.
    pub inserted: Vec<(TableId, i64, i64)>,
    /// `(table, pk)` of inserts whose transaction rolled back or failed.
    pub absent: Vec<(TableId, i64)>,
    /// Committed transactions that wrote something.
    pub committed_writers: u64,
}

impl Expected {
    pub fn new(workload: Workload) -> Self {
        Self {
            deltas: workload
                .tables()
                .iter()
                .filter(|t| t.rows > 0)
                .map(|t| (*t, vec![0; t.rows as usize]))
                .collect(),
            inserted: Vec::new(),
            absent: Vec::new(),
            committed_writers: 0,
        }
    }

    /// Records the final outcome of one program.
    pub fn record(&mut self, program: &TxnProgram, outcome: Commit) {
        let committed = outcome == Commit::Committed;
        let mut wrote = false;
        for op in &program.operations {
            match op {
                Operation::UpdateAdd {
                    table, pk, delta, ..
                } if committed => {
                    let (_, deltas) = self
                        .deltas
                        .iter_mut()
                        .find(|(spec, _)| spec.id == *table)
                        .expect("updates only touch pre-loaded tables");
                    deltas[*pk as usize] += delta;
                    wrote = true;
                }
                Operation::Insert { table, pk, fill } => {
                    if committed {
                        self.inserted.push((*table, *pk, *fill));
                        wrote = true;
                    } else {
                        self.absent.push((*table, *pk));
                    }
                }
                _ => {}
            }
        }
        self.committed_writers += wrote as u64;
    }

    pub fn merge(&mut self, other: Expected) {
        for ((_, mine), (_, theirs)) in self.deltas.iter_mut().zip(other.deltas) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.inserted.extend(other.inserted);
        self.absent.extend(other.absent);
        self.committed_writers += other.committed_writers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a canonical encoding of a program stream.
    fn digest(workload: Workload, seed: u64, programs: usize) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: i64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut generator = Generator::new(workload, seed, 0, 1);
        for _ in 0..programs {
            let program = generator.next_program();
            eat(program.operations.len() as i64);
            for op in &program.operations {
                match op {
                    Operation::Read { table, pk } => [1, table.0 as i64, *pk, 0].map(&mut eat),
                    Operation::UpdateAdd {
                        table, pk, delta, ..
                    } => [2, table.0 as i64, *pk, *delta].map(&mut eat),
                    Operation::Insert { table, pk, fill } => {
                        [3, table.0 as i64, *pk, *fill].map(&mut eat)
                    }
                    Operation::ForcedRollback => [4, 0, 0, 0].map(&mut eat),
                    other => unreachable!("the generators never emit {other:?}"),
                };
            }
        }
        hash
    }

    /// The streams the gate measures.  If this fails the benchmark's inputs
    /// changed: that is its own PR, with the baseline measured again.
    #[test]
    fn digests_are_pinned() {
        let pinned = [
            (Workload::HotUpdateSync, 0x5942_f9bf_aa9b_9276u64),
            (Workload::HotUpdateMem, 0x5942_f9bf_aa9b_9276),
            (Workload::FitSsd, 0x3261_0144_336f_1073),
            (Workload::UniformMixedMem, 0xf5ac_5c7f_6e37_b099),
        ];
        for (workload, expected) in pinned {
            let got = digest(workload, 42, 1_000);
            assert_eq!(got, expected, "{}: {got:#018x}", workload.name());
        }
    }

    #[test]
    fn streams_depend_on_seed_repeat_and_client_and_nothing_else() {
        let stream = |seed, repeat, client| {
            let mut g = Generator::new(Workload::FitSsd, seed, repeat, client);
            (0..50)
                .map(|_| g.next_program().operations)
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(7, 0, 1), stream(7, 0, 1));
        assert_ne!(stream(7, 0, 1), stream(8, 0, 1));
        assert_ne!(stream(7, 0, 1), stream(7, 1, 1));
        assert_ne!(stream(7, 0, 1), stream(7, 0, 2));
        assert_ne!(
            digest(Workload::HotUpdateMem, 42, 100),
            digest(Workload::HotUpdateMem, 7, 100)
        );
    }

    #[test]
    fn workload_shapes_are_as_documented() {
        let take = |w| {
            let mut g = Generator::new(w, 42, 0, 1);
            (0..20_000).map(|_| g.next_program()).collect::<Vec<_>>()
        };
        for p in take(Workload::HotUpdateMem) {
            assert_eq!(p.write_keys(), vec![(MAIN, 0)]);
        }
        let fit = take(Workload::FitSsd);
        let rollbacks = fit
            .iter()
            .filter(|p| p.operations.last() == Some(&Operation::ForcedRollback))
            .count();
        let cold = fit
            .iter()
            .filter(|p| p.write_keys().iter().any(|(t, _)| *t == FIT_USERS))
            .count();
        assert!(
            (120..=280).contains(&rollbacks),
            "~1 % roll back: {rollbacks}"
        );
        assert!(
            (9_500..=10_500).contains(&cold),
            "~50 % touch a user: {cold}"
        );
        let mut journal: Vec<i64> = fit
            .iter()
            .flat_map(|p| p.write_keys())
            .filter(|(t, _)| *t == FIT_JOURNAL)
            .map(|(_, pk)| pk)
            .collect();
        journal.sort_unstable();
        journal.dedup();
        assert_eq!(journal.len(), fit.len(), "journal keys are unique");
        let uniform = take(Workload::UniformMixedMem);
        let readers = uniform.iter().filter(|p| !p.has_writes()).count();
        assert!((9_500..=10_500).contains(&readers));
        assert!(uniform
            .iter()
            .all(|p| p.len() == if p.has_writes() { 4 } else { 10 }));
        assert!(uniform.iter().all(|p| p
            .write_keys()
            .iter()
            .all(|(t, pk)| { *t == MAIN && (0..TABLE_ROWS).contains(pk) })));
    }

    #[test]
    fn expected_counts_only_acknowledged_commits() {
        let mut g = Generator::new(Workload::FitSsd, 1, 0, 1);
        let mut a = Expected::new(Workload::FitSsd);
        let mut b = Expected::new(Workload::FitSsd);
        let (p1, p2, p3) = (g.next_program(), g.next_program(), g.next_program());
        a.record(&p1, Commit::Committed);
        a.record(&p2, Commit::RolledBack);
        b.record(&p3, Commit::Failed);
        a.merge(b);
        assert_eq!(a.committed_writers, 1);
        assert_eq!(a.inserted.len(), 1);
        assert_eq!(a.absent.len(), 2);
        let hot: i64 = a.deltas[0].1.iter().sum();
        let Operation::UpdateAdd { delta, .. } = p1.operations[0] else {
            panic!("FiT starts with the hot update");
        };
        assert_eq!(hot, delta);
    }
}
