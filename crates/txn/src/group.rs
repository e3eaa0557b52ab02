//! Group commit — batched WAL flushing for concurrent committers.
//!
//! "Writing the WAL is the crucial stage in transaction commit, it
//! consists of a single I/O" (§3.2). With one global commit lock held
//! across that I/O, N concurrent committers pay N serialized log writes.
//! Group commit restores the single-I/O property *per batch*: the first
//! committer to arrive becomes the **leader**, drains every record that
//! queued up while the previous flush ran, and writes the whole batch
//! with one [`crate::wal::Wal::append_batch`] call; the other committers
//! (**followers**) park on a flush ticket and are woken with their
//! individual result. Under load the batch grows to whatever arrived
//! during one flush, so log I/Os per commit tend to *1/batch-size* —
//! writers stop serializing on the log.
//!
//! The protocol is deliberately tiny: one mutex-guarded queue plus a
//! condvar. The mutex is only ever held for queue manipulation, never
//! across the flush itself (the leader releases it before touching the
//! WAL), so enqueueing stays cheap even while a flush is in flight.

use crate::wal::{Wal, WalError, WalRecord};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Cumulative group-commit counters (diagnostics; `mbxq-bench` and the
/// concurrency tests read them to prove batching happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Flush batches written (each is one log I/O).
    pub batches: u64,
    /// Commit records that travelled in those batches.
    pub records: u64,
    /// Largest batch observed.
    pub max_batch: u64,
}

/// Ticket-granting state shared by all committers.
#[derive(Default)]
struct State {
    /// Records waiting for the next leader, with their tickets.
    pending: Vec<(u64, WalRecord)>,
    /// Results of flushed tickets not yet picked up by their follower.
    results: HashMap<u64, Result<(), WalError>>,
    /// Next ticket number.
    next_ticket: u64,
    /// A leader is currently flushing a batch.
    leader_running: bool,
    stats: GroupCommitStats,
}

/// The group-commit coordinator. One per [`crate::Shard`].
#[derive(Default)]
pub struct GroupCommit {
    state: Mutex<State>,
    /// Signaled when a batch finishes (results available, leadership
    /// open again).
    flushed: Condvar,
}

impl GroupCommit {
    /// Creates an idle coordinator.
    pub fn new() -> GroupCommit {
        GroupCommit::default()
    }

    /// Durably appends `record` to `wal`, batching with any records
    /// enqueued by concurrent callers. Returns once the record's flush
    /// completed (or failed — including a crash that tore it).
    ///
    /// The calling thread either leads a flush (draining the whole
    /// queue through one `append_batch`) or waits as a follower for the
    /// leader that covers its ticket.
    pub fn submit(&self, wal: &Mutex<Wal>, record: WalRecord) -> Result<(), WalError> {
        let ticket = {
            let mut st = self.state.lock().unwrap();
            let t = st.next_ticket;
            st.next_ticket += 1;
            st.pending.push((t, record));
            t
        };
        loop {
            let mut st = self.state.lock().unwrap();
            // A previous leader may already have flushed our record.
            if let Some(result) = st.results.remove(&ticket) {
                return result;
            }
            if !st.leader_running {
                // Become the leader: take the whole queue (ours
                // included — it can't have been flushed, or `results`
                // would have held it) and flush it in one I/O.
                st.leader_running = true;
                // The queue is owned now — split it so the records go
                // to the flush without re-cloning their op payloads.
                let (tickets, records): (Vec<u64>, Vec<WalRecord>) =
                    std::mem::take(&mut st.pending).into_iter().unzip();
                drop(st);

                let outcomes = wal.lock().unwrap().append_batch(&records);

                let mut st = self.state.lock().unwrap();
                st.stats.batches += 1;
                st.stats.records += records.len() as u64;
                st.stats.max_batch = st.stats.max_batch.max(records.len() as u64);
                let mut mine = None;
                for (t, outcome) in tickets.into_iter().zip(outcomes) {
                    if t == ticket {
                        mine = Some(outcome);
                    } else {
                        st.results.insert(t, outcome);
                    }
                }
                st.leader_running = false;
                self.flushed.notify_all();
                return mine.expect("leader's own ticket is always in the batch it drained");
            }
            // Follower: a leader is flushing (perhaps even our record).
            // Wait for it to finish, then re-check.
            let _unused = self.flushed.wait(st).unwrap();
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.state.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use mbxq_storage::NodeId;
    use std::sync::Arc;

    fn record(txn: u64) -> WalRecord {
        WalRecord::Commit {
            txn,
            ops: vec![Op::Delete { node: NodeId(txn) }],
        }
    }

    #[test]
    fn single_submit_flushes_immediately() {
        let group = GroupCommit::new();
        let wal = Mutex::new(Wal::in_memory());
        group.submit(&wal, record(1)).unwrap();
        assert_eq!(wal.lock().unwrap().read_all().unwrap(), vec![record(1)]);
        let stats = group.stats();
        assert_eq!((stats.batches, stats.records), (1, 1));
    }

    #[test]
    fn concurrent_submits_all_land_durably() {
        let group = Arc::new(GroupCommit::new());
        let wal = Arc::new(Mutex::new(Wal::in_memory()));
        std::thread::scope(|s| {
            for txn in 0..32u64 {
                let group = group.clone();
                let wal = wal.clone();
                s.spawn(move || group.submit(&wal, record(txn)).unwrap());
            }
        });
        let mut txns: Vec<u64> = wal
            .lock()
            .unwrap()
            .read_all()
            .unwrap()
            .into_iter()
            .map(|r| match r {
                WalRecord::Commit { txn, .. } => txn,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        txns.sort_unstable();
        assert_eq!(txns, (0..32).collect::<Vec<_>>());
        let stats = group.stats();
        assert_eq!(stats.records, 32);
        assert!(stats.batches <= 32);
    }

    #[test]
    fn crash_fails_exactly_the_records_past_the_cut() {
        let group = GroupCommit::new();
        let mut w = Wal::in_memory();
        // Budget: the first record fits, nothing after it does.
        w.append(&record(0)).unwrap();
        let one_len = w.len_bytes();
        let mut w = Wal::in_memory();
        w.crash_after_bytes(one_len);
        let wal = Mutex::new(w);
        group.submit(&wal, record(0)).unwrap();
        let err = group.submit(&wal, record(1)).unwrap_err();
        assert!(matches!(err, WalError::Crashed { .. }));
        // Recovery sees exactly the successful record.
        assert_eq!(wal.lock().unwrap().read_all().unwrap(), vec![record(0)]);
    }
}
