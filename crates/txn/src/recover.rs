//! Crash recovery: rebuild the committed document state from a base
//! checkpoint plus the WAL.
//!
//! "In case of a crash during commit, we may lose the new version of the
//! pageOffset table, the new size values of all ancestors, and parts of
//! the changes … All this information is present in the WAL, such that
//! during recovery an up-to-date version of the database can be
//! restored" (§3.2). Because our WAL holds *logical* redo records keyed
//! by immutable node ids, recovery is: load the latest checkpoint (the
//! genesis document, or a [`WalRecord::Checkpoint`] written by
//! [`crate::Shard::checkpoint`] when it truncated the log), then replay
//! every complete commit record after it in log order. Node-id
//! allocation is deterministic — and a checkpoint record carries the
//! live node ids plus the allocation point — so replay reproduces the
//! exact ids later records refer to.

use crate::wal::{decode_log, WalError, WalRecord};
use crate::{Result, TxnError};
use mbxq_storage::{PageConfig, PagedDoc, TreeView};

/// Rebuilds the document from genesis XML and the raw WAL bytes,
/// resuming from the last complete checkpoint record if the log holds
/// one (then `genesis_xml` is not even parsed).
///
/// Torn trailing records (a crash mid-commit) are ignored — those
/// transactions never committed; likewise a crash during checkpointing
/// leaves the previous log intact, so the pre-checkpoint history is
/// still replayable. A corrupt record *before* valid ones is reported as
/// an error (real corruption, not a crash artifact).
pub fn recover(genesis_xml: &str, cfg: PageConfig, wal_bytes: &[u8]) -> Result<PagedDoc> {
    let records = decode_log(wal_bytes).map_err(TxnError::Wal)?;
    let resume = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }));
    let (doc, skip) = match resume {
        Some(i) => (load_checkpoint(&records[i], cfg)?, i + 1),
        None => (PagedDoc::parse_str(genesis_xml, cfg)?, 0),
    };
    replay(doc, &records[skip..])
}

/// Rebuilds one catalog shard's document from its WAL bytes alone. A
/// shard WAL is *self-contained*: [`crate::Catalog::create_doc`] seeds
/// it with a checkpoint of the freshly-shredded document, so unlike
/// [`recover`] no genesis XML exists — a log without any complete
/// checkpoint record is corrupt, not empty. When `expect_doc` is given
/// and the checkpoint dump carries a document identity (see
/// [`mbxq_storage::checkpoint::checkpoint_dump_identity`]), the two must
/// agree — a shard WAL shuffled under another document's slot fails
/// loudly instead of serving the wrong document.
pub fn recover_shard(
    cfg: PageConfig,
    wal_bytes: &[u8],
    expect_doc: Option<&str>,
) -> Result<PagedDoc> {
    let records = decode_log(wal_bytes).map_err(TxnError::Wal)?;
    let resume = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }))
        .ok_or_else(|| {
            TxnError::Wal(WalError::Corrupt {
                message: "shard wal holds no checkpoint record".into(),
            })
        })?;
    if let (Some(expect), WalRecord::Checkpoint { dump, .. }) = (expect_doc, &records[resume]) {
        let identity = mbxq_storage::checkpoint::checkpoint_dump_identity(dump);
        if let Some(found) = identity {
            if found != expect {
                return Err(TxnError::Wal(WalError::Corrupt {
                    message: format!(
                        "shard wal belongs to document {found:?}, expected {expect:?}"
                    ),
                }));
            }
        }
    }
    let doc = load_checkpoint(&records[resume], cfg)?;
    replay(doc, &records[resume + 1..])
}

/// Materializes a checkpoint record, cross-checking its declared tuple
/// count against the dump.
fn load_checkpoint(record: &WalRecord, cfg: PageConfig) -> Result<PagedDoc> {
    let WalRecord::Checkpoint {
        alloc_end,
        tuples,
        dump,
    } = record
    else {
        unreachable!("caller matched a checkpoint");
    };
    let doc = PagedDoc::from_checkpoint_dump(dump, cfg, *alloc_end)?;
    if doc.used_count() != *tuples {
        return Err(TxnError::Wal(WalError::Corrupt {
            message: format!(
                "checkpoint declares {tuples} tuples but its dump carries {}",
                doc.used_count()
            ),
        }));
    }
    Ok(doc)
}

/// Replays every complete commit record onto `doc` in log order.
fn replay(mut doc: PagedDoc, records: &[WalRecord]) -> Result<PagedDoc> {
    for record in records {
        let WalRecord::Commit { txn, ops } = record else {
            continue; // a checkpoint can only sit at the log head
        };
        for op in ops {
            op.apply(&mut doc).map_err(|e| {
                TxnError::Wal(WalError::Corrupt {
                    message: format!("replay of txn {txn} failed: {e}"),
                })
            })?;
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;
    use crate::{AncestorLockMode, Shard, StoreConfig};
    use mbxq_storage::serialize::to_xml;
    use mbxq_storage::{InsertPosition, TreeView};
    use mbxq_xml::Document;
    use mbxq_xpath::XPath;

    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person></people><regions><africa/><asia/></regions></site>"#;

    fn cfg() -> PageConfig {
        PageConfig::new(8, 75).unwrap()
    }

    /// Runs a scripted workload against a fresh store, returning the
    /// final document XML and the raw WAL.
    fn run_workload(crash_at: Option<usize>) -> (Option<String>, Vec<u8>) {
        let doc = PagedDoc::parse_str(DOC, cfg()).unwrap();
        let mut wal = Wal::in_memory();
        if let Some(limit) = crash_at {
            wal.crash_after_bytes(limit);
        }
        let store = Shard::open(
            doc,
            wal,
            StoreConfig {
                ancestor_mode: AncestorLockMode::Delta,
                lock_timeout: std::time::Duration::from_millis(200),
                validate_on_commit: true,
                ..StoreConfig::default()
            },
        );
        let mut final_xml = None;
        let mut crashed = false;
        for i in 0..4 {
            let mut t = store.begin();
            let people = match t.select(&XPath::parse("/site/people").unwrap()) {
                Ok(p) => p,
                Err(_) => {
                    crashed = true;
                    break;
                }
            };
            let frag = Document::parse_fragment(&format!(
                "<person id=\"g{i}\"><name>N{i}</name></person>"
            ))
            .unwrap();
            t.insert(InsertPosition::LastChildOf(people[0]), &frag)
                .unwrap();
            if i == 2 {
                // Mix in a delete of the second generated person's name.
                let victims = t
                    .select(&XPath::parse("//person[@id='g0']/name").unwrap())
                    .unwrap();
                t.delete(victims[0]).unwrap();
            }
            match t.commit() {
                Ok(_) => {}
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed {
            final_xml = Some(to_xml(store.snapshot().as_ref()).unwrap());
        }
        let raw = store.wal_raw().unwrap();
        (final_xml, raw)
    }

    #[test]
    fn recovery_reproduces_the_committed_state() {
        let (final_xml, raw) = run_workload(None);
        let recovered = recover(DOC, cfg(), &raw).unwrap();
        assert_eq!(to_xml(&recovered).unwrap(), final_xml.unwrap());
        mbxq_storage::invariants::check_paged(&recovered).unwrap();
    }

    #[test]
    fn recovery_after_crash_yields_a_committed_prefix() {
        // First measure the intact log, then crash at every record-ish
        // boundary and a few interior byte positions.
        let (_, intact) = run_workload(None);
        for cut in [0, 1, intact.len() / 4, intact.len() / 2, intact.len() - 1] {
            let (_, raw) = run_workload(Some(cut));
            let recovered = recover(DOC, cfg(), &raw).unwrap();
            mbxq_storage::invariants::check_paged(&recovered).unwrap();
            // Whatever was recovered must be a prefix of the committed
            // history: g_i present implies g_{i-1} present.
            let xml = to_xml(&recovered).unwrap();
            let mut seen_gap = false;
            for i in 0..4 {
                let present = xml.contains(&format!("id=\"g{i}\""));
                if !present {
                    seen_gap = true;
                } else {
                    assert!(!seen_gap, "g{i} present after a missing earlier commit");
                }
            }
        }
    }

    #[test]
    fn recovery_replays_deterministic_node_ids() {
        // The workload's third transaction deletes a node *created by an
        // earlier transaction* — replay only works if node ids come out
        // identically. Covered by full-state equality, but assert the
        // specific condition too.
        let (final_xml, raw) = run_workload(None);
        let recovered = recover(DOC, cfg(), &raw).unwrap();
        assert!(final_xml.unwrap().contains("id=\"g0\""));
        // g0's name was deleted:
        assert!(!to_xml(&recovered).unwrap().contains("N0"));
        assert!(to_xml(&recovered).unwrap().contains("N1"));
    }

    #[test]
    fn empty_wal_recovers_the_checkpoint() {
        let recovered = recover(DOC, cfg(), b"").unwrap();
        assert_eq!(
            to_xml(&recovered).unwrap(),
            to_xml(&PagedDoc::parse_str(DOC, cfg()).unwrap()).unwrap()
        );
    }

    #[test]
    fn sizes_and_page_offsets_rebuilt() {
        let (_, raw) = run_workload(None);
        let recovered = recover(DOC, cfg(), &raw).unwrap();
        // Root size: 7 original + 4 inserts × 3 tuples − 2 deleted.
        assert_eq!(TreeView::size(&recovered, 0), 7 + 12 - 2);
    }
}
