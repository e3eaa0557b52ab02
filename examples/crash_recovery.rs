//! Durability demonstration (§3.2): commit through a file-backed WAL,
//! crash at an arbitrary byte position mid-commit, and recover.
//!
//! "Writing the WAL is the crucial stage in transaction commit, it
//! consists of a single I/O. … In case of a crash during commit … all
//! this information is present in the WAL, such that during recovery an
//! up-to-date version of the database can be restored."
//!
//! Run with: `cargo run --example crash_recovery`

use mbxq::{InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, TreeView, Wal, XPath};
use mbxq_txn::recover::recover;
use mbxq_xml::Document;

const CHECKPOINT: &str =
    r#"<ledger><accounts><account id="a1"><balance>100</balance></account></accounts></ledger>"#;

fn main() {
    let dir = std::env::temp_dir().join(format!("mbxq-crash-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path = dir.join("ledger.wal");
    let _ = std::fs::remove_file(&wal_path);

    let cfg = PageConfig::new(64, 80).unwrap();

    // Phase 1: run transactions against a file-backed WAL; the third one
    // crashes mid-append (injected).
    {
        let doc = PagedDoc::parse_str(CHECKPOINT, cfg).unwrap();
        let wal = Wal::file(&wal_path).expect("open wal file");
        let store = Shard::open(doc, wal, StoreConfig::default());

        for i in 0..2 {
            let mut t = store.begin();
            let accounts = t
                .select(&XPath::parse("/ledger/accounts").unwrap())
                .unwrap();
            let frag = Document::parse_fragment(&format!(
                "<account id=\"gen{i}\"><balance>{}</balance></account>",
                (i + 2) * 50
            ))
            .unwrap();
            t.insert(InsertPosition::LastChildOf(accounts[0]), &frag)
                .unwrap();
            t.commit().expect("commit lands in the WAL");
            println!("txn {} committed", i + 1);
        }

        // Arm the crash: the next commit record is torn after 25 bytes.
        let (doc, mut wal) = store.into_parts();
        wal.crash_after_bytes(wal.len_bytes() + 25);
        let store = Shard::open(doc, wal, StoreConfig::default());
        let mut t = store.begin();
        let accounts = t
            .select(&XPath::parse("/ledger/accounts").unwrap())
            .unwrap();
        let frag = Document::parse_fragment("<account id=\"doomed\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(accounts[0]), &frag)
            .unwrap();
        match t.commit() {
            Err(e) => println!("txn 3 crashed during the commit I/O: {e}"),
            Ok(_) => unreachable!("crash was injected"),
        }
        // Process "dies" here; the torn record sits in the file.
    }

    // Phase 2: recovery from checkpoint + WAL file.
    let wal_bytes = std::fs::read(&wal_path).expect("wal survives the crash");
    println!("\nrecovering from {} WAL bytes …", wal_bytes.len());
    let recovered = recover(CHECKPOINT, cfg, &wal_bytes).expect("recovery succeeds");
    mbxq_storage::invariants::check_paged(&recovered).expect("recovered store is consistent");

    let accounts = XPath::parse("//account/@id")
        .unwrap()
        .eval(&recovered, &[0])
        .unwrap();
    println!(
        "recovered document: {}",
        mbxq_storage::serialize::to_xml(&recovered).unwrap()
    );
    match accounts {
        mbxq::Value::Attrs(ids) => {
            println!(
                "accounts after recovery: {} (committed prefix only)",
                ids.len()
            );
            assert_eq!(ids.len(), 3, "a1 + two committed, no 'doomed'");
        }
        other => panic!("unexpected value {other:?}"),
    }
    assert_eq!(recovered.used_count(), 1 + 1 + 3 * 3);
    assert!(!mbxq_storage::serialize::to_xml(&recovered)
        .unwrap()
        .contains("doomed"));
    println!("the torn transaction left no trace — atomicity held.");

    // Phase 3: checkpoint. The WAL would otherwise grow (and recovery
    // replay) without bound; `Shard::checkpoint` serializes the current
    // version into the log and truncates everything before it, and
    // recovery resumes from the checkpoint instead of genesis.
    {
        let wal = Wal::file(&wal_path).expect("reopen wal");
        let store = Shard::open(recovered, wal, StoreConfig::default());
        let info = store.checkpoint().expect("checkpoint");
        println!(
            "\ncheckpoint: {} nodes captured, WAL {} → {} bytes",
            info.nodes, info.wal_bytes_before, info.wal_bytes_after
        );
        // Keep committing after the checkpoint; delete an account that
        // only the checkpoint knows about (node ids are preserved).
        let mut t = store.begin();
        let gen0 = t
            .select(&XPath::parse("//account[@id='gen0']").unwrap())
            .unwrap();
        t.delete(gen0[0]).unwrap();
        t.commit().expect("post-checkpoint commit");
        println!(
            "occupancy after delete: {:.2} (vacuum below {:.2} in production)",
            store.occupancy(),
            0.5
        );
    }
    let wal_bytes = std::fs::read(&wal_path).expect("wal survives");
    let recovered = recover(CHECKPOINT, cfg, &wal_bytes).expect("recovery from checkpoint");
    mbxq_storage::invariants::check_paged(&recovered).expect("consistent after checkpoint");
    let xml = mbxq_storage::serialize::to_xml(&recovered).unwrap();
    assert!(!xml.contains("gen0") && xml.contains("gen1"));
    println!("recovery resumed from the checkpoint: {xml}");

    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_dir(&dir);
}
