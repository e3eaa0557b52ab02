//! Durability demonstration (§3.2): commit through a file-backed WAL,
//! crash at an arbitrary byte position mid-commit, recover, restart and
//! commit again, and recover once more.
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

    // Phase 1: run transactions against a file-backed WAL; the fourth
    // one crashes mid-append (injected).
    let committed = {
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

        // An XUpdate that replaces an element's content with a text node
        // and appends two adjacent text nodes: each insert is logged as a
        // tuple-stream fragment, and recovery must stage back exactly the
        // tuples (and node ids) the live commit did.
        let mut t = store.begin();
        let mods = mbxq::parse_modifications(
            "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:update select=\"//account[@id='a1']/balance\">75</xupdate:update>\
             <xupdate:append select=\"//account[@id='a1']\"><note>\
             <xupdate:text>paid </xupdate:text><xupdate:text>in full</xupdate:text>\
             </note></xupdate:append></xupdate:modifications>",
        )
        .unwrap();
        t.execute_xupdate(&mods).unwrap();
        t.commit().expect("commit lands in the WAL");
        println!("txn 3 committed (a content update and two adjacent texts)");
        let committed = store.snapshot().checkpoint_dump();

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
            Err(e) => println!("txn 4 crashed during the commit I/O: {e}"),
            Ok(_) => unreachable!("crash was injected"),
        }
        // Process "dies" here; the torn record sits in the file.
        committed
    };

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
    // Ledger, accounts, three accounts with a balance and its text, and
    // the note with its two text nodes.
    assert_eq!(recovered.used_count(), 1 + 1 + 3 * 3 + 3);
    assert_eq!(
        recovered.checkpoint_dump(),
        committed,
        "recovered tuple for tuple, node ids included"
    );
    assert!(!mbxq_storage::serialize::to_xml(&recovered)
        .unwrap()
        .contains("doomed"));
    println!("the torn transaction left no trace — atomicity held.");

    // Phase 2b: restart and keep committing. Reopening the log cuts the
    // torn record off, so the next commit lands right behind the last
    // complete one — not behind bytes the next recovery would stop at.
    let torn_len = wal_bytes.len();
    let recovered = {
        let wal = Wal::file(&wal_path).expect("reopen wal");
        println!(
            "\nreopened: {} torn bytes cut, appending at byte {}",
            torn_len - wal.len_bytes(),
            wal.len_bytes()
        );
        assert!(wal.len_bytes() < torn_len, "the torn tail is gone");
        let store = Shard::open(recovered, wal, StoreConfig::default());
        let mut t = store.begin();
        let accounts = t
            .select(&XPath::parse("/ledger/accounts").unwrap())
            .unwrap();
        let frag = Document::parse_fragment("<account id=\"after\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(accounts[0]), &frag)
            .unwrap();
        t.commit().expect("commit after the restart");
        println!("txn 5 committed after the restart");
        store.into_parts().0
    };
    let wal_bytes = std::fs::read(&wal_path).expect("wal survives");
    let again = recover(CHECKPOINT, cfg, &wal_bytes).expect("second recovery");
    assert_eq!(
        mbxq_storage::serialize::to_xml(&again).unwrap(),
        mbxq_storage::serialize::to_xml(&recovered).unwrap(),
        "the commit acknowledged after the restart survives the next one"
    );
    println!("a second restart recovers txn 5 too.");

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
    assert!(!xml.contains("gen0") && xml.contains("gen1") && xml.contains("after"));
    println!("recovery resumed from the checkpoint: {xml}");

    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_dir(&dir);
}
