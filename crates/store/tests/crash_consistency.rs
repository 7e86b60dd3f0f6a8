//! Crash consistency: a store whose files were torn mid-write reopens
//! cleanly, recovering exactly to the last complete batch.
//!
//! The tests simulate crashes the way fault-injection harnesses do:
//! write a store, close it, then damage the files directly — truncating
//! a segment mid-record, flipping payload bytes, tearing the sidecar —
//! and assert that `Store::open` (a) succeeds, (b) reports what it did,
//! and (c) serves exactly the records of every intact batch afterwards.

use dasr_core::obs::{EventKind, RunEvent};
use dasr_store::crc::crc32;
use dasr_store::index::SegmentIndex;
use dasr_store::{segment, RecordPayload, RunId, RunMeta, Store, WriterConfig};
use std::path::PathBuf;

const BATCH: usize = 4;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> WriterConfig {
    WriterConfig {
        batch_records: BATCH,
        // Large bound: keep everything in one segment so the tests can
        // reason about a single file.
        segment_max_bytes: 64 * 1024 * 1024,
    }
}

fn event(interval: u64) -> RecordPayload {
    RecordPayload::Event(RunEvent {
        tenant: Some(interval % 3),
        interval,
        kind: EventKind::IntervalStart,
    })
}

/// Writes `n` events under one committed run and closes the store.
fn write_store(dir: &PathBuf, n: u64) -> RunId {
    let mut store = Store::open_with(dir, small_cfg()).expect("open");
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
    for i in 0..n {
        store.append(run, event(i)).expect("append");
    }
    store.end_run(run).expect("commit");
    store.close().expect("close");
    run
}

#[test]
fn truncation_mid_record_recovers_to_the_last_complete_batch() {
    // 10 records, batches of 4 -> batches of 4, 4, 2.
    let dir = fresh_dir("truncate");
    let run = write_store(&dir, 10);
    let seg = dir.join(segment::file_name(0));
    let full = std::fs::read(&seg).expect("read segment");

    // Cut at every byte position inside the final batch (which holds
    // records 8 and 9): recovery must always land on exactly 8
    // records.
    let scan = segment::scan(&full).expect("clean scan");
    assert_eq!(scan.batches.len(), 3);
    let last_start = scan.batches[2].offset as usize;
    for cut in [last_start + 1, last_start + 9, full.len() - 1] {
        std::fs::write(&seg, &full[..cut]).expect("tear");
        let store = Store::open_with(&dir, small_cfg()).expect("recovers");
        assert!(
            store
                .recovery_notes()
                .iter()
                .any(|n| n.segment == Some(0) && n.detail.contains("truncated")),
            "cut at {cut}: notes = {:?}",
            store.recovery_notes()
        );
        let records = store.run_records(run).expect("query");
        assert_eq!(records.len(), 8, "cut at {cut}: last complete batch");
        let intervals: Vec<u64> = records.iter().map(|r| r.interval()).collect();
        assert_eq!(intervals, (0..8).collect::<Vec<_>>());
        store.close().expect("close");
    }

    // After recovery the file ends on a batch boundary: reopening
    // again is clean, and appending continues from there.
    let mut store = Store::open_with(&dir, small_cfg()).expect("reopen");
    assert!(store.recovery_notes().is_empty(), "already recovered");
    let run2 = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 2));
    assert!(run2.0 > run.0);
    store
        .append(run2, event(100))
        .expect("append after recovery");
    store.end_run(run2).expect("commit");
    assert_eq!(store.run_records(run2).expect("query").len(), 1);
    assert_eq!(store.run_records(run).expect("query").len(), 8);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_batch_payload_is_cut_away_by_crc() {
    let dir = fresh_dir("corrupt");
    let run = write_store(&dir, 10);
    let seg = dir.join(segment::file_name(0));
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let scan = segment::scan(&bytes).expect("clean scan");
    // Flip one payload bit in the middle batch: it and everything
    // after it are gone; the first batch survives.
    let mid = scan.batches[1].offset as usize + 8 + 5;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).expect("corrupt");

    let store = Store::open_with(&dir, small_cfg()).expect("recovers");
    assert!(
        store
            .recovery_notes()
            .iter()
            .any(|n| n.detail.contains("CRC")),
        "notes: {:?}",
        store.recovery_notes()
    );
    let records = store.run_records(run).expect("query");
    assert_eq!(records.len(), BATCH, "only the first batch survives");
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stale_or_torn_sidecars_are_rebuilt_from_the_segment() {
    let dir = fresh_dir("sidecar");
    let run = write_store(&dir, 10);
    let idx_path = dir.join(SegmentIndex::file_name(0));
    let good = std::fs::read(&idx_path).expect("sidecar exists");

    // Torn sidecar bytes: recovery rebuilds (the sidecar is a cache).
    std::fs::write(&idx_path, &good[..good.len() / 2]).expect("tear sidecar");
    let store = Store::open_with(&dir, small_cfg()).expect("recovers");
    assert_eq!(store.run_records(run).expect("query").len(), 10);
    store.close().expect("close");
    // Closing refreshed the active segment's sidecar; it parses
    // again.
    let repaired = std::fs::read(&idx_path).expect("sidecar rewritten");
    let parsed = SegmentIndex::from_bytes(&repaired).expect("parses");
    assert_eq!(parsed.records(), 10);

    // Missing sidecar entirely: same outcome.
    std::fs::remove_file(&idx_path).expect("drop sidecar");
    let store = Store::open_with(&dir, small_cfg()).expect("recovers");
    assert_eq!(store.run_records(run).expect("query").len(), 10);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn torn_header_of_a_fresh_segment_is_rewritten() {
    let dir = fresh_dir("header");
    let run = write_store(&dir, 6);
    // Simulate a crash during the *next* segment's creation: a
    // second segment file exists but only part of its header made it
    // to disk.
    let seg1 = dir.join(segment::file_name(1));
    std::fs::write(&seg1, &segment::header_bytes(1)[..7]).expect("torn header");

    let mut store = Store::open_with(&dir, small_cfg()).expect("recovers");
    assert!(
        store
            .recovery_notes()
            .iter()
            .any(|n| n.segment == Some(1) && n.detail.contains("header")),
        "notes: {:?}",
        store.recovery_notes()
    );
    // Old data intact, and the repaired segment accepts appends.
    assert_eq!(store.run_records(run).expect("query").len(), 6);
    let run2 = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 9));
    store.append(run2, event(0)).expect("append");
    store.end_run(run2).expect("commit");
    assert_eq!(store.run_records(run2).expect("query").len(), 1);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A v2 batch whose payload is cut mid-varint *with the framing patched
/// to look intact* (length and CRC recomputed) is not a torn tail — it
/// is unexplainable damage, and recovery must refuse the store rather
/// than serve a half-decoded batch.
#[test]
fn crc_valid_truncated_varint_payload_is_reported_as_corrupt() {
    let dir = fresh_dir("varint");
    write_store(&dir, 10);
    let seg = dir.join(segment::file_name(0));
    let full = std::fs::read(&seg).expect("read segment");
    let scan = segment::scan(&full).expect("clean scan");

    // Rebuild the final batch with its payload shortened by one byte —
    // cutting the last record's trailing varint — and a *recomputed*
    // CRC, so the framing layer sees a perfectly healthy batch.
    let last = scan.batches[2].offset as usize;
    let n_records = &full[last..last + 4];
    let payload_len = u32::from_le_bytes([
        full[last + 4],
        full[last + 5],
        full[last + 6],
        full[last + 7],
    ]) as usize;
    let cut_payload = &full[last + 8..last + 8 + payload_len - 1];
    let mut forged = full[..last].to_vec();
    forged.extend_from_slice(n_records);
    forged.extend_from_slice(&(cut_payload.len() as u32).to_le_bytes());
    forged.extend_from_slice(cut_payload);
    forged.extend_from_slice(&crc32(cut_payload).to_le_bytes());
    std::fs::write(&seg, &forged).expect("forge");

    // The sidecar rebuild decodes every batch; the mid-varint cut
    // surfaces as corruption, not as data loss silently absorbed.
    std::fs::remove_file(dir.join(SegmentIndex::file_name(0))).expect("drop sidecar");
    let err = match Store::open_with(&dir, small_cfg()) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("forged truncated-varint batch must not open"),
    };
    assert!(
        err.contains("corrupt"),
        "expected a corruption report, got: {err}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A sidecar is trusted on its CRC, id and length, but a CRC only says
/// the bytes are the ones somebody wrote. Swapping two entries' offsets
/// and re-encoding leaves all three checks green while making frame
/// lengths (next offset − this offset) negative: the sidecar must be
/// refused and rebuilt from the segment, not followed into an
/// out-of-range read.
#[test]
fn crc_valid_sidecar_with_swapped_offsets_is_rebuilt() {
    let dir = fresh_dir("hostile-sidecar");
    let cfg = WriterConfig {
        batch_records: BATCH,
        // Small bound: segment 0 seals, so its sidecar is the trusted kind.
        segment_max_bytes: 128,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
    for i in 0..40 {
        store.append(run, event(i)).expect("append");
    }
    store.end_run(run).expect("commit");
    store.close().expect("close");

    let idx_path = dir.join(SegmentIndex::file_name(0));
    let mut idx = SegmentIndex::from_bytes(&std::fs::read(&idx_path).expect("sidecar"))
        .expect("honest sidecar parses");
    assert!(idx.entries.len() >= 2, "segment 0 holds several batches");
    let (a, b) = (idx.entries[0].offset, idx.entries[1].offset);
    idx.entries[0].offset = b;
    idx.entries[1].offset = a;
    std::fs::write(&idx_path, idx.to_bytes()).expect("plant hostile sidecar");

    let store = Store::open_with(&dir, cfg).expect("opens");
    assert!(
        store
            .recovery_notes()
            .iter()
            .any(|n| n.segment == Some(0) && n.detail.contains("rebuilt")),
        "notes: {:?}",
        store.recovery_notes()
    );
    let intervals: Vec<u64> = store
        .scan_range(0..u64::MAX)
        .expect("scan")
        .iter()
        .map(|r| r.interval())
        .collect();
    assert_eq!(intervals, (0..40).collect::<Vec<_>>());
    store.close().expect("close");
    // The rebuild repaired the file: the next open trusts it again.
    let store = Store::open_with(&dir, cfg).expect("reopen");
    assert!(store.recovery_notes().is_empty());
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
