//! The store's two durability protocols through its public API: a line
//! log's committed prefix survives a torn tail, and an atomic publish
//! leaves the old or the new content, never a mix, whichever storage op
//! a crash lands on.

use flaml_store::{
    atomic_write_file, disk, read_log, sweep_stale_tmps, ChaosStorage, CommittedLog, DiskStorage,
    IoFaultPlan, LineLog, LogReadError, Storage, StorageError,
};
use std::io::Write;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flaml-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Header `h<n>`, records `r<n>`; any other line is damage.
fn read(path: &Path) -> Result<CommittedLog<u32, u32>, LogReadError> {
    read_log(
        &DiskStorage,
        path,
        |line| {
            line.strip_prefix('h')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("bad header {line:?}"))
        },
        |line| line.strip_prefix('r').and_then(|n| n.parse().ok()),
    )
}

fn append_raw(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(bytes).unwrap();
}

#[test]
fn a_torn_tail_ends_the_committed_prefix_and_resume_drops_it() {
    let dir = scratch("log");
    let path = dir.join("log.jsonl");
    let mut log = LineLog::create(&DiskStorage, &path, "h7").unwrap();
    log.append("r1").unwrap();
    log.append("r2").unwrap();
    let committed = log.committed_len();
    drop(log);
    assert_eq!(committed, b"h7\nr1\nr2\n".len() as u64);

    // A record cut off before its newline is not committed.
    append_raw(&path, b"r3");
    let read_back = read(&path).unwrap();
    assert_eq!(
        (read_back.header, read_back.records.as_slice()),
        (7, &[1, 2][..])
    );
    assert_eq!(read_back.committed_bytes, committed);

    // Resuming truncates the torn bytes away before appending.
    let mut log = LineLog::resume(&DiskStorage, &path, read_back.committed_bytes).unwrap();
    log.append("r4").unwrap();
    drop(log);
    assert_eq!(read(&path).unwrap().records, [1, 2, 4]);
    assert_eq!(std::fs::read(&path).unwrap(), b"h7\nr1\nr2\nr4\n");

    // A complete line the parser refuses ends the prefix too: nothing
    // after the first damage is trusted.
    append_raw(&path, b"garbage\nr5\n");
    assert_eq!(read(&path).unwrap().records, [1, 2, 4]);

    // Without a complete first line there is no log at all.
    let headless = dir.join("headless.jsonl");
    std::fs::write(&headless, b"h7").unwrap();
    assert!(matches!(read(&headless), Err(LogReadError::NoHeader)));
    std::fs::write(&headless, b"x\nr1\n").unwrap();
    assert!(matches!(read(&headless), Err(LogReadError::BadHeader(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_atomic_write_leaves_old_or_new_content_after_a_crash_at_every_op() {
    let dir = scratch("atomic");
    let path = dir.join("out.json");
    let (old, new) = (&b"old content"[..], &b"new content, longer"[..]);
    let (mut crash_points, mut saw_new, mut saw_temp) = (0, false, false);
    for k in 0.. {
        std::fs::write(&path, old).unwrap();
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(1).crash_at(k));
        let result = atomic_write_file(&chaos, &path, new);
        if !chaos.crashed() {
            // Past the last op: the publish ran clean.
            result.unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), new);
            break;
        }
        crash_points += 1;
        assert!(
            matches!(result, Err(StorageError::Crashed { .. })),
            "op {k}: {result:?}"
        );
        let content = std::fs::read(&path).unwrap();
        assert!(
            content == old || content == new,
            "op {k}: a torn file under the final name: {content:?}"
        );
        saw_new |= content == new;

        // Recovery's sweep removes whatever temp the crash left behind.
        saw_temp |= DiskStorage.scan(&dir).unwrap().len() > 1;
        sweep_stale_tmps(&DiskStorage, &dir).unwrap();
        assert_eq!(
            DiskStorage.scan(&dir).unwrap(),
            std::slice::from_ref(&path),
            "op {k}"
        );
    }
    // create, write, sync, rename, sync the directory.
    assert_eq!(crash_points, 5);
    assert!(
        saw_new && saw_temp,
        "new content {saw_new}, a temp {saw_temp}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
