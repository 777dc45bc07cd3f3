//! Crash-safe persistence of supervisor checkpoints.
//!
//! A checkpoint file is the monitor's own rejuvenation insurance: the
//! detectors only assure performance if *their* state survives a
//! monitor restart, so the file on disk must never be observable in a
//! half-written state. [`save_snapshot`] writes the JSON to a sibling
//! temporary file, syncs it to stable storage, and atomically renames
//! it over the target — a crash (or `SIGTERM`) at any instant leaves
//! either the previous complete checkpoint or the new complete
//! checkpoint, never a torn one. [`load_snapshot`] reads a file written
//! that way and validates it parses as a [`SupervisorSnapshot`];
//! topology and version validation happen in
//! [`crate::Supervisor::restore`].
//!
//! Since format v2 the snapshot carries one
//! [`rejuv_core::DetectorSpec`] per shard (when the supervisor was
//! built from a fleet config), so a checkpoint file records the full
//! fleet topology and restore rejects per-shard kind *and* knob drift.

use crate::assurance::failpoints::fp;
use crate::supervisor::SupervisorSnapshot;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The sibling temporary path `save_snapshot` stages through:
/// `<file>.tmp` in the same directory, so the final rename never
/// crosses a filesystem boundary (cross-device renames are not atomic).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically persists a checkpoint as pretty-printed JSON.
///
/// Write-temp-then-rename: the bytes are fully written and fsynced to
/// `<path>.tmp` before the rename publishes them, so a reader (or a
/// resuming monitor) can never observe a partially written checkpoint
/// at `path`.
///
/// # Errors
///
/// Propagates file creation, write, sync and rename failures; on error
/// the previous checkpoint at `path`, if any, is left untouched.
pub fn save_snapshot(path: &Path, snapshot: &SupervisorSnapshot) -> io::Result<()> {
    let text = serde_json::to_string_pretty(snapshot)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let staging = staging_path(path);
    let mut file = File::create(&staging)?;
    fp!("checkpoint.staging-created");
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")?;
    fp!("checkpoint.written-unsynced");
    // Data must be durable *before* the rename makes it the checkpoint:
    // rename-then-crash with unsynced data could publish a hollow file.
    file.sync_all()?;
    drop(file);
    fp!("checkpoint.synced");
    std::fs::rename(&staging, path)?;
    fp!("checkpoint.renamed");
    Ok(())
}

/// Loads a checkpoint written by [`save_snapshot`].
///
/// Any `<path>.tmp` staging leftover from a crash mid-save is ignored —
/// only the atomically published file is ever read.
///
/// # Errors
///
/// Propagates open/read failures; `InvalidData` if the file does not
/// parse as a [`SupervisorSnapshot`].
pub fn load_snapshot(path: &Path) -> io::Result<SupervisorSnapshot> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::tests::sraa;
    use crate::supervisor::{Supervisor, SupervisorConfig};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rejuv-checkpoint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("ckpt.json");
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 2]).unwrap();
        for i in 0..25 {
            sup.process_sync(i % 2, 40.0).unwrap();
        }
        let snap = sup.snapshot();
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        assert!(
            !staging_path(&path).exists(),
            "staging file is consumed by the rename"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_never_exposes_a_torn_checkpoint() {
        let dir = scratch_dir("torn");
        let path = dir.join("ckpt.json");
        let sup = Supervisor::with_specs(SupervisorConfig::default(), &[sraa()]).unwrap();
        let old = sup.snapshot();
        save_snapshot(&path, &old).unwrap();

        // Simulate a crash that died after partially writing the
        // staging file but before the rename: the published checkpoint
        // must still be the old, complete one.
        std::fs::write(staging_path(&path), b"{\"version\":1,\"shar").unwrap();
        assert_eq!(
            load_snapshot(&path).unwrap(),
            old,
            "a torn staging file is never observed through the real path"
        );

        // And the next successful save simply replaces the leftovers.
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &[sraa()]).unwrap();
        sup.process_sync(0, 60.0).unwrap();
        let new = sup.snapshot();
        save_snapshot(&path, &new).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), new);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_a_mid_json_truncation_and_restore_stays_untouched() {
        let dir = scratch_dir("midcut");
        let path = dir.join("ckpt.json");
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 2]).unwrap();
        for i in 0..40 {
            sup.process_sync(i % 2, 45.0).unwrap();
        }
        save_snapshot(&path, &sup.snapshot()).unwrap();

        // Cut the published file mid-JSON (a torn copy, an interrupted
        // download, a filesystem that lied about durability).
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("ckpt.json"),
            "diagnostic names the offending file: {err}"
        );

        // A supervisor asked to resume from the torn file must be left
        // exactly as it was — the load already failed, so nothing is
        // ever handed to restore.
        let fresh = Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 2]).unwrap();
        let before = serde_json::to_string(&fresh.report()).unwrap();
        assert!(load_snapshot(&path).is_err());
        assert_eq!(serde_json::to_string(&fresh.report()).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_trailing_garbage() {
        let dir = scratch_dir("trailing");
        let path = dir.join("ckpt.json");
        let sup = Supervisor::with_specs(SupervisorConfig::default(), &[sraa()]).unwrap();
        save_snapshot(&path, &sup.snapshot()).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"}} trailing junk");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = scratch_dir("garbage");
        let path = dir.join("ckpt.json");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
