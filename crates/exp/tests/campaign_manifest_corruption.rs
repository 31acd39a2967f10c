//! S3: every-byte corruption sweep over `campaign.json`.
//!
//! The campaign manifest is advisory — resume state lives in the
//! per-point journals — so the contract under corruption is:
//!
//! 1. Reading a corrupted manifest either still parses (the flipped byte
//!    landed somewhere harmless, e.g. inside a digit of a counter) or
//!    fails with a *typed* [`JournalError`] — never a panic.
//! 2. A resumed campaign invocation never consults the manifest, so no
//!    corruption (flip, truncation, zeroing, deletion) can silently
//!    reset progress: the resume recomputes zero cells.

use mps_core::journal::{JournalError, RunControl};
use mps_exp::campaign::{read_campaign_manifest, CampaignOpts};
use mps_exp::runner::Harness;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-camp-corrupt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &std::path::Path) -> CampaignOpts {
    CampaignOpts {
        dir: dir.to_path_buf(),
        points: 2,
        repeats: 1,
        workers: 1,
        subset: Some(1),
    }
}

#[test]
fn every_byte_flip_reads_typed_and_never_resets_progress() {
    let dir = scratch("flip");
    let h = Harness::new(7);
    let report = h
        .run_campaign(&opts(&dir), &RunControl::unlimited(), |_, _| {})
        .unwrap();
    assert_eq!(report.manifest.points_done, 2);
    let cells = report.manifest.cells;
    assert!(cells > 0);

    let path = dir.join("campaign.json");
    let pristine = std::fs::read(&path).unwrap();
    let baseline = read_campaign_manifest(&dir).unwrap().unwrap();
    assert_eq!(baseline.points_done, 2);
    assert_eq!(baseline.status, "complete");

    // Sweep: flip every bit position 0 of every byte, one at a time.
    for i in 0..pristine.len() {
        let mut damaged = pristine.clone();
        damaged[i] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        // Typed or fine — never a panic, never an untyped error.
        match read_campaign_manifest(&dir) {
            Ok(_) => {}
            Err(JournalError::Serde { .. }) | Err(JournalError::Io { .. }) => {}
            Err(other) => panic!("byte {i}: untyped failure class {other:?}"),
        }
    }

    // Resume under a representative set of corruptions: progress must
    // come from the journals, so nothing is recomputed even when the
    // manifest is garbage, truncated, zeroed, or gone.
    let corruptions: Vec<(&str, Option<Vec<u8>>)> = vec![
        ("flipped", {
            let mut d = pristine.clone();
            let mid = d.len() / 2;
            d[mid] ^= 0x01;
            Some(d)
        }),
        ("truncated", Some(pristine[..pristine.len() / 2].to_vec())),
        ("zeroed", Some(vec![0u8; pristine.len()])),
        ("empty", Some(Vec::new())),
        ("deleted", None),
    ];
    for (tag, bytes) in corruptions {
        match bytes {
            Some(b) => std::fs::write(&path, &b).unwrap(),
            None => {
                let _ = std::fs::remove_file(&path);
            }
        }
        let resumed = h
            .run_campaign(&opts(&dir), &RunControl::unlimited(), |_, _| {})
            .unwrap();
        assert_eq!(
            resumed.manifest.computed, 0,
            "{tag}: corruption must not reset progress"
        );
        assert_eq!(
            resumed.manifest.resumed, cells,
            "{tag}: every cell resumes from journals"
        );
        assert_eq!(resumed.manifest.points_done, 2, "{tag}");
        // The resume rewrites a pristine manifest. `resumed`/`computed`
        // record the writing invocation's provenance, so normalize them
        // before comparing against the fresh-run baseline.
        let healed = read_campaign_manifest(&dir).unwrap().unwrap();
        assert_eq!(healed.computed, 0, "{tag}");
        assert_eq!(
            mps_exp::campaign::CampaignManifest {
                resumed: baseline.resumed,
                computed: baseline.computed,
                ..healed
            },
            baseline,
            "{tag}: manifest self-heals on resume"
        );
    }
}

#[test]
fn a_wrong_schema_tag_is_a_typed_serde_error() {
    let dir = scratch("schema");
    let h = Harness::new(7);
    h.run_campaign(&opts(&dir), &RunControl::unlimited(), |_, _| {})
        .unwrap();
    let path = dir.join("campaign.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("mps-campaign/v1", "mps-campaign/v9")).unwrap();
    assert!(matches!(
        read_campaign_manifest(&dir),
        Err(JournalError::Serde { .. })
    ));
}
