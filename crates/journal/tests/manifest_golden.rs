//! Golden bytes of the journal manifest: `write_manifest` publishes the
//! `to_string_pretty` form of a [`Manifest`] plus a newline, and the
//! file must stay byte-identical so that operators' tooling and older
//! readers keep parsing it. The golden holds one complete and one
//! interrupted manifest, each exactly as written to disk.

use mps_journal::{manifest_path, write_manifest, Manifest, MANIFEST_FORMAT_V1};

const GOLDEN: &str = include_str!("golden/manifest_pretty.json");

fn manifest(status: &str, records: u64, quarantined: u64) -> Manifest {
    Manifest {
        format: MANIFEST_FORMAT_V1.to_string(),
        campaign: "grid-seed-7 \"quoted\"".to_string(),
        records,
        expected: 324,
        status: status.to_string(),
        quarantined,
    }
}

#[test]
fn written_manifests_match_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("mps-manifest-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jl");
    let mut actual = String::new();
    for m in [manifest("complete", 324, 0), manifest("interrupted", 17, 2)] {
        write_manifest(&journal, &m).unwrap();
        let written = std::fs::read_to_string(manifest_path(&journal)).unwrap();
        let back: Manifest = serde_json::from_str(&written).unwrap();
        assert_eq!(back, m);
        actual.push_str(&written);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(actual, GOLDEN);
}
