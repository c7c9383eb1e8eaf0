//! Every paper-artifact regenerator in `src/bin/` must exit cleanly
//! under `--json` and print one strict JSON document on stdout.

use std::process::Command;

/// `(name, executable)` for each listed bin; `env!` needs a literal name.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        &[$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

const BINS: &[(&str, &str)] = bins![
    "ablations",
    "all_experiments",
    "augmentation",
    "cluster_scaling",
    "energy_study",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10_11",
    "fig12_13",
    "measurement_levels",
    "rankings",
    "stability",
    "table1",
    "table2",
    "table4_5_6",
    "table7_8",
    "whatif_memory",
];

#[test]
fn every_bin_is_listed() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("file stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    let listed: Vec<&str> = BINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, stems, "BINS must name every file in src/bin, sorted");
}

#[test]
fn every_bin_emits_strict_json() {
    for (name, exe) in BINS {
        let out = Command::new(exe).arg("--json").output().expect("binary runs");
        assert!(
            out.status.success(),
            "{name} --json exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        if let Err(e) = serde_json::from_str(&stdout) {
            panic!("{name} --json printed invalid JSON: {e}");
        }
    }
}
