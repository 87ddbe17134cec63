//! Pins the bytes of every published table: a tiny `report` run must write
//! the same figures, tables, model and section CSVs as when these constants
//! were pinned, so a change that moves a number in `results/` fails here
//! instead of going unnoticed until the record run is repeated.
//!
//! The constants are CRC-32s (`routenet_core::checkpoint::crc32`) of the
//! files `report --scale 0.02 --epochs 1 --seed 1` writes. `summary.txt`
//! and `train-state.ckpt` hold wall-clock seconds and are left out. Debug
//! and release builds write the same bytes, but the run takes about 40 s
//! in debug against 3 s in release (2 cores), so the test runs in release
//! only (`scripts/check.sh` runs it there).

use routenet_core::checkpoint::crc32;
use std::path::PathBuf;
use std::process::Command;

const PINNED: &[(&str, u32)] = &[
    ("fig2.csv", 0x5a7e_3683),
    ("fig3.csv", 0xe5cb_58ac),
    ("fig4.csv", 0xd8d0_2d82),
    ("table1.txt", 0xc306_1932),
    ("training.csv", 0x3c1f_3779),
    ("model.json", 0xcfe1_3066),
    ("varsize.csv", 0x96c2_1d1f),
    ("ablation.csv", 0x0bb6_7105),
    ("drops.csv", 0xeacc_cf5b),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "40 s in debug; run with --release (scripts/check.sh does)"
)]
fn tiny_report_writes_the_pinned_bytes() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-pin");
    if out.exists() {
        std::fs::remove_dir_all(&out).unwrap();
    }
    let run = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--scale", "0.02", "--epochs", "1", "--seed", "1"])
        .arg("--no-telemetry")
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "report failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let moved: Vec<String> = PINNED
        .iter()
        .filter_map(|&(name, pinned)| {
            let got = crc32(&std::fs::read(out.join(name)).unwrap());
            (got != pinned).then(|| format!("{name}: {got:#010x}, pinned {pinned:#010x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "published bytes moved:\n{}",
        moved.join("\n")
    );
}
