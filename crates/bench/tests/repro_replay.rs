//! `repro --replay` keeps its total 0/1/2 exit contract on malformed
//! artifacts: every header field it rebuilds the scenario from is
//! validated, witness entries are range-checked, and no line-level
//! corruption of a real artifact may surface as a panic's exit 101.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sde-repro-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir must be writable");
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary must start")
}

/// The seeded token bug's minimized artifact, emitted once by the real
/// `check` mode (which exits 1: a violation was found).
fn artifact() -> &'static str {
    static ARTIFACT: OnceLock<String> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let path = scratch_dir().join("token.repro.json");
        let out = repro(&[
            "--demo",
            "token",
            "--faults",
            "all",
            "--emit",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(out.status.code(), Some(1), "check mode must find the bug");
        std::fs::read_to_string(&path).expect("artifact written")
    })
}

/// Writes `text` to a fresh file and replays it.
fn replay_text(name: &str, text: &str) -> Output {
    let path = scratch_dir().join(name);
    std::fs::write(&path, text).expect("temp file must be writable");
    let out = replay(&path);
    let _ = std::fs::remove_file(&path);
    out
}

fn replay(path: &Path) -> Output {
    repro(&["--replay", path.to_str().expect("utf-8 temp path")])
}

/// Replaces the one occurrence of `from` in the artifact with `to`.
fn edited(from: &str, to: &str) -> String {
    let text = artifact();
    assert_eq!(text.matches(from).count(), 1, "{from:?} in {text}");
    text.replace(from, to)
}

fn assert_exit_2(name: &str, text: &str, message: &str) {
    let out = replay_text(name, text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(stderr.contains(message), "{name}: {stderr}");
}

#[test]
fn real_artifact_replays() {
    let out = replay_text("intact.json", artifact());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REPLAY OK"));
}

#[test]
fn unknown_algorithm_exits_2() {
    let text = edited("\"algorithm\": \"sds\"", "\"algorithm\": \"dfs\"");
    assert_exit_2("algorithm.json", &text, "unknown algorithm \"dfs\"");
}

#[test]
fn unknown_demo_exits_2() {
    let text = edited("\"demo\": \"token\"", "\"demo\": \"tokens\"");
    assert_exit_2("demo.json", &text, "unknown demo \"tokens\"");
}

#[test]
fn unknown_fault_axis_exits_2() {
    let text = edited("\"faults\": \"", "\"faults\": \"meteor,");
    assert_exit_2("faults.json", &text, "unknown fault axis \"meteor\"");
}

#[test]
fn out_of_range_node_exits_2() {
    // 65536 used to truncate to node 0 and replay "OK".
    let text = edited("\"node\": 0", "\"node\": 65536");
    assert_exit_2("node.json", &text, "witness node 65536 is out of range");
}

#[test]
fn out_of_range_occurrence_exits_2() {
    let text = edited("\"occurrence\": 0", "\"occurrence\": 4294967296");
    assert_exit_2(
        "occurrence.json",
        &text,
        "witness occurrence 4294967296 is out of range",
    );
}

/// Characters likely to break a flat-JSON line in interesting ways.
const NOISE: &[&str] = &[
    "{", "}", "\"", ",", ":", " ", "0", "9", "-", "x", "\\", "é", "65536", "",
];

/// Replacement digit runs: small, at and past the u32/u64 limits.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "4294967295",
    "18446744073709551615",
    "99999999999999999999",
];

/// One line-level mutation of `lines`, chosen by `op` and positioned by
/// `a`/`b`.
fn mutate(lines: &mut Vec<String>, op: u8, a: u64, b: u64) {
    let i = (a % lines.len() as u64) as usize;
    let j = (b % lines.len() as u64) as usize;
    match op {
        0 => {
            lines.remove(i);
        }
        1 => {
            let line = lines[i].clone();
            lines.insert(j, line);
        }
        2 => lines.swap(i, j),
        3 => {
            let cut = (b % (lines[i].len() as u64 + 1)) as usize;
            lines[i].truncate(cut);
        }
        4 => {
            // The artifact is ASCII, so every byte offset is a boundary.
            let line = &mut lines[i];
            let at = (b % (line.len() as u64 + 1)) as usize;
            let end = (at + 1).min(line.len());
            let noise = NOISE[(b >> 32) as usize % NOISE.len()];
            line.replace_range(at..end, noise);
        }
        _ => {
            // Rewrite the first digit run at or after a position.
            let line = &mut lines[i];
            let from = (b % (line.len() as u64 + 1)) as usize;
            if let Some(start) = line[from..].find(|c: char| c.is_ascii_digit()) {
                let start = from + start;
                let len = line[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(line.len() - start);
                let number = NUMBERS[(b >> 40) as usize % NUMBERS.len()];
                line.replace_range(start..start + len, number);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deleted, duplicated, swapped, truncated, noised or re-numbered
    /// lines: replay either still succeeds or fails with exit 2.
    #[test]
    fn mutated_artifacts_exit_0_or_2(op in 0u8..6, a in any::<u64>(), b in any::<u64>()) {
        let mut lines: Vec<String> = artifact().lines().map(str::to_string).collect();
        mutate(&mut lines, op, a, b);
        let out = replay_text(&format!("mutant-{op}-{a:x}-{b:x}.json"), &lines.join("\n"));
        let code = out.status.code();
        prop_assert!(
            matches!(code, Some(0) | Some(2)),
            "exit {:?} for\n{}\nstderr: {}",
            code,
            lines.join("\n"),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
