//! Invariant violation finder / replayer with minimized repro artifacts
//! (DESIGN.md §12, EXPERIMENTS.md "Minimized repro artifacts").
//!
//! **Check mode** — explore a demo workload, check its invariants,
//! ddmin-shrink the first violation and (optionally) emit a
//! self-contained JSON repro artifact:
//!
//! ```text
//! cargo run -p sde-bench --release --bin repro -- \
//!     --demo token --faults all --check --emit bench_out/token.repro.json
//! ```
//!
//! Exits **1** when a violation was found (the artifact carries the
//! minimal witness), **0** when every invariant held (`--emit` then
//! writes an empty report), and **2** when the artifact cannot be
//! written — IO failures never surface as a panic's exit 101, the
//! 0/1/2 contract is total. `--fixed` runs the repaired token protocol;
//! `--demo persist` is the holding negative control.
//!
//! **Replay mode** — rebuild the scenario from an artifact, replay the
//! witness through the strict preset path and diff the violation digest:
//!
//! ```text
//! cargo run -p sde-bench --release --bin repro -- --replay bench_out/token.repro.json
//! ```
//!
//! Exits **0** iff the artifact reproduces the recorded violation with
//! the same digest, **2** otherwise — including every malformed
//! artifact (unknown algorithm, demo or fault axis, inconsistent
//! durations, an out-of-range witness `node`/`occurrence`): the artifact
//! is untrusted input, so none of these may surface as a panic's 101.
//!
//! The artifact is a JSON array of flat objects: a header (scenario
//! fingerprint, fault axes, durations, bug digest) followed by one
//! object per witness entry. `--workers N` parallelizes the exploration
//! phase only — minimization replays are serial, so artifacts are
//! byte-identical for any worker count.

use sde_bench::{demo_checker, demo_scenario, render_artifact, with_fault_axes, Args, FaultAxis};
use sde_core::check;
use sde_core::minimize::Minimizer;
use sde_core::oracle::Assignment;
use sde_core::{Algorithm, Engine, Scenario};
use sde_trace::{parse_flat_object, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn algorithm_of(name: &str) -> Option<Algorithm> {
    match name {
        "cob" => Some(Algorithm::Cob),
        "cow" => Some(Algorithm::Cow),
        "sds" => Some(Algorithm::Sds),
        _ => None,
    }
}

/// The demos [`demo_scenario`] knows.
const DEMOS: [&str; 2] = ["token", "persist"];

fn main() -> ExitCode {
    let args = Args::from_env();
    if let Some(path) = args.get::<String>("replay") {
        return replay(Path::new(&path));
    }
    checkrun(&args)
}

// ---------------------------------------------------------------------------
// check mode
// ---------------------------------------------------------------------------

fn checkrun(args: &Args) -> ExitCode {
    let demo: String = args.get("demo").unwrap_or_else(|| "token".to_string());
    let fixed = args.flag("fixed");
    let algorithm_name: String = args.get("algorithm").unwrap_or_else(|| "sds".to_string());
    let algorithm = algorithm_of(&algorithm_name)
        .unwrap_or_else(|| panic!("unknown algorithm {algorithm_name:?} (expected cob|cow|sds)"));
    let axes = FaultAxis::parse_list(
        &args
            .get::<String>("faults")
            .unwrap_or_else(|| "all".to_string()),
    );
    let workers: Option<usize> = args.get("workers");
    let emit: Option<String> = args.get("emit");

    let base = demo_scenario(&demo, fixed);
    let base_duration_ms = base.duration_ms;
    let scenario = with_fault_axes(base, &axes);
    let checker = demo_checker(&demo);

    println!(
        "repro: demo={demo} algorithm={algorithm_name} faults={} fixed={fixed} workers={}",
        FaultAxis::join(&axes),
        workers.unwrap_or(1),
    );

    let sink = std::sync::Arc::new(sde_trace::BufferSink::new());
    let mut engine = Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as std::sync::Arc<dyn sde_trace::TraceSink>);
    match workers {
        Some(w) if w > 1 => engine.run_sharded_in_place(w),
        _ => engine.run_in_place(),
    }
    let violations = checker.check(&engine);
    println!(
        "repro: {} states explored, {} invariant(s), {} violation(s)",
        engine.states().count(),
        checker.len(),
        violations.len(),
    );
    drop(engine);

    let mut violations = violations;
    if let Ok(lineage) = sde_trace::Lineage::from_events(sink.drain().iter()) {
        for v in &mut violations {
            v.fill_lineage(&lineage);
        }
    }
    let Some(found) = violations.into_iter().next() else {
        println!("repro: all invariants hold");
        if let Some(path) = emit {
            if let Err(e) = write_artifact(Path::new(&path), "[]\n") {
                eprintln!("repro: cannot write artifact {path}: {e}");
                return ExitCode::from(2);
            }
            println!("repro: empty report written to {path}");
        }
        return ExitCode::SUCCESS;
    };

    println!(
        "repro: BugReport {} — {} (nodes {:?}, {} witness entries, axes {:?}, \
         lineage depth {})",
        found.report.kind,
        found.report.message,
        found.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
        found.witness_entries(),
        found.active_axes,
        found.lineage.len(),
    );

    let seed: Assignment = found
        .preset
        .iter()
        .map(|(n, name, occ, v)| ((n, name.to_string(), occ), v))
        .collect();
    let minimizer = Minimizer::new(scenario, algorithm, checker, &found.invariant);
    let Some(report) = minimizer.minimize(&seed) else {
        eprintln!("repro: witness failed to stabilize into a concrete replay");
        return ExitCode::from(2);
    };
    println!(
        "repro: minimized {} -> {} (entries {} -> {}, axes {} -> {}, horizon {} -> {} ms, \
         {} shrink steps, {}% reduction)",
        report.initial_size(),
        report.final_size(),
        report.initial_entries,
        report.final_entries,
        report.initial_axes,
        report.final_axes,
        report.initial_duration_ms,
        report.final_duration_ms,
        report.shrink_steps,
        report.reduction_percent(),
    );
    let digest = report.violation.digest();
    println!("repro: minimal repro digest {digest:#018x}");

    if let Some(path) = emit {
        let artifact = render_artifact(
            &demo,
            fixed,
            &algorithm_name,
            base_duration_ms,
            &report,
            digest,
        );
        if let Err(e) = write_artifact(Path::new(&path), &artifact) {
            eprintln!("repro: cannot write artifact {path}: {e}");
            return ExitCode::from(2);
        }
        println!("repro: artifact written to {path}");
    }
    ExitCode::FAILURE
}

/// Writes the artifact, creating parent directories as needed. IO
/// errors flow back to the caller so they can land on exit code 2
/// (`expect` here would abort with the panic runtime's 101, outside
/// the documented 0/1/2 contract).
fn write_artifact(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

// ---------------------------------------------------------------------------
// replay mode
// ---------------------------------------------------------------------------

fn fail(msg: &str) -> ExitCode {
    eprintln!("repro: REPLAY FAILED — {msg}");
    ExitCode::from(2)
}

fn parse_hex(map: &BTreeMap<String, JsonValue>, key: &str) -> Option<u64> {
    let s = map.get(key)?.as_str()?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// [`FaultAxis::parse_list`] for untrusted input: an unknown axis is an
/// error, not a panic. The empty list means no faults.
fn parse_axes(list: &str) -> Result<Vec<FaultAxis>, String> {
    match list {
        "" => Ok(Vec::new()),
        "all" => Ok(FaultAxis::ALL.to_vec()),
        _ => list
            .split(',')
            .map(|name| {
                FaultAxis::ALL
                    .into_iter()
                    .find(|axis| axis.name() == name.trim())
                    .ok_or_else(|| format!("unknown fault axis {name:?}"))
            })
            .collect(),
    }
}

fn replay(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    // The artifact is a JSON array of flat objects, one per line.
    let objects: Vec<BTreeMap<String, JsonValue>> = match text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_flat_object(l.trim_end_matches(',')))
        .collect()
    {
        Ok(o) => o,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    let Some(header) = objects.first() else {
        println!("repro: empty artifact — nothing to replay");
        return ExitCode::SUCCESS;
    };
    let field = |key: &str| header.get(key).and_then(JsonValue::as_str);
    let int = |key: &str| header.get(key).and_then(JsonValue::as_int);
    let (Some(demo), Some(algorithm_name), Some(invariant)) =
        (field("demo"), field("algorithm"), field("invariant"))
    else {
        return fail("artifact header is missing demo/algorithm/invariant");
    };
    let fixed = header
        .get("fixed")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let (Some(base_duration_ms), Some(duration_ms)) = (int("base_duration_ms"), int("duration_ms"))
    else {
        return fail("artifact header is missing durations");
    };
    let (Some(expected_fingerprint), Some(expected_digest)) = (
        parse_hex(header, "fault_fingerprint"),
        parse_hex(header, "bug_digest"),
    ) else {
        return fail("artifact header is missing fingerprint/digest");
    };
    let Some(algorithm) = algorithm_of(algorithm_name) else {
        return fail(&format!(
            "unknown algorithm {algorithm_name:?} (expected cob|cow|sds)"
        ));
    };
    if !DEMOS.contains(&demo) {
        return fail(&format!("unknown demo {demo:?} (expected token|persist)"));
    }
    let axes = match parse_axes(field("faults").unwrap_or("")) {
        Ok(axes) => axes,
        Err(e) => return fail(&e),
    };
    // `check` mode writes the demo's own duration as the base and a
    // truncation of it as the horizon; anything else is not an artifact
    // this tool produced (and could ask for an unbounded replay).
    let demo_base = demo_scenario(demo, fixed);
    if base_duration_ms != demo_base.duration_ms || duration_ms > base_duration_ms {
        return fail(&format!(
            "artifact durations (base {base_duration_ms} ms, horizon {duration_ms} ms) \
             do not fit demo {demo:?} (base {} ms)",
            demo_base.duration_ms
        ));
    }

    // Rebuild the exact minimized scenario: faults are sized from the
    // *base* duration (the plan predates horizon truncation), the run
    // length is the truncated one.
    let scenario: Scenario = with_fault_axes(demo_base, &axes).with_duration_ms(duration_ms);
    if scenario.faults.fingerprint() != expected_fingerprint {
        return fail(&format!(
            "fault-plan fingerprint mismatch: artifact {expected_fingerprint:#018x}, \
             rebuilt {:#018x}",
            scenario.faults.fingerprint()
        ));
    }

    let mut assignment = Assignment::new();
    for obj in &objects[1..] {
        let (Some(node), Some(name), Some(occurrence), Some(value)) = (
            obj.get("node").and_then(JsonValue::as_int),
            obj.get("name").and_then(JsonValue::as_str),
            obj.get("occurrence").and_then(JsonValue::as_int),
            obj.get("value").and_then(JsonValue::as_int),
        ) else {
            return fail("malformed witness entry");
        };
        let Ok(node) = u16::try_from(node) else {
            return fail(&format!("witness node {node} is out of range (u16)"));
        };
        let Ok(occurrence) = u32::try_from(occurrence) else {
            return fail(&format!(
                "witness occurrence {occurrence} is out of range (u32)"
            ));
        };
        assignment.insert((node, name.to_string(), occurrence), value);
    }
    if assignment.len() != int("entries").unwrap_or(0) as usize {
        return fail("witness entry count does not match the header");
    }

    let checker = demo_checker(demo);
    match check::replay_violates(&scenario, algorithm, &checker, invariant, &assignment) {
        Some(violation) => {
            let digest = violation.digest();
            if digest == expected_digest {
                println!(
                    "repro: REPLAY OK — {invariant} violated again, digest {digest:#018x} matches"
                );
                ExitCode::SUCCESS
            } else {
                fail(&format!(
                    "digest mismatch: artifact {expected_digest:#018x}, replay {digest:#018x}"
                ))
            }
        }
        None => fail(&format!(
            "strict replay did not violate {invariant:?} (witness incomplete or stale artifact)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::write_artifact;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sde-repro-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_artifact_creates_parents_and_writes() {
        let dir = scratch("ok");
        let path = dir.join("nested").join("artifact.json");
        write_artifact(&path, "[]\n").expect("fresh temp path must be writable");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_artifact_surfaces_io_errors() {
        // A regular file where the parent directory should be: both the
        // create_dir_all and the write must fail as an Err, never panic.
        let blocker = scratch("blocked");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("artifact.json");
        assert!(
            write_artifact(&path, "[]\n").is_err(),
            "writing under a regular file must report the IO error"
        );
        std::fs::remove_file(&blocker).unwrap();
    }
}
