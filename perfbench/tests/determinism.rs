//! Determinism guard: at reduced size, two runs with one seed give
//! identical plan-only counts, every answer matches the oracle, and a
//! second seed changes the inputs. A mismatch here is a defect in the
//! engine or the benchmark, not noise.

use std::path::PathBuf;

use iva_perfbench::{inputs, run, Report, RunConfig, Size, Workload};

/// Plan-only counts of a traced run.
const TRACED_COUNTS: [&str; 4] = [
    "core.tuples_scanned",
    "core.table_accesses",
    "lsm.seals",
    "lsm.merges",
];

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        trace,
        size: if trace {
            Size::reduced(workload).for_trace()
        } else {
            Size::reduced(workload)
        },
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism"),
    }
}

fn checked_run(cfg: &RunConfig) -> Report {
    let report = run(cfg).expect("run completes");
    assert!(report.attempted > 0);
    assert_eq!(
        report.failed, 0,
        "{:?}: answers differ from the oracle",
        cfg.workload
    );
    report
}

fn counts(report: &Report, names: &[&str]) -> Vec<(String, u64)> {
    names
        .iter()
        .map(|&n| {
            let v = report.get(n).unwrap_or_else(|| panic!("{n} missing"));
            (n.to_string(), v.to_bits())
        })
        .collect()
}

fn assert_repeats(workload: Workload) {
    let traced = |seed| checked_run(&config(workload, seed, true));
    let mut names = TRACED_COUNTS.to_vec();
    names.push("storage.write_amp");
    assert_eq!(counts(&traced(7), &names), counts(&traced(7), &names));

    let timed = |seed| checked_run(&config(workload, seed, false));
    let stored = ["stored_bytes_per_user_byte"];
    assert_eq!(counts(&timed(7), &stored), counts(&timed(7), &stored));
}

#[test]
fn table1_warm_counts_repeat() {
    assert_repeats(Workload::Table1Warm);
}

#[test]
fn post_and_search_counts_repeat() {
    assert_repeats(Workload::PostAndSearch);
    let r = checked_run(&config(Workload::PostAndSearch, 7, true));
    assert!(
        r.get("lsm.seals").unwrap() >= 2.0,
        "the reduced run must seal"
    );
}

#[test]
fn seed_changes_inputs() {
    let size = Size::reduced(Workload::PostAndSearch);
    let a = inputs::generate(&size, 7);
    let b = inputs::generate(&size, 8);
    assert_eq!(a.queries.len(), b.queries.len());
    assert_ne!(a.queries, b.queries);
    assert_ne!(a.writes, b.writes);
    let again = inputs::generate(&size, 7);
    assert_eq!(a.queries, again.queries);
    assert_eq!(a.writes, again.writes);
}
