//! Parallel-execution conformance: fanning the scenario matrix and the
//! dead-angle sweep over a work pool must reproduce the serial results —
//! and the committed golden digests — byte-identically at 1, 2 and 4
//! workers.

use hdc_runtime::{ScheduleMode, WorkPool};
use hdc_sim::scenario::{golden_path, parse_manifest};
use hdc_sim::sweep::{dead_angle_sweep, dead_angle_sweep_with};
use hdc_sim::{build_matrix, run_matrix_mode, run_scenario_with};

#[test]
fn parallel_matrix_matches_serial_and_golden_at_every_worker_count() {
    let matrix = build_matrix();
    let serial: Vec<_> = matrix
        .iter()
        .map(|s| run_scenario_with(s, ScheduleMode::Lockstep))
        .collect();

    let committed = std::fs::read_to_string(golden_path())
        .expect("committed golden manifest (bless with run_scenarios --bless)");
    let golden = parse_manifest(&committed);

    for workers in [1usize, 2, 4] {
        let parallel = run_matrix_mode(&WorkPool::new(workers), &matrix, ScheduleMode::Lockstep);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.name, s.name, "{workers} workers: order must be preserved");
            assert_eq!(
                p.digest, s.digest,
                "{}: digest drifted at {workers} workers",
                p.name
            );
            assert_eq!(p.outcome, s.outcome, "{}", p.name);
            assert_eq!(p.grade, s.grade, "{}", p.name);
            assert_eq!(p.frames, s.frames, "{}", p.name);
            let (_, want_digest, _) = golden
                .iter()
                .find(|(n, _, _)| *n == p.name)
                .unwrap_or_else(|| panic!("{} missing from the golden manifest", p.name));
            assert_eq!(
                &p.digest, want_digest,
                "{}: parallel run drifted from the committed golden at {workers} workers",
                p.name
            );
        }
    }
}

#[test]
fn parallel_sweep_matches_serial_at_every_worker_count() {
    let serial = dead_angle_sweep(5);
    for workers in [1usize, 2, 4] {
        assert_eq!(
            dead_angle_sweep_with(&WorkPool::new(workers), 5),
            serial,
            "sweep drifted at {workers} workers"
        );
    }
}
