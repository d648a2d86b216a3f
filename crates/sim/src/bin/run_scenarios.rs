//! Scenario-matrix entry point (the CI `scenarios` job).
//!
//! Runs the full committed matrix plus the orchard-mission cases and the
//! dead-angle recognition sweep, writes `RESULTS_scenarios.json` at the
//! repo root, and compares every trace digest against the golden manifest
//! in `tests/golden/scenario_digests.txt`. The file holds only
//! host-independent results, so a run at any `--threads` reproduces it
//! byte for byte; the thread count and the host's parallelism are printed.
//!
//! * `--threads N` sizes the work pool the matrix and sweep fan out over
//!   (default: available parallelism). Scenarios are seed-deterministic and
//!   independent, so every thread count reproduces the same digests — the
//!   CI `scenarios` job runs with `--threads 2` to prove it;
//! * `--bless` rewrites the golden manifest from the current run (do this
//!   only after reviewing the behavioural diff);
//! * `--smoke` runs only the cohort robustness floor: the cohort scenario
//!   rows across a relay/link drop ladder up to 45%, in both scheduler
//!   modes, asserting every case stays Pass or Degrade (never Fail);
//! * any invariant failure or unblessed digest drift exits non-zero.

use hdc_core::CohortConfig;
use hdc_geometry::azimuth::{in_dead_angle_deg, DEAD_ANGLE_CENTER_RAD};
use hdc_runtime::{available_workers, threads_from_args, ScheduleMode, WorkPool};
use hdc_sim::cohort_loss_sweep_with;
use hdc_sim::scenario::{format_manifest, golden_event_path, golden_path, parse_manifest};
use hdc_sim::sweep::{cohort_fusion_sweep_with, dead_angle_sweep_with, link_loss_sweep_with};
use hdc_sim::{
    build_matrix, linked_fleet_cases_mode, mission_cases, run_matrix_mode, run_scenario_with,
    FaultKind, FaultPlan, Grade, Scenario, ScenarioResult,
};
use std::fmt::Write as _;
use std::process::ExitCode;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Compares produced manifest rows against a committed manifest file.
/// Returns the number of drifting rows (0 = conformant).
fn verify_manifest(label: &str, path: &str, rows: &[(String, String, String)]) -> Option<usize> {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("no {label} manifest at {path} ({e}); run with --bless to create it");
            return None;
        }
    };
    let committed_rows = parse_manifest(&committed);
    let mut drift = 0;
    for (name, digest, outcome) in rows {
        match committed_rows.iter().find(|(n, _, _)| n == name) {
            Some((_, want_digest, want_outcome)) => {
                if digest != want_digest || outcome != want_outcome {
                    eprintln!(
                        "GOLDEN DRIFT [{label}] {name}: have {digest}/{outcome}, \
                         committed {want_digest}/{want_outcome}"
                    );
                    drift += 1;
                }
            }
            None => {
                eprintln!("GOLDEN DRIFT [{label}] {name}: not in the committed manifest");
                drift += 1;
            }
        }
    }
    for (name, _, _) in &committed_rows {
        if !rows.iter().any(|(n, _, _)| n == name) {
            eprintln!("GOLDEN DRIFT [{label}] {name}: committed but no longer produced");
            drift += 1;
        }
    }
    Some(drift)
}

/// The CI cohort robustness floor (`--smoke`): cohort negotiation under an
/// escalating relay+datalink drop ladder, with and without mid-run drone
/// loss, in both scheduler modes. Every case must terminate Pass or Degrade
/// — a Fail (safety-invariant violation or non-termination) fails the build.
fn cohort_smoke() -> ExitCode {
    use hdc_core::{HumanScript, Role, ScriptedResponse, SessionConfig};
    use hdc_figure::MarshallingSign;

    let dead = DEAD_ANGLE_CENTER_RAD;
    let base = || {
        SessionConfig::for_role(Role::Supervisor, true, 42).with_script(HumanScript::answering(
            ScriptedResponse::Sign(MarshallingSign::Yes),
        ))
    };
    let mut failures = 0usize;
    let mut cases = 0usize;
    for drop_p in [0.0_f64, 0.15, 0.3, 0.45] {
        let variants = [
            (
                "single-observer",
                base().with_cohort(CohortConfig::single_observer(dead)),
                None,
            ),
            (
                "dual-quorum2",
                base().with_cohort(CohortConfig::dual_observer(0.35, dead)),
                None,
            ),
            (
                "observer-loss",
                base().with_cohort(CohortConfig::single_observer(dead)),
                Some(FaultKind::ObserverLoss {
                    observer: 0,
                    at_s: 6.0,
                }),
            ),
        ];
        for (label, config, extra) in variants {
            let mut faults = vec![
                FaultKind::FacingBias { rad: dead },
                FaultKind::RelayDrop {
                    probability: drop_p,
                },
                FaultKind::LinkDrop {
                    probability: drop_p,
                },
            ];
            faults.extend(extra);
            let scenario = Scenario {
                name: format!("smoke-cohort-{label}-drop{:02.0}", drop_p * 100.0),
                config,
                plan: FaultPlan { seed: 42, faults },
                inject_safety_at: None,
                expect: vec![],
            };
            for mode in [ScheduleMode::Lockstep, ScheduleMode::EventDriven] {
                let r = run_scenario_with(&scenario, mode);
                cases += 1;
                let ok = r.grade != Grade::Fail;
                println!(
                    "  {:<44} {mode:?}: {} {}",
                    r.name,
                    r.outcome.to_string().to_lowercase(),
                    if ok { "ok" } else { "FAIL" }
                );
                if !ok {
                    for v in &r.violations {
                        eprintln!("      VIOLATION: {v}");
                    }
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("cohort smoke floor: {failures}/{cases} cases FAILED");
        return ExitCode::FAILURE;
    }
    println!("cohort smoke floor: all {cases} cases stayed Pass/Degrade (never Fail)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let bless = args.iter().any(|a| a == "--bless");
    if args.iter().any(|a| a == "--smoke") {
        return cohort_smoke();
    }
    let pool = WorkPool::with_threads(threads_from_args(&args));

    let matrix = build_matrix();
    // printed, never written: the committed RESULTS_scenarios.json must not
    // depend on the flag or the host
    println!(
        "running {} scenarios on {} worker(s) (available parallelism {}), lockstep mode...",
        matrix.len(),
        pool.workers(),
        available_workers()
    );
    let results = run_matrix_mode(&pool, &matrix, ScheduleMode::Lockstep);
    for r in &results {
        println!(
            "  {:<36} {:<8} {:<9} {} ({:.1}s)",
            r.name,
            r.outcome.to_string().to_lowercase(),
            r.grade.label(),
            r.digest,
            r.duration_s
        );
        for v in &r.violations {
            println!("      VIOLATION: {v}");
        }
    }

    println!("running {} scenarios, event-driven mode...", matrix.len());
    let event_results = run_matrix_mode(&pool, &matrix, ScheduleMode::EventDriven);
    for r in &event_results {
        for v in &r.violations {
            println!("  {:<36} VIOLATION (event mode): {v}", r.name);
        }
    }

    println!("running mission cases...");
    let missions = mission_cases();
    for (name, digest, summary) in &missions {
        println!("  {name:<36} {digest} {summary}");
    }

    println!("running linked-fleet cases (lockstep)...");
    let fleets = linked_fleet_cases_mode(ScheduleMode::Lockstep);
    for (name, digest, summary) in &fleets {
        println!("  {name:<36} {digest} {summary}");
    }

    println!("running linked-fleet cases (event-driven)...");
    let event_fleets = linked_fleet_cases_mode(ScheduleMode::EventDriven);
    for (name, digest, summary) in &event_fleets {
        println!("  {name:<36} {digest} {summary}");
    }

    println!("running dead-angle sweep...");
    let sweep = dead_angle_sweep_with(&pool, 5);

    println!("running link-loss sweep...");
    let loss = link_loss_sweep_with(&pool, 7, 5);
    for p in &loss {
        println!(
            "  drop {:>3.0}%: {}/{} granted, {} retreated, {} failsafed, mean {:.1}s",
            p.drop_p * 100.0,
            p.granted,
            p.sessions,
            p.retreated,
            p.failsafed,
            p.mean_duration_s
        );
    }

    println!("running cohort fusion sweep...");
    let fusion = cohort_fusion_sweep_with(&pool, 5);
    let frontal_rate = fusion
        .iter()
        .find(|p| p.sigma == 0.0 && p.azimuth_deg == 0.0)
        .map(|p| p.single_rate())
        .unwrap_or(0.0);
    let band: Vec<_> = fusion
        .iter()
        .filter(|p| p.sigma == 0.0 && in_dead_angle_deg(p.azimuth_deg))
        .collect();
    let band_mean = |f: &dyn Fn(&hdc_sim::FusionPoint) -> f64| {
        if band.is_empty() {
            0.0
        } else {
            band.iter().map(|p| f(p)).sum::<f64>() / band.len() as f64
        }
    };
    let band_single = band_mean(&|p| p.single_rate());
    let band_fused = band_mean(&|p| p.fused_rate());
    println!(
        "  clean-sigma rates: frontal {frontal_rate:.3}, dead band single {band_single:.3} \
         -> fused {band_fused:.3}"
    );

    println!("running cohort relay/drone-loss sweep...");
    let cohort_loss = cohort_loss_sweep_with(&pool, 9, 5);
    for p in &cohort_loss {
        println!(
            "  relay drop {:>3.0}%: {}/{} granted, {} retreated, {} failsafed, \
             {} unsafe, mean {:.1}s",
            p.drop_p * 100.0,
            p.granted,
            p.sessions,
            p.retreated,
            p.failsafed,
            p.unsafe_terminations,
            p.mean_duration_s
        );
    }

    // --- golden manifest rows: sessions then missions then fleets, in
    //     matrix order; one row set per scheduler mode. The mission layer is
    //     scheduler-native (its own event queue), so its rows are shared.
    let manifest_rows = |scenario_results: &[ScenarioResult],
                         fleet_rows: &[(String, String, String)]| {
        let mut rows: Vec<(String, String, String)> = scenario_results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.digest.clone(),
                    r.outcome.to_string().to_lowercase(),
                )
            })
            .collect();
        rows.extend(
            missions
                .iter()
                .map(|(n, d, _)| (n.clone(), d.clone(), "mission".to_owned())),
        );
        rows.extend(
            fleet_rows
                .iter()
                .map(|(n, d, _)| (n.clone(), d.clone(), "fleet".to_owned())),
        );
        rows
    };
    let rows = manifest_rows(&results, &fleets);
    let event_rows = manifest_rows(&event_results, &event_fleets);

    let pass = results.iter().filter(|r| r.grade == Grade::Pass).count();
    let degrade = results.iter().filter(|r| r.grade == Grade::Degrade).count();
    let fail = results.iter().filter(|r| r.grade == Grade::Fail).count();
    let event_count = |grade: Grade| event_results.iter().filter(|r| r.grade == grade).count();
    let (event_pass, event_degrade, event_fail) = (
        event_count(Grade::Pass),
        event_count(Grade::Degrade),
        event_count(Grade::Fail),
    );

    // --- RESULTS_scenarios.json (hand-built: the workspace has no JSON dependency) ---
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scenario_count\": {},", results.len());
    let _ = writeln!(json, "  \"pass\": {pass},");
    let _ = writeln!(json, "  \"degrade\": {degrade},");
    let _ = writeln!(json, "  \"fail\": {fail},");
    let _ = writeln!(
        json,
        "  \"event_mode\": {{\"pass\": {event_pass}, \"degrade\": {event_degrade}, \
         \"fail\": {event_fail}}},"
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"outcome\": \"{}\", \"grade\": \"{}\", \"digest\": \"{}\", \
             \"duration_s\": {:.1}, \"frames_processed\": {}, \"frames_recognized\": {}, \
             \"frames_dropped\": {}, \"frames_duplicated\": {}, \"violations\": [{}]}}{comma}",
            json_escape(&r.name),
            r.outcome.to_string().to_lowercase(),
            r.grade.label(),
            r.digest,
            r.duration_s,
            r.frames.0,
            r.frames.1,
            r.frames.2,
            r.frames.3,
            r.violations
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"missions\": [");
    for (i, (name, digest, summary)) in missions.iter().enumerate() {
        let comma = if i + 1 < missions.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"digest\": \"{}\", \"summary\": \"{}\"}}{comma}",
            json_escape(name),
            digest,
            json_escape(summary)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"linked_fleets\": [");
    for (i, (name, digest, summary)) in fleets.iter().enumerate() {
        let comma = if i + 1 < fleets.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"digest\": \"{}\", \"summary\": \"{}\"}}{comma}",
            json_escape(name),
            digest,
            json_escape(summary)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"dead_angle_sweep\": [");
    for (i, p) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"azimuth_deg\": {:.0}, \"noise_sigma\": {:.0}, \"correct\": {}, \
             \"total\": {}, \"rate\": {:.3}}}{comma}",
            p.azimuth_deg,
            p.sigma,
            p.correct,
            p.total,
            p.rate()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"link_loss_sweep\": [");
    for (i, p) in loss.iter().enumerate() {
        let comma = if i + 1 < loss.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"drop_pct\": {:.0}, \"sessions\": {}, \"granted\": {}, \
             \"retreated\": {}, \"failsafed\": {}, \"unsafe_terminations\": {}, \
             \"mean_duration_s\": {:.1}}}{comma}",
            p.drop_p * 100.0,
            p.sessions,
            p.granted,
            p.retreated,
            p.failsafed,
            p.unsafe_terminations,
            p.mean_duration_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"cohort_fusion_sweep\": [");
    for (i, p) in fusion.iter().enumerate() {
        let comma = if i + 1 < fusion.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"azimuth_deg\": {:.0}, \"noise_sigma\": {:.0}, \"single_correct\": {}, \
             \"fused_correct\": {}, \"total\": {}, \"single_rate\": {:.3}, \
             \"fused_rate\": {:.3}}}{comma}",
            p.azimuth_deg,
            p.sigma,
            p.single_correct,
            p.fused_correct,
            p.total,
            p.single_rate(),
            p.fused_rate()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"cohort_loss_sweep\": [");
    for (i, p) in cohort_loss.iter().enumerate() {
        let comma = if i + 1 < cohort_loss.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"drop_pct\": {:.0}, \"sessions\": {}, \"granted\": {}, \
             \"retreated\": {}, \"failsafed\": {}, \"unsafe_terminations\": {}, \
             \"mean_duration_s\": {:.1}}}{comma}",
            p.drop_p * 100.0,
            p.sessions,
            p.granted,
            p.retreated,
            p.failsafed,
            p.unsafe_terminations,
            p.mean_duration_s
        );
    }
    let _ = writeln!(json, "  ],");
    let cohort_unsafe: usize = cohort_loss.iter().map(|p| p.unsafe_terminations).sum();
    let _ = writeln!(
        json,
        "  \"cohort_dead_angle\": {{\"frontal_rate\": {frontal_rate:.3}, \
         \"dead_band_single_rate\": {band_single:.3}, \
         \"dead_band_fused_rate\": {band_fused:.3}, \
         \"fused_over_frontal\": {:.3}, \"unsafe_terminations\": {cohort_unsafe}}}",
        if frontal_rate > 0.0 {
            band_fused / frontal_rate
        } else {
            0.0
        }
    );
    let _ = writeln!(json, "}}");
    let results_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RESULTS_scenarios.json");
    std::fs::write(results_path, &json).expect("write RESULTS_scenarios.json");
    println!("wrote {results_path}");

    // --- golden conformance, both scheduler modes ---
    if bless {
        std::fs::create_dir_all(std::path::Path::new(golden_path()).parent().unwrap())
            .expect("create tests/golden");
        std::fs::write(golden_path(), format_manifest(&rows)).expect("write golden manifest");
        println!("blessed {} rows into {}", rows.len(), golden_path());
        std::fs::write(golden_event_path(), format_manifest(&event_rows))
            .expect("write event golden manifest");
        println!(
            "blessed {} rows into {}",
            event_rows.len(),
            golden_event_path()
        );
    } else {
        let drift = match (
            verify_manifest("lockstep", golden_path(), &rows),
            verify_manifest("event", golden_event_path(), &event_rows),
        ) {
            (Some(a), Some(b)) => a + b,
            _ => return ExitCode::FAILURE,
        };
        if drift > 0 {
            eprintln!("{drift} golden-trace mismatches (bless after reviewing the diff)");
            return ExitCode::FAILURE;
        }
        println!(
            "all {} lockstep + {} event-driven golden digests match",
            rows.len(),
            event_rows.len()
        );
    }

    println!("{pass} pass / {degrade} degrade / {fail} fail (lockstep)");
    // Only a Fail is gated in event mode: the schedulers do not yet reach the
    // same outcome on every scenario, so some degrade where lockstep passes.
    println!(
        "{event_pass} pass / {event_degrade} degrade / {event_fail} fail \
         (event-driven; degrade not gated)"
    );
    if fail > 0 {
        eprintln!("{fail} scenarios FAILED a safety invariant or did not terminate");
        return ExitCode::FAILURE;
    }
    if event_fail > 0 {
        eprintln!(
            "{event_fail} scenarios FAILED a safety invariant or did not terminate in \
             event-driven mode"
        );
        return ExitCode::FAILURE;
    }
    // --- cohort acceptance gates: the second drone must actually shrink
    //     the dead angle, and relay/drone loss must never terminate unsafe
    if band_fused < 0.9 * frontal_rate {
        eprintln!(
            "cohort fusion failed the dead-angle-shrinkage floor: fused {band_fused:.3} \
             < 0.9 x frontal {frontal_rate:.3}"
        );
        return ExitCode::FAILURE;
    }
    if cohort_unsafe > 0 {
        eprintln!("{cohort_unsafe} unsafe terminations in the cohort relay/drone-loss sweep");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
