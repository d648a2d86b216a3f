//! E12 pinned: safety injection into ten Worker sessions prints fire times,
//! end states, ring modes and the landing/entry checks, and no timing, so
//! its whole report must equal the committed golden. Seed 2 fires after
//! the grant, so the golden also covers `inject_safety` on a terminal
//! negotiation.

#[test]
fn e12_report_matches_the_committed_golden() {
    let report = hdc_bench::experiments::e12_safety_injection();
    let golden = include_str!("../../../tests/golden/e12.txt");
    for (i, (got, want)) in report.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "tests/golden/e12.txt line {}", i + 1);
    }
    assert_eq!(report, golden);
}
