//! Figure 4's non-timing half, pinned: E1 prints the contour lengths, SAX
//! words, best matches, distances, decisions and the 16-point PAA series of
//! the "No" sign at 0° and 65°, and no timing, so its whole report must
//! equal the committed golden.

#[test]
fn e1_report_matches_the_committed_golden() {
    let report = hdc_bench::experiments::e1_fig4_no_sign();
    let golden = include_str!("../../../tests/golden/fig4.txt");
    for (i, (got, want)) in report.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "tests/golden/fig4.txt line {}", i + 1);
    }
    assert_eq!(report, golden);
}
