//! Every deterministic experiment at its documented settings: its report
//! must equal the committed files in `docs/results/` byte for byte, and
//! its shape checks must pass.

use layercake_bench::{
    arch_compare, chaos, depth, expressiveness, fig7_mr, latency, lease, mesh, overload, placement,
    rlc_table, scaling, wildcard, Report, RESULTS_DIR,
};

/// Panics with the file, the first differing line and the regenerate
/// command unless every file of `report` is what is committed.
fn assert_matches_files(report: &Report) {
    let name = report.name;
    let txt = format!("{name}.txt");
    let files = std::iter::once((txt.as_str(), report.text.as_str()))
        .chain(report.files.iter().map(|(f, c)| (*f, c.as_str())));
    for (file, actual) in files {
        let path = std::path::Path::new(RESULTS_DIR).join(file);
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if expected == actual {
            continue;
        }
        let (mut want_lines, mut got_lines) = (expected.split('\n'), actual.split('\n'));
        let mut line = 1;
        let (want, got) = loop {
            let (want, got) = (want_lines.next(), got_lines.next());
            if want != got {
                break (want, got);
            }
            line += 1;
        };
        panic!(
            "docs/results/{file} is not what {name} prints; first difference at line {line}:\n\
             expected: {}\n  actual: {}\n\
             regenerate with: cargo run --release -p layercake-bench --bin {name} > docs/results/{name}.txt",
            want.unwrap_or("<end of file>"),
            got.unwrap_or("<end of output>"),
        );
    }
}

fn assert_checks_pass(report: &Report) {
    assert!(
        report.failed.is_empty(),
        "{} failed its shape checks:\n{}",
        report.name,
        report.failed.join("\n")
    );
}

fn golden(report: &Report) {
    assert_matches_files(report);
    assert_checks_pass(report);
}

#[test]
fn exp_rlc_table() {
    golden(&rlc_table::report());
}

#[test]
fn exp_fig7_mr() {
    golden(&fig7_mr::report());
}

#[test]
fn exp_arch_compare() {
    golden(&arch_compare::report());
}

#[test]
fn exp_placement() {
    golden(&placement::report());
}

#[test]
fn exp_wildcard() {
    golden(&wildcard::report());
}

#[test]
fn exp_scaling() {
    assert_matches_files(&scaling::report());
}

#[test]
#[ignore = "ROADMAP 12: placement always follows a covering filter, so the grown hierarchy's added brokers stay idle"]
fn exp_scaling_checks() {
    assert_checks_pass(&scaling::report());
}

#[test]
fn exp_depth() {
    assert_matches_files(&depth::report());
}

#[test]
#[ignore = "ROADMAP 12: placement always follows a covering filter, so the 5-stage hierarchy's extra brokers stay idle"]
fn exp_depth_checks() {
    assert_checks_pass(&depth::report());
}

#[test]
fn exp_expressiveness() {
    golden(&expressiveness::report());
}

#[test]
fn exp_mesh() {
    golden(&mesh::report());
}

#[test]
fn exp_lease() {
    golden(&lease::report());
}

#[test]
fn exp_chaos() {
    golden(&chaos::report());
}

#[test]
fn exp_latency() {
    golden(&latency::report());
}

#[test]
fn exp_overload() {
    golden(&overload::report());
}
