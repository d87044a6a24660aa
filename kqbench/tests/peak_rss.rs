//! `peak_rss_mib` isolation: a small run measured after a large one in the
//! same process must report its own peak, not the large run's. (Its own
//! test binary, so no other test allocates while it measures.)

use kq_pipeline::DataflowOptions;
use kqbench::measure::measured;
use kqbench::workload::{Kind, Sizes, Workload};

fn peak_of(kind: Kind, sizes: &Sizes) -> f64 {
    let dir = kqbench::work_dir().join(format!("rss-test-{}", std::process::id()));
    let wl = Workload::generate(kind, 1, sizes, &dir).unwrap();
    let prep = wl.setup(2).unwrap();
    let ctxs = wl.contexts().unwrap();
    let opts = DataflowOptions {
        workers: 2,
        spill: wl.spill.clone(),
        ..DataflowOptions::default()
    };
    let (results, sample) = measured(|| wl.run_parallel(&prep, &ctxs, &opts)).unwrap();
    assert!(results.iter().all(Result::is_ok));
    sample.peak_rss_mib
}

#[test]
fn a_small_run_after_a_large_one_reports_its_own_peak() {
    // A heap-resident sort of 48 MiB (the budget is above the input, so
    // nothing spills), then a 1 MiB scan.
    let large = Sizes {
        spill: 48 << 20,
        spill_budget: 1 << 30,
        ..Sizes::BENCH
    };
    let small = Sizes {
        scan: 1 << 20,
        ..Sizes::BENCH
    };
    let big = peak_of(Kind::Spill, &large);
    let little = peak_of(Kind::Scan, &small);
    eprintln!("peaks: {big:.1} MiB, then {little:.1} MiB");
    assert!(
        big > 150.0,
        "the large run should peak well above its input: {big} MiB"
    );
    assert!(
        little < big / 2.0,
        "the small run inherited the large run's peak: {little} MiB after {big} MiB"
    );
}
