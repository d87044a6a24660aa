//! `kqbench --workload <corpus|wordfreq|scan|spill> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header, then one JSON object as the last line of standard
//! output. Exits non-zero, without a result, when the benchmark cannot run.

use kqbench::bench;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match bench::parse_args(&argv).and_then(|args| bench::run(&args)) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("kqbench: {e}");
            std::process::exit(1);
        }
    }
}
