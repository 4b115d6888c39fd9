//! `opprox-perfbench --workload <train|plan|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress lines starting with `#`, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

use opprox_perfbench::report::result_line;
use opprox_perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: opprox-perfbench --workload <train|plan|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (tally, metrics) = run(&args, &opprox_apps::registry::all_apps);
    for failure in &tally.failures {
        eprintln!("failed: {failure}");
    }
    println!("{}", result_line(&tally, &metrics));
}
