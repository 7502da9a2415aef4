//! `repro` — regenerates every table and figure of Graydon (DSN 2015)
//! and runs the benchmark artifacts with their gates.
//!
//! ```text
//! repro [table1 | claims | figure1 | haley | greenwell | exp-a .. exp-e |
//!        graph | logic | af | fol | ltl | experiments | lint | service | dsl |
//!        bench | all] [--smoke]
//! ```
//!
//! A benchmark artifact runs through its `casekit_bench::<artifact>::repro`
//! entry, which writes `BENCH_<artifact>.json` (`.smoke.json` with
//! `--smoke`) in the working directory. `bench` runs all nine; `all`
//! (the default) prints every table and figure, then runs all nine.
//! Benchmark runs end with one `ok`/`FAIL` line per gate and exit 1 if
//! any failed: agreement flags gate every run, speed floors smoke runs.
//! `repro bench --smoke` is the CI bench-regression gate.

use casekit_bench::{BenchRun, BENCHES, SECTIONS};

fn main() {
    let mut smoke = false;
    let mut artefact: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other if artefact.is_none() => artefact = Some(other.to_string()),
            other => {
                eprintln!("unexpected extra argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let arg = artefact.unwrap_or_else(|| "all".to_string());
    let sections: Vec<_> = SECTIONS
        .iter()
        .filter(|(name, _)| arg == "all" || *name == arg)
        .collect();
    let benches: Vec<_> = BENCHES
        .iter()
        .filter(|(name, _)| matches!(arg.as_str(), "all" | "bench") || *name == arg)
        .collect();
    if sections.is_empty() && benches.is_empty() {
        eprintln!(
            "unknown artefact `{arg}`; expected table1, claims, figure1, haley, \
             greenwell, exp-a..exp-e, graph, logic, af, fol, ltl, experiments, lint, \
             service, dsl, bench, or all"
        );
        std::process::exit(2);
    }
    if smoke && benches.is_empty() {
        eprintln!("--smoke only applies to the benchmark artefacts, bench, and all");
        std::process::exit(2);
    }

    for (_, section) in sections {
        print!("{}", section());
        if arg == "all" {
            println!();
        }
    }
    let runs: Vec<BenchRun> = benches
        .iter()
        .map(|(_, bench)| {
            let run = bench(smoke);
            println!("{}", run.summary);
            run
        })
        .collect();
    if runs.is_empty() {
        return;
    }

    println!("== bench gates ==");
    for run in &runs {
        print!("{}", run.gate_lines());
    }
    let failures: usize = runs.iter().map(BenchRun::failures).sum();
    if failures == 0 {
        println!("Bench gate passed.");
    } else {
        println!("Bench gate FAILED ({failures} gate(s)).");
        std::process::exit(1);
    }
}
