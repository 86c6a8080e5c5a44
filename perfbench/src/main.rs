//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric (median, unit, sample count, quartiles)
//! and the failed/attempted operations, writes a run record (and, when
//! traced, the spans) under `out/`, and ends with one JSON result line.

use std::process::ExitCode;

use perfbench::report::{self, RunInfo};
use perfbench::{Scale, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(
        &args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.traced,
    )
    .expect("workload name was validated");
    let info = RunInfo {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        kernel_threads: rayon::current_num_threads(),
    };
    let (cpu, nproc) = report::host_fingerprint();
    println!(
        "perfbench {} seed {} trace {} on {cpu} ({nproc} CPUs, {} kernel threads)",
        args.workload,
        args.seed,
        u8::from(args.traced),
        info.kernel_threads
    );
    print!("{}", report::table(&outcome));
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    let dir = report::out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            report::record_json(&info, &outcome),
        )?;
        match &outcome.spans {
            Some(spans) => std::fs::write(dir.join(format!("{stem}.spans.json")), spans),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the run record or spans: {e}");
    }
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}
