//! `smartbench` — the repeatable benchmark of the smartapps reduction
//! service.  See `benchmark/README.md` for the catalogue and the
//! measuring method.
//!
//! ```text
//! smartbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! smartbench compare <setA> <setB>
//! smartbench selftest
//! smartbench catalogue
//! ```

mod catalogue;
mod compare;
mod counters;
mod estimate;
mod gen;
mod json;
mod os;
mod probes;
mod report;
mod run;
mod scrape;
mod selftest;
mod trace;
mod verify;
mod workloads;

use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  smartbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  smartbench compare <setA> <setB>
  smartbench selftest
  smartbench catalogue";

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        out_dir: out.unwrap_or_else(|| PathBuf::from("benchmark/out").join(&workload)),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        #[cfg(test)]
        corrupt_oracle: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("catalogue") => {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("selftest") => selftest::run(),
        Some(flag) if flag.starts_with("--") => parse_run_args(&args)
            .and_then(|run_args| report::run_and_report(&run_args))
            .map(|report| {
                // The result is the last line of standard output; a wrong
                // or failed answer also fails the process.
                println!("{}", report.result_line);
                report.correct
            }),
        _ => Err(USAGE.to_string()),
    };
    ExitCode::from(exit_code(result))
}

/// 0 when all is well, 1 for a wrong answer, a gap beyond its bound or a
/// failed self-test, 2 when the command could not run at all.
fn exit_code(result: Result<bool, String>) -> u8 {
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("smartbench: {why}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_form() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "embed_regimes",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("embed_regimes", 7, 30.0, true)
        );
        assert_eq!(a.out_dir, PathBuf::from("benchmark/out/embed_regimes"));
        assert!(parse_run_args(&strings(&["--workload", "x", "--seed", "1"])).is_err());
        assert!(parse_run_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_run_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn a_corrupted_oracle_makes_the_run_incorrect_and_the_exit_non_zero() {
        let args = RunArgs {
            workload: catalogue::WIRE_CLOSED_SMALL.into(),
            seed: 3,
            seconds: 0.2,
            trace: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-corrupt"),
            corrupt_oracle: true,
        };
        let report = report::run_and_report(&args).expect("the run itself completes");
        assert!(!report.correct);
        let result = json::parse(&report.result_line).unwrap();
        assert_eq!(
            result.get("correct").and_then(json::Value::as_bool),
            Some(false)
        );
        assert!(result.get("failed").and_then(json::Value::as_f64).unwrap() >= 1.0);
        assert_eq!(exit_code(Ok(report.correct)), 1);
        // The same run with an honest oracle is correct.
        let honest = report::run_and_report(&RunArgs {
            corrupt_oracle: false,
            ..args
        })
        .unwrap();
        assert!(honest.correct);
        assert_eq!(exit_code(Ok(honest.correct)), 0);
    }
}
