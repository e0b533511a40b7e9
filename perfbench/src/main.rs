//! The semrec benchmark: end-to-end and per-layer metrics on three
//! workloads. See `README.md` next to this package.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it describe the run, the machine's fingerprint among them.

mod batch;
mod machine;
mod report;
mod serve;
mod stats;
mod trace;
mod zipf;

use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch and trace output, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["fanout_batch", "compile_mix", "serve_write"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory under [`OUT_DIR`], emptied first.
pub fn scratch_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced run's spans to `OUT_DIR/trace-<workload>-seed<n>.jsonl`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    if !tracer.on() {
        return Ok(());
    }
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = machine::Fingerprint::measure();
    let run = match args.workload.as_str() {
        "fanout_batch" => batch::fanout_batch(&args),
        "compile_mix" => batch::compile_mix(&args),
        _ => serve::serve_write(&args),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    println!(
        "# machine {} workload {} seed {} seconds {} trace {}",
        fingerprint.to_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", report.result_line(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
