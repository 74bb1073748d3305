//! Minimal argument parsing and output plumbing shared by the experiment
//! binaries.
//!
//! Flags (all optional):
//! `--trials N` `--scale F` `--seed S` `--out DIR` `--threads N`
//! `--dataset NAME` `--quiet`
//!
//! `--threads` caps the shared parallel runtime's fan-out
//! ([`ldp_graph::runtime::set_thread_cap`]); results are bit-identical at
//! any cap. `--dataset` restricts the four-panel sweep figures
//! (Figs. 6–11) to one dataset.
//!
//! Every binary prints each figure as an ASCII chart plus a markdown table
//! and writes CSV/markdown files under the output directory (default
//! `results/`); a file it cannot write is a warning and exit status 1.

use crate::config::ExperimentConfig;
use crate::output::Figure;
use ldp_graph::datasets::Dataset;
use poison_core::ScenarioError;
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: PathBuf,
    /// Cap on the parallel runtime's worker threads (None = machine).
    pub threads: Option<usize>,
    /// Restrict four-panel sweeps to one dataset (None = all four).
    pub dataset: Option<Dataset>,
    /// Suppress the ASCII charts on stdout.
    pub quiet: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            config: ExperimentConfig::default(),
            out_dir: PathBuf::from("results"),
            threads: None,
            dataset: None,
            quiet: false,
        }
    }
}

/// Parses an argument list (without the program name).
///
/// # Errors
/// Returns a human-readable message for unknown flags or bad values.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                opts.config.trials = flag_value(args, &mut i)?;
                if opts.config.trials == 0 {
                    return Err("--trials must be >= 1".into());
                }
            }
            "--scale" => {
                opts.config.scale = flag_value(args, &mut i)?;
                if opts.config.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--seed" => opts.config.seed = flag_value(args, &mut i)?,
            "--out" => opts.out_dir = flag_value(args, &mut i)?,
            "--threads" => {
                let threads: usize = flag_value(args, &mut i)?;
                if threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
                opts.threads = Some(threads);
            }
            "--dataset" => {
                let name: String = flag_value(args, &mut i)?;
                opts.dataset = Some(Dataset::from_name(&name).ok_or_else(|| {
                    format!(
                        "--dataset: unknown dataset {name} (expected one of \
                         Facebook, Enron, AstroPh, Gplus)"
                    )
                })?);
            }
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Parses the value that follows the flag `args[*i]` and moves `i` onto it.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    *i += 1;
    let value = args
        .get(*i)
        .ok_or_else(|| format!("flag {flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses `std::env::args`, exiting with a message on error, and installs
/// the `--threads` cap into the shared parallel runtime.
pub fn options_from_env() -> CliOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => {
            if let Some(threads) = opts.threads {
                ldp_graph::runtime::set_thread_cap(threads);
            }
            opts
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: [--trials N] [--scale F] [--seed S] [--out DIR] \
                 [--threads N] [--dataset NAME] [--quiet]"
            );
            std::process::exit(2);
        }
    }
}

/// Prints and persists an experiment's figures, or reports its scenario
/// error and exits 1 instead of panicking mid-sweep. Returns whether every
/// file was written; each failed write is reported as a warning.
pub fn emit_or_exit(figures: Result<Vec<Figure>, ScenarioError>, opts: &CliOptions) -> bool {
    let figures = figures.unwrap_or_else(|e| {
        eprintln!("error: scenario failed: {e}");
        std::process::exit(1);
    });
    let mut written = true;
    for fig in &figures {
        if !opts.quiet {
            println!("{}", fig.to_ascii_chart());
            println!("{}", fig.to_markdown());
        }
        if let Err(e) = fig.write_to_dir(&opts.out_dir) {
            eprintln!("warning: could not write {}: {e}", fig.title);
            written = false;
        }
    }
    written
}

/// Prints a markdown table and writes it to `file` under the output
/// directory. Returns whether the file was written; a failed write is
/// reported as a warning.
pub fn emit_table(file: &str, markdown: &str, opts: &CliOptions) -> bool {
    println!("{markdown}");
    let result = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join(file), markdown));
    if let Err(e) = &result {
        eprintln!("warning: could not write {file}: {e}");
    }
    result.is_ok()
}

/// A binary's exit status: 0 when every output file was written, else 1.
pub fn exit_code(written: bool) -> std::process::ExitCode {
    std::process::ExitCode::from(u8::from(!written))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_without_args() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.trials, ExperimentConfig::default().trials);
        assert_eq!(o.out_dir, PathBuf::from("results"));
        assert_eq!(o.threads, None);
        assert_eq!(o.dataset, None);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse_args(&s(&[
            "--trials",
            "9",
            "--scale",
            "0.5",
            "--seed",
            "123",
            "--out",
            "/tmp/x",
            "--threads",
            "3",
            "--dataset",
            "enron",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(o.config.trials, 9);
        assert_eq!(o.config.scale, 0.5);
        assert_eq!(o.config.seed, 123);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.dataset, Some(Dataset::Enron));
        assert!(o.quiet);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&["--trials", "0"])).is_err());
        assert!(parse_args(&s(&["--scale", "-1"])).is_err());
        assert!(parse_args(&s(&["--wat"])).is_err());
        assert!(parse_args(&s(&["--trials"])).is_err());
    }

    #[test]
    fn rejects_bad_threads() {
        assert!(parse_args(&s(&["--threads", "0"]))
            .unwrap_err()
            .contains("--threads"));
        assert!(parse_args(&s(&["--threads", "many"]))
            .unwrap_err()
            .contains("--threads"));
        assert!(parse_args(&s(&["--threads"])).is_err());
    }

    #[test]
    fn rejects_unknown_dataset() {
        let err = parse_args(&s(&["--dataset", "orkut"])).unwrap_err();
        assert!(err.contains("unknown dataset"));
        assert!(parse_args(&s(&["--dataset"])).is_err());
    }

    #[test]
    fn dataset_parse_is_case_insensitive() {
        let o = parse_args(&s(&["--dataset", "GPLUS"])).unwrap();
        assert_eq!(o.dataset, Some(Dataset::Gplus));
    }
}
