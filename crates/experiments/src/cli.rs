//! The command line of `all_experiments`, the one entry point that
//! regenerates the paper's results, and the list of results it runs.
//!
//! `all_experiments [RESULT] [flags]` runs one result by name (one of
//! [`EXPERIMENTS`]: `table2`, `table3`, `fig6`…`fig15`, `ablations`);
//! without a name it runs both tables and Figs. 6–15, every result but
//! the ablations.
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
//! Each result prints its figures as ASCII charts plus markdown tables
//! (a table as markdown) and writes CSV/markdown files under the output
//! directory (default `results/`); a file it cannot write is a warning
//! and exit status 1.

use crate::config::{ExperimentConfig, MAX_NODES};
use crate::output::Figure;
use crate::{ablations, countermeasures, protocols, sweep, table2, table3};
use ldp_graph::datasets::Dataset;
use poison_core::ScenarioError;
use std::path::PathBuf;
use std::time::Instant;

/// One result `all_experiments` runs by name.
#[derive(Debug)]
pub struct Experiment {
    /// The name that selects it on the command line.
    pub name: &'static str,
    run: Run,
}

#[derive(Debug)]
enum Run {
    /// A markdown table, written to `NAME.md`.
    Table(fn(&ExperimentConfig) -> String),
    /// Figures, timed on stderr as `== NAME done in …`.
    Figures(fn(&CliOptions) -> Result<Vec<Figure>, ScenarioError>),
}

const fn table(name: &'static str, run: fn(&ExperimentConfig) -> String) -> Experiment {
    Experiment {
        name,
        run: Run::Table(run),
    }
}

const fn figures(
    name: &'static str,
    run: fn(&CliOptions) -> Result<Vec<Figure>, ScenarioError>,
) -> Experiment {
    Experiment {
        name,
        run: Run::Figures(run),
    }
}

/// Every result, in run order: the paper's Tables II–III and Figs. 6–15,
/// then the ablations of DESIGN.md §7, which run only by name.
pub static EXPERIMENTS: [Experiment; 13] = [
    table("table2", |cfg| table2::to_markdown(&table2::run(cfg))),
    table("table3", |_| table3::to_markdown()),
    figures("fig6", |o| sweep::FIG6.run(&o.config, o.dataset)),
    figures("fig7", |o| sweep::FIG7.run(&o.config, o.dataset)),
    figures("fig8", |o| sweep::FIG8.run(&o.config, o.dataset)),
    figures("fig9", |o| sweep::FIG9.run(&o.config, o.dataset)),
    figures("fig10", |o| sweep::FIG10.run(&o.config, o.dataset)),
    figures("fig11", |o| sweep::FIG11.run(&o.config, o.dataset)),
    figures("fig12", |o| countermeasures::FIG12.run(&o.config)),
    figures("fig13", |o| countermeasures::FIG13.run(&o.config)),
    figures("fig14", |o| protocols::FIG14.run(&o.config)),
    figures("fig15", |o| protocols::FIG15.run(&o.config)),
    figures("ablations", |o| ablations::run(&o.config)),
];

impl Experiment {
    /// Runs the result, prints it and writes its files under the output
    /// directory. Returns whether every file was written.
    pub fn emit(&self, opts: &CliOptions) -> bool {
        match self.run {
            Run::Table(markdown) => {
                emit_table(&format!("{}.md", self.name), &markdown(&opts.config), opts)
            }
            Run::Figures(run) => {
                let start = Instant::now();
                let written = emit_or_exit(run(opts), opts);
                let secs = start.elapsed().as_secs_f64();
                eprintln!("== {} done in {secs:.1}s ==", self.name);
                written
            }
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The results to run, in order: the one named, or the full run.
    pub experiments: &'static [Experiment],
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
            // The full run: every result but the ablations, which come last.
            experiments: &EXPERIMENTS[..EXPERIMENTS.len() - 1],
            config: ExperimentConfig::default(),
            out_dir: PathBuf::from("results"),
            threads: None,
            dataset: None,
            quiet: false,
        }
    }
}

/// Parses an argument list (without the program name): at most one
/// result name, and flags.
///
/// # Errors
/// Returns a human-readable message for unknown flags or bad values, an
/// unknown result name, or a second one.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut named = false;
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
                let nodes = Dataset::ALL.map(|d| opts.config.degree_sweep_nodes_for(d));
                if !(opts.config.scale > 0.0 && nodes.iter().all(|&n| n <= MAX_NODES)) {
                    return Err(format!("--scale must be > 0 and fit {MAX_NODES} nodes"));
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
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            name => {
                if named {
                    return Err(format!("one result at most, got a second: {name}"));
                }
                let experiment = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown result {name}"))?;
                opts.experiments = std::slice::from_ref(experiment);
                named = true;
            }
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
            let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("error: {msg}");
            eprintln!(
                "usage: all_experiments [RESULT] [--trials N] [--scale F] [--seed S] \
                 [--out DIR] [--threads N] [--dataset NAME] [--quiet]\n\
                 RESULT is one of: {} (default: all but ablations)",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}

/// Prints and persists an experiment's figures, or reports its scenario
/// error and exits 1 instead of panicking mid-sweep. Returns whether every
/// file was written; each failed write is reported as a warning.
fn emit_or_exit(figures: Result<Vec<Figure>, ScenarioError>, opts: &CliOptions) -> bool {
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
fn emit_table(file: &str, markdown: &str, opts: &CliOptions) -> bool {
    println!("{markdown}");
    let result = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join(file), markdown));
    if let Err(e) = &result {
        eprintln!("warning: could not write {file}: {e}");
    }
    result.is_ok()
}

/// The exit status: 0 when every output file was written, else 1.
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
    fn no_name_runs_the_paper_and_a_name_runs_one_result() {
        let full: Vec<_> = parse_args(&[])
            .unwrap()
            .experiments
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(full.len(), 12);
        assert_eq!((full[0], full[11]), ("table2", "fig15"));
        for experiment in &EXPERIMENTS {
            for args in [
                vec![experiment.name],
                vec!["--trials", "2", experiment.name],
            ] {
                let o = parse_args(&s(&args)).unwrap();
                assert_eq!(o.experiments.len(), 1);
                assert_eq!(o.experiments[0].name, experiment.name);
            }
        }
    }

    #[test]
    fn rejects_an_unknown_or_a_second_name() {
        let err = parse_args(&s(&["fig16"])).unwrap_err();
        assert!(err.contains("unknown result fig16"), "{err}");
        let err = parse_args(&s(&["fig6", "--quiet", "fig7"])).unwrap_err();
        assert!(err.contains("second"), "{err}");
        assert!(parse_args(&s(&["fig6", "fig6"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&["--trials", "0"])).is_err());
        assert!(parse_args(&s(&["--scale", "-1"])).is_err());
        for scale in ["NaN", "inf", "infinity", "1e20", "1e300"] {
            assert!(parse_args(&s(&["--scale", scale])).is_err(), "{scale}");
        }
        // 500 puts the largest stand-in (the 20,000-node Gplus degree
        // sweep) exactly at the node bound; 501 is past it.
        assert!(parse_args(&s(&["--scale", "500"])).is_ok());
        assert!(parse_args(&s(&["--scale", "501"])).is_err());
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
