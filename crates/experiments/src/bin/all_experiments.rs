//! Regenerates the paper's results: one by name (`all_experiments fig6`),
//! or, without a name, Tables II–III and Figs. 6–15 in sequence. Expect
//! minutes at the default scale. See `poison_experiments::cli`.

fn main() -> std::process::ExitCode {
    use poison_experiments::cli;
    let opts = cli::options_from_env();
    let mut written = true;
    for experiment in opts.experiments {
        written &= experiment.emit(&opts);
    }
    cli::exit_code(written)
}
