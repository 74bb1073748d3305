//! Regenerates paper Fig. 13. See `poison_experiments::countermeasures::FIG13`.

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::countermeasures::FIG13.run(&opts.config);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_or_exit(figures, &opts))
}
