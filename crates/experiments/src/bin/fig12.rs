//! Regenerates paper Fig. 12. See `poison_experiments::fig12`.

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::fig12::run(&opts.config);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_or_exit(figures, &opts))
}
