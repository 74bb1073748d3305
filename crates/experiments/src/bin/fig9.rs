//! Regenerates paper Fig. 9. See `poison_experiments::sweep::FIG9`.

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::sweep::FIG9.run(&opts.config, opts.dataset);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_or_exit(figures, &opts))
}
