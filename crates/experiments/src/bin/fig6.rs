//! Regenerates paper Fig. 6. See `poison_experiments::sweep::FIG6`.

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::sweep::FIG6.run(&opts.config, opts.dataset);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_or_exit(figures, &opts))
}
