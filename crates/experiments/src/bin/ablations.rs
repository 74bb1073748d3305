//! Runs the ablation studies of DESIGN.md §7 (budget cap, padding,
//! prioritized allocation, clustering degree source).

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::ablations::run(&opts.config);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_or_exit(figures, &opts))
}
