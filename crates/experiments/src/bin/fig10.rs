//! Regenerates paper Fig. 10. See `poison_experiments::sweep::FIG10`.

fn main() {
    let opts = poison_experiments::cli::options_from_env();
    let figures = poison_experiments::sweep::FIG10.run(&opts.config, opts.dataset);
    poison_experiments::cli::emit_or_exit(figures, &opts);
}
