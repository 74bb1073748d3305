//! Regenerates paper Table II (dataset statistics, paper vs. stand-in).

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let rows = poison_experiments::table2::run(&opts.config);
    let md = poison_experiments::table2::to_markdown(&rows);
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_table("table2.md", &md, &opts))
}
