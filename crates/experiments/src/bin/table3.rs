//! Regenerates paper Table III (default parameter settings).

fn main() -> std::process::ExitCode {
    let opts = poison_experiments::cli::options_from_env();
    let md = poison_experiments::table3::to_markdown();
    poison_experiments::cli::exit_code(poison_experiments::cli::emit_table("table3.md", &md, &opts))
}
