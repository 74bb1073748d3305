//! Regenerates every table and figure in sequence (Tables II-III,
//! Figs. 6-15). Expect minutes at the default scale.

use poison_core::ScenarioError;
use poison_experiments as px;
use px::Figure;

fn main() -> std::process::ExitCode {
    let opts = px::cli::options_from_env();
    let cfg = &opts.config;

    let table2 = px::table2::to_markdown(&px::table2::run(cfg));
    let mut written = px::cli::emit_table("table2.md", &table2, &opts);
    written &= px::cli::emit_table("table3.md", &px::table3::to_markdown(), &opts);

    let mut timed = |name: &str, run: &dyn Fn() -> Result<Vec<Figure>, ScenarioError>| {
        let start = std::time::Instant::now();
        written &= px::cli::emit_or_exit(run(), &opts);
        eprintln!("== {name} done in {:.1}s ==", start.elapsed().as_secs_f64());
    };
    for fig in px::sweep::FIGURES {
        let name = fig.name.to_lowercase().replace(' ', "");
        timed(&name, &|| fig.run(cfg, opts.dataset));
    }
    timed("fig12", &|| px::fig12::run(cfg));
    timed("fig13", &|| px::fig13::run(cfg));
    timed("fig14", &|| px::fig14::run(cfg));
    timed("fig15", &|| px::fig15::run(cfg));
    px::cli::exit_code(written)
}
