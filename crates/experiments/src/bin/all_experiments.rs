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
    let short_name = |name: &str| name.to_lowercase().replace(' ', "");
    for fig in px::sweep::FIGURES {
        timed(&short_name(fig.name), &|| fig.run(cfg, opts.dataset));
    }
    for fig in px::countermeasures::FIGURES {
        timed(&short_name(fig.name), &|| fig.run(cfg));
    }
    for fig in px::protocols::FIGURES {
        timed(&short_name(fig.name), &|| fig.run(cfg));
    }
    px::cli::exit_code(written)
}
