//! Regenerates every table and figure in sequence (Tables II-III,
//! Figs. 6-15). Expect minutes at the default scale.

use poison_core::ScenarioError;
use poison_experiments as px;
use px::Figure;

fn main() {
    let opts = px::cli::options_from_env();
    let cfg = &opts.config;

    let rows = px::table2::run(cfg);
    let md = px::table2::to_markdown(&rows);
    println!("{md}");
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let _ = std::fs::write(opts.out_dir.join("table2.md"), md);
    let md3 = px::table3::to_markdown();
    println!("{md3}");
    let _ = std::fs::write(opts.out_dir.join("table3.md"), md3);

    let timed = |name: &str, run: &dyn Fn() -> Result<Vec<Figure>, ScenarioError>| {
        let start = std::time::Instant::now();
        px::cli::emit_or_exit(run(), &opts);
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
}
