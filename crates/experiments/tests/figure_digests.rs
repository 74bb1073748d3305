//! One digest per paper figure, table and ablation at a small scale, at
//! two thread caps.
//!
//! Each digest is FNV-1a-64 over a figure's title, the bits of its x grid,
//! and each series' label and value bits (or over a table's markdown). The
//! run uses `scale: 0.1, trials: 1` and two grid points per panel. A change
//! that should keep every output bit for bit must leave every constant
//! below as it is; a deliberate change of an output must edit its
//! constant and say why.
//!
//! This is the only test in its binary: the thread cap is process-global.

use ldp_graph::runtime::{clear_thread_cap, set_thread_cap};
use poison_experiments as px;
use px::{ExperimentConfig, Figure};

/// The digests at the committed code, in the order [`digests`] yields them.
const EXPECTED: &[(&str, u64)] = &[
    ("table2", 0xee06b1845b3c235f),
    ("table3", 0x49b98a0bbb7df84b),
    ("fig6", 0xb62e3fda824ea7e3),
    ("fig7", 0x1e35b758c0d9748b),
    ("fig8", 0x623f89d153b9d606),
    ("fig9", 0xb72b7f6ae32db0bb),
    ("fig10", 0xc6ecb2a03a2a3b68),
    ("fig11", 0xb07c290e95044d1b),
    ("fig12", 0x1fa485353f3665a7),
    ("fig13", 0x417e4d65f9f81d15),
    ("fig14", 0xaca4a3f2bb5c51d5),
    ("fig15", 0x65f88e478b3ffe2c),
    ("ablation_a1_gain", 0x739e2239561cb7a2),
    ("ablation_a1_detect1_recall", 0x8559c62cb6c17d83),
    ("ablation_a2", 0x8fc7c58b7721add4),
    ("ablation_a3", 0x2b50510d483a0d5a),
    ("ablation_a4", 0x149c2e748f2dd16e),
];

fn config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.1,
        trials: 1,
        seed: 20_250_101,
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of `figures`, keeping only the series `keep` accepts.
fn digest_series(figures: &[Figure], keep: impl Fn(&str) -> bool) -> u64 {
    let mut h = FNV_OFFSET;
    for f in figures {
        fnv1a(&mut h, f.title.as_bytes());
        for x in &f.x {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
        for s in f.series.iter().filter(|s| keep(&s.label)) {
            fnv1a(&mut h, s.label.as_bytes());
            for v in &s.values {
                fnv1a(&mut h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn digest(figures: &[Figure]) -> u64 {
    digest_series(figures, |_| true)
}

fn digest_text(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, text.as_bytes());
    h
}

/// Every figure, table and ablation series, digested.
fn digests() -> Vec<(&'static str, u64)> {
    let cfg = config();
    let eps = [2.0, 6.0];
    let fractions = [0.01, 0.1];
    let mut out = vec![
        (
            "table2",
            digest_text(&px::table2::to_markdown(&px::table2::run(&cfg))),
        ),
        ("table3", digest_text(&px::table3::to_markdown())),
    ];
    let sweeps = [
        ("fig6", px::sweep::FIG6.run_with_grid(&cfg, &eps, None)),
        (
            "fig7",
            px::sweep::FIG7.run_with_grid(&cfg, &fractions, None),
        ),
        (
            "fig8",
            px::sweep::FIG8.run_with_grid(&cfg, &fractions, None),
        ),
        ("fig9", px::sweep::FIG9.run_with_grid(&cfg, &eps, None)),
        (
            "fig10",
            px::sweep::FIG10.run_with_grid(&cfg, &fractions, None),
        ),
        (
            "fig11",
            px::sweep::FIG11.run_with_grid(&cfg, &fractions, None),
        ),
    ];
    for (name, figures) in sweeps {
        out.push((name, digest(&figures.unwrap())));
    }
    let panels = [
        (
            "fig12",
            [
                px::countermeasures::FIG12.panel_a(&cfg, &[50, 150]),
                px::countermeasures::FIG12.panel_b(&cfg, &fractions),
            ],
        ),
        (
            "fig13",
            [
                px::countermeasures::FIG13.panel_a(&cfg, &[50, 150]),
                px::countermeasures::FIG13.panel_b(&cfg, &fractions),
            ],
        ),
        (
            "fig14",
            [
                px::protocols::FIG14.panel_a(&cfg, &eps),
                px::protocols::FIG14.panel_b(&cfg, &eps),
            ],
        ),
        (
            "fig15",
            [
                px::protocols::FIG15.panel_a(&cfg, &eps),
                px::protocols::FIG15.panel_b(&cfg, &eps),
            ],
        ),
    ];
    for (name, [a, b]) in panels {
        out.push((name, digest(&[a.unwrap(), b.unwrap()])));
    }
    let a1 = [px::ablations::budget_cap_ablation(&cfg).unwrap()];
    out.push(("ablation_a1_gain", digest_series(&a1, |l| l == "gain")));
    out.push((
        "ablation_a1_detect1_recall",
        digest_series(&a1, |l| l == "detect1_recall"),
    ));
    out.push((
        "ablation_a2",
        digest(&[px::ablations::padding_ablation(&cfg).unwrap()]),
    ));
    out.push((
        "ablation_a3",
        digest(&[px::ablations::prioritization_ablation(&cfg).unwrap()]),
    ));
    out.push((
        "ablation_a4",
        digest(&[px::ablations::degree_source_ablation(&cfg)]),
    ));
    out
}

fn render(digests: &[(&str, u64)]) -> String {
    digests
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect()
}

#[test]
fn figure_digests_hold_at_two_thread_caps() {
    set_thread_cap(1);
    let one = digests();
    set_thread_cap(4);
    let four = digests();
    clear_thread_cap();
    assert_eq!(
        one,
        four,
        "digests differ between thread caps 1 and 4:\ncap 1:\n{}cap 4:\n{}",
        render(&one),
        render(&four)
    );
    assert_eq!(
        one,
        EXPECTED,
        "figure digests moved; the current values are:\n{}",
        render(&one)
    );
}
