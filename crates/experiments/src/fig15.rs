#[cfg(test)]
mod tests {
    // Smoke tests of Fig. 15 under its own module path; the figure is
    // [`protocols::FIG15`](crate::protocols::FIG15).
    use crate::config::ExperimentConfig;
    use crate::output::tests::assert_panel;
    use crate::protocols::FIG15;

    #[test]
    fn both_panels_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 59,
        };
        let a = FIG15.panel_a(&cfg, &[4.0]).unwrap();
        let b = FIG15.panel_b(&cfg, &[4.0]).unwrap();
        assert_panel(&a, "Fig 15(a) LF-GDPR", &["RVA", "RNA", "MGA"], 1);
        assert_panel(&b, "Fig 15(b) LDPGen", &["RVA", "RNA", "MGA"], 1);
        assert_eq!(a.y_label, FIG15.y_label);
        assert_eq!(b.y_label, FIG15.y_label);
    }
}
