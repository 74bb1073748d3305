#[cfg(test)]
mod tests {
    // Smoke tests of Fig. 14 under its own module path; the figure is
    // [`protocols::FIG14`](crate::protocols::FIG14).
    use crate::config::ExperimentConfig;
    use crate::output::tests::assert_panel;
    use crate::protocols::FIG14;

    #[test]
    fn both_panels_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 53,
        };
        let a = FIG14.panel_a(&cfg, &[4.0]).unwrap();
        let b = FIG14.panel_b(&cfg, &[4.0]).unwrap();
        assert_panel(&a, "Fig 14(a) LF-GDPR", &["RVA", "RNA", "MGA"], 1);
        assert_panel(&b, "Fig 14(b) LDPGen", &["RVA", "RNA", "MGA"], 1);
        assert_eq!(a.y_label, FIG14.y_label);
        assert_eq!(b.y_label, FIG14.y_label);
    }
}
