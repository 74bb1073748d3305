#[cfg(test)]
mod tests {
    // Smoke tests of Fig. 12 under its own module path; the figure is
    // [`countermeasures::FIG12`](crate::countermeasures::FIG12).
    use crate::config::ExperimentConfig;
    use crate::countermeasures::FIG12;
    use crate::output::tests::assert_panel;

    #[test]
    fn panel_a_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 37,
        };
        let fig = FIG12.panel_a(&cfg, &[50, 300]).unwrap();
        assert_panel(&fig, "Fig 12(a)", &["Detect1", "Naive1", "NoDefense"], 2);
    }

    #[test]
    fn panel_b_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 41,
        };
        let fig = FIG12.panel_b(&cfg, &[0.01, 0.1]).unwrap();
        assert_panel(&fig, "Fig 12(b)", &["Detect2", "Naive2", "NoDefense"], 2);
    }
}
