//! Degree-consistency detection — "Detect2" (paper §VII-B).
//!
//! A genuine user's two channels agree up to noise: the RR-calibrated
//! popcount of its bit vector estimates the same degree the Laplace channel
//! reports. RVA breaks that tie by drawing its degree value uniformly from
//! the whole degree space. The defense flags users whose channel
//! discrepancy exceeds `max(calibrated bit degree over all users) + k·σ`
//! with `σ` the Laplace standard deviation (`k = 3` in the paper), then
//! removes the flagged users' claimed connections — implemented as
//! substituting a null-perturbation row, which keeps the population's
//! noise calibration intact (see [`poison_core::Defense`]).

use ldp_graph::BitSet;
use ldp_protocols::{AdjacencyReport, FilterDecision, LfGdpr};
use poison_core::Defense;

/// Configuration of the degree-consistency defense.
#[derive(Debug, Clone, Copy)]
pub struct DegreeConsistencyDefense {
    /// Multiplier `k` on the Laplace standard deviation in the threshold
    /// (paper: 3).
    pub sigma_multiplier: f64,
}

impl Default for DegreeConsistencyDefense {
    fn default() -> Self {
        DegreeConsistencyDefense {
            sigma_multiplier: 3.0,
        }
    }
}

impl DegreeConsistencyDefense {
    /// The calibrated degree implied by a report's bit vector.
    fn calibrated_bit_degree(report: &AdjacencyReport, protocol: &LfGdpr) -> f64 {
        let n = report.population() as f64;
        protocol
            .rr()
            .calibrate_count(report.bit_degree() as f64, n - 1.0)
    }
}

impl Defense for DegreeConsistencyDefense {
    fn name(&self) -> &'static str {
        "Detect2"
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn rand::RngCore,
    ) -> FilterDecision {
        let sigma = protocol.laplace().std_dev();
        let calibrated: Vec<f64> = reports
            .iter()
            .map(|r| Self::calibrated_bit_degree(r, protocol).max(0.0))
            .collect();
        let max_calibrated = calibrated.iter().copied().fold(0.0f64, f64::max);
        let threshold = max_calibrated + self.sigma_multiplier * sigma;

        let flagged: Vec<bool> = reports
            .iter()
            .zip(&calibrated)
            .map(|(r, &c)| (r.degree - c).abs() > threshold)
            .collect();

        let repaired = remove_flagged(reports, &flagged, protocol, rng);
        FilterDecision { repaired, flagged }
    }
}

/// Removal (§VII-B step 3), shared by Detect2 and Naive2: a flagged user's
/// claimed connections disappear from the aggregate, restoring genuine
/// nodes' degrees. Each flagged row, in id order, is re-drawn from `rng`
/// as an RR pass over an empty neighborhood plus a Laplace degree of 0, so
/// its slots still carry the mechanism noise calibration assumes.
/// Unflagged rows are returned unchanged.
pub(crate) fn remove_flagged(
    reports: &[AdjacencyReport],
    flagged: &[bool],
    protocol: &LfGdpr,
    mut rng: &mut dyn rand::RngCore,
) -> Vec<AdjacencyReport> {
    let mut repaired: Vec<AdjacencyReport> = reports.to_vec();
    let flips = protocol.rr().flip_sampler();
    for (f, (report, &is_flagged)) in repaired.iter_mut().zip(flagged).enumerate() {
        if is_flagged {
            let n = report.population();
            let empty = BitSet::new(n);
            report.bits = flips.perturb_bitset(&empty, Some(f), &mut rng);
            report.degree = protocol
                .laplace()
                .perturb_degree(0.0, (n - 1) as f64, &mut rng);
        }
    }
    repaired
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::caveman_graph;
    use ldp_graph::Xoshiro256pp;
    use rand::Rng;

    #[test]
    fn honest_users_pass() {
        let g = caveman_graph(10, 8);
        let protocol = LfGdpr::new(4.0).unwrap();
        let base = Xoshiro256pp::new(1);
        let reports = protocol.collect_honest(&g, &base);
        let result = DegreeConsistencyDefense::default().filter_reports(
            &reports,
            &protocol,
            &mut Xoshiro256pp::new(0xD0),
        );
        let flagged = result.flagged.iter().filter(|&&f| f).count();
        assert_eq!(flagged, 0, "honest population must produce no flags");
    }

    #[test]
    fn rva_style_degrees_get_flagged() {
        let g = caveman_graph(10, 8);
        let n = g.num_nodes();
        let protocol = LfGdpr::new(4.0).unwrap();
        let base = Xoshiro256pp::new(2);
        let mut reports = protocol.collect_honest(&g, &base);
        // Replace the last 8 reports with RVA-style ones: plausible bits
        // (unperturbed sparse vector) + degree drawn at the top of the
        // degree space, far from the calibrated value.
        let mut rng = Xoshiro256pp::new(3);
        for report in reports.iter_mut().skip(n - 8) {
            let mut bits = BitSet::new(n);
            for _ in 0..10 {
                bits.set(rng.gen_range(0..n));
            }
            *report = AdjacencyReport::new(bits, (n - 1) as f64);
        }
        let result = DegreeConsistencyDefense::default().filter_reports(
            &reports,
            &protocol,
            &mut Xoshiro256pp::new(0xD0),
        );
        let fake_flagged = result.flagged[n - 8..].iter().filter(|&&f| f).count();
        assert!(
            fake_flagged >= 6,
            "RVA-style reports should be caught: {fake_flagged}/8"
        );
        // Flagged rows are neutralized: the absurd degree value is gone and
        // the bits are a fresh null-perturbation (self slot clear).
        for (i, rep) in result.repaired.iter().enumerate() {
            if result.flagged[i] {
                assert!(
                    rep.degree < 5.0,
                    "degree value should be near zero: {}",
                    rep.degree
                );
                assert!(!rep.bits.get(i));
            }
        }
    }

    #[test]
    fn removal_redraws_only_flagged_rows_like_the_inline_loop() {
        let g = caveman_graph(25, 8);
        let protocol = LfGdpr::new(2.0).unwrap();
        let reports = protocol.collect_honest(&g, &Xoshiro256pp::new(5));
        let mut flag_rng = Xoshiro256pp::new(6);
        for seed in 0..8u64 {
            let flagged: Vec<bool> = (0..reports.len()).map(|_| flag_rng.gen_bool(0.2)).collect();
            let repaired =
                remove_flagged(&reports, &flagged, &protocol, &mut Xoshiro256pp::new(seed));
            // Reference: the same per-row loop, written out.
            let mut rng = Xoshiro256pp::new(seed);
            let flips = protocol.rr().flip_sampler();
            for (f, (orig, rep)) in reports.iter().zip(&repaired).enumerate() {
                let (bits, degree) = if flagged[f] {
                    let n = orig.population();
                    let bits = flips.perturb_bitset(&BitSet::new(n), Some(f), &mut rng);
                    let degree = protocol
                        .laplace()
                        .perturb_degree(0.0, (n - 1) as f64, &mut rng);
                    (bits, degree)
                } else {
                    (orig.bits.clone(), orig.degree)
                };
                assert_eq!(rep.bits, bits, "seed {seed} row {f}");
                assert_eq!(
                    rep.degree.to_bits(),
                    degree.to_bits(),
                    "seed {seed} row {f}"
                );
            }
        }
    }

    #[test]
    fn threshold_scales_with_sigma_multiplier() {
        let g = caveman_graph(6, 6);
        let protocol = LfGdpr::new(2.0).unwrap();
        let base = Xoshiro256pp::new(4);
        let reports = protocol.collect_honest(&g, &base);
        // A negative multiplier forces the threshold below honest noise →
        // many flags; the default threshold flags none.
        let harsh = DegreeConsistencyDefense {
            sigma_multiplier: -1000.0,
        };
        let strict = harsh.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        let lenient = DegreeConsistencyDefense::default().filter_reports(
            &reports,
            &protocol,
            &mut Xoshiro256pp::new(0xD0),
        );
        let harsh_count = strict.flagged.iter().filter(|&&f| f).count();
        let lenient_count = lenient.flagged.iter().filter(|&&f| f).count();
        assert!(harsh_count > lenient_count);
    }
}
