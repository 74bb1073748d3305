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

    /// Score = channel discrepancy `|reported − calibrated bit degree|`
    /// (the quantity the `max + k·σ` threshold cuts).
    fn score_users(&self, reports: &[AdjacencyReport], protocol: &LfGdpr) -> Vec<f64> {
        reports
            .iter()
            .map(|r| (r.degree - Self::calibrated_bit_degree(r, protocol).max(0.0)).abs())
            .collect()
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        mut rng: &mut dyn rand::RngCore,
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

        // Removal: a flagged user's claimed connections disappear from the
        // aggregate (restoring genuine nodes' degrees, §VII-B step 3). The
        // row is re-drawn as an RR pass over an empty neighborhood so the
        // slots still carry the mechanism noise calibration assumes.
        let mut repaired: Vec<AdjacencyReport> = reports.to_vec();
        let flips = protocol.rr().flip_sampler();
        for (f, (report, &is_flagged)) in repaired.iter_mut().zip(&flagged).enumerate() {
            if is_flagged {
                let n = report.population();
                let empty = BitSet::new(n);
                report.bits = flips.perturb_bitset(&empty, Some(f), &mut rng);
                report.degree = protocol
                    .laplace()
                    .perturb_degree(0.0, (n - 1) as f64, &mut rng);
            }
        }
        FilterDecision { repaired, flagged }
    }
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
