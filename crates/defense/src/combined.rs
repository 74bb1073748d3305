//! Composition of the two countermeasures (an extension beyond the paper,
//! DESIGN.md §7): run Detect2's degree-consistency screen first (it is
//! cheap and catches RVA-style inconsistency), then Detect1's
//! frequent-itemset screen on the already-repaired uploads (it catches
//! MGA-style shared patterns). Flags are the union.

use crate::detect1::FrequentItemsetDefense;
use crate::detect2::DegreeConsistencyDefense;
use ldp_protocols::{AdjacencyReport, FilterDecision, LfGdpr};
use poison_core::Defense;

/// Detect2 followed by Detect1.
#[derive(Debug, Clone, Copy)]
pub struct CombinedDefense {
    /// The degree-consistency stage.
    pub degree: DegreeConsistencyDefense,
    /// The frequent-itemset stage.
    pub itemset: FrequentItemsetDefense,
}

impl CombinedDefense {
    /// Combines default Detect2 with Detect1 at the given flag threshold.
    pub fn new(itemset_threshold: usize) -> Self {
        CombinedDefense {
            degree: DegreeConsistencyDefense::default(),
            itemset: FrequentItemsetDefense::new(itemset_threshold),
        }
    }
}

impl Defense for CombinedDefense {
    fn name(&self) -> &'static str {
        "Detect1+Detect2"
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn rand::RngCore,
    ) -> FilterDecision {
        let first = self.degree.filter_reports(reports, protocol, rng);
        let second = self.itemset.filter_reports(&first.repaired, protocol, rng);
        let flagged: Vec<bool> = first
            .flagged
            .iter()
            .zip(&second.flagged)
            .map(|(&a, &b)| a || b)
            .collect();
        FilterDecision {
            repaired: second.repaired,
            flagged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::datasets::Dataset;
    use ldp_graph::Xoshiro256pp;
    use poison_core::{Attack, AttackerKnowledge, Mga, Rva, TargetMetric, ThreatModel};

    /// Build a population poisoned by BOTH attack styles: half the fakes
    /// run RVA (inconsistent degree), half run MGA (shared pattern).
    fn mixed_poisoned() -> (Vec<AdjacencyReport>, LfGdpr, usize, usize) {
        let graph = Dataset::Facebook.generate_with_nodes(400, 51);
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(400, 20, (0..20).collect());
        let knowledge =
            AttackerKnowledge::derive(&protocol, threat.population(), graph.average_degree());
        let extended = graph.with_isolated_nodes(threat.m_fake);
        let base = Xoshiro256pp::new(52);
        let mut reports = protocol.collect_honest(&extended, &base);
        let mut rng = base.derive(0xC4AF);
        let mga = Mga::default().craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        let rva = Rva.craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        for (offset, report) in mga.into_iter().take(10).enumerate() {
            reports[400 + offset] = report;
        }
        for (offset, report) in rva.into_iter().skip(10).take(10).enumerate() {
            reports[410 + offset] = report;
        }
        (reports, protocol, 400, 20)
    }

    #[test]
    fn combined_catches_more_than_either_alone() {
        let (reports, protocol, n_genuine, m_fake) = mixed_poisoned();
        let count_fakes = |flags: &[bool]| flags[n_genuine..].iter().filter(|&&f| f).count();
        let mut rng = Xoshiro256pp::new(53);
        let combined = CombinedDefense::new(40).filter_reports(&reports, &protocol, &mut rng);
        let mut rng = Xoshiro256pp::new(53);
        let d1_only = FrequentItemsetDefense::new(40).filter_reports(&reports, &protocol, &mut rng);
        let mut rng = Xoshiro256pp::new(53);
        let d2_only =
            DegreeConsistencyDefense::default().filter_reports(&reports, &protocol, &mut rng);
        let c = count_fakes(&combined.flagged);
        let a = count_fakes(&d1_only.flagged);
        let b = count_fakes(&d2_only.flagged);
        assert!(
            c >= a && c >= b,
            "combined {c} should cover Detect1 {a} and Detect2 {b}"
        );
        assert!(c > 0);
        let _ = m_fake;
    }

    #[test]
    fn combined_flag_vector_is_union() {
        let (reports, protocol, _, _) = mixed_poisoned();
        let mut rng = Xoshiro256pp::new(54);
        let combined = CombinedDefense::new(40).filter_reports(&reports, &protocol, &mut rng);
        assert_eq!(combined.flagged.len(), reports.len());
        assert_eq!(combined.repaired.len(), reports.len());
    }

    #[test]
    fn honest_population_untouched() {
        let graph = Dataset::Facebook.generate_with_nodes(300, 55);
        let protocol = LfGdpr::new(4.0).unwrap();
        let base = Xoshiro256pp::new(56);
        let reports = protocol.collect_honest(&graph, &base);
        let mut rng = Xoshiro256pp::new(57);
        let app = CombinedDefense::new(10_000).filter_reports(&reports, &protocol, &mut rng);
        assert!(app.flagged.iter().all(|&f| !f));
    }
}
