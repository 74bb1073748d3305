//! Table II: the evaluation datasets — paper statistics next to the
//! generated synthetic stand-ins the figures run on at the current scale
//! ([`ExperimentConfig::graph_for`]; Figs. 6–8 run Gplus larger, see
//! [`ExperimentConfig::degree_sweep_nodes_for`]).

use crate::config::ExperimentConfig;
use ldp_graph::datasets::{table2_row, Dataset, DatasetStats};

/// Builds one row per dataset from the configuration's stand-in.
pub fn run(cfg: &ExperimentConfig) -> Vec<DatasetStats> {
    Dataset::ALL
        .iter()
        .map(|&d| table2_row(d, &cfg.graph_for(d)))
        .collect()
}

/// Renders the rows as a markdown table.
pub fn to_markdown(rows: &[DatasetStats]) -> String {
    let mut out = String::from(
        "### Table II: datasets (paper vs. generated stand-in)\n\
         | Dataset | paper N | paper E | generated N | generated E | avg degree | degree gini | max degree |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.2} | {} |\n",
            row.dataset.name(),
            row.paper_nodes,
            row.paper_edges,
            row.generated_nodes,
            row.generated_edges,
            row.generated_avg_degree,
            row.generated_degree_gini,
            row.generated_max_degree,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows_with_paper_constants() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].paper_nodes, 4_039);
        assert_eq!(rows[3].paper_edges, 12_238_285);
        for r in &rows {
            assert!(r.generated_nodes >= 200);
            assert!(r.generated_edges > 0);
        }
    }

    #[test]
    fn rows_describe_the_figures_graphs() {
        for scale in [0.1, 0.5] {
            let cfg = ExperimentConfig {
                scale,
                ..ExperimentConfig::smoke()
            };
            for (row, d) in run(&cfg).iter().zip(Dataset::ALL) {
                assert_eq!(row.dataset, d);
                assert_eq!(row.generated_nodes, cfg.nodes_for(d), "{d:?} at {scale}");
            }
        }
    }

    #[test]
    fn markdown_renders_all_datasets() {
        let rows = run(&ExperimentConfig::smoke());
        let md = to_markdown(&rows);
        for name in ["Facebook", "Enron", "AstroPh", "Gplus"] {
            assert!(md.contains(name));
        }
    }
}
