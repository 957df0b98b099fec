//! Table I: dataset taxonomy (train / known-test / unknown sample counts).

use crate::study::{Corpus, Study};
use hmd_data::taxonomy::DatasetTaxonomy;
use serde::{Deserialize, Serialize};

/// The two rows of Table I plus the counts the paper reports, for direct
/// comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// Taxonomy of the generated DVFS corpus.
    pub dvfs: DatasetTaxonomy,
    /// Taxonomy of the generated HPC corpus.
    pub hpc: DatasetTaxonomy,
    /// The paper's DVFS counts (train, test, unknown).
    pub paper_dvfs: (usize, usize, usize),
    /// The paper's HPC counts (train, test, unknown).
    pub paper_hpc: (usize, usize, usize),
}

/// Regenerates Table I from the study's corpora (it fits nothing).
pub fn run(study: &Study) -> Table1 {
    use hmd_data::taxonomy::paper;
    let taxonomy = |corpus: Corpus| DatasetTaxonomy::from_split(corpus.name(), study.split(corpus));
    Table1 {
        dvfs: taxonomy(Corpus::Dvfs),
        hpc: taxonomy(Corpus::Hpc),
        paper_dvfs: (
            paper::DVFS_TRAIN,
            paper::DVFS_TEST_KNOWN,
            paper::DVFS_UNKNOWN,
        ),
        paper_hpc: (paper::HPC_TRAIN, paper::HPC_TEST_KNOWN, paper::HPC_UNKNOWN),
    }
}

/// Renders the table as text, paper counts alongside measured counts.
pub fn render(table: &Table1) -> String {
    let mut out = String::new();
    out.push_str("Table I: dataset taxonomy (measured vs. paper)\n");
    out.push_str(&format!(
        "{:<8} {:<14} {:>10} {:>10}\n",
        "Dataset", "Split", "measured", "paper"
    ));
    for (tax, paper) in [
        (&table.dvfs, table.paper_dvfs),
        (&table.hpc, table.paper_hpc),
    ] {
        out.push_str(&format!(
            "{:<8} {:<14} {:>10} {:>10}\n",
            tax.name, "Train", tax.train, paper.0
        ));
        out.push_str(&format!(
            "{:<8} {:<14} {:>10} {:>10}\n",
            "", "Test (Known)", tax.test_known, paper.1
        ));
        out.push_str(&format!(
            "{:<8} {:<14} {:>10} {:>10}\n",
            "", "Unknown", tax.unknown, paper.2
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn smoke_table_has_all_buckets_populated() {
        let table = run(&Study::new(ExperimentScale::Smoke, 3));
        assert!(table.dvfs.train > 0 && table.dvfs.unknown > 0);
        assert!(table.hpc.train > 0 && table.hpc.unknown > 0);
        assert_eq!(table.paper_dvfs, (2100, 700, 284));
        assert_eq!(table.paper_hpc, (44_605, 6372, 12_727));
    }

    #[test]
    fn render_mentions_every_split() {
        let table = run(&Study::new(ExperimentScale::Smoke, 4));
        let text = render(&table);
        assert!(text.contains("DVFS"));
        assert!(text.contains("HPC"));
        assert!(text.contains("Unknown"));
        assert!(text.contains("44605") || text.contains("44 605") || text.contains("44_605"));
    }
}
