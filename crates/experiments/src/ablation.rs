//! EXP-T5/T6 — Table V (Other-sec ablation) and Table VI (random-data
//! control) on the commercial AVs.

use crate::commercial::CommercialResults;
use crate::orchestrator::CampaignKind;
use serde::{Deserialize, Serialize};

/// The attacks of Tables V and VI: both ablations and their shared
/// MPass reference row.
pub const ROSTER: [&str; 3] = ["Other-sec", "Random data", "MPass"];

/// Results of both ablation tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResults {
    /// Other-sec ASR per AV (Table V row 1).
    pub other_sec: Vec<f64>,
    /// Random-data ASR per AV (Table VI row 1).
    pub random_data: Vec<f64>,
    /// MPass ASR per AV (shared reference row).
    pub mpass: Vec<f64>,
}

/// Tables V and VI as a view over commercial cells.
impl From<&CommercialResults> for AblationResults {
    fn from(grid: &CommercialResults) -> Self {
        AblationResults {
            other_sec: grid.asr_row("Other-sec"),
            random_data: grid.asr_row("Random data"),
            mpass: grid.asr_row("MPass"),
        }
    }
}

impl AblationResults {
    /// Format Table V.
    pub fn table5(&self) -> String {
        crate::table::format_table(
            "TABLE V: Impact of changing modification positions on commercial ML AVs (ASR %).",
            "Method",
            &CampaignKind::Commercial.default_targets(),
            &[
                ("Other-sec".to_owned(), self.other_sec.clone()),
                ("MPass".to_owned(), self.mpass.clone()),
            ],
            1,
        )
    }

    /// Format Table VI.
    pub fn table6(&self) -> String {
        crate::table::format_table(
            "TABLE VI: ASR (%) of modified malware with random data vs MPass on commercial ML AVs.",
            "Method",
            &CampaignKind::Commercial.default_targets(),
            &[
                ("Random data".to_owned(), self.random_data.clone()),
                ("MPass".to_owned(), self.mpass.clone()),
            ],
            1,
        )
    }
}
