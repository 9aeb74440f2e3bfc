//! EXP-T4 — Table IV: generic obfuscators (UPX, PESpin, ASPack) versus
//! MPass on the commercial AVs.

use crate::commercial::CommercialResults;
use crate::orchestrator::CampaignKind;
use serde::{Deserialize, Serialize};

/// Table IV's rows, in table order: the three packers (by
/// `packer_profiles()` name), then MPass.
pub const ROSTER: [&str; 4] = ["UPX", "PESpin", "ASPack", "MPass"];

/// Table IV contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackerResults {
    /// Rows: obfuscator/attack name → ASR (%) per AV₁..AV₅.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Table IV as a view over commercial cells: one ASR row per [`ROSTER`]
/// name.
impl From<&CommercialResults> for PackerResults {
    fn from(grid: &CommercialResults) -> Self {
        let rows = ROSTER.iter().map(|a| ((*a).to_owned(), grid.asr_row(a))).collect();
        PackerResults { rows }
    }
}

impl PackerResults {
    /// Format Table IV.
    pub fn table4(&self) -> String {
        crate::table::format_table(
            "TABLE IV: Comparison with obfuscation techniques on ASR (%) of attacking commercial AVs.",
            "Method",
            &CampaignKind::Commercial.default_targets(),
            &self.rows,
            1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::AblationResults;
    use crate::commercial::run;
    use crate::offline::ATTACK_NAMES;
    use crate::world::{World, WorldConfig};
    use mpass_engine::Engine;

    /// Tables IV–VI repeat Figure 3's MPass row: the same shards, run
    /// through the same commercial grid, must give the same ASRs.
    #[test]
    fn tables_4_to_6_repeat_the_figure3_mpass_row() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let engine = Engine::new(Default::default());
        let mpass = run(&world, &engine, &ATTACK_NAMES).0.asr_row("MPass");
        assert_eq!(mpass.len(), 5);

        let t4 = PackerResults::from(&run(&world, &engine, &ROSTER).0);
        let names: Vec<&str> = t4.rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["UPX", "PESpin", "ASPack", "MPass"]);
        assert!(t4.rows.iter().all(|(_, v)| v.len() == 5));
        assert_eq!(t4.rows[3].1, mpass);
        assert!(t4.table4().contains("TABLE IV"));

        let ab = AblationResults::from(&run(&world, &engine, &crate::ablation::ROSTER).0);
        assert_eq!(ab.other_sec.len(), 5);
        assert_eq!(ab.random_data.len(), 5);
        assert_eq!(ab.mpass, mpass);
        assert!(ab.table5().contains("Other-sec"));
        assert!(ab.table6().contains("Random data"));
    }
}
