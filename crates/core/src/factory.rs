//! Factory for instantiating any of the evaluated heuristics by name —
//! the experiment harness and CLI build mappers through this.

use crate::baselines::ScalarMapper;
use crate::moc::Moc;
use crate::pam::Pam;
use crate::pruner::PruningConfig;
use hcsim_sim::{FirstFitMapper, Mapper};
use serde::{Deserialize, Serialize};

/// The heuristics evaluated in §VII, plus the FirstFit floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeuristicKind {
    /// Pruning-Aware Mapper (the paper's contribution).
    Pam,
    /// Fair Pruning Mapper.
    Pamf,
    /// Max On-time Completions.
    Moc,
    /// MinCompletion-MinCompletion.
    Mm,
    /// MinCompletion-SoonestDeadline.
    Msd,
    /// MinCompletion-MaxUrgency.
    Mmu,
    /// First-fit (not in the paper; a sanity floor).
    FirstFit,
}

impl HeuristicKind {
    /// All heuristics compared in Fig. 7, in the paper's legend order.
    pub const FIG7: [HeuristicKind; 6] = [
        HeuristicKind::Pam,
        HeuristicKind::Pamf,
        HeuristicKind::Moc,
        HeuristicKind::Mm,
        HeuristicKind::Msd,
        HeuristicKind::Mmu,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Pam => "PAM",
            HeuristicKind::Pamf => "PAMF",
            HeuristicKind::Moc => "MOC",
            HeuristicKind::Mm => "MM",
            HeuristicKind::Msd => "MSD",
            HeuristicKind::Mmu => "MMU",
            HeuristicKind::FirstFit => "FirstFit",
        }
    }

    /// Parses a (case-insensitive) heuristic name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "pam" => Some(HeuristicKind::Pam),
            "pamf" => Some(HeuristicKind::Pamf),
            "moc" => Some(HeuristicKind::Moc),
            "mm" | "minmin" => Some(HeuristicKind::Mm),
            "msd" => Some(HeuristicKind::Msd),
            "mmu" => Some(HeuristicKind::Mmu),
            "firstfit" | "ff" => Some(HeuristicKind::FirstFit),
            _ => None,
        }
    }

    /// Instantiates the mapper. `config` parameterizes PAM/PAMF; MOC
    /// inherits only its `threads` fan-out knob (its own tunables stay at
    /// the paper's values); the scalar baselines ignore it entirely.
    #[must_use]
    pub fn build(self, config: PruningConfig) -> Box<dyn Mapper> {
        match self {
            HeuristicKind::Pam => Box::new(Pam::new(config)),
            HeuristicKind::Pamf => Box::new(Pam::with_fairness(config)),
            HeuristicKind::Moc => Box::new(Moc::new(config.threads)),
            HeuristicKind::Mm => Box::new(ScalarMapper::mm()),
            HeuristicKind::Msd => Box::new(ScalarMapper::msd()),
            HeuristicKind::Mmu => Box::new(ScalarMapper::mmu()),
            HeuristicKind::FirstFit => Box::new(FirstFitMapper),
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for kind in [
            HeuristicKind::Pam,
            HeuristicKind::Pamf,
            HeuristicKind::Moc,
            HeuristicKind::Mm,
            HeuristicKind::Msd,
            HeuristicKind::Mmu,
            HeuristicKind::FirstFit,
        ] {
            assert_eq!(HeuristicKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(HeuristicKind::parse("minmin"), Some(HeuristicKind::Mm));
        assert_eq!(HeuristicKind::parse("nonsense"), None);
    }

    #[test]
    fn build_produces_named_mappers() {
        let cfg = PruningConfig::default();
        for kind in HeuristicKind::FIG7 {
            let mapper = kind.build(cfg);
            assert_eq!(mapper.name(), kind.name());
        }
    }

    #[test]
    fn fig7_order_matches_paper_legend() {
        let names: Vec<_> = HeuristicKind::FIG7.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["PAM", "PAMF", "MOC", "MM", "MSD", "MMU"]);
    }
}
