//! Step 1 (§5.1): mine grouping patterns over the immutable attributes with
//! the Apriori algorithm.

use crate::config::{CoverageConstraint, FairCapConfig};
use faircap_mining::{
    apriori_with_stats, AprioriConfig, FrequentPattern, MiningStats, MAX_VALUES_PER_ATTR,
};
use faircap_table::{DataFrame, Mask, Result};

/// Mine candidate grouping patterns, with the Apriori [`MiningStats`]
/// (candidate pipeline accounting for the solve report).
///
/// The Apriori support threshold is the configured τ, raised to the rule-
/// coverage θ when a rule-coverage constraint is active (§5.4: "we set the
/// Apriori's threshold to ensure that each mined grouping pattern covers a
/// sufficient number of individuals"). Patterns failing the per-rule
/// protected-coverage requirement are filtered here too, so later steps
/// never waste CATE estimations on them.
pub fn mine_grouping_patterns_with_stats(
    df: &DataFrame,
    immutable: &[String],
    protected: &Mask,
    config: &FairCapConfig,
) -> Result<(Vec<FrequentPattern>, MiningStats)> {
    let mut min_support = config.apriori_threshold;
    if let CoverageConstraint::Rule { theta, .. } = config.coverage {
        min_support = min_support.max(theta);
    }
    let (patterns, stats) = apriori_with_stats(
        df,
        immutable,
        &Mask::ones(df.n_rows()),
        &AprioriConfig {
            min_support,
            max_len: config.max_group_len,
            max_values_per_attr: MAX_VALUES_PER_ATTR,
        },
    )?;
    let filtered = match config.coverage {
        CoverageConstraint::Rule {
            theta_protected, ..
        } => {
            let need = (theta_protected * protected.count() as f64).ceil() as usize;
            patterns
                .into_iter()
                .filter(|p| p.support.intersect_count(protected) >= need)
                .collect()
        }
        _ => patterns,
    };
    Ok((filtered, stats))
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively
mod tests {
    use super::*;
    use crate::config::FairCapConfig;
    use faircap_table::DataFrame;

    fn df() -> DataFrame {
        let ages: Vec<&str> = (0..40)
            .map(|i| if i % 2 == 0 { "young" } else { "old" })
            .collect();
        let grp: Vec<&str> = (0..40).map(|i| if i < 8 { "p" } else { "np" }).collect();
        DataFrame::builder()
            .cat("age", &ages)
            .cat("grp", &grp)
            .build()
            .unwrap()
    }

    fn protected() -> Mask {
        Mask::from_indices(40, &(0..8).collect::<Vec<_>>())
    }

    fn mine(immutable: &[&str], cfg: &FairCapConfig) -> Vec<FrequentPattern> {
        let immutable: Vec<String> = immutable.iter().map(|a| a.to_string()).collect();
        mine_grouping_patterns_with_stats(&df(), &immutable, &protected(), cfg)
            .unwrap()
            .0
    }

    #[test]
    fn mines_with_default_threshold() {
        let cfg = FairCapConfig::default();
        let pats = mine(&["age", "grp"], &cfg);
        assert!(!pats.is_empty());
        // Every pattern covers ≥ 10% of 40 = 4 rows.
        assert!(pats.iter().all(|p| p.count() >= 4));
    }

    #[test]
    fn rule_coverage_raises_threshold() {
        let mut cfg = FairCapConfig::default();
        cfg.coverage = CoverageConstraint::Rule {
            theta: 0.45,
            theta_protected: 0.0,
        };
        let pats = mine(&["age"], &cfg);
        // Both "young" (20) and "old" (20) meet 45% of 40 = 18.
        assert_eq!(pats.len(), 2);
        cfg.coverage = CoverageConstraint::Rule {
            theta: 0.55,
            theta_protected: 0.0,
        };
        let pats = mine(&["age"], &cfg);
        assert!(pats.is_empty());
    }

    #[test]
    fn protected_coverage_filter() {
        let mut cfg = FairCapConfig::default();
        cfg.coverage = CoverageConstraint::Rule {
            theta: 0.1,
            theta_protected: 0.6,
        };
        // protected rows 0..8 are split: young = {0,2,4,6} (4 of 8 = 50%),
        // old = {1,3,5,7} (50%). Requiring 60% kills both.
        let pats = mine(&["age"], &cfg);
        assert!(pats.is_empty());
        cfg.coverage = CoverageConstraint::Rule {
            theta: 0.1,
            theta_protected: 0.5,
        };
        let pats = mine(&["age"], &cfg);
        assert_eq!(pats.len(), 2);
    }
}
