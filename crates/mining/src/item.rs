//! Attribute–value items: the atoms of grouping and intervention patterns.

use faircap_table::{Column, DataFrame, LevelMasks, Mask, Predicate, Result, Value};

/// Per attribute, at most this many values become items in FairCap's
/// Steps 1 and 2: the most frequent ones inside the mined row set.
pub const MAX_VALUES_PER_ATTR: usize = 24;

/// Enumerate equality items `attr = value` for each attribute, with their
/// support masks inside `within`.
///
/// * Categorical / boolean / integer columns contribute one item per distinct
///   value observed inside `within`.
/// * Float columns are skipped (the paper's datasets pre-bin continuous
///   attributes; our generators do the same).
/// * Per attribute, at most `max_values_per_attr` items survive, keeping the
///   highest-support values (deterministic tie-break on value order).
pub fn single_attribute_items(
    df: &DataFrame,
    attrs: &[String],
    within: &Mask,
    max_values_per_attr: usize,
) -> Result<Vec<(Predicate, Mask)>> {
    let mut out = Vec::new();
    for attr in attrs {
        let col = df.column(attr)?;
        if matches!(col, Column::Float(_)) {
            continue;
        }
        let mut groups: Vec<(Value, Mask)> = df.group_masks(attr, within)?;
        if groups.len() > max_values_per_attr {
            // Keep the most frequent values; sort is stable so value order
            // breaks ties deterministically.
            groups.sort_by(|a, b| b.1.count().cmp(&a.1.count()).then(a.0.cmp(&b.0)));
            groups.truncate(max_values_per_attr);
            groups.sort_by(|a, b| a.0.cmp(&b.0));
        }
        for (value, mask) in groups {
            out.push((Predicate::eq(attr, value), mask));
        }
    }
    Ok(out)
}

/// The equality items of `attr` inside `within` from its full-frame level
/// masks ([`DataFrame::level_masks`]): one word AND per level instead of a
/// pass over `within`'s rows. For an attribute whose level masks were
/// built with a bound of at most `max_values_per_attr`, this is what
/// [`single_attribute_items`] returns for it, in the same order: no group
/// holds more levels than the frame, so the cap never truncates.
pub fn items_from_levels(attr: &str, levels: &LevelMasks, within: &Mask) -> Vec<(Predicate, Mask)> {
    levels
        .within(within)
        .into_iter()
        .map(|(value, mask)| (Predicate::eq(attr, value), mask))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::builder()
            .cat("color", &["r", "g", "r", "b", "r", "g"])
            .int("size", vec![1, 2, 1, 1, 2, 2])
            .float("weight", vec![0.5; 6])
            .bool("heavy", vec![true, false, true, false, true, false])
            .build()
            .unwrap()
    }

    #[test]
    fn items_for_each_supported_type() {
        let items = single_attribute_items(
            &df(),
            &[
                "color".into(),
                "size".into(),
                "weight".into(),
                "heavy".into(),
            ],
            &Mask::ones(6),
            16,
        )
        .unwrap();
        // color: 3, size: 2, weight skipped (float), heavy: 2.
        assert_eq!(items.len(), 7);
        let (p, m) = items
            .iter()
            .find(|(p, _)| p.to_string() == "color = r")
            .unwrap();
        assert_eq!(p.attr, "color");
        assert_eq!(m.to_indices(), vec![0, 2, 4]);
    }

    #[test]
    fn cardinality_cap_keeps_most_frequent() {
        let values: Vec<String> = (0..30)
            .map(|i| {
                if i < 20 {
                    format!("common{}", i % 2)
                } else {
                    format!("rare{i}")
                }
            })
            .collect();
        let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
        let d = DataFrame::builder().cat("v", &refs).build().unwrap();
        let items = single_attribute_items(&d, &["v".into()], &Mask::ones(30), 3).unwrap();
        assert_eq!(items.len(), 3);
        // The two common values (10 rows each) must survive.
        let names: Vec<String> = items.iter().map(|(p, _)| p.value.to_string()).collect();
        assert!(names.contains(&"common0".to_owned()));
        assert!(names.contains(&"common1".to_owned()));
    }

    #[test]
    fn within_limits_observed_values() {
        let d = df();
        let within = Mask::from_indices(6, &[0, 2]); // only "r" rows
        let items = single_attribute_items(&d, &["color".into()], &within, 16).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0.to_string(), "color = r");
        assert_eq!(items[0].1.count(), 2);
    }

    #[test]
    fn unknown_attribute_errors() {
        assert!(single_attribute_items(&df(), &["ghost".into()], &Mask::ones(6), 16).is_err());
    }
}
