//! Property-based tests for the JSON kernel that decodes every request
//! body of the serving API (`faircap::core::wire::Json::parse`). Bodies
//! come off the network, so the parser sees arbitrary bytes: it must
//! return a value or an error — never panic — and must refuse nesting
//! deeper than 64 levels with an error instead of recursing without bound.

use faircap::core::wire::Json;
use proptest::prelude::*;

/// The nesting bound `Json::parse` documents.
const MAX_DEPTH: usize = 64;

/// A document of `depth` nested containers, each an array or an object
/// (one field, key `"k"`) as `kinds` picks level by level, around an
/// empty innermost container; a lone `0` at depth 0.
fn nested(depth: usize, kinds: &[bool]) -> String {
    if depth == 0 {
        return "0".into();
    }
    let object = |level: usize| kinds[level % kinds.len()];
    let mut doc = String::new();
    for level in 0..depth - 1 {
        doc.push_str(if object(level) { "{\"k\":" } else { "[" });
    }
    doc.push_str(if object(depth - 1) { "{}" } else { "[]" });
    for level in (0..depth - 1).rev() {
        doc.push(if object(level) { '}' } else { ']' });
    }
    doc
}

/// JSON-ish fragments, so random documents get past the first byte.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{".to_string()),
        Just("}".to_string()),
        Just("[".to_string()),
        Just("]".to_string()),
        Just(",".to_string()),
        Just(":".to_string()),
        Just("\"k\"".to_string()),
        Just("\"\\u00e9\\n\"".to_string()),
        Just("\"\\ud800\"".to_string()),
        Just("\"\\u".to_string()),
        Just("\\".to_string()),
        Just("\"".to_string()),
        Just("null".to_string()),
        Just("tru".to_string()),
        Just("-".to_string()),
        Just("1e999".to_string()),
        Just("-0.5E-3".to_string()),
        Just("01".to_string()),
        Just(" \n\t".to_string()),
        "[a-z0-9é\\\\\"]{0,4}",
    ]
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(tokens in prop::collection::vec(token(), 0..64)) {
        let doc = tokens.concat();
        if let Ok(value) = Json::parse(&doc) {
            // Whatever parses renders back to a document that parses.
            prop_assert!(Json::parse(&value.render()).is_ok(), "{doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded(
        depth in 0usize..=200,
        kinds in prop::collection::vec(any::<bool>(), 1..8),
        cut in 0usize..1_000_000,
    ) {
        let doc = nested(depth, &kinds);
        let parsed = Json::parse(&doc);
        prop_assert_eq!(parsed.is_ok(), depth <= MAX_DEPTH, "depth {}: {:?}", depth, parsed);
        // Any proper prefix of a container document is unterminated.
        if depth > 0 {
            let end = cut % doc.len();
            prop_assert!(Json::parse(&doc[..end]).is_err());
        }
    }
}

#[test]
fn depth_bound_is_exact() {
    for depth in 0..=200 {
        for kinds in [[false], [true]] {
            let doc = nested(depth, &kinds);
            match Json::parse(&doc) {
                Ok(_) => assert!(depth <= MAX_DEPTH, "depth {depth} accepted"),
                Err(e) => {
                    assert!(depth > MAX_DEPTH, "depth {depth} rejected: {e}");
                    assert!(e.contains("too deep"), "depth {depth}: {e}");
                }
            }
        }
    }
}
