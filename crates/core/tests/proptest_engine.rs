//! Property-based tests on engine invariants:
//!
//! 1. the **item codec** round-trips arbitrary items exactly;
//! 2. **local and distributed execution agree** on arbitrary data for the
//!    paper's query shapes (the core §5.5/§5.8 seamless-switching claim);
//! 3. arbitrary query text never panics the front end.

use proptest::prelude::*;
use rumble_core::item::{decode_items, encode_items, Item};
use rumble_core::Rumble;
use sparklite::{SparkliteConf, SparkliteContext};

fn arb_item() -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        any::<i64>().prop_map(Item::Integer),
        any::<f64>().prop_map(Item::Double),
        "-?(0|[1-9][0-9]{0,9})\\.[0-9]{1,9}"
            .prop_map(|s| Item::decimal(s.parse().expect("grammatical decimal"))),
        "[a-zA-Z0-9 _\\-\u{e9}]{0,10}".prop_map(Item::str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Item::array),
            prop::collection::vec(("[a-z]{1,5}", inner), 0..5).prop_map(|pairs| {
                Item::object_from(pairs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect())
            }),
        ]
    })
}

/// Structural equality that distinguishes NaN-aware doubles (Item's
/// PartialEq treats numerics numerically, so NaN != NaN; compare by
/// serialized form instead).
fn same(a: &Item, b: &Item) -> bool {
    a.serialize() == b.serialize() && a.type_name() == b.type_name()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_arbitrary_items(items in prop::collection::vec(arb_item(), 0..8)) {
        let enc = encode_items(&items);
        let back = decode_items(&enc).unwrap();
        prop_assert_eq!(back.len(), items.len());
        for (a, b) in items.iter().zip(&back) {
            prop_assert!(same(a, b), "mismatch: {} vs {}", a.serialize(), b.serialize());
        }
    }

    #[test]
    fn shuffle_block_codec_roundtrips_atomic_pairs(
        items in prop::collection::vec(
            prop_oneof![
                Just(Item::Null),
                any::<bool>().prop_map(Item::Boolean),
                any::<i64>().prop_map(Item::Integer),
                "[a-zA-Z0-9 _\\-\u{e9}]{0,12}".prop_map(Item::str),
            ],
            0..32,
        ),
    ) {
        // The distinct-values shuffle ships `(GroupKey, Item)` pairs as
        // plain item-codec blocks (satellite: one codec, no second wire
        // format); decode must recover both the items and their keys.
        use rumble_core::dist::DistinctPairCodec;
        use rumble_core::item::{group_key, GroupKey};
        use sparklite::CacheCodec;

        let pairs: Vec<(GroupKey, Item)> = items
            .iter()
            .map(|i| (group_key(std::slice::from_ref(i)).unwrap(), i.clone()))
            .collect();
        let bytes = DistinctPairCodec.encode(&pairs);
        let back = DistinctPairCodec.decode(&bytes).unwrap();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn front_end_never_panics(src in "\\PC{0,80}") {
        let _ = rumble_core::syntax::parse_program(&src);
    }

    #[test]
    fn front_end_never_panics_on_jsoniqish(
        src in "(for|let|return|\\$x|\\$\\$|where|group by|order by|[0-9]|\"a\"|\\{|\\}|\\(|\\)|\\[|\\]|,|\\.|:=| ){0,40}"
    ) {
        let _ = rumble_core::compiler::compile_query(&src);
    }

    /// The analyzer and the compiler agree on static validity: a program
    /// compiles iff `analyze` reports no errors (warnings never block).
    #[test]
    fn analyze_errors_match_compilation(
        src in "(for|let|return|\\$x|\\$\\$|where|group by|order by|[0-9]|\"a\"|\\{|\\}|\\(|\\)|\\[|\\]|,|\\.|:=| ){0,40}"
    ) {
        let has_errors = rumble_core::analyze(&src).iter().any(|d| d.is_error());
        let compiled = rumble_core::compiler::compile_query(&src);
        prop_assert_eq!(
            has_errors,
            compiled.is_err(),
            "analyze and compile disagree on {:?}",
            src
        );
    }

    /// Programs that pass analysis with no errors never raise the static
    /// error codes (undefined variable/function) at runtime — the analyzer
    /// resolves the same scopes the evaluator walks.
    #[test]
    fn analyze_clean_programs_never_raise_static_codes(
        def in "[xyz]",
        used in "[wxyz]",
        f in prop_oneof![Just("count"), Just("sum"), Just("exists"), Just("mystery")],
        n in 1i64..5,
        shape in 0usize..5,
    ) {
        let q = match shape {
            0 => format!("let ${def} := {n} return ${used} + 1"),
            1 => format!("for ${def} in (1 to {n}) return ${used} * 2"),
            2 => format!("let ${def} := {n} return {f}((${used}, 1))"),
            3 => format!("for ${def} in (1 to {n}) where ${used} gt 1 return ${def}"),
            _ => format!("declare variable ${def} := {n}; {f}((${used}, ${def}))"),
        };
        let clean = !rumble_core::analyze(&q).iter().any(|d| d.is_error());
        if clean {
            let r = Rumble::default_local();
            if let Err(e) = r.run(&q) {
                prop_assert!(
                    e.code != "XPST0008" && e.code != "XPST0017",
                    "analyze-clean program {:?} raised {} at runtime: {}",
                    q, e.code, e.message
                );
            }
        }
    }
}

proptest! {
    // Cluster runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_and_distributed_agree(
        rows in prop::collection::vec((0u8..6, -50i64..50, any::<bool>()), 1..60),
        parts in 1usize..5,
    ) {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let r = Rumble::new(sc);
        let mut lines = String::new();
        for (k, v, flag) in &rows {
            // A messy field: `extra` is sometimes a bool, sometimes absent.
            if *flag {
                lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}, \"extra\": true}}\n"));
            } else {
                lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}}}\n"));
            }
        }
        r.sparklite().hdfs().delete("/prop.json");
        r.hdfs_put("/prop.json", &lines).unwrap();
        let _ = parts;

        for (dist_q, local_q) in [
            // filter
            (
                r#"for $r in json-file("hdfs:///prop.json") where $r.v ge 0 return $r.v"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a where $r.v ge 0 return $r.v"#,
            ),
            // group with count + sum over a messy field
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   group by $k := $r.k
                   order by $k
                   return [$k, count($r), count(for $x in $r where $x.extra return $x)]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   group by $k := $r.k
                   order by $k
                   return [$k, count($r), count(for $x in $r where $x.extra return $x)]"#,
            ),
            // multi-key sort with count clause
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   order by $r.k ascending, $r.v descending
                   count $c
                   return [$c, $r.k, $r.v]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   order by $r.k ascending, $r.v descending
                   count $c
                   return [$c, $r.k, $r.v]"#,
            ),
        ] {
            let dist = r.compile(dist_q).unwrap();
            prop_assert!(dist.is_distributed().unwrap());
            let local = r.compile(local_q).unwrap();
            prop_assert!(!local.is_distributed().unwrap());
            let a: Vec<String> = dist.collect().unwrap().iter().map(|i| i.serialize()).collect();
            let b: Vec<String> = local.collect().unwrap().iter().map(|i| i.serialize()).collect();
            prop_assert_eq!(a, b, "divergence on {}", dist_q);
        }
    }
}
