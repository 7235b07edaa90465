//! JSONiq language conformance tests: one query per behaviour, checked
//! against the serialized result — the engine's answer to a spec test
//! suite.

use rumble_core::Rumble;

fn engine() -> Rumble {
    Rumble::default_local()
}

/// Runs a query and joins the serialized items with `, `.
fn run(q: &str) -> String {
    engine()
        .run(q)
        .unwrap_or_else(|e| panic!("query failed: {q}\n  error: {e}"))
        .iter()
        .map(|i| i.serialize())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fails_with(q: &str, code: &str) {
    let e = engine().run(q).unwrap_err();
    assert_eq!(e.code, code, "query {q} raised {e}");
}

#[test]
fn arithmetic_and_types() {
    assert_eq!(run("1 + 2 * 3 - 4"), "3");
    assert_eq!(run("7 idiv 2"), "3");
    assert_eq!(run("7 mod 2"), "1");
    assert_eq!(run("1 div 4"), "0.25"); // integer div is a decimal
    assert_eq!(run("0.1 + 0.2"), "0.3"); // exact decimals
    assert_eq!(run("1e0 + 1"), "2"); // double formatting drops .0
    assert_eq!(run("-(3)"), "-3");
    assert_eq!(run("- -3"), "3");
    assert_eq!(run("() + 1"), ""); // empty propagates
    assert_eq!(run("2 lt 3"), "true");
    assert_eq!(run("1 eq 1.0"), "true"); // numeric promotion
    fails_with("1 + \"a\"", "XPTY0004");
    fails_with("1 div 0", "FOAR0001");
}

#[test]
fn sequences_and_ranges() {
    assert_eq!(run("(1, (2, 3), (), 4)"), "1, 2, 3, 4"); // sequences flatten
    assert_eq!(run("count(1 to 100)"), "100");
    assert_eq!(run("5 to 1"), ""); // descending range is empty
    assert_eq!(run("(1 to 5)[3]"), "3"); // positional predicate
    assert_eq!(run("(1 to 5)[$$ gt 3]"), "4, 5");
    assert_eq!(run("reverse(1 to 3)"), "3, 2, 1");
    assert_eq!(run("subsequence((1,2,3,4,5), 2, 2)"), "2, 3");
    assert_eq!(run("head((7, 8))"), "7");
    assert_eq!(run("tail((7, 8, 9))"), "8, 9");
    assert_eq!(run("(1,2) ! ($$ * 10)"), "10, 20"); // simple map
}

#[test]
fn strings() {
    assert_eq!(run(r#""foo" || "bar""#), r#""foobar""#);
    assert_eq!(run(r#"upper-case("héllo")"#), r#""HÉLLO""#);
    assert_eq!(run(r#"string-length("héllo")"#), "5");
    assert_eq!(run(r#"contains("confusion", "fusi")"#), "true");
    assert_eq!(run(r#"string-join(("a","b","c"), "-")"#), r#""a-b-c""#);
    assert_eq!(run(r#"tokenize("a b  c")"#), r#""a", "b", "c""#);
    assert_eq!(run(r#"substring("hello", 2, 3)"#), r#""ell""#);
    assert_eq!(run("1 || 2"), r#""12""#); // atomics stringify in concat
    assert_eq!(run(r#"concat("a", (), "b", 1)"#), r#""ab1""#);
}

#[test]
fn objects_and_arrays() {
    assert_eq!(run(r#"{"a": 1, "b": [2, 3]}.b[[2]]"#), "3");
    assert_eq!(run(r#"{"a": 1}.a"#), "1");
    assert_eq!(run(r#"{"a": 1}.nope"#), ""); // absent key → empty
    assert_eq!(run(r#"[1, 2, 3][]"#), "1, 2, 3"); // unbox
    assert_eq!(run(r#"[ (1, 2, 3) ]"#), "[1,2,3]"); // array constructor
    assert_eq!(run(r#"{"a": ()}"#), r#"{"a":null}"#); // empty → null member
    assert_eq!(run(r#"keys({"x": 1, "y": 2})"#), r#""x", "y""#);
    assert_eq!(run(r#"size([7, 8, 9])"#), "3");
    assert_eq!(run(r#"{ "k" || "ey": 1 }"#), r#"{"key":1}"#); // computed key
                                                              // Lookup on non-objects vanishes rather than failing (messy data!).
    assert_eq!(run(r#"(1, {"a": 2}, "x").a"#), "2");
}

#[test]
fn logic_and_ebv() {
    assert_eq!(run("true and false"), "false");
    assert_eq!(run("true or false"), "true");
    assert_eq!(run("not \"\""), "true"); // empty string is falsy
    assert_eq!(run("boolean((1))"), "true");
    assert_eq!(run("boolean(0)"), "false");
    assert_eq!(run("boolean(null)"), "false");
    assert_eq!(run("if (()) then 1 else 2"), "2"); // empty is falsy
    assert_eq!(run("some $x in (1,2,3) satisfies $x gt 2"), "true");
    assert_eq!(run("every $x in (1,2,3) satisfies $x gt 2"), "false");
    assert_eq!(run("some $x in () satisfies true"), "false");
    assert_eq!(run("every $x in () satisfies false"), "true");
}

#[test]
fn general_vs_value_comparison() {
    assert_eq!(run("(1, 2, 3) = 2"), "true"); // existential
    assert_eq!(run("(1, 2, 3) = (7, 8)"), "false");
    assert_eq!(run("() = ()"), "false");
    assert_eq!(run("() eq 1"), ""); // value comparison with empty → empty
                                    // Incompatible types are simply unequal for (in)equality…
    assert_eq!(run(r#"1 eq "1""#), "false");
    assert_eq!(run(r#"1 ne "1""#), "true");
    // …but an error for ordering.
    fails_with(r#"1 lt "1""#, "XPTY0004");
    // null is comparable with anything and smallest.
    assert_eq!(run("null lt -999"), "true");
    assert_eq!(run("null eq null"), "true");
}

#[test]
fn flwor_basics() {
    assert_eq!(run("for $x in (1,2,3) return $x * 2"), "2, 4, 6");
    assert_eq!(run("for $x in (1,2,3) where $x ge 2 return $x"), "2, 3");
    assert_eq!(run("let $x := (1,2,3) return count($x)"), "3");
    assert_eq!(run("for $x in (1,2), $y in (10,20) return $x + $y"), "11, 21, 12, 22");
    assert_eq!(run("for $x in (3,1,2) order by $x return $x"), "1, 2, 3");
    assert_eq!(run("for $x in (3,1,2) order by $x descending return $x"), "3, 2, 1");
    assert_eq!(run("for $x in (\"b\",\"a\") count $c return $c"), "1, 2");
    // let sees earlier bindings; redeclaration shadows.
    assert_eq!(run("for $x in (1,2) let $x := $x * 10 return $x"), "10, 20");
    // where between lets.
    assert_eq!(run("for $x in (1,2,3,4) let $y := $x * $x where $y gt 4 return $y"), "9, 16");
}

#[test]
fn flwor_group_by_semantics() {
    // Non-grouping variables become sequences.
    assert_eq!(
        run(
            r#"for $x in (1,2,3,4) group by $k := $x mod 2 order by $k return [ $k, count($x), sum($x) ]"#
        ),
        "[0,2,6], [1,2,4]"
    );
    // Heterogeneous keys group without error (§4.7): 1 and 1.0 unify.
    assert_eq!(
        run(r#"for $o in ({"k": 1}, {"k": 1.0}, {"k": "1"})
               group by $k := $o.k
               order by count($o) descending
               return count($o)"#),
        "2, 1"
    );
    // Empty keys form their own group.
    assert_eq!(
        run(r#"for $o in ({"k": 5}, {})
               group by $k := $o.k
               order by count($o)
               return [ $k ]"#),
        "[5], []"
    );
    // Grouping by an already-bound variable (no :=).
    assert_eq!(run(r#"for $x in (1,2,1) let $k := $x group by $k order by $k return $k"#), "1, 2");
}

#[test]
fn flwor_order_by_semantics() {
    // empty least by default; empty greatest by keyword; null between.
    assert_eq!(
        run(r#"for $o in ({"k": 2}, {}, {"k": null}) order by $o.k return [ $o.k ]"#),
        "[], [null], [2]"
    );
    assert_eq!(
        run(
            r#"for $o in ({"k": 2}, {}, {"k": null}) order by $o.k empty greatest return [ $o.k ]"#
        ),
        "[null], [2], []"
    );
    fails_with(r#"for $o in ({"k": 1}, {"k": "a"}) order by $o.k return $o"#, "XPTY0004");
    // null < false < true, with the empty key placed by `empty greatest`
    // before the direction applies — locally and over a DataFrame.
    for (order, expected) in [
        ("", "[], [null], [false], [true]"),
        ("empty greatest", "[null], [false], [true], []"),
        ("descending", "[true], [false], [null], []"),
        ("descending empty greatest", "[], [true], [false], [null]"),
    ] {
        let input = r#"({"k": true}, {}, {"k": null}, {"k": false})"#;
        for source in [input.to_string(), format!("parallelize({input})")] {
            let q = format!("for $o in {source} order by $o.k {order} return [ $o.k ]");
            let distributed = engine().compile(&q).unwrap().is_distributed().unwrap();
            assert_eq!(distributed, source != input, "{q}");
            assert_eq!(run(&q), expected, "{q}");
        }
    }
    fails_with(
        r#"for $o in parallelize(({"k": true}, {"k": 1})) order by $o.k return $o"#,
        "XPTY0004",
    );
    // Stable multi-key ordering.
    assert_eq!(
        run(r#"for $o in ({"a": 1, "b": "y"}, {"a": 1, "b": "x"}, {"a": 0, "b": "z"})
               order by $o.a, $o.b
               return $o.b"#),
        r#""z", "x", "y""#
    );
}

#[test]
fn control_flow() {
    assert_eq!(run("if (1 lt 2) then \"y\" else \"n\""), "\"y\"");
    assert_eq!(run(r#"switch ("b") case "a" return 1 case "b" return 2 default return 0"#), "2");
    assert_eq!(run(r#"switch (99) case "a" case "b" return 1 default return 42"#), "42");
    assert_eq!(run(r#"try { error("X", "boom") } catch * { "saved" }"#), "\"saved\"");
    assert_eq!(run(r#"try { 1 + "a" } catch XPTY0004 { "typed" }"#), "\"typed\"");
}

#[test]
fn types_instance_of_cast() {
    assert_eq!(run("3 instance of integer"), "true");
    assert_eq!(run("3 instance of decimal"), "true"); // integer ⊂ decimal
    assert_eq!(run("3.5 instance of integer"), "false");
    assert_eq!(run("(1, 2) instance of integer+"), "true");
    assert_eq!(run("() instance of integer?"), "true");
    assert_eq!(run("() instance of empty-sequence()"), "true");
    assert_eq!(run(r#"{"a":1} instance of object"#), "true");
    assert_eq!(run("[1] instance of array"), "true");
    assert_eq!(run(r#""42" cast as integer"#), "42");
    assert_eq!(run(r#""2.5" castable as decimal"#), "true");
    assert_eq!(run(r#""abc" castable as integer"#), "false");
    assert_eq!(run("() cast as integer?"), "");
    fails_with("() cast as integer", "XPTY0004");
    assert_eq!(run("3 treat as item()"), "3");
    fails_with("(1,2) treat as integer", "XPDY0050");
}

#[test]
fn builtin_aggregates() {
    assert_eq!(run("sum(())"), "0");
    assert_eq!(run("sum((1, 2.5))"), "3.5");
    assert_eq!(run("avg((1, 2))"), "1.5");
    assert_eq!(run("min((3, 1, 2))"), "1");
    assert_eq!(run("max((\"a\", \"c\", \"b\"))"), "\"c\"");
    assert_eq!(run("min(())"), "");
    assert_eq!(run("distinct-values((1, 1.0, \"1\", 1))"), "1, \"1\"");
    assert_eq!(run("index-of((5, 6, 5), 5)"), "1, 3");
    assert_eq!(run("deep-equal({\"a\": [1]}, {\"a\": [1.0]})"), "true");
}

#[test]
fn user_functions_and_globals() {
    assert_eq!(
        run(r#"declare function local:fact($n) {
                 if ($n le 1) then 1 else $n * local:fact($n - 1)
               };
               local:fact(10)"#),
        "3628800"
    );
    assert_eq!(
        run(r#"declare variable $base := 100;
               declare function local:add($x, $y) { $x + $y + $base };
               local:add(1, 2)"#),
        "103"
    );
    // Mutual recursion.
    assert_eq!(
        run(r#"declare function local:even($n) { if ($n eq 0) then true else local:odd($n - 1) };
               declare function local:odd($n) { if ($n eq 0) then false else local:even($n - 1) };
               local:even(10)"#),
        "true"
    );
}

#[test]
fn number_edge_cases() {
    assert_eq!(run("9223372036854775807"), "9223372036854775807");
    fails_with("9223372036854775807 + 1", "FOAR0002");
    // An integer literal beyond i64 lexes as a decimal.
    assert_eq!(run("9223372036854775808 instance of decimal"), "true");
    assert_eq!(run("abs(-2.5)"), "2.5");
    assert_eq!(run("floor(-2.5)"), "-3");
    assert_eq!(run("ceiling(-2.5)"), "-2");
    assert_eq!(run("round(2.5)"), "3");
    assert_eq!(run("round(-2.5)"), "-2"); // round half toward +inf
    assert_eq!(run("round(2.456, 2)"), "2.46");
    assert_eq!(run("(1 div 3) instance of decimal"), "true"); // instance-of binds tighter than div
    assert_eq!(run("number(\"nope\") ne number(\"nope\")"), "true"); // NaN
}

#[test]
fn parse_json_and_serialize() {
    assert_eq!(run(r#"parse-json("[1, 2]")[[1]]"#), "1");
    assert_eq!(run(r#"serialize({"a": 1})"#), r#""{\"a\":1}""#);
    assert_eq!(run(r#"parse-json(serialize({"a": [1, null]})).a[[2]]"#), "null");
}

#[test]
fn comments_and_whitespace() {
    assert_eq!(run("1 (: comment :) + (: another (: nested :) :) 2"), "3");
    assert_eq!(run("  \n\t 42 \n"), "42");
}
