//! Golden files for the JSON codec.
//!
//! - `golden/pretty.json` pins the exact `to_string_pretty` bytes of a
//!   derived struct that nests empty arrays, empty structs, options,
//!   tuples and every enum variant shape, followed by the same for a
//!   hand-built `serde::Value`.
//! - `golden/decode_corpus.txt` pins, for every edge input and every
//!   target type, whether `from_str` accepts it and what it decodes to.
//!   One line per pair: `<target>\t<input as {:?}>\t<ok {:?}|err>`. Error
//!   messages are not pinned, only accept or reject.

use serde::{Deserialize, Serialize, Value};
use serde_json::{from_str, to_string_pretty};

const PRETTY: &str = include_str!("golden/pretty.json");
const CORPUS: &str = include_str!("golden/decode_corpus.txt");

#[derive(Debug, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Serialize, Deserialize)]
struct Id(u32);

#[derive(Debug, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Serialize, Deserialize)]
enum Kind {
    Unit,
    Wrap(i64),
    Pair(u8, bool),
    Named {
        x: f64,
        #[serde(default)]
        y: u32,
    },
}

#[derive(Debug, Serialize, Deserialize)]
struct Item {
    id: Id,
    tags: Vec<String>,
    kind: Kind,
}

#[derive(Debug, Serialize, Deserialize)]
struct Nested {
    name: String,
    empty_list: Vec<u64>,
    empty_struct: Empty,
    empty_nested: Vec<Vec<Empty>>,
    items: Vec<Item>,
    pairs: Vec<(String, Vec<f64>)>,
    pair: Pair,
    some: Option<u32>,
    none: Option<u32>,
    floats: Vec<f64>,
    ints: (i64, u64, i8),
}

#[derive(Debug, Serialize, Deserialize)]
struct Rec {
    a: u64,
    #[serde(default)]
    b: Option<String>,
    c: Vec<f64>,
}

fn nested() -> Nested {
    Nested {
        name: "n\"a\\m\te\u{1}é".to_string(),
        empty_list: vec![],
        empty_struct: Empty {},
        empty_nested: vec![vec![], vec![Empty {}, Empty {}]],
        items: vec![
            Item {
                id: Id(0),
                tags: vec![],
                kind: Kind::Unit,
            },
            Item {
                id: Id(7),
                tags: vec!["x".to_string(), String::new()],
                kind: Kind::Wrap(-3),
            },
            Item {
                id: Id(8),
                tags: vec![],
                kind: Kind::Pair(1, true),
            },
            Item {
                id: Id(9),
                tags: vec![],
                kind: Kind::Named { x: -0.0, y: 2 },
            },
        ],
        pairs: vec![
            ("p".to_string(), vec![]),
            ("q".to_string(), vec![0.5, 1e21]),
        ],
        pair: Pair(255, "z".to_string()),
        some: Some(4),
        none: None,
        floats: vec![0.1, 1.0, f64::NAN, f64::NEG_INFINITY, 5e-324],
        ints: (i64::MIN, u64::MAX, -1),
    }
}

fn value() -> Value {
    Value::Map(vec![
        ("empty_map".to_string(), Value::Map(vec![])),
        ("empty_seq".to_string(), Value::Seq(vec![])),
        (
            "seq".to_string(),
            Value::Seq(vec![
                Value::Null,
                Value::Bool(false),
                Value::Int(-2),
                Value::UInt(3),
                Value::Float(2.5),
                Value::Str("s".to_string()),
                Value::Seq(vec![Value::Map(vec![])]),
            ]),
        ),
        (
            "k\"ey".to_string(),
            Value::Map(vec![("inner".to_string(), Value::Seq(vec![]))]),
        ),
    ])
}

#[test]
fn pretty_output_matches_the_golden_bytes() {
    let actual = format!(
        "{}\n{}\n",
        to_string_pretty(&nested()).unwrap(),
        to_string_pretty(&value()).unwrap()
    );
    assert_eq!(actual, PRETTY);
}

const INPUTS: &[&str] = &[
    // Numbers and their coercions.
    "0",
    "1",
    "-0",
    "-1",
    "1.0",
    "-1.0",
    "1.5",
    "2E+3",
    "1e400",
    "-1e400",
    "1e-400",
    "255",
    "256",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "01",
    "-",
    "1.",
    "1e",
    ".5",
    "-.5",
    "+1",
    // Literals.
    "true",
    "false",
    "null",
    "nul",
    "truex",
    // Strings, escapes and surrogates.
    "\"\"",
    "\"abc\"",
    "\"a\tb\"",
    "\"é€𝄞\"",
    "\"\\u00e9\\n\\/\\b\\f\"",
    "\"\\ud834\\udd1e\"",
    "\"\\ud834\"",
    "\"\\ud834x\"",
    "\"\\udd1e\"",
    "\"\\u12\"",
    "\"\\x\"",
    "\"unterminated",
    // Arrays, trailing bytes and whitespace.
    "[]",
    "[1,2]",
    "[1,]",
    "[,1]",
    "[1 2]",
    " [ 1 , 2 ] ",
    "[1]x",
    "[1]  \n",
    "[[1],[2,3]]",
    "[[[[[[[[[[1]]]]]]]]]]",
    "[7,\"s\"]",
    "[7,\"s\",1]",
    "[3,true]",
    // Objects: duplicates, unknown fields, defaults.
    "{}",
    "{\"a\":1,\"c\":[]}",
    "{\"a\":1,\"a\":2,\"c\":[]}",
    "{\"a\":\"x\",\"a\":1,\"c\":[]}",
    "{\"a\":1,\"a\":\"x\",\"c\":[]}",
    "{\"a\":1,\"c\":[1.5],\"zz\":{\"q\":[1,{\"r\":null}],\"s\":\"t\"}}",
    "{\"a\":1}",
    "{\"c\":[]}",
    "{\"a\":1,\"b\":null,\"c\":[]}",
    "{\"a\":1,\"b\":\"hi\",\"c\":[-0,1e400]}",
    " \t\n{ \"a\" : 1 ,\r\n \"b\" : \"w\" , \"c\" : [ 2 , 3 ] } \n",
    "{\"a\":1,\"c\":[]}}",
    "{\"a\":1,\"c\":[],}",
    "{\"a\" 1}",
    "{a:1}",
    "{\"\\u0061\":5,\"c\":[]}",
    // Enum representations.
    "\"Unit\"",
    "\"Wrap\"",
    "\"Nope\"",
    "{\"Wrap\":-5}",
    "{\"W\\u0072ap\":6}",
    "{\"Wrap\":1,\"Wrap\":2}",
    "{\"Pair\":[3,true]}",
    "{\"Pair\":[3]}",
    "{\"Pair\":[3,true,1]}",
    "{\"Named\":{\"x\":-0}}",
    "{\"Named\":{\"x\":1,\"x\":2,\"y\":3,\"q\":[]}}",
    "{\"Named\":{\"y\":1}}",
    "{\"Unit\":null}",
    " { \"Wrap\" : 9 } ",
    // Empty input.
    "",
    " ",
];

fn decode<T: Deserialize + std::fmt::Debug>(input: &str) -> String {
    match from_str::<T>(input) {
        Ok(v) => format!("ok {v:?}"),
        Err(_) => "err".to_string(),
    }
}

fn render_corpus() -> String {
    let mut out = String::new();
    for input in INPUTS {
        let rows = [
            ("u64", decode::<u64>(input)),
            ("i64", decode::<i64>(input)),
            ("u8", decode::<u8>(input)),
            ("f64", decode::<f64>(input)),
            ("bool", decode::<bool>(input)),
            ("String", decode::<String>(input)),
            ("Option<u64>", decode::<Option<u64>>(input)),
            ("Vec<u64>", decode::<Vec<u64>>(input)),
            ("(u64, String)", decode::<(u64, String)>(input)),
            ("Pair", decode::<Pair>(input)),
            ("Rec", decode::<Rec>(input)),
            ("Kind", decode::<Kind>(input)),
            ("Value", decode::<Value>(input)),
        ];
        for (target, result) in rows {
            out.push_str(&format!("{target}\t{input:?}\t{result}\n"));
        }
    }
    out
}

#[test]
fn decode_corpus_matches_the_golden_file() {
    let actual = render_corpus();
    for (i, (got, want)) in actual.lines().zip(CORPUS.lines()).enumerate() {
        assert_eq!(got, want, "corpus line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), CORPUS.lines().count());
}
