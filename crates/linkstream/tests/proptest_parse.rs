//! Structured parser fuzzing: random trace text in both accepted layouts,
//! mixed with junk tokens, wrong column counts, comments, and `i64` edge
//! timestamps. Every input must either fail with a typed [`ParseError`] or
//! build a stream whose study period has an exact, non-negative span —
//! never a panic, and never a wrapped span that downstream layers would
//! turn into a crash or a wrong statistic.

use proptest::prelude::*;
use saturn_linkstream::{io, Directedness, ParseError};

/// Timestamps at and next to the ends of the `i64` range, plus the values
/// around zero; a ninth draw takes any `i64`.
const EDGE_TIMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// Node labels; repeats give self-loops and duplicates.
const NODES: [&str; 4] = ["a", "b", "c", "node-7"];

/// Tokens that are not all integer tick counts: floats, exponents, signs,
/// out-of-range integers, radix prefixes, comment markers, non-ASCII.
const JUNK: [&str; 12] = [
    "3.5",
    "1e3",
    "+4",
    "-0",
    "9223372036854775808",
    "-9223372036854775809",
    "0x10",
    "%",
    "#x",
    "é",
    "--1",
    "",
];

fn timestamp(pick: usize, any: i64) -> String {
    EDGE_TIMES.get(pick).copied().unwrap_or(any).to_string()
}

/// One trace line from drawn parts. `kind` picks the shape: mostly plain
/// `u v t` and KONECT `u v w t` rows, sometimes a junk timestamp, a wrong
/// column count, or a skipped (comment / blank) line.
fn line(kind: u32, u: usize, v: usize, pick: usize, any: i64, junk: usize) -> String {
    let (u, v, t, j) = (NODES[u], NODES[v], timestamp(pick, any), JUNK[junk]);
    match kind {
        0..=9 => format!("{u} {v} {t}"),
        10..=12 => format!("{u} {v} {j} {t}"),
        13 => format!("{u} {v} {j}"),
        14 => [u, v, j, &t, &t][..(junk % 5) + 1].join(" "),
        _ => ["", "   ", "% comment", "# header"][junk % 4].to_string(),
    }
}

fn arb_trace() -> impl Strategy<Value = String> {
    let part =
        ((0u32..16, 0usize..4, 0usize..4), (0usize..8, any::<i64>(), 0usize..JUNK.len()));
    proptest::collection::vec(part, 1..9).prop_map(|parts| {
        parts
            .into_iter()
            .map(|((kind, u, v), (pick, any, junk))| line(kind, u, v, pick, any, junk) + "\n")
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `parse_line` / `read_str` either reject the trace with a typed error
    /// or build a stream with `span() >= 0` whose statistics are sane; the
    /// batch parser agrees with the stream reader on which traces are
    /// malformed.
    #[test]
    fn parser_yields_typed_errors_or_valid_streams(
        text in arb_trace(),
        directed in any::<bool>(),
    ) {
        for (idx, l) in text.lines().enumerate() {
            if let Ok(Some(event)) = io::parse_line(l, idx + 1) {
                prop_assert!(l.split_whitespace().any(|tok| tok.parse() == Ok(event.t)));
            }
        }
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let batch_malformed = io::parse_events(&text).is_err();
        match io::read_str(&text, d) {
            Ok(s) => {
                prop_assert!(!batch_malformed);
                prop_assert!(s.span() >= 0, "span {} of {:?}", s.span(), text);
                prop_assert!(s.events().iter().all(|l| s.t_begin() <= l.t && l.t <= s.t_end()));
                let stats = s.stats();
                prop_assert_eq!(stats.span, s.span());
                prop_assert!(stats.mean_inter_contact >= 0.0, "{:?}", text);
                prop_assert!(s.partition(1).is_ok());
            }
            Err(ParseError::Malformed { line, .. }) => {
                prop_assert!(batch_malformed);
                prop_assert!(line >= 1 && line <= text.lines().count());
            }
            Err(ParseError::Build(_)) => prop_assert!(!batch_malformed),
            Err(ParseError::Io(e)) => panic!("in-memory UTF-8 text gave an i/o error: {e}"),
        }
    }
}
