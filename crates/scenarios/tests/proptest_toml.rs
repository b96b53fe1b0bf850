//! The TOML-subset parser as a parser of untrusted text: a spec arrives
//! from the campaign service's HTTP body as well as from disk. Arbitrary
//! strings, every truncation of the committed `scenarios/*.toml`, and
//! byte and char mutations of them go through `toml::parse` and
//! `ScenarioSpec::from_toml_str`. Each must return `Ok` or `Err`, never
//! panic, and every `toml::parse` error must carry a `line N, col C`
//! location that `error_location` recovers.

use ldcf_scenarios::{error_location, toml, ScenarioSpec};
use proptest::prelude::*;

/// The committed specs, read at test time so the cases follow them.
fn committed_specs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("spec is UTF-8");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "scenarios/ holds the committed specs");
    specs
}

/// Feed `text` to both entry points; any panic fails the test with the
/// input, so it can be kept as a fixed case.
fn check(text: &str) {
    let parsed = std::panic::catch_unwind(|| toml::parse(text));
    let parsed = parsed.unwrap_or_else(|_| panic!("toml::parse panicked on {text:?}"));
    if let Err(e) = &parsed {
        assert!(
            error_location(e).is_some(),
            "unpositioned parse error {e:?} on {text:?}"
        );
    }
    if std::panic::catch_unwind(|| ScenarioSpec::from_toml_str(text)).is_err() {
        panic!("ScenarioSpec::from_toml_str panicked on {text:?}");
    }
}

/// Characters the grammar gives a meaning to, weighted so that random
/// strings reach past the first token.
const SYNTAX: &[char] = &[
    '[', ']', '=', '"', '\\', '#', ',', '.', '-', '+', '_', 'e', 'E', 'n', 't', 'a', 'x', '0', '1',
    '9', ' ', ' ', '\t', '\n', '\n', '\r', 'é', '\u{a0}', '\u{2028}', '"',
];

/// Pick a character: mostly from [`SYNTAX`], sometimes any scalar value.
fn pick(sel: u8, raw: u32) -> char {
    if (sel as usize) < SYNTAX.len() * 7 {
        SYNTAX[sel as usize % SYNTAX.len()]
    } else {
        char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')
    }
}

/// Round `at` down to a char boundary of `s`.
fn floor_boundary(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[test]
fn committed_specs_parse() {
    for (name, text) in committed_specs() {
        assert!(toml::parse(&text).is_ok(), "{name}");
        assert!(ScenarioSpec::from_toml_str(&text).is_ok(), "{name}");
    }
}

#[test]
fn every_truncation_of_the_committed_specs_is_total() {
    for (_, text) in committed_specs() {
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            check(&text[..cut]);
        }
    }
}

/// Inputs that once looked risky or that a later change must keep total:
/// nesting, stray brackets and quotes, values at the edge of `i64`.
#[test]
fn fixed_hostile_cases_are_total() {
    for text in [
        "",
        "=",
        "[",
        "]",
        "[]",
        "[[x]]",
        "a = [",
        "a = ]",
        "a = [[[[[[[[]]]]]]]]",
        "a = [\"]\"",
        "a = \"\\",
        "a = \"\\u0041\"",
        "a = 9223372036854775808",
        "a = -9223372036854775809",
        "a = 1e999",
        "a = -inf",
        "a = nan",
        "a = +",
        "[scenario]\nname = \"x\"\n[scenario]",
        "[scenario]\nseed = 18446744073709551616",
        "\u{feff}[scenario]",
        "a\u{0}= 1",
    ] {
        check(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_are_total(
        chars in prop::collection::vec((any::<u8>(), any::<u32>()), 0..160),
    ) {
        let text: String = chars.iter().map(|&(s, r)| pick(s, r)).collect();
        check(&text);
    }

    #[test]
    fn byte_mutations_of_committed_specs_are_total(
        which in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let specs = committed_specs();
        let (_, text) = &specs[which % specs.len()];
        let mut bytes = text.clone().into_bytes();
        for &(at, b) in &edits {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn char_mutations_of_committed_specs_are_total(
        which in any::<usize>(),
        edits in prop::collection::vec(
            (any::<usize>(), 0u8..3, any::<u8>(), any::<u32>()),
            1..6,
        ),
    ) {
        let specs = committed_specs();
        let (_, text) = &specs[which % specs.len()];
        let mut text = text.clone();
        for &(at, op, sel, raw) in &edits {
            let at = floor_boundary(&text, at % (text.len() + 1));
            let c = pick(sel, raw);
            match op {
                0 => text.insert(at, c),
                1 => {
                    if let Some(old) = text[at..].chars().next() {
                        text.replace_range(at..at + old.len_utf8(), c.encode_utf8(&mut [0; 4]));
                    }
                }
                _ => {
                    if let Some(old) = text[at..].chars().next() {
                        text.replace_range(at..at + old.len_utf8(), "");
                    }
                }
            }
        }
        check(&text);
    }
}
