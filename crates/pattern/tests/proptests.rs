//! Property-based tests for the pattern engine.

use filterwatch_pattern::{Automaton, CompiledPatternSet, Pattern, PatternSet};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Escape every metacharacter so arbitrary text becomes a literal pattern.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for c in text.chars() {
        if matches!(c, '*' | '?' | '[' | ']' | '^' | '$' | '|' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

proptest! {
    /// A literal pattern always matches text containing it as a substring.
    #[test]
    fn literal_matches_itself(s in "[a-zA-Z0-9 ./:=-]{0,40}", prefix in "[a-z]{0,10}", suffix in "[a-z]{0,10}") {
        let p = Pattern::literal(&s);
        let text = format!("{prefix}{s}{suffix}");
        prop_assert!(p.is_match(&text));
    }

    /// Escaped arbitrary text parses and matches itself exactly.
    #[test]
    fn escaped_text_round_trips(s in "\\PC{0,40}") {
        let p = Pattern::parse(&escape(&s)).unwrap();
        prop_assert!(p.is_match(&s), "pattern {:?} should match {:?}", p.source(), s);
    }

    /// Case-insensitivity: matching is invariant under ASCII case flips.
    #[test]
    fn ascii_case_is_ignored(s in "[a-zA-Z]{1,20}") {
        let p = Pattern::literal(&s);
        prop_assert!(p.is_match(&s.to_ascii_uppercase()));
        prop_assert!(p.is_match(&s.to_ascii_lowercase()));
    }

    /// `find` returns spans within bounds that really contain a match.
    #[test]
    fn find_span_is_in_bounds(hay in "\\PC{0,60}", needle in "[a-z]{1,6}") {
        let p = Pattern::literal(&needle);
        if let Some(span) = p.find(&hay) {
            prop_assert!(span.end <= hay.len());
            prop_assert!(span.start <= span.end);
            let slice = &hay[span.start..span.end];
            prop_assert!(slice.eq_ignore_ascii_case(&needle));
        }
    }

    /// A star between two halves matches any filling.
    #[test]
    fn star_bridges_anything(a in "[a-z]{1,8}", b in "[a-z]{1,8}", filler in "\\PC{0,30}") {
        let p = Pattern::parse(&format!("{a}*{b}")).unwrap();
        let text = format!("{a}{filler}{b}");
        prop_assert!(p.is_match(&text));
    }

    /// Anchored-both-ends literal equals string equality (mod case).
    #[test]
    fn full_anchor_is_equality(s in "[a-z0-9]{1,20}", t in "[a-z0-9]{1,20}") {
        let p = Pattern::parse(&format!("^{s}$")).unwrap();
        prop_assert_eq!(p.is_match(&t), s.eq_ignore_ascii_case(&t));
    }

    /// Alternation is the union of its branches.
    #[test]
    fn alternation_is_union(a in "[a-z]{1,8}", b in "[a-z]{1,8}", text in "[a-z ]{0,40}") {
        let pa = Pattern::parse(&a).unwrap();
        let pb = Pattern::parse(&b).unwrap();
        let pab = Pattern::parse(&format!("{a}|{b}")).unwrap();
        prop_assert_eq!(pab.is_match(&text), pa.is_match(&text) || pb.is_match(&text));
    }

    /// count_matches terminates and is bounded by text length + 1.
    #[test]
    fn count_matches_is_bounded(needle in "[a-z]{1,4}", hay in "[a-z]{0,60}") {
        let p = Pattern::parse(&needle).unwrap();
        let n = p.count_matches(&hay);
        prop_assert!(n <= hay.len() + 1);
    }

    /// The parser never panics on arbitrary input (errors are fine).
    #[test]
    fn parser_never_panics(src in "\\PC{0,60}") {
        let _ = Pattern::parse(&src);
    }

    /// Matching never panics even for patterns with classes/anchors.
    #[test]
    fn matcher_never_panics(src in "[a-z*?\\[\\]^$|\\\\0-9-]{0,20}", text in "\\PC{0,60}") {
        if let Ok(p) = Pattern::parse(&src) {
            let _ = p.is_match(&text);
            let _ = p.find(&text);
        }
    }

    /// Both scan loops agree with naive per-needle substring search,
    /// in both case modes: the every-id loop behind `matched_ids`, and
    /// the root-skipping loop behind `is_match` and compiled sets. Half
    /// the texts are built from the needles' own bytes, mixed with
    /// uppercase, non-ASCII bytes and bytes in no needle, so a byte-class
    /// map that forgets to fold or merges two needle bytes shows.
    #[test]
    fn automaton_equals_naive_substring(
        needles in proptest::collection::vec("[a-zA-Z0-9 /:.=-]{0,6}", 0..8),
        random_text in "\\PC{0,80}",
        pieces in proptest::collection::vec((any::<usize>(), 0u8..6), 0..40),
        from_needles in any::<bool>(),
    ) {
        let text = if from_needles {
            needle_text(&needles, &pieces)
        } else {
            random_text
        };
        for fold in [true, false] {
            let automaton = Automaton::new(
                needles.iter().enumerate().map(|(i, n)| (i, n.as_str())),
                fold,
            );
            let expect: Vec<usize> = needles
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    if fold {
                        text.to_ascii_lowercase().contains(&n.to_ascii_lowercase())
                    } else {
                        text.contains(n.as_str())
                    }
                })
                .map(|(i, _)| i)
                .collect();
            let matched = automaton.matched_ids(&text);
            prop_assert_eq!(&matched, &expect, "fold={}", fold);
            prop_assert_eq!(automaton.is_match(&text), !matched.is_empty(), "fold={}", fold);
            let mut set = PatternSet::new();
            for (i, n) in needles.iter().enumerate() {
                let pattern = if fold {
                    Pattern::literal(n)
                } else {
                    Pattern::parse_case_sensitive(&escape(n)).unwrap()
                };
                set.insert(format!("n{i}"), pattern);
            }
            let compiled = CompiledPatternSet::compile(set);
            prop_assert_eq!(compiled.matching_indices(&text), expect, "fold={}", fold);
        }
    }

    /// A `?` consumes exactly one character.
    #[test]
    fn question_consumes_one(c in proptest::char::any(), rest in "[a-z]{1,5}") {
        let p = Pattern::parse(&format!("^?{}$", escape(&rest))).unwrap();
        let text = format!("{c}{rest}");
        prop_assert!(p.is_match(&text), "{:?} should match {:?}", p.source(), text);
        // Two leading characters must not match.
        let text2 = format!("x{c}{rest}");
        if text2.chars().count() != text.chars().count() {
            prop_assert!(!p.is_match(&text2));
        }
    }
}

/// Text drawn from `needles`' own alphabet: per piece, a needle byte as
/// is or uppercased, a whole needle as is or uppercased, a non-ASCII
/// character, or a byte that occurs in no needle.
fn needle_text(needles: &[String], pieces: &[(usize, u8)]) -> String {
    let alphabet: Vec<char> = needles.iter().flat_map(|n| n.chars()).collect();
    let mut text = String::new();
    for &(ix, kind) in pieces {
        match kind {
            0 | 1 if !alphabet.is_empty() => {
                let c = alphabet[ix % alphabet.len()];
                text.push(if kind == 0 { c } else { c.to_ascii_uppercase() });
            }
            2 | 3 if !needles.is_empty() => {
                let needle = &needles[ix % needles.len()];
                if kind == 2 {
                    text.push_str(needle);
                } else {
                    text.push_str(&needle.to_ascii_uppercase());
                }
            }
            4 => text.push(['é', 'ß', 'Ω', '中', '✗'][ix % 5]),
            _ => text.push(['#', '_', '~', '\t', '!'][ix % 5]),
        }
    }
    text
}

/// Flip the ASCII case of each character of `s` where `flips` says so.
fn recase(s: &str, flips: &[bool]) -> String {
    s.chars()
        .zip(flips.iter().cycle())
        .map(|(c, &flip)| if flip { c.to_ascii_uppercase() } else { c })
        .collect()
}

proptest! {
    #![proptest_config(Config::with_cases(256))]

    /// A compiled pattern set answers exactly like the uncompiled one —
    /// literal tiers and the literal-gated fallback tier combined — for
    /// literal, alternation, `?`, class, anchored and wildcard patterns
    /// in both case modes, including a branch with no literal. Half the
    /// texts plant every wildcard literal, in random case and either
    /// order, among non-ASCII filler, so the gate is exercised on texts
    /// where the fallback patterns really match. The literal patterns
    /// come first or last, so the first match can sit in either tier.
    #[test]
    fn compiled_set_equals_pattern_set(
        literals in proptest::collection::vec("[a-zA-Z0-9 ]{0,6}", 0..5),
        wild_a in "[a-z]{1,4}", wild_b in "[a-z]{1,4}", wild_c in "[a-z0-9]{1,3}",
        random_text in "\\PC{0,60}",
        plant in any::<bool>(),
        swap in any::<bool>(),
        flips in proptest::collection::vec(any::<bool>(), 7),
        fillers in proptest::collection::vec("[0-9x é✗ßÄΩ中-]{0,6}", 4),
        case_sensitive in proptest::collection::vec(any::<bool>(), 5),
        literals_last in any::<bool>(),
    ) {
        let mut set = PatternSet::new();
        let insert_literals = |set: &mut PatternSet| {
            for (i, lit) in literals.iter().enumerate() {
                let p = if case_sensitive[i % case_sensitive.len()] {
                    Pattern::parse_case_sensitive(&escape(lit)).unwrap()
                } else {
                    Pattern::parse(&escape(lit)).unwrap()
                };
                set.insert(format!("lit{i}"), p);
            }
        };
        if !literals_last {
            insert_literals(&mut set);
        }
        // Case-sensitive patterns spell their literals in the planted
        // case; case-insensitive ones in lowercase or uppercase.
        let cased = [
            recase(&wild_a, &flips),
            recase(&wild_b, &flips[2..]),
            recase(&wild_c, &flips[4..]),
        ];
        let upper_a = wild_a.to_ascii_uppercase();
        let exact = |src: String| Pattern::parse_case_sensitive(&src).unwrap();
        set.insert_parsed("wild", &format!("{wild_a}*{wild_b}")).unwrap();
        set.insert("wild-cs", exact(format!("{}*{}", cased[0], cased[1])));
        set.insert_parsed("alt", &format!("{wild_a}|{wild_b}?")).unwrap();
        set.insert_parsed("class", &format!("{upper_a}*[0-9x]{wild_b}")).unwrap();
        set.insert("class-cs", exact(format!("{}*[!a-z]{}", cased[1], cased[2])));
        set.insert_parsed("anchored", &format!("^{upper_a}*{wild_c}|{wild_a}$")).unwrap();
        set.insert_parsed("open", &format!("{wild_a}*{wild_b}|?[0-9]")).unwrap();
        if literals_last {
            insert_literals(&mut set);
        }

        let text = if plant {
            let mut parts = cased.clone();
            if swap {
                parts.reverse();
            }
            format!(
                "{}{}{}{}{}{}{}",
                fillers[0], parts[0], fillers[1], parts[1], fillers[2], parts[2], fillers[3]
            )
        } else {
            random_text
        };

        let compiled = CompiledPatternSet::compile(set.clone());
        prop_assert_eq!(compiled.fallback_len(), 7);
        let naive: Vec<&str> = set.matches(&text).iter().map(|m| m.name).collect();
        let fast: Vec<&str> = compiled.matches(&text).iter().map(|m| m.name).collect();
        prop_assert_eq!(naive, fast, "text {:?}", text);
        prop_assert_eq!(set.matching_names(&text), compiled.matching_names(&text));
        let first = compiled.matching_indices(&text).first().copied();
        prop_assert_eq!(compiled.first_match(&text), first, "text {:?}", text);
    }
}
