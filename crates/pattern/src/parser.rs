//! Parser for the pattern language.
//!
//! Grammar (informal):
//!
//! ```text
//! pattern := branch ('|' branch)*
//! branch  := '^'? piece* '$'?
//! piece   := literal-char | '\' any-char | '*' | '?' | class
//! class   := '[' '!'? class-item+ ']'
//! ```

use crate::token::{CharClass, Token};
use crate::{Branch, Pattern};

/// An error produced while compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character in the source.
    pub position: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pattern parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn parse(source: &str, case_insensitive: bool) -> Result<Pattern, ParseError> {
    let mut branches = Vec::new();
    for raw in split_alternation(source)? {
        branches.push(parse_branch(&raw, source)?);
    }
    Ok(Pattern {
        branches,
        source: source.to_string(),
        case_insensitive,
    })
}

/// Split on top-level unescaped `|`. Returns (text, base-offset) pairs.
fn split_alternation(source: &str) -> Result<Vec<BranchSrc>, ParseError> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut cur_start = 0usize;
    let mut in_class = false;
    let mut chars = source.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => {
                cur.push(c);
                if let Some((_, esc)) = chars.next() {
                    cur.push(esc);
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "trailing backslash".into(),
                    });
                }
            }
            '[' if !in_class => {
                in_class = true;
                cur.push(c);
            }
            ']' if in_class => {
                in_class = false;
                cur.push(c);
            }
            '|' if !in_class => {
                out.push(BranchSrc {
                    text: std::mem::take(&mut cur),
                    offset: cur_start,
                });
                cur_start = i + 1;
            }
            _ => cur.push(c),
        }
    }
    if in_class {
        return Err(ParseError {
            position: source.len(),
            message: "unterminated character class".into(),
        });
    }
    out.push(BranchSrc {
        text: cur,
        offset: cur_start,
    });
    Ok(out)
}

struct BranchSrc {
    text: String,
    offset: usize,
}

fn parse_branch(src: &BranchSrc, _full: &str) -> Result<Branch, ParseError> {
    let mut text = src.text.as_str();
    let mut anchored_start = false;
    let mut anchored_end = false;

    if let Some(rest) = text.strip_prefix('^') {
        anchored_start = true;
        text = rest;
    }
    // `$` anchors only when unescaped; check the byte before it.
    if text.ends_with('$') && !ends_with_escaped_dollar(text) {
        anchored_end = true;
        text = &text[..text.len() - 1];
    }

    let mut tokens: Vec<Token> = Vec::new();
    let mut lit = String::new();
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err(ParseError {
                        position: src.offset + i,
                        message: "trailing backslash".into(),
                    });
                };
                lit.push(esc);
            }
            '*' => {
                flush_literal(&mut tokens, &mut lit);
                // Collapse consecutive stars.
                if tokens.last() != Some(&Token::AnyRun) {
                    tokens.push(Token::AnyRun);
                }
            }
            '?' => {
                flush_literal(&mut tokens, &mut lit);
                tokens.push(Token::AnyChar);
            }
            '[' => {
                flush_literal(&mut tokens, &mut lit);
                let class = parse_class(&mut chars, src.offset + i)?;
                tokens.push(Token::Class(class));
            }
            _ => lit.push(c),
        }
    }
    flush_literal(&mut tokens, &mut lit);

    Ok(Branch {
        tokens,
        anchored_start,
        anchored_end,
    })
}

fn ends_with_escaped_dollar(text: &str) -> bool {
    // Count trailing backslashes before the final `$`.
    let body = &text[..text.len() - 1];
    let mut backslashes = 0;
    for c in body.chars().rev() {
        if c == '\\' {
            backslashes += 1;
        } else {
            break;
        }
    }
    backslashes % 2 == 1
}

fn flush_literal(tokens: &mut Vec<Token>, lit: &mut String) {
    if !lit.is_empty() {
        tokens.push(Token::Literal(std::mem::take(lit)));
    }
}

fn parse_class(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    open_pos: usize,
) -> Result<CharClass, ParseError> {
    let mut class = CharClass::default();
    if let Some(&(_, '!')) = chars.peek() {
        class.negated = true;
        chars.next();
    }
    let mut any = false;
    loop {
        let Some((i, c)) = chars.next() else {
            return Err(ParseError {
                position: open_pos,
                message: "unterminated character class".into(),
            });
        };
        match c {
            ']' if any => return Ok(class),
            ']' => {
                return Err(ParseError {
                    position: i,
                    message: "empty character class".into(),
                })
            }
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err(ParseError {
                        position: i,
                        message: "trailing backslash in class".into(),
                    });
                };
                class.singles.push(esc);
                any = true;
            }
            _ => {
                // Range? Look for `-X` where X != ']'.
                if let Some(&(_, '-')) = chars.peek() {
                    let mut probe = chars.clone();
                    probe.next(); // consume '-'
                    match probe.peek() {
                        Some(&(_, hi)) if hi != ']' => {
                            chars.next(); // '-'
                            let Some((hi_pos, hi)) = chars.next() else {
                                return Err(ParseError {
                                    position: open_pos,
                                    message: "unterminated character class".into(),
                                });
                            };
                            if hi < c {
                                return Err(ParseError {
                                    position: hi_pos,
                                    message: format!("inverted range {c}-{hi}"),
                                });
                            }
                            class.ranges.push((c, hi));
                            any = true;
                            continue;
                        }
                        _ => {}
                    }
                }
                class.singles.push(c);
                any = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        parse(src, true).unwrap().branches()[0].tokens.clone()
    }

    #[test]
    fn literal_only() {
        assert_eq!(tokens("abc"), vec![Token::Literal("abc".into())]);
    }

    #[test]
    fn star_collapsing() {
        assert_eq!(
            tokens("a**b"),
            vec![
                Token::Literal("a".into()),
                Token::AnyRun,
                Token::Literal("b".into()),
            ]
        );
    }

    #[test]
    fn anchors_detected() {
        let p = parse("^abc$", true).unwrap();
        assert!(p.branches()[0].anchored_start);
        assert!(p.branches()[0].anchored_end);
    }

    #[test]
    fn escaped_dollar_is_literal() {
        let p = parse(r"cost\$", true).unwrap();
        assert!(!p.branches()[0].anchored_end);
        assert!(p.is_match("the cost$ is high"));
    }

    #[test]
    fn alternation_split_respects_class_and_escape() {
        let p = parse(r"a[|]b|c\|d", true).unwrap();
        assert_eq!(p.branches().len(), 2);
        assert!(p.is_match("a|b"));
        assert!(p.is_match("c|d"));
    }

    #[test]
    fn unterminated_class_is_error() {
        assert!(parse("[abc", true).is_err());
    }

    #[test]
    fn empty_class_is_error() {
        assert!(parse("[]", true).is_err());
    }

    #[test]
    fn inverted_range_is_error() {
        assert!(parse("[z-a]", true).is_err());
    }

    #[test]
    fn trailing_backslash_is_error() {
        assert!(parse("abc\\", true).is_err());
    }

    #[test]
    fn range_followed_by_bracket_is_literal_dash() {
        // `[a-]` = 'a' or '-'
        let p = parse("^[a-]$", true).unwrap();
        assert!(p.is_match("a"));
        assert!(p.is_match("-"));
        assert!(!p.is_match("b"));
    }

    #[test]
    fn error_display() {
        let err = parse("[", true).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("parse error"), "{text}");
    }
}
