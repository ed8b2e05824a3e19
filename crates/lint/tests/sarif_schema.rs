//! SARIF 2.1.0 shape validation.
//!
//! The emitter in `diag::render_sarif` is hand-rolled (no serde in the
//! workspace), so this test re-parses its output with a small
//! self-contained JSON reader and checks the document against the
//! SARIF 2.1.0 schema's required shape: `version`/`$schema` at the
//! root, `runs[].tool.driver` with `name` and well-formed `rules`,
//! and for every result a known `ruleId`, a legal `level`, a
//! `message.text`, a physical location with `artifactLocation.uri`
//! and a 1-based `region.startLine`, plus the `partialFingerprints`
//! property bag keyed by our versioned fingerprint name.

use filterwatch_lint::{lint_files, render_sarif, Config};
use std::collections::BTreeMap;

/// Minimal JSON value tree.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.s.get(self.i).copied().ok_or("bad escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(
                                self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(cp).ok_or("bad \\u codepoint")?);
                            self.i += 4;
                        }
                        c => out.push(c as char),
                    }
                }
                c => {
                    // Multi-byte UTF-8: copy the whole sequence.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.s.get(self.i..self.i + len).ok_or("truncated utf8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("bad array at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            m.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("bad object at byte {}", self.i)),
            }
        }
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value().expect("SARIF output must be valid JSON");
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing garbage after JSON document");
    v
}

/// Sources that exercise every severity level the emitter can produce
/// (error, warning, note) across several rule families.
fn sample_diags() -> Vec<filterwatch_lint::Diagnostic> {
    let src = "\
pub fn first_hop(hops: &[u32]) -> u32 { hops.first().unwrap() }\n\
pub fn documented(hops: &[u32]) -> u32 { hops.first().expect(\"non-empty by construction\") }\n\
pub fn rewind(now: SimTime, slack: u64) -> SimTime { SimTime::from_secs(now.secs() - slack) }\n";
    lint_files(
        &[("crates/sample/src/lib.rs".to_string(), src.to_string())],
        &Config::workspace_default(),
    )
}

#[test]
fn sarif_output_matches_2_1_0_shape() {
    let diags = sample_diags();
    assert!(diags.len() >= 3, "sample should produce several findings");
    let doc = parse(&render_sarif(&diags));

    // Root: $schema points at 2.1.0, version is the literal "2.1.0".
    assert!(doc
        .get("$schema")
        .and_then(Json::str)
        .is_some_and(|s| s.contains("sarif") && s.contains("2.1.0")));
    assert_eq!(doc.get("version").and_then(Json::str), Some("2.1.0"));

    let runs = doc.get("runs").and_then(Json::arr).expect("runs array");
    assert_eq!(runs.len(), 1);
    let run = &runs[0];

    // tool.driver: name + rules with id and shortDescription.text.
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::str),
        Some("filterwatch-lint")
    );
    let rules = driver.get("rules").and_then(Json::arr).expect("rules");
    assert!(!rules.is_empty());
    let rule_ids: Vec<&str> = rules
        .iter()
        .map(|r| r.get("id").and_then(Json::str).expect("rule id"))
        .collect();
    for r in rules {
        let text = r
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Json::str)
            .expect("rule shortDescription.text");
        assert!(!text.is_empty());
    }
    for family in ["h1-hot-alloc", "t1-sim-time", "c1-spawn-merge"] {
        assert!(
            rule_ids.contains(&family),
            "missing rule metadata: {family}"
        );
    }

    // results: every finding in, with schema-legal fields.
    let results = run.get("results").and_then(Json::arr).expect("results");
    assert_eq!(results.len(), diags.len());
    let mut levels_seen = Vec::new();
    for res in results {
        let rule_id = res.get("ruleId").and_then(Json::str).expect("ruleId");
        assert!(rule_ids.contains(&rule_id), "unknown ruleId {rule_id}");
        let level = res.get("level").and_then(Json::str).expect("level");
        assert!(
            ["none", "note", "warning", "error"].contains(&level),
            "illegal level {level}"
        );
        levels_seen.push(level.to_string());
        let text = res
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::str)
            .expect("message.text");
        assert!(!text.is_empty());
        let locs = res.get("locations").and_then(Json::arr).expect("locations");
        assert_eq!(locs.len(), 1);
        let phys = locs[0].get("physicalLocation").expect("physicalLocation");
        let uri = phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::str)
            .expect("artifactLocation.uri");
        assert!(!uri.starts_with('/'), "uri must be repo-relative: {uri}");
        let start = phys
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Json::num)
            .expect("region.startLine");
        assert!(start >= 1.0 && start.fract() == 0.0);
        let fp = res
            .get("partialFingerprints")
            .and_then(|p| p.get("filterwatchFingerprint/v2"))
            .and_then(Json::str)
            .expect("partialFingerprints.filterwatchFingerprint/v2");
        assert!(fp.contains("\t@"), "fingerprint missing digest: {fp}");
    }
    // The sample covers every level the emitter maps to.
    for want in ["error", "warning", "note"] {
        assert!(levels_seen.iter().any(|l| l == want), "no {want} result");
    }
}

#[test]
fn sarif_empty_run_is_still_well_formed() {
    let doc = parse(&render_sarif(&[]));
    let runs = doc.get("runs").and_then(Json::arr).expect("runs");
    assert_eq!(
        runs[0]
            .get("results")
            .and_then(Json::arr)
            .map(<[Json]>::len),
        Some(0)
    );
}
