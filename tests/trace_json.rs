//! Chrome trace-event JSON validity: the `--trace-out` output must load in
//! `chrome://tracing` / Perfetto, so this test parses it with a small
//! self-contained JSON parser and checks the trace-event contract:
//!
//! * the document is a JSON object with a `traceEvents` array;
//! * every event has `name`, `ph`, `ts` and `dur` fields;
//! * timestamps are non-negative and monotone non-decreasing in emission
//!   order (the sink renders canonically sorted);
//! * phases are all complete (`X`) or instant (`i`) events — the sink
//!   never emits unbalanced `B`/`E` pairs.

use std::collections::BTreeMap;

use cellrel::sim::{span, Telemetry};
use cellrel::types::{SimDuration, SimTime};
use cellrel::workload::{
    run_fleet_metrics, run_scenario_telemetry, ChaosConfig, PopulationConfig, StudyConfig,
};

// ---- a minimal JSON parser (objects, arrays, strings, numbers) -----------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number at {start}: {e}"))
    }
}

// ---- the trace-event contract --------------------------------------------

fn assert_valid_chrome_trace(json_text: &str) -> usize {
    let doc = Parser::parse(json_text).expect("trace output must parse as JSON");
    let events = doc
        .get("traceEvents")
        .expect("document must have a traceEvents field")
        .as_array()
        .expect("traceEvents must be an array");
    let mut prev_ts = 0.0f64;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("event {i} missing name"));
        assert!(!name.is_empty(), "event {i} has an empty name");
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("event {i} missing ph"));
        assert!(
            ph == "X" || ph == "i",
            "event {i} has phase {ph:?}; the sink only emits complete (X) \
             and instant (i) events, so B/E imbalance is impossible"
        );
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("event {i} missing ts"));
        assert!(ts >= 0.0, "event {i} has negative ts {ts}");
        assert!(
            ts >= prev_ts,
            "event {i} ts {ts} < previous {prev_ts}: output must be canonically sorted"
        );
        prev_ts = ts;
        let dur = e
            .get("dur")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("event {i} missing dur"));
        assert!(dur >= 0.0, "event {i} has negative dur {dur}");
        if ph == "i" {
            assert_eq!(dur, 0.0, "instant event {i} must have zero dur");
        }
    }
    events.len()
}

#[test]
fn hand_built_trace_is_valid_and_escapes_names() {
    let tele = Telemetry::with_trace();
    span!(tele, "needs \"escaping\"", SimTime::from_millis(5), 3)
        .end(SimTime::from_millis(5) + SimDuration::from_millis(10));
    tele.instant("tick", SimTime::ZERO, 1);
    let json = tele.snapshot().to_chrome_json();
    let n = assert_valid_chrome_trace(&json);
    assert_eq!(n, 2);
    // Round trip: the escaped name parses back to the original.
    let doc = Parser::parse(&json).unwrap();
    let names: Vec<_> = doc
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(names.contains(&"needs \"escaping\"".to_string()));
}

#[test]
fn empty_trace_is_valid() {
    let json = Telemetry::with_trace().snapshot().to_chrome_json();
    assert_eq!(assert_valid_chrome_trace(&json), 0);
}

#[test]
fn chaos_scenario_trace_is_valid() {
    // Scenario 6 decodes to a storm schedule: guaranteed span activity.
    let cfg = ChaosConfig {
        scenarios: 1,
        horizon: SimDuration::from_hours(2),
        grace: SimDuration::from_mins(45),
        ..ChaosConfig::default()
    };
    let (_, snap) = run_scenario_telemetry(&cfg, 6, true);
    let json = snap.to_chrome_json();
    let n = assert_valid_chrome_trace(&json);
    assert_eq!(n, snap.trace().len());
    assert!(n > 0, "storm scenario produced no trace events");
}

#[test]
fn fleet_metrics_trace_is_valid() {
    let cfg = StudyConfig {
        seed: 2021,
        population: PopulationConfig {
            devices: 500,
            ..Default::default()
        },
        bs_count: 400,
        ..Default::default()
    };
    let (snap, _) = run_fleet_metrics(&cfg, 0, true);
    let json = snap.to_chrome_json();
    let n = assert_valid_chrome_trace(&json);
    assert_eq!(n as u64, snap.counter("fleet.failures"));
    assert!(n > 0, "fleet produced no failures");
}
