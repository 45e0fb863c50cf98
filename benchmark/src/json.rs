//! JSON for result lines, result files and `BENCHMARK.json`. Parsing is the
//! repository's own reader (`dim_cluster::json`); this module adds the
//! writer it lacks, which must print a measured value with all its digits,
//! and the few typed accessors the harness needs.

use std::fmt::Write as _;

pub use dim_cluster::json::Json;

pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn num(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn list(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

pub fn fields(value: &Json) -> Option<&[(String, Json)]> {
    match value {
        Json::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

/// Compact single-line rendering.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust's `Display` prints the shortest decimal that reads back to
        // the same f64, without an exponent. JSON has no NaN or infinity:
        // those print as null and fail validation downstream.
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Escapes only what the repository's reader reads back; other control
/// characters (none occur in names, versions or paths) become spaces.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_values_read_back_exactly() {
        let doc = obj(vec![
            ("name", text("a \"quoted\"\tpath\\x")),
            ("value", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.5e-9)),
            (
                "list",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(3.0)]),
            ),
        ]);
        assert_eq!(Json::parse(&render(&doc)).unwrap(), doc);
    }
}
