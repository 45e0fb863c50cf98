//! Result reporting: aligned console tables plus JSON-lines dumps.

use std::io::Write;
use std::path::Path;

use dim_cluster::json::Json;

/// Prints a header row followed by a rule.
pub fn header(columns: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, width) in columns {
        line.push_str(&format!("{name:>width$} "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Formats a duration in seconds with ms precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A value that renders into a bench record.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

macro_rules! impl_to_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_to_json_num!(f64, u64, usize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Declares a bench-row struct together with its [`ToJson`] impl: one JSON
/// object whose keys are the field names, in declaration order.
macro_rules! json_row {
    ($(#[$meta:meta])* struct $name:ident { $($field:ident: $ty:ty),* $(,)? }) => {
        $(#[$meta])*
        struct $name {
            $($field: $ty),*
        }

        impl $crate::report::ToJson for $name {
            fn to_json(&self) -> dim_cluster::json::Json {
                dim_cluster::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::report::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}
pub(crate) use json_row;

/// Appends one JSON record per line to `<out_dir>/<name>.jsonl`, creating
/// the directory if needed. IO failures are reported but non-fatal — the
/// console table is the primary output.
pub fn dump_json(out_dir: &str, name: &str, record: &Json) {
    let dir = Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {out_dir}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = result {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    json_row! {
        struct Row {
            x: u64,
            label: &'static str,
        }
    }

    #[test]
    fn dump_appends_lines() {
        let dir = std::env::temp_dir().join(format!("dim-report-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        dump_json(&dir_s, "t", &Row { x: 1, label: "a" }.to_json());
        dump_json(&dir_s, "t", &Row { x: 2, label: "b" }.to_json());
        let content = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(content, "{\"x\":1,\"label\":\"a\"}\n{\"x\":2,\"label\":\"b\"}\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
