//! The figures' one output format: a TSV table on stdout, and the same rows
//! as JSON lines when `AETHER_JSON` names a file.
//!
//! A table is a `#` title, a header line and tab-separated rows. With
//! `AETHER_JSON=<path>` every row is also appended to `path` as one JSON
//! object keyed by the header, plus `bench` = the figure's name (JSON Lines:
//! each line a complete document, so several figures can share one artifact
//! file). A cell is written as a JSON number when it parses as one — `NaN`
//! and infinities become `null` — and as a string otherwise, so the JSON row
//! carries exactly the digits the TSV row shows. No serde.

use std::io::Write;

/// One figure's output table.
pub struct Table {
    bench: &'static str,
    header: Vec<String>,
    json: Option<std::fs::File>,
}

impl Table {
    /// Print `title` (each line after a `# `) and the `\t`-separated
    /// `header`, and open the `AETHER_JSON` file, if one is named, for
    /// appending.
    ///
    /// # Panics
    /// When the JSON file cannot be opened.
    pub fn new(bench: &'static str, title: &str, header: &str) -> Table {
        for line in title.lines() {
            println!("# {line}");
        }
        println!("{header}");
        let json = crate::env::json_path().map(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("AETHER_JSON={}: {e}", path.display()))
        });
        Table {
            bench,
            header: header.split('\t').map(String::from).collect(),
            json,
        }
    }

    /// Print one row, its cells joined by `\t`, and append it as JSON.
    pub fn row(&mut self, row: &str) {
        println!("{row}");
        if let Some(f) = &mut self.json {
            let cells = row.split('\t');
            let line = json_object(self.bench, self.header.iter().zip(cells));
            writeln!(f, "{line}").expect("append to AETHER_JSON");
        }
    }
}

fn json_object<'a>(bench: &str, fields: impl Iterator<Item = (&'a String, &'a str)>) -> String {
    let mut out = String::from("{\"bench\":");
    push_str(&mut out, bench);
    for (key, cell) in fields {
        out.push(',');
        push_str(&mut out, key);
        out.push(':');
        match cell.parse::<f64>() {
            Ok(x) if x.is_finite() => out.push_str(cell),
            Ok(_) => out.push_str("null"),
            Err(_) => push_str(&mut out, cell),
        }
    }
    out.push('}');
    out
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_escapes() {
        let header = ["variant", "threads", "mb_per_s", "catchup_ms", "note"].map(String::from);
        let cells = ["CD", "4", "123.456", "NaN", "a\"b\\c\nd"];
        let s = json_object("fig8_threads", header.iter().zip(cells));
        assert_eq!(
            s,
            r#"{"bench":"fig8_threads","variant":"CD","threads":4,"mb_per_s":123.456,"catchup_ms":null,"note":"a\"b\\c\nd"}"#
        );
    }
}
