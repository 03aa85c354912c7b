//! Result lines: a readable table, a provenance record, and the final
//! one-line JSON object the benchmark contract asks for.

use std::fmt::Write as _;

/// Named metrics in report order, each with its unit and sample count.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<Entry>,
    notes: Vec<String>,
}

#[derive(Debug)]
struct Entry {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// A line of context printed with the table (not a metric).
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Print the table, then `provenance` extended with the sample count
    /// of every metric, then the final result line.
    pub fn emit(&self, provenance: &[(&str, String)], attempted: u64, failed: u64) -> bool {
        for e in &self.entries {
            println!(
                "{:<26} {:>14.6} {:<9} ({} samples)",
                e.name, e.value, e.unit, e.samples
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        let finite = self.entries.iter().all(|e| e.value.is_finite());
        let correct = failed == 0 && attempted > 0 && finite;
        println!(
            "failed_frac {} (ratio; {failed} of {attempted} operations failed)",
            failed as f64 / attempted.max(1) as f64
        );

        let mut p = String::from("{\"provenance\": {");
        for (k, v) in provenance {
            let _ = write!(p, "{}: {}, ", json_str(k), v);
        }
        p.push_str("\"samples\": {");
        let samples: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("{}: {}", json_str(&e.name), e.samples))
            .collect();
        p.push_str(&samples.join(", "));
        p.push_str("}}}");
        println!("{p}");

        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&e.name),
                    json_num(e.value),
                    json_str(e.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        correct
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement; JSON has no NaN or
/// infinity, so a value that could not be computed prints as `null` and
/// the run is marked incorrect.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
