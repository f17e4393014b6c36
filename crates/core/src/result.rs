//! Benchmark results, formatted like the paper's §III-A example output.

use std::fmt;

/// Names of the three fixed-function counters, in output order.
pub const FIXED_COUNTER_NAMES: [&str; 3] =
    ["Instructions retired", "Core cycles", "Reference cycles"];

/// The result of one benchmark: per-event values, normalized per code
/// repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    entries: Vec<(String, f64)>,
}

impl BenchmarkResult {
    /// Creates a result from (event name, value) pairs.
    pub fn new(entries: Vec<(String, f64)>) -> BenchmarkResult {
        BenchmarkResult { entries }
    }

    /// Looks up an event's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Number of core cycles per repetition (the most common headline
    /// number).
    pub fn core_cycles(&self) -> Option<f64> {
        self.get("Core cycles")
    }

    /// All entries in output order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Iterates over (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

impl fmt::Display for BenchmarkResult {
    /// Formats the result exactly like nanoBench's output in §III-A:
    ///
    /// ```text
    /// Instructions retired: 1.00
    /// Core cycles: 4.00
    /// ...
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            writeln!(f, "{name}: {value:.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_format() {
        let r = BenchmarkResult::new(vec![
            ("Instructions retired".to_string(), 1.0),
            ("Core cycles".to_string(), 4.0),
            ("MEM_LOAD_RETIRED.L1_HIT".to_string(), 0.996),
        ]);
        let text = r.to_string();
        assert!(text.starts_with("Instructions retired: 1.00\nCore cycles: 4.00\n"));
        assert!(text.contains("MEM_LOAD_RETIRED.L1_HIT: 1.00"));
        assert_eq!(r.core_cycles(), Some(4.0));
        assert_eq!(r.get("nope"), None);
    }
}
