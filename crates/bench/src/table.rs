//! Result tables: the unit of output of every experiment.

/// Escapes a string per JSON (RFC 8259) and wraps it in quotes, matching
/// serde_json's output byte for byte so regenerated result files diff
/// cleanly against ones written by earlier serde-based revisions.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a list of pre-rendered JSON values as a pretty array at the
/// given indent depth (2 spaces per level, serde_json style).
fn json_array(items: &[String], depth: usize) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let body: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
    format!("[\n{}\n{close}]", body.join(",\n"))
}

/// One experiment's table/figure data.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("E5", "E8", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, pre-formatted.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the columns.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The cell in column `column` of the first row whose leading cells
    /// are `key`.
    ///
    /// # Panics
    ///
    /// Panics, naming the table, if the column or the row is missing.
    pub(crate) fn cell(&self, key: &[&str], column: &str) -> &str {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("table {} has no column {column:?}", self.id));
        let row = self
            .rows
            .iter()
            .find(|row| row.len() >= key.len() && row.iter().zip(key).all(|(c, k)| c == k))
            .unwrap_or_else(|| panic!("table {} has no row {key:?}", self.id));
        &row[col]
    }

    /// [`Table::cell`] parsed as a number; a trailing `x` (a [`ratio`]
    /// cell) is accepted.
    ///
    /// # Panics
    ///
    /// Panics, naming the table, if the column or the row is missing or
    /// the cell is not a number.
    pub(crate) fn num(&self, key: &[&str], column: &str) -> f64 {
        let cell = self.cell(key, column);
        cell.strip_suffix('x')
            .unwrap_or(cell)
            .parse()
            .unwrap_or_else(|_| {
                panic!(
                    "table {}: {column} of row {key:?} is {cell:?}, not a number",
                    self.id
                )
            })
    }

    /// Renders as pretty-printed JSON (2-space indent), byte-compatible
    /// with `serde_json::to_string_pretty` on the former derive layout so
    /// checked-in `results/*.json` files stay diffable.
    pub fn to_json_pretty(&self) -> String {
        let columns: Vec<String> = self.columns.iter().map(|c| json_string(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                json_array(&cells, 2)
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": {},\n  \"notes\": {}\n}}",
            json_string(&self.id),
            json_string(&self.title),
            json_array(&columns, 1),
            json_array(&rows, 1),
            json_array(&notes, 1),
        )
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Formats a nanosecond quantity as microseconds with two decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

/// Formats a ratio with two decimals and an `x` suffix.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("E0", "demo", ["threads", "time"]);
        t.row(["1", "10.0"]);
        t.row(["64", "123.4"]);
        t.note("shape check");
        let s = t.render();
        assert!(s.contains("E0: demo"));
        assert!(s.contains("threads"));
        assert!(s.contains("note: shape check"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len(), "rows aligned");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("E0", "demo", ["a", "b"]);
        t.row(["only one"]);
    }

    fn sweep() -> Table {
        let mut t = Table::new("E0", "demo", ["home", "clustering", "ms", "ratio"]);
        t.row(["flat", "per-ccx", "13.436", "-"]);
        t.row(["delegates", "per-ccx", "3.724", "3.61x"]);
        t
    }

    #[test]
    fn lookup_by_row_key_and_column() {
        let t = sweep();
        assert_eq!(t.cell(&["delegates"], "ms"), "3.724");
        assert_eq!(t.num(&["flat", "per-ccx"], "ms"), 13.436);
        assert_eq!(t.num(&["delegates", "per-ccx"], "ratio"), 3.61);
        assert_eq!(t.cell(&["flat", "per-ccx"], "ratio"), "-");
    }

    #[test]
    #[should_panic(expected = "table E0 has no column \"completion_ms\"")]
    fn lookup_of_a_missing_column_panics() {
        sweep().num(&["flat"], "completion_ms");
    }

    #[test]
    #[should_panic(expected = "table E0 has no row [\"flat\", \"per-core\"]")]
    fn lookup_of_a_missing_row_panics() {
        sweep().num(&["flat", "per-core"], "ms");
    }

    #[test]
    #[should_panic(expected = "table E0: ratio of row [\"flat\"] is \"-\", not a number")]
    fn lookup_of_a_non_number_panics() {
        sweep().num(&["flat"], "ratio");
    }

    #[test]
    fn formatters() {
        assert_eq!(us(12_345.0), "12.35");
        assert_eq!(ratio(1.399), "1.40x");
    }

    #[test]
    fn json_matches_serde_pretty_layout() {
        let mut t = Table::new("E0", "demo \"quoted\"", ["a", "b"]);
        t.row(["1", "x\ny"]);
        t.note("shape");
        let expect = concat!(
            "{\n",
            "  \"id\": \"E0\",\n",
            "  \"title\": \"demo \\\"quoted\\\"\",\n",
            "  \"columns\": [\n    \"a\",\n    \"b\"\n  ],\n",
            "  \"rows\": [\n    [\n      \"1\",\n      \"x\\ny\"\n    ]\n  ],\n",
            "  \"notes\": [\n    \"shape\"\n  ]\n",
            "}"
        );
        assert_eq!(t.to_json_pretty(), expect);
        // Empty collections collapse to `[]` exactly like serde_json.
        let empty = Table::new("E0", "t", Vec::<String>::new());
        assert!(empty.to_json_pretty().contains("\"columns\": [],"));
    }
}
