//! The figure table and its one writer.
//!
//! A [`Table`] holds rows of JSON values under a fixed list of columns.
//! Each column is declared once, with its JSON key, its CSV header and
//! formatter, and its text header and formatter; an empty key or header
//! leaves it out of that rendering. A [`Figure`] is the files rendered
//! from its tables, and [`Figure::write`] writes every one of them.

use crate::output::{ascii_table, fmt_f64, to_csv, OutputDir};
use dck_core::Protocol;
use serde::{Deserialize, Map, Value};
use std::io;

type Str = &'static str;

/// How a column renders its values: [`fmt_f64`] (`G`), `Display`
/// (`Plain`), a protocol's id or paper name (`Id`, `Paper`), fixed-point
/// with 0–6 decimals (`F0`…`F6`), scientific with 2 or 3 (`E2`, `E3`),
/// or a share as a percentage with one decimal (`Pct`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fmt {
    G,
    Plain,
    Id,
    Paper,
    F0,
    F2,
    F4,
    F6,
    E2,
    E3,
    Pct,
}

impl Fmt {
    fn render(self, v: &Value) -> String {
        let x = v.as_f64().unwrap_or(f64::NAN);
        let protocol = || Protocol::from_value(v).ok();
        match (self, v) {
            (Fmt::G, _) => fmt_f64(x),
            (Fmt::Plain, Value::String(s)) => s.clone(),
            (Fmt::Plain, Value::U64(n)) => n.to_string(),
            (Fmt::Plain, _) => x.to_string(),
            (Fmt::Id, _) => protocol().map(|p| p.id()).unwrap_or_default(),
            (Fmt::Paper, _) => protocol().map(|p| p.to_string()).unwrap_or_default(),
            (Fmt::F0, _) => format!("{x:.0}"),
            (Fmt::F2, _) => format!("{x:.2}"),
            (Fmt::F4, _) => format!("{x:.4}"),
            (Fmt::F6, _) => format!("{x:.6}"),
            (Fmt::E2, _) => format!("{x:.2e}"),
            (Fmt::E3, _) => format!("{x:.3e}"),
            (Fmt::Pct, _) => format!("{:.1}%", 100.0 * x),
        }
    }
}

/// One column of a [`Table`]: its JSON key, its CSV header and
/// formatter, and its text header and formatter. The `cols!` macro of
/// `figures` declares a table's columns one line each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Col {
    pub(crate) key: Str,
    pub(crate) csv: (Str, Fmt),
    pub(crate) text: (Str, Fmt),
}

/// Rows of values under a fixed list of columns.
#[derive(Debug, Clone)]
pub struct Table {
    cols: &'static [Col],
    /// The rows, one value per column.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table.
    pub(crate) fn new(cols: &'static [Col]) -> Self {
        Table { cols, rows: vec![] }
    }

    /// Appends a row of one value per column.
    pub(crate) fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.cols.len(), "ragged table row");
        self.rows.push(row);
    }

    /// Column `key` (a JSON key or a CSV header) as floats.
    pub fn f64s(&self, key: &str) -> Option<Vec<f64>> {
        let named = |c: &Col| c.key == key || c.csv.0 == key;
        let i = self.cols.iter().position(named)?;
        let column = self.rows.iter().filter_map(|r| r.get(i)?.as_f64());
        Some(column.collect())
    }

    /// Column `key` cut into rows of `width` values: a surface `z[y][x]`.
    pub(crate) fn matrix(&self, key: &str, width: usize) -> Vec<Vec<f64>> {
        let z = self.f64s(key).unwrap_or_default();
        z.chunks(width.max(1)).map(<[f64]>::to_vec).collect()
    }

    /// The headers and rendered rows of the columns `pick` names.
    fn render(&self, pick: impl Fn(&Col) -> (Str, Fmt)) -> (Vec<Str>, Vec<Vec<String>>) {
        let shown = |c: &&Col| !pick(c).0.is_empty();
        let headers = self.cols.iter().filter(shown).map(|c| pick(c).0).collect();
        let row = |r: &Vec<Value>| {
            let cells = r.iter().zip(self.cols).filter(|(_, c)| shown(c));
            cells.map(|(v, c)| pick(c).1.render(v)).collect()
        };
        (headers, self.rows.iter().map(row).collect())
    }

    /// The CSV file.
    pub fn csv(&self) -> String {
        let (headers, rows) = self.render(|c| c.csv);
        to_csv(&headers, &rows)
    }

    /// The text table.
    pub fn text(&self) -> String {
        let (headers, rows) = self.render(|c| c.text);
        ascii_table(&headers, &rows)
    }

    /// The rows as a JSON array of objects.
    pub fn json(&self) -> Value {
        let object = |r: &Vec<Value>| {
            let cells = r.iter().zip(self.cols).filter(|(_, c)| !c.key.is_empty());
            obj(cells.map(|(v, c)| (c.key, v.clone())))
        };
        Value::Array(self.rows.iter().map(object).collect())
    }
}

/// A JSON object with its keys in the given order.
pub fn obj<'k>(entries: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in entries {
        map.insert(k, v);
    }
    Value::Object(map)
}

/// A regenerated figure or table: its tables, the files rendered from
/// them and the summary `dck experiments` prints.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The tables, in the order the figure defines them.
    pub tables: Vec<Table>,
    /// Every file, as (name, contents).
    pub files: Vec<(String, String)>,
    /// What `dck experiments` prints once the files are written.
    pub summary: String,
}

impl Figure {
    /// Writes every file under `out`.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write(&self, out: &OutputDir) -> io::Result<()> {
        for (name, contents) in &self.files {
            out.write_text(name, contents)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    const COLS: &[Col] = &[
        Col {
            key: "protocol",
            csv: ("protocol", Fmt::Id),
            text: ("protocol", Fmt::Paper),
        },
        Col {
            key: "waste",
            csv: ("waste", Fmt::G),
            text: ("W", Fmt::F4),
        },
        Col {
            key: "gain",
            csv: ("", Fmt::G),
            text: ("gain", Fmt::Pct),
        },
        Col {
            key: "",
            csv: ("ratio", Fmt::E2),
            text: ("", Fmt::G),
        },
    ];

    fn table() -> Table {
        let mut t = Table::new(COLS);
        let p = Protocol::DoubleNbl.to_value();
        t.push(vec![p, 0.25.to_value(), 0.5.to_value(), 1234.5.to_value()]);
        t
    }

    #[test]
    fn each_rendering_keeps_its_own_columns() {
        let t = table();
        assert_eq!(t.csv(), "protocol,waste,ratio\ndouble-nbl,0.25,1.23e3\n");
        let text = t.text();
        assert!(text.contains("| protocol  | W      | gain  |"), "{text}");
        assert!(text.contains("| DOUBLENBL | 0.2500 | 50.0% |"), "{text}");
        let json = serde_json::to_string(&t.json()).unwrap();
        assert_eq!(
            json,
            r#"[{"protocol":"DoubleNbl","waste":0.25,"gain":0.5}]"#
        );
    }

    #[test]
    fn columns_read_back_by_json_key_or_csv_header() {
        let t = table();
        assert_eq!(t.f64s("waste"), Some(vec![0.25]));
        assert_eq!(t.f64s("ratio"), Some(vec![1234.5]));
        assert_eq!(t.f64s("protocol"), Some(vec![]));
        assert_eq!(t.f64s("nope"), None);
    }

    #[test]
    fn formats() {
        let x = 2.0f64.to_value();
        let cases = [
            (Fmt::Plain, "2"),
            (Fmt::F0, "2"),
            (Fmt::F2, "2.00"),
            (Fmt::F6, "2.000000"),
            (Fmt::E3, "2.000e0"),
            (Fmt::Pct, "200.0%"),
        ];
        for (fmt, want) in cases {
            assert_eq!(fmt.render(&x), want, "{fmt:?}");
        }
        assert_eq!(Fmt::Plain.render(&7u64.to_value()), "7");
        assert_eq!(Fmt::Plain.render(&"Base".to_value()), "Base");
    }
}
