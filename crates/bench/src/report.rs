//! The `BENCH_N.json` records: one report type, one writer, result tables
//! drawn from report rows, and the checker for the declarative floors
//! table ([`crate::experiments::FLOORS`]).
//!
//! An experiment returns a [`Report`] next to its result table; the
//! `experiments` binary writes it, and the experiment's test checks its
//! floors against the same values without a file round trip.

use std::fmt::Write as _;
use std::path::Path;

use crate::csvout::{fmt_ns, ResultTable};

/// Named fields of a JSON object, in output order.
pub type Fields = Vec<(&'static str, Val)>;

/// One JSON value of a report, with its layout.
#[derive(Clone, Debug)]
pub enum Val {
    Int(u64),
    /// A float written with a fixed number of decimals.
    Num(f64, usize),
    Str(&'static str),
    Bool(bool),
    /// An array on one line: `[1, 2]`.
    List(Vec<Val>),
    /// An array with one element per line.
    Rows(Vec<Val>),
    /// An object on one line: `{"a": 1, "b": 2}`.
    Obj(Fields),
    /// An object with one field per line.
    Block(Fields),
}

macro_rules! int_from {
    ($($t:ty),*) => {
        $(impl From<$t> for Val {
            fn from(n: $t) -> Self {
                Val::Int(n as u64)
            }
        })*
    };
}
int_from!(u32, u64, usize);

impl From<&'static str> for Val {
    fn from(s: &'static str) -> Self {
        Val::Str(s)
    }
}

impl Val {
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Val::Int(n) => write!(out, "{n}").unwrap(),
            Val::Num(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Val::Str(s) => {
                write!(out, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")).unwrap()
            }
            Val::Bool(b) => write!(out, "{b}").unwrap(),
            Val::List(v) | Val::Rows(v) => {
                let block = matches!(self, Val::Rows(_)).then_some(indent);
                write_seq(out, "[]", v.iter().map(|v| (None, v)), block)
            }
            Val::Obj(f) | Val::Block(f) => {
                let block = matches!(self, Val::Block(_)).then_some(indent);
                write_seq(out, "{}", f.iter().map(|(k, v)| (Some(*k), v)), block)
            }
        }
    }

    /// A field of an object; panics if there is none.
    pub fn get(&self, key: &str) -> &Val {
        let (Val::Obj(f) | Val::Block(f)) = self else {
            panic!("`{key}` of a non-object {self:?}");
        };
        let field = f.iter().find(|(k, _)| *k == key);
        field.map_or_else(|| panic!("no field `{key}` in {self:?}"), |(_, v)| v)
    }

    pub fn u64(&self) -> u64 {
        match self {
            Val::Int(n) => *n,
            v => panic!("{v:?} is not an integer"),
        }
    }

    /// A number, floats unrounded.
    pub fn f64(&self) -> f64 {
        match self {
            Val::Int(n) => *n as f64,
            Val::Num(x, _) => *x,
            v => panic!("{v:?} is not a number"),
        }
    }

    /// A scalar as written, strings unquoted.
    pub fn text(&self) -> String {
        match self {
            Val::Str(s) => s.to_string(),
            v => {
                let mut out = String::new();
                v.write(&mut out, 0);
                out
            }
        }
    }

    /// Whether an object's fields match a `key=value,...` filter.
    fn matches(&self, filter: &str) -> bool {
        filter.split(',').filter(|s| !s.is_empty()).all(|kv| {
            let (k, want) = kv.split_once('=').expect("row filter is key=value");
            self.get(k).text() == want
        })
    }
}

/// Items between `brackets`, inline or one per line below `block` indent.
fn write_seq<'a>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Val)>,
    block: Option<usize>,
) {
    let inner = block.map_or(0, |n| n + 2);
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in items.enumerate() {
        out.push_str(match (i, block) {
            (0, None) => "",
            (_, None) => ", ",
            (0, Some(_)) => "\n",
            _ => ",\n",
        });
        out.extend(std::iter::repeat_n(' ', inner));
        if let Some(key) = key {
            write!(out, "\"{key}\": ").unwrap();
        }
        v.write(out, inner);
    }
    if let Some(n) = block {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', n));
    }
    out.push_str(&brackets[1..]);
}

/// The first row matching a `key=value,...` filter; panics if none does.
pub fn find<'a>(rows: &'a [Val], filter: &str) -> &'a Val {
    let row = rows.iter().find(|r| r.matches(filter));
    row.unwrap_or_else(|| panic!("no row matches `{filter}`"))
}

/// A result-table column drawn from report rows: header, row key, and
/// how to format the value.
pub type Column = (&'static str, &'static str, fn(&Val) -> String);

/// Column format: nanoseconds with an adaptive unit.
pub fn ns(v: &Val) -> String {
    fmt_ns(v.u64())
}

/// Column format: a fraction as a whole percentage.
pub fn share(v: &Val) -> String {
    format!("{:.0}%", 100.0 * v.f64())
}

/// Render report rows (objects) as a result table.
pub fn table(title: &str, columns: &[Column], rows: &[Val]) -> ResultTable {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let mut t = ResultTable::new(title, &headers);
    for row in rows {
        t.row(columns.iter().map(|(_, k, fmt)| fmt(row.get(k))).collect());
    }
    t
}

/// One experiment's machine-readable record.
#[derive(Clone, Debug)]
pub struct Report {
    /// File stem: the report is written to `<file>.json`.
    pub file: &'static str,
    /// The `"bench"` identity key, written first.
    pub bench: &'static str,
    root: Val,
}

impl Report {
    pub fn new(file: &'static str, bench: &'static str, fields: Fields) -> Self {
        let mut all = vec![("bench", Val::Str(bench))];
        all.extend(fields);
        Report {
            file,
            bench,
            root: Val::Block(all),
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.write(&mut out, 0);
        out.push('\n');
        out
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.json", self.file)), self.render())
    }

    /// The objects a selector names: `""` is the top level, `"a.b"` a
    /// nested object, and `"rows[k=v,...]"` every element of a row array
    /// whose fields match (every element without a filter).
    fn select(&self, selector: &str) -> Vec<&Val> {
        let (path, filter) = selector.split_once('[').unwrap_or((selector, "]"));
        let mut objects = vec![&self.root];
        for name in path.split('.').filter(|s| !s.is_empty()) {
            objects = objects
                .into_iter()
                .flat_map(|o| match o.get(name) {
                    Val::Rows(rows) => rows.iter().collect(),
                    v => vec![v],
                })
                .collect();
        }
        objects.retain(|o| o.matches(filter.trim_end_matches(']')));
        objects
    }
}

/// Judge every floor of `report`'s bench: each entry is `(bench, expr)`,
/// where `expr` is `selector.key op bound` (op one of `>=`, `>`, `<`, `=`;
/// bound a number or a sibling key), and alternatives joined by ` | `
/// pass if any passes. A selected row array must pass on every selected
/// row. Values compare as written to the record (floats rounded to their
/// decimals). Returns each of the bench's floors with `Err` naming the
/// failing values; a failed floor does not panic (a malformed one does).
pub fn floor_verdicts<'f>(
    report: &Report,
    floors: &[(&str, &'f str)],
) -> Vec<(&'f str, Result<(), String>)> {
    floors
        .iter()
        .filter(|(bench, _)| *bench == report.bench)
        .map(|&(_, expr)| {
            let errors: Option<Vec<String>> = expr
                .split(" | ")
                .map(|cond| check(report, cond).err())
                .collect();
            (expr, errors.map_or(Ok(()), |e| Err(e.join("; "))))
        })
        .collect()
}

/// [`floor_verdicts`], asserted: panics unless the bench has floors and
/// all of them pass, with each failure and the rendered report.
pub fn check_floors(report: &Report, floors: &[(&str, &str)]) {
    let verdicts = floor_verdicts(report, floors);
    assert!(
        !verdicts.is_empty(),
        "no floors for bench `{}`",
        report.bench
    );
    let failures: Vec<String> = verdicts
        .iter()
        .filter_map(|(expr, v)| v.as_ref().err().map(|e| format!("{expr}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} floor(s) failed:\n  {}\n{}",
        report.bench,
        failures.join("\n  "),
        report.render()
    );
}

/// One `selector.key op bound` condition; `Err` names the failing value.
fn check(report: &Report, cond: &str) -> Result<(), String> {
    let [path, op, rhs] = cond.split_whitespace().collect::<Vec<_>>()[..] else {
        panic!("malformed floor `{cond}`");
    };
    let (at, key) = path.rsplit_once('.').unwrap_or(("", path));
    let objects = report.select(at);
    if objects.is_empty() {
        return Err(format!("`{at}` selects nothing"));
    }
    for o in objects {
        let num = |k: &str| -> f64 { o.get(k).text().parse().expect("a numeric field") };
        let (value, bound) = (num(key), rhs.parse().unwrap_or_else(|_| num(rhs)));
        let holds = match op {
            ">=" => value >= bound,
            ">" => value > bound,
            "<" => value < bound,
            "=" => value == bound,
            _ => panic!("unknown operator in floor `{cond}`"),
        };
        if !holds {
            return Err(format!("{key} = {value}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let row = |arm, x: u64| Val::Obj(vec![("arm", Val::Str(arm)), ("x", x.into())]);
        let hist = Val::List(vec![Val::List(vec![2u64.into(), 5u64.into()])]);
        Report::new(
            "BENCH_0",
            "demo",
            vec![
                ("quick", Val::Bool(true)),
                (
                    "side",
                    Val::Obj(vec![("hits", 3u64.into()), ("rate", Val::Num(0.5, 4))]),
                ),
                ("rows", Val::Rows(vec![row("a", 1), row("b\"", 0)])),
                (
                    "floors",
                    Val::Block(vec![
                        ("speedup", Val::Num(1.987, 2)),
                        ("hist", hist),
                        ("empty", Val::List(vec![])),
                    ]),
                ),
            ],
        )
    }

    #[test]
    fn renders_exact_layout() {
        let want = r#"{
  "bench": "demo",
  "quick": true,
  "side": {"hits": 3, "rate": 0.5000},
  "rows": [
    {"arm": "a", "x": 1},
    {"arm": "b\"", "x": 0}
  ],
  "floors": {
    "speedup": 1.99,
    "hist": [[2, 5]],
    "empty": []
  }
}
"#;
        assert_eq!(sample().render(), want);
    }

    #[test]
    fn floors_compare_written_values() {
        let r = sample();
        check_floors(
            &r,
            &[
                ("demo", "floors.speedup >= 1.99"),
                ("demo", "side.hits = 3"),
                ("demo", "rows[arm=a].x > 0"),
                ("demo", "rows.x > 0 | side.hits = 3"),
                ("demo", "side.rate < hits"),
                ("other", "nothing > 0"),
            ],
        );
        for bad in ["rows.x > 0", "rows[arm=c].x >= 0", "side.missing >= 0"] {
            let caught = std::panic::catch_unwind(|| check_floors(&r, &[("demo", bad)]));
            assert!(caught.is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn verdicts_report_failures_without_panicking() {
        let r = sample();
        let floors = [
            ("demo", "side.hits = 3"),
            ("demo", "rows.x > 0"),
            ("demo", "floors.speedup >= 2 | side.hits > 3"),
            ("other", "nothing > 0"),
        ];
        let verdicts = floor_verdicts(&r, &floors);
        assert_eq!(
            verdicts,
            [
                ("side.hits = 3", Ok(())),
                ("rows.x > 0", Err("x = 0".to_string())),
                (
                    "floors.speedup >= 2 | side.hits > 3",
                    Err("speedup = 1.99; hits = 3".to_string())
                ),
            ]
        );
    }
}
