//! Minimal CSV ingestion and export.
//!
//! The reader supports a header line, quoted fields (RFC-4180 style double
//! quotes with `""` escapes), type inference over a configurable prefix of the
//! file, and explicit schemas. It exists so the examples can load real files;
//! the generators in `atlas-datagen` construct tables directly.

use crate::builder::TableBuilder;
use crate::error::{ColumnarError, Result};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first line is a header (default `true`).
    pub has_header: bool,
    /// How many data lines to examine for type inference (default 256).
    pub inference_rows: usize,
    /// Strings treated as NULL (default: empty string, `NULL`, `null`, `NA`).
    pub null_markers: Vec<String>,
    /// Rows per sealed storage segment while streaming
    /// (default: [`crate::segment::default_segment_rows`]).
    pub segment_rows: Option<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
            inference_rows: 256,
            null_markers: vec![
                String::new(),
                "NULL".to_string(),
                "null".to_string(),
                "NA".to_string(),
            ],
            segment_rows: None,
        }
    }
}

/// Split one CSV line into fields, honouring double quotes.
fn split_line(line: &str, delimiter: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                current.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut current));
        } else {
            current.push(c);
        }
    }
    fields.push(current);
    fields
}

fn parse_field(raw: &str, dtype: DataType, opts: &CsvOptions) -> Option<Value> {
    let trimmed = raw.trim();
    if opts.null_markers.iter().any(|m| m == trimmed) {
        return Some(Value::Null);
    }
    match dtype {
        DataType::Int => trimmed.parse::<i64>().ok().map(Value::Int),
        DataType::Float => trimmed.parse::<f64>().ok().map(Value::Float),
        DataType::Bool => match trimmed.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" | "yes" => Some(Value::Bool(true)),
            "false" | "f" | "0" | "no" => Some(Value::Bool(false)),
            _ => None,
        },
        DataType::Str => Some(Value::Str(trimmed.to_string())),
    }
}

fn infer_type(samples: &[&str], opts: &CsvOptions) -> DataType {
    let mut all_int = true;
    let mut all_float = true;
    let mut all_bool = true;
    let mut any_value = false;
    for raw in samples {
        let trimmed = raw.trim();
        if opts.null_markers.iter().any(|m| m == trimmed) {
            continue;
        }
        any_value = true;
        if trimmed.parse::<i64>().is_err() {
            all_int = false;
        }
        if trimmed.parse::<f64>().is_err() {
            all_float = false;
        }
        let lower = trimmed.to_ascii_lowercase();
        if !matches!(lower.as_str(), "true" | "false" | "t" | "f" | "yes" | "no") {
            all_bool = false;
        }
    }
    if !any_value {
        return DataType::Str;
    }
    if all_int {
        DataType::Int
    } else if all_float {
        DataType::Float
    } else if all_bool {
        DataType::Bool
    } else {
        DataType::Str
    }
}

/// Read a table from any reader producing CSV text, **streaming**: rows flow
/// straight into a segment-sealing [`TableBuilder`], so the parser's working
/// state — raw text buffered, rows pending in the open segment — is bounded
/// by one segment of rows (plus the type-inference prefix when no schema is
/// supplied), never by the file size. The decoded table itself still grows
/// with the data, of course; what streaming removes is the old
/// whole-file-in-memory line buffer alongside it.
pub fn read_csv<R: Read>(
    name: &str,
    reader: R,
    schema: Option<Schema>,
    opts: &CsvOptions,
) -> Result<Table> {
    let mut lines = BufReader::new(reader).lines();
    // Pull the next non-empty line (whitespace-only lines are skipped, as the
    // buffered reader always did).
    let mut next_line = move || -> Result<Option<String>> {
        for line in lines.by_ref() {
            let line = line?;
            if !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
        Ok(None)
    };

    let first = next_line()?.ok_or_else(|| ColumnarError::Csv {
        line: 0,
        message: "empty input".to_string(),
    })?;
    // Header handling: a headerless file's first line is data and must be
    // processed again below.
    let (header, mut pending): (Vec<String>, Vec<String>) = if opts.has_header {
        (
            split_line(&first, opts.delimiter)
                .into_iter()
                .map(|h| h.trim().to_string())
                .collect(),
            Vec::new(),
        )
    } else {
        let ncols = split_line(&first, opts.delimiter).len();
        ((0..ncols).map(|i| format!("col{i}")).collect(), vec![first])
    };

    let schema = match schema {
        Some(s) => {
            if s.len() != header.len() {
                return Err(ColumnarError::LengthMismatch {
                    expected: s.len(),
                    found: header.len(),
                });
            }
            s
        }
        None => {
            // Buffer only the inference prefix, infer types, then replay it.
            while pending.len() < opts.inference_rows {
                match next_line()? {
                    Some(line) => pending.push(line),
                    None => break,
                }
            }
            let mut columns_samples: Vec<Vec<&str>> = vec![Vec::new(); header.len()];
            let split_pending: Vec<Vec<String>> = pending
                .iter()
                .map(|line| split_line(line, opts.delimiter))
                .collect();
            for fields in &split_pending {
                for (i, f) in fields.iter().enumerate().take(header.len()) {
                    columns_samples[i].push(f.as_str());
                }
            }
            let fields: Vec<Field> = header
                .iter()
                .zip(columns_samples.iter())
                .map(|(name, samples)| Field::nullable(name.clone(), infer_type(samples, opts)))
                .collect();
            Schema::new(fields)?
        }
    };

    let mut builder = TableBuilder::new(name, schema.clone());
    if let Some(segment_rows) = opts.segment_rows {
        builder = builder.with_segment_rows(segment_rows);
    }
    let mut data_line_no = 0usize; // 0-based index among non-empty data lines
    let mut row = Vec::with_capacity(schema.len());
    let mut push_line = |builder: &mut TableBuilder, line: &str, line_no: usize| -> Result<()> {
        parse_row(line, &schema, opts, line_no, &mut row)?;
        builder.push_row(&row)
    };
    for line in pending.drain(..) {
        push_line(&mut builder, &line, data_line_no)?;
        data_line_no += 1;
    }
    while let Some(line) = next_line()? {
        push_line(&mut builder, &line, data_line_no)?;
        data_line_no += 1;
    }
    builder.build()
}

/// Split and type one data line into `row`, reporting errors with the
/// 1-based physical line number (`line_no` counts non-empty data lines).
fn parse_row(
    line: &str,
    schema: &Schema,
    opts: &CsvOptions,
    line_no: usize,
    row: &mut Vec<Value>,
) -> Result<()> {
    let physical = line_no + if opts.has_header { 2 } else { 1 };
    let fields = split_line(line, opts.delimiter);
    if fields.len() != schema.len() {
        return Err(ColumnarError::Csv {
            line: physical,
            message: format!("expected {} fields, found {}", schema.len(), fields.len()),
        });
    }
    row.clear();
    for (raw, field) in fields.iter().zip(schema.fields().iter()) {
        match parse_field(raw, field.dtype, opts) {
            Some(v) => row.push(v),
            None => {
                return Err(ColumnarError::Csv {
                    line: physical,
                    message: format!(
                        "cannot parse '{raw}' as {} for column {}",
                        field.dtype, field.name
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Read a table from a CSV file on disk.
pub fn read_csv_path<P: AsRef<Path>>(
    name: &str,
    path: P,
    schema: Option<Schema>,
    opts: &CsvOptions,
) -> Result<Table> {
    let file = std::fs::File::open(path)?;
    read_csv(name, file, schema, opts)
}

/// Write a table as CSV (header + rows) to any writer.
pub fn write_csv<W: Write>(table: &Table, mut writer: W) -> Result<()> {
    let names = table.schema().names();
    writeln!(writer, "{}", names.join(","))?;
    // Walk segment by segment so each cell is a direct indexed load instead
    // of a per-cell segment lookup.
    for segment in table.segments() {
        for local in 0..segment.num_rows() {
            let mut fields = Vec::with_capacity(names.len());
            for col in segment.columns() {
                let s = match col.value(local) {
                    Value::Null => String::new(),
                    Value::Str(s) => {
                        if s.contains(',') || s.contains('"') {
                            format!("\"{}\"", s.replace('"', "\"\""))
                        } else {
                            s
                        }
                    }
                    Value::Int(i) => i.to_string(),
                    Value::Float(f) => f.to_string(),
                    Value::Bool(b) => b.to_string(),
                };
                fields.push(s);
            }
            writeln!(writer, "{}", fields.join(","))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "age,sex,salary,score\n25,M,>50k,1.5\n40,F,<50k,2.5\n33,F,,3.0\n";

    #[test]
    fn split_line_handles_quotes() {
        assert_eq!(split_line("a,b,c", ','), vec!["a", "b", "c"]);
        assert_eq!(split_line("a,\"b,c\",d", ','), vec!["a", "b,c", "d"]);
        assert_eq!(
            split_line("\"say \"\"hi\"\"\",x", ','),
            vec!["say \"hi\"", "x"]
        );
        assert_eq!(split_line("a,,c", ','), vec!["a", "", "c"]);
    }

    #[test]
    fn inference_and_parsing() {
        let t = read_csv("survey", SAMPLE.as_bytes(), None, &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().field("age").unwrap().dtype, DataType::Int);
        assert_eq!(t.schema().field("sex").unwrap().dtype, DataType::Str);
        assert_eq!(t.schema().field("score").unwrap().dtype, DataType::Float);
        assert_eq!(t.value(0, "age").unwrap(), Value::Int(25));
        assert_eq!(t.value(2, "salary").unwrap(), Value::Null);
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Float),
            Field::new("sex", DataType::Str),
            Field::nullable("salary", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap();
        let t = read_csv(
            "survey",
            SAMPLE.as_bytes(),
            Some(schema),
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.schema().field("age").unwrap().dtype, DataType::Float);
        assert_eq!(t.value(0, "age").unwrap(), Value::Float(25.0));
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let bad = "a,b\n1,2\n3\n";
        let err = read_csv("t", bad.as_bytes(), None, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, ColumnarError::Csv { line: 3, .. }));
    }

    #[test]
    fn unparseable_field_is_rejected_with_line_number() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let bad = "x\n1\nnot-a-number\n";
        let err = read_csv("t", bad.as_bytes(), Some(schema), &CsvOptions::default()).unwrap_err();
        match err {
            ColumnarError::Csv { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("not-a-number"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn headerless_input_gets_generated_names() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let t = read_csv("t", "1,a\n2,b\n".as_bytes(), None, &opts).unwrap();
        assert_eq!(t.schema().names(), vec!["col0", "col1"]);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn bool_inference() {
        let t = read_csv(
            "t",
            "flag\ntrue\nfalse\nyes\n".as_bytes(),
            None,
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.schema().field("flag").unwrap().dtype, DataType::Bool);
        assert_eq!(t.value(2, "flag").unwrap(), Value::Bool(true));
    }

    #[test]
    fn round_trip_write_read() {
        let t = read_csv("survey", SAMPLE.as_bytes(), None, &CsvOptions::default()).unwrap();
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let t2 = read_csv("survey2", text.as_bytes(), None, &CsvOptions::default()).unwrap();
        assert_eq!(t2.num_rows(), t.num_rows());
        assert_eq!(t2.value(1, "sex").unwrap(), Value::Str("F".into()));
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = read_csv("t", "".as_bytes(), None, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, ColumnarError::Csv { .. }));
        // Whitespace-only input is empty too.
        let err = read_csv("t", "\n  \n".as_bytes(), None, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, ColumnarError::Csv { line: 0, .. }));
    }

    #[test]
    fn streaming_reader_seals_segments_and_matches_the_one_shot_parse() {
        // 10 data rows with a tiny inference prefix and 3-row segments: the
        // reader must hand rows straight to the segment-sealing builder (its
        // live state never exceeds one segment) and still parse identically.
        let mut text = String::from("id,group\n");
        for i in 0..10 {
            text.push_str(&format!("{i},{}\n", ["a", "b"][i % 2]));
        }
        let opts = CsvOptions {
            inference_rows: 2,
            segment_rows: Some(3),
            ..CsvOptions::default()
        };
        let t = read_csv("t", text.as_bytes(), None, &opts).unwrap();
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.num_segments(), 4, "3+3+3+1");
        assert_eq!(t.schema().field("id").unwrap().dtype, DataType::Int);
        let whole = read_csv("t", text.as_bytes(), None, &CsvOptions::default()).unwrap();
        for row in 0..10 {
            assert_eq!(t.row(row).unwrap(), whole.row(row).unwrap());
        }
        // Inference still sees rows beyond the first segment? No — only the
        // prefix: a float first appearing after the prefix is a parse error,
        // pinning the bounded-memory contract (nothing past the prefix is
        // buffered for inference).
        let text = String::from("v\n1\n2\n2.5\n");
        let err = read_csv("t", text.as_bytes(), None, &opts).unwrap_err();
        assert!(matches!(err, ColumnarError::Csv { line: 4, .. }));
    }

    #[test]
    fn coded_columns_round_trip_byte_for_byte() {
        // CSV → table → CSV over columns the seal codes: a `u8` integer
        // column with NULLs, a `u16` float column that holds both zeros, and
        // a near-unique float that stays plain — in segments that cut the
        // rows at a non-word boundary. What is written is what was read.
        use crate::column::Encoding;
        let mut text = String::from("age,height,reading\n");
        for i in 0..3_000u64 {
            let age = if i % 17 == 0 {
                String::new()
            } else {
                (18 + i * 7 % 60).to_string()
            };
            let height = match i % 400 {
                0 => "-0".to_string(),
                1 => "0".to_string(),
                k => format!("{}", 140.0 + k as f64 / 4.0),
            };
            let reading = i as f64 * 1.000_123 + 0.5;
            text.push_str(&format!("{age},{height},{reading}\n"));
        }
        let schema = Schema::new(vec![
            Field::nullable("age", DataType::Int),
            Field::new("height", DataType::Float),
            Field::new("reading", DataType::Float),
        ])
        .unwrap();
        let opts = CsvOptions {
            segment_rows: Some(1_700),
            ..CsvOptions::default()
        };
        let table = read_csv("t", text.as_bytes(), Some(schema), &opts).unwrap();
        let encodings = |name: &str| -> Vec<Encoding> {
            let column = table.column(name).unwrap();
            column.parts().map(|(_, part)| part.encoding()).collect()
        };
        assert_eq!(encodings("age"), [Encoding::CodedU8, Encoding::CodedU8]);
        // 400 heights are few among 1 700 rows and too many among 1 300.
        assert_eq!(encodings("height"), [Encoding::CodedU16, Encoding::Plain]);
        assert_eq!(encodings("reading"), [Encoding::Plain, Encoding::Plain]);
        let mut out = Vec::new();
        write_csv(&table, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), text);
    }
}
