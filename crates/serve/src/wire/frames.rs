//! The scatter-gather frames of distributed exploration.
//!
//! Everything the coordinator and the shard servers exchange beyond plain
//! counts rides the codecs here. The design constraint is **bit-exactness**:
//! a distributed explore must produce the same ranked maps — score bits,
//! region SQL, tuple counts — as the in-process engine, so every
//! floating-point value that participates in a fold (summary moments,
//! sketch entries, split bounds) travels as its IEEE-754 **bit pattern** in
//! fixed-width hex, never as a decimal rendering. Bulk payloads (bitmap
//! words, numeric value runs, sketch entries) are single concatenated hex
//! strings: dense, allocation-friendly, and immune to JSON number precision
//! limits (`u64` words above 2⁵³ survive).
//!
//! An explore ships the working set and every candidate region as bitmaps
//! (~21 per step, 250 kB of hex each at 1M rows), so the hex run is the hot
//! path of the whole coordinator↔shard exchange: digits are written
//! arithmetically and read through one 256-entry lookup per digit, 16 per
//! word — no formatter, no `from_str_radix`, one allocation per run.
//!
//! Decoding is defensive — these frames cross sockets. Every accessor
//! returns `Result<_, String>` with a field-naming message; truncated hex
//! runs, wrong-width chunks, unknown type names, and non-finite values in
//! fields that must be finite (a sketch ε, a region bound) are rejected, not
//! propagated.

use crate::wire::Json;
use atlas_columnar::{Bitmap, DataType, DistinctValues, SummaryParts};
use atlas_stats::GkSketch;

/// Marks a byte that is not a hex digit in [`HEX_VALUES`]. Real digit values
/// stay below 16, so OR-ing the looked-up values of a chunk and testing the
/// high nibble finds a bad byte without a branch per digit.
const NOT_HEX: u8 = 0xff;

/// The value of `byte` as a hex digit (either case), [`NOT_HEX`] otherwise.
const fn hex_value(byte: u8) -> u8 {
    match byte {
        b'0'..=b'9' => byte - b'0',
        b'a'..=b'f' => byte - b'a' + 10,
        b'A'..=b'F' => byte - b'A' + 10,
        _ => NOT_HEX,
    }
}

/// [`hex_value`] of every byte, so decoding is one lookup per digit.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut byte = 0usize;
    while byte < 256 {
        // lint: slice-index-ok (byte < 256 == table.len() by the loop bound)
        table[byte] = hex_value(byte as u8);
        byte += 1;
    }
    table
};

/// The lower-case hex digit of a nibble.
fn hex_digit(nibble: u8) -> u8 {
    let nibble = nibble & 0x0f;
    if nibble < 10 {
        b'0' + nibble
    } else {
        b'a' + (nibble - 10)
    }
}

/// Encode words as one concatenated run of 16 lower-case hex digits each,
/// without going through a formatter.
fn hex_words(words: impl ExactSizeIterator<Item = u64>) -> String {
    let mut out = Vec::with_capacity(words.len() * 16);
    for word in words {
        let digits: [u8; 16] = std::array::from_fn(|i| hex_digit((word >> (60 - 4 * i)) as u8));
        out.extend_from_slice(&digits);
    }
    // Every byte is an ASCII hex digit, so the conversion cannot fail.
    String::from_utf8(out).unwrap_or_default()
}

/// Decode one 16-digit chunk; `None` when any byte is not a hex digit.
fn parse_hex_word(chunk: &[u8]) -> Option<u64> {
    let mut word = 0u64;
    let mut seen = 0u8;
    for &byte in chunk {
        // lint: slice-index-ok (any u8 indexes the 256-entry table)
        let value = HEX_VALUES[usize::from(byte)];
        seen |= value;
        word = (word << 4) | u64::from(value & 0x0f);
    }
    (seen & 0xf0 == 0).then_some(word)
}

/// Encode an `f64` as its 16-hex-digit IEEE-754 bit pattern.
pub fn hex_f64(x: f64) -> String {
    hex_words(std::iter::once(x.to_bits()))
}

/// Decode a 16-hex-digit bit pattern back into the exact `f64`.
pub fn parse_hex_f64(text: &str) -> Result<f64, String> {
    if text.len() != 16 {
        return Err(format!(
            "expected 16 hex digits for an f64 bit pattern, got {}",
            text.len()
        ));
    }
    parse_hex_word(text.as_bytes())
        .map(f64::from_bits)
        .ok_or_else(|| "invalid hex in f64 bit pattern".to_string())
}

/// Encode a slice of `u64`s as one concatenated hex run (16 digits each).
pub fn hex_u64s(values: &[u64]) -> String {
    hex_words(values.iter().copied())
}

/// Decode a concatenated hex run back into `u64`s. The run length must be a
/// multiple of 16 — a truncated body is an error, never a silent short read —
/// and every byte a hex digit (either case).
pub fn parse_hex_u64s(text: &str) -> Result<Vec<u64>, String> {
    if !text.len().is_multiple_of(16) {
        return Err(format!(
            "hex run of {} digits is not a multiple of 16 (truncated body?)",
            text.len()
        ));
    }
    text.as_bytes()
        .chunks_exact(16)
        .map(parse_hex_word)
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| "hex run contains a non-hex character".to_string())
}

/// Encode a slice of `f64`s as one concatenated bit-pattern hex run.
pub fn hex_f64s(values: &[f64]) -> String {
    hex_words(values.iter().map(|x| x.to_bits()))
}

/// Decode a concatenated bit-pattern hex run back into the exact `f64`s.
pub fn parse_hex_f64s(text: &str) -> Result<Vec<f64>, String> {
    Ok(parse_hex_u64s(text)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

/// Parse a [`DataType`] from its [`DataType::name`] rendering.
pub fn dtype_from_name(name: &str) -> Result<DataType, String> {
    match name {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "str" => Ok(DataType::Str),
        "bool" => Ok(DataType::Bool),
        other => Err(format!("unknown data type '{other}'")),
    }
}

/// The string member `key` of `value`.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::str)
        .ok_or_else(|| format!("missing or non-string member \"{key}\""))
}

/// The numeric member `key` of `value`, as a `usize`.
pub fn get_index(value: &Json, key: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(Json::index)
        .ok_or_else(|| format!("missing or non-integral member \"{key}\""))
}

/// The array member `key` of `value`.
pub fn get_items<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    value
        .get(key)
        .and_then(Json::items)
        .ok_or_else(|| format!("missing or non-array member \"{key}\""))
}

/// Encode a selection bitmap: its length plus its backing words as hex.
pub fn bitmap_to_json(bitmap: &Bitmap) -> Json {
    Json::object(vec![
        ("len", Json::from(bitmap.len())),
        ("words", Json::from(hex_u64s(bitmap.words()))),
    ])
}

/// Decode a selection bitmap. The word run must be exactly the length the
/// declared bit count needs.
pub fn bitmap_from_json(value: &Json) -> Result<Bitmap, String> {
    let len = get_index(value, "len")?;
    let words = parse_hex_u64s(get_str(value, "words")?)?;
    if words.len() != len.div_ceil(64) {
        return Err(format!(
            "bitmap of {len} bits needs {} words, got {}",
            len.div_ceil(64),
            words.len()
        ));
    }
    Ok(Bitmap::from_words(len, words))
}

/// Encode the mergeable parts of a column summary. Moments, min and max
/// travel as bit patterns; distinct values by kind (`i64`s and float bit
/// patterns as hex runs, strings and booleans natively).
pub fn summary_to_json(parts: &SummaryParts) -> Json {
    let distinct = match &parts.distinct {
        DistinctValues::Ints(values) => {
            let bits: Vec<u64> = values.iter().map(|&v| v as u64).collect();
            Json::object(vec![
                ("kind", Json::from("ints")),
                ("values", Json::from(hex_u64s(&bits))),
            ])
        }
        DistinctValues::Floats(bits) => Json::object(vec![
            ("kind", Json::from("floats")),
            ("values", Json::from(hex_u64s(bits))),
        ]),
        DistinctValues::Strs(values) => Json::object(vec![
            ("kind", Json::from("strs")),
            (
                "values",
                Json::array(values.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
        ]),
        DistinctValues::Bools { t, f } => Json::object(vec![
            ("kind", Json::from("bools")),
            ("t", Json::from(*t)),
            ("f", Json::from(*f)),
        ]),
    };
    Json::object(vec![
        ("dtype", Json::from(parts.dtype.name())),
        ("non_null", Json::from(parts.non_null)),
        ("nulls", Json::from(parts.nulls)),
        ("mean", Json::from(hex_f64(parts.mean))),
        ("m2", Json::from(hex_f64(parts.m2))),
        (
            "min",
            parts
                .min
                .map(|x| Json::from(hex_f64(x)))
                .unwrap_or(Json::Null),
        ),
        (
            "max",
            parts
                .max
                .map(|x| Json::from(hex_f64(x)))
                .unwrap_or(Json::Null),
        ),
        ("distinct", distinct),
    ])
}

fn optional_hex_f64(value: &Json, key: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(text)) => parse_hex_f64(text).map(Some),
        Some(_) => Err(format!("member \"{key}\" must be a hex string or null")),
    }
}

/// Decode column-summary parts produced by [`summary_to_json`].
pub fn summary_from_json(value: &Json) -> Result<SummaryParts, String> {
    let dtype = dtype_from_name(get_str(value, "dtype")?)?;
    let distinct_json = value
        .get("distinct")
        .ok_or_else(|| "missing member \"distinct\"".to_string())?;
    let distinct = match get_str(distinct_json, "kind")? {
        "ints" => DistinctValues::Ints(
            parse_hex_u64s(get_str(distinct_json, "values")?)?
                .into_iter()
                .map(|bits| bits as i64)
                .collect(),
        ),
        "floats" => DistinctValues::Floats(parse_hex_u64s(get_str(distinct_json, "values")?)?),
        "strs" => DistinctValues::Strs(
            get_items(distinct_json, "values")?
                .iter()
                .map(|v| {
                    v.str()
                        .map(String::from)
                        .ok_or_else(|| "non-string distinct value".to_string())
                })
                .collect::<Result<_, _>>()?,
        ),
        "bools" => DistinctValues::Bools {
            t: distinct_json
                .get("t")
                .and_then(Json::bool)
                .ok_or_else(|| "missing boolean member \"t\"".to_string())?,
            f: distinct_json
                .get("f")
                .and_then(Json::bool)
                .ok_or_else(|| "missing boolean member \"f\"".to_string())?,
        },
        other => return Err(format!("unknown distinct kind '{other}'")),
    };
    Ok(SummaryParts {
        dtype,
        non_null: get_index(value, "non_null")?,
        nulls: get_index(value, "nulls")?,
        mean: parse_hex_f64(get_str(value, "mean")?)?,
        m2: parse_hex_f64(get_str(value, "m2")?)?,
        min: optional_hex_f64(value, "min")?,
        max: optional_hex_f64(value, "max")?,
        distinct,
    })
}

/// Encode a quantile sketch: ε as a bit pattern, counters as plain numbers,
/// entries as one hex run of 48-digit `(value bits, g, delta)` triples.
pub fn sketch_to_json(sketch: &GkSketch) -> Json {
    let (epsilon, count, since_compress, entries) = sketch.to_parts();
    let words: Vec<u64> = entries
        .iter()
        .flat_map(|&(value, g, delta)| [value.to_bits(), g, delta])
        .collect();
    Json::object(vec![
        ("epsilon", Json::from(hex_f64(epsilon))),
        ("count", Json::from(count)),
        ("since_compress", Json::from(since_compress)),
        ("entries", Json::from(hex_u64s(&words))),
    ])
}

/// Decode a quantile sketch produced by [`sketch_to_json`]. A non-finite or
/// out-of-range ε is rejected here: it would silently change every later
/// compression decision.
pub fn sketch_from_json(value: &Json) -> Result<GkSketch, String> {
    let epsilon = parse_hex_f64(get_str(value, "epsilon")?)?;
    if !(epsilon > 0.0 && epsilon < 0.5 && epsilon.is_finite()) {
        return Err(format!(
            "sketch epsilon must be a finite value in (0, 0.5), got {epsilon}"
        ));
    }
    let count = get_index(value, "count")? as u64;
    let since_compress = get_index(value, "since_compress")? as u64;
    let words = parse_hex_u64s(get_str(value, "entries")?)?;
    if !words.len().is_multiple_of(3) {
        return Err("sketch entry run is not a multiple of 48 hex digits".to_string());
    }
    let entries = words
        .chunks_exact(3)
        // lint: slice-index-ok (chunks_exact(3) yields exactly three elements per chunk)
        .map(|chunk| (f64::from_bits(chunk[0]), chunk[1], chunk[2]))
        .collect();
    Ok(GkSketch::from_parts(
        epsilon,
        count,
        since_compress,
        entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use proptest::prelude::*;

    /// The codec this module replaced, kept as the reference the table
    /// codec must agree with: one `format!` per word out, one
    /// `from_str_radix` per 16-digit chunk in.
    fn reference_hex_u64s(values: &[u64]) -> String {
        values.iter().map(|v| format!("{v:016x}")).collect()
    }

    fn reference_parse_hex_u64s(text: &str) -> Option<Vec<u64>> {
        if !text.len().is_multiple_of(16) || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        (0..text.len() / 16)
            .map(|i| u64::from_str_radix(&text[i * 16..(i + 1) * 16], 16).ok())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hex_runs_round_trip_and_match_the_reference(
            values in proptest::collection::vec(any::<u64>(), 0..80),
        ) {
            let run = hex_u64s(&values);
            prop_assert_eq!(&run, &reference_hex_u64s(&values));
            prop_assert_eq!(parse_hex_u64s(&run).unwrap(), values.clone());
            // Upper- and mixed-case digits decode to the same words.
            let mixed: String = run
                .chars()
                .enumerate()
                .map(|(i, c)| if i % 3 == 0 { c.to_ascii_uppercase() } else { c })
                .collect();
            prop_assert_eq!(parse_hex_u64s(&mixed).unwrap(), values.clone());
            prop_assert_eq!(parse_hex_u64s(&run.to_ascii_uppercase()).unwrap(), values);
        }

        #[test]
        fn decoding_agrees_with_the_reference_at_every_length_and_case(
            text in "[0-9a-fA-F]{0,50}",
        ) {
            prop_assert_eq!(parse_hex_u64s(&text).ok(), reference_parse_hex_u64s(&text));
        }

        #[test]
        fn one_bad_byte_anywhere_rejects_the_run(
            values in proptest::collection::vec(any::<u64>(), 1..20),
            at in 0usize..320,
            bad in prop_oneof![Just('+'), Just('g'), Just('G'), Just(' '), Just('/'), Just(':'), Just('@'), Just('`')],
        ) {
            let mut run = hex_u64s(&values).into_bytes();
            let at = at % run.len();
            run[at] = bad as u8;
            let run = String::from_utf8(run).unwrap();
            prop_assert!(parse_hex_u64s(&run).is_err());
            prop_assert!(reference_parse_hex_u64s(&run).is_none());
        }
    }

    #[test]
    fn hex_decoding_keeps_every_rejection() {
        let word = "0123456789abcdef";
        // `from_str_radix` alone would take a leading '+'; the run must not.
        assert!(parse_hex_u64s("+123456789abcdef").is_err());
        assert!(parse_hex_f64("+123456789abcdef").is_err());
        assert!(parse_hex_u64s("0123456789abcdeg").is_err());
        // A non-ASCII scalar that keeps the byte length at 16.
        assert!(parse_hex_u64s("0123456789abcd\u{e9}").is_err());
        assert!(parse_hex_f64("0123456789abcd\u{e9}").is_err());
        // Lengths 15 and 17 name the truncation.
        for bad in [&word[..15], "0123456789abcdef0"] {
            let err = parse_hex_u64s(bad).unwrap_err();
            assert!(err.contains("multiple of 16"), "{err}");
        }
        // A wrong word count for the declared bitmap length.
        let short = Json::object(vec![
            ("len", Json::from(65usize)),
            ("words", Json::from(hex_u64s(&[1]))),
        ]);
        assert!(bitmap_from_json(&short).unwrap_err().contains("needs 2"));
        assert_eq!(
            parse_hex_u64s("0123456789ABCDEF").unwrap(),
            [0x0123_4567_89ab_cdef]
        );
    }

    #[test]
    fn f64_bit_patterns_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
        ] {
            let back = parse_hex_f64(&hex_f64(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_and_corrupt_hex_runs_are_rejected() {
        assert!(parse_hex_f64("abc").is_err());
        assert!(parse_hex_f64("zzzzzzzzzzzzzzzz").is_err());
        assert!(parse_hex_u64s("0123456789abcdef0").is_err()); // 17 digits
        assert!(parse_hex_u64s("0123456789abcdeg").is_err()); // non-hex
        assert!(parse_hex_f64s("00").is_err());
        assert_eq!(parse_hex_u64s("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn bulk_values_round_trip_through_encoded_json() {
        let values = vec![-1.25, 0.0, f64::from_bits(0x7ff8_0000_dead_beef), 3e300];
        let frame = Json::object(vec![("values", Json::from(hex_f64s(&values)))]);
        let parsed = wire::parse(&frame.encode()).unwrap();
        let back = parse_hex_f64s(get_str(&parsed, "values").unwrap()).unwrap();
        let bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        let expected: Vec<u64> = values.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn bitmaps_round_trip_and_validate_word_counts() {
        let bitmap = Bitmap::from_indices(130, [0usize, 63, 64, 129]);
        let back = bitmap_from_json(&bitmap_to_json(&bitmap)).unwrap();
        assert_eq!(back, bitmap);
        // A word run that does not match the declared length is rejected.
        let bad = Json::object(vec![
            ("len", Json::from(130usize)),
            ("words", Json::from(hex_u64s(&[1u64]))),
        ]);
        assert!(bitmap_from_json(&bad).is_err());
    }

    #[test]
    fn summaries_round_trip_bit_for_bit_including_nan_distincts() {
        let parts = SummaryParts {
            dtype: DataType::Float,
            non_null: 7,
            nulls: 2,
            mean: 0.1 + 0.2,
            m2: 1e-300,
            min: Some(-0.0),
            max: Some(f64::MAX),
            distinct: DistinctValues::Floats(vec![0, (-0.0f64).to_bits(), f64::NAN.to_bits()]),
        };
        let encoded = summary_to_json(&parts).encode();
        let back = summary_from_json(&wire::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back, parts);

        for distinct in [
            DistinctValues::Ints(vec![i64::MIN, -1, 0, i64::MAX]),
            DistinctValues::Strs(vec!["a\"b".into(), "π".into()]),
            DistinctValues::Bools { t: true, f: false },
        ] {
            let dtype = match &distinct {
                DistinctValues::Ints(_) => DataType::Int,
                DistinctValues::Strs(_) => DataType::Str,
                _ => DataType::Bool,
            };
            let parts = SummaryParts {
                dtype,
                non_null: 4,
                nulls: 0,
                mean: 0.0,
                m2: 0.0,
                min: None,
                max: None,
                distinct,
            };
            let encoded = summary_to_json(&parts).encode();
            let back = summary_from_json(&wire::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, parts);
        }
    }

    #[test]
    fn summary_decoding_rejects_malformed_frames() {
        let good = summary_to_json(&SummaryParts {
            dtype: DataType::Int,
            non_null: 1,
            nulls: 0,
            mean: 1.0,
            m2: 0.0,
            min: Some(1.0),
            max: Some(1.0),
            distinct: DistinctValues::Ints(vec![1]),
        });
        // Drop or corrupt one member at a time.
        for (key, replacement) in [
            ("dtype", Json::from("decimal")),
            ("mean", Json::from("123")),
            ("non_null", Json::from(-1i64)),
            ("distinct", Json::object(vec![("kind", Json::from("sets"))])),
        ] {
            let Json::Obj(mut members) = good.clone() else {
                unreachable!()
            };
            for (k, v) in &mut members {
                if k == key {
                    *v = replacement.clone();
                }
            }
            assert!(
                summary_from_json(&Json::Obj(members)).is_err(),
                "corrupt {key} must be rejected"
            );
        }
        assert!(summary_from_json(&Json::Null).is_err());
    }

    #[test]
    fn sketches_round_trip_and_reject_bad_epsilon() {
        let mut sketch = GkSketch::new(0.01);
        sketch.extend(&(0..500).map(f64::from).collect::<Vec<_>>());
        let encoded = sketch_to_json(&sketch).encode();
        let back = sketch_from_json(&wire::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back.to_parts(), sketch.to_parts());
        assert_eq!(back.query(0.5), sketch.query(0.5));

        for bad_eps in [f64::NAN, f64::INFINITY, 0.0, -0.1, 0.5] {
            let mut frame = sketch_to_json(&sketch);
            if let Json::Obj(members) = &mut frame {
                members[0].1 = Json::from(hex_f64(bad_eps));
            }
            assert!(
                sketch_from_json(&frame).is_err(),
                "epsilon {bad_eps} must be rejected"
            );
        }
        // A truncated entry run (not a multiple of 3 words) is rejected.
        let mut frame = sketch_to_json(&sketch);
        if let Json::Obj(members) = &mut frame {
            members[3].1 = Json::from(hex_u64s(&[1, 2]));
        }
        assert!(sketch_from_json(&frame).is_err());
    }

    #[test]
    fn deeply_nested_frame_bodies_hit_the_json_depth_limit() {
        let deep = "{\"a\":".repeat(200) + "1" + &"}".repeat(200);
        let err = wire::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }
}
