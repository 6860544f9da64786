//! Typed columns with null masks; one dictionary-coded representation for
//! strings, counted numerics and booleans.
//!
//! A [`Column`] **stores**: it is built, measured and read a row at a time
//! here, and nothing in this module takes a selection. Every scan goes through
//! [`crate::ColumnView`] — a lone column is its one-part case,
//! [`crate::ColumnView::of_column`] — whose per-part bodies live in
//! [`crate::kernels`].
//!
//! A numeric or boolean column has **one representation at a time**, chosen
//! from the data where the column becomes immutable ([`crate::Segment::new`]).
//! While it is open (being pushed to) it is *plain*: one full-width lane per
//! row. Sealing re-stores a column whose non-NULL values hold few distinct
//! 64-bit keys — the statistics counter's own identity (`x as u64`,
//! `f64::to_bits`, so `±0.0` and NaN payloads stay distinct; `false` is 0 and
//! `true` 1) — as a **sorted dictionary** (`i64` order / [`f64::total_cmp`] /
//! `false < true`) plus one `u8` (up to 256 entries) or `u16` code lane per
//! row, and drops the full-width lanes. "Few" is two constants, not knobs: at
//! most `MAX_CODED_VALUES` (1 024) entries (what the statistics counter holds)
//! and at most a quarter of the rows (so the dictionary never outweighs the
//! lanes it replaces: a coded numeric column costs at most 4 bytes per row
//! against 8). A boolean part of at least 8 rows is therefore always `u8`
//! codes over a dictionary within `[false, true]`, and the kernels partition
//! and count it as they do every other coded part. Everything else —
//! near-unique measurements, identifiers, short segments of a wide-ranged
//! column, a boolean tail of a few rows holding both values — stays plain.
//! Reading a row decodes `dict[code]`; the kernels of [`crate::kernels`] and
//! the statistics of [`crate::colstats`] resolve the dictionary once per part
//! instead, and are the only other code that sees the lanes.
//!
//! A string column ([`DictColumn`]) stores **the same three things** — a
//! dictionary, one code lane per row (`Codes`) and a validity bitmap, NULL
//! lanes holding code 0 — and differs in the dictionary's order only: first
//! appearance (the order the paper's "order in which the user gives them"
//! heuristic reads) instead of sorted. It is coded from its first row: while
//! open it interns through a lookup index into `u32` lanes, and sealing
//! narrows the lanes to the width its dictionary size allows (`u8` up to 256
//! entries, `u16` up to 65 536, `u32` past that) and drops the index. So every
//! kernel that reads code lanes reads one type, at the narrowest width the
//! data allows, with one NULL convention.

use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

/// The most distinct values a coded numeric column holds: the capacity of the
/// statistics counter (`colstats`), so a coded part never degrades a counted
/// summary on its own.
pub(crate) const MAX_CODED_VALUES: usize = 1 << 10;

/// A coded column holds at most one distinct value per this many rows.
const ROWS_PER_CODED_VALUE: usize = 4;

/// How a column holds its values in memory ([`Column::encoding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One full-width lane per row: an open numeric or boolean column, or a
    /// sealed one with too many distinct values for its rows to code.
    Plain,
    /// `u8` codes into a dictionary of up to 256 entries.
    CodedU8,
    /// `u16` codes into a dictionary of up to 65 536 entries.
    CodedU16,
    /// `u32` codes: a string column that is open, or whose dictionary is
    /// larger still.
    CodedU32,
}

impl Encoding {
    /// Every encoding, in the order reports list them.
    pub const ALL: [Encoding; 4] = [
        Encoding::Plain,
        Encoding::CodedU8,
        Encoding::CodedU16,
        Encoding::CodedU32,
    ];

    /// A short stable label (`plain`, `u8`, `u16`, `u32`) for reports.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::CodedU8 => "u8",
            Encoding::CodedU16 => "u16",
            Encoding::CodedU32 => "u32",
        }
    }
}

/// The value lanes of a [`PrimitiveColumn`]. NULL rows hold `T::default()`
/// (plain) or code 0 (coded); the validity mask says which rows those are.
#[derive(Debug, Clone)]
pub(crate) enum Lanes<T> {
    /// One value per row.
    Plain(Vec<T>),
    /// One code per row into `dict`: the distinct non-NULL values, ascending
    /// in the type's total order ([`Numeric::order`]), so a value range is a
    /// code span.
    Coded {
        /// The distinct non-NULL values, sorted; shared by the parts
        /// gathered from this one.
        dict: Arc<[T]>,
        /// The per-row codes.
        codes: Codes,
    },
}

/// The code lanes of a coded column — the only code-lane type there is — as
/// narrow as a sealed column's dictionary allows.
#[derive(Debug, Clone)]
pub(crate) enum Codes {
    /// Dictionaries of up to 256 entries.
    U8(Vec<u8>),
    /// Dictionaries of up to 65 536 entries.
    U16(Vec<u16>),
    /// An open string column, or a string dictionary larger still.
    U32(Vec<u32>),
}

/// Evaluate `$body` with `$lanes` bound to the code slice of `$codes`, at
/// whichever width it is stored.
macro_rules! at_each_width {
    ($codes:expr, $lanes:ident => $body:expr) => {
        match $codes {
            $crate::column::Codes::U8($lanes) => $body,
            $crate::column::Codes::U16($lanes) => $body,
            $crate::column::Codes::U32($lanes) => $body,
        }
    };
}
pub(crate) use at_each_width;

impl Codes {
    /// The `u32` lanes of an open column (each code below `entries`) at the
    /// narrowest width that names `entries` dictionary entries.
    fn narrowest(open: Vec<u32>, entries: usize) -> Codes {
        if entries <= usize::from(u8::MAX) + 1 {
            Codes::U8(open.iter().map(|&code| code as u8).collect())
        } else if entries <= usize::from(u16::MAX) + 1 {
            Codes::U16(open.iter().map(|&code| code as u16).collect())
        } else {
            Codes::U32(open)
        }
    }

    /// The code at `row`. Panics when out of bounds.
    fn at(&self, row: usize) -> usize {
        at_each_width!(self, codes => codes[row] as usize)
    }

    /// The bytes the lanes take.
    fn heap_bytes(&self) -> usize {
        at_each_width!(self, codes => size_of_val(codes.as_slice()))
    }

    /// The encoding label of the width.
    fn encoding(&self) -> Encoding {
        match self {
            Codes::U8(_) => Encoding::CodedU8,
            Codes::U16(_) => Encoding::CodedU16,
            Codes::U32(_) => Encoding::CodedU32,
        }
    }
}

/// A lane type a column may code: the 64-bit key its values are told apart
/// by — the identity the statistics counter (`colstats`) and the seal pass
/// share — and the total order a coded dictionary is sorted in.
pub(crate) trait Numeric: Copy + Default {
    /// The key: distinct values ⇔ distinct keys.
    fn key(self) -> u64;
    /// The value a key stands for.
    fn from_key(key: u64) -> Self;
    /// A total order consistent with `<=` wherever `<=` orders two values.
    fn order(a: &Self, b: &Self) -> Ordering;
}

impl Numeric for i64 {
    fn key(self) -> u64 {
        self as u64
    }
    fn from_key(key: u64) -> Self {
        key as i64
    }
    fn order(a: &Self, b: &Self) -> Ordering {
        a.cmp(b)
    }
}

impl Numeric for f64 {
    fn key(self) -> u64 {
        self.to_bits()
    }
    fn from_key(key: u64) -> Self {
        f64::from_bits(key)
    }
    fn order(a: &Self, b: &Self) -> Ordering {
        a.total_cmp(b)
    }
}

impl Numeric for bool {
    fn key(self) -> u64 {
        u64::from(self)
    }
    fn from_key(key: u64) -> Self {
        key != 0
    }
    fn order(a: &Self, b: &Self) -> Ordering {
        a.cmp(b)
    }
}

/// The seal pass's key → provisional code table: open addressing over a fixed
/// power-of-two slot array at most half full, Fibonacci-hashed like the
/// statistics counter. Provisional codes are first-appearance ranks plus one
/// (0 is what NULL lanes hold).
struct SealTable {
    /// `(key, provisional code)`; code 0 marks a free slot.
    slots: Vec<(u64, u16)>,
    /// The keys in first-appearance order: `keys[code - 1]`.
    keys: Vec<u64>,
    /// The most keys taken.
    limit: usize,
}

impl SealTable {
    const SLOTS: usize = 2 * MAX_CODED_VALUES;
    const SHIFT: u32 = u64::BITS - Self::SLOTS.trailing_zeros();

    fn new(limit: usize) -> Self {
        SealTable {
            slots: vec![(0, 0); Self::SLOTS],
            keys: Vec::new(),
            limit: limit.min(MAX_CODED_VALUES),
        }
    }

    /// The provisional code of `key`; `None` when it is one key too many.
    #[inline]
    fn code_of(&mut self, key: u64) -> Option<u16> {
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> Self::SHIFT) as usize;
        loop {
            let (resident, code) = self.slots[at];
            if code == 0 {
                if self.keys.len() >= self.limit {
                    return None;
                }
                self.keys.push(key);
                let code = self.keys.len() as u16;
                self.slots[at] = (key, code);
                return Some(code);
            }
            if resident == key {
                return Some(code);
            }
            at = (at + 1) & (Self::SLOTS - 1);
        }
    }
}

/// A primitive column: one value lane per row plus a packed validity bitmap.
///
/// NULL rows hold a filler lane and a zero bit in the validity mask.
/// Splitting values from nullness is what lets the partition kernels run
/// word-parallel: 64 validity bits load in one shift-and-or
/// ([`Bitmap::word_at`]) and the lanes are a plain slice that classification
/// loops read without per-row `Option` unwrapping. An open column holds its
/// values as they are; a sealed column with few distinct values holds
/// dictionary codes instead (see the module docs) — never both.
///
/// Equality is logical: two columns are equal when they hold the same rows,
/// however each stores them.
#[derive(Debug, Clone)]
pub struct PrimitiveColumn<T> {
    lanes: Lanes<T>,
    validity: Bitmap,
}

impl<T: Copy + Default> PrimitiveColumn<T> {
    /// Create an empty column.
    pub fn new() -> Self {
        PrimitiveColumn {
            lanes: Lanes::Plain(Vec::new()),
            validity: Bitmap::new_empty(0),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value (`None` = NULL). Columns are pushed to while open; a
    /// sealed column that was coded is first decoded back to plain lanes.
    pub fn push(&mut self, value: Option<T>) {
        if let Lanes::Coded { .. } = self.lanes {
            *self = self.slice(0, self.len());
        }
        if let Lanes::Plain(values) = &mut self.lanes {
            values.push(value.unwrap_or_default());
        }
        self.validity.push(value.is_some());
    }

    /// The value at `row`, `None` for NULL.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn get(&self, row: usize) -> Option<T> {
        match &self.lanes {
            Lanes::Plain(values) => {
                let x = values[row];
                self.validity.get(row).then_some(x)
            }
            Lanes::Coded { dict, codes } => {
                let code = codes.at(row);
                self.validity.get(row).then(|| dict[code])
            }
        }
    }

    /// The lanes as stored — for the scan kernels and the statistics walk,
    /// which resolve a dictionary once per part instead of once per row.
    pub(crate) fn lanes(&self) -> &Lanes<T> {
        &self.lanes
    }

    /// A column of exactly these lanes and validity bits, one per row: no
    /// representation is chosen again. How a gathered part
    /// ([`crate::Table::gather`]) keeps its source part's encoding and
    /// dictionary.
    pub(crate) fn from_lanes(lanes: Lanes<T>, validity: Bitmap) -> Self {
        PrimitiveColumn { lanes, validity }
    }

    /// The validity mask: bit `i` set ⇔ row `i` is non-NULL.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity.count()
    }

    /// Iterate the rows as `Option<T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }

    /// Copy the rows `start..end` into a new (plain) column.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        let values = match &self.lanes {
            Lanes::Plain(values) => values[start..end].to_vec(),
            Lanes::Coded { dict, codes } => (start..end)
                .map(|row| dict.get(codes.at(row)).copied().unwrap_or_default())
                .collect(),
        };
        let len = end - start;
        let words = (0..len.div_ceil(64))
            .map(|k| self.validity.word_at(start + k * 64))
            .collect();
        PrimitiveColumn {
            lanes: Lanes::Plain(values),
            validity: Bitmap::from_words(len, words),
        }
    }

    /// How the lanes are held.
    fn encoding(&self) -> Encoding {
        match &self.lanes {
            Lanes::Plain(_) => Encoding::Plain,
            Lanes::Coded { codes, .. } => codes.encoding(),
        }
    }

    /// Bytes of column data held: lanes (and dictionary) plus the validity
    /// words.
    fn heap_bytes(&self) -> usize {
        let lanes = match &self.lanes {
            Lanes::Plain(values) => size_of_val(values.as_slice()),
            Lanes::Coded { dict, codes } => size_of_val(&**dict) + codes.heap_bytes(),
        };
        lanes + size_of_val(self.validity.words())
    }
}

/// Choose a numeric or boolean column's sealed representation (see the module
/// docs): coded when the non-NULL values hold at most [`MAX_CODED_VALUES`]
/// distinct keys and at most one per [`ROWS_PER_CODED_VALUE`] rows, unchanged
/// otherwise. One hash pass: each row's provisional first-appearance code
/// goes straight into the code lanes while the keys are collected — the
/// pass stops at the first key too many, so a near-unique column leaves
/// after about a thousand rows — then the keys are sorted and the lanes
/// remapped through a table of at most 1 025 entries.
fn seal_numeric<T: Numeric>(column: PrimitiveColumn<T>) -> PrimitiveColumn<T> {
    let Lanes::Plain(values) = &column.lanes else {
        return column;
    };
    let mut table = SealTable::new(values.len() / ROWS_PER_CODED_VALUE);
    // NULL lanes keep provisional code 0.
    let mut provisional = vec![0u16; values.len()];
    let words = column.validity.words();
    for ((chunk, codes), &valid) in values.chunks(64).zip(provisional.chunks_mut(64)).zip(words) {
        if valid == u64::MAX {
            for (&x, code) in chunk.iter().zip(codes) {
                let Some(first_seen) = table.code_of(x.key()) else {
                    return column;
                };
                *code = first_seen;
            }
        } else {
            let mut bits = valid;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(first_seen) = table.code_of(chunk[lane].key()) else {
                    return column;
                };
                codes[lane] = first_seen;
            }
        }
    }
    // The dictionary: the keys' values in order, each with its provisional
    // code, from which the provisional → final table follows (0 stays 0).
    let mut entries: Vec<(T, u16)> = table
        .keys
        .iter()
        .map(|&key| T::from_key(key))
        .zip(1..)
        .collect();
    entries.sort_unstable_by(|a, b| T::order(&a.0, &b.0));
    let mut remap = vec![0u16; entries.len() + 1];
    for (rank, &(_, first_seen)) in entries.iter().enumerate() {
        remap[usize::from(first_seen)] = rank as u16;
    }
    let dict: Arc<[T]> = entries.into_iter().map(|(value, _)| value).collect();
    let codes = if dict.len() <= usize::from(u8::MAX) + 1 {
        let narrow = provisional.iter().map(|&p| remap[usize::from(p)] as u8);
        Codes::U8(narrow.collect())
    } else {
        for p in &mut provisional {
            *p = remap[usize::from(*p)];
        }
        Codes::U16(provisional)
    };
    PrimitiveColumn {
        lanes: Lanes::Coded { dict, codes },
        validity: column.validity,
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for PrimitiveColumn<T> {
    fn eq(&self, other: &Self) -> bool {
        self.validity == other.validity && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Default> Default for PrimitiveColumn<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> From<Vec<Option<T>>> for PrimitiveColumn<T> {
    fn from(values: Vec<Option<T>>) -> Self {
        let mut out = PrimitiveColumn::new();
        for v in values {
            out.push(v);
        }
        out
    }
}

/// A dictionary-coded string column: a dictionary in first-appearance order
/// (which the query layer uses for the "order in which the user gives them"
/// cutting heuristic of the paper), one code lane per row and a validity
/// bitmap — what a coded numeric column stores (see the module docs), NULL
/// lanes on code 0 likewise.
///
/// An open column interns through a lookup index into `u32` lanes; the sealed
/// form ([`crate::Segment::new`]) holds the narrowest lanes its dictionary
/// allows and no index. Pushing to a sealed column reopens it.
///
/// Equality is logical: two columns are equal when they hold the same rows,
/// whatever each interned and at whatever width.
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// Shared by the parts gathered from this one; a push copies it first
    /// if it is shared.
    dict: Arc<Vec<String>>,
    codes: Codes,
    validity: Bitmap,
    /// value → code while the column is open; `None` once sealed.
    index: Option<HashMap<String, u32>>,
}

impl DictColumn {
    /// Create an empty (open) dictionary column.
    pub fn new() -> Self {
        DictColumn {
            dict: Arc::new(Vec::new()),
            codes: Codes::U32(Vec::new()),
            validity: Bitmap::new_empty(0),
            index: Some(HashMap::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value (`None` = NULL), interning it in the dictionary. A
    /// sealed column is reopened first.
    pub fn push(&mut self, value: Option<&str>) {
        let (dict, codes, index) = self.open();
        codes.push(value.map_or(0, |s| intern_in(dict, index, s)));
        self.validity.push(value.is_some());
    }

    /// What an open column is pushed through — dictionary, `u32` lanes and
    /// lookup index — reopening a sealed one: its lanes widen and its index
    /// is rebuilt.
    fn open(
        &mut self,
    ) -> (
        &mut Arc<Vec<String>>,
        &mut Vec<u32>,
        &mut HashMap<String, u32>,
    ) {
        if self.index.is_none() {
            let sealed = std::mem::replace(&mut self.codes, Codes::U32(Vec::new()));
            self.codes = Codes::U32(match sealed {
                Codes::U8(codes) => codes.into_iter().map(u32::from).collect(),
                Codes::U16(codes) => codes.into_iter().map(u32::from).collect(),
                Codes::U32(codes) => codes,
            });
        }
        let index = self.index.get_or_insert_with(|| {
            let coded = self.dict.iter().cloned().zip(0u32..);
            coded.collect()
        });
        match &mut self.codes {
            Codes::U32(codes) => (&mut self.dict, codes, index),
            _ => unreachable!("an open column holds u32 lanes"),
        }
    }

    /// The string at `row`, or `None` for NULL.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn get(&self, row: usize) -> Option<&str> {
        let code = self.codes.at(row);
        self.validity.get(row).then(|| self.dict[code].as_str())
    }

    /// The distinct values in first-appearance order.
    pub fn dictionary(&self) -> &[String] {
        &self.dict
    }

    /// The number of dictionary entries.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The code lanes as stored — for the scan kernels, as
    /// [`PrimitiveColumn::lanes`].
    pub(crate) fn codes(&self) -> &Codes {
        &self.codes
    }

    /// The dictionary as shared by the parts gathered from this one.
    pub(crate) fn shared_dictionary(&self) -> &Arc<Vec<String>> {
        &self.dict
    }

    /// A sealed column of `codes` into `dict` with these validity bits, one
    /// per row — a gathered part ([`crate::Table::gather`]), which keeps its
    /// source part's dictionary and lane width.
    pub(crate) fn from_codes(dict: Arc<Vec<String>>, codes: Codes, validity: Bitmap) -> Self {
        DictColumn {
            dict,
            codes,
            validity,
            index: None,
        }
    }

    /// The validity mask: bit `i` set ⇔ row `i` is non-NULL.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity.count()
    }

    /// The sealed form: the narrowest lanes the dictionary allows, no index.
    fn seal(self) -> Self {
        let codes = match self.codes {
            Codes::U32(open) if self.index.is_some() => Codes::narrowest(open, self.dict.len()),
            sealed => sealed,
        };
        DictColumn {
            codes,
            index: None,
            ..self
        }
    }

    /// Bytes of column data held: the lanes, the validity words and each
    /// value with its `String` header — twice, plus an index slot, while the
    /// lookup index of an open column holds a copy.
    fn heap_bytes(&self) -> usize {
        let strings: usize = self.dict.iter().map(String::len).sum();
        let entries = strings + self.dict.len() * size_of::<String>();
        let index = self
            .index
            .as_ref()
            .map_or(0, |_| entries + self.dict.len() * size_of::<u32>());
        self.codes.heap_bytes() + size_of_val(self.validity.words()) + entries + index
    }
}

/// The code of `s` in an open column's dictionary, entered last if it is new
/// (the dictionary is copied first if a gathered part shares it; a value
/// already entered touches nothing but the index).
fn intern_in(dict: &mut Arc<Vec<String>>, index: &mut HashMap<String, u32>, s: &str) -> u32 {
    if let Some(&code) = index.get(s) {
        return code;
    }
    let code = dict.len() as u32;
    Arc::make_mut(dict).push(s.to_string());
    index.insert(s.to_string(), code);
    code
}

impl PartialEq for DictColumn {
    fn eq(&self, other: &Self) -> bool {
        self.validity == other.validity
            && (0..self.len()).all(|row| self.get(row) == other.get(row))
    }
}

impl Default for DictColumn {
    fn default() -> Self {
        Self::new()
    }
}

/// A typed column of values with NULL support.
///
/// Every column stores one lane per row plus a validity bitmap: numeric and
/// boolean columns ([`PrimitiveColumn`]) full-width values or — sealed with
/// few distinct values — narrow codes into a sorted dictionary; string
/// columns ([`DictColumn`]) always codes, into a first-appearance dictionary.
/// Equality is logical (row values), whatever the encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integer column.
    Int(PrimitiveColumn<i64>),
    /// 64-bit float column.
    Float(PrimitiveColumn<f64>),
    /// Dictionary-encoded string column.
    Str(DictColumn),
    /// Boolean column.
    Bool(PrimitiveColumn<bool>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new_empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(PrimitiveColumn::new()),
            DataType::Float => Column::Float(PrimitiveColumn::new()),
            DataType::Str => Column::Str(DictColumn::new()),
            DataType::Bool => Column::Bool(PrimitiveColumn::new()),
        }
    }

    /// The data type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(d) => d.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a dynamically-typed value.
    ///
    /// Returns a type-mismatch error if the value does not match the column
    /// type (NULL is accepted by every column).
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(*x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(*x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(*x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(d), Value::Str(s)) => d.push(Some(s)),
            (Column::Str(d), Value::Null) => d.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(*b)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(ColumnarError::TypeMismatch {
                    expected: col.data_type().name().to_string(),
                    found: value
                        .data_type()
                        .map(|t| t.name().to_string())
                        .unwrap_or_else(|| "null".to_string()),
                })
            }
        }
        Ok(())
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => v.get(row).map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v.get(row).map(Value::Float).unwrap_or(Value::Null),
            Column::Str(d) => d
                .get(row)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
            Column::Bool(v) => v.get(row).map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// True if the value at `row` is NULL.
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            Column::Int(v) => v.get(row).is_none(),
            Column::Float(v) => v.get(row).is_none(),
            Column::Str(d) => d.get(row).is_none(),
            Column::Bool(v) => v.get(row).is_none(),
        }
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.null_count(),
            Column::Float(v) => v.null_count(),
            Column::Str(d) => d.null_count(),
            Column::Bool(v) => v.null_count(),
        }
    }

    /// Numeric view of the value at `row` (`None` for NULL or non-numeric).
    pub fn numeric(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v.get(row).map(|x| x as f64),
            Column::Float(v) => v.get(row),
            _ => None,
        }
    }

    /// The column in its sealed representation (see the module docs): a
    /// numeric or boolean column with few distinct values re-stored as a
    /// sorted dictionary plus code lanes, anything else of those as it is, and
    /// a string column's lanes narrowed to the width its dictionary allows and
    /// its lookup index dropped. [`crate::Segment::new`] is the one caller — the point where
    /// every column becomes immutable.
    pub(crate) fn seal(self) -> Self {
        match self {
            Column::Int(v) => Column::Int(seal_numeric(v)),
            Column::Float(v) => Column::Float(seal_numeric(v)),
            Column::Str(d) => Column::Str(d.seal()),
            Column::Bool(v) => Column::Bool(seal_numeric(v)),
        }
    }

    /// How the column holds its values.
    pub fn encoding(&self) -> Encoding {
        match self {
            Column::Int(v) => v.encoding(),
            Column::Float(v) => v.encoding(),
            Column::Bool(v) => v.encoding(),
            Column::Str(d) => d.codes.encoding(),
        }
    }

    /// The bytes of column data on the heap: lanes, dictionaries and validity
    /// words (an open string column's lookup index is estimated from its
    /// entry count; allocator slack is not counted). What a report calls the
    /// column's resident size.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.heap_bytes(),
            Column::Float(v) => v.heap_bytes(),
            Column::Bool(v) => v.heap_bytes(),
            Column::Str(d) => d.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ColumnView;

    fn int_col(values: &[Option<i64>]) -> Column {
        Column::Int(values.to_vec().into())
    }

    /// The one-part view a lone column is scanned through.
    fn view(column: &Column) -> ColumnView<'_> {
        ColumnView::of_column("c", column)
    }

    #[test]
    fn primitive_column_round_trips_options() {
        let p: PrimitiveColumn<i64> = vec![Some(1), None, Some(3)].into();
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(0), Some(1));
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(2), Some(3));
        assert_eq!(p.null_count(), 1);
        let Lanes::Plain(lanes) = p.lanes() else {
            panic!("an open column holds plain lanes");
        };
        assert_eq!(lanes, &[1, 0, 3]);
        assert!(p.validity().get(0) && !p.validity().get(1));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![Some(1), None, Some(3)]);
    }

    #[test]
    fn primitive_column_slice_keeps_validity_alignment() {
        let values: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 7 == 0 { None } else { Some(i) })
            .collect();
        let p: PrimitiveColumn<i64> = values.clone().into();
        for (start, end) in [
            (0usize, 200usize),
            (3, 130),
            (64, 128),
            (65, 67),
            (199, 199),
        ] {
            let s = p.slice(start, end);
            assert_eq!(s.len(), end - start);
            for (i, want) in values[start..end].iter().enumerate() {
                assert_eq!(s.get(i), *want, "slice {start}..{end} row {i}");
            }
        }
    }

    #[test]
    fn dict_column_interning() {
        let mut d = DictColumn::new();
        d.push(Some("a"));
        d.push(Some("b"));
        d.push(Some("a"));
        d.push(None);
        assert_eq!(d.len(), 4);
        assert_eq!(d.cardinality(), 2);
        assert_eq!(d.get(0), Some("a"));
        assert_eq!(d.get(2), Some("a"));
        assert_eq!(d.get(3), None);
        assert_eq!(d.null_count(), 1);
        // One code per value, NULL lanes on code 0 and out of the validity mask.
        let Codes::U32(codes) = d.codes() else {
            panic!("an open column holds u32 lanes, got {:?}", d.codes());
        };
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(d.validity().to_indices(), vec![0, 1, 2]);
        assert_eq!(intern(&mut d, "b"), 1);
        assert_eq!(d.dictionary(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn push_and_value_round_trip() {
        let mut col = Column::new_empty(DataType::Int);
        col.push(&Value::Int(1)).unwrap();
        col.push(&Value::Null).unwrap();
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Null);
        assert!(col.is_null(1));
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.len(), 2);

        let mut s = Column::new_empty(DataType::Str);
        s.push(&Value::Str("x".into())).unwrap();
        assert_eq!(s.value(0), Value::Str("x".into()));
        assert_eq!(s.data_type(), DataType::Str);

        // Int into Float column is widened.
        let mut f = Column::new_empty(DataType::Float);
        f.push(&Value::Int(2)).unwrap();
        assert_eq!(f.value(0), Value::Float(2.0));
    }

    #[test]
    fn push_type_mismatch_errors() {
        let mut col = Column::new_empty(DataType::Int);
        let err = col.push(&Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn numeric_scan_kernels() {
        let column = int_col(&[Some(10), Some(20), None, Some(30), Some(40)]);
        let col = view(&column);
        let all = Bitmap::new_full(5);
        assert_eq!(col.numeric_values_where(&all), vec![10.0, 20.0, 30.0, 40.0]);
        let sel = Bitmap::from_indices(5, [0, 2, 3]);
        assert_eq!(col.numeric_values_where(&sel), vec![10.0, 30.0]);
        let hit = col.select_range(&all, 15.0, 35.0);
        assert_eq!(hit.to_indices(), vec![1, 3]);
        assert_eq!(col.numeric_min_max(&all), Some((10.0, 40.0)));
        assert_eq!(col.numeric_min_max(&Bitmap::new_empty(5)), None);
    }

    #[test]
    fn select_in_on_strings_bools_and_ints() {
        let mut d = DictColumn::new();
        for s in ["bsc", "msc", "bsc", "phd"] {
            d.push(Some(s));
        }
        let column = Column::Str(d);
        let col = view(&column);
        let all = Bitmap::new_full(4);
        let hit = col.select_in(&all, &["bsc".to_string(), "phd".to_string()]);
        assert_eq!(hit.to_indices(), vec![0, 2, 3]);
        let none = col.select_in(&all, &["unknown".to_string()]);
        assert!(none.is_all_clear());

        let b = Column::Bool(vec![Some(true), Some(false), None, Some(true)].into());
        let allb = Bitmap::new_full(4);
        let hit = view(&b).select_in(&allb, &["true".to_string()]);
        assert_eq!(hit.to_indices(), vec![0, 3]);

        let i = int_col(&[Some(1), Some(2), Some(3)]);
        let alli = Bitmap::new_full(3);
        let hit = view(&i).select_in(&alli, &["2".to_string()]);
        assert_eq!(hit.to_indices(), vec![1]);
    }

    #[test]
    fn categories_by_frequency_orders_desc() {
        let mut d = DictColumn::new();
        for s in ["a", "b", "b", "c", "b", "a"] {
            d.push(Some(s));
        }
        let column = Column::Str(d);
        let col = view(&column);
        let all = Bitmap::new_full(col.len());
        let freq = col.categories_by_frequency(&all);
        assert_eq!(freq[0], ("b".to_string(), 3));
        assert_eq!(freq[1], ("a".to_string(), 2));
        assert_eq!(freq[2], ("c".to_string(), 1));
        // numeric columns: empty
        assert!(view(&int_col(&[Some(1)]))
            .categories_by_frequency(&Bitmap::new_full(1))
            .is_empty());
    }

    #[test]
    fn select_range_ignores_nan_values() {
        // NaN never satisfies an inclusive range, whatever the bounds.
        let column =
            Column::Float(vec![Some(1.0), Some(f64::NAN), Some(2.0), None, Some(3.0)].into());
        let col = view(&column);
        let all = Bitmap::new_full(5);
        let hit = col.select_range(&all, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(hit.to_indices(), vec![0, 2, 4]);
        assert_eq!(col.select_range(&all, 1.0, 2.0).to_indices(), vec![0, 2]);
        // NaN bounds match nothing (every comparison is false).
        assert!(col.select_range(&all, f64::NAN, 10.0).is_all_clear());
        assert!(col.select_range(&all, 0.0, f64::NAN).is_all_clear());
        assert!(col.select_range(&all, f64::NAN, f64::NAN).is_all_clear());
    }

    #[test]
    fn select_range_with_inverted_bounds_selects_nothing() {
        // (lo, hi) with lo > hi is an empty interval under the inclusive
        // semantics — pinned so the per-segment kernels keep it.
        let column = int_col(&[Some(1), Some(2), Some(3)]);
        let col = view(&column);
        let all = Bitmap::new_full(3);
        assert!(col.select_range(&all, 3.0, 1.0).is_all_clear());
        // Degenerate single-point interval still matches.
        assert_eq!(col.select_range(&all, 2.0, 2.0).to_indices(), vec![1]);
        // select_ranges agrees per region.
        let regions = col.select_ranges(&all, &[(3.0, 1.0), (2.0, 2.0)]);
        assert!(regions[0].is_all_clear());
        assert_eq!(regions[1].to_indices(), vec![1]);
    }

    #[test]
    fn select_range_on_restricted_selection() {
        let column = Column::Float(vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)].into());
        let col = view(&column);
        let sel = Bitmap::from_indices(4, [1, 2]);
        let hit = col.select_range(&sel, 0.0, 10.0);
        assert_eq!(hit.to_indices(), vec![1, 2]);
    }

    #[test]
    fn numeric_select_in_groups_is_single_pass_and_matches_per_group_select_in() {
        // The satellite fix: numeric group partitioning used to run one
        // select_in scan per group; the single-pass kernel must keep the
        // same results for disjoint groups.
        let column = int_col(&[Some(1), Some(2), Some(3), None, Some(4), Some(2)]);
        let col = view(&column);
        let all = Bitmap::new_full(6);
        let groups = vec![
            vec!["1".to_string(), "4".to_string()],
            vec!["2".to_string()],
            vec!["007".to_string()], // never matches: round-trip rendering
        ];
        let got = col.select_in_groups(&all, &groups);
        for (g, group) in groups.iter().enumerate() {
            assert_eq!(got[g], col.select_in(&all, group), "group {g}");
        }
        assert_eq!(got[0].to_indices(), vec![0, 4]);
        assert_eq!(got[1].to_indices(), vec![1, 5]);
        assert!(got[2].is_all_clear());

        // Floats match on rendered values, same contract.
        let f = Column::Float(vec![Some(1.5), Some(2.5), None, Some(1.5)].into());
        let allf = Bitmap::new_full(4);
        let fg = vec![vec!["1.5".to_string()], vec!["2.5".to_string()]];
        let got = view(&f).select_in_groups(&allf, &fg);
        assert_eq!(got[0].to_indices(), vec![0, 3]);
        assert_eq!(got[1].to_indices(), vec![1]);
    }

    /// The sealed form of a lone numeric column.
    fn sealed(values: Vec<Option<i64>>) -> Column {
        Column::Int(values.into()).seal()
    }

    #[test]
    fn sealing_codes_few_distinct_values_and_leaves_the_rest_plain() {
        // 12 rows, 3 distinct values (a quarter of the rows): coded, the
        // dictionary sorted, NULL lanes on code 0.
        let rows: Vec<Option<i64>> = [7, -2, 7, 40, -2, 7, 40, 7, -2, 7, 40, 7]
            .into_iter()
            .enumerate()
            .map(|(i, x)| (i != 4).then_some(x))
            .collect();
        let plain = Column::Int(rows.clone().into());
        assert_eq!(plain.encoding(), Encoding::Plain);
        let coded = plain.clone().seal();
        assert_eq!(coded.encoding(), Encoding::CodedU8);
        let Column::Int(p) = &coded else {
            unreachable!("sealing keeps the type")
        };
        let Lanes::Coded {
            dict,
            codes: Codes::U8(codes),
        } = p.lanes()
        else {
            panic!("expected u8 codes, got {:?}", p.lanes());
        };
        assert_eq!(**dict, [-2, 7, 40]);
        assert_eq!(codes, &[1, 0, 1, 2, 0, 1, 2, 1, 0, 1, 2, 1]);
        // Equality is logical, rows decode, and the coded form is lighter.
        assert_eq!(coded, plain);
        assert_eq!(p.iter().collect::<Vec<_>>(), rows);
        assert_eq!((coded.null_count(), coded.len()), (1, 12));
        assert!(coded.heap_bytes() < plain.heap_bytes());
        // One distinct value more than a quarter of the rows: plain.
        let mut four = rows.clone();
        four[0] = Some(8);
        assert_eq!(sealed(four).encoding(), Encoding::Plain);
        // A value only NULL rows would hold never enters the dictionary.
        assert_eq!(sealed(vec![None; 9]).encoding(), Encoding::CodedU8);
        assert_eq!(sealed(vec![None; 9]).value(3), Value::Null);
        // Sealing what is sealed changes nothing; slices come back plain.
        assert_eq!(coded.clone().seal().encoding(), Encoding::CodedU8);
        assert_eq!(p.slice(2, 9).iter().collect::<Vec<_>>(), rows[2..9]);
        assert_eq!(p.slice(2, 9).encoding(), Encoding::Plain);
    }

    #[test]
    fn code_width_follows_the_dictionary_and_the_pass_stops_one_key_past_it() {
        let column = |distinct: i64| -> Vec<Option<i64>> {
            (0..4 * distinct + 3)
                .map(|i| Some(i * 7 % distinct))
                .collect()
        };
        assert_eq!(sealed(column(256)).encoding(), Encoding::CodedU8);
        assert_eq!(sealed(column(257)).encoding(), Encoding::CodedU16);
        let at_capacity = sealed(column(MAX_CODED_VALUES as i64));
        assert_eq!(at_capacity.encoding(), Encoding::CodedU16);
        assert_eq!(at_capacity, Column::Int(column(1024).into()));
        assert_eq!(sealed(column(1025)).encoding(), Encoding::Plain);
        // Floats key on their bits: both zeros and two NaNs are four values,
        // ordered by `total_cmp`.
        let specials = [0.0, -0.0, f64::NAN, -f64::NAN];
        let rows: Vec<Option<f64>> = (0..16).map(|i| Some(specials[i % 4])).collect();
        let Column::Float(p) = Column::Float(rows.clone().into()).seal() else {
            unreachable!("sealing keeps the type")
        };
        let Lanes::Coded { dict, .. } = p.lanes() else {
            panic!("four values in sixteen rows are coded");
        };
        let bits: Vec<u64> = dict.iter().map(|x| x.to_bits()).collect();
        let expected = [-f64::NAN, -0.0, 0.0, f64::NAN].map(f64::to_bits);
        assert_eq!(bits, expected);
        let decoded: Vec<Option<u64>> = p.iter().map(|x| x.map(f64::to_bits)).collect();
        let original: Vec<Option<u64>> = rows.iter().map(|x| x.map(f64::to_bits)).collect();
        assert_eq!(decoded, original);
    }

    #[test]
    fn pushing_to_a_coded_column_reopens_it() {
        let mut column = sealed((0..40).map(|i| Some(i % 5)).collect());
        assert_eq!(column.encoding(), Encoding::CodedU8);
        column.push(&Value::Int(99)).unwrap();
        column.push(&Value::Null).unwrap();
        assert_eq!(column.encoding(), Encoding::Plain);
        assert_eq!(column.len(), 42);
        assert_eq!(column.value(39), Value::Int(4));
        assert_eq!(column.value(40), Value::Int(99));
        assert_eq!(column.value(41), Value::Null);
    }

    /// A string column over `values` (`None` = NULL), open.
    /// Intern a string without appending a row, returning its code.
    fn intern(column: &mut DictColumn, s: &str) -> u32 {
        let (dict, _, index) = column.open();
        intern_in(dict, index, s)
    }

    fn str_col<'a>(values: impl IntoIterator<Item = Option<&'a str>>) -> DictColumn {
        let mut d = DictColumn::new();
        for value in values {
            d.push(value);
        }
        d
    }

    #[test]
    fn string_equality_is_by_rows_whatever_was_interned_and_at_whatever_width() {
        let rows = [Some("b"), None, Some("a"), Some("b"), None];
        let open = Column::Str(str_col(rows));
        let sealed = open.clone().seal();
        assert_eq!(
            (open.encoding(), sealed.encoding()),
            (Encoding::CodedU32, Encoding::CodedU8)
        );
        assert_eq!(open, sealed);
        assert!(sealed.heap_bytes() < open.heap_bytes());
        // A value no row holds, interned first: other codes, the same rows.
        let mut other = DictColumn::new();
        intern(&mut other, "zzz");
        intern(&mut other, "a");
        for value in rows {
            other.push(value);
        }
        assert_eq!(other.dictionary(), ["zzz", "a", "b"]);
        assert_eq!(Column::Str(other.clone()), open);
        assert_eq!(Column::Str(other).seal(), sealed);
        // A NULL is not the first value, though both lanes hold code 0.
        let differing = [Some("b"), Some("b"), Some("a"), Some("b"), None];
        assert_ne!(Column::Str(str_col(differing)), open);
        assert_ne!(Column::Str(str_col(differing)).seal(), sealed);
        assert_ne!(Column::Str(str_col(rows[..4].iter().copied())), open);
    }

    #[test]
    fn sealed_string_lanes_are_as_narrow_as_the_dictionary_allows() {
        let column = |distinct: usize| {
            let values: Vec<String> = (0..distinct + 7)
                .map(|i| format!("v{}", i % distinct))
                .collect();
            let nulls = [None, None];
            Column::Str(str_col(
                values.iter().map(|v| Some(v.as_str())).chain(nulls),
            ))
        };
        for (distinct, encoding) in [
            (1, Encoding::CodedU8),
            (256, Encoding::CodedU8),
            (257, Encoding::CodedU16),
            (65_536, Encoding::CodedU16),
            (65_537, Encoding::CodedU32),
        ] {
            let open = column(distinct);
            let sealed = open.clone().seal();
            assert_eq!(sealed.encoding(), encoding, "{distinct} values");
            assert_eq!(sealed, open);
            assert_eq!((sealed.null_count(), sealed.len()), (2, distinct + 9));
            let wrapped = format!("v{}", 3 % distinct);
            assert_eq!(sealed.value(distinct + 3), Value::Str(wrapped));
            assert_eq!(sealed.value(distinct + 8), Value::Null);
            // Sealing what is sealed changes nothing.
            assert_eq!(sealed.clone().seal().encoding(), encoding);
        }
        // No value at all: byte lanes over an empty dictionary.
        let empty = Column::Str(str_col([None, None, None])).seal();
        assert_eq!(empty.encoding(), Encoding::CodedU8);
        assert_eq!((empty.null_count(), empty.value(1)), (3, Value::Null));
    }

    #[test]
    fn pushing_to_a_sealed_string_column_reopens_it() {
        let mut column = Column::Str(str_col([Some("x"), None, Some("y")])).seal();
        assert_eq!(column.encoding(), Encoding::CodedU8);
        column.push(&Value::Null).unwrap();
        assert_eq!(column.encoding(), Encoding::CodedU32);
        column.push(&Value::Str("y".into())).unwrap();
        column.push(&Value::Str("z".into())).unwrap();
        let Column::Str(d) = &column else {
            unreachable!("pushing keeps the type")
        };
        assert_eq!(d.dictionary(), ["x", "y", "z"]);
        let rows: Vec<Option<&str>> = (0..d.len()).map(|row| d.get(row)).collect();
        assert_eq!(
            rows,
            [Some("x"), None, Some("y"), None, Some("y"), Some("z")]
        );
    }
}
