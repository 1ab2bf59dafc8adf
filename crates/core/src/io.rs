//! Transaction database I/O: the text codec, the binary format, and the
//! one encoder that streams either to a writer.
//!
//! The text format is one transaction per line: whitespace-separated item
//! ids, optionally prefixed by `tid:`. Lines that are empty or start with
//! `#` are skipped. This matches the de-facto format of public
//! association-rule datasets (e.g. the FIMI repository), so real datasets
//! drop in directly. The fine print is in DESIGN.md §5.9.
//!
//! ```text
//! # minsup experiments, T15.I6
//! 1: 3 5 19 204
//! 2: 5 19
//! 3 5 7
//! ```
//!
//! Both readers take outside input, so both refuse what the miner cannot
//! hold: an item id above [`Item::MAX_ID`] is a [`ReadError::Parse`], and
//! no length field of the binary format is trusted with an allocation.

use crate::dataset::Dataset;
use crate::item::Item;
use crate::transaction::Transaction;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Errors from reading a transaction database.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A token could not be parsed as an item id.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse { line, token } => {
                write!(f, "line {line}: invalid item id {token:?}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Size of the reader's chunk and of the writers' block: under glibc's
/// 128 KB mmap threshold on purpose. Freeing a 1 MB buffer raises the
/// process's dynamic threshold, and the pages and count vectors of 64 rank
/// threads then stay resident (`sim_hd_p64` peak RSS 62.4 → 65.2 MB; with
/// 64 KB 62.0 MB, same speed).
const IO_BLOCK: usize = 64 * 1024;

/// The blanks of an ASCII line: `char::is_whitespace` below U+0080.
#[inline]
fn is_blank(byte: u8) -> bool {
    matches!(byte, b'\t'..=b'\r' | b' ')
}

/// A line with non-ASCII bytes, its blanks beyond ASCII respelled as as
/// many spaces: the byte parser sees them and token positions hold. A
/// line that is not UTF-8 stays as it is (its stray bytes are bad tokens).
fn ascii_blanks(line: &[u8]) -> Vec<u8> {
    let mut spelled = line.to_vec();
    let text = std::str::from_utf8(line).unwrap_or("");
    for (at, blank) in text.char_indices().filter(|(_, c)| c.is_whitespace()) {
        spelled[at..at + blank.len_utf8()].fill(b' ');
    }
    spelled
}

/// The cap [`digits`] reads a tid under: one at or above it, or not plain
/// digits, is `str::parse`'s to judge.
const TID_CAP: u64 = 10u64.pow(18);
/// The cap [`digits`] reads an item id under: one past [`Item::MAX_ID`].
const ID_CAP: u64 = Item::MAX_ID as u64 + 1;

/// The plain digits at `bytes[at..]`: where they end and their value,
/// which stops growing at `cap` (at most 10^18: no overflow).
#[inline]
fn digits(bytes: &[u8], mut at: usize, cap: u64) -> (usize, u64) {
    let mut value = 0;
    while let Some(digit) = bytes
        .get(at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        value = (value * 10 + digit as u64).min(cap);
        at += 1;
    }
    (at, value)
}

/// A token that is not plain digits below the cap — `+7`, twenty digits,
/// junk — is `str::parse`'s to judge: its number, if one at most `max`.
fn parse_rare(token: &[u8], max: u64) -> Option<u64> {
    let text = std::str::from_utf8(token).ok()?;
    text.parse::<u64>().ok().filter(|&number| number <= max)
}

/// Parses one line, blanks ASCII, into `items`. `Ok(None)` is a blank or
/// `#` line, `Ok(Some(tid))` a transaction whose items are in `items`,
/// strictly ascending, `Err` where in `line` the offending token is.
fn parse_line(
    line: &[u8],
    next_tid: u64,
    items: &mut Vec<Item>,
) -> Result<Option<u64>, std::ops::Range<usize>> {
    let end = line
        .iter()
        .rposition(|&b| !is_blank(b))
        .map_or(0, |i| i + 1);
    let Some(start) = line[..end].iter().position(|&b| !is_blank(b)) else {
        return Ok(None);
    };
    if line[start] == b'#' {
        // Nothing else looks inside a comment, and a text dataset is UTF-8.
        return std::str::from_utf8(line)
            .map(|_| None)
            .map_err(|_| start..end);
    }
    // The first `:` splits, wherever it is.
    let (tid, mut at) = match line[start..end].iter().position(|&b| b == b':') {
        Some(colon) => {
            let colon = start + colon;
            let stop = line[..colon]
                .iter()
                .rposition(|&b| !is_blank(b))
                .map_or(start, |i| i + 1);
            let tid = match digits(line, start, TID_CAP) {
                (digits_end, tid) if digits_end == stop && stop > start && tid < TID_CAP => tid,
                _ => parse_rare(&line[start..stop], u64::MAX).ok_or(start..stop)?,
            };
            (tid, colon + 1)
        }
        None => (next_tid, start),
    };
    items.clear();
    let mut ascending = true;
    while at < end {
        if is_blank(line[at]) {
            at += 1;
            continue;
        }
        // Unparseable and over-limit ids fail alike: line and token.
        let (mut stop, mut id) = digits(line, at, ID_CAP);
        if stop == at || id == ID_CAP || (stop < end && !is_blank(line[stop])) {
            stop = (stop..end).find(|&i| is_blank(line[i])).unwrap_or(end);
            id = parse_rare(&line[at..stop], Item::MAX_ID as u64).ok_or(at..stop)?;
        }
        let item = Item(id as u32);
        ascending &= items.last().is_none_or(|&last| last < item);
        items.push(item);
        at = stop;
    }
    if !ascending {
        items.sort_unstable();
        items.dedup();
    }
    Ok(Some(tid))
}

/// The line the writer writes, at the start of `bytes`, in any item
/// order: `tid:` then ` id` per item and `\n`, every number plain digits,
/// the tid below 10^18, the ids at most [`Item::MAX_ID`]. Its tid, with
/// its items in `items` (sorted and deduplicated as [`parse_line`] does,
/// when they are not strictly ascending already), and where it ends past
/// the newline; `None` for any other line, and for one that `bytes` cuts
/// off. What it accepts, [`parse_line`] parses the same.
#[inline]
fn parse_canonical(bytes: &[u8], items: &mut Vec<Item>) -> Option<(u64, usize)> {
    let (colon, tid) = digits(bytes, 0, TID_CAP);
    if colon == 0 || tid == TID_CAP || bytes.get(colon) != Some(&b':') {
        return None;
    }
    items.clear();
    let mut ascending = true;
    let mut at = colon + 1;
    while bytes.get(at) == Some(&b' ') {
        let (end, id) = digits(bytes, at + 1, ID_CAP);
        if end == at + 1 || id == ID_CAP {
            return None;
        }
        let item = Item(id as u32);
        ascending &= items.last().is_none_or(|&last| last < item);
        items.push(item);
        at = end;
    }
    if bytes.get(at) != Some(&b'\n') {
        return None;
    }
    if !ascending {
        items.sort_unstable();
        items.dedup();
    }
    Some((tid, at + 1))
}

/// The text reader's state between lines: the transactions so far, the
/// scratch items of the line at hand, the tid a line without one gets, and
/// the number of lines taken.
#[derive(Default)]
struct TextReader {
    transactions: Vec<Transaction>,
    items: Vec<Item>,
    next_tid: u64,
    lines: usize,
}

impl TextReader {
    /// Takes the line at the start of `bytes`: how long it is, newline
    /// and all, or `None` if `bytes` ends inside it. With `whole`, `bytes`
    /// is one line, closed by its newline or by the end of the input.
    fn take(&mut self, bytes: &[u8], whole: bool) -> Result<Option<usize>, ReadError> {
        let (parsed, len) = match parse_canonical(bytes, &mut self.items) {
            Some((tid, len)) => (Ok(Some(tid)), len),
            None => {
                let len = match bytes.iter().position(|&b| b == b'\n') {
                    Some(newline) => newline + 1,
                    None if whole => bytes.len(),
                    None => return Ok(None),
                };
                let line = &bytes[..len];
                let parsed = if line.is_ascii() {
                    parse_line(line, self.next_tid, &mut self.items)
                } else {
                    parse_line(&ascii_blanks(line), self.next_tid, &mut self.items)
                };
                (parsed, len)
            }
        };
        self.lines += 1;
        let tid = parsed.map_err(|token| ReadError::Parse {
            line: self.lines,
            token: String::from_utf8_lossy(&bytes[token]).into_owned(),
        })?;
        if let Some(tid) = tid {
            let items = self.items.to_vec();
            self.transactions.push(Transaction::from_sorted(tid, items));
            // An explicit tid of `u64::MAX` is legal: the sequence wraps to 0.
            self.next_tid = tid.wrapping_add(1);
        }
        Ok(Some(len))
    }
}

/// Reads a transaction database from any reader.
///
/// Transactions without an explicit `tid:` prefix get sequential ids
/// starting from 1. Lines are parsed where they lie in the reader's 64 KB
/// block; only a line that a refill cuts in two is first gathered into one
/// reused buffer. A transaction costs one allocation, of exactly its size.
pub fn read_transactions<R: Read>(reader: R) -> Result<Dataset, ReadError> {
    use std::io::{BufRead, ErrorKind};
    let mut reader = BufReader::with_capacity(IO_BLOCK, reader);
    let mut text = TextReader {
        next_tid: 1,
        ..TextReader::default()
    };
    // The head of a line that the last block ended inside.
    let mut cut = Vec::new();
    loop {
        let block = match reader.fill_buf() {
            Ok(block) => block,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if block.is_empty() {
            break;
        }
        let mut at = 0;
        if !cut.is_empty() {
            let end = block
                .iter()
                .position(|&b| b == b'\n')
                .map(|newline| newline + 1);
            at = end.unwrap_or(block.len());
            cut.extend_from_slice(&block[..at]);
            if end.is_some() {
                text.take(&cut, true)?;
                cut.clear();
            }
        }
        while at < block.len() {
            match text.take(&block[at..], false)? {
                Some(len) => at += len,
                None => {
                    cut.extend_from_slice(&block[at..]);
                    at = block.len();
                }
            }
        }
        reader.consume(at);
    }
    if !cut.is_empty() {
        text.take(&cut, true)?;
    }
    Ok(Dataset::new(text.transactions))
}

/// Writes `value` in decimal at `block[at..]`; returns where it ends.
#[inline]
fn put_decimal(block: &mut [u8], at: usize, mut value: u64) -> usize {
    let end = at + value.checked_ilog10().map_or(1, |log| log as usize + 1);
    for byte in block[at..end].iter_mut().rev() {
        *byte = b'0' + (value % 10) as u8;
        value /= 10;
    }
    end
}

/// Writes `bytes` at `block[at..]`; returns where they end.
#[inline]
fn put(block: &mut [u8], at: usize, bytes: &[u8]) -> usize {
    block[at..at + bytes.len()].copy_from_slice(bytes);
    at + bytes.len()
}

/// Encodes the transactions `produce` hands to its sink and writes them to
/// `writer` a block at a time: the body of every writer here, and what
/// takes a generator to a file with no [`Dataset`] in between. `binary` is
/// `None` for text and `Some((num_items, num_transactions))`, the header
/// the producer must honour, for binary. A write error ends the stream
/// through the sink's result.
pub fn write_transaction_stream<W: Write>(
    mut writer: W,
    binary: Option<(u32, u64)>,
    produce: impl FnOnce(&mut dyn FnMut(u64, &[Item]) -> std::io::Result<()>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    // Records are encoded in place at `block[at..]`.
    let mut block = vec![0u8; IO_BLOCK];
    let mut at = 0;
    if let Some((num_items, num_transactions)) = binary {
        at = put(&mut block, at, BINARY_MAGIC);
        at = put(&mut block, at, &BINARY_VERSION.to_le_bytes());
        at = put(&mut block, at, &num_items.to_le_bytes());
        at = put(&mut block, at, &num_transactions.to_le_bytes());
    }
    produce(&mut |tid, items| {
        // The most this record can take: tid, then a length or 20 digits
        // and `:\n`, then per item an id or a space and 10 digits.
        let (fixed, per_item) = if binary.is_some() { (12, 4) } else { (22, 11) };
        let room = fixed + per_item * items.len();
        if at + room > block.len() {
            writer.write_all(&block[..at])?;
            at = 0;
            // One record larger than the block: the only way it grows.
            block.resize(room.max(IO_BLOCK), 0);
        }
        if binary.is_some() {
            at = put(&mut block, at, &tid.to_le_bytes());
            at = put(&mut block, at, &(items.len() as u32).to_le_bytes());
            for item in items {
                at = put(&mut block, at, &item.id().to_le_bytes());
            }
        } else {
            at = put_decimal(&mut block, at, tid);
            at = put(&mut block, at, b":");
            for item in items {
                at = put(&mut block, at, b" ");
                at = put_decimal(&mut block, at, item.id() as u64);
            }
            at = put(&mut block, at, b"\n");
        }
        Ok(())
    })?;
    writer.write_all(&block[..at])?;
    writer.flush()
}

/// Writes a dataset in the text format (with explicit tids).
pub fn write_transactions<W: Write>(writer: W, dataset: &Dataset) -> std::io::Result<()> {
    let mut all = dataset.transactions().iter();
    write_transaction_stream(writer, None, |sink| {
        all.try_for_each(|t| sink(t.tid(), t.items()))
    })
}

/// Writes a dataset to a file path.
pub fn write_transactions_file<P: AsRef<Path>>(path: P, dataset: &Dataset) -> std::io::Result<()> {
    write_transactions(std::fs::File::create(path)?, dataset)
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------
//
// Layout (all little-endian):
//   magic  b"ARMN"  | version u32 = 1 | num_items u32 | num_transactions u64
//   then per transaction: tid u64 | len u32 | len × item u32
//
// Fixed-width, so nothing is parsed, and smaller than text once ids run to
// five digits or more (Quest ids below 1000 are smaller as text: 66 MB
// against 72 MB for T15 D1M). It no longer loads faster: it is read field
// by field, the text a block at a time (the probe's `io.load_binary_s` and
// `io.load_text_s`).

const BINARY_MAGIC: &[u8; 4] = b"ARMN";
const BINARY_VERSION: u32 = 1;

/// Writes a dataset in the compact binary format.
pub fn write_transactions_binary<W: Write>(writer: W, dataset: &Dataset) -> std::io::Result<()> {
    let header = Some((dataset.num_items(), dataset.len() as u64));
    let mut all = dataset.transactions().iter();
    write_transaction_stream(writer, header, |sink| {
        all.try_for_each(|t| sink(t.tid(), t.items()))
    })
}

/// Reads a dataset written by [`write_transactions_binary`].
pub(crate) fn read_transactions_binary<R: Read>(reader: R) -> Result<Dataset, ReadError> {
    let mut buf = BufReader::new(reader);
    // Not a text line: line 0, and what is wrong in place of a token.
    let malformed = |what: String| ReadError::Parse {
        line: 0,
        token: what,
    };
    let magic: [u8; 4] = read_le(&mut buf)?;
    if &magic != BINARY_MAGIC {
        return Err(malformed(format!("bad magic {magic:?}")));
    }
    let version = u32::from_le_bytes(read_le(&mut buf)?);
    if version != BINARY_VERSION {
        return Err(malformed(format!("unsupported version {version}")));
    }
    let num_items = u32::from_le_bytes(read_le(&mut buf)?);
    if num_items > Item::MAX_ID + 1 {
        return Err(malformed(format!(
            "universe {num_items} above the item limit {}",
            Item::MAX_ID
        )));
    }
    // The counts are untrusted: they size the first allocation only up to
    // a cap, and a file shorter than it claims fails its next read.
    let n = u64::from_le_bytes(read_le(&mut buf)?);
    let mut transactions = Vec::with_capacity(n.min(1 << 24) as usize);
    for _ in 0..n {
        let tid = u64::from_le_bytes(read_le(&mut buf)?);
        let len = u32::from_le_bytes(read_le(&mut buf)?) as usize;
        let mut items = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let id = u32::from_le_bytes(read_le(&mut buf)?);
            if id >= num_items {
                return Err(malformed(format!("item {id} outside universe {num_items}")));
            }
            items.push(Item(id));
        }
        transactions.push(Transaction::new(tid, items));
    }
    Ok(Dataset::with_num_items(transactions, num_items))
}

fn read_le<const N: usize>(r: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Reads a transaction database, auto-detecting the binary format by its
/// magic bytes and falling back to the text parser. The file is streamed:
/// only the magic is read ahead (a file shorter than it is text).
pub fn read_transactions_auto<P: AsRef<Path>>(path: P) -> Result<Dataset, ReadError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = Vec::new();
    Read::by_ref(&mut file).take(4).read_to_end(&mut head)?;
    if head == BINARY_MAGIC {
        read_transactions_binary(head.chain(file))
    } else {
        read_transactions(head.chain(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_format() {
        let text = "# comment\n\n1: 3 5 19\n2: 5 19\n7 3\n";
        let d = read_transactions(text.as_bytes()).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.transactions()[0].tid(), 1);
        assert_eq!(d.transactions()[1].tid(), 2);
        // Line without a tid continues the sequence.
        assert_eq!(d.transactions()[2].tid(), 3);
        assert_eq!(
            d.transactions()[2].items(),
            &[Item(3), Item(7)],
            "items are sorted on ingest"
        );
    }

    /// `u64::MAX` is a legal explicit tid; the implicit tid after it is
    /// the same in debug and release builds.
    #[test]
    fn explicit_max_tid_wraps_the_implicit_sequence() {
        let d = read_transactions("18446744073709551615: 1 2\n3\n".as_bytes()).unwrap();
        let tids: Vec<u64> = d.transactions().iter().map(Transaction::tid).collect();
        assert_eq!(tids, [u64::MAX, 0]);
    }

    #[test]
    fn roundtrip_preserves_dataset() {
        let original = Dataset::new(vec![
            Transaction::new(10, vec![Item(4), Item(1)]),
            Transaction::new(11, vec![Item(9)]),
            Transaction::new(12, vec![]),
        ]);
        let mut bytes = Vec::new();
        write_transactions(&mut bytes, &original).unwrap();
        let reread = read_transactions(&bytes[..]).unwrap();
        assert_eq!(reread.len(), original.len());
        for (a, b) in reread.transactions().iter().zip(original.transactions()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bad_item_reports_line_and_token() {
        let err = read_transactions("1: 3 x 5\n".as_bytes()).unwrap_err();
        match err {
            ReadError::Parse { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "x");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn bad_tid_reports_error() {
        let err = read_transactions("abc: 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_gives_empty_dataset() {
        let d = read_transactions("".as_bytes()).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let original = Dataset::with_num_items(
            vec![
                Transaction::new(10, vec![Item(4), Item(1)]),
                Transaction::new(11, vec![Item(9)]),
                Transaction::new(12, vec![]),
            ],
            50,
        );
        let mut bytes = Vec::new();
        write_transactions_binary(&mut bytes, &original).unwrap();
        let reread = read_transactions_binary(&bytes[..]).unwrap();
        assert_eq!(reread.transactions(), original.transactions());
        assert_eq!(reread.num_items(), 50, "universe size survives");
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let err = read_transactions_binary(&b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("magic") || err.to_string().contains("i/o"));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ARMN");
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = read_transactions_binary(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn binary_rejects_out_of_universe_item() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ARMN");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&5u32.to_le_bytes()); // num_items
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one transaction
        bytes.extend_from_slice(&1u64.to_le_bytes()); // tid
        bytes.extend_from_slice(&1u32.to_le_bytes()); // len
        bytes.extend_from_slice(&9u32.to_le_bytes()); // item 9 >= 5
        let err = read_transactions_binary(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("universe"));
    }

    #[test]
    fn binary_truncated_input_is_io_error() {
        let original = Dataset::new(vec![Transaction::new(1, vec![Item(0), Item(1)])]);
        let mut bytes = Vec::new();
        write_transactions_binary(&mut bytes, &original).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            read_transactions_binary(&bytes[..]),
            Err(ReadError::Io(_))
        ));
    }

    /// A 36-byte file claiming a 4-billion-item transaction: the length
    /// must not size an allocation; the missing items are a short read.
    #[test]
    fn binary_untrusted_length_is_not_allocated() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ARMN");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&10u32.to_le_bytes()); // num_items
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one transaction
        bytes.extend_from_slice(&1u64.to_le_bytes()); // tid
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // len
        bytes.extend_from_slice(&3u32.to_le_bytes()); // the only item
        assert_eq!(bytes.len(), 36);
        assert!(matches!(
            read_transactions_binary(&bytes[..]),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn binary_rejects_universe_above_the_item_limit() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ARMN");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // num_items
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = read_transactions_binary(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("item limit"), "{err}");
    }

    /// Ids that would make pass 1's dense vector 32 GB, or wrap
    /// `max id + 1` to 0, are refused where they enter — by line and token.
    #[test]
    fn text_rejects_item_ids_above_the_limit() {
        for huge in ["4000000000", "4294967295", "134217728"] {
            let text = format!("1: 1 2\n2: 1 2 {huge}\n");
            match read_transactions(text.as_bytes()).unwrap_err() {
                ReadError::Parse { line, token } => assert_eq!((line, &token[..]), (2, huge)),
                other => panic!("expected parse error, got {other}"),
            }
        }
        let d = read_transactions(format!("1: 1 {}\n", Item::MAX_ID).as_bytes()).unwrap();
        assert_eq!(d.num_items(), Item::MAX_ID + 1, "the limit itself is valid");
    }

    #[test]
    #[should_panic(expected = "no room for the universe size")]
    fn dataset_new_does_not_wrap_the_universe_size() {
        Dataset::new(vec![Transaction::new(1, vec![Item(u32::MAX)])]);
    }

    #[test]
    fn auto_detection_reads_both_formats() {
        let dir = std::env::temp_dir().join("armine_io_auto");
        std::fs::create_dir_all(&dir).unwrap();
        let d = Dataset::new(vec![Transaction::new(1, vec![Item(2), Item(3)])]);

        let text_path = dir.join("db.txt");
        write_transactions_file(&text_path, &d).unwrap();
        let bin_path = dir.join("db.bin");
        write_transactions_binary(std::fs::File::create(&bin_path).unwrap(), &d).unwrap();

        for p in [&text_path, &bin_path] {
            let r = read_transactions_auto(p).unwrap();
            assert_eq!(r.transactions(), d.transactions(), "{}", p.display());
        }
        // Files too short to hold the magic bytes are text.
        let short_path = dir.join("short.txt");
        std::fs::write(&short_path, b"").unwrap();
        assert!(read_transactions_auto(&short_path).unwrap().is_empty());
        std::fs::write(&short_path, b"3 2").unwrap();
        let r = read_transactions_auto(&short_path).unwrap();
        assert_eq!(r.transactions(), d.transactions());
        std::fs::write(&short_path, b"ARM").unwrap();
        let err = read_transactions_auto(&short_path).unwrap_err();
        assert_eq!(err.to_string(), "line 1: invalid item id \"ARM\"");
        for p in [text_path, bin_path, short_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn binary_is_smaller_than_text() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dataset::new(
            (0..200)
                .map(|tid| {
                    Transaction::new(
                        tid,
                        (0..15).map(|_| Item(rng.gen_range(0..100_000))).collect(),
                    )
                })
                .collect(),
        );
        let mut text = Vec::new();
        write_transactions(&mut text, &d).unwrap();
        let mut bin = Vec::new();
        write_transactions_binary(&mut bin, &d).unwrap();
        assert!(
            bin.len() < text.len(),
            "binary {} should beat text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("armine_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.txt");
        let d = Dataset::new(vec![Transaction::new(1, vec![Item(2), Item(3)])]);
        write_transactions_file(&path, &d).unwrap();
        let r = read_transactions_auto(&path).unwrap();
        assert_eq!(r.transactions(), d.transactions());
        std::fs::remove_file(&path).ok();
    }
    /// What both any-input properties assert of an accepted dataset before
    /// round-tripping it: it is no bigger than the bytes that made it (no
    /// length field was believed beyond what the input backs).
    fn accepted(d: &Dataset, input_len: usize, min_tx_bytes: usize, min_item_bytes: usize) {
        assert!(d.len() * min_tx_bytes <= input_len);
        let items: usize = d.transactions().iter().map(Transaction::len).sum();
        assert!(items * min_item_bytes <= input_len);
    }

    /// The reader this module had before it parsed bytes — one `String`
    /// per line, `str::parse` per token — kept as the definition of the
    /// text language: what it accepts, and every error it words.
    fn read_transactions_by_lines<R: Read>(reader: R) -> Result<Dataset, ReadError> {
        use std::io::BufRead;
        let mut transactions = Vec::new();
        let mut next_tid: u64 = 1;
        for (lineno, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let bad = |token: &str| ReadError::Parse {
                line: lineno + 1,
                token: token.to_owned(),
            };
            let (tid, rest) = match trimmed.split_once(':') {
                Some((tid, rest)) => (tid.trim().parse().map_err(|_| bad(tid.trim()))?, rest),
                None => (next_tid, trimmed),
            };
            let mut items = Vec::new();
            for token in rest.split_whitespace() {
                let id = token.parse::<u32>().ok().filter(|&id| id <= Item::MAX_ID);
                items.push(Item(id.ok_or_else(|| bad(token))?));
            }
            transactions.push(Transaction::new(tid, items));
            next_tid = tid.wrapping_add(1);
        }
        Ok(Dataset::new(transactions))
    }

    /// The `write!`-per-item writer of before, likewise: the bytes of the
    /// text format.
    fn write_transactions_with_fmt(dataset: &Dataset) -> Vec<u8> {
        let mut text = Vec::new();
        for t in dataset.transactions() {
            write!(text, "{}:", t.tid()).unwrap();
            for item in t.items() {
                write!(text, " {item}").unwrap();
            }
            writeln!(text).unwrap();
        }
        text
    }

    /// Hands out `data` at most `step` bytes a call, every other call an
    /// `Interrupted` error instead.
    struct Dribble<'a> {
        data: &'a [u8],
        step: usize,
        interrupt: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.step.min(buf.len());
            self.data.read(&mut buf[..n])
        }
    }

    /// The byte parser against the line reader on one input, whole and in
    /// dribbles of every `step`: the same dataset or the same error text.
    /// The one intended difference: a line that is not UTF-8 was an i/o
    /// error without a line number and is now a parse error naming it.
    fn assert_reads_like_the_line_reader(input: &[u8], steps: &[usize]) {
        let expected = read_transactions_by_lines(input);
        let whole = std::iter::once(read_transactions(input));
        let dribbled = steps.iter().map(|&step| {
            read_transactions(Dribble {
                data: input,
                step,
                interrupt: false,
            })
        });
        for got in whole.chain(dribbled) {
            match (&expected, got) {
                (Ok(expected), Ok(got)) => {
                    assert_eq!(got.transactions(), expected.transactions());
                    assert_eq!(got.num_items(), expected.num_items());
                }
                (Err(ReadError::Io(_)), Err(ReadError::Parse { line, .. })) => {
                    let mut lines = input.split(|&b| b == b'\n');
                    let first_bad = lines.position(|l| std::str::from_utf8(l).is_err());
                    assert_eq!(Some(line), first_bad.map(|l| l + 1));
                }
                (Err(expected), Err(got)) => assert_eq!(got.to_string(), expected.to_string()),
                (expected, got) => panic!("line reader {expected:?}, byte parser {got:?}"),
            }
        }
    }

    #[test]
    fn lines_meet_the_chunk_buffer_at_every_edge() {
        let steps = [1, 7, 4096, usize::MAX];
        // One line three times the buffer, then one more, no final newline.
        let ids: Vec<String> = (0..40_000).map(|id| id.to_string()).collect();
        let long = format!("5: {}\n9 8", ids.join(" "));
        assert!(long.len() > 3 * IO_BLOCK);
        assert_reads_like_the_line_reader(long.as_bytes(), &steps);
        let d = read_transactions(long.as_bytes()).unwrap();
        assert_eq!((d.len(), d.transactions()[0].len()), (2, 40_000));
        // `\n` as the last byte of the buffer, as its first, and a bad
        // token cut in two by its end.
        for pad in [IO_BLOCK - 3, IO_BLOCK - 2, IO_BLOCK - 1] {
            let text = format!("#{}\n1: 2 3\n\n4 x5y 6", "-".repeat(pad));
            assert_reads_like_the_line_reader(text.as_bytes(), &steps);
            let err = read_transactions(text.as_bytes()).unwrap_err();
            assert_eq!(err.to_string(), "line 4: invalid item id \"x5y\"");
        }
        // A line longer than the block that the fast path refuses (tabs),
        // then a canonical one, each cut by every refill.
        let long = format!("7:\t{}\n8: 1 2\n", ids.join("\t"));
        assert_reads_like_the_line_reader(long.as_bytes(), &steps);
        let d = read_transactions(long.as_bytes()).unwrap();
        assert_eq!((d.len(), d.transactions()[0].len()), (2, 40_000));
        // A canonical line cut at every offset, by the block's end and by
        // reads of every size, each cut an `Interrupted` read mid-line.
        let line = "123456: 0 7 89 1011 134217727\n";
        let text = format!("1: 2\n{line}{line}9:\n");
        let every: Vec<usize> = (1..=text.len()).collect();
        assert_reads_like_the_line_reader(text.as_bytes(), &every);
        for offset in 0..=line.len() {
            let text = format!("#{}\n{line}3 4", "-".repeat(IO_BLOCK - 2 - offset));
            assert_reads_like_the_line_reader(text.as_bytes(), &[4096, usize::MAX]);
            let d = read_transactions(text.as_bytes()).unwrap();
            let tids: Vec<u64> = d.transactions().iter().map(Transaction::tid).collect();
            assert_eq!(tids, [123456, 123457], "line cut at {offset}");
        }
        // CRLF line ends and a missing final newline, canonical or not.
        for (text, len) in [
            ("1: 2 3\r\n4: 5\r\n\r\n6", 3),
            ("1: 2 3\n4: 5 6", 2),
            ("1: 2\n 4 3", 2),
        ] {
            assert_reads_like_the_line_reader(text.as_bytes(), &steps);
            assert_eq!(read_transactions(text.as_bytes()).unwrap().len(), len);
        }
    }

    /// Whatever line the fast path takes, it parses as `parse_line` does;
    /// these it must take, and these it must leave to `parse_line`.
    #[test]
    fn the_fast_path_takes_canonical_lines_only() {
        let max = Item::MAX_ID;
        let canonical = [
            "1: 2 3\n".to_string(),
            "7:\n".to_string(),
            "0: 0\n".to_string(),
            "999999999999999999: 1\n".to_string(),
            format!("5: 1 {max}\n"),
            "12: 007 100000000 0134217727\n".to_string(),
            "1: 3 2\n".to_string(),
            "1: 2 2\n".to_string(),
        ];
        let other = [
            "1: 2 3".to_string(),
            "1: 2 3\r\n".to_string(),
            "1: 2  3\n".to_string(),
            "1: 2 3 \n".to_string(),
            "1:\t2\n".to_string(),
            " 1: 2\n".to_string(),
            "1 : 2\n".to_string(),
            "2 3\n".to_string(),
            "\n".to_string(),
            "# 1: 2\n".to_string(),
            "1000000000000000000: 1\n".to_string(),
            format!("5: 1 {}\n", max + 1),
            "5: 1 00134217728\n".to_string(),
            "5: 1 4294967296\n".to_string(),
            "5: +1\n".to_string(),
            "5: 1x\n".to_string(),
        ];
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for line in canonical.iter().chain(&other) {
            let line = line.as_bytes();
            let taken = parse_canonical(line, &mut fast);
            assert_eq!(
                taken.is_some(),
                canonical.iter().any(|c| c.as_bytes() == line)
            );
            if let Some((tid, len)) = taken {
                assert_eq!(len, line.len());
                assert_eq!(parse_line(line, 0, &mut slow), Ok(Some(tid)));
                assert_eq!(fast, slow);
            }
            // A line the block cuts off is never taken.
            assert_eq!(parse_canonical(&line[..line.len() - 1], &mut fast), None);
        }
    }

    /// Every line `armine gen` writes, in the benchmark's shapes, takes the
    /// fast path and parses as `parse_line` parses it.
    #[test]
    fn every_generated_line_takes_the_fast_path() {
        let sparse = armine_datagen::QuestParams::paper_t15_i6()
            .num_transactions(20_000)
            .seed(4242);
        let dense = sparse.num_items(250).num_patterns(120);
        let dense_t10 = dense.avg_transaction_len(10.0).avg_pattern_len(4.0);
        for params in [sparse, dense, dense_t10] {
            let mut text = Vec::new();
            let mut ids = Vec::new();
            write_transaction_stream(&mut text, None, |sink| {
                params.stream(|tid, items| {
                    ids.clear();
                    ids.extend(items.iter().map(|item| Item(item.id())));
                    sink(tid, &ids)
                })
            })
            .unwrap();
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            let mut lines = 0;
            for line in text.split_inclusive(|&b| b == b'\n') {
                let (tid, len) = parse_canonical(line, &mut fast).expect("canonical");
                assert_eq!(len, line.len());
                assert_eq!(parse_line(line, 0, &mut slow), Ok(Some(tid)));
                assert_eq!(fast, slow);
                lines += 1;
            }
            assert_eq!(lines, 20_000, "{params:?}");
        }
    }

    /// Not an i/o error: the offending line is named, and what is printed
    /// of the token is its lossy decoding.
    #[test]
    fn non_utf8_input_is_a_parse_error_with_its_line() {
        let err = read_transactions(&b"1: 1 2\n2: 3 \xe9 4\n"[..]).unwrap_err();
        assert_eq!(err.to_string(), "line 2: invalid item id \"\u{fffd}\"");
        let err = read_transactions(&b"1 2\n\n # caf\xe9 \n3\n"[..]).unwrap_err();
        assert_eq!(err.to_string(), "line 3: invalid item id \"# caf\u{fffd}\"");
        assert_eq!(
            read_transactions("# café\n3\n".as_bytes()).unwrap().len(),
            1
        );
    }

    #[test]
    fn writer_bytes_are_the_fmt_writer_s() {
        let tids = [0, 9, 10, 99, 100, u64::MAX];
        let ids = [0, 9, 10, Item::MAX_ID];
        let mut transactions = vec![Transaction::new(3, vec![])];
        for (i, &tid) in tids.iter().enumerate() {
            for start in 0..ids.len() {
                let items = ids[start..].iter().map(|&id| Item(id)).collect();
                transactions.push(Transaction::new(tid, items));
            }
            // Enough records to fill the block more than once, and one
            // that is larger than it.
            let run = if i == 0 { 40_000 } else { 3000 };
            transactions.push(Transaction::new(tid, (0..run).map(Item).collect()));
        }
        let d = Dataset::new(transactions);
        let mut text = Vec::new();
        write_transactions(&mut text, &d).unwrap();
        assert!(text.len() > 4 * IO_BLOCK);
        assert!(text == write_transactions_with_fmt(&d), "text bytes differ");
        let reread = read_transactions(&text[..]).unwrap();
        assert_eq!(reread.transactions(), d.transactions());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        // Any bytes, and lines built from what the format accepts and what
        // it must refuse (random bytes almost never reach a `tid:` prefix
        // or an over-limit id), are a dataset or an error, never a panic,
        // and the same one the line reader gives, however the input is cut
        // into reads; a dataset reads back from its own text unchanged.
        #[test]
        fn text_reader_takes_any_bytes_and_ok_round_trips(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            tokens in proptest::collection::vec(0usize..TEXT_TOKENS.len(), 0..20),
            ids in proptest::collection::vec(0u32..400, 0..40),
            spliced in 0usize..TEXT_TOKENS.len(),
            at in 0usize..1000,
            step in 1usize..64,
        ) {
            let junk: String = tokens.iter().map(|&t| TEXT_TOKENS[t]).collect();
            // Canonical lines, as the writer writes them (a line ends before
            // each multiple of 5), with one token spliced in somewhere.
            let mut lines: Vec<Transaction> = Vec::new();
            for (tid, &id) in ids.iter().enumerate() {
                match lines.last_mut() {
                    Some(last) if id % 5 != 0 => {
                        let items = last.items().iter().copied().chain([Item(id)]);
                        *last = Transaction::new(last.tid(), items.collect());
                    }
                    _ => lines.push(Transaction::new(tid as u64 * 3, vec![Item(id)])),
                }
            }
            let mut canonical = Vec::new();
            write_transactions(&mut canonical, &Dataset::new(lines)).unwrap();
            let mut spliced_in = canonical.clone();
            let at = at % (canonical.len() + 1);
            spliced_in.splice(at..at, TEXT_TOKENS[spliced].bytes());
            for input in [&bytes[..], junk.as_bytes(), &canonical, &spliced_in] {
                assert_reads_like_the_line_reader(input, &[1, 2, 3, 7, step, 4096]);
                let Ok(d) = read_transactions(input) else { continue };
                // A transaction needs a line, an item a digit and a space.
                accepted(&d, input.len() + 1, 1, 2);
                let mut text = Vec::new();
                write_transactions(&mut text, &d).unwrap();
                proptest::prop_assert_eq!(&text, &write_transactions_with_fmt(&d));
                let reread = read_transactions(&text[..]).unwrap();
                proptest::prop_assert_eq!(reread.transactions(), d.transactions());
                proptest::prop_assert_eq!(reread.num_items(), d.num_items());
            }
        }

        // Any bytes at all, a valid header followed by any bytes, and a
        // valid header followed by small words (so that lengths and ids
        // are often believable) then any bytes: a dataset or an error,
        // never a panic, never more transactions or items than the input
        // holds; a dataset reads back from its own bytes unchanged.
        #[test]
        fn binary_reader_takes_any_bytes_and_ok_round_trips(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            num_items in 0u32..6,
            count in 0usize..BINARY_COUNTS.len(),
            words in proptest::collection::vec(0u32..4, 0..24),
            tail in proptest::collection::vec(0u8..=255, 0..16),
        ) {
            let mut header = Vec::new();
            header.extend_from_slice(BINARY_MAGIC);
            header.extend_from_slice(&BINARY_VERSION.to_le_bytes());
            header.extend_from_slice(&num_items.to_le_bytes());
            header.extend_from_slice(&BINARY_COUNTS[count].to_le_bytes());
            let words = words.iter().flat_map(|w| w.to_le_bytes());
            let believable: Vec<u8> = header.iter().copied().chain(words).chain(tail.clone()).collect();
            let headed: Vec<u8> = header.iter().chain(&bytes).copied().collect();
            for input in [&bytes, &headed, &believable] {
                let Ok(d) = read_transactions_binary(&input[..]) else { continue };
                // tid u64 + len u32 per transaction, u32 per item.
                accepted(&d, input.len(), 12, 4);
                let mut bin = Vec::new();
                write_transactions_binary(&mut bin, &d).unwrap();
                let reread = read_transactions_binary(&bin[..]).unwrap();
                proptest::prop_assert_eq!(reread.transactions(), d.transactions());
                proptest::prop_assert_eq!(reread.num_items(), d.num_items());
            }
        }
    }

    /// Pieces of text-format lines, concatenated without separators:
    /// mostly what the format accepts (so that whole inputs often parse),
    /// plus the id limit, the values just past it and past `u32`/`u64`,
    /// every kind of blank, signs, stray colons and plain junk.
    #[rustfmt::skip]
    const TEXT_TOKENS: [&str; 46] = [
        " ", " ", " ", " ", " ", " ", "\n", "\n", "\n", "\n", "\r\n", "\t", ":", ":", "#",
        "0", "1", "2", "3", "5", "7", "7", "12", "12", "300", "134217727", "18446744073709551615",
        "134217728", "4294967296", "18446744073709551616", "-1", "x",
        "+7", "+", "7:", " : ", "1:2:3", "\u{a0}", "\u{2003}", "\r", "\x0b", "007", "é",
        "99999999999999999999", "100000000000000000000", "0000000000000000000005",
    ];

    /// Transaction counts a header may claim: honest ones, and ones no
    /// input is long enough to back.
    const BINARY_COUNTS: [u64; 6] = [0, 1, 2, 3, 1 << 40, u64::MAX];
}
