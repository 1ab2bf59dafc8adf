//! Plain-text transaction database I/O.
//!
//! The format is one transaction per line: whitespace-separated item ids,
//! optionally prefixed by `tid:`. Lines that are empty or start with `#`
//! are skipped. This matches the de-facto format of public association-rule
//! datasets (e.g. the FIMI repository), so real datasets drop in directly.
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
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// Reads a transaction database from any reader.
///
/// Transactions without an explicit `tid:` prefix get sequential ids
/// starting from 1.
pub fn read_transactions<R: Read>(reader: R) -> Result<Dataset, ReadError> {
    let buf = BufReader::new(reader);
    let mut transactions = Vec::new();
    let mut next_tid: u64 = 1;
    for (lineno, line) in buf.lines().enumerate() {
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
            // Unparseable and over-limit ids fail alike: line and token.
            let id = token.parse::<u32>().ok().filter(|&id| id <= Item::MAX_ID);
            items.push(Item(id.ok_or_else(|| bad(token))?));
        }
        transactions.push(Transaction::new(tid, items));
        // An explicit tid of `u64::MAX` is legal: the sequence wraps to 0.
        next_tid = tid.wrapping_add(1);
    }
    Ok(Dataset::new(transactions))
}

/// Reads a transaction database from a file path.
pub fn read_transactions_file<P: AsRef<Path>>(path: P) -> Result<Dataset, ReadError> {
    read_transactions(std::fs::File::open(path)?)
}

/// Writes a dataset in the text format (with explicit tids).
pub fn write_transactions<W: Write>(writer: W, dataset: &Dataset) -> std::io::Result<()> {
    let mut buf = BufWriter::new(writer);
    for t in dataset.transactions() {
        write!(buf, "{}:", t.tid())?;
        for item in t.items() {
            write!(buf, " {item}")?;
        }
        writeln!(buf)?;
    }
    buf.flush()
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
// Roughly 3–4× smaller than the text form and parses an order of magnitude
// faster — worth it for multi-million-transaction experiment inputs.

const BINARY_MAGIC: &[u8; 4] = b"ARMN";
const BINARY_VERSION: u32 = 1;

/// Writes a dataset in the compact binary format.
pub fn write_transactions_binary<W: Write>(writer: W, dataset: &Dataset) -> std::io::Result<()> {
    let mut buf = BufWriter::new(writer);
    buf.write_all(BINARY_MAGIC)?;
    buf.write_all(&BINARY_VERSION.to_le_bytes())?;
    buf.write_all(&dataset.num_items().to_le_bytes())?;
    buf.write_all(&(dataset.len() as u64).to_le_bytes())?;
    for t in dataset.transactions() {
        buf.write_all(&t.tid().to_le_bytes())?;
        buf.write_all(&(t.len() as u32).to_le_bytes())?;
        for item in t.items() {
            buf.write_all(&item.id().to_le_bytes())?;
        }
    }
    buf.flush()
}

/// Reads a dataset written by [`write_transactions_binary`].
pub fn read_transactions_binary<R: Read>(reader: R) -> Result<Dataset, ReadError> {
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
        let r = read_transactions_file(&path).unwrap();
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        // Any bytes, and lines built from what the format accepts and what
        // it must refuse (random bytes almost never reach a `tid:` prefix
        // or an over-limit id), are a dataset or an error, never a panic;
        // a dataset reads back from its own text unchanged.
        #[test]
        fn text_reader_takes_any_bytes_and_ok_round_trips(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            tokens in proptest::collection::vec(0usize..TEXT_TOKENS.len(), 0..20),
        ) {
            let junk: String = tokens.iter().map(|&t| TEXT_TOKENS[t]).collect();
            for input in [&bytes[..], junk.as_bytes()] {
                let Ok(d) = read_transactions(input) else { continue };
                // A transaction needs a line, an item a digit and a space.
                accepted(&d, input.len() + 1, 1, 2);
                let mut text = Vec::new();
                write_transactions(&mut text, &d).unwrap();
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
    /// and plain junk.
    #[rustfmt::skip]
    const TEXT_TOKENS: [&str; 32] = [
        " ", " ", " ", " ", " ", " ", "\n", "\n", "\n", "\n", "\r\n", "\t", ":", ":", "#",
        "0", "1", "2", "3", "5", "7", "7", "12", "12", "300", "134217727", "18446744073709551615",
        "134217728", "4294967296", "18446744073709551616", "-1", "x",
    ];

    /// Transaction counts a header may claim: honest ones, and ones no
    /// input is long enough to back.
    const BINARY_COUNTS: [u64; 6] = [0, 1, 2, 3, 1 << 40, u64::MAX];
}
