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
        let (tid, rest) = match trimmed.split_once(':') {
            Some((tid_str, rest)) => {
                let tid = tid_str
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| ReadError::Parse {
                        line: lineno + 1,
                        token: tid_str.trim().to_owned(),
                    })?;
                (tid, rest)
            }
            None => (next_tid, trimmed),
        };
        let mut items = Vec::new();
        for token in rest.split_whitespace() {
            // Unparseable and over-limit ids fail alike: line and token.
            let id = token.parse::<u32>().ok().filter(|&id| id <= Item::MAX_ID);
            items.push(Item(id.ok_or_else(|| ReadError::Parse {
                line: lineno + 1,
                token: token.to_owned(),
            })?));
        }
        transactions.push(Transaction::new(tid, items));
        next_tid = tid + 1;
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
    let mut magic = [0u8; 4];
    buf.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(ReadError::Parse {
            line: 0,
            token: format!("bad magic {magic:?}"),
        });
    }
    let version = read_u32(&mut buf)?;
    if version != BINARY_VERSION {
        return Err(ReadError::Parse {
            line: 0,
            token: format!("unsupported version {version}"),
        });
    }
    let num_items = read_u32(&mut buf)?;
    if num_items > Item::MAX_ID + 1 {
        return Err(ReadError::Parse {
            line: 0,
            token: format!("universe {num_items} above the item limit {}", Item::MAX_ID),
        });
    }
    // The counts are untrusted: they size the first allocation only up to
    // a cap, and a file shorter than it claims fails its next read.
    let n = read_u64(&mut buf)?;
    let mut transactions = Vec::with_capacity(n.min(1 << 24) as usize);
    for _ in 0..n {
        let tid = read_u64(&mut buf)?;
        let len = read_u32(&mut buf)? as usize;
        let mut items = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let id = read_u32(&mut buf)?;
            if id >= num_items {
                return Err(ReadError::Parse {
                    line: 0,
                    token: format!("item {id} outside universe {num_items}"),
                });
            }
            items.push(Item(id));
        }
        transactions.push(Transaction::new(tid, items));
    }
    Ok(Dataset::with_num_items(transactions, num_items))
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a transaction database, auto-detecting the binary format by its
/// magic bytes and falling back to the text parser.
pub fn read_transactions_auto<P: AsRef<Path>>(path: P) -> Result<Dataset, ReadError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(BINARY_MAGIC) {
        read_transactions_binary(&bytes[..])
    } else {
        read_transactions(&bytes[..])
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
        std::fs::remove_file(text_path).ok();
        std::fs::remove_file(bin_path).ok();
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
}
