//! Byte-oriented run-length encoding.
//!
//! The simplest of the "simple text compression algorithms" the paper refers
//! to. Format: a stream of `(control, ...)` packets. A control byte `0..=127`
//! means "copy the next `control+1` literal bytes"; a control byte
//! `128..=255` means "repeat the next byte `control-126` times" (i.e. runs of
//! 2..=129).

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleError {
    /// Byte offset of the truncation.
    pub offset: usize,
}

impl std::fmt::Display for RleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated RLE stream at byte {}", self.offset)
    }
}

impl std::error::Error for RleError {}

/// One step of the encoder's walk over its input.
enum Packet {
    /// `data[start..end]` goes out as literal blocks of up to 128 bytes.
    Literals(usize, usize),
    /// A run of 3..=129 copies of a byte.
    Run(u8, usize),
}

/// Walk `data` the way [`encode`] packs it. Every run packet starts where
/// the walk meets three equal bytes, which [`encoded_len`] relies on.
fn packets(data: &[u8], mut emit: impl FnMut(Packet)) {
    let mut i = 0;
    let mut literal_start = 0;
    while i < data.len() {
        let run_byte = data[i];
        let mut run_len = 1;
        while i + run_len < data.len() && data[i + run_len] == run_byte && run_len < 129 {
            run_len += 1;
        }
        if run_len >= 3 {
            emit(Packet::Literals(literal_start, i));
            emit(Packet::Run(run_byte, run_len));
            literal_start = i + run_len;
        }
        i += run_len;
    }
    emit(Packet::Literals(literal_start, data.len()));
}

/// Run-length encode `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    packets(data, |packet| match packet {
        Packet::Literals(start, end) => {
            for block in data[start..end].chunks(128) {
                out.push((block.len() - 1) as u8);
                out.extend_from_slice(block);
            }
        }
        Packet::Run(byte, len) => out.extend_from_slice(&[(len + 126) as u8, byte]),
    });
    out
}

/// Exact length of [`encode`]`(data)`, from one scan and no allocation.
///
/// The walk in [`packets`] only ever stands at the first byte of a group of
/// equal bytes (or just past a 129-byte run), so the next run packet starts
/// at the first position from there that opens three equal bytes. Those
/// are found eight positions at a time; everything before one is literal.
pub(crate) fn encoded_len(data: &[u8]) -> usize {
    let literals = |n: usize| n + n.div_ceil(128);
    let (mut len, mut literal_start, mut i) = (0, 0, 0);
    while let Some(run_start) = next_triple(data, i) {
        let byte = data[run_start];
        let run_len = data[run_start..].iter().take(129).take_while(|&&b| b == byte).count();
        len += literals(run_start - literal_start) + 2;
        i = run_start + run_len;
        literal_start = i;
    }
    len + literals(data.len() - literal_start)
}

/// The first `j >= from` with `data[j] == data[j + 1] == data[j + 2]`.
fn next_triple(data: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let word = |p: usize| u64::from_le_bytes(*data[p..].first_chunk().expect("in bounds"));
    let mut j = from;
    // Eight candidates per step: byte k of `diff` is zero iff `j + k` opens
    // a triple, and the lowest flagged byte of the zero-byte test is exact.
    while j + 10 <= data.len() {
        let (a, b, c) = (word(j), word(j + 1), word(j + 2));
        let diff = (a ^ b) | (b ^ c);
        let zero = diff.wrapping_sub(ONES) & !diff & (ONES << 7);
        if zero != 0 {
            return Some(j + (zero.trailing_zeros() / 8) as usize);
        }
        j += 8;
    }
    (j..data.len().saturating_sub(2)).find(|&k| data[k] == data[k + 1] && data[k] == data[k + 2])
}

/// Decode an RLE stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, RleError> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let control = data[i];
        i += 1;
        if control < 128 {
            let n = control as usize + 1;
            let end = i + n;
            if end > data.len() {
                return Err(RleError { offset: i });
            }
            out.extend_from_slice(&data[i..end]);
            i = end;
        } else {
            let n = control as usize - 126;
            let byte = *data.get(i).ok_or(RleError { offset: i })?;
            i += 1;
            out.resize(out.len() + n, byte);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), Vec::<u8>::new());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn literals_only() {
        let data = b"abcdef";
        let enc = encode(data);
        assert_eq!(enc[0], 5); // 6 literals
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn long_run_compresses() {
        let data = vec![0x41u8; 100];
        let enc = encode(&data);
        assert_eq!(enc.len(), 2);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn run_longer_than_max_splits() {
        let data = vec![7u8; 500];
        let enc = encode(&data);
        assert!(enc.len() <= 10);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn mixed_content() {
        let mut data = Vec::new();
        data.extend_from_slice(b"header");
        data.extend(std::iter::repeat_n(b' ', 40));
        data.extend_from_slice(b"trailer");
        let enc = encode(&data);
        assert!(enc.len() < data.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn short_runs_stay_literal() {
        // Runs of 2 are cheaper as literals.
        let data = b"aabbcc";
        let enc = encode(data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn literal_block_longer_than_128_splits() {
        let data: Vec<u8> = (0..=255u8).chain(0..=255u8).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_literal_errors() {
        // Control says 4 literals but only 2 present.
        assert!(decode(&[3, b'a', b'b']).is_err());
    }

    #[test]
    fn encoded_len_is_exact_on_run_boundaries() {
        // Runs of every length around the packet limits, at every alignment
        // of the eight-byte scan, between literals that also touch them.
        for run in [1usize, 2, 3, 4, 128, 129, 130, 131, 132, 258, 259, 260] {
            for offset in 0..10 {
                let mut data: Vec<u8> = (0..offset as u8).collect();
                data.extend(std::iter::repeat_n(b'r', run));
                data.extend_from_slice(b"rxyyz");
                assert_eq!(encoded_len(&data), encode(&data).len(), "run {run} offset {offset}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn encoded_len_matches_encode(
            chunks in proptest::collection::vec((0u8..4, 1usize..140), 0..40),
        ) {
            let data: Vec<u8> =
                chunks.iter().flat_map(|&(byte, len)| std::iter::repeat_n(byte, len)).collect();
            proptest::prop_assert_eq!(encoded_len(&data), encode(&data).len());
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        let mut mixed = b"header".to_vec();
        mixed.extend(std::iter::repeat_n(b' ', 300));
        mixed.extend((0..=255u8).cycle().take(700));
        mixed.extend_from_slice(b"aabbbcc");
        for data in [&b""[..], b"a", b"aa", b"aaa", b"abcdef", &[7u8; 500], &mixed] {
            assert_eq!(encoded_len(data), encode(data).len(), "{data:?}");
        }
    }

    #[test]
    fn truncated_run_errors() {
        assert!(decode(&[200]).is_err());
    }
}
