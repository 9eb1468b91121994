//! Canonical static Huffman coding.
//!
//! A two-pass coder: count byte frequencies, build a length-limited (15-bit)
//! Huffman code, emit the 256 code lengths as a compact header, then the
//! coded payload. Canonical codes mean the header only needs the *lengths* —
//! the codes themselves are reconstructed deterministically on both sides.

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length. 15 bits is plenty for 256 symbols and keeps the
/// decoder tables small.
pub const MAX_CODE_LEN: u8 = 15;

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffmanError {
    /// Stream ended mid-symbol or mid-header.
    Truncated,
    /// The header's code lengths do not describe a valid prefix code.
    InvalidTable,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Truncated => write!(f, "truncated Huffman stream"),
            HuffmanError::InvalidTable => write!(f, "invalid Huffman code table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Code lengths for the byte frequencies: Huffman's merge of the two
/// lightest nodes, ties broken by node id (leaves are numbered in symbol
/// order, merged nodes after them in creation order), then clamped to
/// [`MAX_CODE_LEN`]. Zero-frequency symbols get length 0 (absent).
///
/// Merged nodes come out in nondecreasing weight and increasing id, so two
/// sorted queues (the leaves, then the merged nodes) always hold the
/// lightest node at one of their heads: the same merges as a priority queue
/// over `(weight, id)`, with no allocation.
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    // Node ids: leaves 0..leaves, merged nodes after them.
    let mut weight = [0u64; 511];
    let mut symbol = [0u8; 256];
    let mut leaves = 0;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            (weight[leaves], symbol[leaves]) = (f, sym as u8);
            leaves += 1;
        }
    }
    match leaves {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs a 1-bit code.
            lengths[symbol[0] as usize] = 1;
            return lengths;
        }
        _ => {}
    }
    let mut order: [u16; 256] = std::array::from_fn(|id| id as u16);
    order[..leaves].sort_unstable_by_key(|&id| (weight[id as usize], id));
    let mut parent = [0u16; 511];
    let (mut next_leaf, mut next_merged, mut nodes) = (0, leaves, leaves);
    for _ in 1..leaves {
        let mut lightest = || {
            // On equal weights the leaf goes first: its id is smaller.
            let leaf_weight = |k: usize| weight[order[k] as usize];
            if next_leaf < leaves
                && (next_merged == nodes || leaf_weight(next_leaf) <= weight[next_merged])
            {
                next_leaf += 1;
                order[next_leaf - 1] as usize
            } else {
                next_merged += 1;
                next_merged - 1
            }
        };
        let (a, b) = (lightest(), lightest());
        weight[nodes] = weight[a] + weight[b];
        (parent[a], parent[b]) = (nodes as u16, nodes as u16);
        nodes += 1;
    }
    // A parent's id exceeds its children's: assign depths from the root down.
    let mut depth = [0u8; 511];
    for id in (0..nodes - 1).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    for leaf in 0..leaves {
        lengths[symbol[leaf] as usize] = depth[leaf];
    }
    if depth[..leaves].iter().any(|&d| d > MAX_CODE_LEN) {
        // Length-limit by clamping and re-normalizing with the Kraft sum.
        limit_lengths(&mut lengths);
    }
    lengths
}

/// Clamp code lengths to [`MAX_CODE_LEN`] and repair the Kraft inequality by
/// deepening the shallowest over-budget codes.
fn limit_lengths(lengths: &mut [u8; 256]) {
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
        }
    }
    // Kraft sum in units of 2^-MAX_CODE_LEN.
    let unit = 1u64 << MAX_CODE_LEN;
    let mut kraft: u64 =
        lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    // While over budget, lengthen the deepest-but-shortenable code.
    while kraft > unit {
        // Find a symbol with the smallest length > 0 that can grow.
        let (idx, _) = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0 && l < MAX_CODE_LEN)
            .min_by_key(|(_, &l)| l)
            .expect("kraft repair impossible");
        kraft -= unit >> lengths[idx];
        lengths[idx] += 1;
        kraft += unit >> lengths[idx];
    }
}

/// Assign canonical codes given lengths. Returns (code, len) per symbol.
fn canonical_codes(lengths: &[u8; 256]) -> Result<[(u32, u8); 256], HuffmanError> {
    let mut codes = [(0u32, 0u8); 256];
    // Count codes per length.
    let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths.iter() {
        if l as usize > MAX_CODE_LEN as usize {
            return Err(HuffmanError::InvalidTable);
        }
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    // Kraft check: the code must be exactly full or under-full (under-full is
    // tolerated for the degenerate 1-symbol case).
    let unit = 1u64 << MAX_CODE_LEN;
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    if kraft > unit {
        return Err(HuffmanError::InvalidTable);
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
    let mut code = 0u32;
    for bits in 1..=MAX_CODE_LEN as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            codes[sym] = (next_code[len as usize], len);
            next_code[len as usize] += 1;
        }
    }
    Ok(codes)
}

/// Bits in the header: 256 code lengths of 4 bits each.
const HEADER_BITS: u64 = 256 * 4;

fn histogram(data: &[u8]) -> [u64; 256] {
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    freqs
}

/// The code [`encode`] fits to one input: its byte histogram and the code
/// lengths built from it. Sizing a candidate and then encoding it share one
/// fit, so the histogram and the tree are built once.
pub(crate) struct Fit {
    freqs: [u64; 256],
    lengths: [u8; 256],
}

impl Fit {
    /// Fit a code to `data`.
    pub(crate) fn new(data: &[u8]) -> Fit {
        let freqs = histogram(data);
        Fit { lengths: code_lengths(&freqs), freqs }
    }

    /// Exact length of [`encode`]'s output for the fitted input, without
    /// encoding it: the header plus `Σ freq·len` payload bits, rounded up to
    /// whole bytes (0 for empty input).
    pub(crate) fn encoded_len(&self) -> usize {
        if self.freqs.iter().all(|&f| f == 0) {
            return 0;
        }
        self.bits().div_ceil(8) as usize
    }

    /// Header plus payload bits of the encoding.
    fn bits(&self) -> u64 {
        HEADER_BITS
            + self.freqs.iter().zip(&self.lengths).map(|(&f, &l)| f * u64::from(l)).sum::<u64>()
    }

    /// [`encode`]`(data)`, where `data` is the input this code was fitted to.
    pub(crate) fn encode(&self, data: &[u8]) -> Vec<u8> {
        if data.is_empty() {
            return Vec::new();
        }
        let codes = canonical_codes(&self.lengths).expect("own table is valid");
        let mut w = BitWriter::with_capacity(self.bits().div_ceil(8) as usize);
        for &l in self.lengths.iter() {
            w.write_bits(l as u32, 4);
        }
        for &b in data {
            let (code, len) = codes[b as usize];
            w.write_bits(code, len);
        }
        w.finish()
    }
}

/// Encode `data`. Output = header (256 x 4-bit code lengths, 128 bytes) +
/// bit payload. Empty input yields an empty vector.
pub fn encode(data: &[u8]) -> Vec<u8> {
    Fit::new(data).encode(data)
}

/// Read the 256 x 4-bit code-length header.
fn read_header(r: &mut BitReader<'_>) -> Result<[u8; 256], HuffmanError> {
    let mut lengths = [0u8; 256];
    for l in lengths.iter_mut() {
        *l = r.read_bits(4).map_err(|_| HuffmanError::Truncated)? as u8;
    }
    Ok(lengths)
}

/// Bits resolved by one lookup in [`Decoder`]'s primary table. Codes up to
/// this long (nearly all of them in practice) take one lookup in an 8 KiB
/// table that stays in L1; longer ones take the canonical slow path.
///
/// A single `1 << MAX_CODE_LEN` table (64 KiB, built per stream) measured
/// slower on a 2-vCPU Xeon VM: Auto decompress of the 48 KiB base64 PI took
/// 330 µs against 234 µs here, of the word-text PI 210 µs against 180 µs
/// (criterion medians of alternating runs), and `pi48k_dense` ran 235
/// against 244 devices/s (medians of six alternating 30 s pairs).
const FAST_BITS: u8 = 12;

/// Table-driven canonical decoder.
struct Decoder {
    /// Indexed by the next [`FAST_BITS`] bits: `len << 8 | symbol` for the
    /// code of at most `FAST_BITS` bits that prefixes them, 0 if none does.
    /// Canonical codes of a Kraft-valid table are prefix-free, and each code
    /// fills a contiguous run of entries.
    fast: [u16; 1 << FAST_BITS],
    /// Codes of length `l` are `first[l]..first[l] + count[l]`, standing for
    /// the symbols `sorted[index[l]..]` in order.
    first: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    index: [usize; MAX_CODE_LEN as usize + 1],
    sorted: [u8; 256],
}

impl Decoder {
    fn new(codes: &[(u32, u8); 256]) -> Decoder {
        let mut d = Decoder {
            fast: [0; 1 << FAST_BITS],
            first: [u32::MAX; MAX_CODE_LEN as usize + 1],
            count: [0; MAX_CODE_LEN as usize + 1],
            index: [0; MAX_CODE_LEN as usize + 1],
            sorted: [0; 256],
        };
        for &(code, len) in codes {
            let l = len as usize;
            if len > 0 {
                d.count[l] += 1;
                d.first[l] = d.first[l].min(code);
            }
        }
        for l in 1..=MAX_CODE_LEN as usize {
            d.index[l] = d.index[l - 1] + d.count[l - 1] as usize;
        }
        let mut next = d.index;
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len == 0 {
                continue;
            }
            d.sorted[next[len as usize]] = sym as u8;
            next[len as usize] += 1;
            if len <= FAST_BITS {
                let shift = FAST_BITS - len;
                let start = (code as usize) << shift;
                d.fast[start..start + (1 << shift)].fill(u16::from(len) << 8 | sym as u16);
            }
        }
        d
    }

    /// `(length, symbol)` of the code that prefixes `bits`, the next
    /// [`MAX_CODE_LEN`] bits of the stream; `None` if no code does.
    #[inline]
    fn lookup(&self, bits: u32) -> Option<(u8, u8)> {
        let entry = self.fast[(bits >> (MAX_CODE_LEN - FAST_BITS)) as usize];
        if entry != 0 {
            return Some(((entry >> 8) as u8, entry as u8));
        }
        (FAST_BITS + 1..=MAX_CODE_LEN).find_map(|len| {
            let l = len as usize;
            let k = (bits >> (MAX_CODE_LEN - len)).wrapping_sub(self.first[l]);
            (k < self.count[l]).then(|| (len, self.sorted[self.index[l] + k as usize]))
        })
    }
}

/// Decode exactly `original_len` bytes from a stream produced by [`encode`].
///
/// Errors follow the bit-at-a-time reading of the stream: running out of
/// bits before a code completes is [`HuffmanError::Truncated`]; 16 bits
/// that start no code are [`HuffmanError::InvalidTable`].
pub fn decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, HuffmanError> {
    if original_len == 0 {
        return Ok(Vec::new());
    }
    let mut r = BitReader::new(data);
    let lengths = read_header(&mut r)?;
    let codes = canonical_codes(&lengths)?;
    if lengths.iter().all(|&l| l == 0) {
        return Err(HuffmanError::InvalidTable);
    }
    let decoder = Decoder::new(&codes);
    // Every code is at least one bit long, so the payload bounds the output
    // whatever length the container claims.
    let mut out = Vec::with_capacity(original_len.min(r.remaining_bits()));
    while out.len() < original_len {
        // `peek` reads zeros past the end, so a hit whose code runs past the
        // end fails in `consume`; a miss is decided by how many bits remain.
        let Some((len, sym)) = decoder.lookup(r.peek(MAX_CODE_LEN)) else {
            return Err(if r.remaining_bits() > MAX_CODE_LEN as usize {
                HuffmanError::InvalidTable
            } else {
                HuffmanError::Truncated
            });
        };
        r.consume(len).map_err(|_| HuffmanError::Truncated)?;
        out.push(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// The bit-at-a-time decoder the table decoder replaced: read one bit,
    /// look `(length, code)` up, repeat. Kept as the oracle for [`decode`].
    fn decode_per_bit(data: &[u8], original_len: usize) -> Result<Vec<u8>, HuffmanError> {
        if original_len == 0 {
            return Ok(Vec::new());
        }
        let mut r = BitReader::new(data);
        let lengths = read_header(&mut r)?;
        let codes = canonical_codes(&lengths)?;
        let mut table = std::collections::HashMap::new();
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len > 0 {
                table.insert((len, code), sym as u8);
            }
        }
        if table.is_empty() {
            return Err(HuffmanError::InvalidTable);
        }
        let mut out = Vec::new();
        while out.len() < original_len {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                code = (code << 1) | r.read_bit().map_err(|_| HuffmanError::Truncated)? as u32;
                len += 1;
                if len > MAX_CODE_LEN {
                    return Err(HuffmanError::InvalidTable);
                }
                if let Some(&sym) = table.get(&(len, code)) {
                    out.push(sym);
                    break;
                }
            }
        }
        Ok(out)
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec, data);
        enc
    }

    #[test]
    fn empty() {
        assert!(encode(b"").is_empty());
        assert_eq!(decode(b"", 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol() {
        let data = vec![b'x'; 500];
        let enc = roundtrip(&data);
        // Header is 128 bytes; payload ~500 bits = 63 bytes.
        assert!(enc.len() < 200);
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> =
            std::iter::repeat_n([b'a', b'b'], 100).flatten().collect();
        roundtrip(&data);
    }

    #[test]
    fn english_text_compresses() {
        let data = b"it is a truth universally acknowledged, that a single man in \
                     possession of a good fortune, must be in want of a wife."
            .repeat(20);
        let enc = roundtrip(&data);
        assert!(enc.len() < data.len() * 6 / 10, "{} -> {}", data.len(), enc.len());
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution() {
        let mut data = vec![0u8; 10_000];
        for (i, b) in data.iter_mut().enumerate() {
            if i % 100 == 0 {
                *b = (i / 100) as u8;
            }
        }
        let enc = roundtrip(&data);
        assert!(enc.len() < data.len() / 4);
    }

    #[test]
    fn truncated_header_errors() {
        assert_eq!(decode(&[0u8; 10], 5).unwrap_err(), HuffmanError::Truncated);
    }

    #[test]
    fn truncated_payload_errors() {
        let data = b"hello hello hello hello";
        let enc = encode(data);
        let cut = &enc[..129]; // header survives, payload cut
        assert!(decode(cut, data.len()).is_err());
    }

    #[test]
    fn all_zero_table_is_invalid() {
        // 128 zero bytes: a complete header with no symbols.
        let enc = vec![0u8; 128];
        assert_eq!(decode(&enc, 1).unwrap_err(), HuffmanError::InvalidTable);
    }

    #[test]
    fn oversubscribed_table_is_invalid() {
        // All 256 symbols with length 1 grossly violates Kraft.
        let mut w = BitWriter::new();
        for _ in 0..256 {
            w.write_bits(1, 4);
        }
        let enc = w.finish();
        assert_eq!(decode(&enc, 1).unwrap_err(), HuffmanError::InvalidTable);
    }

    #[test]
    fn deep_tree_is_length_limited() {
        // Fibonacci-ish frequencies force deep trees; lengths must stay <= 15.
        let mut freqs = [0u64; 256];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut().take(40) {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // And they must form a decodable code.
        canonical_codes(&lengths).unwrap();
    }

    /// The priority-queue build [`code_lengths`] replaced, kept as its
    /// oracle: the same merges, popped from a binary heap over
    /// `(weight, id)`.
    fn code_lengths_heap(freqs: &[u64; 256]) -> [u8; 256] {
        // Build the Huffman tree with a simple two-queue/heap method.
        #[derive(Debug)]
        struct NodeArena {
            // (weight, left, right); leaves have left == right == usize::MAX and
            // carry their symbol in `symbol`.
            weight: Vec<u64>,
            left: Vec<usize>,
            right: Vec<usize>,
            symbol: Vec<usize>,
        }
        let mut arena =
            NodeArena { weight: vec![], left: vec![], right: vec![], symbol: vec![] };
        let mut heap = std::collections::BinaryHeap::new();
        for (sym, &f) in freqs.iter().enumerate() {
            if f > 0 {
                let id = arena.weight.len();
                arena.weight.push(f);
                arena.left.push(usize::MAX);
                arena.right.push(usize::MAX);
                arena.symbol.push(sym);
                heap.push(std::cmp::Reverse((f, id)));
            }
        }
        let mut lengths = [0u8; 256];
        match heap.len() {
            0 => return lengths,
            1 => {
                // A single distinct symbol still needs a 1-bit code.
                let std::cmp::Reverse((_, id)) = heap.pop().unwrap();
                lengths[arena.symbol[id]] = 1;
                return lengths;
            }
            _ => {}
        }
        while heap.len() > 1 {
            let std::cmp::Reverse((w1, n1)) = heap.pop().unwrap();
            let std::cmp::Reverse((w2, n2)) = heap.pop().unwrap();
            let id = arena.weight.len();
            arena.weight.push(w1 + w2);
            arena.left.push(n1);
            arena.right.push(n2);
            arena.symbol.push(usize::MAX);
            heap.push(std::cmp::Reverse((w1 + w2, id)));
        }
        let root = heap.pop().unwrap().0 .1;
        // Walk the tree assigning depths.
        let mut stack = vec![(root, 0u8)];
        let mut max_depth = 0u8;
        while let Some((node, depth)) = stack.pop() {
            if arena.left[node] == usize::MAX {
                lengths[arena.symbol[node]] = depth.max(1);
                max_depth = max_depth.max(depth);
            } else {
                stack.push((arena.left[node], depth + 1));
                stack.push((arena.right[node], depth + 1));
            }
        }
        if max_depth > MAX_CODE_LEN {
            // Length-limit by clamping and re-normalizing with the Kraft sum.
            limit_lengths(&mut lengths);
        }
        lengths
    }

    /// Histograms with many tied weights, wide weight ranges and
    /// exponentially skewed ones (which the length limiter has to repair).
    fn histograms() -> impl Strategy<Value = [u64; 256]> {
        pvec((0u8..3, any::<u64>()), 256..257).prop_map(|v| {
            std::array::from_fn(|sym| {
                let (shape, x) = v[sym];
                match shape {
                    0 => x % 4,
                    1 => x % 1_000_000,
                    _ => (x % 2) << (x >> 59),
                }
            })
        })
    }

    /// Bytes with a geometric symbol distribution (deep trees) mixed with
    /// uniform bytes (wide trees).
    fn skewed_bytes() -> impl Strategy<Value = Vec<u8>> {
        pvec((any::<u16>(), 0u8..4), 1..1200).prop_map(|v| {
            v.into_iter()
                .map(|(x, mode)| if mode == 0 { x as u8 } else { x.trailing_zeros() as u8 })
                .collect()
        })
    }

    fn header(lengths: &[u8]) -> BitWriter {
        let mut w = BitWriter::new();
        for &l in lengths {
            w.write_bits(u32::from(l), 4);
        }
        w
    }

    /// A complete code grown by splitting leaves, mostly the newest (and
    /// deepest) one, so codes up to [`MAX_CODE_LEN`] bits are common.
    /// Returns the lengths and the symbols in leaf order.
    fn grown_table(splits: &[u8]) -> ([u8; 256], Vec<u8>) {
        let mut leaves = vec![1u8, 1];
        for &s in splits {
            let i = if s < 160 { leaves.len() - 1 } else { s as usize % leaves.len() };
            if leaves[i] < MAX_CODE_LEN && leaves.len() < 256 {
                leaves[i] += 1;
                leaves.push(leaves[i]);
            }
        }
        let mut lengths = [0u8; 256];
        // 167 is odd, so `k * 167 mod 256` spreads the leaves over all bytes.
        let symbols: Vec<u8> = (0..leaves.len()).map(|k| (k * 167 % 256) as u8).collect();
        for (&sym, &len) in symbols.iter().zip(&leaves) {
            lengths[sym as usize] = len;
        }
        (lengths, symbols)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_decode_matches_oracle_on_deep_tables(
            splits in pvec(any::<u8>(), 1..80),
            message in pvec(any::<u8>(), 1..120),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let (lengths, symbols) = grown_table(&splits);
            let codes = canonical_codes(&lengths).expect("a grown code is complete");
            let mut w = header(&lengths);
            // Favour the deepest leaves: they sit at the end of `symbols`.
            let sent: Vec<u8> = message
                .iter()
                .map(|&m| symbols[symbols.len() - 1 - m as usize % symbols.len().min(24)])
                .collect();
            for &sym in &sent {
                let (code, len) = codes[sym as usize];
                w.write_bits(code, len);
            }
            let stream = w.finish();
            let n = sent.len();
            prop_assert_eq!(decode(&stream, n), Ok(sent.clone()));
            prop_assert_eq!(decode(&stream, n + 3), decode_per_bit(&stream, n + 3));
            let truncated = &stream[..128 + cut % (stream.len() - 127)];
            prop_assert_eq!(decode(truncated, n), decode_per_bit(truncated, n));
            let mut flipped = stream.clone();
            flipped[128 + (flip / 8) % (stream.len() - 128)] ^= 1 << (flip % 8);
            prop_assert_eq!(decode(&flipped, n), decode_per_bit(&flipped, n));
        }

        #[test]
        fn table_decode_matches_oracle_on_valid_streams(
            data in skewed_bytes(),
            extra in 0usize..40,
        ) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc, data.len()), Ok(data.clone()));
            // Asking for more symbols than were encoded decodes the pad bits
            // and then runs out, identically in both decoders.
            let n = data.len() + extra;
            prop_assert_eq!(decode(&enc, n), decode_per_bit(&enc, n));
        }

        #[test]
        fn table_decode_matches_oracle_on_damaged_streams(
            data in skewed_bytes(),
            other in skewed_bytes(),
            cut in any::<usize>(),
            flip in any::<usize>(),
            splice in any::<usize>(),
        ) {
            let enc = encode(&data);
            let n = data.len();
            let truncated = &enc[..cut % enc.len()];
            prop_assert_eq!(decode(truncated, n), decode_per_bit(truncated, n));

            let mut flipped = enc.clone();
            flipped[(flip / 8) % enc.len()] ^= 1 << (flip % 8);
            prop_assert_eq!(decode(&flipped, n), decode_per_bit(&flipped, n));

            let other_enc = encode(&other);
            let mut spliced = enc[..splice % enc.len()].to_vec();
            spliced.extend_from_slice(&other_enc[(splice / 7) % other_enc.len()..]);
            prop_assert_eq!(decode(&spliced, n), decode_per_bit(&spliced, n));
        }

        #[test]
        fn table_decode_matches_oracle_on_random_tables(
            lengths in pvec((1u8..16, 0u8..64), 256..257),
            density in 1u8..64,
            payload in pvec(any::<u8>(), 0..48),
            n in 1usize..200,
        ) {
            // Sparse headers give under-full tables, dense ones over-full.
            let lengths: Vec<u8> = lengths
                .into_iter()
                .map(|(l, gate)| if gate < density { l } else { 0 })
                .collect();
            let mut w = header(&lengths);
            for &b in &payload {
                w.write_bits(u32::from(b), 8);
            }
            let stream = w.finish();
            prop_assert_eq!(decode(&stream, n), decode_per_bit(&stream, n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn code_lengths_match_the_heap_build(freqs in histograms()) {
            prop_assert_eq!(code_lengths(&freqs), code_lengths_heap(&freqs));
        }
    }

    #[test]
    fn under_full_table_misses_follow_the_bit_rule() {
        // One 1-bit code `0`: a `1` bit starts no code. With 16 or more bits
        // left that is an invalid table; with 15 or fewer, a truncated stream.
        let mut lengths = [0u8; 256];
        lengths[b'x' as usize] = 1;
        let stream = |zeros: u8| {
            let mut w = header(&lengths);
            w.write_bits(0, zeros);
            w.write_bits(1, 1);
            w.write_bits(0, 15 - zeros % 8);
            w.finish()
        };
        assert_eq!(stream(0).len(), 130);
        assert_eq!(decode(&stream(0), 1), Err(HuffmanError::InvalidTable));
        assert_eq!(decode(&stream(1), 1), Ok(b"x".to_vec()));
        assert_eq!(decode(&stream(1), 2), Err(HuffmanError::Truncated));
        // Every count of bits left at the miss, and every cut of the stream.
        for zeros in 0..24 {
            let s = stream(zeros);
            for cut in 128..=s.len() {
                for n in 1..zeros as usize + 3 {
                    assert_eq!(decode(&s[..cut], n), decode_per_bit(&s[..cut], n), "{zeros} {cut}");
                }
            }
        }
    }

    #[test]
    fn hostile_length_does_not_preallocate() {
        let enc = encode(b"abcabc");
        assert_eq!(decode(&enc, 1 << 40).unwrap_err(), HuffmanError::Truncated);
    }

    #[test]
    fn encoded_len_is_exact() {
        for data in [&b""[..], b"a", b"ab", b"hello hello hello", &[7u8; 5000]] {
            assert_eq!(Fit::new(data).encoded_len(), encode(data).len());
        }
        let text = b"it is a truth universally acknowledged".repeat(40);
        assert_eq!(Fit::new(&text).encoded_len(), encode(&text).len());
    }
}
