//! LZSS dictionary compression with a 4 KiB sliding window.
//!
//! This is the workhorse compressor for mobile-agent code: XML-ish and
//! bytecode payloads in the paper's 1–8 KB range are highly repetitive, and a
//! small-window LZSS captures most of that redundancy while the decoder stays
//! tiny — in the spirit of the paper's "simple text compression algorithms
//! \[requiring\] only \[a\] small amount of CPU time" on the handheld.
//!
//! Bit-stream format (MSB-first, see [`crate::bitio`]):
//! * flag bit `1` → literal: 8 bits of raw byte;
//! * flag bit `0` → match: 12-bit distance (1-based, 1..=4096) followed by a
//!   4-bit length field encoding lengths `MIN_MATCH..=MIN_MATCH+15`.
//!
//! The uncompressed length is carried by the [`crate::compress`] container,
//! so the decoder knows exactly when to stop and trailing pad bits are
//! harmless.
//!
//! # Which match the encoder emits
//!
//! Every PI's size, and so every simulated transfer time, depends on the
//! encoder's exact output, which is defined by a bounded hash-chain walk.
//! Trigrams (three-byte prefixes) hash into 8192 buckets. At position `i` the
//! walk visits the positions before `i` in `i`'s bucket, most recent first,
//! stopping after 64 of them (the chain budget, which counts bucket
//! collisions too) or at the first one more than [`WINDOW`] back. The
//! encoder emits the most recent visited position with the longest match,
//! capped at [`MAX_MATCH`], if that reaches [`MIN_MATCH`], and a literal
//! otherwise. Every position a token covers joins its bucket.
//!
//! A match of [`MIN_MATCH`] bytes needs an equal trigram, so only the
//! visited positions that share `i`'s trigram can win. [`encode`] chains
//! positions by exact trigram instead and visits only those, replaying the
//! budget by rank: each bucket counts the positions inserted into it, and
//! each position is stamped with its bucket's count on insertion. A
//! same-trigram candidate `c` was among the 64 most recent bucket entries iff
//! `count_now - stamp[c] <= 64`. That rank and the distance both grow along
//! an exact chain, so the walk stops at the first candidate outside the
//! window or the budget, having visited exactly the same-trigram positions
//! the bucket walk visits. The counts are `u16` and subtract wrapping: an
//! in-window rank is below 4096, so the difference is exact.

use crate::bitio::{BitReader, BitWriter};

/// Window size (must match the 12-bit distance field).
pub const WINDOW: usize = 4096;
/// Shortest match worth encoding (a match costs 17 bits ≈ 2.1 bytes).
pub const MIN_MATCH: usize = 3;
/// Longest encodable match.
pub const MAX_MATCH: usize = MIN_MATCH + 15;

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzssError {
    /// Bit stream ended before producing the promised output length.
    Truncated,
    /// A match referred back past the start of the output.
    BadDistance {
        /// Output length at the time of the bad reference.
        at: usize,
        /// The offending distance.
        distance: usize,
    },
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "truncated LZSS stream"),
            LzssError::BadDistance { at, distance } => {
                write!(f, "LZSS match distance {distance} exceeds output length {at}")
            }
        }
    }
}

impl std::error::Error for LzssError {}

/// Bits in one match token: flag, 12-bit distance, 4-bit length.
const MATCH_BITS: usize = 17;

/// Bits of the bucket hash whose walk defines the output (module docs).
const BUCKET_BITS: u32 = 13;
/// Bucket entries that walk visits per position.
const CHAIN_BUDGET: u16 = 64;
/// Cap on the exact chains' head table, which is sized from the input:
/// 32 Ki slots keep a 4 KiB window's chains all but free of other trigrams.
const MAX_HEAD_BITS: u32 = 15;

/// The bucket of trigram `t` (its bytes in little-endian order).
#[inline]
fn bucket(t: u32) -> usize {
    ((t & 0xff) << 10 ^ (t >> 8 & 0xff) << 5 ^ t >> 16) as usize & ((1 << BUCKET_BITS) - 1)
}

/// Zero bytes the encoder appends to its copy of the input, so that the
/// [`MAX_MATCH`] bytes compared from any position with a whole trigram are
/// in bounds.
const PAD: usize = 16;

/// Sixteen bytes of `buf` from `p`, little-endian.
#[inline]
fn load128(buf: &[u8], p: usize) -> u128 {
    u128::from_le_bytes(*buf[p..].first_chunk().expect("padded input"))
}

/// How many of the two bytes at `cand + 16` and `i + 16` agree in order.
#[inline]
fn match_tail(buf: &[u8], cand: usize, i: usize) -> usize {
    match (buf[cand + 16] == buf[i + 16], buf[cand + 17] == buf[i + 17]) {
        (false, _) => 0,
        (true, false) => 1,
        (true, true) => 2,
    }
}

/// The encoder's match-finder state: exact-trigram chains plus the bucket
/// counts and stamps that replay the chain budget.
struct Chains {
    /// Most recent position per trigram hash slot.
    head: Vec<u32>,
    /// `head.len() - 1`.
    head_mask: usize,
    /// Per position, modulo the window: how far back the previous position
    /// in its hash slot lies, capped just past the window (low half), and its
    /// bucket's count when it was inserted (high half).
    ring: Box<[u32; WINDOW]>,
    /// Positions inserted per bucket so far, wrapping.
    count: Box<[u16; 1 << BUCKET_BITS]>,
}

impl Chains {
    /// Tables for an input of `n` bytes.
    fn new(n: usize) -> Chains {
        let head_bits = n.next_power_of_two().trailing_zeros().clamp(8, MAX_HEAD_BITS);
        Chains {
            // An empty slot sits just past the window from every position.
            head: vec![0u32.wrapping_sub(WINDOW as u32 + 1); 1 << head_bits],
            head_mask: (1 << head_bits) - 1,
            ring: vec![0; WINDOW].try_into().expect("window-sized"),
            count: vec![0; 1 << BUCKET_BITS].try_into().expect("bucket-sized"),
        }
    }

    /// The head slot of trigram `t`.
    #[inline]
    fn hash(&self, t: u32) -> usize {
        (t.wrapping_mul(0x9E37_79B1) >> (32 - MAX_HEAD_BITS)) as usize & self.head_mask
    }

    /// The longest match at `i` among the positions chained from the one
    /// `dist` back, within the window and the chain budget of `i`'s bucket
    /// `b`, and its distance (the most recent of equals); `(0, 0)` if none
    /// shares the trigram. `n` is the input length.
    fn longest_match(
        &self,
        buf: &[u8],
        n: usize,
        i: usize,
        mut dist: usize,
        b: usize,
    ) -> (usize, usize) {
        let now = self.count[b];
        // The 16 bytes from `i`: one XOR with a candidate's gives both the
        // trigram check and the match length.
        let word = load128(buf, i);
        let limit = (n - i).min(MAX_MATCH);
        let (mut best_len, mut best_dist) = (0, 0);
        loop {
            let cand = i - dist;
            let entry = self.ring[cand % WINDOW];
            let x = load128(buf, cand) ^ word;
            // Trailing equal bits: under 24 means another trigram.
            let same = x.trailing_zeros() as usize;
            if same >= 24 {
                if now.wrapping_sub((entry >> 16) as u16) > CHAIN_BUDGET {
                    break;
                }
                let len = if same < 128 { same / 8 } else { 16 + match_tail(buf, cand, i) }
                    .min(limit);
                if len > best_len {
                    (best_len, best_dist) = (len, dist);
                    if len == limit {
                        break;
                    }
                }
            }
            dist += (entry & 0xffff) as usize;
            if dist > WINDOW {
                break;
            }
        }
        (best_len, best_dist)
    }

    /// Add position `p`, whose trigram has head slot `h` and bucket `b`.
    #[inline]
    fn insert(&mut self, p: usize, h: usize, b: usize) {
        let gap = (p as u32).wrapping_sub(self.head[h]).min(WINDOW as u32 + 1);
        self.ring[p % WINDOW] = u32::from(self.count[b]) << 16 | gap;
        self.head[h] = p as u32;
        self.count[b] = self.count[b].wrapping_add(1);
    }
}

/// Compress `data`. Returns the raw LZSS bit stream (no header; pair it with
/// the original length, as [`crate::compress`] does).
///
/// The tokens are those of the bucket walk in the [module docs](self),
/// found through exact-trigram chains. Positions are kept as `u32`, so an
/// input of 4 GiB or more still encodes to a valid stream, though not
/// necessarily the bucket walk's.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    // Literals cost 9 bits: size for the incompressible case up front.
    let mut w = BitWriter::with_capacity(n + n / 8 + 1);
    let last = match n.checked_sub(MIN_MATCH) {
        Some(last) => last, // the last position with a whole trigram
        None => {
            for &b in data {
                w.write_bits(0x100 | b as u32, 9);
            }
            return w.finish();
        }
    };
    let mut buf = Vec::with_capacity(n + PAD);
    buf.extend_from_slice(data);
    buf.resize(n + PAD, 0);
    let buf = &buf[..];
    let mut chains = Chains::new(n);
    // The trigram at `i` (little-endian) and its bucket, both rolled forward
    // one byte at a time: shifting the bucket left 5 bits pushes the old
    // first byte's 3 bits out of it.
    let mut t = u32::from_le_bytes([data[0], data[1], data[2], 0]);
    let mut b = bucket(t);
    let mut i = 0;
    while i <= last {
        let h = chains.hash(t);
        let dist = (i as u32).wrapping_sub(chains.head[h]) as usize;
        let (best_len, best_dist) =
            if dist <= WINDOW { chains.longest_match(buf, n, i, dist, b) } else { (0, 0) };
        chains.insert(i, h, b);
        let end = if best_len == 0 {
            // Flag 1, then the byte.
            w.write_bits(0x100 | data[i] as u32, 9);
            i + 1
        } else {
            // Flag 0, distance, length in one 17-bit field.
            let token = ((best_dist - 1) << 4 | (best_len - MIN_MATCH)) as u32;
            w.write_bits(token, MATCH_BITS as u8);
            i + best_len
        };
        // Step to `end`; every covered position with a whole trigram joins
        // the chains.
        let stop = end.min(last + 1);
        loop {
            let next = buf[i + MIN_MATCH];
            t = t >> 8 | u32::from(next) << 16;
            b = (b << 5 ^ usize::from(next)) & ((1 << BUCKET_BITS) - 1);
            i += 1;
            if i >= stop {
                break;
            }
            chains.insert(i, chains.hash(t), b);
        }
        i = end;
    }
    for &b in &data[i..] {
        w.write_bits(0x100 | b as u32, 9);
    }
    w.finish()
}

/// Decompress an LZSS stream into exactly `original_len` bytes.
pub fn decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, LzssError> {
    let mut r = BitReader::new(data);
    // A token of at least 9 bits yields at most MAX_MATCH bytes, and matches
    // (the only tokens longer than one byte) take 17 bits: the payload bounds
    // the output whatever length the container claims.
    let bound = (r.remaining_bits() / MATCH_BITS + 1) * MAX_MATCH;
    let mut out = Vec::with_capacity(original_len.min(bound));
    while out.len() < original_len {
        // Peek a whole match token; a literal uses the first 9 of its bits.
        let token = r.peek(MATCH_BITS as u8) as usize;
        if token >> 16 == 1 {
            r.consume(9).map_err(|_| LzssError::Truncated)?;
            out.push((token >> 8) as u8);
        } else {
            r.consume(MATCH_BITS as u8).map_err(|_| LzssError::Truncated)?;
            let dist = (token >> 4 & 0xfff) + 1;
            let len = (token & 0xf) + MIN_MATCH;
            if dist > out.len() {
                return Err(LzssError::BadDistance { at: out.len(), distance: dist });
            }
            let start = out.len() - dist;
            let len = len.min(original_len - out.len());
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copy: each byte may be one this match wrote.
                for k in start..start + len {
                    out.push(out[k]);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bucket-walk encoder [`encode`] replays, kept as its oracle:
    /// `chain_budget` is 64 in the real definition.
    pub(super) fn encode_reference(data: &[u8], chain_budget: usize) -> Vec<u8> {
        // Literals cost 9 bits: size for the incompressible case up front.
        let mut w = BitWriter::with_capacity(data.len() + data.len() / 8 + 1);
        // Hash chains over 3-byte prefixes for O(1) candidate lookup.
        const HASH_SIZE: usize = 1 << 13;
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];

        #[inline]
        fn hash3(data: &[u8], i: usize) -> usize {
            let h = (data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ data[i + 2] as usize;
            h & ((1 << 13) - 1)
        }

        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut chain_budget = chain_budget;
                let limit = (data.len() - i).min(MAX_MATCH);
                while cand != usize::MAX && chain_budget > 0 {
                    if i - cand > WINDOW {
                        break;
                    }
                    // Only a candidate that also matches at `best_len` can beat
                    // the best so far; skip the rest without comparing them.
                    if data[cand + best_len] == data[i + best_len] {
                        let l = data[cand..cand + limit]
                            .iter()
                            .zip(&data[i..i + limit])
                            .take_while(|(a, b)| a == b)
                            .count();
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l == limit {
                                break;
                            }
                        }
                    }
                    cand = prev[cand];
                    chain_budget -= 1;
                }
            }
            if best_len >= MIN_MATCH {
                // Flag 0, distance, length in one 17-bit field.
                let token = ((best_dist - 1) << 4 | (best_len - MIN_MATCH)) as u32;
                w.write_bits(token, MATCH_BITS as u8);
                // Insert all covered positions into the hash chains.
                let end = i + best_len;
                while i < end {
                    if i + MIN_MATCH <= data.len() {
                        let h = hash3(data, i);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            } else {
                // Flag 1, then the byte.
                w.write_bits(0x100 | data[i] as u32, 9);
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        w.finish()
    }

    /// SplitMix64 draws in `0..n`, so the generators need one seed each.
    fn below(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// `len` bytes from `byte`, with one draw in four instead copying 3–40
    /// bytes from up to 5000 back, so matches land on both sides of the
    /// window edge.
    fn with_copies(len: usize, seed: u64, mut byte: impl FnMut(&mut u64) -> u8) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 40);
        while out.len() < len {
            if !out.is_empty() && below(&mut state, 4) == 0 {
                let from = out.len() - 1 - below(&mut state, out.len().min(5000) as u64) as usize;
                for k in 0..3 + below(&mut state, 38) as usize {
                    out.push(out[from + k]);
                }
            } else {
                out.push(byte(&mut state));
            }
        }
        out.truncate(len);
        out
    }

    /// Word text or, for odd seeds, XML records: the match-rich inputs.
    fn text_or_xml(len: usize, seed: u64) -> Vec<u8> {
        const WORDS: [&str; 16] = [
            "the", "payment", "account", "transfer", "balance", "bank", "agent", "to",
            "please", "confirm", "rent", "invoice", "and", "send", "receipt", "of",
        ];
        let mut state = seed;
        let mut out = String::new();
        while out.len() < len {
            if seed.is_multiple_of(2) {
                out.push_str(WORDS[below(&mut state, 16) as usize]);
                out.push_str(if below(&mut state, 12) == 0 { ". " } else { " " });
            } else {
                let (from, amount) = (below(&mut state, 40), below(&mut state, 100_000));
                out.push_str(&format!(
                    "<param name=\"tx\"><from>acct-{from:04}</from>\
                     <amount>{amount}</amount></param>"
                ));
            }
        }
        out.truncate(len);
        out.into_bytes()
    }

    /// Bytes `low | k << 5`: their trigrams crowd 64 chain-hash buckets, so
    /// the 64-entry budget binds at most positions.
    fn colliding(len: usize, seed: u64) -> Vec<u8> {
        let low = (seed % 32) as u8;
        with_copies(len, seed, |state| low | (below(state, 8) as u8) << 5)
    }

    /// A 6-byte needle, `gap` trigrams that share its first trigram's bucket
    /// but not the trigram, and the needle again.
    fn needle_gap(gap: usize) -> Vec<u8> {
        let needle = b"ABCxyz";
        let mut out = needle.to_vec();
        for k in 0..gap {
            out.extend_from_slice(&[b'A' ^ (1 + (k % 31) as u8) << 3, b'B', b'C', b'.']);
        }
        out.extend_from_slice(needle);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn encode_matches_reference_on_random_bytes(seed in any::<u64>(), len in 0usize..10_000) {
            let data = with_copies(len, seed, |state| below(state, 256) as u8);
            prop_assert_eq!(encode(&data), encode_reference(&data, 64));
        }

        #[test]
        fn encode_matches_reference_on_text_and_xml(seed in any::<u64>(), len in 0usize..10_000) {
            let data = text_or_xml(len, seed);
            prop_assert_eq!(encode(&data), encode_reference(&data, 64));
        }

        #[test]
        fn encode_matches_reference_on_colliding_bytes(
            seed in any::<u64>(),
            len in 0usize..10_000,
            gap in 40usize..90,
        ) {
            let mut data = colliding(len, seed);
            data.extend(needle_gap(gap));
            prop_assert_eq!(encode(&data), encode_reference(&data, 64));
        }
    }

    #[test]
    fn budget_replay_is_exercised() {
        // 100 colliding trigrams hide the needle from the bounded walk: the
        // bounded reference emits a literal where an unbounded one matches.
        let data = needle_gap(100);
        let bounded = encode_reference(&data, 64);
        assert_ne!(bounded, encode_reference(&data, usize::MAX));
        assert_eq!(encode(&data), bounded);
        // At 63 collisions the needle is the 64th entry and still matches.
        let data = needle_gap(63);
        assert_eq!(encode_reference(&data, 64), encode_reference(&data, usize::MAX));
        assert_eq!(encode(&data), encode_reference(&data, 64));
    }

    #[test]
    fn bucket_counts_wrap_exactly() {
        // Over 65536 zero trigrams share one bucket with the `08 00 00`
        // trigrams sprinkled among them, so the u16 counts wrap while the
        // budget decides every `08` match.
        let mut data = vec![0u8; 80_000];
        for k in (0..data.len()).step_by(97) {
            data[k] = 8;
        }
        assert_eq!(encode(&data), encode_reference(&data, 64));
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec, data, "roundtrip mismatch for {} bytes", data.len());
        enc
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"the quick brown fox; the quick brown fox; the quick brown fox".repeat(8);
        let enc = roundtrip(&data);
        assert!(
            enc.len() < data.len() / 2,
            "expected >2x compression, got {} -> {}",
            data.len(),
            enc.len()
        );
    }

    #[test]
    fn xml_like_payload_compresses() {
        let data = r#"<pi><param name="from">acct-001</param><param name="to">acct-002</param><param name="amount">120.00</param></pi>"#.repeat(10);
        let enc = roundtrip(data.as_bytes());
        assert!(enc.len() < data.len() / 2);
    }

    #[test]
    fn incompressible_data_expands_modestly() {
        // Pseudo-random bytes: each literal costs 9 bits, so expansion ≤ 12.5% + 1.
        let mut data = Vec::with_capacity(2048);
        let mut x: u32 = 0x1234_5678;
        for _ in 0..2048 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        let enc = roundtrip(&data);
        assert!(enc.len() <= data.len() * 9 / 8 + 2);
    }

    #[test]
    fn overlapping_match_lacunae() {
        // "aaaa..." forces overlapping copies (dist 1, len > dist).
        let data = vec![b'a'; 1000];
        // Each match covers at most MAX_MATCH=18 bytes at 17 bits, so ~120 bytes.
        let enc = roundtrip(&data);
        assert!(enc.len() < 140);
    }

    #[test]
    fn long_input_beyond_window() {
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(format!("line-{} ", i % 97).as_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(b"hello world, hello world, hello world");
        let cut = &enc[..enc.len() / 2];
        assert!(matches!(decode(cut, 38), Err(LzssError::Truncated)));
    }

    #[test]
    fn every_cut_is_truncated_or_exact() {
        let data = br#"<param name="a">abcabcabc</param><param name="b">abcab</param>"#.repeat(6);
        let enc = encode(&data);
        for cut in 0..enc.len() {
            match decode(&enc[..cut], data.len()) {
                Ok(out) => assert_eq!(out, data),
                Err(e) => assert_eq!(e, LzssError::Truncated, "cut {cut}"),
            }
        }
    }

    #[test]
    fn hostile_length_does_not_preallocate() {
        let junk = [0xde, 0xad, 0xbe, 0xef, 0xfe, 0xed, 0xfa, 0xce];
        assert!(decode(&junk, 1 << 40).is_err());
    }

    #[test]
    fn bad_distance_errors() {
        // Hand-craft: one match token with dist 5 at output position 0.
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(4, 12); // dist 5
        w.write_bits(0, 4); // len MIN_MATCH
        let bytes = w.finish();
        assert!(matches!(
            decode(&bytes, 3),
            Err(LzssError::BadDistance { at: 0, distance: 5 })
        ));
    }

    #[test]
    fn decode_stops_exactly_at_original_len() {
        let data = b"abcabcabcabcabcabc";
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec.len(), data.len());
    }
}
