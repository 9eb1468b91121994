//! The self-describing `PDAZ` compression container.
//!
//! Layout: 4-byte magic `PDAZ`, 1 algorithm byte, varint original length,
//! then the algorithm-specific payload. A receiver (the gateway, or the
//! device unpacking a downloaded agent) needs no out-of-band information.
//!
//! [`Algorithm::Auto`] keeps the smallest payload, falling back to
//! [`Algorithm::Store`] when compression does not pay — so `compress` never
//! expands data by more than the 6–15 byte header. It sizes every candidate
//! before encoding any of them: Store is the input length, the RLE size is
//! exact from one word-at-a-time scan, the Huffman sizes are exact from the
//! codes fitted to the byte histograms (and those fits encode the winner),
//! and LZSS is encoded once, its stream serving as the LZSS payload, as the
//! input whose histogram sizes LZSS+Huffman, and as that payload's inner
//! layer. Only the winner is then encoded. The winner is the first strictly
//! smallest payload in the order Store, Rle, Lzss, Huffman, LzssHuffman
//! (payload length, not container length), so the output is byte-identical
//! to encoding every candidate and comparing.

use std::borrow::Cow;

use crate::{huffman, lzss, rle, varint};

/// Magic prefix of the container.
pub const MAGIC: &[u8; 4] = b"PDAZ";

/// Compression algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// No compression (payload stored verbatim).
    Store,
    /// Run-length encoding.
    Rle,
    /// LZSS with a 4 KiB window.
    Lzss,
    /// Canonical static Huffman.
    Huffman,
    /// LZSS followed by Huffman on the LZSS bit stream.
    LzssHuffman,
    /// Pick whichever of the above yields the smallest output.
    Auto,
}

impl Algorithm {
    fn to_byte(self) -> u8 {
        match self {
            Algorithm::Store => 0,
            Algorithm::Rle => 1,
            Algorithm::Lzss => 2,
            Algorithm::Huffman => 3,
            Algorithm::LzssHuffman => 4,
            Algorithm::Auto => panic!("Auto is resolved before encoding"),
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Algorithm::Store),
            1 => Some(Algorithm::Rle),
            2 => Some(Algorithm::Lzss),
            3 => Some(Algorithm::Huffman),
            4 => Some(Algorithm::LzssHuffman),
            _ => None,
        }
    }

    /// Human-readable name (used by the footprint experiment's report).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Store => "store",
            Algorithm::Rle => "rle",
            Algorithm::Lzss => "lzss",
            Algorithm::Huffman => "huffman",
            Algorithm::LzssHuffman => "lzss+huffman",
            Algorithm::Auto => "auto",
        }
    }
}

/// Decoding error for the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the `PDAZ` magic.
    BadMagic,
    /// Unknown algorithm byte.
    UnknownAlgorithm(u8),
    /// Header truncated.
    Truncated,
    /// The payload failed to decode.
    Payload(String),
    /// Decoded output length did not match the header.
    LengthMismatch {
        /// Length promised by the header.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "missing PDAZ magic"),
            CodecError::UnknownAlgorithm(b) => write!(f, "unknown algorithm byte {b}"),
            CodecError::Truncated => write!(f, "truncated PDAZ container"),
            CodecError::Payload(msg) => write!(f, "payload decode failed: {msg}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, header promised {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// `alg`'s payload for `data`, where `lz` is `lzss::encode(data)` whenever
/// `alg` uses LZSS.
fn payload<'a>(data: &'a [u8], alg: Algorithm, lz: &'a [u8]) -> Cow<'a, [u8]> {
    match alg {
        Algorithm::Store => Cow::Borrowed(data),
        Algorithm::Rle => rle::encode(data).into(),
        Algorithm::Lzss => Cow::Borrowed(lz),
        Algorithm::Huffman => huffman::encode(data).into(),
        Algorithm::LzssHuffman => huffman::encode(lz).into(),
        Algorithm::Auto => unreachable!("Auto is resolved before encoding"),
    }
}

/// Auto's winner and its payload. Only `lz` is encoded before the pick: the
/// Huffman candidates are sized from their fitted codes, which then encode
/// the winner if it is one of them.
fn auto<'a>(data: &'a [u8], lz: &'a [u8]) -> (Algorithm, Cow<'a, [u8]>) {
    let huffman = huffman::Fit::new(data);
    let lzss_huffman = huffman::Fit::new(lz);
    let sizes = [
        (Algorithm::Store, data.len()),
        (Algorithm::Rle, rle::encoded_len(data)),
        (Algorithm::Lzss, lz.len()),
        (Algorithm::Huffman, huffman.encoded_len()),
        (Algorithm::LzssHuffman, lzss_huffman.encoded_len()),
    ];
    // `min_by_key` keeps the first of equal minima: ties go to the earlier
    // algorithm, so only a strictly smaller payload displaces one.
    let winner = sizes.into_iter().min_by_key(|&(_, len)| len).expect("five candidates").0;
    let payload = match winner {
        Algorithm::Huffman => huffman.encode(data).into(),
        Algorithm::LzssHuffman => lzss_huffman.encode(lz).into(),
        other => payload(data, other, lz),
    };
    (winner, payload)
}

/// Compress `data` into a `PDAZ` container.
pub fn compress(data: &[u8], alg: Algorithm) -> Vec<u8> {
    let lz = match alg {
        Algorithm::Auto | Algorithm::Lzss | Algorithm::LzssHuffman => lzss::encode(data),
        _ => Vec::new(),
    };
    let (alg, payload) = match alg {
        Algorithm::Auto => auto(data, &lz),
        other => {
            let enc = payload(data, other, &lz);
            // Never ship an expanded payload: fall back to Store.
            if enc.len() >= data.len() && other != Algorithm::Store {
                (Algorithm::Store, Cow::Borrowed(data))
            } else {
                (other, enc)
            }
        }
    };
    let mut out = Vec::with_capacity(payload.len() + 25);
    out.extend_from_slice(MAGIC);
    out.push(alg.to_byte());
    varint::write_usize(&mut out, data.len());
    // For LzssHuffman the Huffman layer needs the intermediate length too.
    if alg == Algorithm::LzssHuffman {
        varint::write_usize(&mut out, lz.len());
    }
    out.extend_from_slice(&payload);
    out
}

/// Which algorithm a container was encoded with (without decompressing).
pub fn sniff_algorithm(data: &[u8]) -> Result<Algorithm, CodecError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Algorithm::from_byte(data[4]).ok_or(CodecError::UnknownAlgorithm(data[4]))
}

/// Decompress a `PDAZ` container.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let alg = sniff_algorithm(data)?;
    let mut pos = 5;
    let original_len =
        varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
    let out = match alg {
        Algorithm::Store => {
            data.get(pos..).map(<[u8]>::to_vec).ok_or(CodecError::Truncated)?
        }
        Algorithm::Rle => rle::decode(data.get(pos..).ok_or(CodecError::Truncated)?)
            .map_err(|e| CodecError::Payload(e.to_string()))?,
        Algorithm::Lzss => {
            lzss::decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::Huffman => {
            huffman::decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::LzssHuffman => {
            let mid_len =
                varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
            let mid =
                huffman::decode(data.get(pos..).ok_or(CodecError::Truncated)?, mid_len)
                    .map_err(|e| CodecError::Payload(e.to_string()))?;
            lzss::decode(&mid, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::Auto => unreachable!(),
    };
    if out.len() != original_len {
        return Err(CodecError::LengthMismatch { expected: original_len, actual: out.len() });
    }
    Ok(out)
}

/// Compression ratio achieved by a container (original / packed), for
/// reporting. Returns `None` on a malformed container.
pub fn ratio(container: &[u8]) -> Option<f64> {
    let mut pos = 5;
    if container.len() < 5 || &container[..4] != MAGIC {
        return None;
    }
    let original = varint::read_usize(container, &mut pos).ok()?;
    if container.is_empty() {
        return None;
    }
    Some(original as f64 / container.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    const SAMPLE: &[u8] = b"<agent><op>transfer</op><op>transfer</op><op>balance</op>\
        <from>acct-0001</from><to>acct-0002</to><amount>125.50</amount></agent>";

    #[test]
    fn every_algorithm_roundtrips() {
        for alg in [
            Algorithm::Store,
            Algorithm::Rle,
            Algorithm::Lzss,
            Algorithm::Huffman,
            Algorithm::LzssHuffman,
            Algorithm::Auto,
        ] {
            let packed = compress(SAMPLE, alg);
            assert_eq!(decompress(&packed).unwrap(), SAMPLE, "alg {alg:?}");
        }
    }

    #[test]
    fn empty_input() {
        for alg in [Algorithm::Store, Algorithm::Lzss, Algorithm::Auto] {
            let packed = compress(b"", alg);
            assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn auto_never_loses_to_store_by_much() {
        let mut random = Vec::with_capacity(1000);
        let mut x: u32 = 42;
        for _ in 0..1000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            random.push((x >> 24) as u8);
        }
        let packed = compress(&random, Algorithm::Auto);
        assert!(packed.len() <= random.len() + 16);
        assert_eq!(decompress(&packed).unwrap(), random);
    }

    #[test]
    fn auto_compresses_agent_code_well() {
        let code = SAMPLE.repeat(20);
        let packed = compress(&code, Algorithm::Auto);
        assert!(packed.len() < code.len() / 3, "{} -> {}", code.len(), packed.len());
        assert!(ratio(&packed).unwrap() > 3.0);
    }

    #[test]
    fn sniff_reports_algorithm() {
        let packed = compress(SAMPLE, Algorithm::Lzss);
        assert_eq!(sniff_algorithm(&packed).unwrap(), Algorithm::Lzss);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE\x00\x00"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let mut packed = compress(SAMPLE, Algorithm::Store);
        packed[4] = 99;
        assert_eq!(decompress(&packed), Err(CodecError::UnknownAlgorithm(99)));
    }

    #[test]
    fn truncated_container_rejected() {
        let packed = compress(SAMPLE, Algorithm::Lzss);
        assert!(decompress(&packed[..5]).is_err());
        assert!(decompress(&packed[..packed.len() / 2]).is_err());
    }

    #[test]
    fn store_length_mismatch_detected() {
        let mut packed = compress(b"abcdef", Algorithm::Store);
        packed.truncate(packed.len() - 2);
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::LengthMismatch { expected: 6, actual: 4 })
        ));
    }

    #[test]
    fn forced_expansion_falls_back_to_store() {
        // RLE on non-repetitive data would expand; compress() must fall back.
        let data = b"abcdefghijklmnopqrstuvwxyz";
        let packed = compress(data, Algorithm::Rle);
        assert_eq!(sniff_algorithm(&packed).unwrap(), Algorithm::Store);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// `PDAZ`, `alg`, a varint claiming 2^40 bytes, then junk.
    fn hostile_container(alg: u8) -> Vec<u8> {
        let mut c = MAGIC.to_vec();
        c.push(alg);
        varint::write_u64(&mut c, 1 << 40);
        if alg == Algorithm::LzssHuffman.to_byte() {
            varint::write_u64(&mut c, 1 << 40);
        }
        c.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0xfe, 0xed, 0xfa, 0xce]);
        c
    }

    #[test]
    fn huge_claimed_length_is_an_error_not_an_abort() {
        let lzss = hostile_container(Algorithm::Lzss.to_byte());
        assert_eq!(lzss.len(), 19);
        assert!(decompress(&lzss).is_err());
        for alg in [Algorithm::Huffman, Algorithm::LzssHuffman] {
            assert!(decompress(&hostile_container(alg.to_byte())).is_err(), "{alg:?}");
        }
        // An honest stream under a lying header fails the same way.
        let mut lying = compress(&SAMPLE.repeat(4), Algorithm::Huffman);
        lying.splice(5..7, {
            let mut v = Vec::new();
            varint::write_u64(&mut v, 1 << 40);
            v
        });
        assert!(decompress(&lying).is_err());
    }

    /// Inputs mixing random bytes, runs and a small alphabet, so that every
    /// algorithm wins on some of them.
    fn mixed_bytes() -> impl Strategy<Value = Vec<u8>> {
        const TAG: &[u8] = br#"<agent op="pay">"#;
        pvec((any::<u8>(), 0u8..4, 1usize..40), 0..300).prop_map(|chunks| {
            let mut out = Vec::new();
            for (byte, mode, len) in chunks {
                match mode {
                    0 => out.push(byte),
                    1 => out.extend(std::iter::repeat_n(byte, len)),
                    2 => out.extend((0..len).map(|k| TAG[(k + byte as usize) % TAG.len()])),
                    _ => out.extend((0..len).map(|k| b'a' + (byte.wrapping_mul(k as u8) % 6))),
                }
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Auto matches trial-encoding every candidate: the first strictly
        /// smallest payload wins, and its bytes are the forced encoding's.
        #[test]
        fn auto_picks_the_first_smallest_payload(data in mixed_bytes()) {
            let lz = lzss::encode(&data);
            let mut best = (Algorithm::Store, data.len());
            for alg in [Algorithm::Rle, Algorithm::Lzss, Algorithm::Huffman, Algorithm::LzssHuffman] {
                let len = payload(&data, alg, &lz).len();
                if len < best.1 {
                    best = (alg, len);
                }
            }
            let packed = compress(&data, Algorithm::Auto);
            prop_assert_eq!(sniff_algorithm(&packed).unwrap(), best.0);
            prop_assert_eq!(packed, compress(&data, best.0));
        }
    }

    #[test]
    fn large_payload_roundtrip() {
        let data = SAMPLE.repeat(500); // ~70 KB
        for alg in [Algorithm::Lzss, Algorithm::LzssHuffman, Algorithm::Auto] {
            let packed = compress(&data, alg);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }
}
