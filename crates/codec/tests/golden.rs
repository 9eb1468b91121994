//! Byte-identity fixture for the `PDAZ` container.
//!
//! PI and document sizes feed the simulated link timing, so every figure
//! depends on `compress` producing exactly the same bytes release after
//! release. `golden.txt` records, for a fixed set of seeded inputs and every
//! [`Algorithm`], the container length and an FNV-1a 64 of the whole
//! container. Any change to the encoders (or to Auto's winner) shows up here.
//!
//! New inputs go at the end of [`inputs`], so the earlier ones keep their
//! random draws, and their entries are generated on the commit before the
//! code they pin changes. The fixture is produced by the ignored
//! `print_golden` test:
//!
//! ```sh
//! cargo test -p pdagent-codec --release --test golden -- --ignored --nocapture print_golden \
//!     | grep '^golden ' > crates/codec/tests/golden.txt
//! ```

use pdagent_codec::compress::{compress, decompress, Algorithm};

const FIXTURE: &str = include_str!("golden.txt");

const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Store,
    Algorithm::Rle,
    Algorithm::Lzss,
    Algorithm::Huffman,
    Algorithm::LzssHuffman,
    Algorithm::Auto,
];

/// SplitMix64, so the inputs need no dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn fnv64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn random_bytes(len: usize, rng: &mut Rng) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// `len` characters of the base64 alphabet, uniformly drawn (the dense PI pad).
fn base64_pad(len: usize, rng: &mut Rng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    (0..len).map(|_| ALPHABET[rng.below(64) as usize]).collect()
}

/// `len` bytes of words from a fixed vocabulary (the text PI pad).
fn word_pad(len: usize, rng: &mut Rng) -> Vec<u8> {
    const VOCABULARY: &str =
        "the payment account transfer balance bank agent device please confirm monthly rent \
        invoice number due before friday and send receipt to my office address \
        for records with reference order of goods delivered last week thank you \
        note that this is a standing instruction from customer service branch settlement";
    let words: Vec<&str> = VOCABULARY.split(' ').collect();
    let mut out = String::with_capacity(len + 16);
    while out.len() < len {
        if !out.is_empty() {
            out.push_str(if rng.below(12) == 0 { ". " } else { " " });
        }
        out.push_str(words[rng.below(words.len() as u64) as usize]);
    }
    out.truncate(len);
    out.into_bytes()
}

fn repetitive_xml(records: usize) -> Vec<u8> {
    let mut out = String::from("<pi><params>");
    for i in 0..records {
        out.push_str(&format!(
            "<param name=\"tx{i}\"><from>acct-{:04}</from><to>acct-{:04}</to>\
             <amount>{}.{:02}</amount></param>",
            i % 17,
            (i * 7) % 23,
            100 + i * 13 % 900,
            i % 100
        ));
    }
    out.push_str("</params></pi>");
    out.into_bytes()
}

/// Symbol `i` appears `fib(i)` times, shuffled: a Huffman tree deeper than
/// the 15-bit limit, so the length limiter runs.
fn fibonacci_frequencies(symbols: usize, rng: &mut Rng) -> Vec<u8> {
    let (mut a, mut b) = (1usize, 1usize);
    let mut out = Vec::new();
    for sym in 0..symbols {
        out.extend(std::iter::repeat_n(sym as u8, a));
        (a, b) = (b, a + b);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// `len` bytes drawn from the eight bytes `low | 0x20·k`. Of such a trigram
/// the LZSS match finder's 13-bit chain hash keeps only bits 5–7 of the
/// second and third bytes, so all 512 trigrams share 64 buckets: a 4 KiB
/// window puts about 64 entries in each, as many as the chain walk visits,
/// and its budget binds.
fn colliding_bytes(len: usize, low: u8, rng: &mut Rng) -> Vec<u8> {
    (0..len).map(|_| low | (rng.below(8) as u8) << 5).collect()
}

/// Words spelled over [`colliding_bytes`]' alphabet: long matches whose
/// candidates hide among hash collisions.
fn colliding_words(len: usize, rng: &mut Rng) -> Vec<u8> {
    let words: Vec<Vec<u8>> =
        (0..48).map(|_| colliding_bytes(3 + rng.below(6) as usize, 0x0a, rng)).collect();
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.push(0x0a);
        out.extend_from_slice(&words[rng.below(words.len() as u64) as usize]);
    }
    out.truncate(len);
    out
}

/// An 18-byte needle, `gap` trigrams that collide with its first trigram
/// under the chain hash (the first byte differs only in bits 3–7, which the
/// hash drops), then the needle again, for gaps around the 64-entry chain
/// budget: past the budget the second needle's first byte goes out as a
/// literal.
fn budget_edge(rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::new();
    for (section, gap) in [60usize, 62, 63, 64, 65, 66, 68, 100].into_iter().enumerate() {
        let (a, b, c) = (b'A', b'B', b'a' + section as u8);
        let mut needle = vec![a, b, c];
        needle.extend_from_slice(format!("~section-{section}~~~~~").as_bytes());
        needle.truncate(18);
        out.extend_from_slice(&needle);
        for _ in 0..gap {
            out.extend_from_slice(&[a ^ (1 + rng.below(31) as u8) << 3, b, c, b' ']);
        }
        out.extend_from_slice(&needle);
    }
    out
}

fn inputs() -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng(0x5eed_0001);
    let mut v: Vec<(String, Vec<u8>)> = vec![
        ("empty".into(), Vec::new()),
        ("one".into(), b"a".to_vec()),
        ("two".into(), vec![0x00, 0xff]),
        ("three".into(), b"aaa".to_vec()),
        ("random-1k".into(), random_bytes(1024, &mut rng)),
        ("random-48k".into(), random_bytes(48 * 1024, &mut rng)),
    ];
    for kib in [1usize, 8, 48, 64] {
        v.push((format!("base64-{kib}k"), base64_pad(kib * 1024, &mut rng)));
        v.push((format!("words-{kib}k"), word_pad(kib * 1024, &mut rng)));
    }
    v.push(("xml-40".into(), repetitive_xml(40)));
    v.push(("xml-600".into(), repetitive_xml(600)));
    v.push(("run-x-1000".into(), vec![b'x'; 1000]));
    v.push(("run-zero-70k".into(), vec![0; 70_000]));
    let mut runs = Vec::new();
    for i in 0..400usize {
        let len = 1 + rng.below(200) as usize;
        runs.extend(std::iter::repeat_n(b"ab\ncd"[i % 5], len));
    }
    v.push(("runs-mixed".into(), runs));
    v.push(("fibonacci-24".into(), fibonacci_frequencies(24, &mut rng)));
    v.push(("collide-8k".into(), colliding_bytes(8 * 1024, 0x00, &mut rng)));
    v.push(("collide-48k".into(), colliding_bytes(48 * 1024, 0x0a, &mut rng)));
    v.push(("collide-words-48k".into(), colliding_words(48 * 1024, &mut rng)));
    v.push(("budget-edge".into(), budget_edge(&mut rng)));
    v
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for (name, data) in inputs() {
        for alg in ALGORITHMS {
            let packed = compress(&data, alg);
            out.push(format!(
                "golden {name} {} {} {:016x}",
                alg.name(),
                packed.len(),
                fnv64(&packed)
            ));
        }
    }
    out
}

#[test]
#[ignore = "prints the fixture; run by hand to regenerate golden.txt"]
fn print_golden() {
    for line in lines() {
        println!("{line}");
    }
}

#[test]
fn containers_match_the_golden_fixture() {
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let actual = lines();
    assert_eq!(actual.len(), expected.len(), "fixture entry count");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "container bytes drifted from the fixture");
    }
}

#[test]
fn golden_inputs_round_trip() {
    for (name, data) in inputs() {
        for alg in ALGORITHMS {
            let packed = compress(&data, alg);
            assert_eq!(decompress(&packed).as_deref(), Ok(&data[..]), "{name} {}", alg.name());
        }
    }
}
