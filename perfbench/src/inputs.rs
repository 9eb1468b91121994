//! Named workloads and the seeded input generator.
//!
//! The platform only ever sees what [`generate`] returns: per-device
//! transaction batches, itineraries and the user-data pad packed into the
//! PI. Everything is a pure function of `(workload, seed)`.

use pdagent_apps::ebank::{itinerary_for, transactions_param};
use pdagent_apps::Transaction;
use pdagent_net::time::SimDuration;
use pdagent_vm::Value;

/// What kind of user data rides in each PI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pad {
    /// No pad: the PI is the agent code, transactions and itinerary only.
    None,
    /// Uniform base64-alphabet characters (6 bits of entropy per byte).
    Dense(usize),
    /// Words drawn from a small vocabulary, like typed notes.
    Text(usize),
}

/// One named workload: the fleet shape and the content of its PIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Cells (a gateway, its central server, two bank sites and devices).
    pub cells: usize,
    /// Devices per cell, one journey each.
    pub devices_per_cell: usize,
    /// e-bank transactions per journey.
    pub transactions: usize,
    /// User data packed into each PI.
    pub pad: Pad,
    /// Simulator shards the cells are dealt onto.
    pub shards: usize,
}

/// Every workload the benchmark knows, in command-line order.
pub const WORKLOADS: [&str; 3] = ["pi48k_dense", "pi48k_text", "fleet_small_pi"];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            // The soak regime: a 48 KiB pad the codecs cannot shrink much,
            // so Auto picks Huffman and compress + decompress are most of a
            // journey's CPU. One shard, like `pi48k_text`, so the pair
            // differs only in PI content; two-thread runs of this workload
            // spread past their bound on the shared host, and the shard
            // engine is measured on `fleet_small_pi`.
            "pi48k_dense" => Workload {
                name: "pi48k_dense",
                cells: 6,
                devices_per_cell: 8,
                transactions: 4,
                pad: Pad::Dense(48 * 1024),
                shards: 1,
            },
            // Same size, but word text: Auto picks LZSS+Huffman (about 1%
            // smaller than LZSS alone), decompress is a third of the dense
            // cost and the wire carries ~2.8x fewer bytes. Catches a codec
            // change that helps Huffman content and costs LZ content.
            "pi48k_text" => Workload {
                name: "pi48k_text",
                cells: 6,
                devices_per_cell: 8,
                transactions: 4,
                pad: Pad::Text(48 * 1024),
                shards: 1,
            },
            // Many small journeys: per-event cost dominates (simulator,
            // HTTP, epoch barrier, VM execution, ops scrapes). The codec is
            // a small share and Huffman decode never runs. Two shards: the
            // workload that exercises the epoch engine and judges shard
            // scaling.
            "fleet_small_pi" => Workload {
                name: "fleet_small_pi",
                cells: 64,
                devices_per_cell: 4,
                transactions: 10,
                pad: Pad::None,
                shards: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Journeys per round.
    pub fn journeys(&self) -> usize {
        self.cells * self.devices_per_cell
    }
}

/// Everything one device is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyInput {
    /// Cell index.
    pub cell: usize,
    /// Device index within the cell.
    pub dev: usize,
    /// The transaction batch.
    pub txs: Vec<Transaction>,
    /// Launch parameters: the encoded batch, plus the pad if any.
    pub params: Vec<(String, Value)>,
    /// Bank sites to visit, in first-appearance order.
    pub itinerary: Vec<String>,
    /// Sim-time delay before the device starts its session.
    pub stagger: SimDuration,
}

/// The two bank sites every cell runs.
pub const BANKS: [&str; 2] = ["bank-a", "bank-b"];

/// Initial balance of the paying account at each bank: far more than any
/// cell can spend, so every transaction must settle.
pub const FUNDS: i64 = 1_000_000_000;

/// SplitMix64: a tiny seeded generator, so inputs need no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `len` characters of the base64 alphabet, uniformly drawn.
pub fn dense_pad(len: usize, rng: &mut Rng) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    (0..len).map(|_| ALPHABET[rng.below(64) as usize] as char).collect()
}

/// `len` bytes of word text: words from a fixed vocabulary, separated by
/// spaces, with a sentence break now and then.
pub fn text_pad(len: usize, rng: &mut Rng) -> String {
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
    out
}

/// Generate every journey of `w` from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Vec<JourneyInput> {
    let mut out = Vec::with_capacity(w.journeys());
    for cell in 0..w.cells {
        for dev in 0..w.devices_per_cell {
            let mut rng = Rng::new(seed, ((cell as u64) << 32) | dev as u64);
            let txs: Vec<Transaction> = (0..w.transactions)
                .map(|_| {
                    let bank = BANKS[rng.below(2) as usize];
                    let payee = format!("payee-{}", rng.below(1000));
                    Transaction::new(bank, "alice", payee, 100 + rng.below(9_900) as i64)
                })
                .collect();
            let mut params = vec![transactions_param(&txs)];
            let pad = match w.pad {
                Pad::None => None,
                Pad::Dense(len) => Some(dense_pad(len, &mut rng)),
                Pad::Text(len) => Some(text_pad(len, &mut rng)),
            };
            if let Some(pad) = pad {
                params.push(("pi_pad".to_owned(), Value::Str(pad)));
            }
            // Devices in a cell key up 2 s apart; cells are offset by a
            // prime-ish 23 ms so no two radios start in lockstep.
            let stagger = SimDuration::from_millis(2_000 * dev as u64 + 23 * cell as u64);
            out.push(JourneyInput {
                cell,
                dev,
                itinerary: itinerary_for(&txs),
                txs,
                params,
                stagger,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = Workload::named("pi48k_text").expect("known workload");
        assert_eq!(generate(&w, 7), generate(&w, 7));
        assert_ne!(generate(&w, 7), generate(&w, 8));
    }

    #[test]
    fn pads_have_the_requested_length_and_alphabet() {
        let mut rng = Rng::new(1, 0);
        let d = dense_pad(4096, &mut rng);
        assert_eq!(d.len(), 4096);
        assert!(d.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'/'));
        let t = text_pad(4096, &mut rng);
        assert_eq!(t.len(), 4096);
        assert!(t.bytes().all(|b| b.is_ascii_lowercase() || b == b' ' || b == b'.'));
    }
}
