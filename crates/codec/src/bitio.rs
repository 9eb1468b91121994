//! MSB-first bit-level I/O, shared by the LZSS and Huffman coders.
//!
//! Both sides keep a 64-bit accumulator and move whole bytes between it and
//! the byte buffer, so a multi-bit field costs a shift and a mask rather than
//! a loop over its bits. The format is plain MSB-first packing: the first bit
//! written is the top bit of the first byte, and [`BitWriter::finish`] pads
//! the final byte with zero bits.

/// Accumulates bits MSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, right-aligned: the low `used` bits, oldest first.
    acc: u64,
    /// Number of pending bits in `acc`; always below 32 between calls.
    used: u32,
}

impl BitWriter {
    /// New, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer whose buffer has room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        BitWriter { out: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Write a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Write the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "write_bits supports at most 32 bits");
        let count = u32::from(count);
        let mask = (1u64 << count) - 1;
        self.acc = (self.acc << count) | (u64::from(value) & mask);
        self.used += count;
        if self.used >= 32 {
            self.used -= 32;
            self.out.extend_from_slice(&((self.acc >> self.used) as u32).to_be_bytes());
        }
    }

    /// Number of complete bytes plus any partial byte.
    pub fn byte_len(&self) -> usize {
        self.out.len() + self.used.div_ceil(8) as usize
    }

    /// Pad the final partial byte with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.used >= 8 {
            self.used -= 8;
            self.out.push((self.acc >> self.used) as u8);
        }
        if self.used > 0 {
            self.out.push((self.acc << (8 - self.used)) as u8);
        }
        self.out
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Next byte of `input` not yet loaded into `buf`.
    pos: usize,
    /// Loaded bits, left-aligned: the top `avail` bits are the next ones in
    /// the stream. The bits below them are zero or already hold the bits
    /// that follow, which is what lets [`BitReader::refill`] OR a whole word in.
    buf: u64,
    /// Number of valid bits at the top of `buf`.
    avail: u32,
}

/// Error returned when the bit stream runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitEof;

impl std::fmt::Display for BitEof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unexpected end of bit stream")
    }
}

impl std::error::Error for BitEof {}

impl<'a> BitReader<'a> {
    /// Reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0, buf: 0, avail: 0 }
    }

    /// Load bytes until at least 56 bits are buffered or the input ends.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.input.get(self.pos..self.pos + 8) {
            // Branch-free refill: OR in a whole big-endian word and advance
            // by the bytes that fit; the partial byte below is loaded again,
            // at the same position, next time.
            let word = u64::from_be_bytes(word.try_into().expect("8-byte slice"));
            self.buf |= word >> self.avail;
            self.pos += ((63 - self.avail) >> 3) as usize;
            self.avail |= 56;
        } else {
            while self.avail <= 56 && self.pos < self.input.len() {
                self.buf |= u64::from(self.input[self.pos]) << (56 - self.avail);
                self.pos += 1;
                self.avail += 8;
            }
        }
    }

    /// Read one bit.
    pub fn read_bit(&mut self) -> Result<bool, BitEof> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Read `count` bits MSB-first into the low bits of a `u32`.
    ///
    /// On [`BitEof`] the reader's position is unspecified; callers stop.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u8) -> Result<u32, BitEof> {
        assert!(count <= 32, "read_bits supports at most 32 bits");
        if count == 0 {
            return Ok(0);
        }
        let value = self.peek(count);
        self.consume(count)?;
        Ok(value)
    }

    /// The next `count` (1..=32) bits MSB-first, without consuming them.
    /// Positions past the end of the input read as zero bits.
    #[inline]
    pub(crate) fn peek(&mut self, count: u8) -> u32 {
        debug_assert!((1..=32).contains(&count));
        if self.avail < u32::from(count) {
            self.refill();
        }
        (self.buf >> (64 - u32::from(count))) as u32
    }

    /// Drop the next `count` (0..=32) bits, typically after a [`peek`].
    ///
    /// [`peek`]: BitReader::peek
    #[inline]
    pub(crate) fn consume(&mut self, count: u8) -> Result<(), BitEof> {
        debug_assert!(count <= 32);
        let count = u32::from(count);
        if self.avail < count {
            self.refill();
            if self.avail < count {
                return Err(BitEof);
            }
        }
        self.buf <<= count;
        self.avail -= count;
        Ok(())
    }

    /// Bits remaining in the stream.
    pub fn remaining_bits(&self) -> usize {
        (self.input.len() - self.pos) * 8 + self.avail as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xABCD, 16);
        w.write_bits(0, 1);
        w.write_bits(u32::MAX, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), u32::MAX);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bit(), Err(BitEof));
    }

    #[test]
    fn remaining_bits_counts_down() {
        let mut r = BitReader::new(&[0, 0]);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 11);
    }

    #[test]
    fn byte_len_includes_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bit(true);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.byte_len(), 1);
        w.write_bit(true);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    /// Per-bit reference packing: the format the accumulators must reproduce.
    fn pack_per_bit(fields: &[(u32, u8)]) -> Vec<u8> {
        let bits: Vec<bool> = fields
            .iter()
            .flat_map(|&(v, n)| (0..n).rev().map(move |i| (v >> i) & 1 == 1))
            .collect();
        bits.chunks(8)
            .map(|c| c.iter().enumerate().fold(0u8, |b, (i, &bit)| b | (u8::from(bit) << (7 - i))))
            .collect()
    }

    /// Seeded `(value, width)` fields with widths 0..=32.
    fn fields(seed: u64, n: usize) -> Vec<(u32, u8)> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x as u32, (x >> 40) as u8 % 33)
            })
            .collect()
    }

    #[test]
    fn accumulators_match_per_bit_packing() {
        for seed in 1..60u64 {
            let f = fields(seed, seed as usize * 5);
            let mut w = BitWriter::new();
            for &(v, n) in &f {
                w.write_bits(v, n);
            }
            let len = w.byte_len();
            let bytes = w.finish();
            assert_eq!(bytes, pack_per_bit(&f), "seed {seed}");
            assert_eq!(len, bytes.len());
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &f {
                let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
                assert_eq!(r.read_bits(n).unwrap(), v & mask, "seed {seed}");
            }
            assert!(r.remaining_bits() < 8);
        }
    }

    #[test]
    fn peek_pads_with_zeros_and_consume_stops_at_end() {
        let mut r = BitReader::new(&[0b1011_0001]);
        assert_eq!(r.peek(12), 0b1011_0001_0000);
        r.consume(3).unwrap();
        assert_eq!(r.peek(8), 0b1000_1000);
        assert_eq!(r.remaining_bits(), 5);
        assert_eq!(r.consume(6), Err(BitEof));
    }
}
