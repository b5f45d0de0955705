//! LSB-first bit-level writer/reader used by the codec back-ends.
//!
//! Both [`szx`](crate::szx) (packing block-floating-point quantization
//! codes) and [`zfp`](crate::zfp) (embedded bit-plane coding) need dense,
//! byte-unaligned bit I/O. The streams here are LSB-first within each byte,
//! matching the convention of the ZFP reference implementation, so a value
//! written with `write_bits(v, n)` stores bit 0 of `v` first.
//!
//! ## Performance architecture
//!
//! This is the hottest code in the workspace: every quantization code of
//! every SZx block and every bit plane of every ZFP block flows through
//! it. The implementation is **word-level**:
//!
//! * [`BitWriter`] stages bits in a 64-bit accumulator (`acc`, low `fill`
//!   bits valid) and flushes the accumulator as one little-endian `u64`
//!   the moment it fills — `write_bits` is a shift+or plus an amortized
//!   8-byte append, never a per-bit or per-byte loop.
//! * [`BitReader`] refills a 64-bit window from the buffer with a single
//!   unaligned little-endian load per `read_bits`, borrowing one extra
//!   byte when a value straddles the window.
//! * The byte-aligned bulk append ([`BitWriter::write_bytes`])
//!   degenerates to `extend_from_slice`.
//!
//! Because an LSB-first stream is position-independent of the chunk size
//! used to produce it, the word-level writer emits **byte-identical
//! streams** to the original scalar (byte-at-a-time) implementation. The
//! original is preserved verbatim in the [`reference` module](self::reference) and differential
//! property tests in `tests/proptests.rs` pin the equivalence; the
//! `bench_codec` binary measures the speedup against it.

/// An append-only bit writer backed by a `Vec<u8>`.
///
/// Invariant: `fill < 64`, and only the low `fill` bits of `acc` may be
/// non-zero.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// 64-bit staging word; bits `[0, fill)` are valid.
    acc: u64,
    /// Number of valid bits in `acc` (`0..64`).
    fill: u32,
}

impl BitWriter {
    /// Create an empty writer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty writer with capacity for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            fill: 0,
        }
    }

    /// Continue writing at the end of an existing byte buffer (the next
    /// bit lands in a fresh byte after `buf`'s current contents). This is
    /// what lets `compress_into` encode straight into a caller-owned
    /// output vector with zero intermediate copies.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self {
            buf,
            acc: 0,
            fill: 0,
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.fill as usize
    }

    /// Append a single bit (the low bit of `bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: u32) {
        self.acc |= ((bit & 1) as u64) << self.fill;
        self.fill += 1;
        if self.fill == 64 {
            self.flush_word();
        }
    }

    /// Append the low `n` bits of `value`, LSB first. `n` must be ≤ 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64, "cannot write more than 64 bits at once");
        if n == 0 {
            return;
        }
        let v = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        self.acc |= v << self.fill;
        let total = self.fill + n;
        if total >= 64 {
            let consumed = 64 - self.fill; // bits of `v` already in `acc`
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            // `consumed == 64` only when `fill == 0`, where the whole
            // value was flushed and the accumulator restarts empty.
            self.acc = if consumed == 64 { 0 } else { v >> consumed };
            self.fill = total - 64;
        } else {
            self.fill = total;
        }
    }

    /// Flush the (full) accumulator to the buffer.
    #[inline]
    fn flush_word(&mut self) {
        debug_assert_eq!(self.fill, 64);
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        self.acc = 0;
        self.fill = 0;
    }

    /// Drain whole bytes of the accumulator into the buffer. Afterwards
    /// `fill < 8`.
    fn drain_acc_bytes(&mut self) {
        while self.fill >= 8 {
            self.buf.push(self.acc as u8);
            self.acc >>= 8;
            self.fill -= 8;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        // Writes are masked, so the pad bits above `fill` are already 0.
        self.fill = (self.fill + 7) & !7;
        if self.fill == 64 {
            self.flush_word();
        }
    }

    /// Append raw bytes. The stream is aligned to a byte boundary first;
    /// after the alignment it is a straight `extend_from_slice`.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.drain_acc_bytes();
        debug_assert_eq!(self.fill, 0);
        self.buf.extend_from_slice(bytes);
    }

    /// Consume the writer and return the backing buffer (zero-padded to a
    /// whole number of bytes).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.drain_acc_bytes();
        self.buf
    }

    /// Current length in bytes (including the partially filled final byte).
    pub fn byte_len(&self) -> usize {
        self.buf.len() + self.fill.div_ceil(8) as usize
    }

    /// Mutable access to the bytes already flushed out of the staging
    /// word, for patching previously reserved header regions (the
    /// PIPE-SZx front index) while the stream tail is still staged.
    pub(crate) fn flushed_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Reset to an empty stream, keeping the buffer's capacity. Lets a
    /// writer be reused across many small encodes (ZFP's per-block trial
    /// encode) without reallocating.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.acc = 0;
        self.fill = 0;
    }

    /// Pad to a byte boundary and expose the stream bytes without
    /// consuming the writer.
    pub fn aligned_bytes(&mut self) -> &[u8] {
        self.align();
        self.drain_acc_bytes();
        &self.buf
    }
}

/// A bit reader over a borrowed byte slice, symmetric with [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

/// Error returned when a [`BitReader`] runs past the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamExhausted;

impl std::fmt::Display for BitstreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream exhausted: attempted to read past the end")
    }
}

impl std::error::Error for BitstreamExhausted {}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf` starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bits remaining in the stream.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, BitstreamExhausted> {
        let byte = self.pos >> 3;
        if byte >= self.buf.len() {
            return Err(BitstreamExhausted);
        }
        let bit = (self.buf[byte] >> (self.pos & 7)) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// Read `n` bits (LSB first) into the low bits of the result. `n ≤ 64`.
    ///
    /// One unaligned 64-bit little-endian load covers the common case; a
    /// value straddling the 64-bit window borrows its tail from the next
    /// byte (`n + bit-offset ≤ 71 < 72` bits total).
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, BitstreamExhausted> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < n as usize {
            return Err(BitstreamExhausted);
        }
        let byte = self.pos >> 3;
        let shift = (self.pos & 7) as u32;
        let mut out = if byte + 8 <= self.buf.len() {
            let window =
                u64::from_le_bytes(self.buf[byte..byte + 8].try_into().expect("8-byte window"));
            let mut w = window >> shift;
            let have = 64 - shift;
            if n > have {
                // The remaining-bits check proves `byte + 8 < buf.len()`.
                w |= (self.buf[byte + 8] as u64) << have;
            }
            w
        } else {
            // Tail: fewer than 8 bytes left, so `n + shift ≤ 64` fits in
            // one zero-padded window.
            let mut tmp = [0u8; 8];
            let avail = self.buf.len() - byte;
            tmp[..avail].copy_from_slice(&self.buf[byte..]);
            u64::from_le_bytes(tmp) >> shift
        };
        if n < 64 {
            out &= (1u64 << n) - 1;
        }
        self.pos += n as usize;
        Ok(out)
    }

    /// Peek at the next `n ≤ 57` bits **without advancing the cursor**,
    /// zero-padding past the end of the stream. Combined with
    /// [`BitReader::skip_bits`] this supports speculative window parsing:
    /// load one window, decode a variable-length structure from it with
    /// plain shifts, then commit the exact number of bits consumed (ZFP's
    /// bit-plane decoder uses this to replace per-bit reads). Parsing
    /// zero padding is harmless because the commit fails on overrun.
    #[inline]
    pub fn peek_bits_padded(&self, n: u32) -> u64 {
        debug_assert!(n <= 57, "peek window limited to 57 bits");
        let byte = self.pos >> 3;
        let shift = (self.pos & 7) as u32;
        let window = if byte + 8 <= self.buf.len() {
            u64::from_le_bytes(self.buf[byte..byte + 8].try_into().expect("8-byte window"))
        } else if byte < self.buf.len() {
            let mut tmp = [0u8; 8];
            let avail = self.buf.len() - byte;
            tmp[..avail].copy_from_slice(&self.buf[byte..]);
            u64::from_le_bytes(tmp)
        } else {
            0
        };
        // shift ≤ 7 and n ≤ 57, so the n requested bits always fit the
        // remaining 64 − shift window bits.
        (window >> shift) & ((1u64 << n) - 1)
    }

    /// Advance the cursor by `n` bits without decoding them. Fails (and
    /// leaves the cursor unchanged) if fewer than `n` bits remain.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<(), BitstreamExhausted> {
        if self.remaining_bits() < n as usize {
            return Err(BitstreamExhausted);
        }
        self.pos += n as usize;
        Ok(())
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// The seed's scalar (byte-at-a-time) bitstream implementation, kept
/// verbatim as the differential-testing oracle and the baseline the
/// `bench_codec` binary measures the word-level rewrite against.
///
/// Not part of the supported API surface — production code must use
/// [`BitWriter`]/[`BitReader`].
#[doc(hidden)]
pub mod reference {
    /// Scalar byte-at-a-time writer (the seed implementation).
    #[derive(Debug, Default, Clone)]
    pub struct ScalarBitWriter {
        buf: Vec<u8>,
        /// Bits already used in the final byte of `buf` (0..=7).
        used: u32,
    }

    impl ScalarBitWriter {
        /// Create an empty writer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of bits written so far.
        pub fn bit_len(&self) -> usize {
            if self.used == 0 {
                self.buf.len() * 8
            } else {
                (self.buf.len() - 1) * 8 + self.used as usize
            }
        }

        /// Append a single bit (the low bit of `bit`).
        pub fn write_bit(&mut self, bit: u32) {
            let bit = (bit & 1) as u8;
            if self.used == 0 {
                self.buf.push(bit);
                self.used = 1;
            } else {
                let last = self.buf.last_mut().expect("used != 0 implies non-empty");
                *last |= bit << self.used;
                self.used = (self.used + 1) & 7;
            }
        }

        /// Append the low `n` bits of `value`, LSB first. `n` must be ≤ 64.
        pub fn write_bits(&mut self, value: u64, n: u32) {
            debug_assert!(n <= 64, "cannot write more than 64 bits at once");
            let mut v = value;
            let mut remaining = n;
            while remaining > 0 && self.used != 0 {
                self.write_bit(v as u32);
                v >>= 1;
                remaining -= 1;
            }
            while remaining >= 8 {
                self.buf.push(v as u8);
                v >>= 8;
                remaining -= 8;
            }
            for _ in 0..remaining {
                self.write_bit(v as u32);
                v >>= 1;
            }
        }

        /// Pad with zero bits to the next byte boundary.
        pub fn align(&mut self) {
            self.used = 0;
        }

        /// Append raw bytes after aligning to a byte boundary.
        pub fn write_bytes(&mut self, bytes: &[u8]) {
            self.align();
            self.buf.extend_from_slice(bytes);
        }

        /// Consume the writer and return the backing buffer.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Scalar byte-at-a-time reader (the seed implementation).
    #[derive(Debug, Clone)]
    pub struct ScalarBitReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> ScalarBitReader<'a> {
        /// Create a reader over `buf` starting at bit 0.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        /// Bits remaining in the stream.
        pub fn remaining_bits(&self) -> usize {
            self.buf.len() * 8 - self.pos
        }

        /// Read a single bit.
        pub fn read_bit(&mut self) -> Result<u32, super::BitstreamExhausted> {
            let byte = self.pos / 8;
            if byte >= self.buf.len() {
                return Err(super::BitstreamExhausted);
            }
            let bit = (self.buf[byte] >> (self.pos & 7)) & 1;
            self.pos += 1;
            Ok(bit as u32)
        }

        /// Read `n` bits (LSB first). `n ≤ 64`.
        pub fn read_bits(&mut self, n: u32) -> Result<u64, super::BitstreamExhausted> {
            debug_assert!(n <= 64);
            if self.remaining_bits() < n as usize {
                return Err(super::BitstreamExhausted);
            }
            let mut out: u64 = 0;
            let mut got = 0u32;
            while got < n && !self.pos.is_multiple_of(8) {
                out |= (self.read_bit()? as u64) << got;
                got += 1;
            }
            while n - got >= 8 {
                let byte = self.buf[self.pos / 8] as u64;
                out |= byte << got;
                self.pos += 8;
                got += 8;
            }
            while got < n {
                out |= (self.read_bit()? as u64) << got;
                got += 1;
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{ScalarBitReader, ScalarBitWriter};
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [1u32, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0x1_FFFF_FFFF, 33);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(33).unwrap(), 0x1_FFFF_FFFF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 0);
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bit().unwrap(), 1);
    }

    #[test]
    fn alignment_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bytes(&[0xAB, 0xCD]);
        w.write_bit(1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(5).unwrap(), 0, "zero pad to the byte boundary");
        assert_eq!(r.read_bits(16).unwrap(), 0xCDAB);
        assert_eq!(r.read_bit().unwrap(), 1);
    }

    #[test]
    fn exhaustion_is_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0x3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // One byte was emitted, so 8 bits are readable, not 9.
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bit(), Err(BitstreamExhausted));
    }

    #[test]
    fn interleaved_widths() {
        let mut w = BitWriter::new();
        let widths = [1u32, 7, 13, 3, 31, 24, 5, 64, 17];
        let values: Vec<u64> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)) & mask
            })
            .collect();
        for (&n, &v) in widths.iter().zip(&values) {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (&n, &v) in widths.iter().zip(&values) {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn continues_an_existing_buffer() {
        let mut w = BitWriter::from_vec(vec![0xAA, 0xBB]);
        w.write_bits(0x5, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes[..2], [0xAA, 0xBB]);
        let mut r = BitReader::new(&bytes[2..]);
        assert_eq!(r.read_bits(3).unwrap(), 0x5);
    }

    #[test]
    fn byte_len_counts_partial_words() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0x7, 3);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0xFFFF, 16);
        assert_eq!(w.byte_len(), 3); // 19 bits
        w.write_bits(u64::MAX, 64);
        assert_eq!(w.byte_len(), 11); // 83 bits
        assert_eq!(w.into_bytes().len(), 11);
    }

    /// Exhaustive cross-check against the seed scalar implementation on
    /// every (offset, width) combination — the word-level stream must be
    /// byte-identical.
    #[test]
    fn matches_scalar_reference_all_offsets() {
        for lead in 0u32..64 {
            for width in 1u32..=64 {
                let mut word = BitWriter::new();
                let mut scalar = ScalarBitWriter::new();
                // Skew the alignment by `lead` single bits first.
                for i in 0..lead {
                    word.write_bit(i & 1);
                    scalar.write_bit(i & 1);
                }
                let v = 0xF0F0_AAAA_5555_0F0Fu64.rotate_left(width);
                word.write_bits(v, width);
                scalar.write_bits(v, width);
                word.write_bits(0x3, 2);
                scalar.write_bits(0x3, 2);
                let a = word.into_bytes();
                let b = scalar.into_bytes();
                assert_eq!(a, b, "lead={lead} width={width}");
                let mask = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                let mut r = ScalarBitReader::new(&a);
                let _ = r.read_bits(lead).unwrap();
                assert_eq!(r.read_bits(width).unwrap(), v & mask);
            }
        }
    }

    /// The word-level reader must accept scalar-written streams and read
    /// identical values at every alignment.
    #[test]
    fn reader_matches_scalar_reference() {
        let widths: Vec<u32> = (0..200).map(|i| (i * 7) % 64 + 1).collect();
        let mut scalar = ScalarBitWriter::new();
        let values: Vec<u64> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                0xDEAD_BEEF_CAFE_F00Du64.wrapping_mul(i as u64 + 3) & mask
            })
            .collect();
        for (&n, &v) in widths.iter().zip(&values) {
            scalar.write_bits(v, n);
        }
        let bytes = scalar.into_bytes();
        let mut word = BitReader::new(&bytes);
        let mut scalar_r = ScalarBitReader::new(&bytes);
        for (&n, &v) in widths.iter().zip(&values) {
            let a = word.read_bits(n).unwrap();
            let b = scalar_r.read_bits(n).unwrap();
            assert_eq!(a, b, "width {n}");
            assert_eq!(a, v, "width {n}");
        }
        assert_eq!(word.remaining_bits(), scalar_r.remaining_bits());
    }
}
