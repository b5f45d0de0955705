//! **PIPE-SZx** — the paper's pipelined redesign of SZx (§III-E2).
//!
//! The key obstacle to overlapping compression with communication is that a
//! monolithic compressor gives the caller no opportunity to poll the
//! network. PIPE-SZx therefore:
//!
//! 1. divides the input into chunks of [`DEFAULT_CHUNK`] (5120) values and
//!    compresses each chunk independently;
//! 2. stores the compressed size of every chunk in an **index at the front
//!    of the output buffer** (rather than interleaving sizes with payloads),
//!    which the paper notes is more cache-friendly and lets decompression
//!    maintain a chunk-starting-location pointer;
//! 3. invokes a caller-supplied progress callback **between chunks**, both
//!    during compression and decompression, so non-blocking sends/receives
//!    can advance while the kernel runs.
//!
//! No collective uses this stream format: the collectives' streaming
//! engine (`c_coll::pipeline`) cuts a vector into sub-chunks itself and,
//! between two of them, retires the sends that have left — its message-
//! passing form of the paper's "actively pull communication progress
//! within the compression and decompression phases". This codec keeps
//! the paper's standalone stream, for the codec benchmarks and for
//! callers that overlap it by hand (a callback that tests a pending
//! receive, say).
//!
//! ## Stream layout
//!
//! ```text
//! magic   u32  "SZXR"
//! count   u64  number of f32 values
//! chunk   u32  chunk size in values
//! bsize   u16  SZx block size in values
//! eb      f32  absolute error bound
//! nchunks u32
//! sizes   u32 × nchunks   compressed byte size of each chunk (the index)
//! payload chunk 0 ‖ chunk 1 ‖ …   (each byte-aligned)
//! ```

use std::ops::Range;

use crate::bitstream::{BitReader, BitWriter};
use crate::bytecodec::{patch_u32, put_f32, put_u16, put_u32, put_u64, ByteReader};
use crate::dispatch::{self, SimdLevel};
use crate::szx::{
    decode_blocks, decode_blocks_into, encode_blocks, worst_case_body_bytes, BlockScratch, Land,
    DEFAULT_BLOCK, MAX_BLOCK,
};
use crate::traits::{CodecKind, CompressError, Compressor, ReduceKind};

/// Stream magic: `"SZXR"` little-endian (chunk bodies carry the
/// delta-coded blocks of `"SZX3"`; `"SZXQ"` streams, plain quantized
/// blocks only, and `"SZXP"` streams, raw `f32` bases, are rejected).
pub const PIPE_MAGIC: u32 = 0x5258_5A53;

/// Default pipeline chunk size in values — the paper's 5120 data points.
pub const DEFAULT_CHUNK: usize = 5120;

/// Fixed header length (magic + count + chunk + bsize + eb + nchunks).
pub(crate) const PIPE_HEADER_BYTES: usize = 4 + 8 + 4 + 2 + 4 + 4;

/// Pipelined SZx codec.
///
/// Use [`PipeSzx::compress_with_progress`] /
/// [`PipeSzx::decompress_with_progress`] from communication code; the plain
/// [`Compressor`] impl uses a no-op callback and produces the identical
/// stream (chunking is deterministic).
#[derive(Debug, Clone, Copy)]
pub struct PipeSzx {
    error_bound: f32,
    chunk: usize,
    block_size: usize,
    dispatch: SimdLevel,
}

impl PipeSzx {
    /// Create a pipelined codec with the default 5120-value chunks.
    ///
    /// # Panics
    /// Panics if `error_bound` is not finite and positive.
    pub fn new(error_bound: f32) -> Self {
        Self::with_chunk(error_bound, DEFAULT_CHUNK)
    }

    /// Create a pipelined codec with an explicit chunk size in values.
    ///
    /// # Panics
    /// Panics on a non-positive error bound or a zero chunk size.
    pub fn with_chunk(error_bound: f32, chunk: usize) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be finite and positive, got {error_bound}"
        );
        assert!(chunk > 0, "chunk size must be positive");
        Self {
            error_bound,
            chunk,
            block_size: DEFAULT_BLOCK,
            dispatch: SimdLevel::Auto,
        }
    }

    /// Pin the SIMD dispatch level (default [`SimdLevel::Auto`]); levels
    /// never change stream contents, only throughput.
    pub fn with_dispatch(mut self, level: SimdLevel) -> Self {
        self.dispatch = level;
        self
    }

    /// The configured absolute error bound.
    pub fn error_bound(&self) -> f32 {
        self.error_bound
    }

    /// The configured chunk size in values.
    pub fn chunk_values(&self) -> usize {
        self.chunk
    }

    /// Number of chunks a `len`-value input will produce.
    pub fn chunk_count(&self, len: usize) -> usize {
        len.div_ceil(self.chunk).max(if len == 0 { 0 } else { 1 })
    }

    /// Exact worst-case stream size for a `len`-value input: header +
    /// front index + per-chunk worst-case payload (every block verbatim
    /// or maximally wide, each chunk byte-aligned). Reserving this up
    /// front means the chunk loop can never reallocate mid-stream.
    pub fn worst_case_stream_bytes(&self, len: usize) -> usize {
        let nchunks = len.div_ceil(self.chunk);
        let full = len / self.chunk;
        let rem = len % self.chunk;
        PIPE_HEADER_BYTES
            + nchunks * 4
            + full * worst_case_body_bytes(self.chunk, self.block_size)
            + worst_case_body_bytes(rem, self.block_size)
    }

    /// Compress `data`, invoking `progress` after every chunk.
    ///
    /// The callback runs `chunk_count` times; the final invocation happens
    /// after the last chunk so a communication loop can make one last poll
    /// before the caller blocks in a wait.
    pub fn compress_with_progress(
        &self,
        data: &[f32],
        progress: impl FnMut(),
    ) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(self.worst_case_stream_bytes(data.len()));
        self.compress_with_progress_into(data, progress, &mut out)?;
        Ok(out)
    }

    /// [`PipeSzx::compress_with_progress`] into a caller-owned buffer.
    ///
    /// The whole stream — header, front index and every chunk payload —
    /// is built in `out` through a single [`BitWriter`]; chunk sizes are
    /// patched into the reserved index region as each chunk lands, so
    /// the steady state performs no allocation and no payload copying.
    pub fn compress_with_progress_into(
        &self,
        data: &[f32],
        mut progress: impl FnMut(),
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let nchunks = data.len().div_ceil(self.chunk);
        out.clear();
        // Exact-capacity pre-reservation: the chunk loop below never
        // reallocates mid-stream (no-op once the buffer is warmed).
        out.reserve(self.worst_case_stream_bytes(data.len()));
        put_u32(out, PIPE_MAGIC);
        put_u64(out, data.len() as u64);
        put_u32(out, self.chunk as u32);
        put_u16(out, self.block_size as u16);
        put_f32(out, self.error_bound);
        put_u32(out, nchunks as u32);
        // Reserve the front-of-buffer size index (paper §III-E2).
        let index_at = out.len();
        out.resize(index_at + nchunks * 4, 0);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        let mut chunk_start = w.byte_len();
        let k = dispatch::kernels(self.dispatch);
        for (i, chunk) in data.chunks(self.chunk).enumerate() {
            encode_blocks(chunk, self.error_bound, self.block_size, k, &mut w);
            // Chunks are byte-aligned so each payload decodes standalone.
            w.align();
            let end = w.byte_len();
            // The index region was materialized before the writer took
            // over, so it is patchable while the tail is still staged.
            patch_u32(
                w.flushed_mut(),
                index_at + i * 4,
                (end - chunk_start) as u32,
            );
            chunk_start = end;
            progress();
        }
        *out = w.into_bytes();
        Ok(())
    }

    /// Decompress, invoking `progress` after every chunk.
    pub fn decompress_with_progress(
        &self,
        stream: &[u8],
        progress: impl FnMut(),
    ) -> Result<Vec<f32>, CompressError> {
        let mut out = Vec::new();
        self.decompress_with_progress_into(stream, progress, &mut out)?;
        Ok(out)
    }

    /// [`PipeSzx::decompress_with_progress`] into a caller-owned buffer.
    pub fn decompress_with_progress_into(
        &self,
        stream: &[u8],
        mut progress: impl FnMut(),
        out: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        let mut s = PipeStream::open(stream)?;
        out.clear();
        out.reserve(s.count);
        let k = dispatch::kernels(self.dispatch);
        let mut scratch = BlockScratch::new();
        for _ in 0..s.nchunks {
            let (want, payload) = s.next_chunk()?;
            let mut bits = BitReader::new(payload);
            decode_blocks_into(
                &mut bits,
                want.len(),
                s.eb,
                s.block_size,
                k,
                &mut scratch,
                out,
            )?;
            progress();
        }
        if out.len() != s.count {
            return Err(CompressError::CorruptHeader);
        }
        Ok(())
    }

    /// Decode a whole stream into `dst` the way `land` says, chunk by
    /// chunk.
    fn decode_slice(
        &self,
        stream: &[u8],
        land: Land<'_>,
        dst: &mut [f32],
    ) -> Result<(), CompressError> {
        let mut s = PipeStream::open(stream)?;
        land.check_count(s.count, dst.len())?;
        let (eb, bs) = (s.eb, s.block_size);
        let k = dispatch::kernels(self.dispatch);
        let mut scratch = BlockScratch::new();
        for _ in 0..s.nchunks {
            let (at, payload) = s.next_chunk()?;
            let land = match land {
                Land::FoldFrom(op, src) => Land::FoldFrom(op, &src[at.clone()]),
                whole => whole,
            };
            let mut bits = BitReader::new(payload);
            decode_blocks(&mut bits, land, eb, bs, k, &mut scratch, &mut dst[at])?;
        }
        Ok(())
    }

    /// Byte offset and length of chunk `i`'s payload inside `stream`,
    /// without decoding. Lets schedulers estimate per-chunk transfer sizes.
    pub fn chunk_payload_bounds(
        &self,
        stream: &[u8],
        i: usize,
    ) -> Result<(usize, usize), CompressError> {
        let mut r = ByteReader::new(stream);
        if r.read_u32()? != PIPE_MAGIC {
            return Err(CompressError::BadMagic);
        }
        let _count = r.read_u64()?;
        let _chunk = r.read_u32()?;
        let _bsize = r.read_u16()?;
        let _eb = r.read_f32()?;
        let nchunks = r.read_u32()? as usize;
        if i >= nchunks {
            return Err(CompressError::CorruptHeader);
        }
        let mut offset = r.position() + nchunks * 4;
        let mut len = 0;
        for j in 0..=i {
            len = r.read_u32()? as usize;
            if j < i {
                offset += len;
            }
        }
        if offset + len > stream.len() {
            return Err(CompressError::Truncated);
        }
        Ok((offset, len))
    }
}

/// A parsed and validated stream header, with the two cursors a decoder
/// advances chunk by chunk: the front size index (consumed in place — no
/// sizes vector) and the chunk-starting-location pointer the paper
/// describes.
struct PipeStream<'a> {
    count: usize,
    chunk: usize,
    block_size: usize,
    eb: f32,
    nchunks: usize,
    /// Value offset of the next chunk.
    at: usize,
    sizes: ByteReader<'a>,
    payloads: ByteReader<'a>,
}

impl<'a> PipeStream<'a> {
    fn open(stream: &'a [u8]) -> Result<Self, CompressError> {
        let mut r = ByteReader::new(stream);
        if r.read_u32()? != PIPE_MAGIC {
            return Err(CompressError::BadMagic);
        }
        let count = r.read_u64()? as usize;
        let chunk = r.read_u32()? as usize;
        let block_size = r.read_u16()? as usize;
        let eb = r.read_f32()?;
        let nchunks = r.read_u32()? as usize;
        if chunk == 0 || !(1..=MAX_BLOCK).contains(&block_size) || !(eb.is_finite() && eb > 0.0) {
            return Err(CompressError::CorruptHeader);
        }
        if nchunks != count.div_ceil(chunk) {
            return Err(CompressError::CorruptHeader);
        }
        let sizes = r.clone();
        r.read_slice(nchunks * 4)?;
        Ok(PipeStream {
            count,
            chunk,
            block_size,
            eb,
            nchunks,
            at: 0,
            sizes,
            payloads: r,
        })
    }

    /// The next chunk's value range and payload (`nchunks` of them).
    fn next_chunk(&mut self) -> Result<(Range<usize>, &'a [u8]), CompressError> {
        let size = self.sizes.read_u32()? as usize;
        let lo = self.at;
        self.at = (lo + self.chunk).min(self.count);
        Ok((lo..self.at, self.payloads.read_slice(size)?))
    }
}

impl Compressor for PipeSzx {
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
        self.compress_with_progress(data, || {})
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        self.decompress_with_progress(stream, || {})
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
        self.compress_with_progress_into(data, || {}, out)
    }

    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        self.decompress_with_progress_into(stream, || {}, out)
    }

    fn decompress_reduce_into(
        &self,
        stream: &[u8],
        op: ReduceKind,
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decode_slice(stream, Land::Fold(op), dst)
    }

    fn decompress_reduce_from(
        &self,
        stream: &[u8],
        op: ReduceKind,
        src: &[f32],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        assert_eq!(src.len(), dst.len(), "decompress-reduce length mismatch");
        self.decode_slice(stream, Land::FoldFrom(op, src), dst)
    }

    fn decompress_to(
        &self,
        stream: &[u8],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decode_slice(stream, Land::Store, dst)
    }

    fn max_compressed_bytes(&self, values: usize) -> usize {
        self.worst_case_stream_bytes(values)
    }

    fn kind(&self) -> CodecKind {
        CodecKind::PipeSzx {
            error_bound: self.error_bound,
            chunk: self.chunk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::szx::SzxCodec;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 2e-4).sin() * 3.0 + (i as f32 * 1.3e-3).cos())
            .collect()
    }

    #[test]
    fn round_trip_bounded() {
        let data = wave(37_777);
        let codec = PipeSzx::new(1e-3);
        let c = codec.compress(&data).unwrap();
        let d = codec.decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (&a, &b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 1e-3);
        }
    }

    #[test]
    fn progress_callback_counts() {
        let data = wave(5120 * 3 + 100); // 4 chunks
        let codec = PipeSzx::new(1e-3);
        let mut n = 0;
        let c = codec.compress_with_progress(&data, || n += 1).unwrap();
        assert_eq!(n, 4);
        let mut m = 0;
        let d = codec.decompress_with_progress(&c, || m += 1).unwrap();
        assert_eq!(m, 4);
        assert_eq!(d.len(), data.len());
    }

    #[test]
    fn empty_input() {
        let codec = PipeSzx::new(1e-3);
        let c = codec.compress(&[]).unwrap();
        assert!(codec.decompress(&c).unwrap().is_empty());
    }

    #[test]
    fn input_smaller_than_chunk() {
        let data = wave(100);
        let codec = PipeSzx::new(1e-4);
        let c = codec.compress(&data).unwrap();
        let d = codec.decompress(&c).unwrap();
        for (&a, &b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 1e-4);
        }
    }

    #[test]
    fn matches_monolithic_szx_error_behaviour() {
        // Pipelining must not change the reconstruction beyond chunk/block
        // boundary effects; both satisfy the same bound.
        let data = wave(20_000);
        let eb = 1e-3;
        let mono = SzxCodec::new(eb);
        let piped = PipeSzx::new(eb);
        let dm = mono.decompress(&mono.compress(&data).unwrap()).unwrap();
        let dp = piped.decompress(&piped.compress(&data).unwrap()).unwrap();
        for ((&a, &m), &p) in data.iter().zip(&dm).zip(&dp) {
            assert!((a - m).abs() <= eb);
            assert!((a - p).abs() <= eb);
        }
    }

    #[test]
    fn chunk_payload_bounds_consistent() {
        let data = wave(5120 * 2 + 50);
        let codec = PipeSzx::new(1e-3);
        let c = codec.compress(&data).unwrap();
        let mut total = 0;
        for i in 0..3 {
            let (off, len) = codec.chunk_payload_bounds(&c, i).unwrap();
            assert!(off + len <= c.len());
            total += len;
        }
        // Payload sizes plus the header/index must account for the stream.
        let header = 4 + 8 + 4 + 2 + 4 + 4 + 3 * 4;
        assert_eq!(header + total, c.len());
        assert!(codec.chunk_payload_bounds(&c, 3).is_err());
    }

    #[test]
    fn corrupt_chunk_count_rejected() {
        let data = wave(6000);
        let codec = PipeSzx::new(1e-3);
        let mut c = codec.compress(&data).unwrap();
        // nchunks field lives at offset 22.
        c[22] = 0xFF;
        assert!(codec.decompress(&c).is_err());
    }

    #[test]
    fn raw_base_stream_magic_rejected() {
        // A stream of the raw-`f32`-base layout ("SZXP") is refused by its
        // magic, not misread as delta-coded chunk bodies.
        let codec = PipeSzx::new(1e-3);
        let mut c = codec.compress(&wave(6000)).unwrap();
        c[..4].copy_from_slice(b"SZXP");
        assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::BadMagic);
    }

    #[test]
    fn plain_block_stream_magic_rejected() {
        // Chunk bodies of plain quantized blocks only ("SZXQ") likewise.
        let codec = PipeSzx::new(1e-3);
        let mut c = codec.compress(&wave(6000)).unwrap();
        c[..4].copy_from_slice(b"SZXQ");
        assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::BadMagic);
    }

    #[test]
    fn truncated_payload_rejected() {
        let data = wave(12_000);
        let codec = PipeSzx::new(1e-3);
        let c = codec.compress(&data).unwrap();
        assert_eq!(
            codec.decompress(&c[..c.len() - 5]).unwrap_err(),
            CompressError::Truncated
        );
    }

    #[test]
    fn fused_reduce_matches_decode_then_apply_bitwise() {
        let data = wave(5120 * 2 + 777); // multiple chunks + partial tail
        let codec = PipeSzx::new(1e-3);
        let stream = codec.compress(&data).unwrap();
        let decoded = codec.decompress(&stream).unwrap();
        for op in [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min] {
            let acc: Vec<f32> = (0..data.len()).map(|i| (i as f32 * 0.11).sin()).collect();
            let mut expect = acc.clone();
            for (d, &v) in expect.iter_mut().zip(&decoded) {
                *d = op.fold(*d, v);
            }
            let mut fused = acc.clone();
            codec
                .decompress_reduce_into(&stream, op, &mut fused, &mut Vec::new())
                .unwrap();
            for (i, (a, b)) in fused.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{op:?} diverged at {i}");
            }
        }
    }

    #[test]
    fn custom_chunk_sizes() {
        let data = wave(9_999);
        for chunk in [1usize, 64, 5120, 100_000] {
            let codec = PipeSzx::with_chunk(1e-3, chunk);
            let c = codec.compress(&data).unwrap();
            let d = codec.decompress(&c).unwrap();
            for (&a, &b) in data.iter().zip(&d) {
                assert!((a - b).abs() <= 1e-3);
            }
        }
    }
}
