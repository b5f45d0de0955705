//! Wire helpers: framing multiple blobs into one message and converting
//! between `f32` buffers and byte payloads.
//!
//! C-Scatter forwards, through each binomial-tree hop, the *set* of
//! per-destination compressed segments belonging to the receiver's
//! subtree. This module provides the multi-blob container used for that:
//!
//! ```text
//! count   u32
//! sizes   u32 × count
//! blobs   blob 0 ‖ blob 1 ‖ …
//! ```

use bytes::Bytes;
use ccoll_comm::PayloadPool;

/// Frame `blobs` into a single container payload.
pub fn frame_blobs(blobs: &[Bytes]) -> Bytes {
    let total: usize = blobs.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(4 + blobs.len() * 4 + total);
    frame_blobs_to(blobs, &mut out);
    Bytes::from(out)
}

/// [`frame_blobs`] through a recycled payload buffer (zero allocations
/// once the pool is warm).
pub fn frame_blobs_pooled(pool: &mut PayloadPool, blobs: &[Bytes]) -> Bytes {
    match pool.write_with(|buf| {
        frame_blobs_to(blobs, buf);
        Ok::<(), std::convert::Infallible>(())
    }) {
        Ok(b) => b,
        Err(e) => match e {},
    }
}

fn frame_blobs_to(blobs: &[Bytes], out: &mut Vec<u8>) {
    out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
    for b in blobs {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    }
    for b in blobs {
        out.extend_from_slice(b);
    }
}

/// Inverse of [`frame_blobs`]. Returns `None` on malformed input.
/// Splitting is zero-copy (`Bytes::slice`).
pub fn unframe_blobs(container: &Bytes) -> Option<Vec<Bytes>> {
    let mut blobs = Vec::new();
    unframe_blobs_into(container, &mut blobs)?;
    Some(blobs)
}

/// [`unframe_blobs`] into a reusable vector (cleared first). Returns
/// `None` on malformed input, leaving `blobs` in an unspecified but
/// valid state.
pub fn unframe_blobs_into(container: &Bytes, blobs: &mut Vec<Bytes>) -> Option<()> {
    blobs.clear();
    unframe_blobs_append(container, blobs)
}

/// [`unframe_blobs_into`] that *appends* to `blobs` instead of clearing
/// it — the shape the Bruck allgather's doubling steps need, where each
/// received container extends the held block set.
pub fn unframe_blobs_append(container: &Bytes, blobs: &mut Vec<Bytes>) -> Option<()> {
    if container.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(container[0..4].try_into().ok()?) as usize;
    let header = 4 + count * 4;
    if container.len() < header {
        return None;
    }
    let mut total = 0usize;
    for i in 0..count {
        let at = 4 + i * 4;
        total += u32::from_le_bytes(container[at..at + 4].try_into().ok()?) as usize;
    }
    if container.len() != header + total {
        return None;
    }
    let mut at = header;
    for i in 0..count {
        let s = u32::from_le_bytes(
            container[4 + i * 4..8 + i * 4]
                .try_into()
                .expect("validated above"),
        ) as usize;
        blobs.push(container.slice(at..at + s));
        at += s;
    }
    Some(())
}

/// `f32` slice → byte payload (little-endian).
pub fn values_to_bytes(values: &[f32]) -> Bytes {
    Bytes::from(ccoll_compress::f32s_to_bytes(values))
}

/// Byte payload → `f32` vector.
///
/// # Panics
/// Panics if the length is not a multiple of four.
pub fn bytes_to_values(bytes: &Bytes) -> Vec<f32> {
    ccoll_compress::bytes_to_f32s(bytes)
}

/// Decode a little-endian byte payload straight into an existing slice —
/// the zero-allocation counterpart of [`bytes_to_values`] used on
/// collective hot paths.
///
/// # Panics
/// Panics if `bytes.len() != dst.len() * 4`.
pub fn decode_values_into(bytes: &[u8], dst: &mut [f32]) {
    ccoll_compress::decode_f32s_into(bytes, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let blobs = vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from_static(b"z"),
        ];
        let c = frame_blobs(&blobs);
        let back = unframe_blobs(&c).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(&back[0][..], b"alpha");
        assert!(back[1].is_empty());
        assert_eq!(&back[2][..], b"z");
    }

    #[test]
    fn empty_container() {
        let c = frame_blobs(&[]);
        assert_eq!(unframe_blobs(&c).unwrap().len(), 0);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(unframe_blobs(&Bytes::from_static(b"")).is_none());
        assert!(unframe_blobs(&Bytes::from_static(b"\x01\x00\x00\x00")).is_none());
        // Declared size exceeds payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(b"short");
        assert!(unframe_blobs(&Bytes::from(bad)).is_none());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let c = frame_blobs(&[Bytes::from_static(b"ok")]);
        let mut v = c.to_vec();
        v.push(0xFF);
        assert!(unframe_blobs(&Bytes::from(v)).is_none());
    }

    #[test]
    fn value_conversion() {
        let vals = vec![1.5f32, -2.25, 0.0];
        let b = values_to_bytes(&vals);
        assert_eq!(b.len(), 12);
        assert_eq!(bytes_to_values(&b), vals);
    }
}
