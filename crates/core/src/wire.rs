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

/// Frame `blobs` into a single container payload, through a recycled
/// payload buffer (zero allocations once the pool is warm).
pub fn frame_blobs_pooled(pool: &mut PayloadPool, blobs: &[Bytes]) -> Bytes {
    match pool.write_with(|out| {
        out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
        for b in blobs {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        }
        for b in blobs {
            out.extend_from_slice(b);
        }
        Ok::<(), std::convert::Infallible>(())
    }) {
        Ok(b) => b,
        Err(e) => match e {},
    }
}

/// Inverse of [`frame_blobs_pooled`], into a reusable vector (cleared
/// first). Splitting is zero-copy (`Bytes::slice`). Returns `None` on
/// malformed input, leaving `blobs` in an unspecified but valid state.
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

/// Decode a little-endian byte payload straight into an existing slice,
/// allocation-free, as the collective hot paths need.
///
/// # Panics
/// Panics if `bytes.len() != dst.len() * 4`.
pub fn decode_values_into(bytes: &[u8], dst: &mut [f32]) {
    ccoll_compress::decode_f32s_into(bytes, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unframe(container: &Bytes) -> Option<Vec<Bytes>> {
        let mut blobs = vec![Bytes::from_static(b"stale")];
        unframe_blobs_into(container, &mut blobs).map(|()| blobs)
    }

    #[test]
    fn frame_round_trip() {
        let blobs = vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from_static(b"z"),
        ];
        let c = frame_blobs_pooled(&mut PayloadPool::new(), &blobs);
        let back = unframe(&c).unwrap();
        assert_eq!(back, blobs);
        // Appending keeps what the vector already held.
        let mut held = vec![Bytes::from_static(b"held")];
        unframe_blobs_append(&c, &mut held).unwrap();
        assert_eq!(held.len(), 4);
        assert_eq!(&held[0][..], b"held");
        assert_eq!(held[1..], blobs[..]);
    }

    #[test]
    fn empty_container() {
        let c = frame_blobs_pooled(&mut PayloadPool::new(), &[]);
        assert_eq!(unframe(&c).unwrap().len(), 0);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(unframe(&Bytes::from_static(b"")).is_none());
        assert!(unframe(&Bytes::from_static(b"\x01\x00\x00\x00")).is_none());
        // Declared size exceeds payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(b"short");
        assert!(unframe(&Bytes::from(bad)).is_none());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let c = frame_blobs_pooled(&mut PayloadPool::new(), &[Bytes::from_static(b"ok")]);
        let mut v = c.to_vec();
        v.push(0xFF);
        assert!(unframe(&Bytes::from(v)).is_none());
    }

    #[test]
    fn value_conversion() {
        let vals = [1.5f32, -2.25, 0.0];
        let b: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(b.len(), 12);
        let mut back = [f32::NAN; 3];
        decode_values_into(&b, &mut back);
        assert_eq!(back, vals);
    }
}
