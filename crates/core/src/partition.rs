//! Buffer partitioning for scatter/reduce-scatter chunking.
//!
//! Ring algorithms split the input into one chunk per rank. The paper's
//! chunk sizes are "determined by dividing the size of the input data by
//! the number of processes" (§III-A2); this module provides the canonical
//! balanced partition (earlier chunks get the remainder) plus offset
//! helpers, so every collective agrees on chunk boundaries.

/// Per-rank chunk lengths for a buffer of `len` values split across `n`
/// ranks: the first `len % n` chunks get one extra element.
///
/// # Panics
/// Panics if `n == 0`.
pub fn chunk_lengths(len: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    chunk_lengths_into(len, n, &mut out);
    out
}

/// [`chunk_lengths`] into a reusable vector (cleared first) — the
/// allocation-free variant collective workspaces cache per call.
///
/// # Panics
/// Panics if `n == 0`.
pub fn chunk_lengths_into(len: usize, n: usize, out: &mut Vec<usize>) {
    assert!(n > 0, "cannot partition across zero ranks");
    let base = len / n;
    let extra = len % n;
    out.clear();
    out.extend((0..n).map(|i| base + usize::from(i < extra)));
}

/// The span of chunk `i` under [`chunk_lengths`]`(len, n)`, without
/// building the tables.
///
/// # Panics
/// Panics if `i >= n`.
pub fn chunk_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    assert!(i < n, "chunk {i} of {n}");
    let (base, extra) = (len / n, len % n);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Exclusive prefix sums of [`chunk_lengths`]: chunk `i` spans
/// `offsets[i]..offsets[i] + lengths[i]`.
pub fn chunk_offsets(lengths: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(lengths.len());
    chunk_offsets_into(lengths, &mut offsets);
    offsets
}

/// [`chunk_offsets`] into a reusable vector (cleared first).
pub fn chunk_offsets_into(lengths: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let mut acc = 0;
    for &l in lengths {
        out.push(acc);
        acc += l;
    }
}

/// The sub-slice of `data` belonging to chunk `i` under the balanced
/// partition across `n` ranks.
pub fn chunk_of(data: &[f32], i: usize, n: usize) -> &[f32] {
    let lengths = chunk_lengths(data.len(), n);
    let offsets = chunk_offsets(&lengths);
    &data[offsets[i]..offsets[i] + lengths[i]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        assert_eq!(chunk_lengths(12, 4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn remainder_goes_to_early_chunks() {
        assert_eq!(chunk_lengths(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(chunk_lengths(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(chunk_lengths(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn offsets_tile_the_buffer() {
        let lens = chunk_lengths(17, 5);
        let offs = chunk_offsets(&lens);
        assert_eq!(offs[0], 0);
        for i in 1..5 {
            assert_eq!(offs[i], offs[i - 1] + lens[i - 1]);
        }
        assert_eq!(offs[4] + lens[4], 17);
        for i in 0..5 {
            assert_eq!(chunk_range(17, 5, i), offs[i]..offs[i] + lens[i]);
        }
        assert_eq!(chunk_range(3, 4, 3), 3..3);
    }

    #[test]
    fn chunk_of_covers_everything() {
        let data: Vec<f32> = (0..23).map(|i| i as f32).collect();
        let n = 6;
        let mut rebuilt = Vec::new();
        for i in 0..n {
            rebuilt.extend_from_slice(chunk_of(&data, i, n));
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        chunk_lengths(10, 0);
    }
}
