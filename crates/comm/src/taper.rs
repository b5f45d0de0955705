//! How a link-bound raw stream cuts its payload.
//!
//! A raw two-party stream (a reducing hop, a relayed allgather block)
//! sends every piece at once and its receiver works on each piece — a
//! fold, a copy into place — as it lands. When the link is slower than
//! that work, a piece's work hides under the next piece's transfer, and
//! what the stream exposes past its wire time `kα + dβ` is the work on
//! its last piece. A uniform cut pays a latency per pipe-sized piece and
//! still exposes a whole pipe's work; a [`Taper`] cuts largest first,
//! each piece the largest whose work still finishes before the next one
//! lands, so the pieces shrink geometrically (by `β` × the work's rate)
//! down to a tail whose size is priced against the latency one more
//! piece costs.
//!
//! Both ends of a stream derive the same cut from the same inputs (the
//! length, the [`NetModel`] and the kernel rate), so no message carries
//! it; computing a piece allocates nothing.

use std::ops::Range;

use crate::sim::NetModel;

/// The cut of a link-bound raw stream (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Taper {
    /// Link time per byte over work time per byte (> 1).
    ratio: f64,
    /// One message's latency, in values of work.
    lat: f64,
    /// Latencies each piece costs per exposed tail: a relay pays its
    /// pieces in every round and exposes only the last round's tail.
    rounds: f64,
}

impl Taper {
    /// The cut of a stream over `net` whose receiver works through every
    /// piece at `work` bytes per second, paying each piece's latency
    /// `rounds` times per exposed tail; `None` unless the link is slower
    /// than the work (a work-bound receiver never waits on the link, so
    /// it keeps a uniform cut) and both are priced.
    pub fn new(net: &NetModel, work: f64, rounds: usize) -> Option<Self> {
        let ratio = work / net.bandwidth;
        let lat = net.latency.as_secs_f64() * work / 4.0;
        let priced = ratio.is_finite() && lat.is_finite();
        (priced && ratio > 1.0).then_some(Taper {
            ratio,
            lat,
            rounds: rounds.max(1) as f64,
        })
    }

    /// The constant term of the piece recurrence: one latency less a
    /// margin for rounding piece edges to whole values, so every rounded
    /// piece's work still finishes before the next one lands.
    fn slack(&self) -> f64 {
        self.lat - 2.0 * (1.0 + self.ratio)
    }

    /// `(k, tail)`: the piece count and the (real) tail of a `len`-value
    /// stream. Read from the tail back, piece `i + 1` is `ratio·tᵢ +
    /// slack`, so `k` pieces sum to `tail·G + slack·H` with `G = Σ
    /// ratioⁱ` and `H = Σ` of the partial `G`s; `k` is the argmin of
    /// `rounds·k·lat + tail` (latencies against the exposed work) over
    /// the counts whose pieces are two values or more and shrink from
    /// the head.
    fn shape(&self, len: usize) -> (usize, f64) {
        let (len, slack) = (len as f64, self.slack());
        let price = |k: usize, tail: f64| self.rounds * self.lat * k as f64 + tail;
        let (mut g, mut h) = (1.0, 0.0);
        let mut best = (1, len);
        for k in 2.. {
            h += g;
            g = self.ratio * g + 1.0;
            let tail = (len - slack * h) / g;
            let shrinks = (self.ratio - 1.0) * tail + slack >= 0.0;
            if tail < 2.0 || !shrinks || price(k, tail) >= price(best.0, best.1) {
                break;
            }
            best = (k, tail);
        }
        best
    }

    /// Pieces a `len`-value stream travels as (one for an empty one).
    pub fn pieces(&self, len: usize) -> usize {
        self.shape(len).0
    }

    /// The values of piece `j` of a `len`-value stream, head first:
    /// piece `j` starts where the `k − j` pieces from it on begin.
    pub fn piece(&self, j: usize, len: usize) -> Range<usize> {
        let (k, tail) = self.shape(len);
        let start = |j: usize| match j {
            0 => 0,
            j => len - self.back(k - j, tail, len),
        };
        start(j.min(k))..start((j + 1).min(k))
    }

    /// The values of the last `behind` pieces of a `len`-value stream
    /// with this tail, rounded to whole values.
    fn back(&self, behind: usize, tail: f64, len: usize) -> usize {
        let (mut g, mut h) = (0.0, 0.0);
        for _ in 0..behind {
            h += g;
            g = self.ratio * g + 1.0;
        }
        ((tail * g + self.slack() * h).round() as usize).min(len)
    }
}

/// How a stream cuts a buffer into sub-chunks: in `pipe`-value ones
/// ([`Cut::WHOLE`]: one), or — a flat plan's link-bound raw stream
/// longer than one pipe — in its [`Taper`]'s pieces, largest first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cut {
    pipe: usize,
    taper: Option<Taper>,
}

impl Cut {
    /// One unbounded sub-chunk.
    pub const WHOLE: Cut = Cut::pipe(usize::MAX);

    /// Uniform `pipe`-value sub-chunks.
    pub const fn pipe(pipe: usize) -> Self {
        Cut { pipe, taper: None }
    }

    /// `taper`'s pieces past one `pipe`, one sub-chunk up to it.
    pub const fn tapered(pipe: usize, taper: Option<Taper>) -> Self {
        Cut { pipe, taper }
    }

    /// Whether a buffer longer than one pipe runs a taper.
    pub fn is_tapered(self) -> bool {
        self.taper.is_some()
    }

    /// Sub-chunks a `len`-value buffer travels as (none when empty).
    pub fn count(self, len: usize) -> usize {
        match self.taper {
            Some(taper) if len > self.pipe => taper.pieces(len),
            _ => len.div_ceil(self.pipe),
        }
    }

    /// The values of sub-chunk `j` of a `len`-value buffer.
    pub fn range(self, j: usize, len: usize) -> Range<usize> {
        match self.taper {
            Some(taper) if len > self.pipe => taper.piece(j, len),
            _ => {
                let lo = j.saturating_mul(self.pipe).min(len);
                lo..len.min(lo.saturating_add(self.pipe))
            }
        }
    }
}
