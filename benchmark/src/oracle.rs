//! Inputs and the correctness oracle. Inputs come from `--seed` alone;
//! the program under test only ever sees the generated buffers.

use std::sync::Arc;
use std::time::Instant;

use c_coll::{theory, CodecSpec};
use ccoll_data::Dataset;

use crate::spec::{Shape, Workload};

/// One input buffer per rank.
pub struct Inputs {
    /// `per_rank[r]` is rank `r`'s contribution.
    pub per_rank: Vec<Arc<Vec<f32>>>,
    /// Wall time generating them took (`data.fields.gen_ms`).
    pub gen_ms: f64,
}

/// The dataset seed of rank `rank` in input set `set` under run seed
/// `seed`: distinct per (seed, set, rank), so a new seed gives every
/// rank a new field.
fn rank_seed(seed: u64, set: usize, rank: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((set as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(rank as u64)
}

/// Generate input set `set` for `world` ranks: Hurricane fields of `len`
/// values, on as many threads as the machine has cores. Only the first
/// `distinct` ranks get a field of their own — a broadcast reads the
/// root's buffer only — and the rest share the last one.
pub fn generate(len: usize, world: usize, distinct: usize, seed: u64, set: usize) -> Inputs {
    let t0 = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let distinct = distinct.clamp(1, world);
    let mut fields: Vec<Arc<Vec<f32>>> = (0..distinct).map(|_| Arc::default()).collect();
    let share = distinct.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, part) in fields.chunks_mut(share).enumerate() {
            s.spawn(move || {
                for (i, slot) in part.iter_mut().enumerate() {
                    let seed = rank_seed(seed, set, t * share + i);
                    *slot = Arc::new(Dataset::Hurricane.generate(len, seed));
                }
            });
        }
    });
    let per_rank = (0..world)
        .map(|r| Arc::clone(&fields[r.min(distinct - 1)]))
        .collect();
    Inputs {
        per_rank,
        gen_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Unit roundoff of `f32`.
const U32: f64 = 5.960_464_477_539_063e-8;

/// The exact result of a collective in `f64`, and the error each element
/// of a computed result may carry.
pub struct Oracle {
    reference: Vec<f64>,
    bound: Bound,
}

enum Bound {
    /// The codec's bound, the same for every element.
    Uniform(f64),
    /// The `f32` summation tolerance `n·u·Σ|xᵢ|`, per element.
    PerElement(Vec<f64>),
}

impl Oracle {
    /// The oracle for `w` run on the first `world` ranks of `inputs`.
    pub fn new(w: &Workload, inputs: &Inputs, world: usize) -> Oracle {
        let len = w.len;
        if w.shape == Shape::Bcast {
            let eb = w
                .codec
                .error_bound()
                .expect("the broadcast workload uses an error-bounded codec");
            return Oracle {
                reference: inputs.per_rank[0].iter().map(|&v| f64::from(v)).collect(),
                bound: Bound::Uniform(f64::from(eb)),
            };
        }
        let mut reference = vec![0.0f64; len];
        let mut abs_sum = vec![0.0f64; len];
        for x in &inputs.per_rank[..world] {
            for ((r, a), &v) in reference.iter_mut().zip(&mut abs_sum).zip(x.iter()) {
                *r += f64::from(v);
                *a += f64::from(v).abs();
            }
        }
        let bound = match w.codec {
            CodecSpec::None => Bound::PerElement(
                abs_sum
                    .iter()
                    .map(|a| (world as f64 * U32 * a).max(f64::MIN_POSITIVE))
                    .collect(),
            ),
            spec => {
                let eb = spec
                    .error_bound()
                    .expect("compressed workloads use an error-bounded codec");
                Bound::Uniform(theory::sum_error_worst_case(world, f64::from(eb)))
            }
        };
        Oracle { reference, bound }
    }

    /// The largest `|out − reference| ÷ bound` over all elements. A
    /// result is correct when this is at most 1; a non-finite output
    /// element reads as infinitely wrong.
    pub fn err_over_bound(&self, out: &[f32]) -> f64 {
        assert_eq!(out.len(), self.reference.len(), "result length");
        let ratio = |err: f64, bound: f64| {
            if err.is_finite() {
                err / bound
            } else {
                f64::INFINITY
            }
        };
        let errs = out
            .iter()
            .zip(&self.reference)
            .map(|(&o, &r)| (f64::from(o) - r).abs());
        match &self.bound {
            Bound::Uniform(b) => errs.fold(0.0, |m, e| m.max(ratio(e, *b))),
            Bound::PerElement(bs) => errs.zip(bs).fold(0.0, |m, (e, &b)| m.max(ratio(e, b))),
        }
    }
}

/// A 64-bit digest of a buffer's exact bits, to compare results across
/// ranks and executions without keeping the buffers.
pub fn bits_digest(values: &[f32]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits()))
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn tiny(name: &str, len: usize) -> Workload {
        Workload {
            len,
            ..*workload(name).unwrap()
        }
    }

    #[test]
    fn same_seed_same_inputs_new_seed_new_inputs() {
        let a = generate(4096, 3, 3, 7, 0);
        let b = generate(4096, 3, 3, 7, 0);
        let c = generate(4096, 3, 3, 8, 0);
        let d = generate(4096, 3, 3, 7, 1);
        assert_eq!(a.per_rank.len(), 3);
        for r in 0..3 {
            assert_eq!(a.per_rank[r], b.per_rank[r]);
            assert_ne!(a.per_rank[r], c.per_rank[r]);
            assert_ne!(a.per_rank[r], d.per_rank[r]);
        }
        assert_ne!(a.per_rank[0], a.per_rank[1]);
        // Ranks past `distinct` share the last field.
        let e = generate(4096, 4, 2, 7, 0);
        assert_eq!(e.per_rank[0], a.per_rank[0]);
        assert!(Arc::ptr_eq(&e.per_rank[1], &e.per_rank[3]));
    }

    #[test]
    fn allreduce_bound_is_n_times_eb_and_catches_a_wrong_element() {
        let w = tiny("ar_szx_4m", 1024);
        let inputs = generate(w.len, 4, 4, 1, 0);
        let oracle = Oracle::new(&w, &inputs, 4);
        let exact: Vec<f32> = (0..w.len)
            .map(|i| inputs.per_rank.iter().map(|x| x[i]).sum())
            .collect();
        assert!(oracle.err_over_bound(&exact) < 0.01);
        let mut off = exact.clone();
        off[17] += 2.0e-3; // half of 4 × 1e-3
        let r = oracle.err_over_bound(&off);
        assert!((0.49..0.51).contains(&r), "{r}");
        off[17] = f32::NAN;
        assert!(oracle.err_over_bound(&off) > 1.0);
    }

    #[test]
    fn raw_tolerance_accepts_any_summation_order_only() {
        let w = tiny("ar_raw_4m", 1024);
        let inputs = generate(w.len, 8, 8, 2, 0);
        let oracle = Oracle::new(&w, &inputs, 8);
        let forward: Vec<f32> = (0..w.len)
            .map(|i| inputs.per_rank.iter().map(|x| x[i]).sum())
            .collect();
        let backward: Vec<f32> = (0..w.len)
            .map(|i| inputs.per_rank.iter().rev().map(|x| x[i]).sum())
            .collect();
        assert!(oracle.err_over_bound(&forward) <= 1.0);
        assert!(oracle.err_over_bound(&backward) <= 1.0);
        let mut off = forward;
        off[0] += 1.0e-4;
        assert!(oracle.err_over_bound(&off) > 1.0);
    }

    #[test]
    fn bcast_bound_is_eb_against_the_roots_buffer() {
        let w = tiny("bcast_szx_4m", 512);
        let inputs = generate(w.len, 2, 2, 3, 0);
        let oracle = Oracle::new(&w, &inputs, 2);
        let mut out = inputs.per_rank[0].to_vec();
        assert_eq!(oracle.err_over_bound(&out), 0.0);
        out[5] += 5.0e-4;
        let r = oracle.err_over_bound(&out);
        assert!((0.49..0.51).contains(&r), "{r}");
    }

    #[test]
    fn digest_sees_a_single_flipped_bit() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(bits_digest(&a), bits_digest(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(bits_digest(&a), bits_digest(&b));
    }
}
