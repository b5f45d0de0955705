//! The two C-Coll frameworks (the paper's core contribution, §III-A).
//!
//! * [`data_movement`] — for collectives that only *move* data (allgather,
//!   bcast, scatter, gather): the transferred bytes are never modified, so
//!   compression can happen **once** at the data's origin and
//!   decompression **once** at each final consumer, with every
//!   intermediate hop relaying opaque compressed bytes. This cuts the
//!   compression cost from `(N−1)·T` to `T` (ring) or `log₂N·T` to `T`
//!   (tree) and — just as importantly — caps the reconstruction error at
//!   a *single* compression error bound, independent of hop count.
//!
//! * [`computation`] — for collectives that *combine* data
//!   (reduce-scatter, allreduce): every round produces new values, so
//!   per-round compression is unavoidable; instead, the framework hides
//!   communication inside the compression/decompression kernels by
//!   running PIPE-SZx-style chunked kernels and draining the network
//!   between chunks (paper §III-E2).

pub mod computation;
pub mod data_movement;
