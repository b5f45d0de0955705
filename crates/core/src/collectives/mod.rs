//! What every schedule shares — tag spaces and the charged memcpy — plus
//! the paper's two baselines: uncompressed ([`baseline`]) and CPR-P2P,
//! compress-every-hop ([`cpr_p2p`]).
//!
//! Everything is generic over [`Comm`], so it runs unchanged on the
//! threaded runtime and on the virtual-time simulator. Tag spaces are
//! disjoint per collective family; within a family, rounds use consecutive
//! tags so ring steps cannot cross-match even when a rank races ahead.

pub mod baseline;
pub mod cpr_p2p;

use ccoll_comm::{Category, Comm, Kernel};

/// Tag bases per collective family (disjoint 4096-wide spaces).
pub(crate) mod tags {
    use ccoll_comm::Tag;

    pub const ALLGATHER: Tag = 0x1000;
    pub const REDUCE_SCATTER: Tag = 0x2000;
    pub const BCAST: Tag = 0x3000;
    pub const SCATTER: Tag = 0x4000;
    pub const GATHER: Tag = 0x5000;
    pub const RECURSIVE_DOUBLING: Tag = 0x6000;
    pub const ALLTOALL: Tag = 0x7000;
    pub const PIPELINE: Tag = 0x9000;
    pub const RABENSEIFNER: Tag = 0xA000;
    pub const BRUCK: Tag = 0xB000;
    pub const TREE_REDUCE: Tag = 0xC000;
    /// `Auto`'s control plane (`plan::agree_min`): two `0x400`-wide
    /// sub-bands, one per agreement a plan can run, so the one-shot
    /// re-rank and a calibration round never share a tag.
    pub const RERANK: Tag = 0xD000;
    pub const AGREE_RERANK: Tag = RERANK;
    pub const AGREE_CALIB: Tag = RERANK + 0x400;
    /// Round tags reserved per agreement phase: a phase over `g` ranks
    /// numbers its rounds `0..⌈log₂ g⌉`, so 32 covers any group size.
    pub const AGREE_ROUNDS: Tag = 32;
    /// Phase offsets inside an agreement sub-band; each phase numbers
    /// its rounds upwards from its offset.
    pub const AGREE_REDUCE: Tag = 0;
    pub const AGREE_EXCHANGE: Tag = AGREE_ROUNDS;
    pub const AGREE_BCAST: Tag = 2 * AGREE_ROUNDS;
    const _: () = {
        // Three phases of at least ⌈log₂ 1024⌉ rounds fit one sub-band,
        // and the band ends below the recovery control tags
        // (`ccoll_comm::recover`, 0xE000 upwards).
        assert!(AGREE_ROUNDS >= 10);
        assert!(AGREE_BCAST + AGREE_ROUNDS <= 0x400);
        assert!(AGREE_CALIB + 0x400 <= 0xE000);
    };
    const _: () = {
        // A family's placement sub-bands (`Placement::band`) are ordered
        // and disjoint, and the highest tag any of them reaches — the
        // butterfly's `+ 999` unfold on the top band — stays inside the
        // family's 4096-wide space.
        use crate::frameworks::computation::PipelineConfig;
        use crate::placement::Placement;
        let cfg = PipelineConfig {
            error_bound: 0.0,
            chunk_values: 1,
        };
        let (raw, cpr) = (Placement::Raw.band(), Placement::Cpr.band());
        let piped = Placement::Piped(cfg).band();
        assert!(raw < cpr && cpr < piped && piped == Placement::ONCE_BAND);
        assert!(piped + 999 < 0x1000);
    };
    /// Hierarchical glue traffic (root→leader hand-offs); the two-level
    /// phases themselves reuse the per-family spaces above, isolated by
    /// disjoint member sets.
    pub const HIER: Tag = 0xF000;
    const _: () = {
        // The wire-tag layout, whole: schedule tags end with bit 15 (the
        // top family sits above `ccoll_comm`'s recovery control band,
        // 0xE000..0xF000), and every per-operation base stays clear of
        // them and of the shrink-epoch field, at or above the floor
        // `abort_cleanup` purges from. The views OR the three together;
        // disjoint bits are what make that an addition.
        use crate::plan::op_base;
        assert!(HIER >= 0xF000 && HIER + 0xFFF < 1 << 16);
        let (mut bits, mut slot) = (0, 0);
        while slot < 1023 {
            bits |= op_base(slot, 0) | op_base(slot, 1);
            slot += 1;
        }
        assert!(bits & (ccoll_comm::EPOCH_FIELD | 0xFFFF) == 0);
        assert!(op_base(0, 0) >= ccoll_comm::OP_TAG_FLOOR);
    };
}

/// Copy values with `Memcpy` accounting.
pub(crate) fn memcpy_in<C: Comm>(comm: &mut C, dst: &mut [f32], src: &[f32]) {
    comm.run_kernel(Kernel::Memcpy, src.len() * 4, Category::Memcpy, || {
        dst.copy_from_slice(src);
    });
}
