//! Message-tag spaces reserved by the skeletons.
//!
//! Skeleton communication is deterministic: every receive names its
//! source and tag, and per-(source, tag) FIFO order is preserved by the
//! runtime, so consecutive skeleton invocations cannot confuse each
//! other's messages. Tags only need to separate *concurrently pending*
//! message classes within one skeleton.

/// `array_fold` reduction + broadcast.
pub const FOLD: u64 = 0x0100_0000;
/// `array_broadcast_part`.
pub const BCAST_PART: u64 = 0x0200_0000;
/// `array_permute_rows`; the low bits carry the destination row.
pub const PERMUTE: u64 = 0x0400_0000;
/// `array_gen_mult` alignment and rotation of the first operand.
pub const GEN_MULT_A: u64 = 0x0800_0000;
/// `array_gen_mult` alignment and rotation of the second operand.
pub const GEN_MULT_B: u64 = 0x0900_0000;
/// Halo exchange, north-bound edge.
pub const HALO_N: u64 = 0x0A00_0000;
/// Halo exchange, south-bound edge.
pub const HALO_S: u64 = 0x0B00_0000;
/// Task-parallel farm result collection; low bits carry the task index.
pub const FARM: u64 = 0x0C00_0000;
/// Divide&conquer problem distribution; low bits carry the level.
pub const DC_DOWN: u64 = 0x0D00_0000;
/// Divide&conquer solution collection; low bits carry the level.
pub const DC_UP: u64 = 0x0E00_0000;
/// `array_scan` (prefix) tree phases.
pub const SCAN: u64 = 0x1000_0000;
