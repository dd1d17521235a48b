//! # skil-core
//!
//! The Skil algorithmic skeletons. "Skeletons are embedded into a
//! sequential host language, thus representing the only way to express
//! parallelism in a program."
//!
//! Data-parallel skeletons over the distributed array (`skil-array`):
//!
//! * [`array_create`] / [`array_destroy`]
//! * [`array_map`] (+ in-place, cost-reporting, and zip variants)
//! * [`array_fold`] (convert + tree-reduce + broadcast)
//! * [`array_copy`]
//! * [`array_broadcast_part`]
//! * [`array_permute_rows`]
//! * [`array_gen_mult`] (Gentleman's rotating distributed matrix
//!   multiplication, parameterized over any (+,·)-like pattern)
//! * [`halo_exchange`] / [`stencil_map`] (the paper's §6 future work)
//!
//! Process-parallel skeletons: [`farm`] and [`divide_conquer`].
//!
//! Every skeleton takes its customizing argument functions as
//! [`Kernel`]s: a real closure plus the virtual-cycle cost the calibrated
//! T800 model charges per invocation (see `skil-runtime::CostModel`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod copy;
pub mod create;
pub mod fold;
pub mod gen_mult;
pub mod halo_skel;
pub mod kernel;
pub mod map;
pub mod scan;
pub mod tags;
pub mod task;

pub use comm::{array_broadcast_part, array_permute_rows, switch_rows};
pub use copy::array_copy;
pub use create::{array_create, array_destroy};
pub use fold::{array_fold, array_fold_bulk, array_fold_to_root, fold_local};
pub use gen_mult::{array_gen_mult, array_gen_mult_blocks, block_mult_add};
pub use halo_skel::{halo_exchange, stencil_map};
pub use kernel::Kernel;
pub use map::{
    array_map, array_map_inplace, array_map_inplace_with_cost, array_map_with_cost, array_zip,
};
pub use scan::array_scan;
pub use task::{dc_seq, divide_conquer, farm, DcOps};
