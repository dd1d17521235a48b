//! # skil-array
//!
//! The paper's `pardata array <$t>`: a distributed array whose partitions
//! live one per processor of a [`skil_runtime`] machine.
//!
//! The design mirrors the paper's rules:
//!
//! * the **implementation is hidden** — user code sees only partition
//!   bounds ([`DistArray::part_bounds`]) and local element access
//!   ([`DistArray::get`] / [`DistArray::put`]); non-local access is a
//!   checked error, and non-local data moves only through skeletons
//!   (`skil-core`);
//! * arrays are distributed **block-wise** by default, onto the process
//!   grid implied by the requested virtual topology (`DISTR_DEFAULT`,
//!   `DISTR_RING`, `DISTR_TORUS2D`);
//! * the future-work extensions of the paper's §6 are included: cyclic
//!   and block-cyclic [`Distribution`]s and overlapping partitions
//!   ([`HaloArray`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod error;
pub mod halo;
pub mod layout;
pub mod shape;

pub use array::{ArraySpec, DistArray};
pub use error::{ArrayError, Result};
pub use halo::HaloArray;
pub use layout::{Distribution, Layout};
pub use shape::{idx1, idx2, Bounds, Index, Shape};
