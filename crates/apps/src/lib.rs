//! # skil-apps
//!
//! The paper's applications — shortest paths in graphs (§4.1), Gaussian
//! elimination with and without pivoting (§4.2), classical matrix
//! multiplication (§5.1), and the introduction's quicksort — each in the
//! guises the evaluation compares:
//!
//! * **Skil**: the skeleton programs, structurally verbatim from the
//!   paper;
//! * **Parix-C**: hand-written message-passing implementations (both the
//!   "older" shortest-paths comparator of Table 1 and equally optimized
//!   versions);
//! * **DPFL**: the data-parallel functional language model of [7, 8]
//!   (see [`dpfl`]).
//!
//! All versions compute *real values* (verified against sequential
//! references in the test suite) while charging their own calibrated
//! virtual-cycle costs, so the simulated run times reproduce the shape
//! of the paper's Tables 1-2 and Figure 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod dpfl;
pub mod gauss;
pub mod jacobi;
pub mod matmul;
pub mod outcome;
pub mod quicksort;
pub mod shortest_paths;
pub mod tags;
pub mod workload;

pub use gauss::{gauss_dpfl, gauss_parix_c, gauss_skil, gauss_skil_pivot};
pub use jacobi::{jacobi_dpfl, jacobi_parix_c, jacobi_skil};
pub use matmul::{matmul_c_opt, matmul_skil};
pub use outcome::AppOutcome;
pub use quicksort::quicksort_skil;
pub use shortest_paths::{shpaths_c_old, shpaths_c_opt, shpaths_dpfl, shpaths_skil};
