//! # ldpc-codes — block-structured (quasi-cyclic) LDPC code constructions
//!
//! This crate provides the *code substrate* for the reconfigurable
//! multi-standard LDPC decoder reproduction: quasi-cyclic (QC), block-structured
//! parity-check matrices of the kind used by IEEE 802.11n (WLAN), IEEE 802.16e
//! (WiMax) and DMB-T, together with a systematic encoder and the layered views
//! that the layered belief-propagation decoder consumes.
//!
//! A block-structured parity-check matrix `H` is a `j × k` array of `z × z`
//! sub-matrices, each of which is either the all-zero matrix or a cyclically
//! shifted identity matrix `I_x` with shift `0 ≤ x < z` (Fig. 1 of the paper).
//!
//! For decoding hot paths, [`compiled::CompiledCode`] flattens a [`QcCode`]
//! into a CSR-style layer schedule with precomputed circulant-shift index
//! tables — compile once per code, decode millions of frames.
//!
//! ## Standard families
//!
//! The exact base matrices of the IEEE / DMB-T standards are copyrighted
//! standard text, so this crate ships *standard-compatible synthetic
//! constructions* with identical structural parameters (Table 1 of the paper):
//!
//! | family | `j` (block rows) | `k` (block cols) | `z` (sub-matrix size) |
//! |--------|------------------|------------------|-----------------------|
//! | WLAN 802.11n  | 4–12  | 24 | 27–81  |
//! | WiMax 802.16e | 4–12  | 24 | 24–96  |
//! | DMB-T         | 24–48 | 60 | 127    |
//!
//! The parity part of every generated base matrix is dual-diagonal (WiMax
//! style, with a weight-3 first parity column) so that systematic encoding by
//! back-substitution is always possible; the information part uses
//! deterministic pseudo-random circulant shifts with 4-cycle avoidance.
//!
//! ## Quick example
//!
//! ```
//! use ldpc_codes::{CodeId, CodeRate, Standard};
//!
//! // The WiMax-class rate-1/2 code with 2304-bit codewords (z = 96).
//! let id = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
//! let code = id.build().expect("supported code");
//! assert_eq!(code.n(), 2304);
//! assert_eq!(code.z(), 96);
//! assert_eq!(code.block_rows(), 12);
//! assert_eq!(code.block_cols(), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base_matrix;
pub mod compiled;
pub mod construction;
pub mod dense;
pub mod encoder;
pub mod error;
pub mod girth;
pub mod layers;
pub mod puncture;
pub mod qc;
pub mod standard;

mod families;
pub use families::{design_parameters, dmbt, wifi, wimax, FamilyDesignParameters};

pub use base_matrix::{BaseMatrix, ShiftScaling};
pub use compiled::{CompiledCode, CompiledEntry, LaneLayer};
pub use construction::{ConstructionParams, ParityStructure};
pub use dense::DenseParityCheck;
pub use encoder::Encoder;
pub use error::CodeError;
pub use girth::CycleReport;
pub use layers::{stall_minimizing_order, Layer, LayerEntry, LayerSchedule};
pub use puncture::PuncturePattern;
pub use qc::QcCode;
pub use standard::{CodeId, CodeRate, CodeSpec, Standard};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodeError>;
