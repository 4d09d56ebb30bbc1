//! Precompiled decode schedule of a quasi-cyclic code.
//!
//! [`QcCode`] stores the base-matrix view of the code; turning that view into
//! the column indices a decoder walks costs one `(r + shift) mod z` per edge
//! per frame, plus re-deriving per-layer entry offsets and (for the shuffled
//! schedule) the stall-minimizing layer order. [`CompiledCode`] hoists all of
//! that out of the per-frame hot path, mirroring how the paper's architecture
//! keeps the schedule in the control ROM and streams only messages through the
//! SISO array:
//!
//! * a CSR-style flattened layer schedule (`layer_ptr` into `entries`),
//! * per-entry precomputed edge offsets (`edge_base = entry_index · z`),
//! * a full circulant-shift index table `col_index` mapping every edge
//!   `(entry, r)` to its expanded column, so the inner decode loop is pure
//!   table lookups with no modulo arithmetic, and
//! * a **lane-major SoA layout** ([`LaneLayer`]) exposing, per layer, the
//!   block-column bases and circulant shifts as parallel arrays — the form
//!   consumed by the lane-parallel SISO kernels (see the gather/scatter
//!   contract below).
//!
//! # The lane-major gather/scatter contract
//!
//! The `z` rows of one layer are processed by `z` parallel SISO units in the
//! paper's architecture; in software they are the `z` *lanes* of the kernel
//! layer. For a layer entry (one non-zero circulant block) with block-column
//! base `c = col_base` and shift `s`, lane `r` of that entry touches:
//!
//! * **Λ memory** at `edge_base + r` — already lane-contiguous, so reads and
//!   writes of a whole entry are one stride-1 slice `[edge_base, edge_base+z)`;
//! * **L memory** (the APP values) at `c + ((r + s) mod z)` — a *rotation* of
//!   the contiguous block column `[c, c+z)`. Because the rotation is a
//!   bijection, the lane-major gather of all `z` lanes decomposes into exactly
//!   two stride-1 slice copies: lanes `0..z−s` map to `[c+s, c+z)` and lanes
//!   `z−s..z` map to `[c, c+s)`.
//!
//! Consequently the whole layer update is pure stride-1 gather/compute/scatter
//! over `[edge_base, edge_base+z)` Λ-slices and rotated L-slices, with no
//! per-edge index arithmetic at all. Within one layer every block column
//! appears in at most one entry and the per-entry rotation is a bijection, so
//! the lanes of a layer touch pairwise disjoint L addresses — the
//! independence that lets hardware run `z` SISO units in lock-step and lets
//! software vectorise across lanes. The per-edge `col_index` table (the
//! expanded form of the same mapping) is retained for the row-serial
//! reference path; [`CompiledCode::syndrome_ok`] runs on the same contract,
//! over a block-doubled copy of the hard decisions in which every rotation
//! is one span.
//!
//! Compile once per code, decode millions of frames.

use crate::layers::LayerSchedule;
use crate::qc::QcCode;
use crate::standard::CodeSpec;

/// One non-zero block of the flattened schedule, with precomputed offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledEntry {
    /// Block-column index in `0..k`.
    pub block_col: u32,
    /// Circulant shift in `0..z`.
    pub shift: u32,
    /// First expanded column of the block: `block_col · z`.
    pub col_base: u32,
    /// First edge index of the block: `entry_index · z`. Edge `(entry, r)`
    /// lives at `edge_base + r`, matching the Λ-memory bank layout.
    pub edge_base: u32,
}

/// Lane-major SoA view of one layer's schedule: parallel arrays over the
/// layer's entries (non-zero circulant blocks), in slot order.
///
/// For slot `i`, lane `r` reads/writes Λ at `edge_base[i] + r` and the APP
/// value at `col_base[i] + ((r + shift[i]) mod z)`; see the module-level
/// gather/scatter contract for how that rotation becomes two stride-1 slice
/// copies.
#[derive(Debug, Clone, Copy)]
pub struct LaneLayer<'a> {
    /// First expanded column of each entry's block (`block_col · z`).
    pub col_base: &'a [u32],
    /// Circulant shift of each entry, in `0..z`.
    pub shift: &'a [u32],
    /// First edge index of each entry (`entry_index · z`).
    pub edge_base: &'a [u32],
}

impl LaneLayer<'_> {
    /// Number of entries (= the check-node degree of the layer's rows).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.col_base.len()
    }
}

/// A [`QcCode`] flattened into the table form the decode engine consumes.
///
/// ```
/// use ldpc_codes::{CodeId, CodeRate, CompiledCode, Standard};
///
/// let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
///     .build()
///     .unwrap();
/// let compiled = CompiledCode::compile(&code);
/// assert_eq!(compiled.n(), code.n());
/// assert_eq!(compiled.num_edges(), code.num_edges());
/// // Every edge's column matches the QcCode view.
/// for l in 0..compiled.block_rows() {
///     for (slot, e) in compiled.layer_entries(l).iter().enumerate() {
///         for r in 0..compiled.z() {
///             let col = compiled.edge_col(e.edge_base as usize + r);
///             assert_eq!(col, code.row_neighbors(l * compiled.z() + r)[slot]);
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCode {
    spec: CodeSpec,
    num_edges: usize,
    max_degree: usize,
    /// Non-zero blocks of every layer, flattened in layer order.
    entries: Vec<CompiledEntry>,
    /// CSR pointers into `entries`, length `block_rows + 1`.
    layer_ptr: Vec<u32>,
    /// Expanded column of every edge, indexed `entry_index · z + r`.
    col_index: Vec<u32>,
    /// SoA mirror of `entries.col_base`, for the lane-major kernels.
    lane_col_base: Vec<u32>,
    /// SoA mirror of `entries.shift`.
    lane_shift: Vec<u32>,
    /// SoA mirror of `entries.edge_base`.
    lane_edge_base: Vec<u32>,
    /// Greedy stall-minimizing layer order (§III-C); costs O(j²·d) at
    /// compile time, microseconds against the O(E·z) table build.
    stall_order: Vec<u32>,
}

impl CompiledCode {
    /// Flattens `code` into table form. O(E·z) time and memory, run once per
    /// code rather than once per frame.
    #[must_use]
    pub fn compile(code: &QcCode) -> Self {
        let z = code.z();
        let mut entries = Vec::with_capacity(code.nnz_blocks());
        let mut layer_ptr = Vec::with_capacity(code.block_rows() + 1);
        layer_ptr.push(0u32);
        for layer in code.layers() {
            for e in &layer.entries {
                let entry_index = entries.len();
                entries.push(CompiledEntry {
                    block_col: e.block_col as u32,
                    shift: e.shift as u32,
                    col_base: (e.block_col * z) as u32,
                    edge_base: (entry_index * z) as u32,
                });
            }
            layer_ptr.push(entries.len() as u32);
        }
        let mut col_index = Vec::with_capacity(entries.len() * z);
        for e in &entries {
            for r in 0..z {
                col_index.push(e.col_base + ((r as u32 + e.shift) % z as u32));
            }
        }
        let lane_col_base = entries.iter().map(|e| e.col_base).collect();
        let lane_shift = entries.iter().map(|e| e.shift).collect();
        let lane_edge_base = entries.iter().map(|e| e.edge_base).collect();
        let stall_order = LayerSchedule::stall_minimizing(code)
            .order()
            .iter()
            .map(|&l| l as u32)
            .collect();
        CompiledCode {
            spec: *code.spec(),
            num_edges: entries.len() * z,
            max_degree: code.max_layer_degree(),
            entries,
            layer_ptr,
            col_index,
            lane_col_base,
            lane_shift,
            lane_edge_base,
            stall_order,
        }
    }

    /// Structural parameters of the compiled mode.
    #[must_use]
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Codeword length `n = k·z` in bits.
    #[must_use]
    pub fn n(&self) -> usize {
        self.spec.n()
    }

    /// Number of parity checks `m = j·z`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.spec.m()
    }

    /// Number of information bits `n − m`.
    #[must_use]
    pub fn info_bits(&self) -> usize {
        self.spec.info_bits()
    }

    /// Sub-matrix (circulant) size `z`.
    #[must_use]
    pub fn z(&self) -> usize {
        self.spec.z
    }

    /// Number of layers (block rows) `j`.
    #[must_use]
    pub fn block_rows(&self) -> usize {
        self.spec.block_rows
    }

    /// Number of block columns `k`.
    #[must_use]
    pub fn block_cols(&self) -> usize {
        self.spec.block_cols
    }

    /// Design code rate `(n − m)/n`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.spec.design_rate()
    }

    /// Total number of edges `E·z` (also the Λ-memory size in messages).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Maximum check-node degree over all layers (row scratch sizing).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The flattened entries of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= block_rows()`.
    #[must_use]
    pub fn layer_entries(&self, layer: usize) -> &[CompiledEntry] {
        let start = self.layer_ptr[layer] as usize;
        let end = self.layer_ptr[layer + 1] as usize;
        &self.entries[start..end]
    }

    /// The lane-major SoA view of one layer, consumed by the lane-parallel
    /// SISO kernels. See the module-level gather/scatter contract.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= block_rows()`.
    #[must_use]
    pub fn layer_lanes(&self, layer: usize) -> LaneLayer<'_> {
        let start = self.layer_ptr[layer] as usize;
        let end = self.layer_ptr[layer + 1] as usize;
        LaneLayer {
            col_base: &self.lane_col_base[start..end],
            shift: &self.lane_shift[start..end],
            edge_base: &self.lane_edge_base[start..end],
        }
    }

    /// Check-node degree of every row in `layer`.
    #[must_use]
    pub fn layer_degree(&self, layer: usize) -> usize {
        (self.layer_ptr[layer + 1] - self.layer_ptr[layer]) as usize
    }

    /// Expanded column of an edge (`entry_index · z + r`).
    #[must_use]
    #[inline]
    pub fn edge_col(&self, edge: usize) -> usize {
        self.col_index[edge] as usize
    }

    /// The circulant-shift index table, indexed `entry_index · z + r`.
    #[must_use]
    pub fn col_index(&self) -> &[u32] {
        &self.col_index
    }

    /// Greedy stall-minimizing layer order (§III-C), precomputed via
    /// [`LayerSchedule::stall_minimizing`] so the per-frame decode path never
    /// re-derives it.
    #[must_use]
    pub fn stall_minimizing_order(&self) -> &[u32] {
        &self.stall_order
    }

    /// Whether `hard` (one 0/1 value per code bit) satisfies every parity
    /// check; allocation-free once `doubled` has a capacity of `2n`. The
    /// decoders check whole frame groups in their own message domain
    /// instead (`DecoderArithmetic::parity_verdicts` in `ldpc-core`); this
    /// is the single-word form on hard bits.
    ///
    /// Runs on the lane-major rotation contract over a block-doubled copy of
    /// `hard`: `doubled` is refilled with every block column written twice
    /// in a row (`z` bits, then the same `z` bits again), so lane `r` of an
    /// entry with shift `s` reads `doubled[2·col_base + s + r]` and each
    /// entry's rotated block is one stride-1 span of `z` bytes. Per layer,
    /// the entries' spans are XORed into a stack parity panel of the layer's
    /// `z` lanes (lanes wider than the panel are taken a panel at a time).
    ///
    /// # Panics
    ///
    /// Panics if `hard.len() != n`.
    #[must_use]
    pub fn syndrome_ok(&self, hard: &[u8], doubled: &mut Vec<u8>) -> bool {
        /// Lanes per stack parity panel.
        const PANEL: usize = 256;
        assert_eq!(hard.len(), self.n(), "codeword length mismatch");
        let z = self.z();
        doubled.clear();
        for block in hard.chunks_exact(z) {
            doubled.extend_from_slice(block);
            doubled.extend_from_slice(block);
        }
        let mut panel = [0u8; PANEL];
        for layer in 0..self.block_rows() {
            let lanes = self.layer_lanes(layer);
            for first_lane in (0..z).step_by(PANEL) {
                let parity = &mut panel[..PANEL.min(z - first_lane)];
                parity.fill(0);
                for (&col, &shift) in lanes.col_base.iter().zip(lanes.shift) {
                    // The panel's lanes only: the span ends at most at
                    // `2·col + shift + z`, inside this column's doubled block.
                    let start = 2 * col as usize + shift as usize + first_lane;
                    let span = &doubled[start..start + parity.len()];
                    for (p, &bit) in parity.iter_mut().zip(span) {
                        *p ^= bit;
                    }
                }
                if parity.iter().fold(0, |odd, &p| odd | p) & 1 != 0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::{CodeId, CodeRate, Standard};

    fn code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_matches_qc_views() {
        let code = code();
        let compiled = CompiledCode::compile(&code);
        assert_eq!(compiled.n(), code.n());
        assert_eq!(compiled.m(), code.m());
        assert_eq!(compiled.z(), code.z());
        assert_eq!(compiled.info_bits(), code.info_bits());
        assert_eq!(compiled.num_edges(), code.num_edges());
        assert_eq!(compiled.max_degree(), code.max_layer_degree());
        assert_eq!(compiled.block_rows(), code.block_rows());
        for l in 0..code.block_rows() {
            assert_eq!(compiled.layer_degree(l), code.layer_degree(l));
            let entries = compiled.layer_entries(l);
            for r in 0..code.z() {
                let row = l * code.z() + r;
                let expected = code.row_neighbors(row);
                let got: Vec<usize> = entries
                    .iter()
                    .map(|e| compiled.edge_col(e.edge_base as usize + r))
                    .collect();
                assert_eq!(got, expected, "layer {l} row {r}");
            }
        }
    }

    #[test]
    fn edge_base_matches_lambda_memory_layout() {
        // The seed decoder indexed Λ as (global block entry)·z + r; the
        // compiled table must preserve that exact layout.
        let code = code();
        let compiled = CompiledCode::compile(&code);
        let z = code.z();
        let mut global_entry = 0usize;
        for l in 0..code.block_rows() {
            for e in compiled.layer_entries(l) {
                assert_eq!(e.edge_base as usize, global_entry * z);
                global_entry += 1;
            }
        }
        assert_eq!(global_entry * z, compiled.num_edges());
    }

    #[test]
    fn syndrome_agrees_with_qc_code() {
        let code = code();
        let compiled = CompiledCode::compile(&code);
        let zero = vec![0u8; code.n()];
        let mut doubled = Vec::new();
        assert!(compiled.syndrome_ok(&zero, &mut doubled));
        for flip in [0usize, 17, 333, code.n() - 1] {
            let mut x = zero.clone();
            x[flip] = 1;
            assert_eq!(
                compiled.syndrome_ok(&x, &mut doubled),
                code.is_codeword(&x).unwrap(),
                "bit {flip}"
            );
            assert!(!compiled.syndrome_ok(&x, &mut doubled));
        }
    }

    #[test]
    fn stall_order_matches_layer_schedule() {
        let code = code();
        let compiled = CompiledCode::compile(&code);
        let expected: Vec<u32> = LayerSchedule::stall_minimizing(&code)
            .order()
            .iter()
            .map(|&l| l as u32)
            .collect();
        assert_eq!(compiled.stall_minimizing_order(), expected.as_slice());
    }

    #[test]
    fn lane_layers_mirror_the_aos_entries() {
        let code = code();
        let compiled = CompiledCode::compile(&code);
        for l in 0..compiled.block_rows() {
            let entries = compiled.layer_entries(l);
            let lanes = compiled.layer_lanes(l);
            assert_eq!(lanes.degree(), entries.len());
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(lanes.col_base[i], e.col_base);
                assert_eq!(lanes.shift[i], e.shift);
                assert_eq!(lanes.edge_base[i], e.edge_base);
            }
        }
    }

    #[test]
    fn lane_cols_satisfy_the_rotation_contract() {
        // The gather/scatter contract: lane r of an entry addresses column
        // col_base + ((r + shift) mod z), so lanes 0..z−s are the contiguous
        // slice [c+s, c+z) and lanes z−s..z are [c, c+s).
        let code = code();
        let compiled = CompiledCode::compile(&code);
        let z = compiled.z() as u32;
        for l in 0..compiled.block_rows() {
            let lanes = compiled.layer_lanes(l);
            for i in 0..lanes.degree() {
                let (c, s) = (lanes.col_base[i], lanes.shift[i]);
                let eb = lanes.edge_base[i] as usize;
                let cols = &compiled.col_index()[eb..eb + z as usize];
                let split = (z - s) as usize;
                for (r, &col) in cols.iter().enumerate() {
                    assert_eq!(col, c + (r as u32 + s) % z);
                    if r < split {
                        assert_eq!(col, c + s + r as u32, "head slice is stride-1");
                    } else {
                        assert_eq!(col, c + (r - split) as u32, "tail slice is stride-1");
                    }
                }
            }
        }
    }

    #[test]
    fn layer_block_columns_are_distinct() {
        // The lane-major path gathers a whole layer before scattering it; that
        // is only equivalent to the row-serial order because every block
        // column appears at most once per layer.
        let code = code();
        let compiled = CompiledCode::compile(&code);
        for l in 0..compiled.block_rows() {
            let lanes = compiled.layer_lanes(l);
            let mut cols: Vec<u32> = lanes.col_base.to_vec();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), lanes.degree(), "layer {l} repeats a block");
        }
    }

    /// The row-serial syndrome through the per-edge `col_index` table: the
    /// reference [`CompiledCode::syndrome_ok`] is pinned against.
    fn syndrome_ok_row_serial(compiled: &CompiledCode, hard: &[u8]) -> bool {
        let z = compiled.z();
        (0..compiled.block_rows()).all(|layer| {
            (0..z).all(|r| {
                let parity = compiled.layer_entries(layer).iter().fold(0u8, |p, e| {
                    p ^ (hard[compiled.edge_col(e.edge_base as usize + r)] & 1)
                });
                parity == 0
            })
        })
    }

    #[test]
    fn lane_span_syndrome_matches_the_row_serial_form_on_every_mode() {
        use crate::encoder::Encoder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut codes: Vec<QcCode> = Standard::ALL
            .into_iter()
            .flat_map(CodeId::all_modes)
            .map(|id| id.build().unwrap())
            .collect();
        // z wider than one stack parity panel.
        let wide = crate::construction::ConstructionParams::for_mode(
            Standard::Wimax80216e,
            CodeRate::R1_2,
        )
        .build_code(600)
        .unwrap();
        // The same code with every entry of the last block column shifted
        // past `z - PANEL`, so the second panel's rotated span wraps at the
        // very end of the doubled scratch.
        let mut base = wide.base().clone();
        let last = base.cols() - 1;
        for row in 0..base.rows() {
            if base.get(row, last).is_some() {
                base.set(row, last, Some(500 + row as u32)).unwrap();
            }
        }
        codes.push(QcCode::from_parts(*wide.spec(), base).unwrap());
        codes.push(wide);
        for code in codes {
            let id = code.spec().id();
            let compiled = CompiledCode::compile(&code);
            let n = compiled.n();
            let codeword = match Encoder::new(&code) {
                Ok(encoder) => {
                    let info: Vec<u8> = (0..code.info_bits())
                        .map(|_| rng.gen_range(0..=1u8))
                        .collect();
                    encoder.encode(&info).unwrap()
                }
                Err(_) => vec![0u8; n],
            };
            // The doubled-block scratch the decoders keep: capacity 2n, so
            // the check itself never reallocates it.
            let mut doubled = Vec::with_capacity(2 * n);
            let scratch = doubled.as_ptr();
            assert!(
                compiled.syndrome_ok(&codeword, &mut doubled),
                "{id}: codeword rejected"
            );
            assert!(syndrome_ok_row_serial(&compiled, &codeword));
            // One flipped bit anywhere, including the last layer's
            // columns, fails both forms.
            for _ in 0..4 {
                let mut word = codeword.clone();
                word[rng.gen_range(0..n)] ^= 1;
                assert!(
                    !compiled.syndrome_ok(&word, &mut doubled),
                    "{id}: flip accepted"
                );
                assert!(!syndrome_ok_row_serial(&compiled, &word));
            }
            // A few random flips of the codeword: even counts can cancel in
            // a row, so both forms must agree row for row, whatever the
            // verdict.
            for flips in 2..=5 {
                let mut word = codeword.clone();
                for _ in 0..flips {
                    word[rng.gen_range(0..n)] ^= 1;
                }
                assert_eq!(
                    compiled.syndrome_ok(&word, &mut doubled),
                    syndrome_ok_row_serial(&compiled, &word),
                    "{id}: {flips} flips"
                );
            }
            for _ in 0..4 {
                let word: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
                assert_eq!(
                    compiled.syndrome_ok(&word, &mut doubled),
                    syndrome_ok_row_serial(&compiled, &word),
                    "{id}: random word"
                );
            }
            assert_eq!(doubled.as_ptr(), scratch, "{id}: scratch reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn syndrome_rejects_wrong_length() {
        let compiled = CompiledCode::compile(&code());
        let _ = compiled.syndrome_ok(&[0u8; 3], &mut Vec::new());
    }
}
