//! Cycle-accurate model of the pipelined block-serial schedule (Fig. 4).
//!
//! One sub-iteration (layer) of degree `d_m` occupies the SISO lanes for two
//! stages: `d_m/radix` cycles of `f(·)` accumulation (reading λ through the
//! circular shifter) and `d_m/radix` cycles of `g(·)` extraction / write-back.
//! With dual-port memories the two stages of *consecutive layers* overlap, so
//! the sustained cost of a layer is one stage plus any read-after-write stalls
//! caused by block columns shared with the previous layer. The circular
//! shifter adds a fixed pipeline latency to every layer start, which is the
//! 5–15 % throughput degradation the paper mentions.

use ldpc_core::siso::SisoRadix;
use ldpc_core::LayerOrderPolicy;

use crate::config::DecoderModeConfig;

/// Options of the pipeline model.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOptions {
    /// SISO radix (R2 = one message/cycle, R4 = two messages/cycle).
    pub radix: SisoRadix,
    /// Whether the decoding of consecutive layers is overlapped (Fig. 4
    /// bottom); requires dual-port memories.
    pub overlap_layers: bool,
    /// Circular-shifter pipeline latency in cycles (per layer start).
    pub shifter_latency: usize,
    /// Layer visiting order (stall-minimizing shuffling reduces stalls).
    pub layer_order: LayerOrderPolicy,
    /// Whether frame I/O is double-buffered through the In/Out buffer of
    /// Fig. 8, hiding the load/output cycles behind the decoding of the
    /// previous/next frame.
    pub double_buffered_io: bool,
}

impl Default for PipelineOptions {
    /// The paper's operating point: Radix-4 SISO lanes, overlapped layers,
    /// one cycle of shifter latency, natural layer order.
    fn default() -> Self {
        PipelineOptions {
            radix: SisoRadix::Radix4,
            overlap_layers: true,
            shifter_latency: 1,
            layer_order: LayerOrderPolicy::Natural,
            double_buffered_io: true,
        }
    }
}

/// Cycle breakdown of decoding one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Cycles spent loading channel LLRs into the L-memory (one word per
    /// block column).
    pub load_cycles: usize,
    /// Productive SISO stage cycles.
    pub compute_cycles: usize,
    /// Read-after-write stall cycles between overlapping layers.
    pub stall_cycles: usize,
    /// Cycles added by the circular-shifter latency.
    pub shifter_cycles: usize,
    /// Pipeline fill/drain cycles.
    pub drain_cycles: usize,
    /// Cycles spent streaming hard decisions out.
    pub output_cycles: usize,
    /// Number of full iterations the report covers.
    pub iterations: usize,
}

impl CycleReport {
    /// Total cycles for the frame.
    #[must_use]
    pub fn total(&self) -> usize {
        self.load_cycles
            + self.compute_cycles
            + self.stall_cycles
            + self.shifter_cycles
            + self.drain_cycles
            + self.output_cycles
    }

    /// Cycles that do not contribute to message computation (overhead
    /// fraction of the schedule).
    #[must_use]
    pub fn overhead_cycles(&self) -> usize {
        self.total() - self.compute_cycles
    }

    /// Overhead as a fraction of the total (the paper quotes 5–15 % for the
    /// shifter alone).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.overhead_cycles() as f64 / self.total() as f64
        }
    }
}

/// The pipeline cycle model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineModel {
    options: PipelineOptions,
}

impl PipelineModel {
    /// Creates a model with the given options.
    #[must_use]
    pub fn new(options: PipelineOptions) -> Self {
        PipelineModel { options }
    }

    /// The options in use.
    #[must_use]
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// Resolves the layer visiting order for a mode.
    #[must_use]
    fn layer_order(&self, config: &DecoderModeConfig) -> Vec<usize> {
        match self.options.layer_order {
            LayerOrderPolicy::Natural => (0..config.block_rows).collect(),
            LayerOrderPolicy::StallMinimizing => {
                // The decoder's greedy, on the config's layer column sets.
                let cols: Vec<Vec<usize>> = config
                    .layers
                    .iter()
                    .map(|l| l.iter().map(|&(c, _)| c).collect())
                    .collect();
                ldpc_codes::stall_minimizing_order(&cols)
            }
        }
    }

    /// Number of read-after-write stall cycles between two consecutive layers.
    ///
    /// With dual-port memories the next layer starts reading while the
    /// previous layer is still writing back. A read only has to wait if it
    /// targets a block column the previous layer also updated *and* the read
    /// is issued before that write has propagated through the shifter
    /// pipeline. We therefore charge one cycle for every shared column that
    /// appears within the first `shifter_latency + 1` reads of the next layer
    /// — the occasional one-or-more-cycle stalls the paper describes, which
    /// layer shuffling (and entry reordering) removes.
    #[must_use]
    fn stall_between(&self, prev: &[(usize, usize)], next: &[(usize, usize)]) -> usize {
        let window = self.options.shifter_latency + 1;
        next.iter()
            .take(window)
            .filter(|(col, _)| prev.iter().any(|(c, _)| c == col))
            .count()
    }

    /// Cycle report for decoding one frame of the given mode with `iterations`
    /// full iterations.
    #[must_use]
    pub fn frame_cycles(&self, config: &DecoderModeConfig, iterations: usize) -> CycleReport {
        let order = self.layer_order(config);
        let stage = |degree: usize| self.options.radix.stage_cycles(degree);

        let mut compute = 0usize;
        let mut stalls = 0usize;
        let mut shifter = 0usize;
        let mut drain = 0usize;

        if iterations > 0 {
            // The shifter is itself pipelined: its latency is paid once when
            // the pipeline fills, not on every word.
            shifter = self.options.shifter_latency;
        }
        for iter in 0..iterations {
            for (pos, &l) in order.iter().enumerate() {
                let degree = config.layer_degree(l);
                let s = stage(degree);
                if self.options.overlap_layers {
                    // Sustained cost: one stage per layer; the second stage is
                    // hidden behind the next layer's first stage.
                    compute += s;
                    // Stall against the previously processed layer (also across
                    // the iteration boundary).
                    let prev_layer = if pos > 0 {
                        Some(order[pos - 1])
                    } else if iter > 0 {
                        Some(*order.last().expect("non-empty order"))
                    } else {
                        None
                    };
                    if let Some(p) = prev_layer {
                        stalls += self.stall_between(&config.layers[p], &config.layers[l]);
                    }
                } else {
                    // Non-overlapped: both stages serialize.
                    compute += 2 * s;
                }
            }
        }
        if self.options.overlap_layers && iterations > 0 {
            // Drain the second stage of the very last layer.
            drain = stage(config.layer_degree(*order.last().expect("non-empty order")));
        }

        // With the double-buffered In/Out buffer of Fig. 8 the frame load and
        // hard-decision output overlap the decoding of the adjacent frames and
        // do not lengthen the frame time.
        let io = if self.options.double_buffered_io {
            0
        } else {
            config.block_cols
        };
        CycleReport {
            load_cycles: io,
            compute_cycles: compute,
            stall_cycles: stalls,
            shifter_cycles: shifter,
            drain_cycles: drain,
            output_cycles: io,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn config(n: usize) -> DecoderModeConfig {
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, n)
            .build()
            .unwrap();
        DecoderModeConfig::from_code(&code)
    }

    #[test]
    fn overlapped_r4_cycles_match_paper_formula_approximately() {
        // The paper: pipelined R4 throughput ≈ 2·k·z·R·f/(E·I), i.e. the
        // compute cycles per iteration are ≈ E/2.
        let cfg = config(2304);
        let model = PipelineModel::new(PipelineOptions::default());
        let report = model.frame_cycles(&cfg, 10);
        let ideal_compute = 10 * cfg.nnz_blocks.div_ceil(2);
        assert!(report.compute_cycles >= ideal_compute);
        assert!(
            report.compute_cycles <= ideal_compute + 10 * cfg.block_rows,
            "ceil rounding adds at most one cycle per layer"
        );
        // Total overhead (shifter + stalls + fill/drain + I/O) stays below ~25 %.
        assert!(
            report.overhead_fraction() < 0.25,
            "overhead {}",
            report.overhead_fraction()
        );
        assert_eq!(report.iterations, 10);
    }

    #[test]
    fn radix2_needs_about_twice_the_compute_cycles() {
        let cfg = config(2304);
        let r4 = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 10);
        let r2 = PipelineModel::new(PipelineOptions {
            radix: SisoRadix::Radix2,
            ..PipelineOptions::default()
        })
        .frame_cycles(&cfg, 10);
        let ratio = r2.compute_cycles as f64 / r4.compute_cycles as f64;
        assert!((1.8..=2.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn non_overlapped_schedule_is_slower() {
        let cfg = config(576);
        let overlapped = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 5);
        let serial = PipelineModel::new(PipelineOptions {
            overlap_layers: false,
            ..PipelineOptions::default()
        })
        .frame_cycles(&cfg, 5);
        assert!(serial.total() > overlapped.total());
        // Non-overlapped has no read-after-write stalls.
        assert_eq!(serial.stall_cycles, 0);
    }

    #[test]
    fn stall_minimizing_order_does_not_increase_stalls() {
        let cfg = config(2304);
        let natural = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 10);
        let shuffled = PipelineModel::new(PipelineOptions {
            layer_order: LayerOrderPolicy::StallMinimizing,
            ..PipelineOptions::default()
        })
        .frame_cycles(&cfg, 10);
        assert!(shuffled.stall_cycles <= natural.stall_cycles);
        assert_eq!(shuffled.compute_cycles, natural.compute_cycles);
    }

    #[test]
    fn stall_minimizing_order_is_the_decoders_on_every_mode() {
        let model = PipelineModel::new(PipelineOptions {
            layer_order: LayerOrderPolicy::StallMinimizing,
            ..PipelineOptions::default()
        });
        for id in ldpc_codes::Standard::ALL
            .into_iter()
            .flat_map(ldpc_codes::CodeId::all_modes)
        {
            let code = id.build().unwrap();
            let decoder_order: Vec<usize> = code
                .compile()
                .stall_minimizing_order()
                .iter()
                .map(|&l| l as usize)
                .collect();
            let cfg = DecoderModeConfig::from_code(&code);
            assert_eq!(model.layer_order(&cfg), decoder_order, "{id}");
        }
    }

    #[test]
    fn shifter_latency_increases_total_cycles() {
        let cfg = config(576);
        let one = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 4);
        let two = PipelineModel::new(PipelineOptions {
            shifter_latency: 2,
            ..PipelineOptions::default()
        })
        .frame_cycles(&cfg, 4);
        // The shifter is pipelined: it costs one fill plus a wider
        // read-after-write stall window, never less total time.
        assert_eq!(one.shifter_cycles, 1);
        assert_eq!(two.shifter_cycles, 2);
        assert!(two.total() >= one.total());
        assert!(two.stall_cycles >= one.stall_cycles);
    }

    #[test]
    fn cycles_scale_linearly_with_iterations() {
        let cfg = config(1152);
        let model = PipelineModel::new(PipelineOptions::default());
        let five = model.frame_cycles(&cfg, 5);
        let ten = model.frame_cycles(&cfg, 10);
        assert!(ten.compute_cycles == 2 * five.compute_cycles);
        assert!(ten.total() > five.total());
        assert!(ten.total() < 2 * five.total(), "I/O cycles are shared");
    }

    #[test]
    fn report_breakdown_sums_to_total() {
        let cfg = config(2304);
        let r = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 10);
        assert_eq!(
            r.total(),
            r.load_cycles
                + r.compute_cycles
                + r.stall_cycles
                + r.shifter_cycles
                + r.drain_cycles
                + r.output_cycles
        );
        assert_eq!(r.overhead_cycles() + r.compute_cycles, r.total());
        assert_eq!(CycleReport::default().overhead_fraction(), 0.0);
    }

    #[test]
    fn zero_iterations_only_costs_io() {
        let cfg = config(576);
        let r = PipelineModel::new(PipelineOptions::default()).frame_cycles(&cfg, 0);
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.stall_cycles, 0);
        // Double-buffered I/O is hidden entirely.
        assert_eq!(r.total(), 0);
        // Without double buffering the frame load/output cycles appear.
        let serial_io = PipelineModel::new(PipelineOptions {
            double_buffered_io: false,
            ..PipelineOptions::default()
        })
        .frame_cycles(&cfg, 0);
        assert_eq!(serial_io.total(), cfg.block_cols * 2);
    }
}
