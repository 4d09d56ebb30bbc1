//! Layer-ordering policies for the block-serial schedule.
//!
//! One full iteration of the layered decoder is split into `j` sub-iterations,
//! one per layer (Fig. 2). The order in which layers are visited does not
//! change the fixed point of the algorithm but does affect (a) convergence
//! speed slightly and (b) pipeline stalls when the decoding of consecutive
//! layers is overlapped (Fig. 4); the paper cites layer shuffling \[10\] as the
//! stall-avoidance mechanism.

/// How the decoder orders layers within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerOrderPolicy {
    /// Natural order `0, 1, …, j−1`.
    #[default]
    Natural,
    /// Greedy order minimizing the block-column overlap between consecutive
    /// layers (reduces pipeline stalls, §III-C).
    StallMinimizing,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{stall_minimizing_order, CodeId, CodeRate, Layer, Standard};

    #[test]
    fn natural_order() {
        // With every pair of layers equally overlapping, the greedy's
        // smallest-index tie-break keeps the natural order.
        assert_eq!(
            stall_minimizing_order(&[[0usize, 1]; 6]),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(
            stall_minimizing_order(&[[0usize], [1], [2], [3]]),
            [0, 1, 2, 3]
        );
        assert!(stall_minimizing_order::<[usize; 1]>(&[]).is_empty());
    }

    #[test]
    fn stall_minimizing_is_permutation() {
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap();
        let cols: Vec<Vec<usize>> = code.layers().iter().map(Layer::block_cols).collect();
        let order = stall_minimizing_order(&cols);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn default_is_natural() {
        assert_eq!(LayerOrderPolicy::default(), LayerOrderPolicy::Natural);
    }
}
