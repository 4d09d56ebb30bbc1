//! Layer-ordering policies for the block-serial schedule.
//!
//! One full iteration of the layered decoder is split into `j` sub-iterations,
//! one per layer (Fig. 2). The order in which layers are visited does not
//! change the fixed point of the algorithm but does affect (a) convergence
//! speed slightly and (b) pipeline stalls when the decoding of consecutive
//! layers is overlapped (Fig. 4); the paper cites layer shuffling \[10\] as the
//! stall-avoidance mechanism.

use ldpc_codes::{LayerSchedule, QcCode};

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

impl LayerOrderPolicy {
    /// Resolves the policy into a concrete visit order for `code`.
    #[must_use]
    pub fn resolve(self, code: &QcCode) -> Vec<usize> {
        match self {
            LayerOrderPolicy::Natural => (0..code.block_rows()).collect(),
            LayerOrderPolicy::StallMinimizing => {
                LayerSchedule::stall_minimizing(code).order().to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    #[test]
    fn natural_order() {
        let order = LayerOrderPolicy::Natural.resolve(&code());
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn stall_minimizing_is_permutation() {
        let order = LayerOrderPolicy::StallMinimizing.resolve(&code());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn default_is_natural() {
        assert_eq!(LayerOrderPolicy::default(), LayerOrderPolicy::Natural);
    }
}
