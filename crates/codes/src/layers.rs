//! Layered views of a block-structured parity-check matrix.
//!
//! The layered belief-propagation decoder of the paper processes `H` one
//! *layer* (block row) at a time; within a layer the `z` parity checks are
//! independent and are decoded in parallel by `z` SISO decoders (block-serial
//! scheduling, Fig. 2). The types here describe a layer and the order in which
//! layers are visited.

use crate::qc::QcCode;

/// One non-zero block inside a layer: which block column it sits in and the
/// circulant shift of its `z × z` identity sub-matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerEntry {
    /// Block-column index in `0..k`.
    pub block_col: usize,
    /// Circulant shift in `0..z`.
    pub shift: usize,
}

/// One layer (block row) of the parity-check matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Index of this layer (block row) in `0..j`.
    pub index: usize,
    /// Non-zero blocks of this layer in ascending block-column order.
    pub entries: Vec<LayerEntry>,
}

impl Layer {
    /// Check-node degree of every expanded row in this layer (`d_m` in the
    /// paper: the number of non-zero blocks).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.entries.len()
    }

    /// The set of block columns this layer touches, ascending.
    #[must_use]
    pub fn block_cols(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.block_col).collect()
    }

    /// Number of block columns shared with another layer. Shared columns are
    /// the source of read-after-write dependencies that can stall the
    /// pipelined schedule of Fig. 4.
    #[must_use]
    pub fn overlap(&self, other: &Layer) -> usize {
        self.entries
            .iter()
            .filter(|e| other.entries.iter().any(|o| o.block_col == e.block_col))
            .count()
    }
}

/// The order in which layers are visited during one full iteration.
///
/// The natural order `0, 1, …, j−1` is always correct; a *shuffled* order that
/// minimizes the overlap between consecutive layers reduces pipeline stalls
/// (the paper cites Gunnam et al. \[10\] for this trick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSchedule {
    order: Vec<usize>,
}

impl LayerSchedule {
    /// The natural order `0, 1, …, j−1`.
    #[must_use]
    pub fn natural(num_layers: usize) -> Self {
        LayerSchedule {
            order: (0..num_layers).collect(),
        }
    }

    /// Builds a schedule from an explicit order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    #[must_use]
    pub fn from_order(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.len()];
        for &l in &order {
            assert!(l < order.len() && !seen[l], "order must be a permutation");
            seen[l] = true;
        }
        LayerSchedule { order }
    }

    /// The greedy stall-minimizing order of `code`'s layers, see
    /// [`stall_minimizing_order`].
    #[must_use]
    pub fn stall_minimizing(code: &QcCode) -> Self {
        let cols: Vec<Vec<usize>> = code.layers().iter().map(Layer::block_cols).collect();
        LayerSchedule {
            order: stall_minimizing_order(&cols),
        }
    }

    /// The layer indices in visit order.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of layers in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total block-column overlap between consecutive layers in this schedule
    /// (including the wrap-around pair last → first, since iterations repeat).
    /// Lower is better for the pipelined schedule.
    #[must_use]
    pub fn total_adjacent_overlap(&self, code: &QcCode) -> usize {
        let layers = code.layers();
        if self.order.len() < 2 {
            return 0;
        }
        let mut total = 0;
        for w in self.order.windows(2) {
            total += layers[w[0]].overlap(&layers[w[1]]);
        }
        total += layers[*self.order.last().unwrap()].overlap(&layers[self.order[0]]);
        total
    }

    /// Iterates over the layer indices in visit order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().copied()
    }
}

/// Greedy stall-minimizing layer order over per-layer block-column sets
/// (`layer_cols[l]` lists the distinct block columns layer `l` touches):
/// starting from layer 0, repeatedly pick the not-yet-scheduled layer that
/// shares the fewest block columns with the previously scheduled one (ties
/// broken by smallest index).
///
/// This implements the layer shuffling of §III-C used to avoid pipeline
/// stalls when the decoding of two consecutive layers is overlapped. The
/// decoder's schedule ([`LayerSchedule::stall_minimizing`], precompiled into
/// [`crate::CompiledCode::stall_minimizing_order`]) and the architecture
/// model's pipeline both take their order from here.
#[must_use]
pub fn stall_minimizing_order<C: AsRef<[usize]>>(layer_cols: &[C]) -> Vec<usize> {
    let overlap = |a: usize, b: usize| {
        let other = layer_cols[b].as_ref();
        layer_cols[a]
            .as_ref()
            .iter()
            .filter(|c| other.contains(c))
            .count()
    };
    if layer_cols.is_empty() {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (1..layer_cols.len()).collect();
    let mut order = vec![0];
    while !remaining.is_empty() {
        let prev = *order.last().expect("order is non-empty");
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &cand)| (overlap(prev, cand), cand))
            .expect("remaining is non-empty");
        order.push(remaining.remove(pos));
    }
    order
}

impl<'a> IntoIterator for &'a LayerSchedule {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::{CodeId, CodeRate, Standard};

    fn test_code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    #[test]
    fn layer_weight_and_cols() {
        let code = test_code();
        let layers = code.layers();
        assert_eq!(layers.len(), 12);
        for (i, layer) in layers.iter().enumerate() {
            assert_eq!(layer.index, i);
            assert_eq!(layer.weight(), layer.entries.len());
            assert!(layer.weight() >= 2);
            let cols = layer.block_cols();
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "ascending order");
        }
    }

    #[test]
    fn overlap_is_symmetric() {
        let code = test_code();
        let layers = code.layers();
        for a in layers {
            for b in layers {
                assert_eq!(a.overlap(b), b.overlap(a));
            }
            assert_eq!(a.overlap(a), a.weight());
        }
    }

    #[test]
    fn natural_schedule_is_identity() {
        let s = LayerSchedule::natural(5);
        assert_eq!(s.order(), &[0, 1, 2, 3, 4]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn from_order_accepts_permutation() {
        let s = LayerSchedule::from_order(vec![2, 0, 1]);
        assert_eq!(s.order(), &[2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_order_rejects_duplicates() {
        let _ = LayerSchedule::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn stall_minimizing_is_a_permutation() {
        let code = test_code();
        let s = LayerSchedule::stall_minimizing(&code);
        let mut sorted = s.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..code.block_rows()).collect::<Vec<_>>());
    }

    #[test]
    fn stall_minimizing_does_not_increase_overlap() {
        let code = test_code();
        let natural = LayerSchedule::natural(code.block_rows());
        let shuffled = LayerSchedule::stall_minimizing(&code);
        assert!(
            shuffled.total_adjacent_overlap(&code) <= natural.total_adjacent_overlap(&code),
            "greedy schedule should not be worse than the natural order"
        );
    }

    #[test]
    fn schedule_iteration() {
        let s = LayerSchedule::natural(3);
        let via_iter: Vec<_> = s.iter().collect();
        let via_into: Vec<_> = (&s).into_iter().collect();
        assert_eq!(via_iter, vec![0, 1, 2]);
        assert_eq!(via_into, via_iter);
    }

    #[test]
    fn empty_schedule() {
        let s = LayerSchedule::natural(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
