//! Seeded input generation. Everything a workload feeds the program is made
//! here, before any timing starts; the program sees only these buffers.

use ldpc_channel::{AwgnChannel, FrameBlock, FrameSource};
use ldpc_codes::CodeId;

use crate::util::SplitMix;

/// The serving mix: cell-edge 2 dB, mid-cell 4 dB and near-cell 6 dB
/// frames at 1 : 3 : 6.
pub const SERVING_MIX: [(f64, u32); 3] = [(2.0, 1), (4.0, 3), (6.0, 6)];

/// A pool of frames of one mode: channel LLRs, the transmitted codewords
/// and the SNR point each frame was drawn at. LLRs are generated in `f64`
/// and stored as `f32` (the program receives them widened back to `f64`),
/// which halves the memory a large pool of distinct frames costs.
#[derive(Debug, Clone)]
pub struct Pool {
    pub n: usize,
    pub llrs: Vec<f32>,
    pub codewords: Vec<u8>,
    pub snr_point: Vec<u8>,
}

impl Pool {
    pub fn codeword(&self, i: usize) -> &[u8] {
        &self.codewords[i * self.n..(i + 1) * self.n]
    }

    /// Frames `start..start + count` as one flat LLR buffer in `out`,
    /// replacing its contents.
    pub fn fill(&self, start: usize, count: usize, out: &mut Vec<f64>) {
        out.clear();
        let llrs = &self.llrs[start * self.n..(start + count) * self.n];
        out.extend(llrs.iter().map(|&l| f64::from(l)));
    }

    /// Frames `start..start + count` as one flat LLR buffer.
    pub fn frames(&self, start: usize, count: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.fill(start, count, &mut out);
        out
    }
}

/// `frames` frames of `id` with random information bits, each at an SNR
/// point drawn from `points` (Eb/N0 dB, weight) by the seed.
pub fn serving_pool(id: CodeId, frames: usize, points: &[(f64, u32)], seed: u64) -> Pool {
    let code = id.build().expect("benchmark modes are supported codes");
    let mut source = FrameSource::random(&code, seed).expect("benchmark modes are encodable");
    let channels: Vec<AwgnChannel> = points
        .iter()
        .map(|&(ebn0, _)| AwgnChannel::from_ebn0_db(ebn0, code.rate()))
        .collect();
    let weights: Vec<u32> = points.iter().map(|&(_, w)| w).collect();
    let mut picker = SplitMix::new(seed ^ 0x51A7);
    let mut pool = Pool {
        n: id.n,
        llrs: Vec::with_capacity(frames * id.n),
        codewords: Vec::with_capacity(frames * id.n),
        snr_point: Vec::with_capacity(frames),
    };
    let mut block = FrameBlock::new();
    for _ in 0..frames {
        let point = picker.weighted(&weights);
        source.fill_block(&channels[point], 1, &mut block);
        pool.llrs.extend(block.llrs.iter().map(|&l| l as f32));
        pool.codewords.extend_from_slice(&block.codewords);
        pool.snr_point.push(point as u8);
    }
    pool
}

/// One HARQ session's inputs: a codeword and `MAX_TX` independent noisy
/// observations of it, one per redundancy version (stored as `f32`, like
/// [`Pool`]).
#[derive(Debug, Clone)]
pub struct Session {
    pub codeword: Vec<u8>,
    pub tx: Vec<Vec<f32>>,
}

impl Session {
    /// Transmission `k`'s LLRs.
    pub fn tx(&self, k: usize) -> Vec<f64> {
        self.tx[k].iter().map(|&l| f64::from(l)).collect()
    }
}

pub const MAX_TX: usize = 4;

/// `count` HARQ sessions of `id` at `ebn0_db`.
pub fn harq_sessions(id: CodeId, count: usize, ebn0_db: f64, seed: u64) -> Vec<Session> {
    let code = id.build().expect("benchmark modes are supported codes");
    let mut source = FrameSource::random(&code, seed).expect("benchmark modes are encodable");
    let channel = AwgnChannel::from_ebn0_db(ebn0_db, code.rate());
    (0..count)
        .map(|_| {
            let codeword = source.next_frame().codeword;
            let tx = (0..MAX_TX)
                .map(|_| {
                    let mut llrs = vec![0.0; id.n];
                    channel.transmit_into(&codeword, source.noise_rng(), &mut llrs);
                    llrs.iter().map(|&l| l as f32).collect()
                })
                .collect();
            Session { codeword, tx }
        })
        .collect()
}
