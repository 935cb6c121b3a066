//! The correctness gate: FNV-1a digests over raw objective bits, and the
//! pinned quick-grid hashes every run reproduces during setup.

use ccs_economy::EconomicModel;
use ccs_experiments::{run_grid, EstimateSet, ExperimentConfig, RawGrid};

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word.
    pub fn mix(&mut self, bits: u64) {
        for byte in bits.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes the raw bit pattern of every value in `xs`.
    pub fn mix_f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.mix(x.to_bits());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The grid digest of the release snapshot test: every objective's bits in
/// (scenario, value, policy, objective) order.
pub(crate) fn grid_digest(g: &RawGrid) -> u64 {
    let mut h = Fnv::default();
    for cell in g.raw.iter().flatten().flatten() {
        h.mix_f64s(cell);
    }
    h.finish()
}

/// Seed-42, 60-job, 2-thread quick grids and the digests captured before
/// any optimisation of the simulation core.
pub const PINNED: [(EconomicModel, EstimateSet, u64); 2] = [
    (
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        0x3435_67de_3d8c_a87e,
    ),
    (
        EconomicModel::BidBased,
        EstimateSet::B,
        0xf474_0ef8_0f16_9de3,
    ),
];

/// Reruns both pinned quick grids and compares their digests. Running
/// every policy under both economic models, this also warms up the code
/// and allocator the timed passes use.
pub(crate) fn check_pinned() -> Result<(), String> {
    let cfg = ExperimentConfig {
        threads: 2,
        ..ExperimentConfig::quick().with_jobs(60)
    };
    for (econ, set, want) in PINNED {
        let g = run_grid(econ, set, &cfg);
        if !g.errors.is_empty() {
            return Err(format!(
                "pinned {econ}/{set} quick grid: {} cell error(s)",
                g.errors.len()
            ));
        }
        let got = grid_digest(&g);
        if got != want {
            return Err(format!(
                "pinned {econ}/{set} quick grid drifted: digest {got:#018x}, expected {want:#018x}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the eight zero bytes of 0u64.
        let mut h = Fnv::default();
        h.mix(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
    }

    #[test]
    fn digest_is_stable_on_a_tiny_trace() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(12)
        };
        let a = run_grid(EconomicModel::BidBased, EstimateSet::A, &cfg);
        let b = run_grid(
            EconomicModel::BidBased,
            EstimateSet::A,
            &ExperimentConfig { threads: 1, ..cfg },
        );
        assert!(a.errors.is_empty());
        assert_eq!(grid_digest(&a), grid_digest(&b));
        let other = run_grid(EconomicModel::BidBased, EstimateSet::B, &cfg);
        assert_ne!(grid_digest(&a), grid_digest(&other));
    }
}
