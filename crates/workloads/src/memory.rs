//! Per-NPU memory footprints (§3.1).
//!
//! Whether a model can run weight-stationary — and which strategies are
//! even admissible — is a memory question: weights are replicated
//! across DP but sharded by MP×PP; ZeRO-2 (§7.3) shards gradients and
//! optimizer state across DP; activations scale with the per-replica
//! minibatch and shrink with MP and PP. This module computes the
//! breakdown so strategy sweeps can filter infeasible points, the
//! "discarded strategies" the paper's intro worries about.

use fred_core::placement::Strategy3D;

use crate::model::{DnnModel, ModelClass, BYTES_PER_PARAM};

/// FP32 Adam moments + master weights per parameter (ZeRO-2 shards
/// this across DP).
pub const OPTIMIZER_BYTES_PER_PARAM: f64 = 12.0;

/// Per-NPU memory breakdown, bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// FP16 weights (replicated across DP, sharded by MP×PP).
    pub weights: f64,
    /// FP16 gradients (ZeRO-2: sharded across DP too).
    pub gradients: f64,
    /// FP32 optimizer state (ZeRO-2: sharded across DP).
    pub optimizer: f64,
    /// Stored activations for the backward pass (layer-boundary
    /// checkpoints; per-layer interiors are recomputed).
    pub activations: f64,
}

impl Footprint {
    /// Total bytes.
    pub fn total(&self) -> f64 {
        self.weights + self.gradients + self.optimizer + self.activations
    }
}

/// Computes the per-NPU footprint of `model` under `strategy` with
/// `minibatch` total samples per iteration.
///
/// # Panics
///
/// Panics if the strategy has a zero dimension (prevented by
/// [`Strategy3D::new`]).
pub fn footprint(model: &DnnModel, strategy: Strategy3D, minibatch: usize) -> Footprint {
    let shard = (strategy.mp * strategy.pp) as f64;
    let dp = strategy.dp as f64;
    let weights = model.params * BYTES_PER_PARAM / shard;
    let gradients = weights / dp; // ZeRO-2
    let optimizer = model.params * OPTIMIZER_BYTES_PER_PARAM / shard / dp;
    // Boundary activations: one per layer hosted on this NPU, for the
    // replica's share of the minibatch.
    let samples = minibatch as f64 / dp;
    let layers_here = model.layers as f64 / strategy.pp as f64;
    let act_per_layer = match model.class {
        ModelClass::Cnn => model.activation_bytes(samples),
        ModelClass::TransformerLm => model.activation_bytes(samples) / strategy.mp as f64,
    };
    Footprint {
        weights,
        gradients,
        optimizer,
        activations: act_per_layer * layers_here,
    }
}

/// Whether the strategy fits weight-stationary in `hbm_bytes` per NPU.
pub fn fits_weight_stationary(
    model: &DnnModel,
    strategy: Strategy3D,
    minibatch: usize,
    hbm_bytes: f64,
) -> bool {
    footprint(model, strategy, minibatch).total() <= hbm_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const HBM: f64 = 80e9;

    #[test]
    fn resnet_fits_everywhere() {
        let m = DnnModel::resnet152();
        let fp = footprint(&m, Strategy3D::new(1, 20, 1), 320);
        assert!(fp.total() < HBM, "{fp:?}");
        // Weights dominate nothing; activations do for CNNs.
        assert!(fp.activations > fp.weights);
    }

    #[test]
    fn transformer_17b_fits_with_sharding() {
        let m = DnnModel::transformer_17b();
        // Table 6 strategy MP(3)-DP(3)-PP(2): weights 17.2e9*2/6 = 5.7 GB.
        let s = m.default_strategy;
        let fp = footprint(&m, s, 48);
        assert!(fp.total() < HBM, "{fp:?} exceeds HBM");
        assert!((fp.weights - 17.2e9 * 2.0 / 6.0).abs() < 1e6);
        // ZeRO-2 shards optimizer: 17.2e9*12/6/3 = 11.5 GB.
        assert!((fp.optimizer - 17.2e9 * 12.0 / 18.0).abs() < 1e6);
    }

    #[test]
    fn transformer_17b_pure_dp_is_marginal() {
        // Without MP/PP sharding, weights (34.4 GB) + ZeRO-2 shards +
        // activations for 40 samples/replica land just under the 80 GB
        // budget (~74 GB) — and double the per-replica minibatch blows
        // it. This is the §3.1 cliff that makes sharded strategies
        // attractive for 17B-class models.
        let m = DnnModel::transformer_17b();
        let fp = footprint(&m, Strategy3D::new(1, 20, 1), 800);
        assert!(
            fp.total() > 0.85 * HBM && fp.total() < HBM,
            "{:.1} GB",
            fp.total() / 1e9
        );
        let fp2 = footprint(&m, Strategy3D::new(1, 20, 1), 1600);
        assert!(
            fp2.total() > HBM,
            "{:.1} GB should not fit",
            fp2.total() / 1e9
        );
    }

    #[test]
    fn gpt3_never_fits_on_wafer() {
        let m = DnnModel::gpt3();
        // Even fully sharded across all 20 NPUs (MP(2)-PP(10) style),
        // weights are 350/20 = 17.5 GB but the optimizer and
        // activations blow the budget at any DP >= 1... check the
        // Table 6 strategy specifically.
        let fp = footprint(&m, m.default_strategy, 80);
        assert!(
            fp.total() > HBM,
            "GPT-3 should need weight streaming: {fp:?}"
        );
    }

    #[test]
    fn mp2_dp5_pp2_fits_weight_stationary() {
        // The Table 6 strategy itself uses 18 of 20 NPUs, so check an
        // aligned sharded analogue at 16 samples per replica.
        let m = DnnModel::transformer_17b();
        assert!(fits_weight_stationary(
            &m,
            Strategy3D::new(2, 5, 2),
            5 * 16,
            HBM
        ));
    }

    #[test]
    fn sharding_monotonically_reduces_weights() {
        let m = DnnModel::transformer_17b();
        let w = |mp, pp| footprint(&m, Strategy3D::new(mp, 1, pp), 16).weights;
        assert!(w(2, 1) < w(1, 1));
        assert!(w(2, 2) < w(2, 1));
        assert_eq!(w(4, 1), w(2, 2));
    }
}
