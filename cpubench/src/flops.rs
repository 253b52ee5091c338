//! FLOP accounting from the paper's Table I cost model (`akg-cost`): the
//! predicted work of the calls a traced run timed, so a layer's CPU time
//! turns into achieved GFLOP/s.

use adaptive_kg::core::engine::Engine;
use adaptive_kg::core::pipeline::akg_cost_dims::ModelDimsLike;
use adaptive_kg::cost::{KgDims, ModelDims};

/// The cost model's inputs for one trained deployment.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub dims: ModelDims,
    pub token_table_entries: usize,
}

impl CostModel {
    fn new(like: ModelDimsLike) -> Self {
        let dims = ModelDims {
            kgs: like.kgs,
            kg: KgDims { nodes: like.nodes, edges: like.edges, levels: like.levels },
            embed_dim: like.embed_dim,
            gnn_dim: like.gnn_dim,
            window: like.window,
            temporal_inner: like.temporal_inner,
            heads: like.heads,
            temporal_layers: like.temporal_layers,
            classes: like.classes,
        };
        CostModel { dims, token_table_entries: like.token_table_entries }
    }

    /// The cost model of a built engine, read as `MissionSystem::cost_dims`
    /// reads it (largest KG, the session-table size of a fresh session).
    pub fn of_engine(engine: &Engine) -> Self {
        let kgs = &engine.kgs;
        let config = engine.config();
        CostModel::new(ModelDimsLike {
            kgs: kgs.len(),
            nodes: kgs.iter().map(|t| t.kg.node_count()).max().unwrap_or(0),
            edges: kgs.iter().map(|t| t.kg.edge_count()).max().unwrap_or(0),
            levels: kgs.iter().map(|t| t.kg.total_levels()).max().unwrap_or(0),
            embed_dim: config.embed_dim,
            gnn_dim: config.gnn_dim,
            window: config.window,
            temporal_inner: config.temporal_inner,
            heads: config.heads,
            temporal_layers: config.temporal_layers,
            classes: engine.model.n_classes(),
            token_table_entries: engine.table.vocab_len() * engine.table.dim(),
        })
    }

    /// Predicted FLOPs of scoring `windows` windows (`inference_flops` each).
    pub fn score_flops(&self, windows: u64) -> u64 {
        windows * self.dims.inference_flops()
    }

    /// Predicted FLOPs of one token update that selected `k`
    /// pseudo-anomalies: the update trains on the `k` anomalies plus `2k`
    /// pseudo-normals for `epochs` passes.
    pub fn token_update_flops(&self, k: usize, epochs: usize) -> u64 {
        epochs as u64 * self.dims.adaptation_step_flops(3 * k, self.token_table_entries)
    }
}

/// Achieved GFLOP/s: `flops` done in `cpu_ns` nanoseconds of CPU time.
pub fn gflops(flops: u64, cpu_ns: u64) -> f64 {
    if cpu_ns == 0 {
        return 0.0;
    }
    flops as f64 / cpu_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(ModelDimsLike {
            kgs: 1,
            nodes: 10,
            edges: 12,
            levels: 3,
            embed_dim: 32,
            gnn_dim: 8,
            window: 4,
            temporal_inner: 32,
            heads: 4,
            temporal_layers: 1,
            classes: 2,
            token_table_entries: 1000,
        })
    }

    #[test]
    fn score_flops_scale_with_windows() {
        let m = model();
        let one = m.dims.inference_flops();
        assert!(one > 0);
        assert_eq!(m.score_flops(0), 0);
        assert_eq!(m.score_flops(16), 16 * one);
    }

    #[test]
    fn token_update_counts_three_k_windows_per_epoch() {
        let m = model();
        let fw = m.dims.inference_flops();
        // forward + backward (2x forward) over 3k windows, plus 10 ops per
        // table entry for the update, per epoch.
        let per_epoch = 3 * fw * 6 + 10 * 1000;
        assert_eq!(m.token_update_flops(2, 1), per_epoch);
        assert_eq!(m.token_update_flops(2, 2), 2 * per_epoch);
    }

    #[test]
    fn gflops_is_flops_per_ns() {
        assert_eq!(gflops(2_000_000_000, 1_000_000_000), 2.0);
        assert_eq!(gflops(5, 0), 0.0);
    }
}
