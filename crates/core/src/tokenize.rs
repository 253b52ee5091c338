//! KG tokenization and the trainable token-embedding table.
//!
//! Every reasoning node's input embedding is the mean of its concept's BPE
//! token embeddings. The table is the *only* parameter set the continuous
//! adaptation phase updates; spare rows are pre-allocated so freshly created
//! nodes can receive a random token embedding without reallocating (which
//! would invalidate optimizer state).
//!
//! A table comes in two storage flavours behind one type: **dense** (a full
//! trainable [`Embedding`] — the engine template and single-tenant systems)
//! and **overlay** (a sparse copy-on-write
//! map of adapted rows over a shared `Arc`'d base — the per-session form,
//! whose resident size is proportional to the rows adaptation actually
//! touched, not the vocabulary). Every read path resolves base-or-overlay per
//! row with arithmetic bit-identical to the dense path, which is what lets
//! the overlay ≡ dense-fork equivalence contract hold bit-for-bit.
//! Adaptation trains neither form directly: it gathers the rows the KGs use
//! into a small trainable leaf ([`GatheredRows`]) and scatters them back.

use akg_embed::{BpeTokenizer, JointSpace};
use akg_kg::{KnowledgeGraph, NodeId, NodeKind};
use akg_tensor::nn::{Embedding, Module};
use akg_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Backing storage of a [`TokenTable`].
#[derive(Debug)]
enum Storage {
    /// Full-capacity trainable embedding.
    Dense(Embedding),
    /// Sparse copy-on-write overlay: rows materialize into `rows` on first
    /// write; everything else reads through to the shared immutable `base`.
    /// A `BTreeMap` keeps iteration (and therefore serialized deltas)
    /// deterministic.
    Overlay { base: Arc<Vec<f32>>, rows: BTreeMap<usize, Vec<f32>> },
}

/// The trainable token-embedding table: BPE vocabulary rows initialized from
/// the joint space, plus spare rows for adaptation-created nodes.
#[derive(Debug)]
pub struct TokenTable {
    storage: Storage,
    vocab_len: usize,
    capacity: usize,
    dim: usize,
    next_spare: usize,
}

impl TokenTable {
    /// Builds the table from a tokenizer's vocabulary and the joint space,
    /// reserving `spare_rows` rows for adaptation-created nodes.
    pub fn new(tokenizer: &BpeTokenizer, space: &JointSpace, spare_rows: usize) -> Self {
        let vocab = tokenizer.vocab();
        let dim = space.dim();
        let mut weights = space.token_table(vocab);
        weights.extend(std::iter::repeat_n(0.0, spare_rows * dim));
        let capacity = vocab.len() + spare_rows;
        TokenTable {
            storage: Storage::Dense(Embedding::from_weights(weights, capacity, dim)),
            vocab_len: vocab.len(),
            capacity,
            dim,
            next_spare: vocab.len(),
        }
    }

    /// Deep-copies the table into an independent *dense* twin: fresh tensor
    /// storage (no shared autograd state with `self`), same resolved weights,
    /// same spare-row cursor. Works from either storage flavour — forking an
    /// overlay densifies it.
    pub fn fork(&self) -> TokenTable {
        let weights = self.to_dense_vec();
        TokenTable {
            storage: Storage::Dense(Embedding::from_weights(weights, self.capacity, self.dim)),
            vocab_len: self.vocab_len,
            capacity: self.capacity,
            dim: self.dim,
            next_spare: self.next_spare,
        }
    }

    /// A sparse copy-on-write fork over `base` (a flat `[capacity * dim]`
    /// snapshot of this table's resolved weights, shared across sessions).
    /// Starts with zero materialized rows, so its resident footprint is a
    /// cursor and an empty map until adaptation first writes.
    ///
    /// # Panics
    ///
    /// Panics if `base` does not match this table's `capacity * dim`.
    pub fn fork_overlay(&self, base: &Arc<Vec<f32>>) -> TokenTable {
        assert_eq!(
            base.len(),
            self.capacity * self.dim,
            "fork_overlay: base length must be capacity * dim"
        );
        TokenTable {
            storage: Storage::Overlay { base: Arc::clone(base), rows: BTreeMap::new() },
            vocab_len: self.vocab_len,
            capacity: self.capacity,
            dim: self.dim,
            next_spare: self.next_spare,
        }
    }

    /// The spare-row cursor: the next row [`TokenTable::allocate_random_row`]
    /// would hand out. Persisted with deployment state so a restored system
    /// keeps allocating from where it left off.
    pub fn next_spare(&self) -> usize {
        self.next_spare
    }

    /// Restores a persisted spare-row cursor.
    ///
    /// # Panics
    ///
    /// Panics if the cursor lies outside `[vocab_len, capacity]` (it must
    /// point into the spare region or one past its end).
    pub fn restore_spare_cursor(&mut self, next_spare: usize) {
        assert!(
            (self.vocab_len..=self.capacity).contains(&next_spare),
            "spare cursor {next_spare} outside [{}, {}]",
            self.vocab_len,
            self.capacity
        );
        self.next_spare = next_spare;
    }

    /// Non-differentiable mean embedding of the given rows with the *same*
    /// arithmetic as the differentiable [`TokenTable::node_embedding`]
    /// (rows summed in order, then scaled by the reciprocal count) — the
    /// batched serving path uses this to fill node-feature rows without
    /// creating graph nodes while staying bit-identical to the per-window
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any row is out of bounds.
    pub fn node_embedding_mean(&self, rows: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        self.node_embedding_mean_into(rows, &mut out);
        out
    }

    /// [`TokenTable::node_embedding_mean`] into a caller-provided buffer —
    /// the allocation-free form the inference data plane's node-feature
    /// assembly uses. Same arithmetic, same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, `out` is not `dim` long, or any row is out
    /// of bounds.
    pub fn node_embedding_mean_into(&self, rows: &[usize], out: &mut [f32]) {
        assert!(!rows.is_empty(), "node_embedding_mean: empty row list");
        let dim = self.dim;
        assert_eq!(out.len(), dim, "node_embedding_mean_into: out must be [dim]");
        let inv = 1.0 / rows.len() as f32;
        match &self.storage {
            Storage::Dense(emb) => emb.weight().with_data(|w| {
                out.fill(0.0);
                for &r in rows {
                    let row = &w[r * dim..(r + 1) * dim];
                    for (o, v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                for o in out.iter_mut() {
                    *o *= inv;
                }
            }),
            Storage::Overlay { base, rows: adapted } => {
                out.fill(0.0);
                for &r in rows {
                    let row = resolve_row(base, adapted, dim, r);
                    for (o, v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                for o in out.iter_mut() {
                    *o *= inv;
                }
            }
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows belonging to the base BPE vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.vocab_len
    }

    /// Remaining spare rows.
    pub fn spare_remaining(&self) -> usize {
        self.capacity - self.next_spare
    }

    /// Allocates a spare row initialized with a random unit-scaled embedding
    /// (the paper's "new node with a random token embedding"). Returns the
    /// row index.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message when the spare pool is exhausted.
    pub fn allocate_random_row(&mut self, rng: &mut StdRng) -> Result<usize, String> {
        if self.next_spare >= self.capacity {
            return Err("token table spare rows exhausted".to_string());
        }
        let row = self.next_spare;
        self.next_spare += 1;
        let dim = self.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let noise: Vec<f32> = (0..dim).map(|_| rng.gen_range(-scale..scale)).collect();
        match &mut self.storage {
            Storage::Dense(emb) => emb.weight().update_data(|data| {
                data[row * dim..(row + 1) * dim].copy_from_slice(&noise);
            }),
            Storage::Overlay { rows, .. } => {
                rows.insert(row, noise);
            }
        }
        Ok(row)
    }

    /// Differentiable mean embedding of the given rows, shape `[1, dim]`.
    ///
    /// On an overlay table the result is a *constant* tensor (gradients never
    /// flow into an overlay — adaptation trains a [`GatheredRows`] leaf and
    /// scatters the result back), built with the same summed-in-order,
    /// reciprocal-scaled arithmetic so forward values stay bit-identical to
    /// the dense path.
    pub fn node_embedding(&self, rows: &[usize]) -> Tensor {
        match &self.storage {
            Storage::Dense(emb) => emb.mean_of(rows),
            Storage::Overlay { .. } => {
                Tensor::from_vec(self.node_embedding_mean(rows), &[1, self.dim])
            }
        }
    }

    /// Non-differentiable snapshot of a node's mean embedding.
    pub fn node_embedding_data(&self, rows: &[usize]) -> Vec<f32> {
        let dim = self.dim;
        let mut out = vec![0.0f32; dim];
        match &self.storage {
            Storage::Dense(emb) => {
                let w = emb.weight().to_vec();
                for &r in rows {
                    for c in 0..dim {
                        out[c] += w[r * dim + c];
                    }
                }
            }
            Storage::Overlay { base, rows: adapted } => {
                for &r in rows {
                    let row = resolve_row(base, adapted, dim, r);
                    for c in 0..dim {
                        out[c] += row[c];
                    }
                }
            }
        }
        for v in &mut out {
            *v /= rows.len().max(1) as f32;
        }
        out
    }

    /// A raw row of the table.
    pub fn row_data(&self, row: usize) -> Vec<f32> {
        let dim = self.dim;
        match &self.storage {
            Storage::Dense(emb) => {
                let w = emb.weight().to_vec();
                w[row * dim..(row + 1) * dim].to_vec()
            }
            Storage::Overlay { base, rows } => resolve_row(base, rows, dim, row).to_vec(),
        }
    }

    /// The single trainable parameter (the table itself).
    ///
    /// # Panics
    ///
    /// Panics on an overlay table — overlays have no parameter tensor; train
    /// a [`TokenTable::gather_kg_rows`] leaf instead.
    pub fn param(&self) -> Tensor {
        match &self.storage {
            Storage::Dense(emb) => emb.weight().clone(),
            Storage::Overlay { .. } => {
                panic!("TokenTable::param: overlay tables have no parameter tensor")
            }
        }
    }

    /// Freezes/unfreezes the table (frozen during initial decision-model
    /// training, the *only* unfrozen parameter during adaptation). No-op on
    /// an overlay table, which is never differentiated.
    pub fn set_frozen(&self, frozen: bool) {
        match &self.storage {
            Storage::Dense(emb) => emb.set_frozen(frozen),
            Storage::Overlay { .. } => {}
        }
    }

    /// Total row capacity (vocabulary plus spare region).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether this table is a sparse copy-on-write overlay.
    pub fn is_overlay(&self) -> bool {
        matches!(self.storage, Storage::Overlay { .. })
    }

    /// Number of rows materialized in the overlay (0 for dense tables).
    pub fn overlay_rows(&self) -> usize {
        match &self.storage {
            Storage::Dense(_) => 0,
            Storage::Overlay { rows, .. } => rows.len(),
        }
    }

    /// The fully resolved weights, flat `[capacity * dim]`, regardless of
    /// storage flavour. The engine uses this to snapshot its trained template
    /// as the shared overlay base; persistence uses it to densify.
    pub fn to_dense_vec(&self) -> Vec<f32> {
        match &self.storage {
            Storage::Dense(emb) => emb.weight().to_vec(),
            Storage::Overlay { base, rows } => {
                let mut out = base.as_ref().clone();
                let dim = self.dim;
                for (r, row) in rows {
                    out[r * dim..(r + 1) * dim].copy_from_slice(row);
                }
                out
            }
        }
    }

    /// Gathers every table row the reasoning nodes of `kgs` reference —
    /// deduplicated, ascending — into a fresh trainable leaf (see
    /// [`GatheredRows`]). Works from either storage flavour; the leaf shares
    /// no autograd state with the table.
    pub fn gather_kg_rows(&self, kgs: &[TokenizedKg]) -> GatheredRows {
        let mut rows: Vec<usize> =
            kgs.iter().flat_map(|tkg| tkg.node_tokens.values().flatten().copied()).collect();
        rows.sort_unstable();
        rows.dedup();
        let dim = self.dim;
        let mut values = vec![0.0f32; rows.len() * dim];
        for (out, &r) in values.chunks_exact_mut(dim).zip(&rows) {
            match &self.storage {
                Storage::Dense(emb) => {
                    emb.weight().with_data(|w| out.copy_from_slice(&w[r * dim..(r + 1) * dim]));
                }
                Storage::Overlay { base, rows: adapted } => {
                    out.copy_from_slice(resolve_row(base, adapted, dim, r));
                }
            }
        }
        let param = Tensor::from_vec(values, &[rows.len(), dim]).requires_grad(true);
        GatheredRows { rows, param }
    }

    /// Writes trained [`GatheredRows`] back. Dense tables copy the rows;
    /// overlays refresh rows already materialized and materialize exactly
    /// the other rows whose bits now differ from the base, so the overlay
    /// stays sparse. Rows outside the gathered set are never touched.
    ///
    /// # Panics
    ///
    /// Panics if a gathered row is out of bounds or the leaf is not
    /// `[rows, dim]`.
    pub fn scatter(&mut self, gathered: &GatheredRows) {
        let dim = self.dim;
        assert_eq!(
            gathered.param.shape(),
            vec![gathered.rows.len(), dim],
            "scatter: gathered leaf is not [rows, dim]"
        );
        gathered.param.with_data(|values| match &mut self.storage {
            Storage::Dense(emb) => emb.weight().update_data(|w| {
                for (fresh, &r) in values.chunks_exact(dim).zip(&gathered.rows) {
                    w[r * dim..(r + 1) * dim].copy_from_slice(fresh);
                }
            }),
            Storage::Overlay { base, rows } => {
                for (fresh, &r) in values.chunks_exact(dim).zip(&gathered.rows) {
                    if let Some(existing) = rows.get_mut(&r) {
                        existing.copy_from_slice(fresh);
                    } else {
                        let b = &base[r * dim..(r + 1) * dim];
                        if fresh.iter().zip(b).any(|(f, b)| f.to_bits() != b.to_bits()) {
                            rows.insert(r, fresh.to_vec());
                        }
                    }
                }
            }
        });
    }

    /// The overlay's materialized rows as a sorted `(row, values)` delta —
    /// the compact checkpoint form. Empty for dense tables.
    pub fn overlay_delta(&self) -> Vec<(usize, Vec<f32>)> {
        match &self.storage {
            Storage::Dense(_) => Vec::new(),
            Storage::Overlay { rows, .. } => rows.iter().map(|(r, v)| (*r, v.clone())).collect(),
        }
    }

    /// Replaces the overlay's materialized rows wholesale from a checkpoint
    /// delta (the inverse of [`TokenTable::overlay_delta`]).
    ///
    /// # Panics
    ///
    /// Panics on a dense table, or if a delta row is out of bounds or not
    /// `dim` long — callers validate deltas before applying.
    pub fn apply_overlay_delta(&mut self, delta: &[(usize, Vec<f32>)]) {
        let (capacity, dim) = (self.capacity, self.dim);
        match &mut self.storage {
            Storage::Dense(_) => {
                panic!("apply_overlay_delta: table is dense")
            }
            Storage::Overlay { rows, .. } => {
                rows.clear();
                for (r, v) in delta {
                    assert!(*r < capacity, "apply_overlay_delta: row {r} out of bounds");
                    assert_eq!(v.len(), dim, "apply_overlay_delta: row {r} has wrong dim");
                    rows.insert(*r, v.clone());
                }
            }
        }
    }

    /// Resident heap bytes attributable to this table. Dense tables own the
    /// full weight matrix; overlays own only the materialized rows (plus a
    /// small per-entry map overhead) — the shared base is counted once at the
    /// engine, not per session.
    pub fn state_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(_) => self.capacity * self.dim * std::mem::size_of::<f32>(),
            Storage::Overlay { rows, .. } => {
                let per_row = self.dim * std::mem::size_of::<f32>()
                    + std::mem::size_of::<usize>()
                    + std::mem::size_of::<Vec<f32>>();
                rows.len() * per_row
            }
        }
    }
}

/// Resolves a row against an overlay: the materialized copy if present,
/// otherwise the shared base slice.
fn resolve_row<'a>(
    base: &'a [f32],
    rows: &'a BTreeMap<usize, Vec<f32>>,
    dim: usize,
    r: usize,
) -> &'a [f32] {
    match rows.get(&r) {
        Some(v) => v,
        None => &base[r * dim..(r + 1) * dim],
    }
}

/// A subset of a [`TokenTable`]'s rows, ascending, held as one trainable
/// `[rows, dim]` leaf — what continuous adaptation trains instead of the
/// full table. Built by [`TokenTable::gather_kg_rows`] and written back by
/// [`TokenTable::scatter`].
///
/// The optimizer uses plain SGD (zero momentum, no weight decay), so rows
/// outside the set would receive a zero gradient and stay unchanged anyway;
/// and the gradient norm over the gathered rows in ascending order sums the
/// same non-zero terms as the norm over the full table.
#[derive(Debug)]
pub struct GatheredRows {
    rows: Vec<usize>,
    param: Tensor,
}

impl GatheredRows {
    /// The gathered table rows, ascending.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The trainable `[rows, dim]` leaf.
    pub fn param(&self) -> &Tensor {
        &self.param
    }

    /// Differentiable mean embedding of the given *table* rows, shape
    /// `[1, dim]` — the same gather-then-mean arithmetic as
    /// [`TokenTable::node_embedding`] on a dense table, so forward values
    /// are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `table_rows` is empty or names a row that was not gathered.
    pub fn node_embedding(&self, table_rows: &[usize]) -> Tensor {
        let local: Vec<usize> = table_rows
            .iter()
            .map(|r| self.rows.binary_search(r).expect("GatheredRows: row was not gathered"))
            .collect();
        self.param.mean_rows(&local)
    }
}

/// A KG plus the token rows backing each node and the mission's own text
/// embedding (held by the embedding node, so the hierarchical messages
/// `X_s ⊙ X_d` into it compare propagated reasoning against the mission —
/// a zero embedding node would silence Eq. 2 entirely).
#[derive(Debug, Clone)]
pub struct TokenizedKg {
    /// The graph structure.
    pub kg: KnowledgeGraph,
    /// Token rows (into the [`TokenTable`]) per reasoning node.
    pub node_tokens: HashMap<NodeId, Vec<usize>>,
    /// The mission text's joint-space embedding (embedding-node input).
    pub mission_embedding: Vec<f32>,
}

impl TokenizedKg {
    /// Tokenizes every reasoning node's concept text. `mission_embedding`
    /// is the joint-space embedding of the mission text (see
    /// [`akg_embed::JointSpace::embed_text`]).
    ///
    /// # Panics
    ///
    /// Panics if `mission_embedding` is all zeros (it would block every
    /// hierarchical message into the embedding node).
    pub fn new(kg: KnowledgeGraph, tokenizer: &BpeTokenizer, mission_embedding: Vec<f32>) -> Self {
        assert!(mission_embedding.iter().any(|v| *v != 0.0), "mission embedding must be non-zero");
        let mut node_tokens = HashMap::new();
        for node in kg.nodes() {
            if node.kind == NodeKind::Reasoning {
                let ids: Vec<usize> =
                    tokenizer.encode(&node.concept).into_iter().map(usize::from).collect();
                let ids = if ids.is_empty() { vec![0] } else { ids };
                node_tokens.insert(node.id, ids);
            }
        }
        TokenizedKg { kg, node_tokens, mission_embedding }
    }

    /// Registers a freshly created node backed by the given table rows.
    pub fn register_node(&mut self, id: NodeId, rows: Vec<usize>) {
        self.node_tokens.insert(id, rows);
    }

    /// Forgets a pruned node's token assignment.
    pub fn unregister_node(&mut self, id: NodeId) {
        self.node_tokens.remove(&id);
    }

    /// Token rows of a node.
    pub fn tokens_of(&self, id: NodeId) -> Option<&[usize]> {
        self.node_tokens.get(&id).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_kg::{generate_kg, GeneratorConfig, SyntheticOracle};
    use rand::SeedableRng;

    fn fixture() -> (BpeTokenizer, JointSpace, KnowledgeGraph) {
        let ont = akg_kg::Ontology::new();
        let corpus = ont.corpus();
        let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), 600);
        let space = akg_embed::JointSpaceBuilder::new(16, 13, 3).build();
        let mut oracle = SyntheticOracle::perfect(1);
        let kg = generate_kg("stealing", &GeneratorConfig::default(), &mut oracle).kg;
        (tokenizer, space, kg)
    }

    #[test]
    fn table_dimensions() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 8);
        assert_eq!(table.dim(), 16);
        assert_eq!(table.vocab_len(), tok.vocab().len());
        assert_eq!(table.spare_remaining(), 8);
    }

    #[test]
    fn spare_rows_allocate_until_exhausted() {
        let (tok, space, _) = fixture();
        let mut table = TokenTable::new(&tok, &space, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let r1 = table.allocate_random_row(&mut rng).unwrap();
        let r2 = table.allocate_random_row(&mut rng).unwrap();
        assert_eq!(r2, r1 + 1);
        assert!(table.allocate_random_row(&mut rng).is_err());
        // allocated rows are non-zero
        assert!(table.row_data(r1).iter().any(|v| *v != 0.0));
    }

    #[test]
    fn tokenized_kg_covers_all_reasoning_nodes() {
        let (tok, space, kg) = fixture();
        let reasoning: Vec<NodeId> =
            kg.nodes().filter(|n| n.kind == NodeKind::Reasoning).map(|n| n.id).collect();
        let tkg = TokenizedKg::new(kg, &tok, space.embed_text("stealing"));
        for id in reasoning {
            assert!(tkg.tokens_of(id).is_some(), "node {id} untokenized");
            assert!(!tkg.tokens_of(id).unwrap().is_empty());
        }
    }

    #[test]
    fn node_embedding_matches_manual_mean() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        let rows = vec![1, 2];
        let t = table.node_embedding(&rows);
        let manual = table.node_embedding_data(&rows);
        for (a, b) in t.to_vec().iter().zip(&manual) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_reach_only_used_rows() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        table.set_frozen(false);
        let emb = table.node_embedding(&[3]);
        emb.sum_all().backward();
        let grad = table.param().grad().unwrap();
        let dim = table.dim();
        assert!(grad[3 * dim..4 * dim].iter().any(|g| *g != 0.0));
        assert!(grad[..3 * dim].iter().all(|g| *g == 0.0));
    }

    #[test]
    fn frozen_table_retains_no_grad() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        table.set_frozen(true);
        table.node_embedding(&[0]).sum_all().backward();
        assert!(table.param().grad().is_none());
    }

    #[test]
    fn overlay_reads_are_bit_identical_to_dense() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 4);
        let base = Arc::new(table.to_dense_vec());
        let overlay = table.fork_overlay(&base);
        assert!(overlay.is_overlay());
        assert_eq!(overlay.overlay_rows(), 0);
        let rows = vec![1, 3, 5];
        let mut dense_out = vec![0.0f32; table.dim()];
        let mut overlay_out = vec![0.0f32; table.dim()];
        table.node_embedding_mean_into(&rows, &mut dense_out);
        overlay.node_embedding_mean_into(&rows, &mut overlay_out);
        assert_eq!(
            dense_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            overlay_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(table.node_embedding_data(&rows), overlay.node_embedding_data(&rows));
        assert_eq!(table.node_embedding(&rows).to_vec(), overlay.node_embedding(&rows).to_vec());
        assert_eq!(table.row_data(2), overlay.row_data(2));
        assert_eq!(table.to_dense_vec(), overlay.to_dense_vec());
    }

    #[test]
    fn overlay_allocation_matches_dense_and_stays_sparse() {
        let (tok, space, _) = fixture();
        let mut dense = TokenTable::new(&tok, &space, 2);
        let base = Arc::new(dense.to_dense_vec());
        let mut overlay = dense.fork_overlay(&base);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let rd = dense.allocate_random_row(&mut rng_a).unwrap();
        let ro = overlay.allocate_random_row(&mut rng_b).unwrap();
        assert_eq!(rd, ro);
        assert_eq!(dense.row_data(rd), overlay.row_data(ro));
        assert_eq!(overlay.overlay_rows(), 1);
        assert_eq!(dense.next_spare(), overlay.next_spare());
        assert!(overlay.state_bytes() < dense.state_bytes());
    }

    #[test]
    fn scatter_materializes_only_changed_rows() {
        let (tok, space, kg) = fixture();
        let dense = TokenTable::new(&tok, &space, 2);
        let base = Arc::new(dense.to_dense_vec());
        let mut overlay = dense.fork_overlay(&base);
        let tkg = TokenizedKg::new(kg, &tok, space.embed_text("stealing"));
        let gathered = overlay.gather_kg_rows(std::slice::from_ref(&tkg));
        let rows = gathered.rows().to_vec();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "gathered rows not ascending");
        let dim = overlay.dim();
        // Move one gathered row; the rest go back with their original bits.
        gathered.param().update_data(|d| {
            for v in &mut d[dim..2 * dim] {
                *v += 1.0;
            }
        });
        overlay.scatter(&gathered);
        assert_eq!(overlay.overlay_rows(), 1);
        let delta = overlay.overlay_delta();
        assert_eq!(delta[0].0, rows[1]);
        let mut expected = dense.to_dense_vec();
        for v in &mut expected[rows[1] * dim..(rows[1] + 1) * dim] {
            *v += 1.0;
        }
        assert_eq!(overlay.to_dense_vec(), expected);
        // A dense table receives the same rows.
        let mut dense_twin = dense.fork();
        dense_twin.scatter(&gathered);
        assert_eq!(dense_twin.to_dense_vec(), expected);
        let mut restored = dense.fork_overlay(&base);
        restored.apply_overlay_delta(&delta);
        assert_eq!(restored.to_dense_vec(), overlay.to_dense_vec());
    }
}
