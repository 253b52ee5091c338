//! The adaptation step contract (`akg_core::adapt::token_step`): gather the
//! rows the session's KGs use into a trainable leaf, train it with one
//! stacked forward per epoch, scatter it back. Checked against the
//! per-window dense oracle — a dense fork of the whole table trained
//! through `Engine::window_logits_with_table`, one forward per window —
//! under Scalar AND Simd:
//!
//! - epoch-0 logits and loss are bit-identical to the oracle's;
//! - the trained rows match the oracle's within [`ROW_TOL`] (the gradient
//!   sums are added in a different order, so not bitwise);
//! - rows outside the gathered set stay bit-unchanged;
//! - an overlay session materializes exactly the rows whose bits changed,
//!   and resolves bit-identically to a dense session taking the same step.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`.

use akg_core::adapt::{token_step, AdaptConfig};
use akg_core::engine::{Engine, Session};
use akg_core::loss::decision_loss_smoothed;
use akg_core::pipeline::SystemConfig;
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::nn::Module;
use akg_tensor::optim::{Optimizer, Sgd};
use akg_tensor::Tensor;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test that changes (or depends bitwise on) the
/// process-wide backend setting.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` under the given backend, restoring the previous policy after.
/// Callers must hold [`BACKEND_LOCK`].
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    let prev = backend();
    set_backend(b);
    let r = f();
    set_backend(prev);
    r
}

/// Both serving backends. `Simd` resolves to scalar on hosts without
/// AVX2+FMA, so this is safe (and still meaningful) everywhere.
const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

/// Largest allowed |stacked − oracle| per trained table value. One step
/// moves a value by at most `lr · max_grad_norm` = 0.01 per epoch; the two
/// paths differ only in the order gradient terms are summed, which costs a
/// few ulps of the gradient — orders of magnitude below this bound.
const ROW_TOL: f32 = 1e-6;

/// Two missions, so the stacked forward joins several GNNs.
fn build_engine(b: Backend) -> Engine {
    let engine = Engine::build(
        &[AnomalyClass::Stealing, AnomalyClass::Robbery],
        &SystemConfig { backend: b, ..Default::default() },
    );
    engine.model.set_frozen(true);
    engine
}

/// A deterministic pool of distinct frame embeddings.
fn frame_pool(engine: &Engine, len: usize) -> Vec<Vec<f32>> {
    let dim = engine.config().embed_dim;
    (0..len)
        .map(|t| (0..dim).map(|c| ((t * 37 + c * 11) as f32 * 0.173).sin() * 0.8).collect())
        .collect()
}

/// Rolling windows ending at `ends`, front-padded by repeating the oldest
/// frame — the adapter's window shape, overlapping as its windows do.
fn rolling_windows(engine: &Engine, ends: &[usize]) -> Vec<Vec<usize>> {
    let w = engine.config().window;
    ends.iter()
        .map(|&end| {
            let start = end.saturating_sub(w - 1);
            std::iter::repeat_n(start, w - (end - start + 1)).chain(start..=end).collect()
        })
        .collect()
}

/// What the per-window dense oracle computed.
struct Oracle {
    first_logits: Vec<f32>,
    losses: Vec<f32>,
    table: Vec<f32>,
}

/// The per-window dense path: a dense fork of the session's whole table,
/// trained through one `window_logits_with_table` forward per window.
fn per_window_oracle(
    engine: &Engine,
    session: &Session,
    pool: &[Vec<f32>],
    windows: &[Vec<usize>],
    targets: &[usize],
    cfg: &AdaptConfig,
) -> Oracle {
    let table = session.table.fork();
    let mut optimizer = Sgd::new(vec![table.param()], cfg.lr);
    let owned: Vec<Vec<Vec<f32>>> =
        windows.iter().map(|w| w.iter().map(|&i| pool[i].clone()).collect()).collect();
    let model_cfg = *engine.config();
    let mut oracle = Oracle { first_logits: Vec::new(), losses: Vec::new(), table: Vec::new() };
    for epoch in 0..cfg.epochs_per_trigger {
        let rows: Vec<Tensor> =
            owned.iter().map(|w| engine.window_logits_with_table(session, &table, w)).collect();
        let logits = Tensor::concat_rows(&rows);
        if epoch == 0 {
            oracle.first_logits = logits.to_vec();
        }
        let loss = decision_loss_smoothed(
            &logits,
            targets,
            model_cfg.label_smoothing,
            model_cfg.lambda_spa,
            model_cfg.lambda_smt,
        );
        optimizer.zero_grad();
        loss.backward();
        table.param().clip_grad_norm(cfg.max_grad_norm);
        optimizer.step();
        oracle.losses.push(loss.item());
    }
    oracle.table = table.to_dense_vec();
    oracle
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn stacked_step_matches_per_window_dense_oracle() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let cfg = AdaptConfig::default();
            let pool = frame_pool(&engine, 24);
            let frames: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
            // Two pseudo-anomalies (one padded at the buffer start) and four
            // pseudo-normals, overlapping.
            let windows = rolling_windows(&engine, &[3, 20, 5, 9, 14, 23]);
            let targets = [1, 2, 0, 0, 0, 0];

            let mut overlay = engine.new_session(1);
            let mut dense = engine.new_session_dense(1);
            let before = overlay.table.to_dense_vec();
            let oracle = per_window_oracle(&engine, &dense, &pool, &windows, &targets, &cfg);

            // The step's epoch-0 forward, on the rows it is about to gather.
            let rows = overlay.table.gather_kg_rows(&overlay.kgs);
            let gathered = rows.rows();
            let first_logits = engine
                .model
                .window_logits_stacked(&overlay.kgs, &overlay.layouts, &rows, &frames, &windows)
                .to_vec();
            assert_eq!(
                bits(&first_logits),
                bits(&oracle.first_logits),
                "epoch-0 logits diverged from the per-window path under {b:?}"
            );
            let losses = token_step(&engine, &mut overlay, &frames, &windows, &targets, &cfg);
            assert_eq!(
                losses[0].to_bits(),
                oracle.losses[0].to_bits(),
                "epoch-0 loss diverged from the per-window path under {b:?}"
            );
            assert_eq!(losses.len(), cfg.epochs_per_trigger);
            for (epoch, (s, o)) in losses.iter().zip(&oracle.losses).enumerate() {
                assert!((s - o).abs() <= 1e-5, "epoch {epoch} loss {s} vs per-window {o}");
            }

            let after = overlay.table.to_dense_vec();
            let dim = overlay.table.dim();
            let mut changed = Vec::new();
            for r in 0..overlay.table.capacity() {
                let span = r * dim..(r + 1) * dim;
                if gathered.binary_search(&r).is_err() {
                    assert_eq!(
                        bits(&after[span.clone()]),
                        bits(&before[span]),
                        "row {r} outside the gathered set moved under {b:?}"
                    );
                    continue;
                }
                for (i, (s, o)) in after[span.clone()].iter().zip(&oracle.table[span]).enumerate() {
                    assert!(
                        (s - o).abs() <= ROW_TOL,
                        "row {r} col {i}: stacked {s} vs per-window {o} under {b:?}"
                    );
                }
                if bits(&after[r * dim..(r + 1) * dim]) != bits(&before[r * dim..(r + 1) * dim]) {
                    changed.push(r);
                }
            }
            assert!(!changed.is_empty(), "the step moved no row under {b:?} — vacuous");
            let materialized: Vec<usize> =
                overlay.table.overlay_delta().iter().map(|(r, _)| *r).collect();
            assert_eq!(
                materialized, changed,
                "overlay materialized other rows than the changed ones under {b:?}"
            );

            // A dense session taking the same step lands on the same bits.
            let dense_losses = token_step(&engine, &mut dense, &frames, &windows, &targets, &cfg);
            assert_eq!(
                bits(&dense_losses),
                bits(&losses),
                "dense step losses diverged under {b:?}"
            );
            assert_eq!(
                bits(&dense.table.to_dense_vec()),
                bits(&after),
                "overlay ≢ dense after the step under {b:?}"
            );
        });
    }
}

/// A step that moves nothing (zero learning rate) materializes nothing; a
/// second real step on an overlay refreshes already-materialized rows in
/// place and still only adds rows whose bits changed.
#[test]
fn repeated_steps_keep_the_overlay_exact() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let cfg = AdaptConfig::default();
            let pool = frame_pool(&engine, 16);
            let frames: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
            let mut overlay = engine.new_session(2);
            let mut dense = engine.new_session_dense(2);
            let base = engine.table_base().to_vec();
            let dim = overlay.table.dim();
            let still = AdaptConfig { lr: 0.0, ..cfg };
            let windows = rolling_windows(&engine, &[15, 4, 8]);
            token_step(&engine, &mut overlay, &frames, &windows, &[1, 0, 0], &still);
            assert_eq!(overlay.table.overlay_rows(), 0, "an unchanged row was materialized");
            for (ends, targets) in [([15, 4, 8], [1, 0, 0]), ([6, 12, 2], [2, 0, 0])] {
                let windows = rolling_windows(&engine, &ends);
                let a = token_step(&engine, &mut overlay, &frames, &windows, &targets, &cfg);
                let d = token_step(&engine, &mut dense, &frames, &windows, &targets, &cfg);
                assert_eq!(bits(&a), bits(&d), "overlay and dense steps diverged under {b:?}");
            }
            let resolved = overlay.table.to_dense_vec();
            assert_eq!(bits(&resolved), bits(&dense.table.to_dense_vec()));
            let changed: Vec<usize> = (0..overlay.table.capacity())
                .filter(|&r| {
                    bits(&resolved[r * dim..(r + 1) * dim]) != bits(&base[r * dim..(r + 1) * dim])
                })
                .collect();
            let materialized: Vec<usize> =
                overlay.table.overlay_delta().iter().map(|(r, _)| *r).collect();
            assert_eq!(materialized, changed, "overlay rows ≠ changed rows under {b:?}");
        });
    }
}
