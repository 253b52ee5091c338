//! The closed-loop workloads: every stream gets one frame per tick and
//! its next frame only after the tick that scored the previous one.
//!
//! - `trend-shift`: 4 adaptive streams on `MultiStreamRuntime::tick`;
//!   after a warm-up on the trained class the trend shifts to a class the
//!   detector has never seen, so continuous adaptation fires.
//! - `static-kg`: 16 streams with the same detector and the same shift,
//!   served through `tick_with_plan` with `adapt: false` — the paper's
//!   static-KG baseline, where batched scoring is nearly all the work.

use crate::clock::{process_ns, thread_ns};
use crate::exec::{Executor, LayerCounts};
use crate::layers::Spans;
use crate::reference::Reference;
use crate::round::{Call, Checks, Layers, RoundResult};
use crate::setup::{mix, tag, PhaseTimer, Pregen, SetupTimes, Trained, SHIFTED};
use crate::stats;
use crate::trace::{Tracer, NO_FRAME};
use adaptive_kg::core::adapt::AdaptConfig;
use adaptive_kg::core::engine::Engine;
use adaptive_kg::runtime::{FrameSource, MultiStreamRuntime, RuntimeConfig, StreamPlan};

pub struct ClosedSpec {
    pub streams: usize,
    pub adapt: bool,
    /// Ticks on the trained class before the shift.
    pub warm: usize,
    /// Ticks on the shifted class.
    pub post: usize,
    /// Rounds whose sessions are evaluated for `post_shift_auc`.
    pub auc_rounds: u64,
}

/// Streams per round whose sessions are evaluated for `post_shift_auc`
/// (static sessions never change, so more would repeat one value).
const AUC_STREAMS: usize = 4;

pub const TREND_SHIFT: ClosedSpec =
    ClosedSpec { streams: 4, adapt: true, warm: 64, post: 192, auc_rounds: 4 };
pub const STATIC_KG: ClosedSpec =
    ClosedSpec { streams: 16, adapt: false, warm: 64, post: 448, auc_rounds: 1 };

pub struct Closed {
    spec: &'static ClosedSpec,
    seed: u64,
    trained: Trained,
    pending: Option<MultiStreamRuntime<Pregen>>,
    /// Token updates fired after the shift, over all untraced rounds.
    post_shift_updates: u64,
    token_updates: u64,
    replacements: u64,
    layer_counts: LayerCounts,
    session_bytes: Vec<f64>,
    workspace_high_water: usize,
}

impl Closed {
    pub fn setup(
        spec: &'static ClosedSpec,
        seed: u64,
        timer: &mut PhaseTimer,
        times: &mut SetupTimes,
    ) -> Self {
        let (trained, engine) = Trained::make(timer, times);
        let mut w = Closed {
            spec,
            seed,
            trained,
            pending: None,
            post_shift_updates: 0,
            token_updates: 0,
            replacements: 0,
            layer_counts: LayerCounts::default(),
            session_bytes: Vec::new(),
            workspace_high_water: 0,
        };
        w.pending = Some(w.runtime(engine, 0));
        times.register_s = timer.lap();
        w
    }

    fn ticks(&self) -> usize {
        self.spec.warm + self.spec.post
    }

    fn adapt_config(&self, round: u64, stream: u64) -> AdaptConfig {
        AdaptConfig { seed: mix(self.seed, round, stream, tag::ADAPT), ..AdaptConfig::default() }
    }

    fn sources(&self, round: u64) -> Vec<Pregen> {
        (0..self.spec.streams as u64)
            .map(|s| {
                let seed = mix(self.seed, round, s, tag::SOURCE);
                Pregen::generate(&self.trained.dataset, seed, self.ticks(), self.spec.warm)
            })
            .collect()
    }

    fn runtime(&self, engine: Engine, round: u64) -> MultiStreamRuntime<Pregen> {
        let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig::default());
        for (s, source) in self.sources(round).into_iter().enumerate() {
            let s = s as u64;
            rt.add_stream(
                source,
                mix(self.seed, round, s, tag::FRAME),
                self.adapt_config(round, s),
            );
        }
        rt
    }

    pub fn untraced(
        &mut self,
        round: u64,
        want_auc: bool,
        reference: &mut Reference,
    ) -> RoundResult {
        let mut rt = match (round, self.pending.take()) {
            (0, Some(rt)) => rt,
            _ => self.runtime(self.trained.engine(), round),
        };
        let n = self.spec.streams;
        let plans = vec![StreamPlan { adapt: self.spec.adapt, ..StreamPlan::default() }; n];
        let mut res = RoundResult { offered: (n * self.ticks()) as u64, ..RoundResult::default() };
        res.calls.reserve(self.ticks());
        res.scores.reserve(n * self.ticks());
        let mut updates_at_shift = 0;
        let start = process_ns();
        for t in 0..self.ticks() {
            if t == self.spec.warm {
                updates_at_shift = rt.counters().token_updates;
            }
            let t0 = thread_ns();
            let (scores, ns): (Vec<Option<f32>>, u64) = if self.spec.adapt {
                let scores = rt.tick();
                let ns = thread_ns() - t0;
                (scores.into_iter().map(Some).collect(), ns)
            } else {
                let scores = rt.tick_with_plan(&plans);
                (scores, thread_ns() - t0)
            };
            let frames = scores.iter().flatten().count() as u32;
            res.calls.push(Call { ns, frames, slowdown: reference.sample() });
            res.push_scores(&scores);
        }
        res.cpu_ns = process_ns() - start;
        let c = rt.counters();
        res.served = c.frames as u64;
        res.failed = c.rejected as u64;
        let post_shift = (c.token_updates - updates_at_shift) as u64;
        res.counts = vec![c.frames as u64, c.dispatches as u64, post_shift];
        for s in 0..n {
            let (updates, replaced) = rt.stream_event_totals(s);
            res.counts.extend([updates as u64, replaced as u64]);
        }
        self.post_shift_updates += post_shift;
        self.token_updates += c.token_updates as u64;
        self.replacements += c.node_replacements as u64;
        if want_auc && round < self.spec.auc_rounds {
            let test = self.trained.dataset.test_subset(SHIFTED);
            res.aucs = (0..n.min(AUC_STREAMS))
                .map(|s| f64::from(rt.engine().evaluate_auc(rt.session(s), &test)))
                .collect();
        }
        res
    }

    pub fn traced(&mut self, round: u64, tracer: &mut Tracer) -> RoundResult {
        let mut ex = Executor::new(self.trained.engine());
        let n = self.spec.streams;
        for s in 0..n as u64 {
            ex.add_stream(mix(self.seed, round, s, tag::FRAME), self.adapt_config(round, s));
        }
        let mut sources = self.sources(round);
        let plans = vec![StreamPlan { adapt: self.spec.adapt, ..StreamPlan::default() }; n];
        let mut res = RoundResult { offered: (n * self.ticks()) as u64, ..RoundResult::default() };
        let mut updates_at_shift = 0;
        let start = process_ns();
        for t in 0..self.ticks() {
            if t == self.spec.warm {
                updates_at_shift = ex.counts.token_updates;
            }
            tracer.open("tick", NO_FRAME);
            let scores =
                ex.execute(&plans, &mut |i| sources[i].next_frame(), tracer, &self.trained.cost);
            tracer.close();
            res.push_scores(&scores);
        }
        res.cpu_ns = process_ns() - start;
        let c = &ex.counts;
        res.served = c.ingested;
        res.failed = c.rejected;
        res.counts = vec![c.ingested, c.dispatches, c.token_updates - updates_at_shift];
        for s in 0..n {
            let (updates, replaced) = ex.event_totals(s);
            res.counts.extend([updates as u64, replaced as u64]);
        }
        self.session_bytes.extend(ex.sessions().map(|s| s.state_bytes() as f64));
        self.workspace_high_water = self.workspace_high_water.max(ex.workspace_high_water_bytes());
        self.layer_counts.merge(&ex.counts);
        res
    }

    pub fn layers(&self, spans: &Spans, layers: &mut Layers) {
        crate::layers::counts(&self.layer_counts, spans, layers);
        layers.insert("mem.model_bytes".into(), self.trained.engine().model_bytes() as f64);
        layers.insert("mem.session_bytes_mean".into(), stats::mean(&self.session_bytes));
        layers.insert("mem.workspace_high_water_bytes".into(), self.workspace_high_water as f64);
    }

    /// Non-vacuity: the workload still exercises (or still bypasses)
    /// adaptation. The untraced rounds run in both modes, and their
    /// counters come from the runtime; the traced ones come from the
    /// adapters' own event logs.
    pub fn checks(&self, traced: bool, checks: &mut Checks) {
        if self.spec.adapt {
            checks.add(
                "trend-shift fires token updates after the shift",
                self.post_shift_updates > 0,
            );
            if traced {
                checks.add(
                    "trend-shift traced adapters log token updates",
                    self.layer_counts.token_updates > 0,
                );
            }
        } else {
            checks.add(
                "static-kg runs no adaptation (runtime counters)",
                self.token_updates == 0 && self.replacements == 0,
            );
            if traced {
                checks.add(
                    "static-kg traced adapters log no adaptation event",
                    self.layer_counts.token_updates == 0 && self.layer_counts.replacements == 0,
                );
            }
        }
    }
}
