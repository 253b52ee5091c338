//! The serving tick composed from the engine's public calls, for the
//! traced run: `next_frame` → `ingest_frame` → `fill_window_refs` +
//! `Engine::score_windows_batch_refs` → `complete_frame`, with a span
//! around each call. It executes the same per-stream plans as
//! `MultiStreamRuntime::tick_with_plan`, in the same order, so its scores
//! must equal the runtime's bit for bit; the benchmark checks that they do.

use crate::flops::CostModel;
use crate::trace::{Tracer, NO_FRAME};
use adaptive_kg::core::adapt::{AdaptConfig, AdaptEvent, ContinuousAdapter};
use adaptive_kg::core::engine::{Engine, Session};
use adaptive_kg::data::Frame;
use adaptive_kg::runtime::StreamPlan;
use adaptive_kg::tensor::Workspace;

/// The batch bound the runtimes serve with (`RuntimeConfig::default`).
pub const MAX_BATCH: usize = 16;

struct Lane {
    session: Session,
    adapter: ContinuousAdapter,
    last_frame: u64,
}

/// Work counts and per-call CPU times of the layers a composed tick calls.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub ingested: u64,
    pub rejected: u64,
    pub dispatches: u64,
    pub windows: u64,
    pub checks: u64,
    pub token_updates: u64,
    pub replacements: u64,
    /// CPU ns of `complete_frame` calls that appended an adaptation event.
    pub update_ns: Vec<u64>,
    /// CPU ns and count of completions that appended no event.
    pub track_ns: u64,
    pub track_calls: u64,
    pub score_flops: u64,
    pub adapt_flops: u64,
}

impl LayerCounts {
    pub fn merge(&mut self, from: &LayerCounts) {
        self.ingested += from.ingested;
        self.rejected += from.rejected;
        self.dispatches += from.dispatches;
        self.windows += from.windows;
        self.checks += from.checks;
        self.token_updates += from.token_updates;
        self.replacements += from.replacements;
        self.update_ns.extend_from_slice(&from.update_ns);
        self.track_ns += from.track_ns;
        self.track_calls += from.track_calls;
        self.score_flops += from.score_flops;
        self.adapt_flops += from.adapt_flops;
    }
}

pub struct Executor {
    pub engine: Engine,
    lanes: Vec<Lane>,
    ws: Workspace,
    out: Vec<f32>,
    next_frame_id: u64,
    pub counts: LayerCounts,
}

impl Executor {
    pub fn new(engine: Engine) -> Self {
        Executor {
            engine,
            lanes: Vec::new(),
            ws: Workspace::new(),
            out: Vec::new(),
            next_frame_id: 0,
            counts: LayerCounts::default(),
        }
    }

    /// Registers a stream exactly as `MultiStreamRuntime::add_stream` does.
    pub fn add_stream(&mut self, frame_seed: u64, adapt: AdaptConfig) {
        let mut session = self.engine.new_session(frame_seed);
        let adapter = ContinuousAdapter::attach(&self.engine, &mut session, adapt);
        self.lanes.push(Lane { session, adapter, last_frame: NO_FRAME });
    }

    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.lanes.iter().map(|l| &l.session)
    }

    /// Lifetime `(token_updates, node_replacements)` of one stream.
    pub fn event_totals(&self, id: usize) -> (usize, usize) {
        event_counts(self.lanes[id].adapter.events())
    }

    pub fn workspace_high_water_bytes(&self) -> usize {
        self.ws.stats().high_water_bytes()
    }

    /// One planned round; `pull(i)` yields stream `i`'s next frame.
    pub fn execute(
        &mut self,
        plans: &[StreamPlan],
        pull: &mut dyn FnMut(usize) -> (Frame, bool),
        tracer: &mut Tracer,
        cost: &CostModel,
    ) -> Vec<Option<f32>> {
        let n = self.lanes.len();
        assert_eq!(plans.len(), n, "one plan per stream");
        let window_len = self.engine.model.config().window;
        for (i, plan) in plans.iter().enumerate() {
            for _ in 0..plan.ingest {
                let id = self.next_frame_id;
                self.next_frame_id += 1;
                tracer.open("data", id);
                let (frame, _label) = pull(i);
                tracer.close();
                tracer.open("ingest", id);
                let lane = &mut self.lanes[i];
                if frame.validate().is_err() {
                    self.counts.rejected += 1;
                } else {
                    lane.adapter.ingest_frame(&self.engine, &mut lane.session, &frame);
                    lane.last_frame = id;
                    self.counts.ingested += 1;
                }
                tracer.close();
            }
        }
        let active: Vec<usize> =
            (0..n).filter(|&i| plans[i].score && self.lanes[i].adapter.has_window()).collect();
        let mut scores = vec![None; n];
        for chunk in active.chunks(MAX_BATCH) {
            tracer.open("score", NO_FRAME);
            let mut flat: Vec<&[f32]> = Vec::with_capacity(chunk.len() * window_len);
            let mut one: Vec<&[f32]> = Vec::with_capacity(window_len);
            for &i in chunk {
                self.lanes[i].adapter.fill_window_refs(&self.engine, &mut one);
                flat.extend_from_slice(&one);
            }
            let batch: Vec<(&Session, &[&[f32]])> = chunk
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    (&self.lanes[i].session, &flat[j * window_len..(j + 1) * window_len])
                })
                .collect();
            self.engine.score_windows_batch_refs(&batch, &mut self.ws, &mut self.out);
            tracer.close();
            for (j, &i) in chunk.iter().enumerate() {
                scores[i] = Some(self.out[j]);
            }
            self.counts.dispatches += 1;
            self.counts.windows += chunk.len() as u64;
            self.counts.score_flops += cost.score_flops(chunk.len() as u64);
        }
        for &i in &active {
            let score = scores[i].expect("active stream was scored");
            let lane = &mut self.lanes[i];
            let events_before = lane.adapter.events().len();
            tracer.open("adapt", lane.last_frame);
            if plans[i].adapt {
                lane.adapter.complete_frame(&self.engine, &mut lane.session, score);
            } else {
                lane.adapter.complete_frame_skip_adapt(score);
            }
            let ns = tracer.close();
            let cfg = lane.adapter.config();
            if plans[i].adapt && lane.adapter.observed().is_multiple_of(cfg.interval) {
                self.counts.checks += 1;
            }
            let appended = &lane.adapter.events()[events_before..];
            if appended.is_empty() {
                self.counts.track_ns += ns;
                self.counts.track_calls += 1;
                continue;
            }
            self.counts.update_ns.push(ns);
            for event in appended {
                match event {
                    AdaptEvent::TokenUpdate { k, .. } => {
                        self.counts.token_updates += 1;
                        self.counts.adapt_flops +=
                            cost.token_update_flops(*k, cfg.epochs_per_trigger);
                    }
                    AdaptEvent::NodeReplaced { .. } => self.counts.replacements += 1,
                }
            }
        }
        scores
    }
}

/// `(token_updates, node_replacements)` in an event log.
fn event_counts(events: &[AdaptEvent]) -> (usize, usize) {
    let updates = events.iter().filter(|e| matches!(e, AdaptEvent::TokenUpdate { .. })).count();
    let replaced = events.iter().filter(|e| matches!(e, AdaptEvent::NodeReplaced { .. })).count();
    (updates, replaced)
}
