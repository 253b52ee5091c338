//! `camera-burst`: 16 camera streams under the `bursty` arrival preset on
//! a single-node `LoadedRuntime`. Arrivals follow a logical-tick open-loop
//! schedule, ticks run back to back, and queues build through every rung
//! of the degrade ladder (skip adaptation, coalesce, shed) in each burst.
//!
//! `LoadedRuntime::new` builds its engine from an `EngineSpec`, so this
//! workload serves the built, untrained detector: it measures the load
//! layer, not detection quality.
//!
//! Everything is read from the runtime's public accessors: the rung of
//! each tick from `decisions()`, the ledger from `counters()`, queue waits
//! from `wait_ticks()`, and which frame each score belongs to from the
//! per-stream `stream_stats()` deltas of each tick.

use crate::clock::{process_ns, thread_ns};
use crate::reference::Reference;
use crate::round::{Call, Checks, Layers, RoundResult};
use crate::setup::{mix, system_config, tag, PhaseTimer, Pregen, SetupTimes, INITIAL};
use crate::stats;
use crate::trace::{Tracer, NO_FRAME};
use adaptive_kg::core::adapt::AdaptConfig;
use adaptive_kg::data::SyntheticUcfCrime;
use adaptive_kg::runtime::{
    ArrivalPattern, DegradeLevel, DegradePolicy, EngineSpec, LoadConfig, LoadCounters,
    LoadGenerator, LoadedRuntime, StreamLoadStats,
};
use std::collections::VecDeque;
use std::sync::Arc;

pub const STREAMS: usize = 16;
/// Five burst periods of the preset (24 ticks on, 72 off).
pub const TICKS: u64 = 480;
/// The trend shifts at the start of the third period.
pub const SHIFT_TICK: u64 = 192;
const AUC_ROUNDS: u64 = 8;

fn pattern() -> ArrivalPattern {
    ArrivalPattern::preset("bursty").expect("bursty is a preset")
}

fn priority(stream: usize) -> u8 {
    (stream % 3) as u8
}

/// Per stream, whether each of its frames is anomalous.
type Labels = Vec<Vec<bool>>;

/// Follows which frame index each stream's score belongs to. The runtime
/// documents its queues as FIFO: a tick's arrivals are taken in order and
/// tail-dropped once the queue is full, and shedding and draining both take
/// the oldest frames. So a tick's `StreamLoadStats` delta says which
/// indices entered, which left, and the last one drained is the one
/// scored.
struct Queues {
    queued: Vec<VecDeque<usize>>,
    next: Vec<usize>,
    stats: Vec<StreamLoadStats>,
}

impl Queues {
    fn new(streams: usize) -> Self {
        Queues {
            queued: vec![VecDeque::new(); streams],
            next: vec![0; streams],
            stats: vec![StreamLoadStats::default(); streams],
        }
    }

    /// Per stream, the index of the frame scored by the tick that moved
    /// the stats to `now`.
    fn advance(&mut self, now: &[StreamLoadStats]) -> Vec<Option<usize>> {
        let mut scored = vec![None; now.len()];
        for (s, (was, now)) in self.stats.iter().zip(now).enumerate() {
            let arrived = now.offered - was.offered;
            let dropped =
                (now.overflow_dropped - was.overflow_dropped) + (now.rejected - was.rejected);
            let queue = &mut self.queued[s];
            queue.extend(self.next[s]..self.next[s] + arrived - dropped);
            self.next[s] += arrived;
            queue.drain(..now.shed - was.shed);
            let drained = (now.served_full + now.served_degraded + now.coalesced)
                - (was.served_full + was.served_degraded + was.coalesced);
            scored[s] = queue.drain(..drained).next_back();
        }
        self.stats.copy_from_slice(now);
        scored
    }
}

pub struct Burst {
    seed: u64,
    dataset: Arc<SyntheticUcfCrime>,
    pending: Option<(LoadedRuntime<Pregen>, Labels)>,
    levels_visited: [usize; 4],
    unbalanced_rounds: u64,
    /// Scores the stats deltas could not match to a frame.
    unlabelled: u64,
    // traced-run layer data
    load: LoadCounters,
    tick_ns: [Vec<f64>; 4],
    wait_ticks_p99: Vec<f64>,
    token_updates: u64,
    workspace_high_water: usize,
}

impl Burst {
    pub fn setup(seed: u64, timer: &mut PhaseTimer, times: &mut SetupTimes) -> Self {
        let dataset = Arc::new(crate::setup::dataset());
        times.dataset_s = timer.lap();
        let mut w = Burst {
            seed,
            dataset,
            pending: None,
            levels_visited: [0; 4],
            unbalanced_rounds: 0,
            unlabelled: 0,
            load: LoadCounters::default(),
            tick_ns: Default::default(),
            wait_ticks_p99: Vec::new(),
            token_updates: 0,
            workspace_high_water: 0,
        };
        let rt = w.runtime(0);
        times.build_s = timer.lap();
        w.pending = Some(w.register(rt, 0));
        times.register_s = timer.lap();
        w
    }

    fn arrivals_seed(&self, round: u64) -> u64 {
        mix(self.seed, round, 0, tag::ARRIVALS)
    }

    fn adapt_config(&self, round: u64, stream: u64) -> AdaptConfig {
        AdaptConfig { seed: mix(self.seed, round, stream, tag::ADAPT), ..AdaptConfig::default() }
    }

    /// Each stream's frames: exactly as many as its arrivals over the round.
    fn sources(&self, round: u64) -> Vec<Pregen> {
        let generator = LoadGenerator { pattern: pattern(), seed: self.arrivals_seed(round) };
        (0..STREAMS as u64)
            .map(|s| {
                let arrivals = |ticks: std::ops::Range<u64>| -> usize {
                    ticks.map(|t| generator.arrivals(t, s) as usize).sum()
                };
                let seed = mix(self.seed, round, s, tag::SOURCE);
                Pregen::generate(&self.dataset, seed, arrivals(0..TICKS), arrivals(0..SHIFT_TICK))
            })
            .collect()
    }

    fn runtime(&self, round: u64) -> LoadedRuntime<Pregen> {
        let cfg = LoadConfig {
            pattern: pattern(),
            seed: self.arrivals_seed(round),
            policy: DegradePolicy::default(),
            max_batch: crate::exec::MAX_BATCH,
        };
        LoadedRuntime::new(engine_spec(), cfg)
    }

    /// Registers the round's streams; returns the runtime and each
    /// stream's frame labels (for the online AUC).
    fn register(
        &self,
        mut rt: LoadedRuntime<Pregen>,
        round: u64,
    ) -> (LoadedRuntime<Pregen>, Labels) {
        let sources = self.sources(round);
        let labels = sources.iter().map(|p| p.0.iter().map(|(_, l)| *l).collect()).collect();
        for (s, source) in sources.into_iter().enumerate() {
            let frame_seed = mix(self.seed, round, s as u64, tag::FRAME);
            rt.add_stream(source, frame_seed, self.adapt_config(round, s as u64), priority(s));
        }
        (rt, labels)
    }

    /// Serves one round: untraced with a reference kernel sample after
    /// each tick, or traced with each tick a `load.tick` span. Returns the
    /// round and its runtime, with each tick's CPU ns.
    fn serve(
        &mut self,
        round: u64,
        mut reference: Option<&mut Reference>,
        mut tracer: Option<&mut Tracer>,
        want_auc: bool,
    ) -> (RoundResult, LoadedRuntime<Pregen>, Vec<u64>) {
        let (mut rt, labels) = match (round, self.pending.take()) {
            (0, Some(prepared)) => prepared,
            _ => self.register(self.runtime(round), round),
        };
        let mut res = RoundResult::default();
        let mut per_tick: Vec<Vec<Option<f32>>> = Vec::with_capacity(TICKS as usize);
        let mut tick_ns = Vec::with_capacity(TICKS as usize);
        let mut queues = Queues::new(STREAMS);
        let (mut post_scores, mut post_labels) = (Vec::new(), Vec::new());
        let start = process_ns();
        for t in 0..TICKS {
            let (scores, ns) = match tracer.as_deref_mut() {
                Some(tracer) => {
                    tracer.open("load.tick", NO_FRAME);
                    let scores = rt.tick();
                    (scores, tracer.close())
                }
                None => {
                    let t0 = thread_ns();
                    let scores = rt.tick();
                    (scores, thread_ns() - t0)
                }
            };
            tick_ns.push(ns);
            if let Some(reference) = reference.as_deref_mut() {
                let frames = scores.iter().flatten().count() as u32;
                res.calls.push(Call { ns, frames, slowdown: reference.sample() });
            }
            if want_auc {
                let scored = queues.advance(rt.stream_stats());
                for (s, (idx, score)) in scored.iter().zip(&scores).enumerate() {
                    match (idx, score) {
                        (Some(idx), Some(score)) if t >= SHIFT_TICK => {
                            post_scores.push(*score);
                            post_labels.push(labels[s][*idx]);
                        }
                        (None, Some(_)) => self.unlabelled += 1,
                        _ => {}
                    }
                }
            }
            per_tick.push(scores);
        }
        res.cpu_ns = process_ns() - start;
        for scores in &per_tick {
            res.push_scores(scores);
        }
        let c = rt.counters();
        res.offered = c.offered as u64;
        res.served = c.drained() as u64;
        res.failed = c.rejected as u64;
        res.counts = load_words(&c);
        res.counts.push(rt.serve_counters().token_updates as u64);
        if !c.balanced() {
            self.unbalanced_rounds += 1;
        }
        if want_auc {
            res.aucs.push(f64::from(adaptive_kg::eval::roc_auc(&post_scores, &post_labels)));
        }
        (res, rt, tick_ns)
    }

    pub fn untraced(
        &mut self,
        round: u64,
        want_auc: bool,
        reference: &mut Reference,
    ) -> RoundResult {
        let (res, rt, _) = self.serve(round, Some(reference), None, want_auc && round < AUC_ROUNDS);
        for (seen, at) in self.levels_visited.iter_mut().zip(rt.counters().ticks_at_level) {
            *seen += at;
        }
        res
    }

    pub fn traced(&mut self, round: u64, tracer: &mut Tracer) -> RoundResult {
        let (res, mut rt, tick_ns) = self.serve(round, None, Some(tracer), false);
        for (d, ns) in rt.decisions().iter().zip(tick_ns) {
            self.tick_ns[d.level.index()].push(ns as f64);
        }
        let c = rt.counters();
        for (into, from) in self.load.ticks_at_level.iter_mut().zip(c.ticks_at_level) {
            *into += from;
        }
        self.load.coalesced += c.coalesced;
        self.load.shed += c.shed;
        self.load.overflow_dropped += c.overflow_dropped;
        self.wait_ticks_p99.push(rt.wait_ticks().percentile(0.99) as f64);
        self.token_updates += rt.serve_counters().token_updates as u64;
        for snap in rt.stream_snapshots() {
            self.workspace_high_water =
                self.workspace_high_water.max(snap.workspace.high_water_bytes());
        }
        res
    }

    /// The untraced rounds run in both modes; the labels are only
    /// followed when `post_shift_auc` is reported.
    pub fn checks(&self, traced: bool, checks: &mut Checks) {
        checks
            .add("the LoadCounters ledger balances after every round", self.unbalanced_rounds == 0);
        checks.add(
            format!(
                "camera-burst visits every degrade rung (ticks per rung {:?})",
                self.levels_visited
            ),
            self.levels_visited.iter().all(|&n| n > 0),
        );
        if !traced {
            checks.add(
                "every camera-burst score is matched to the frame it scored",
                self.unlabelled == 0,
            );
        }
    }

    pub fn layers(&self, layers: &mut Layers) {
        for level in DegradeLevel::ALL {
            let ns = &self.tick_ns[level.index()];
            layers.insert(format!("load.ticks.{}", level.name()), ns.len() as f64);
            layers.insert(format!("load.tick_us.{}", level.name()), stats::mean(ns) * 1e-3);
        }
        layers.insert("load.coalesced".into(), self.load.coalesced as f64);
        layers.insert("load.shed".into(), self.load.shed as f64);
        layers.insert("load.overflow_dropped".into(), self.load.overflow_dropped as f64);
        layers.insert("load.wait_ticks_p99".into(), stats::median(&self.wait_ticks_p99));
        layers.insert("adapt.token_updates".into(), self.token_updates as f64);
        // The runtime keeps its engine private; an engine built from the
        // same spec has the same weights.
        layers.insert("mem.model_bytes".into(), engine_spec().build().model_bytes() as f64);
        layers.insert("mem.workspace_high_water_bytes".into(), self.workspace_high_water as f64);
    }
}

fn engine_spec() -> EngineSpec {
    EngineSpec::new(&[INITIAL], system_config())
}

fn load_words(c: &LoadCounters) -> Vec<u64> {
    let mut words: Vec<u64> = [
        c.ticks,
        c.offered,
        c.served_full,
        c.served_degraded,
        c.coalesced,
        c.shed,
        c.overflow_dropped,
        c.queued,
        c.rejected,
        c.max_queue_depth,
    ]
    .iter()
    .map(|&v| v as u64)
    .collect();
    words.extend(c.ticks_at_level.iter().map(|&v| v as u64));
    words
}
