//! `session-churn`: a `SessionTier` holding far more registered sessions
//! than its resident cap, fed frames scattered across all of them, so
//! nearly every `serve_frame` rehydrates (or cold-starts) one session and
//! evicts another. It exercises the tier and session checkpoints plus the
//! unbatched single-window scoring path.

use crate::clock::{process_ns, thread_ns};
use crate::records::out_dir;
use crate::reference::Reference;
use crate::round::{Call, Checks, Layers, RoundResult};
use crate::setup::{mix, tag, PhaseTimer, Pregen, SetupTimes, Trained};
use crate::stats;
use crate::trace::Tracer;
use adaptive_kg::core::adapt::AdaptConfig;
use adaptive_kg::core::engine::Engine;
use adaptive_kg::data::Frame;
use adaptive_kg::runtime::{SessionTier, TierConfig, TierCounters};

/// Sessions registered per round: 4× the resident cap, so about three
/// frames in four miss. With 1024 the spool's file-system calls took about
/// a third of serving CPU and made runs on a disk-backed checkout swing by
/// 30%; at 256 they take about a tenth.
pub const REGISTERED: usize = 256;
/// Sessions the tier keeps resident.
pub const MAX_RESIDENT: usize = 64;
/// `serve_frame` calls per round; the trend shifts half-way.
pub const SERVES: usize = 2048;
/// Rounds whose post-shift scores enter `post_shift_auc`.
const AUC_ROUNDS: u64 = 8;

/// One round's inputs: which session each frame goes to, and the frames.
struct Plan {
    order: Vec<usize>,
    frames: Vec<(Frame, bool)>,
}

pub struct Churn {
    seed: u64,
    trained: Trained,
    pending: Option<(SessionTier, Plan)>,
    serves: u64,
    misses: u64,
    rehydration_failures: u64,
    // traced-run layer data
    counters: TierCounters,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    resume_ns: Vec<f64>,
    spool_bytes: Vec<f64>,
    session_bytes: Vec<f64>,
    model_bytes: usize,
}

impl Churn {
    pub fn setup(seed: u64, timer: &mut PhaseTimer, times: &mut SetupTimes) -> Self {
        let (trained, engine) = Trained::make(timer, times);
        let model_bytes = engine.model_bytes();
        let mut w = Churn {
            seed,
            trained,
            pending: None,
            serves: 0,
            misses: 0,
            rehydration_failures: 0,
            counters: TierCounters::default(),
            hit_ns: Vec::new(),
            miss_ns: Vec::new(),
            resume_ns: Vec::new(),
            spool_bytes: Vec::new(),
            session_bytes: Vec::new(),
            model_bytes,
        };
        w.pending = Some((w.tier(engine, 0), w.plan(0)));
        times.register_s = timer.lap();
        w
    }

    fn plan(&self, round: u64) -> Plan {
        let order = (0..SERVES as u64)
            .map(|i| (mix(self.seed, round, i, tag::ORDER) % REGISTERED as u64) as usize)
            .collect();
        let seed = mix(self.seed, round, 0, tag::SOURCE);
        let frames = Pregen::generate(&self.trained.dataset, seed, SERVES, SERVES / 2).0.into();
        Plan { order, frames }
    }

    /// Every round and every run spools into one directory next to the
    /// executable. A tier only reads back files it wrote itself, so files
    /// left by an earlier round are never read, only overwritten. Creating
    /// and deleting a fresh directory of spool files per round made the
    /// file system slower with every run in a sequence: over ten runs the
    /// p99 climbed from 0.74 ms to 1.27 ms.
    fn tier(&self, engine: Engine, round: u64) -> SessionTier {
        let spool_dir = out_dir().join("cpubench-spool");
        let mut tier =
            SessionTier::new(engine, TierConfig { max_resident: MAX_RESIDENT, spool_dir });
        for id in 0..REGISTERED as u64 {
            let adapt = AdaptConfig {
                seed: mix(self.seed, round, id, tag::ADAPT),
                ..AdaptConfig::default()
            };
            tier.register(mix(self.seed, round, id, tag::FRAME), adapt);
        }
        tier
    }

    fn fresh(&mut self, round: u64) -> (SessionTier, Plan) {
        match (round, self.pending.take()) {
            (0, Some(p)) => p,
            _ => (self.tier(self.trained.engine(), round), self.plan(round)),
        }
    }

    pub fn untraced(
        &mut self,
        round: u64,
        want_auc: bool,
        reference: &mut Reference,
    ) -> RoundResult {
        let (mut tier, plan) = self.fresh(round);
        let mut res = RoundResult { offered: SERVES as u64, ..RoundResult::default() };
        res.calls.reserve(SERVES);
        let mut post_scores = Vec::with_capacity(SERVES / 2);
        let mut post_labels = Vec::with_capacity(SERVES / 2);
        let start = process_ns();
        for (i, (&id, (frame, label))) in plan.order.iter().zip(&plan.frames).enumerate() {
            let t0 = thread_ns();
            let served = tier.serve_frame(id, frame);
            let ns = thread_ns() - t0;
            res.calls.push(Call {
                ns,
                frames: u32::from(served.is_ok()),
                slowdown: reference.sample(),
            });
            match served {
                Ok(score) => {
                    res.scores.push(score.to_bits());
                    if i >= SERVES / 2 {
                        post_scores.push(score);
                        post_labels.push(*label);
                    }
                }
                Err(_) => res.failed += 1,
            }
        }
        res.cpu_ns = process_ns() - start;
        res.served = res.scores.len() as u64;
        let c = tier.counters();
        res.counts = counter_words(c);
        self.serves += SERVES as u64;
        self.misses += (c.cold_starts + c.rehydrations) as u64;
        self.rehydration_failures += c.rehydration_failures as u64;
        if want_auc && round < AUC_ROUNDS {
            res.aucs.push(f64::from(adaptive_kg::eval::roc_auc(&post_scores, &post_labels)));
        }
        res
    }

    pub fn traced(&mut self, round: u64, tracer: &mut Tracer) -> RoundResult {
        let (mut tier, plan) = (self.tier(self.trained.engine(), round), self.plan(round));
        let mut res = RoundResult { offered: SERVES as u64, ..RoundResult::default() };
        let start = process_ns();
        for (i, &id) in plan.order.iter().enumerate() {
            tracer.open("data", i as u64);
            let frame = &plan.frames[i].0;
            tracer.close();
            let before = tier.counters();
            tracer.open("tier.serve", i as u64);
            let served = tier.serve_frame(id, frame);
            let ns = tracer.close() as f64;
            let after = tier.counters();
            if after.cold_starts > before.cold_starts || after.rehydrations > before.rehydrations {
                self.miss_ns.push(ns);
            } else {
                self.hit_ns.push(ns);
            }
            match served {
                Ok(score) => res.scores.push(score.to_bits()),
                Err(_) => res.failed += 1,
            }
        }
        res.cpu_ns = process_ns() - start;
        res.served = res.scores.len() as u64;
        let c = tier.counters();
        res.counts = counter_words(c);
        self.counters.cold_starts += c.cold_starts;
        self.counters.evictions += c.evictions;
        self.counters.rehydrations += c.rehydrations;
        self.counters.rehydration_failures += c.rehydration_failures;
        for (upper, n) in tier.resume_latency().nonzero_buckets() {
            self.resume_ns.extend(std::iter::repeat_n(upper as f64, n as usize));
        }
        self.spool_bytes
            .extend((0..REGISTERED).filter_map(|id| tier.checkpoint_bytes(id)).map(|b| b as f64));
        self.session_bytes.push(tier.resident_bytes() as f64 / tier.resident_count().max(1) as f64);
        res
    }

    /// The untraced rounds run in both modes; a traced run adds its own.
    pub fn checks(&self, checks: &mut Checks) {
        let failures = self.rehydration_failures + self.counters.rehydration_failures as u64;
        checks.add("session-churn has no rehydration failures", failures == 0);
        checks.add(
            format!("most session-churn frames miss ({} of {})", self.misses, self.serves),
            2 * self.misses > self.serves,
        );
    }

    pub fn layers(&self, root_ns: u64, layers: &mut Layers) {
        let c = self.counters;
        layers.insert("tier.hits".into(), self.hit_ns.len() as f64);
        layers.insert("tier.cold_starts".into(), c.cold_starts as f64);
        layers.insert("tier.rehydrations".into(), c.rehydrations as f64);
        layers.insert("tier.evictions".into(), c.evictions as f64);
        layers.insert("tier.rehydration_failures".into(), c.rehydration_failures as f64);
        let us = |v: &[f64], p: f64| stats::percentile(v, p) * 1e-3;
        if !self.hit_ns.is_empty() {
            layers.insert("tier.hit_us_p50".into(), us(&self.hit_ns, 0.5));
        }
        layers.insert("tier.miss_us_p50".into(), us(&self.miss_ns, 0.5));
        layers.insert("tier.miss_us_p99".into(), stats::p99_or_lower(&self.miss_ns) * 1e-3);
        layers.insert(
            "tier.miss_self_pct".into(),
            100.0 * self.miss_ns.iter().sum::<f64>() / root_ns.max(1) as f64,
        );
        layers.insert("tier.resume_us_p50".into(), us(&self.resume_ns, 0.5));
        layers.insert("tier.resume_us_p99".into(), stats::p99_or_lower(&self.resume_ns) * 1e-3);
        layers.insert("tier.spool_bytes_mean".into(), stats::mean(&self.spool_bytes));
        layers.insert("mem.model_bytes".into(), self.model_bytes as f64);
        layers.insert("mem.session_bytes_mean".into(), stats::mean(&self.session_bytes));
    }
}

fn counter_words(c: TierCounters) -> Vec<u64> {
    [c.cold_starts, c.evictions, c.rehydrations, c.rehydration_failures]
        .iter()
        .map(|&v| v as u64)
        .collect()
}
