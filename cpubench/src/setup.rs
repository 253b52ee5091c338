//! The deployment every workload serves, and the timed set-up that makes
//! it: dataset synthesis, `Engine::build`, training and registration.
//!
//! The trained model is a fixed artifact: the training corpus and model
//! seeds do not depend on `--seed`, so every run serves the same detector
//! and set-up does the same work. The seed drives what the deployment is
//! fed: frame sampling, session seeds, adaptation seeds, arrivals and
//! serve order.

use crate::clock::process_ns;
use crate::flops::CostModel;
use adaptive_kg::core::config::TrainConfig;
use adaptive_kg::core::engine::Engine;
use adaptive_kg::core::persist::{load_state, save_state, SystemState};
use adaptive_kg::core::pipeline::{MissionSystem, SystemConfig};
use adaptive_kg::core::train::train_decision_model;
use adaptive_kg::data::{AdaptationStream, DatasetConfig, Frame, SyntheticUcfCrime, Video};
use adaptive_kg::kg::AnomalyClass;
use adaptive_kg::runtime::FrameSource;
use adaptive_kg::tensor::nn::Module;
use adaptive_kg::tensor::Parallelism;
use std::collections::VecDeque;
use std::sync::Arc;

/// The class the detector is trained on.
pub const INITIAL: AnomalyClass = AnomalyClass::Stealing;
/// The class the trend shifts to (the strong shift of Fig. 5).
pub const SHIFTED: AnomalyClass = AnomalyClass::Explosion;
/// Share of anomalous frames in every deployment stream.
pub const ANOMALY_RATIO: f64 = 0.5;
/// Seed of the training corpus and the model (fixed, see the module docs).
const MODEL_SEED: u64 = 0;

/// Single-threaded kernels: the serving thread does all the work, so its
/// CPU time is the frame's service time on a dedicated edge core.
pub fn system_config() -> SystemConfig {
    SystemConfig {
        parallelism: Parallelism::Sequential,
        seed: MODEL_SEED,
        ..SystemConfig::default()
    }
}

/// The synthetic UCF-Crime subset: a 2% training split of the initial and
/// shifted classes, and a test split large enough that a test AUC moves
/// by less than a percent between streams.
pub fn dataset() -> SyntheticUcfCrime {
    let mut config =
        DatasetConfig::scaled(0.02).with_classes(&[INITIAL, SHIFTED]).with_seed(MODEL_SEED);
    config.test_normal = 16;
    config.test_anomalous = 32;
    SyntheticUcfCrime::generate(config)
}

/// CPU seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub build_s: f64,
    pub train_s: f64,
    pub register_s: f64,
    /// From the phase's start (process start, for the first set-up) to the
    /// point where the first frame would be timed.
    pub total_s: f64,
}

/// Times set-up phases on the process CPU clock.
pub struct PhaseTimer {
    start: u64,
    last: u64,
}

impl PhaseTimer {
    /// Starts at `start_ns` of process CPU time (0 = process start).
    pub fn from(start_ns: u64) -> Self {
        PhaseTimer { start: start_ns, last: start_ns }
    }

    /// CPU seconds since the previous lap.
    pub fn lap(&mut self) -> f64 {
        let now = process_ns();
        let s = (now - self.last) as f64 * 1e-9;
        self.last = now;
        s
    }

    pub fn total(&self) -> f64 {
        (self.last - self.start) as f64 * 1e-9
    }
}

/// A trained deployment: everything a round needs to serve from scratch.
pub struct Trained {
    pub dataset: Arc<SyntheticUcfCrime>,
    pub state: SystemState,
    pub cost: CostModel,
}

impl Trained {
    /// Synthesizes the dataset, builds and trains the engine.
    pub fn make(timer: &mut PhaseTimer, times: &mut SetupTimes) -> (Trained, Engine) {
        let dataset = Arc::new(dataset());
        times.dataset_s = timer.lap();
        let mut sys = MissionSystem::build(&[INITIAL], &system_config());
        times.build_s = timer.lap();
        let videos: Vec<&Video> = dataset
            .train
            .iter()
            .filter(|v| v.class.is_none() || v.class == Some(INITIAL))
            .collect();
        train_decision_model(&mut sys, &videos, &TrainConfig::fast());
        let state = save_state(&sys);
        let cost = CostModel::of_engine(&sys.engine);
        times.train_s = timer.lap();
        (Trained { dataset, state, cost }, sys.engine)
    }

    /// A fresh engine holding the trained weights: rounds replay from
    /// identical state without training again.
    pub fn engine(&self) -> Engine {
        let mut sys = MissionSystem::build(&[INITIAL], &system_config());
        load_state(&mut sys, &self.state).expect("trained state restores into its own build");
        sys.engine.model.set_train(false);
        sys.engine.model.refresh_quantized();
        sys.engine
    }
}

/// Mixes the run seed with a round, a stream and a purpose tag into one
/// well-spread 64-bit seed (splitmix64 finalizer).
pub fn mix(seed: u64, round: u64, stream: u64, tag: u64) -> u64 {
    let mut z = seed
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ tag.wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed tags, so no two uses of one `(seed, round, stream)` collide.
pub mod tag {
    pub const SOURCE: u64 = 1;
    pub const FRAME: u64 = 2;
    pub const ADAPT: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const ORDER: u64 = 5;
}

/// A stream's frames, generated before the measured phase so the load
/// generator costs the serving thread one `pop_front` per frame. The
/// trend shift is baked in: frames after `shift_after` come from
/// [`SHIFTED`].
pub struct Pregen(pub VecDeque<(Frame, bool)>);

impl Pregen {
    pub fn generate(
        dataset: &Arc<SyntheticUcfCrime>,
        seed: u64,
        len: usize,
        shift_after: usize,
    ) -> Self {
        let mut stream = AdaptationStream::owned(Arc::clone(dataset), INITIAL, ANOMALY_RATIO, seed);
        let frames = (0..len)
            .map(|i| {
                if i == shift_after {
                    stream.shift_to(SHIFTED);
                }
                stream.next_frame()
            })
            .collect();
        Pregen(frames)
    }
}

impl FrameSource for Pregen {
    fn next_frame(&mut self) -> (Frame, bool) {
        self.0.pop_front().expect("pre-generated stream holds every frame the round pulls")
    }
}
