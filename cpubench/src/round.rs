//! What one round of a workload hands back, and the layer metrics a traced
//! round adds. A round is one deterministic episode derived from
//! `(seed, round index)`: every run of a seed replays the same rounds, and
//! a run measures as many as fit in its time budget.

use std::collections::BTreeMap;

/// One timed serving call (a tick or a `serve_frame`).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// CPU ns of the call on the serving thread.
    pub ns: u64,
    /// Scores the call emitted.
    pub frames: u32,
    /// The host's slowdown, sampled by the reference kernels right after
    /// the call.
    pub slowdown: f64,
}

#[derive(Debug, Default, Clone)]
pub struct RoundResult {
    /// Frames offered to the serving layer.
    pub offered: u64,
    /// Frames that entered a session (scored, or coalesced into a window).
    pub served: u64,
    /// Serving calls that returned an error.
    pub failed: u64,
    /// Process CPU ns of the round's serving loop.
    pub cpu_ns: u64,
    /// Every timed serving call of an untraced round, in order.
    pub calls: Vec<Call>,
    /// Every emitted score, as bits, in emission order.
    pub scores: Vec<u32>,
    /// Exact counts that must repeat across runs of one seed.
    pub counts: Vec<u64>,
    /// `post_shift_auc` contribution: one AUC per evaluated stream.
    pub aucs: Vec<f64>,
}

impl RoundResult {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &c in &self.counts {
            d.add(c);
        }
        d.add(self.scores.len() as u64);
        for &s in &self.scores {
            d.add(u64::from(s));
        }
        d.0
    }

    pub fn push_scores(&mut self, scores: &[Option<f32>]) {
        self.scores.extend(scores.iter().flatten().map(|s| s.to_bits()));
    }
}

/// Named pass/fail checks of a run; any failure makes `correct` false.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn add(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// FNV-1a over 64-bit words: a compact digest of a round's exact counts
/// and score bits, compared across runs of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
