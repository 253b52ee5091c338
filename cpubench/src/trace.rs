//! In-memory span recording for the traced run. A span is opened and
//! closed around one public call into a layer; spans nest through an
//! explicit stack, so each records its parent. Times are the serving
//! thread's CPU clock. Nothing is written until the run ends.

use crate::clock::thread_ns;
use std::collections::BTreeMap;
use std::io::Write;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Frame id of a span that serves no single frame (a whole tick, a batch).
pub const NO_FRAME: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub frame: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, frame: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { name, start_ns: thread_ns(), end_ns: 0, parent, frame });
        self.open.push(idx);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        let idx = self.open.pop().expect("close without a matching open") as usize;
        let span = &mut self.spans[idx];
        span.end_ns = thread_ns();
        span.duration_ns()
    }

    /// The median CPU ns an empty span records: the cost of the clock
    /// reads themselves, which every span carries.
    pub fn calibrate() -> u64 {
        let mut t = Tracer::new();
        for _ in 0..1001 {
            t.open("empty", NO_FRAME);
            t.close();
        }
        let mut ns: Vec<u64> = t.spans.iter().map(Span::duration_ns).collect();
        ns.sort_unstable();
        ns[ns.len() / 2]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent frame`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tframe")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let frame = if s.frame == NO_FRAME { -1 } else { s.frame as i64 };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{frame}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Per-name totals over a span set: `(calls, total_ns, self_ns)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the durations of its direct
/// children (children never overlap: one thread records them in order).
/// Returns the per-name sums, plus the total duration of root spans.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, LayerTime>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut root_ns = 0u64;
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = layers.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns().saturating_sub(children);
        if s.parent == NO_PARENT {
            root_ns += s.duration_ns();
        }
    }
    (layers, root_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, frame: NO_FRAME }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // tick [0,100) ⊃ score [10,50) ⊃ gnn [20,30); tick ⊃ adapt [60,90)
        let spans = [
            span("tick", 0, 100, NO_PARENT),
            span("score", 10, 50, 0),
            span("gnn", 20, 30, 1),
            span("adapt", 60, 90, 0),
            span("tick", 100, 120, NO_PARENT),
        ];
        let (layers, root_ns) = self_times(&spans);
        assert_eq!(root_ns, 120);
        assert_eq!(layers["tick"], LayerTime { calls: 2, total_ns: 120, self_ns: 30 + 20 });
        assert_eq!(layers["score"], LayerTime { calls: 1, total_ns: 40, self_ns: 30 });
        assert_eq!(layers["gnn"].self_ns, 10);
        assert_eq!(layers["adapt"].self_ns, 30);
        // Self times partition the root spans exactly.
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, root_ns);
    }

    #[test]
    fn calibration_is_small() {
        assert!(Tracer::calibrate() < 100_000, "an empty span should cost well under 100 us");
    }

    #[test]
    fn tracer_nests_and_partitions() {
        let mut t = Tracer::new();
        t.open("outer", NO_FRAME);
        t.open("inner", 7);
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = std::hint::black_box(x ^ i);
        }
        t.close();
        t.close();
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].frame, 7);
        let (layers, root_ns) = self_times(t.spans());
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, root_ns, "{x}");
    }
}
