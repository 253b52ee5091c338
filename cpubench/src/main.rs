//! `cpubench`: the repository's benchmark. One command runs one named
//! workload from a single process, checks its outputs, and prints every
//! metric by name and unit; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path cpubench/Cargo.toml -- \
//!     --workload trend-shift --seed 1 --seconds 12 --trace 0
//! ```
//!
//! All durations are CPU time of the single serving thread (kernels run
//! with `Parallelism::Sequential`); see `clock.rs` for why. The end-to-end
//! frame figures are further scaled to a fixed host speed by reference
//! kernels run after every serving call; see `reference.rs`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays each round of the
//! same seed once untraced and once with spans around every public call,
//! checks the two agree bit for bit, and reports the per-layer metrics.

mod burst;
mod churn;
mod clock;
mod closed;
mod exec;
mod flops;
mod layers;
mod records;
mod reference;
mod round;
mod setup;
mod stats;
mod trace;

use clock::{process_ns, HostProbe};
use reference::Reference;
use round::{Checks, Layers, RoundResult};
use setup::{PhaseTimer, SetupTimes};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds a run serves at least, whatever the time budget.
const MIN_ROUNDS: u64 = 4;

pub const WORKLOADS: [&str; 4] = ["trend-shift", "static-kg", "session-churn", "camera-burst"];

/// The end-to-end metrics, with their units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_cpu_s", "1/s"),
    ("frame_cpu_ms_p50", "ms"),
    ("frame_cpu_ms_p99", "ms"),
    ("served_pct", "%"),
    ("post_shift_auc", "AUC"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("cpubench: {msg}");
    eprintln!(
        "usage: cpubench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds needs a positive whole number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

enum Work {
    Closed(Box<closed::Closed>),
    Churn(Box<churn::Churn>),
    Burst(Box<burst::Burst>),
}

impl Work {
    fn setup(name: &str, seed: u64, timer: &mut PhaseTimer, times: &mut SetupTimes) -> Work {
        match name {
            "trend-shift" => Work::Closed(Box::new(closed::Closed::setup(
                &closed::TREND_SHIFT,
                seed,
                timer,
                times,
            ))),
            "static-kg" => Work::Closed(Box::new(closed::Closed::setup(
                &closed::STATIC_KG,
                seed,
                timer,
                times,
            ))),
            "session-churn" => Work::Churn(Box::new(churn::Churn::setup(seed, timer, times))),
            "camera-burst" => Work::Burst(Box::new(burst::Burst::setup(seed, timer, times))),
            _ => unreachable!("workload names are validated at parse time"),
        }
    }

    fn untraced(&mut self, round: u64, want_auc: bool, reference: &mut Reference) -> RoundResult {
        match self {
            Work::Closed(w) => w.untraced(round, want_auc, reference),
            Work::Churn(w) => w.untraced(round, want_auc, reference),
            Work::Burst(w) => w.untraced(round, want_auc, reference),
        }
    }

    fn traced(&mut self, round: u64, tracer: &mut Tracer) -> RoundResult {
        match self {
            Work::Closed(w) => w.traced(round, tracer),
            Work::Churn(w) => w.traced(round, tracer),
            Work::Burst(w) => w.traced(round, tracer),
        }
    }

    fn checks(&self, traced: bool, checks: &mut Checks) {
        match self {
            Work::Closed(w) => w.checks(traced, checks),
            Work::Churn(w) => w.checks(checks),
            Work::Burst(w) => w.checks(traced, checks),
        }
    }

    fn layers(&self, spans: &layers::Spans, root_ns: u64, layers: &mut Layers) {
        match self {
            Work::Closed(w) => w.layers(spans, layers),
            Work::Churn(w) => w.layers(root_ns, layers),
            Work::Burst(w) => w.layers(layers),
        }
    }
}

/// Totals over the rounds of one mode. The untraced rounds also keep
/// every timed call, scaled to the reference speed.
#[derive(Default)]
struct Totals {
    rounds: u64,
    offered: u64,
    served: u64,
    failed: u64,
    /// Process CPU ns of the rounds' serving loops (the time budget).
    cpu_ns: u64,
    /// Each timed call's scaled CPU ns and the frames it emitted.
    calls: Vec<(f64, u32)>,
    /// Sum of the scaled CPU ns of the timed calls.
    scaled_ns: f64,
    aucs: Vec<f64>,
    /// Per round: frames per scaled and per raw CPU-second of the timed
    /// calls, and the median host slowdown.
    round_rates: Vec<f64>,
    round_raw_rates: Vec<f64>,
    round_slowdowns: Vec<f64>,
}

impl Totals {
    fn add(&mut self, r: RoundResult) {
        self.rounds += 1;
        self.offered += r.offered;
        self.served += r.served;
        self.failed += r.failed;
        self.cpu_ns += r.cpu_ns;
        self.aucs.extend_from_slice(&r.aucs);
        if r.calls.is_empty() {
            return;
        }
        let ns: Vec<u64> = r.calls.iter().map(|c| c.ns).collect();
        let slowdowns: Vec<f64> = r.calls.iter().map(|c| c.slowdown).collect();
        let scaled = reference::scale(&ns, &slowdowns);
        let round_scaled: f64 = scaled.iter().sum();
        let round_raw = ns.iter().sum::<u64>() as f64;
        self.scaled_ns += round_scaled;
        self.calls.extend(scaled.iter().zip(&r.calls).map(|(&v, c)| (v, c.frames)));
        self.round_rates.push(r.served as f64 / (round_scaled * 1e-9));
        self.round_raw_rates.push(r.served as f64 / (round_raw * 1e-9));
        self.round_slowdowns.push(stats::median(&slowdowns));
    }
}

fn list(values: &[f64], digits: usize) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    format!("[{}]", items.join(", "))
}

/// Runs the set-up `SETUPS` times and keeps the last deployment; the
/// first set-up is timed from process start.
fn set_up(args: &Args) -> (Work, Vec<SetupTimes>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut work = None;
    for k in 0..SETUPS {
        drop(work.take());
        let mut timer = PhaseTimer::from(if k == 0 { 0 } else { process_ns() });
        let mut times = SetupTimes::default();
        let w = Work::setup(&args.workload, args.seed, &mut timer, &mut times);
        times.total_s = timer.total();
        setups.push(times);
        work = Some(w);
    }
    (work.expect("at least one set-up ran"), setups)
}

/// Serves rounds until their CPU time reaches the budget. With tracing,
/// each round is served untraced and then replayed with spans, and the
/// two must agree bit for bit. Also returns each untraced round's peak
/// RSS in MB: the peak is reset before the round and read after it.
fn serve(
    args: &Args,
    work: &mut Work,
    kernel: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Totals, Totals, Vec<f64>) {
    let budget_ns = args.seconds * 1_000_000_000;
    let (mut untraced, mut traced) = (Totals::default(), Totals::default());
    let mut digests = Vec::new();
    let mut rss_mb = Vec::new();
    let mut round = 0u64;
    while round < MIN_ROUNDS || untraced.cpu_ns + traced.cpu_ns < budget_ns {
        clock::reset_peak_rss();
        let plain = work.untraced(round, !args.trace, kernel);
        rss_mb.push(clock::peak_rss_mb());
        digests.push((round, plain.digest()));
        if args.trace {
            let replay = work.traced(round, tracer);
            checks.add(
                format!("round {round}: traced scores equal untraced scores bit for bit"),
                replay.scores == plain.scores,
            );
            checks.add(
                format!("round {round}: traced counts equal untraced counts"),
                replay.counts == plain.counts,
            );
            traced.add(replay);
        }
        untraced.add(plain);
        round += 1;
    }
    work.checks(args.trace, checks);
    checks.add("the rounds served at least one frame", untraced.served > 0);
    records::compare_and_store(&args.workload, args.seed, &digests, checks);
    (untraced, traced, rss_mb)
}

fn end_to_end(untraced: &Totals, setups: &[SetupTimes], rss_mb: f64, values: &mut Layers) {
    let p99 = stats::p99_or_lower_weighted(&untraced.calls);
    let frames: u64 = untraced.calls.iter().map(|c| u64::from(c.1)).sum();
    println!(
        "# {frames} frames timed over {} calls in {} rounds; frame_cpu_ms_p99 is the p{} with {} calls beyond it",
        untraced.calls.len(),
        untraced.rounds,
        100.0 * p99.level,
        p99.beyond
    );
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    for (name, value) in [
        ("frames_per_cpu_s", untraced.served as f64 / (untraced.scaled_ns * 1e-9)),
        ("frame_cpu_ms_p50", stats::percentile_weighted(&untraced.calls, 0.5) * 1e-6),
        ("frame_cpu_ms_p99", p99.value * 1e-6),
        ("served_pct", 100.0 * untraced.served as f64 / untraced.offered as f64),
        ("post_shift_auc", stats::mean(&untraced.aucs)),
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mb", rss_mb),
    ] {
        values.insert(name.into(), value);
    }
}

fn per_layer(
    args: &Args,
    work: &Work,
    tracer: &Tracer,
    (untraced, traced): (&Totals, &Totals),
    setups: &[SetupTimes],
    values: &mut Layers,
    checks: &mut Checks,
) {
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    values.insert("setup.dataset_s".into(), med(|s| s.dataset_s));
    values.insert("setup.build_s".into(), med(|s| s.build_s));
    values.insert("setup.train_s".into(), med(|s| s.train_s));
    values.insert("setup.register_s".into(), med(|s| s.register_s));
    let (spans, root_ns) = trace::self_times(tracer.spans());
    layers::spans(&spans, root_ns, Tracer::calibrate(), values);
    work.layers(&spans, root_ns, values);
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced.cpu_ns as f64 / untraced.cpu_ns as f64 - 1.0),
    );
    let cover = 100.0 * root_ns as f64 / traced.cpu_ns as f64;
    values.insert("trace.cover_pct".into(), cover);
    checks.add(
        format!(
            "span self times sum to within {}% of traced serving CPU",
            layers::COVER_TOLERANCE_PCT
        ),
        (100.0 - cover).abs() <= layers::COVER_TOLERANCE_PCT,
    );
    layers::emphasis(&args.workload, &spans, root_ns, values, checks);
    let path = records::out_dir().join(format!("trace-{}.tsv", args.workload));
    match tracer.write_tsv(&path) {
        Ok(()) => println!("# {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => checks.add(format!("write spans to {}: {e}", path.display()), false),
    }
}

fn main() {
    let args = parse_args();
    let host = HostProbe::start();
    let (mut work, setups) = set_up(&args);
    let setup_rss_mb = clock::peak_rss_mb();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let mut kernel = Reference::new();
    let (untraced, traced, rss_mb) = serve(&args, &mut work, &mut kernel, &mut tracer, &mut checks);

    // Host diagnostics, printed on every run and kept with the layers.
    let host = host.finish();
    let mut values = Layers::new();
    values.insert("host.steal_pct".into(), host.steal_pct);
    values.insert("host.wall_per_cpu".into(), host.wall_per_cpu);
    values.insert("run.frames".into(), (untraced.served + traced.served) as f64);
    values.insert("run.cpu_s".into(), (untraced.cpu_ns + traced.cpu_ns) as f64 * 1e-9);
    let host_line: Vec<String> = ["host.steal_pct", "host.wall_per_cpu", "run.frames", "run.cpu_s"]
        .iter()
        .map(|name| format!("{name}={:.4}", values[*name]))
        .collect();
    println!("# {} rounds={}", host_line.join(" "), untraced.rounds);
    println!("# frames per scaled CPU-second by round: {}", list(&untraced.round_rates, 0));
    println!("# frames per raw CPU-second by round: {}", list(&untraced.round_raw_rates, 0));
    println!("# host slowdown by round: {}", list(&untraced.round_slowdowns, 3));
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    println!("# setup_s per set-up: {}", list(&setup_s, 4));
    println!("# VmHWM after set-up {setup_rss_mb:.2} MB; by round: {}", list(&rss_mb, 2));

    let table = if args.trace {
        per_layer(&args, &work, &tracer, (&untraced, &traced), &setups, &mut values, &mut checks);
        layers::PER_LAYER
    } else {
        end_to_end(&untraced, &setups, stats::median(&rss_mb), &mut values);
        END_TO_END
    };
    // A layer a workload does not reach reports 0.
    let metrics: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let non_finite: Vec<&str> =
        metrics.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| *n).collect();
    checks.add(
        format!("every metric is a finite number ({non_finite:?} are not)"),
        non_finite.is_empty(),
    );
    for (name, ok) in &checks.0 {
        if !ok {
            eprintln!("cpubench: CHECK FAILED: {name}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already failed a check.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.all_pass(),
        untraced.offered.max(1),
        untraced.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` in `BENCHMARK.json`, with the unit that follows it.
    fn declared() -> Vec<(String, Option<String>)> {
        let text = include_str!("../../BENCHMARK.json");
        let mut out = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("\"name\": \"") {
            rest = &rest[at + 9..];
            let end = rest.find('"').expect("a closed name string");
            let name = rest[..end].to_string();
            let entry_end = rest.find('}').expect("a closed entry");
            let unit = rest[..entry_end]
                .split_once("\"unit\": \"")
                .map(|(_, u)| u[..u.find('"').expect("a closed unit string")].to_string());
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let mut expected: Vec<(String, Option<String>)> =
            WORKLOADS.iter().map(|w| (w.to_string(), None)).collect();
        for &(name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            expected.push((name.to_string(), Some(unit.to_string())));
        }
        assert_eq!(declared(), expected);
    }
}
