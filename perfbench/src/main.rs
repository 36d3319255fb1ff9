//! The repository benchmark: seeded workloads against the public APIs
//! of `csj-engine`, `csj-service` and `csj-durability`, with every
//! answer checked.
//!
//! ```text
//! csj-perfbench --workload <vk|synthetic> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs four phases on its dataset — `couples`,
//! `registry`, `serve` and `ingest` (see RATIONALE.md) — and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics
//! from a run that records spans around every call into a layer.
//! A failed output check makes the run exit with status 1.

mod couples;
mod data;
mod ingest;
mod registry;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use data::{Workload, WORKLOADS};
use stats::{median, ms};
use trace::{account, Accounting, Tracer, LAYERS};

/// Share of the run's time for the batch repetitions, in which the
/// couples, registry and ingest phases take turns.
const BATCH_SHARE: f64 = 0.72;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// What one run is asked to do.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub tracer: &'a Tracer,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx<'_> {
    /// A share of the run's measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// Metrics and checks gathered across the phases.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layer: Vec<(String, f64, &'static str)>,
    pub failures: Vec<String>,
    /// Wall times (ms) of the untraced and traced batch repetitions.
    pub overhead: Option<(Vec<f64>, Vec<f64>)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.push((name.into(), value, unit));
    }
}

/// Repeat `rep` until the phase's time is used up (and at least
/// `min_reps` times). In the traced run repetitions alternate between
/// untraced and traced, so tracing overhead is measured in-process.
/// Returns the wall times (ms) of the untraced and traced repetitions.
fn rep_loop(
    ctx: &Ctx,
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut(bool),
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < min_reps || start.elapsed() < budget {
        let traced = ctx.traced && i % 2 == 1;
        ctx.tracer.set_on(traced);
        let t = Instant::now();
        rep(traced);
        let wall = ms(t.elapsed());
        ctx.tracer.set_on(false);
        if traced { &mut on } else { &mut off }.push(wall);
        i += 1;
    }
    (off, on)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where run artifacts (durable registry files, span dumps) go: the
/// build directory the wrapper passes in, inside the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_WORK_DIR")
        .map_or_else(|| PathBuf::from(".bench_build/perfbench"), PathBuf::from)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of: {})",
            args.workload,
            WORKLOADS.map(|w| w.name).join(", ")
        );
        std::process::exit(2);
    };
    let dir = work_dir().join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let tracer = Tracer::new();
    let ctx = Ctx {
        w,
        tracer: &tracer,
        traced: args.trace,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut report = Report::default();
    let mut phases: Vec<(&str, Accounting)> = Vec::new();
    let mut dump = String::new();
    let mut take_phase = |name: &'static str, report: &mut Report| {
        let spans = tracer.take();
        if name == "batch" {
            couples::layer_times(&spans, report);
            registry::layer_times(&spans, report);
        }
        if args.trace {
            for line in trace::to_jsonl(&spans).lines() {
                let _ = writeln!(dump, "{{\"phase\":\"{name}\",{}", &line[1..]);
            }
            let acc = account(&spans);
            if name == "setup" {
                let generate_ms = acc.by_layer.get("data").copied().unwrap_or(0.0) / 1e6;
                report.layer("data.generate_ms", generate_ms, "ms");
            }
            phases.push((name, acc));
        }
    };

    // Set up several times; the median is `setup_s`, the last one is used.
    let mut setup_secs = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        tracer.set_on(args.trace && k == SETUPS - 1);
        let s = data::setup(w, args.seed, &dir.join(format!("durable-{k}")), &tracer);
        setup_secs.push(s.seconds);
        setup = Some(s);
    }
    tracer.set_on(false);
    let setup = setup.expect("at least one set-up ran");
    report.e2e("setup_s", median(&setup_secs), "s");
    take_phase("setup", &mut report);

    // Couples, ingest and registry take turns within each repetition,
    // so a slow spell of the host is spread over all three instead of
    // landing on one.
    let mut pair_phase = couples::Couples::default();
    let mut registry_phase = registry::Registry::default();
    let mut ingest_phase = ingest::Ingest::new(&ctx, &setup.inputs, setup.durable);
    let walls = rep_loop(&ctx, ctx.share(BATCH_SHARE), ingest::CHUNKS / 2, |traced| {
        pair_phase.rep(&ctx, &setup.inputs, traced, &mut report);
        ingest_phase.chunk(&ctx, &mut report);
        registry_phase.rep(&ctx, &setup.inputs, traced, &mut report);
        pair_phase.rep(&ctx, &setup.inputs, traced, &mut report);
        ingest_phase.chunk(&ctx, &mut report);
    });
    report.overhead = Some(walls);
    pair_phase.finish(&ctx, &setup.inputs, &mut report);
    registry_phase.finish(&ctx, &setup.inputs, &mut report);
    take_phase("batch", &mut report);
    serve::run(&ctx, &setup.inputs, setup.serve_engine, &mut report);
    take_phase("serve", &mut report);
    ingest_phase.finish(&ctx, &setup.inputs, &setup.dir, &dir, &mut report);
    take_phase("ingest", &mut report);
    report.e2e("rss_peak_mb", rss_peak_mb(), "MB");
    let _ = std::fs::remove_dir_all(&dir);

    if args.trace {
        let pct = match &report.overhead {
            Some((off, on)) if !off.is_empty() && !on.is_empty() => {
                100.0 * (median(on) - median(off)) / median(off)
            }
            _ => 0.0,
        };
        report.layer("obs.trace_overhead_pct", pct, "%");
        self_times(&phases, &mut report);
        let path = work_dir().join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(work_dir()).and_then(|_| std::fs::write(&path, &dump))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("spans written to {}", path.display());
        }
    }
    print_result(&args, &report);
}

/// Print each phase's self time per layer, and report each layer's
/// share of the traced wall time (`bench` is the unattributed rest).
fn self_times(phases: &[(&str, Accounting)], report: &mut Report) {
    let mut total = Accounting::default();
    let mut table = String::from("self time (ms) per layer; bench = unattributed harness time\n");
    let _ = write!(table, "{:<10}", "phase");
    for layer in LAYERS {
        let _ = write!(table, "{layer:>11}");
    }
    let _ = writeln!(table, "{:>11}", "wall");
    for (name, acc) in phases {
        let _ = write!(table, "{name:<10}");
        for layer in LAYERS {
            let v = acc.by_layer.get(layer).copied().unwrap_or(0.0);
            *total.by_layer.entry(layer).or_default() += v;
            let _ = write!(table, "{:>11.1}", v / 1e6);
        }
        total.wall_ns += acc.wall_ns;
        let _ = writeln!(table, "{:>11.1}", acc.wall_ns / 1e6);
    }
    let _ = write!(table, "{:<10}", "total");
    for layer in LAYERS {
        let v = total.by_layer.get(layer).copied().unwrap_or(0.0);
        let _ = write!(table, "{:>11.1}", v / 1e6);
        let name = if layer == "bench" {
            "unattributed"
        } else {
            layer
        };
        report.layer(
            format!("self.{name}_pct"),
            100.0 * v / total.wall_ns.max(1.0),
            "%",
        );
    }
    let _ = writeln!(table, "{:>11.1}", total.wall_ns / 1e6);
    eprint!("{table}");
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_result(args: &Args, report: &Report) {
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    let correct = report.failures.is_empty();
    let mut metrics = String::new();
    let rows: Vec<(&str, f64, &str)> = if args.trace {
        report
            .layer
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, *u))
            .collect()
    } else {
        report.e2e.clone()
    };
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
        eprintln!("{name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
