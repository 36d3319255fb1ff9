//! `serve` phase: an open loop into `CsjService` over a 12-community
//! registry. Requests are Zipf-skewed over communities and name
//! admissible pairs only: 80% exact `Similarity` (cached after first
//! touch), 20% `TopK { k: 5 }` (re-screens every time). A fixed-rate
//! stage gives latency; a rate ladder then finds the highest rate whose
//! p90 meets the latency limit, shed requests counting as misses. This
//! is the only phase with queueing. Its metrics are per-layer ones, so
//! the untraced run keeps the fixed-rate stage (answers checked,
//! failures counted) and leaves the ladder to the traced run.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use csj_core::Similarity;
use csj_engine::{CommunityHandle, CsjEngine, PairScore};
use csj_service::{CsjService, Fate, Request, ResponseValue, ServiceConfig, ServiceError};

use crate::data::{engine_with, Inputs};
use crate::stats::{ms, quantile, Rng, Zipf};
use crate::{Ctx, Report};

const TOPK_SHARE: f64 = 0.2;
const K: usize = 5;
/// Share of the run's time for the fixed-rate stage and the ladder.
const FIXED_SHARE: f64 = 0.1;
const LADDER_SHARE: f64 = 0.15;
/// Length of one ladder rung.
const RUNG: Duration = Duration::from_millis(1500);
/// The latency quantile a ladder rung must keep within `LIMIT_MS`.
const LADDER_QUANTILE: f64 = 0.9;
const LIMIT_MS: f64 = 25.0;
/// Rate growth from one ladder rung to the next.
const LADDER_STEP: f64 = 1.2;

/// Answers computed before the run, on a separate engine.
struct Expected {
    partners: Vec<Vec<usize>>,
    similarity: HashMap<(usize, usize), Similarity>,
    top: Vec<Vec<PairScore>>,
}

fn expected(inputs: &Inputs) -> Expected {
    let comms = inputs.serve();
    let n = comms.len();
    let engine = engine_with(inputs, comms);
    let admissible = |x: usize, y: usize| {
        let (b, a) = (
            comms[x].len().min(comms[y].len()),
            comms[x].len().max(comms[y].len()),
        );
        csj_core::validate_sizes(b, a).is_ok()
    };
    let partners: Vec<Vec<usize>> = (0..n)
        .map(|x| (0..n).filter(|&y| y != x && admissible(x, y)).collect())
        .collect();
    let mut similarity = HashMap::new();
    for (x, ys) in partners.iter().enumerate() {
        for &y in ys {
            let s = engine
                .similarity(CommunityHandle(x as u32), CommunityHandle(y as u32))
                .expect("reference similarity of an admissible pair");
            similarity.insert((x, y), s);
        }
    }
    let top = (0..n)
        .map(|x| {
            engine
                .top_k_similar(CommunityHandle(x as u32), K)
                .expect("reference top-k")
        })
        .collect();
    Expected {
        partners,
        similarity,
        top,
    }
}

/// One scheduled request: due offset and the request itself.
struct Planned {
    at: Duration,
    request: Request,
}

/// Poisson arrivals at `qps` for `length`, seeded.
fn plan(rng: &mut Rng, zipf: &Zipf, exp: &Expected, qps: f64, length: Duration) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / qps);
    while t < length.as_secs_f64() {
        // Communities without an admissible partner only get top-k.
        let x = zipf.sample(rng);
        let request = if rng.unit() < TOPK_SHARE || exp.partners[x].is_empty() {
            Request::TopK {
                x: CommunityHandle(x as u32),
                k: K,
            }
        } else {
            let ys = &exp.partners[x];
            Request::Similarity {
                x: CommunityHandle(x as u32),
                y: CommunityHandle(ys[rng.below(ys.len())] as u32),
                method: None,
            }
        };
        out.push(Planned {
            at: Duration::from_secs_f64(t),
            request,
        });
        t += rng.exp(1.0 / qps);
    }
    out
}

/// What one request came to.
struct Sample {
    /// From due time to the answer, ms (`inf` when shed or failed).
    latency_ms: f64,
    /// How late the generator submitted it, ms.
    lag_ms: f64,
    fate: Fate,
}

/// Results of one open-loop stage.
struct Stage {
    samples: Vec<Sample>,
    wrong: Vec<String>,
}

impl Stage {
    fn count(&self, fate: Fate) -> usize {
        self.samples.iter().filter(|s| s.fate == fate).count()
    }

    fn latency(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.latency_ms).collect();
        quantile(&v, q)
    }
}

/// Drive `plan` open-loop: one generator thread submits on schedule,
/// this thread collects answers in submission order and checks them.
fn drive(ctx: &Ctx, service: &CsjService, plan: &[Planned], exp: &Expected) -> Stage {
    let tracer = ctx.tracer;
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut stage = Stage {
        samples: Vec::with_capacity(plan.len()),
        wrong: Vec::new(),
    };
    tracer.span(None, "idle", "serve stage", 0, |root| {
        std::thread::scope(|scope| {
            let generator = scope.spawn(move || {
                for (i, p) in plan.iter().enumerate() {
                    let due = t0 + p.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let submitted = Instant::now();
                    let ticket = service.submit(p.request.clone());
                    if tx.send((i, due, submitted, ticket)).is_err() {
                        break;
                    }
                }
            });
            for (i, due, submitted, ticket) in rx {
                let req = tracer.request();
                let result = ticket.and_then(|t| t.wait());
                let done = Instant::now();
                tracer.record(
                    root,
                    "bench",
                    "generator lag",
                    req,
                    tracer.ns(due),
                    tracer.ns(submitted),
                );
                tracer.record(
                    root,
                    "service",
                    "submit→Ticket::wait",
                    req,
                    tracer.ns(submitted),
                    tracer.ns(done),
                );
                let fate = Fate::of(&result);
                let answered = matches!(fate, Fate::Answered);
                stage.samples.push(Sample {
                    latency_ms: if answered || fate == Fate::Degraded {
                        ms(done - due)
                    } else {
                        f64::INFINITY
                    },
                    lag_ms: ms(submitted.saturating_duration_since(due)),
                    fate,
                });
                match (&plan[i].request, result) {
                    (_, Err(ServiceError::Overloaded { .. })) => {}
                    (_, Err(e)) => stage.wrong.push(format!("serve: request {i} failed: {e}")),
                    (_, Ok(r)) if r.degraded => {}
                    (Request::Similarity { x, y, .. }, Ok(r)) => {
                        let want = exp.similarity.get(&(x.0 as usize, y.0 as usize));
                        if !matches!(r.value, ResponseValue::Similarity(s) if Some(&s) == want) {
                            stage.wrong.push(format!(
                                "serve: similarity({}, {}) answered wrong",
                                x.0, y.0
                            ));
                        }
                    }
                    (Request::TopK { x, .. }, Ok(r)) => {
                        let want = &exp.top[x.0 as usize];
                        if !matches!(&r.value, ResponseValue::Ranking(got) if got == want) {
                            stage
                                .wrong
                                .push(format!("serve: top_k({}) answered wrong", x.0));
                        }
                    }
                    (Request::PairsAbove { .. }, Ok(_)) => {}
                }
            }
            generator.join().expect("generator thread panicked");
        });
    });
    stage
}

pub fn run(ctx: &Ctx, inputs: &Inputs, engine: CsjEngine, report: &mut Report) {
    let w = ctx.w;
    let exp = expected(inputs);
    let zipf = Zipf::new(exp.top.len(), 1.0);
    let mut rng = Rng::new(ctx.seed ^ 0x5E4E);
    let workers = std::thread::available_parallelism().map_or(2, |p| p.get());
    let fixed_plan = plan(&mut rng, &zipf, &exp, w.serve_qps, ctx.share(FIXED_SHARE));
    let config = ServiceConfig {
        workers,
        // Keep every request's trace of the fixed-rate stage.
        flight_capacity: fixed_plan.len() + 64,
        ..ServiceConfig::default()
    };
    let service = CsjService::start(engine, config);

    ctx.tracer.set_on(ctx.traced);
    let fixed = drive(ctx, &service, &fixed_plan, &exp);
    ctx.tracer.set_on(false);
    let traces = service.service_traces(fixed_plan.len());
    account(&fixed, report);

    eprintln!(
        "serve: fixed rate {} qps, {} requests, {} workers",
        w.serve_qps,
        fixed.samples.len(),
        workers
    );

    // Rate ladder: geometric rungs until one misses the latency limit at
    // p90 (shed and failed requests count as misses). The capacity is the
    // last passing rate, moved towards the first missing one by where the
    // limit falls between their p90s on a log scale.
    let deadline = Instant::now() + ctx.share(LADDER_SHARE);
    let limit = LIMIT_MS;
    let fixed_p90 = fixed.latency(LADDER_QUANTILE);
    let mut pass = (w.serve_qps, fixed_p90);
    let mut capacity = None;
    let mut rungs = Vec::new();
    let mut rate = w.ladder_start_qps;
    while ctx.traced && fixed_p90 <= limit && capacity.is_none() && Instant::now() + RUNG < deadline
    {
        let stage = drive(
            ctx,
            &service,
            &plan(&mut rng, &zipf, &exp, rate, RUNG),
            &exp,
        );
        report.failures.extend(stage.wrong.iter().cloned());
        let p90 = stage.latency(LADDER_QUANTILE);
        rungs.push(format!("{rate:.0}:{p90:.1}"));
        if p90 <= limit {
            pass = (rate, p90);
            rate *= LADDER_STEP;
        } else {
            let (lo, lo_p90) = pass;
            let t = (limit / lo_p90).ln() / (p90.min(10.0 * limit) / lo_p90).ln();
            capacity = Some(lo + t.clamp(0.0, 1.0) * (rate - lo));
        }
    }
    let capacity = capacity.unwrap_or(pass.0);
    eprintln!(
        "serve: ladder rate:p90_ms {}; capacity {capacity:.1} qps",
        rungs.join(" ")
    );
    drop(service);

    if ctx.traced {
        // Queue wait and service time of each answered request, from the
        // service's own per-request traces.
        let (waits, service_times): (Vec<f64>, Vec<f64>) = traces
            .iter()
            .filter_map(|t| match t.root.get_attr("queue_wait_us") {
                Some(csj_obs::AttrValue::U64(wait)) => Some((
                    *wait as f64 / 1e3,
                    t.root.elapsed_us.saturating_sub(*wait) as f64 / 1e3,
                )),
                _ => None,
            })
            .unzip();
        let q = |v: &[f64], p| if v.is_empty() { 0.0 } else { quantile(v, p) };
        report.layer("service.queue_wait_p50_ms", q(&waits, 0.5), "ms");
        report.layer("service.queue_wait_p99_ms", q(&waits, 0.99), "ms");
        report.layer("service.service_time_p50_ms", q(&service_times, 0.5), "ms");
        report.layer("service.service_time_p99_ms", q(&service_times, 0.99), "ms");
        let total = fixed.samples.len().max(1) as f64;
        report.layer(
            "service.shed_ratio",
            fixed.count(Fate::Shed) as f64 / total,
            "ratio",
        );
        report.layer(
            "service.degraded_ratio",
            fixed.count(Fate::Degraded) as f64 / total,
            "ratio",
        );
        report.layer("service.request_p50_ms", fixed.latency(0.5), "ms");
        report.layer("service.request_p90_ms", fixed.latency(0.9), "ms");
        report.layer("service.request_p99_ms", fixed.latency(0.99), "ms");
        report.layer("service.capacity_qps", capacity, "1/s");
        let lags: Vec<f64> = fixed.samples.iter().map(|s| s.lag_ms).collect();
        report.layer("service.generator_lag_ms", quantile(&lags, 0.99), "ms");
    }
}

/// Fold the fixed-rate stage into the run's failure accounting: shed,
/// failed and degraded requests all count against the attempted.
fn account(stage: &Stage, report: &mut Report) {
    report.attempted += stage.samples.len() as u64;
    report.failed += stage
        .samples
        .iter()
        .filter(|s| s.fate != Fate::Answered)
        .count() as u64;
    report.failures.extend(stage.wrong.iter().cloned());
}
