//! `registry` phase: the multi-pair screen → refine path over 40
//! communities (both sides of all 20 couples). `pairs_above(0.2)` runs
//! cold on a fresh engine, then warm on the same engine, in each of
//! `PAIRS_ABOVE_PASSES` passes; `top_k_similar` for every community does
//! the same on one more fresh engine. Most
//! cross-couple pairs fail the screen, so screens dominate; warm runs
//! still re-screen, which is what a screen or executor change moves.

use std::time::Instant;

use csj_engine::{CommunityHandle, CsjEngine, MetricsSnapshot, PairScore};
use csj_obs::SampleValue;

use crate::data::{engine_with, Inputs};
use crate::stats::{ms, summary, BestOf};
use crate::trace::{per_rep_ms, SpanId, SpanRec};
use crate::{Ctx, Report};

const THRESHOLD: f64 = 0.2;
const K: usize = 5;
/// `pairs_above` cold/warm pairs per repetition, each on a fresh
/// engine. It is one call, where top-k is 40: more passes give its
/// median as many samples as the couples' joins get.
const PAIRS_ABOVE_PASSES: usize = 2;

fn joins(snap: &MetricsSnapshot, method: &str) -> u64 {
    snap.counter_value("csj_joins_total", &[("method", method)])
}

/// Total join time (µs) the engine measured, over every method.
fn join_us(snap: &MetricsSnapshot) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == "csj_join_latency_seconds")
        .map(|m| match m.value {
            SampleValue::Histogram { sum_us, .. } => sum_us,
            _ => 0,
        })
        .sum()
}

/// Work counts of one repetition; they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    screen_joins: u64,
    refine_joins: u64,
    cold_screen_joins: u64,
    cold_refine_joins: u64,
    cache_hits: u64,
    inadmissible: u64,
}

/// Answers of one repetition; they must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    pairs: Vec<PairScore>,
    top: Vec<Vec<PairScore>>,
}

/// `pairs_above` on `engine`, traced. The engine keeps at most 256 join
/// spans per query; the time of the joins beyond that cap (known from
/// its join-latency totals) is recorded as one kernel span after the
/// last traced join, so the sweep's self time stays the engine's own.
fn pairs_above(
    ctx: &Ctx,
    engine: &CsjEngine,
    root: Option<SpanId>,
) -> (Result<Vec<PairScore>, csj_engine::EngineError>, f64) {
    let tracer = ctx.tracer;
    let req = tracer.request();
    let before = tracer.is_on().then(|| join_us(&engine.metrics_snapshot()));
    let start = Instant::now();
    let mut elapsed = 0.0;
    let result = tracer.span(root, "engine", "pairs_above", req, |id| {
        let result = engine.pairs_above(THRESHOLD);
        elapsed = ms(start.elapsed());
        if let (Some(before), Some(trace)) = (before, engine.traces(1).pop()) {
            let ids = tracer.import(id, req, start, &trace);
            let total = join_us(&engine.metrics_snapshot()) - before;
            for (phase, id) in trace.root.children.iter().zip(ids) {
                if phase.name != "sweep" {
                    continue;
                }
                let traced: u64 = phase.children.iter().map(|j| j.elapsed_us).sum();
                let last_end = phase
                    .children
                    .iter()
                    .map(|j| j.start_us + j.elapsed_us)
                    .max()
                    .unwrap_or(phase.start_us);
                let rest = total.saturating_sub(traced);
                if rest > 0 {
                    let at = tracer.ns(start) + last_end * 1_000;
                    let name = "joins beyond the engine's span cap";
                    tracer.record(id, "kernel", name, req, at, at + rest * 1_000);
                }
            }
        }
        result
    });
    (result, elapsed)
}

/// The registry phase, accumulated across repetitions.
#[derive(Default)]
pub struct Registry {
    pa_cold: BestOf,
    pa_warm: BestOf,
    tk_cold: BestOf,
    tk_warm: BestOf,
    rep_cold_s: Vec<f64>,
    first: Option<(Answers, Counts)>,
}

impl Registry {
    /// One repetition: both query kinds, cold then warm.
    pub fn rep(&mut self, ctx: &Ctx, inputs: &Inputs, traced: bool, report: &mut Report) {
        let tracer = ctx.tracer;
        let mut counts = Counts::default();
        let answers = tracer.span(None, "bench", "registry rep", 0, |root| {
            let mut first_pairs = None;
            for _ in 0..PAIRS_ABOVE_PASSES {
                let engine = engine_with(inputs, &inputs.registry);
                let (cold, cold_ms) = pairs_above(ctx, &engine, root);
                let snap = engine.metrics_snapshot();
                counts.cold_screen_joins += joins(&snap, "ap-minmax");
                counts.cold_refine_joins += joins(&snap, "ex-minmax");
                let (warm, warm_ms) = pairs_above(ctx, &engine, root);
                report.attempted += 2;
                let pairs = match (cold, warm) {
                    (Ok(cold), Ok(warm)) => {
                        report.check(cold == warm, || {
                            "registry: warm pairs_above differs from cold".into()
                        });
                        cold
                    }
                    (c, w) => {
                        let errs: Vec<String> = [c.err(), w.err()]
                            .into_iter()
                            .flatten()
                            .map(|e| e.to_string())
                            .collect();
                        report.failed += errs.len() as u64;
                        report.fail(format!("registry: pairs_above failed: {}", errs.join("; ")));
                        Vec::new()
                    }
                };
                let snap = engine.metrics_snapshot();
                counts.screen_joins += joins(&snap, "ap-minmax");
                counts.refine_joins += joins(&snap, "ex-minmax");
                counts.cache_hits += engine.stats().cache_hits;
                if !traced {
                    self.pa_cold.add(0, cold_ms / 1e3);
                    self.pa_warm.add(0, warm_ms / 1e3);
                    self.rep_cold_s.push(cold_ms / 1e3);
                }
                match &first_pairs {
                    None => first_pairs = Some(pairs),
                    Some(first) => report.check(*first == pairs, || {
                        "registry: pairs_above differs between fresh engines".into()
                    }),
                }
            }
            let pairs = first_pairs.unwrap_or_default();

            let engine = engine_with(inputs, &inputs.registry);
            let handles: Vec<CommunityHandle> = engine.handles().collect();
            let mut top = Vec::new();
            for pass in 0..2 {
                for &h in &handles {
                    let screens_before = joins(&engine.metrics_snapshot(), "ap-minmax");
                    let req = tracer.request();
                    let start = Instant::now();
                    let result = tracer.span(root, "engine", "top_k_similar", req, |id| {
                        let result = engine.top_k_similar(h, K);
                        if let Some(trace) = engine.traces(1).pop() {
                            tracer.import(id, req, start, &trace);
                        }
                        result
                    });
                    let elapsed = ms(start.elapsed()) / 1e3;
                    if !traced {
                        let times = if pass == 0 {
                            &mut self.tk_cold
                        } else {
                            &mut self.tk_warm
                        };
                        times.add(h.0 as usize, elapsed);
                    }
                    report.attempted += 1;
                    let ranking = result.unwrap_or_else(|e| {
                        report.failed += 1;
                        report.fail(format!("registry: top_k_similar({}) failed: {e}", h.0));
                        Vec::new()
                    });
                    if pass == 0 {
                        let screened =
                            joins(&engine.metrics_snapshot(), "ap-minmax") - screens_before;
                        counts.inadmissible += (handles.len() - 1) as u64 - screened;
                        top.push(ranking);
                    } else {
                        report.check(top[h.0 as usize] == ranking, || {
                            format!("registry: warm top_k_similar({}) differs from cold", h.0)
                        });
                    }
                }
                if pass == 0 {
                    let snap = engine.metrics_snapshot();
                    counts.cold_screen_joins += joins(&snap, "ap-minmax");
                    counts.cold_refine_joins += joins(&snap, "ex-minmax");
                }
            }
            let snap = engine.metrics_snapshot();
            counts.screen_joins += joins(&snap, "ap-minmax");
            counts.refine_joins += joins(&snap, "ex-minmax");
            counts.cache_hits += engine.stats().cache_hits;
            Answers { pairs, top }
        });
        match &self.first {
            None => self.first = Some((answers, counts)),
            Some((a, c)) => {
                report.check(*a == answers, || {
                    "registry: answers differ between repetitions".into()
                });
                report.check(*c == counts, || {
                    "registry: work counts differ between repetitions".into()
                });
            }
        }
    }

    /// Report the phase's metrics and run its output checks.
    pub fn finish(self, ctx: &Ctx, inputs: &Inputs, report: &mut Report) {
        eprintln!(
            "registry: {} untraced pairs_above passes, cold s min/median/max {}",
            self.rep_cold_s.len(),
            summary(&self.rep_cold_s)
        );
        report.e2e("pairs_above_cold_s", self.pa_cold.total(), "s");
        report.e2e("pairs_above_warm_s", self.pa_warm.total(), "s");
        report.e2e("topk_cold_s", self.tk_cold.total(), "s");
        report.e2e("topk_warm_s", self.tk_warm.total(), "s");
        let Some((answers, counts)) = self.first else {
            return;
        };
        // Every reported pair's score must equal a fresh exact similarity.
        let engine = engine_with(inputs, &inputs.registry);
        for p in &answers.pairs {
            match engine.similarity(p.x, p.y) {
                Ok(s) => report.check(s == p.similarity, || {
                    format!(
                        "registry: pairs_above score of ({}, {}) != similarity",
                        p.x.0, p.y.0
                    )
                }),
                Err(e) => report.fail(format!(
                    "registry: similarity({}, {}) failed: {e}",
                    p.x.0, p.y.0
                )),
            }
        }
        report.check(!answers.pairs.is_empty(), || {
            "registry: no pair above the threshold".into()
        });
        if ctx.traced {
            report.layer("engine.screen_joins", counts.screen_joins as f64, "count");
            report.layer("engine.refine_joins", counts.refine_joins as f64, "count");
            report.layer(
                "engine.screen_pass_ratio",
                counts.cold_refine_joins as f64 / counts.cold_screen_joins.max(1) as f64,
                "ratio",
            );
            report.layer("engine.inadmissible", counts.inadmissible as f64, "count");
            report.layer(
                "engine.cache_hit_ratio",
                counts.cache_hits as f64 / (counts.cache_hits + counts.refine_joins).max(1) as f64,
                "ratio",
            );
        }
    }
}

/// Engine phase times per registry repetition, from the imported
/// query traces.
pub fn layer_times(spans: &[SpanRec], report: &mut Report) {
    for (metric, name) in [
        ("engine.screen_ms", "engine.screen"),
        ("engine.refine_ms", "engine.refine"),
        ("engine.sweep_ms", "engine.sweep"),
    ] {
        report.layer(metric, per_rep_ms(spans, "registry rep", name), "ms");
    }
}
