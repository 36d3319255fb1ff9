//! `couples` phase: three Section 6 couples, each joined cold in a
//! freshly built engine, once exact and once approximate. This is the
//! paper's own unit of work: prepare, kernel and matching do all of it;
//! the engine's fan-out, cache, service and WAL do none.

use std::time::Instant;

use csj_core::prepared::{ap_minmax_between, ex_minmax_between};
use csj_core::{CsjMethod, CsjOptions, JoinTelemetry, PreparedCommunity};
use csj_engine::CommunityHandle;

use crate::data::{engine_with, Inputs};
use crate::stats::{ms, summary, BestOf};
use crate::trace::{per_rep_ms, SpanRec};
use crate::{Ctx, Report};

/// Matched counts of one couple, as the engine answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    exact: usize,
    approx: usize,
}

/// The couples phase, accumulated across repetitions.
#[derive(Default)]
pub struct Couples {
    exact_ms: BestOf,
    approx_ms: BestOf,
    rep_exact_ms: Vec<f64>,
    answers: Option<Vec<Answer>>,
    counts: Option<JoinTelemetry>,
}

impl Couples {
    /// One repetition: every couple joined cold, exact then approximate.
    pub fn rep(&mut self, ctx: &Ctx, inputs: &Inputs, traced: bool, report: &mut Report) {
        let tracer = ctx.tracer;
        let mut rep_exact = 0.0;
        let mut rep_answers = Vec::new();
        let mut telemetry = JoinTelemetry::default();
        tracer.span(None, "bench", "couples rep", 0, |root| {
            for (i, pair) in inputs.couples.iter().enumerate() {
                let mut answer = Answer {
                    exact: 0,
                    approx: 0,
                };
                for method in [CsjMethod::ExMinMax, CsjMethod::ApMinMax] {
                    let engine = engine_with(inputs, &[pair.b.clone(), pair.a.clone()]);
                    let (b, a) = (CommunityHandle(0), CommunityHandle(1));
                    let req = tracer.request();
                    let start = Instant::now();
                    let result = tracer.span(root, "engine", "similarity", req, |id| {
                        let result = if method == CsjMethod::ExMinMax {
                            engine.similarity(b, a)
                        } else {
                            engine.similarity_with(b, a, method)
                        };
                        if let Some(trace) = engine.traces(1).pop() {
                            tracer.import(id, req, start, &trace);
                        }
                        result
                    });
                    let elapsed = ms(start.elapsed());
                    report.attempted += 1;
                    let matched = match result {
                        Ok(s) => s.matched,
                        Err(e) => {
                            report.failed += 1;
                            report.fail(format!("couples: cid {} failed: {e}", pair.spec.cid));
                            0
                        }
                    };
                    telemetry.merge(&engine.stats().telemetry);
                    if method == CsjMethod::ExMinMax {
                        rep_exact += elapsed;
                        answer.exact = matched;
                        if !traced {
                            self.exact_ms.add(i, elapsed);
                        }
                    } else {
                        answer.approx = matched;
                        if !traced {
                            self.approx_ms.add(i, elapsed);
                        }
                    }
                }
                rep_answers.push(answer);
            }
        });
        if !traced {
            self.rep_exact_ms.push(rep_exact);
        }
        match &self.answers {
            None => self.answers = Some(rep_answers),
            Some(first) => report.check(*first == rep_answers, || {
                "couples: answers differ between repetitions".into()
            }),
        }
        match &self.counts {
            None => self.counts = Some(telemetry),
            Some(first) => report.check(
                first.rows_driven == telemetry.rows_driven
                    && first.candidates_streamed == telemetry.candidates_streamed
                    && first.matcher_edges == telemetry.matcher_edges,
                || "couples: work counts differ between repetitions".into(),
            ),
        }
    }

    /// Report the phase's metrics and run its output checks.
    pub fn finish(self, ctx: &Ctx, inputs: &Inputs, report: &mut Report) {
        eprintln!(
            "couples: {} untraced repetitions, exact ms min/median/max {}",
            self.rep_exact_ms.len(),
            summary(&self.rep_exact_ms)
        );
        report.e2e("pair_exact_ms", self.exact_ms.total(), "ms");
        report.e2e("pair_approx_ms", self.approx_ms.total(), "ms");
        check(ctx, inputs, &self.answers.unwrap_or_default(), report);
        if let (true, Some(t)) = (ctx.traced, self.counts) {
            layer_counts(&t, report);
        }
    }
}

/// Output checks, traced in the traced run: the prepared-path calls
/// here are where `core.prepare_*` is measured.
fn check(ctx: &Ctx, inputs: &Inputs, answers: &[Answer], report: &mut Report) {
    let tracer = ctx.tracer;
    tracer.set_on(ctx.traced);
    let opts = CsjOptions::new(inputs.eps);
    tracer.span(None, "bench", "couples check", 0, |root| {
        for (pair, answer) in inputs.couples.iter().zip(answers) {
            let cid = pair.spec.cid;
            let reference = tracer.span(root, "core", "run(ExMinMax)", 0, |_| {
                csj_core::run(CsjMethod::ExMinMax, &pair.b, &pair.a, &opts)
            });
            match reference {
                Ok(r) => report.check(r.similarity.matched == answer.exact, || {
                    format!(
                        "couples: cid {cid} engine exact {} != run(ExMinMax) {}",
                        answer.exact, r.similarity.matched
                    )
                }),
                Err(e) => report.fail(format!("couples: cid {cid} run(ExMinMax) failed: {e}")),
            }
            report.check(
                answer.approx <= answer.exact && answer.exact <= 2 * answer.approx,
                || {
                    format!(
                        "couples: cid {cid} violates Ap <= Ex <= 2 Ap ({} / {})",
                        answer.approx, answer.exact
                    )
                },
            );
            let pb = tracer.span(root, "core", "PreparedCommunity::new", 0, |_| {
                PreparedCommunity::new(pair.b.clone(), &opts)
            });
            let pa = tracer.span(root, "core", "PreparedCommunity::new", 0, |_| {
                PreparedCommunity::new(pair.a.clone(), &opts)
            });
            let ex = tracer.span(root, "kernel", "ex_minmax_between", 0, |_| {
                ex_minmax_between(&pb, &pa, &opts)
            });
            let ap = tracer.span(root, "kernel", "ap_minmax_between", 0, |_| {
                ap_minmax_between(&pb, &pa, &opts)
            });
            report.check(
                ex.pairs.len() == answer.exact && ap.pairs.len() == answer.approx,
                || format!("couples: cid {cid} prepared-path joins disagree with the engine"),
            );
        }
    });
    tracer.set_on(false);
}

fn layer_counts(t: &JoinTelemetry, report: &mut Report) {
    let events = &t.events;
    report.layer("kernel.rows_driven", t.rows_driven as f64, "count");
    report.layer(
        "kernel.candidates_streamed",
        t.candidates_streamed as f64,
        "count",
    );
    let streamed = t.candidates_streamed.max(1) as f64;
    report.layer(
        "kernel.match_ratio",
        events.matches as f64 / streamed,
        "ratio",
    );
    let pruned = (events.min_prune + events.max_prune + events.no_overlap) as f64;
    report.layer(
        "kernel.prune_ratio",
        pruned / events.total().max(1) as f64,
        "ratio",
    );
    report.layer("matching.edges", t.matcher_edges as f64, "count");
    report.layer("matching.flushes", t.matcher_flushes as f64, "count");
}

/// Kernel, matching and prepare times per couples repetition, from the
/// traced spans of this phase.
pub fn layer_times(spans: &[SpanRec], report: &mut Report) {
    for (metric, name) in [
        ("kernel.ap_setup_ms", "ap-minmax setup"),
        ("kernel.ap_pairing_ms", "ap-minmax pairing"),
        ("kernel.ex_setup_ms", "ex-minmax setup"),
        ("kernel.ex_pairing_ms", "ex-minmax pairing"),
        ("matching.ms", "ex-minmax matching"),
    ] {
        report.layer(metric, per_rep_ms(spans, "couples rep", name), "ms");
    }
    // Prepare is measured once per run, on the check's prepared path.
    let prepares: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.name == "PreparedCommunity::new")
        .collect();
    let prepare_ms = prepares.iter().fold(0.0, |acc, s| acc + s.ms());
    report.layer("core.prepare_ms", prepare_ms, "ms");
    report.layer("core.prepare_count", prepares.len() as f64, "count");
}
