//! `ingest` phase: a durable registry (`FsyncPolicy::Always`, the
//! default) holding the 40 registry communities takes a seeded stream
//! of upserts and removes, with a read-after-write `similarity` every
//! 20th mutation; then the WAL is replayed by reopening, a snapshot is
//! taken and the registry reopened from it. Every write invalidates the
//! community's prepared encoding and cached similarities, so this is
//! where a cache that helps warm reads shows its cost. It is the only
//! phase that exercises the WAL, snapshots and recovery.

use std::path::Path;
use std::time::Instant;

use csj_core::{CsjMethod, CsjOptions};
use csj_durability::record::WalOp;
use csj_durability::wal::Wal;
use csj_durability::{DurabilityConfig, DurableEngine, FsyncPolicy, WAL_FILE};
use csj_engine::{CommunityHandle, CsjEngine, MetricsSnapshot};

use crate::data::{engine_config, engine_with, Inputs};
use crate::stats::{median, ms, quantile, BestOf, Rng};
use crate::{Ctx, Report};

const READ_EVERY: usize = 20;
const REOPENS: usize = 15;
/// Mutations per run: a fixed count, so every run replays the same WAL.
const MUTATIONS: usize = 12_000;
/// Chunks the stream is applied in, two per batch repetition.
pub const CHUNKS: usize = 12;

#[derive(Debug, Clone)]
enum Op {
    Upsert(CommunityHandle, u64, Vec<u32>),
    Remove(CommunityHandle, u64),
}

/// The next mutation, on community `h`: mostly "a counter went up by
/// one" on an existing user, some new users, and removes of users the
/// stream added (so community sizes never shrink below their registered
/// size and every couple stays admissible).
fn next_op(
    rng: &mut Rng,
    engine: &CsjEngine,
    h: usize,
    added: &mut [Vec<u64>],
    next_user: &mut u64,
) -> Op {
    let handle = CommunityHandle(h as u32);
    let c = engine.community(handle).expect("registered community");
    let roll = rng.unit();
    if roll < 0.15 && !added[h].is_empty() {
        let user = added[h].swap_remove(rng.below(added[h].len()));
        return Op::Remove(handle, user);
    }
    let i = rng.below(c.len());
    let mut vector = c.vector(i).to_vec();
    let dim = rng.below(vector.len());
    vector[dim] += 1;
    if roll < 0.30 {
        *next_user += 1;
        added[h].push(*next_user);
        Op::Upsert(handle, *next_user, vector)
    } else {
        Op::Upsert(handle, c.user_id(i), vector)
    }
}

/// A partner of `h` the size constraint admits: its couple sibling when
/// possible.
fn partner(engine: &CsjEngine, h: CommunityHandle) -> Option<CommunityHandle> {
    let len = |x: CommunityHandle| engine.community(x).map_or(0, |c| c.len());
    let sibling = CommunityHandle(h.0 ^ 1);
    std::iter::once(sibling)
        .chain(engine.handles())
        .filter(|&y| y != h)
        .find(|&y| csj_core::validate_sizes(len(h).min(len(y)), len(h).max(len(y))).is_ok())
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter_value(name, &[])
}

/// The ingest phase: the durable registry and the mutation stream
/// applied to it so far. The stream is applied in chunks spread over
/// the run (see [`Ingest::chunk`]), so its latencies sample the whole
/// run rather than one burst of it.
pub struct Ingest {
    durable: DurableEngine,
    rng: Rng,
    added: Vec<Vec<u64>>,
    next_user: u64,
    ops: Vec<Op>,
    ack_us: Vec<f64>,
    reads: usize,
    /// Each community's quickest read after a write (ms).
    read_best: BestOf,
    opts: CsjOptions,
    before: MetricsSnapshot,
}

impl Ingest {
    pub fn new(ctx: &Ctx, inputs: &Inputs, durable: DurableEngine) -> Self {
        let before = durable.durability_metrics();
        Self {
            durable,
            rng: Rng::new(ctx.seed ^ 0x1A6E57),
            added: vec![Vec::new(); inputs.registry.len()],
            next_user: 1u64 << 48,
            ops: Vec::new(),
            ack_us: Vec::new(),
            reads: 0,
            read_best: BestOf::default(),
            opts: CsjOptions::new(inputs.eps),
            before,
        }
    }

    /// Apply the next `1 / CHUNKS` of the stream (nothing once it is all
    /// applied), with a read-after-write every `READ_EVERY` mutations.
    pub fn chunk(&mut self, ctx: &Ctx, report: &mut Report) {
        let end = (self.ops.len() + MUTATIONS / CHUNKS).min(MUTATIONS);
        if self.ops.len() >= end {
            return;
        }
        let tracer = ctx.tracer;
        let Self {
            durable,
            rng,
            added,
            next_user,
            ops,
            ack_us,
            reads,
            read_best,
            opts,
            ..
        } = self;
        tracer.span(None, "bench", "ingest stream", 0, |root| {
            while ops.len() < end {
                // The mutations followed by a read take the communities
                // in turn, so every run reads the same mix of sizes and
                // the read figure compares across seeds; the others are
                // drawn at random.
                let n = added.len();
                let h = if (ops.len() + 1) % READ_EVERY == 0 {
                    ops.len() / READ_EVERY % n
                } else {
                    rng.below(n)
                };
                let op = next_op(rng, durable.engine(), h, added, next_user);
                let req = tracer.request();
                let t = Instant::now();
                let acked = match &op {
                    Op::Upsert(h, user, v) => tracer.span(
                        root,
                        "durability",
                        "DurableEngine::upsert_user",
                        req,
                        |_| durable.upsert_user(*h, *user, v),
                    ),
                    Op::Remove(h, user) => tracer.span(
                        root,
                        "durability",
                        "DurableEngine::remove_user",
                        req,
                        |_| durable.remove_user(*h, *user),
                    ),
                };
                ack_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.attempted += 1;
                if let Err(e) = acked {
                    report.failed += 1;
                    report.fail(format!("ingest: mutation {} failed: {e}", ops.len()));
                }
                let h = match &op {
                    Op::Upsert(h, ..) | Op::Remove(h, _) => *h,
                };
                ops.push(op);
                if ops.len() % READ_EVERY != 0 {
                    continue;
                }
                let Some(y) = partner(durable.engine(), h) else {
                    continue;
                };
                let engine = durable.engine();
                let req = tracer.request();
                let t = Instant::now();
                let got = tracer.span(root, "engine", "similarity", req, |id| {
                    let got = engine.similarity(h, y);
                    if let Some(trace) = engine.traces(1).pop() {
                        tracer.import(id, req, t, &trace);
                    }
                    got
                });
                *reads += 1;
                read_best.add(h.0 as usize, ms(t.elapsed()));
                report.attempted += 1;
                let (cx, cy) = (
                    engine.community(h).expect("registered"),
                    engine.community(y).expect("registered"),
                );
                let (b, a) = if cx.len() <= cy.len() {
                    (cx, cy)
                } else {
                    (cy, cx)
                };
                let fresh = tracer.span(root, "core", "run(ExMinMax)", req, |_| {
                    csj_core::run(CsjMethod::ExMinMax, b, a, opts)
                });
                match (got, fresh) {
                    (Ok(s), Ok(f)) => report.check(s.matched == f.similarity.matched, || {
                        format!(
                            "ingest: read-after-write similarity({}, {}) is stale",
                            h.0, y.0
                        )
                    }),
                    (got, fresh) => {
                        report.failed += u64::from(got.is_err());
                        report.fail(format!(
                            "ingest: read-after-write failed: {:?} / {:?}",
                            got.err(),
                            fresh.err()
                        ));
                    }
                }
            }
        });
    }

    /// Apply what is left of the stream, report the stream's metrics,
    /// then recover: replay the WAL by reopening, snapshot and reopen.
    pub fn finish(
        mut self,
        ctx: &Ctx,
        inputs: &Inputs,
        durable_dir: &Path,
        dir: &Path,
        report: &mut Report,
    ) {
        let tracer = ctx.tracer;
        tracer.set_on(ctx.traced);
        while self.ops.len() < MUTATIONS {
            self.chunk(ctx, report);
        }
        let Self {
            mut durable,
            ops,
            ack_us,
            reads,
            read_best,
            before,
            ..
        } = self;
        let mutations = ops.len() as f64;
        let after = durable.durability_metrics();
        report.e2e("read_after_write_ms", read_best.mean(), "ms");
        eprintln!(
            "ingest: {} mutations, {reads} reads after writes",
            ops.len()
        );

        // Recovery: reopen (WAL replay) several times, then snapshot and
        // reopen from the snapshot; every reopen must match the live state.
        let live = durable.fingerprint();
        tracer.span(None, "bench", "ingest recovery", 0, |root| {
            if let Err(e) = tracer.span(root, "durability", "DurableEngine::sync", 0, |_| {
                durable.sync()
            }) {
                report.fail(format!("ingest: sync failed: {e}"));
            }
            drop(durable);
            let wal_mb =
                std::fs::metadata(durable_dir.join(WAL_FILE)).map_or(0.0, |m| m.len() as f64 / 1e6);
            let open = || {
                DurableEngine::open(
                    durable_dir,
                    inputs.d,
                    engine_config(inputs.eps),
                    DurabilityConfig::default(),
                )
            };
            let mut recovery_ms = Vec::new();
            let mut reopened = None;
            for _ in 0..REOPENS {
                let t = Instant::now();
                let r = tracer.span(root, "durability", "DurableEngine::open", 0, |id| {
                    let r = open();
                    if let Ok(d) = &r {
                        let rep = d.report();
                        tracer.attr(id, "records_replayed", rep.records_replayed as f64);
                        tracer.attr(id, "bytes_discarded", rep.bytes_discarded as f64);
                    }
                    r
                });
                recovery_ms.push(ms(t.elapsed()));
                match r {
                    Ok(d) => {
                        report.check(d.fingerprint() == live, || {
                            "ingest: recovered state differs from the live one".into()
                        });
                        reopened = Some(d);
                    }
                    Err(e) => report.fail(format!("ingest: reopen failed: {e}")),
                }
            }
            let recovery = quantile(&recovery_ms, 0.0);
            let Some(mut d) = reopened else { return };
            let replayed = d.report().records_replayed;
            let t = Instant::now();
            let snap = tracer.span(root, "durability", "DurableEngine::snapshot", 0, |_| {
                d.snapshot()
            });
            let snapshot_ms = ms(t.elapsed());
            drop(d);
            match (&snap, open()) {
                (Ok(s), Ok(d)) => {
                    report.check(d.fingerprint() == live, || {
                        "ingest: state reopened from the snapshot differs".into()
                    });
                    if ctx.traced {
                        let bytes = std::fs::metadata(&s.path).map_or(0, |m| m.len());
                        report.layer("snapshot.ms", snapshot_ms, "ms");
                        report.layer("snapshot.bytes", bytes as f64, "bytes");
                    }
                }
                (s, d) => report.fail(format!(
                    "ingest: snapshot/reopen failed: {:?} / {:?}",
                    s.as_ref().err().map(|e| e.to_string()),
                    d.err().map(|e| e.to_string())
                )),
            }
            if ctx.traced {
                report.layer("recovery.ms", recovery, "ms");
                report.layer("recovery.records_replayed", replayed as f64, "count");
                report.layer("recovery.ms_per_mb", recovery / wal_mb.max(1e-9), "ms/MB");
            }
        });
        tracer.set_on(false);

        if ctx.traced {
            report.layer("durability.mutation_p50_us", median(&ack_us), "us");
            report.layer("durability.mutation_p99_us", quantile(&ack_us, 0.99), "us");
            let delta = |name| (counter(&after, name) - counter(&before, name)) as f64;
            report.layer("wal.fsync_count", delta("csj_wal_fsyncs_total"), "count");
            report.layer(
                "wal.bytes_per_mutation",
                delta("csj_wal_bytes_total") / mutations,
                "bytes",
            );
            wal_probe(ctx, dir, &ops, report);
            apply_probe(inputs, &ops, report);
        }
    }
}

fn wal_op(op: &Op) -> WalOp {
    match op {
        Op::Upsert(h, user, vector) => WalOp::UpsertUser {
            handle: h.0,
            user: *user,
            vector: vector.clone(),
        },
        Op::Remove(h, user) => WalOp::RemoveUser {
            handle: h.0,
            user: *user,
        },
    }
}

/// The same mutation stream appended to a bare WAL: append and fsync
/// latency per record, without the engine.
fn wal_probe(ctx: &Ctx, dir: &Path, ops: &[Op], report: &mut Report) {
    let path = dir.join("wal-probe").join(WAL_FILE);
    let opened = std::fs::create_dir_all(path.parent().expect("probe dir"))
        .and_then(|_| Wal::open(&path, FsyncPolicy::Always, 1));
    let mut wal = match opened {
        Ok(w) => w,
        Err(e) => return report.fail(format!("ingest: WAL probe open failed: {e}")),
    };
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    ctx.tracer.set_on(true);
    ctx.tracer.span(None, "bench", "WAL probe", 0, |root| {
        for op in ops {
            let t = Instant::now();
            let appended = ctx.tracer.span(root, "durability", "Wal::append", 0, |id| {
                let out = wal.append(wal_op(op));
                if let Ok(out) = &out {
                    ctx.tracer.attr(id, "bytes", out.bytes as f64);
                }
                out
            });
            match appended {
                Ok(out) => {
                    append_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if let Some(f) = out.fsync_latency {
                        fsync_us.push(f.as_secs_f64() * 1e6);
                    }
                }
                Err(e) => report.fail(format!("ingest: WAL probe append failed: {e}")),
            }
        }
    });
    ctx.tracer.set_on(false);
    if !append_us.is_empty() {
        report.layer("wal.append_p50_us", quantile(&append_us, 0.5), "us");
        report.layer("wal.append_p99_us", quantile(&append_us, 0.99), "us");
    }
    if !fsync_us.is_empty() {
        report.layer("wal.fsync_p99_us", quantile(&fsync_us, 0.99), "us");
    }
}

/// The same mutation stream applied to a plain in-memory engine: what a
/// mutation costs without the WAL.
fn apply_probe(inputs: &Inputs, ops: &[Op], report: &mut Report) {
    let mut engine = engine_with(inputs, &inputs.registry);
    let mut apply_us = Vec::with_capacity(ops.len());
    for op in ops {
        let t = Instant::now();
        let r = match op {
            Op::Upsert(h, user, v) => engine.upsert_user(*h, *user, v),
            Op::Remove(h, user) => engine.remove_user(*h, *user),
        };
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = r {
            report.fail(format!("ingest: replay on a plain engine failed: {e}"));
        }
    }
    report.layer("engine.apply_us", median(&apply_us), "us");
}
