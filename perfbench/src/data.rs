//! Workload definitions and seeded input generation (the `csj-data`
//! layer), plus the set-up step every run times.

use std::path::{Path, PathBuf};
use std::time::Instant;

use csj_core::Community;
use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};
use csj_data::COUPLES;
use csj_durability::{DurabilityConfig, DurableEngine};
use csj_engine::{CsjEngine, EngineConfig};

use crate::trace::{SpanId, Tracer};

/// One benchmark workload: a dataset and the sizes of the four phases
/// run on it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Scale divisor of the `COUPLE_IDS` couples joined one by one.
    pub couple_scale: u32,
    /// Scale divisor of the 40-community registry (both sides of all
    /// 20 couples); the serve registry is its first 12 communities.
    pub registry_scale: u32,
    /// Offered rate of the fixed-rate serve phase.
    pub serve_qps: f64,
    /// First rung of the serve capacity ladder.
    pub ladder_start_qps: f64,
}

/// The Section 6 couples of the couples phase: |B| from 6.8k to 11.2k
/// users at scale /16.
pub const COUPLE_IDS: [u8; 3] = [1, 8, 13];

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "vk",
        dataset: Dataset::VkLike,
        couple_scale: 16,
        registry_scale: 128,
        serve_qps: 300.0,
        ladder_start_qps: 900.0,
    },
    Workload {
        name: "synthetic",
        dataset: Dataset::Uniform,
        couple_scale: 32,
        registry_scale: 512,
        serve_qps: 200.0,
        ladder_start_qps: 250.0,
    },
];

/// Couples whose two sides make up the serve registry.
pub const SERVE_COUPLES: usize = 6;

/// Everything a run joins, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub eps: u32,
    pub d: usize,
    pub couples: Vec<CouplePair>,
    /// Both sides of every couple, renamed `<name>#<cid><side>` so that
    /// communities shared between couples stay distinct; entries `2i`
    /// and `2i + 1` are couple `i`'s smaller and larger side.
    pub registry: Vec<Community>,
}

impl Inputs {
    /// The serve registry: both sides of the first `SERVE_COUPLES`
    /// couples.
    pub fn serve(&self) -> &[Community] {
        &self.registry[..2 * SERVE_COUPLES]
    }
}

fn renamed(c: &Community, name: String) -> Community {
    Community::from_rows(name, c.d(), c.iter().map(|(id, v)| (id, v.to_vec())))
        .expect("a generated community is well-formed")
}

pub fn generate(w: &Workload, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Inputs {
    let build = |cid: u8, scale: u32| {
        let spec = COUPLES
            .iter()
            .find(|c| c.cid == cid)
            .expect("couple id from the paper's list");
        tracer.span(parent, "data", "build_couple", 0, |_| {
            build_couple(
                spec,
                w.dataset,
                BuildOptions {
                    scale,
                    seed: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xC5A0_2024,
                },
            )
        })
    };
    let couples: Vec<CouplePair> = COUPLE_IDS
        .iter()
        .map(|&cid| build(cid, w.couple_scale))
        .collect();
    let registry = COUPLES
        .iter()
        .flat_map(|spec| {
            let pair = build(spec.cid, w.registry_scale);
            [("b", pair.b), ("a", pair.a)]
                .map(|(side, c)| renamed(&c, format!("{}#{}{side}", c.name(), spec.cid)))
        })
        .collect();
    Inputs {
        eps: w.dataset.eps(),
        d: couples[0].b.d(),
        couples,
        registry,
    }
}

/// The engine configuration every phase uses: the defaults, with one
/// worker per query. The host gives the benchmark a couple of cores,
/// and a query fanned out over all of them waits for whichever core the
/// host is busy on, so its time would measure the host's other tenants.
/// With one worker the load is the harness thread alone (and, in the
/// serve phase, one query per service worker).
pub fn engine_config(eps: u32) -> EngineConfig {
    EngineConfig {
        threads: 1,
        ..EngineConfig::new(eps)
    }
}

pub fn engine_with(inputs: &Inputs, communities: &[Community]) -> CsjEngine {
    let mut engine = CsjEngine::new(inputs.d, engine_config(inputs.eps));
    for c in communities {
        engine
            .register(c.clone())
            .expect("generated communities register");
    }
    engine
}

/// What one set-up produced: the inputs, the serve engine and the
/// durable registry, all registered.
pub struct Setup {
    pub inputs: Inputs,
    pub serve_engine: CsjEngine,
    pub durable: DurableEngine,
    /// Where `durable` keeps its WAL and snapshots.
    pub dir: PathBuf,
    pub seconds: f64,
}

/// Generate the inputs and register them everywhere a phase starts
/// from a registered state: the 40-community registry, the serve
/// registry and the durable registry (one fsynced WAL record each).
pub fn setup(w: &Workload, seed: u64, dir: &Path, tracer: &Tracer) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let (inputs, serve_engine, durable) = tracer.span(None, "bench", "setup", 0, |root| {
        let inputs = generate(w, seed, tracer, root);
        tracer.span(root, "engine", "register x40", 0, |_| {
            drop(engine_with(&inputs, &inputs.registry))
        });
        let serve_engine = tracer.span(root, "engine", "register serve registry", 0, |_| {
            engine_with(&inputs, inputs.serve())
        });
        let durable = tracer.span(root, "durability", "DurableEngine::register x40", 0, |_| {
            let mut durable = DurableEngine::open(
                dir,
                inputs.d,
                engine_config(inputs.eps),
                DurabilityConfig::default(),
            )
            .expect("open a fresh durable registry");
            for c in &inputs.registry {
                durable
                    .register(c.clone())
                    .expect("durable registration succeeds");
            }
            durable
        });
        (inputs, serve_engine, durable)
    });
    Setup {
        inputs,
        serve_engine,
        durable,
        dir: dir.to_path_buf(),
        seconds: start.elapsed().as_secs_f64(),
    }
}
