//! `kernel_gate` — assert the chunked, cache-blocked kernel path
//! beats the scalar serial baseline on Section 6 table shapes.
//!
//! For each gate shape the exact nested-loop scan (the kernel the
//! other substrates inherit their compare primitive from) is measured
//! in two modes over N rounds: [`QuantMode::Off`] (the serial scalar
//! reference) and [`QuantMode::Auto`] (chunked `u32` compares +
//! cache-blocked tiling). Every round times both modes back to back,
//! alternating which goes first, and a shape's speedup is the median of
//! its per-round Off/Auto ratios: a noisy stretch on a shared host slows
//! both sides of one round's ratio instead of one side's best time, and
//! one lucky round cannot set the result. Each couple runs in two
//! flavours:
//!
//! * **wide** — the VK-shaped counters as built, and
//! * **narrow** — the same rows remapped into byte range, so the gate
//!   also covers small-value data.
//!
//! Both flavours compare on `u32` lanes; the win comes from the
//! branchless chunks, tiling and bulk row bookkeeping.
//!
//! Before timing, every one of the eight methods is run in both modes
//! on the smallest shape and the pair lists must agree — the gate
//! refuses to certify a fast path that changes results.
//!
//! ```text
//! cargo run -p csj-bench --release --bin kernel_gate -- \
//!     [--scale N] [--rounds R] [--threshold X] [--out PATH]
//! ```
//!
//! The gate passes when the geometric-mean speedup across all shapes
//! is at least the threshold (default 1.3x) and no single shape
//! regresses below 1.0x. A `BENCH_kernel.json` report is written
//! atomically either way, so CI can archive the numbers.

use std::time::Duration;

use csj_bench::report::write_report_atomic;
use csj_core::{run, Community, CsjMethod, CsjOptions, QuantMode};
use csj_data::pairs::{build_couple, BuildOptions, Dataset};
use csj_data::COUPLES;

/// Every concrete method, for the parity sweep.
const ALL: [CsjMethod; 8] = [
    CsjMethod::ApBaseline,
    CsjMethod::ExBaseline,
    CsjMethod::ApMinMax,
    CsjMethod::ExMinMax,
    CsjMethod::ApSuperEgo,
    CsjMethod::ExSuperEgo,
    CsjMethod::ApHybrid,
    CsjMethod::ExHybrid,
];

/// Couples spanning Section 6's size spectrum (indices into COUPLES).
const GATE_COUPLES: [usize; 3] = [0, 7, 14];

/// Counters in the narrow flavour are remapped below this modulus (a
/// byte's range).
const NARROW_MOD: u32 = 200;

fn usage() -> ! {
    eprintln!("usage: kernel_gate [--scale N] [--rounds R] [--threshold X] [--out PATH]");
    std::process::exit(2)
}

struct Shape {
    label: String,
    b: Community,
    a: Community,
    eps: u32,
}

/// Remap every counter below `NARROW_MOD` (same ids, same order).
fn narrowed(c: &Community, name: &str) -> Community {
    Community::from_rows(
        name,
        c.d(),
        (0..c.len()).map(|i| {
            let row: Vec<u32> = c.vector(i).iter().map(|&v| v % NARROW_MOD).collect();
            (c.user_id(i), row)
        }),
    )
    .expect("narrowed community")
}

/// The wide (as built) and narrow (byte-range) flavours of one couple.
fn shapes(couple_idx: usize, scale: u32, seed: u64) -> [Shape; 2] {
    let spec = &COUPLES[couple_idx];
    let pair = build_couple(spec, Dataset::VkLike, BuildOptions { scale, seed });
    let narrow_b = narrowed(&pair.b, "narrow-b");
    let narrow_a = narrowed(&pair.a, "narrow-a");
    [
        Shape {
            label: format!("cid {} /{} wide", spec.cid, scale),
            b: pair.b,
            a: pair.a,
            eps: pair.eps,
        },
        Shape {
            label: format!("cid {} /{} narrow", spec.cid, scale),
            b: narrow_b,
            a: narrow_a,
            eps: pair.eps,
        },
    ]
}

fn opts(eps: u32, quant: QuantMode) -> CsjOptions {
    CsjOptions::new(eps).with_quant(quant)
}

/// The exact nested-loop scan timed in both modes, interleaved within
/// every round: best-of-`rounds` wall clock of Off and of Auto, and the
/// median of the per-round Off/Auto ratios.
fn measure(shape: &Shape, rounds: u32) -> (Duration, Duration, f64) {
    let time = |quant: QuantMode| {
        run(
            CsjMethod::ExBaseline,
            &shape.b,
            &shape.a,
            &opts(shape.eps, quant),
        )
        .expect("gate join")
        .timings
        .total()
    };
    let (mut off, mut auto) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        let (o, a) = if round % 2 == 0 {
            let o = time(QuantMode::Off);
            (o, time(QuantMode::Auto))
        } else {
            let a = time(QuantMode::Auto);
            (time(QuantMode::Off), a)
        };
        off = off.min(o);
        auto = auto.min(a);
        ratios.push(o.as_secs_f64() / a.as_secs_f64().max(1e-9));
    }
    ratios.sort_by(f64::total_cmp);
    (off, auto, ratios[ratios.len() / 2])
}

/// One gate row: both timings plus the Auto run's kernel telemetry.
struct Row {
    label: String,
    nb: usize,
    na: usize,
    d: usize,
    eps: u32,
    lane_bits: u64,
    a_tiles: u64,
    scalar: Duration,
    quant: Duration,
    /// Median of the per-round scalar/quant ratios.
    speedup: f64,
}

fn json_report(rows: &[Row], scale: u32, rounds: u32, threshold: f64, geomean: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernel_gate\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str(&format!("  \"threshold\": {threshold},\n"));
    out.push_str(&format!("  \"geomean_speedup\": {geomean:.4},\n"));
    out.push_str("  \"shapes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"nb\": {}, \"na\": {}, \"d\": {}, \"eps\": {}, \
             \"lane_bits\": {}, \"a_tiles\": {}, \"scalar_us\": {}, \"quant_us\": {}, \
             \"speedup\": {:.4}}}{sep}\n",
            r.label,
            r.nb,
            r.na,
            r.d,
            r.eps,
            r.lane_bits,
            r.a_tiles,
            r.scalar.as_micros(),
            r.quant.as_micros(),
            r.speedup,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut scale = 64u32;
    let mut rounds = 15u32;
    let mut threshold = 1.3f64;
    let mut out_path = std::path::PathBuf::from("EXPERIMENTS-data/BENCH_kernel.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage());
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage());
            }
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_path = args.next().map(Into::into).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let seed = 0xC5A0_2024u64;

    let gate_shapes: Vec<Shape> = GATE_COUPLES
        .iter()
        .flat_map(|&i| shapes(i, scale, seed))
        .collect();

    // Parity sweep: on the smallest couple (both flavours) every method
    // must produce the same pairs with the fast path on and off.
    for flavour in shapes(GATE_COUPLES[0], scale.saturating_mul(8), seed) {
        for m in ALL {
            let off = run(
                m,
                &flavour.b,
                &flavour.a,
                &opts(flavour.eps, QuantMode::Off),
            )
            .expect("parity join (off)");
            let auto = run(
                m,
                &flavour.b,
                &flavour.a,
                &opts(flavour.eps, QuantMode::Auto),
            )
            .expect("parity join (auto)");
            if off.pairs != auto.pairs {
                eprintln!(
                    "kernel_gate: PARITY FAIL — {} on {} differs between the chunked and scalar paths",
                    m.name(),
                    flavour.label,
                );
                std::process::exit(1);
            }
        }
    }
    println!("kernel_gate: parity ok (8 methods x 2 flavours, off == auto)");

    // Warm-up: one pass of each mode on the first shape.
    measure(&gate_shapes[0], 1);

    let mut rows: Vec<Row> = Vec::new();
    for s in &gate_shapes {
        let (scalar, quant, speedup) = measure(s, rounds);
        let probe = run(
            CsjMethod::ExBaseline,
            &s.b,
            &s.a,
            &opts(s.eps, QuantMode::Auto),
        )
        .expect("telemetry probe");
        rows.push(Row {
            label: s.label.clone(),
            nb: s.b.len(),
            na: s.a.len(),
            d: s.b.d(),
            eps: s.eps,
            lane_bits: probe.telemetry.lane_bits,
            a_tiles: probe.telemetry.a_tiles,
            scalar,
            quant,
            speedup,
        });
    }

    let geomean = (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp();

    let mut failed = false;
    for r in &rows {
        // Any single shape dropping below par means the fast path is a
        // pessimisation somewhere — fail even if the mean still clears.
        let verdict = if r.speedup < 1.0 {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "kernel_gate: {} |B|={} |A|={} lane=u{} tiles={} scalar {:.3} ms, quant {:.3} ms, {:.2}x [{verdict}]",
            r.label,
            r.nb,
            r.na,
            r.lane_bits,
            r.a_tiles,
            r.scalar.as_secs_f64() * 1e3,
            r.quant.as_secs_f64() * 1e3,
            r.speedup,
        );
    }
    if geomean < threshold {
        failed = true;
    }

    let report = json_report(&rows, scale, rounds, threshold, geomean);
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match write_report_atomic(&out_path, &report) {
        Ok(()) => println!("kernel_gate: wrote {}", out_path.display()),
        Err(e) => eprintln!("kernel_gate: could not write {}: {e}", out_path.display()),
    }

    if failed {
        eprintln!(
            "kernel_gate: FAIL — geomean speedup {geomean:.2}x (threshold {threshold:.2}x) \
             or a shape regressed below 1.0x"
        );
        std::process::exit(1);
    }
    println!("kernel_gate: OK (geomean speedup {geomean:.2}x >= {threshold:.2}x)");
}
