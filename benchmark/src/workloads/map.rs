//! `map-large`: the paper's headline — analysis and mapping of *large*
//! programs, with no execution at all. Description text → `from_json` →
//! `analyze_program` → `dataflow::fuse_all` → `core::analyze` →
//! `HardwareMapping::build` → `codegen::generate_kernels` →
//! `MultiDevicePlan::partition(8)` → `core::perf::expected_cycles`; one job
//! is one program. Cost follows DAG size, not grid size, and no executor
//! tier or simulator is touched.

use std::time::Instant;

use super::{ms_since, whole_iterations, Ctx, Layers, Tally, Workload};
use crate::stats::Rng;
use crate::sut;
use crate::trace::Tracer;

const DEVICES: usize = 8;

/// The deterministic results of mapping one program; every pass must
/// reproduce them. The values are reported, not pinned.
#[derive(Clone, Copy, PartialEq, Default)]
struct Facts {
    stencils_fused_away: usize,
    buffer_elements: u64,
    kernel_bytes: usize,
    model_cycles: u64,
    cells: u64,
}

pub struct MapLarge {
    set: Vec<(&'static str, String)>,
    rng: Rng,
    first_pass: Vec<Option<Facts>>,
}

impl MapLarge {
    pub fn setup(ctx: &Ctx) -> Result<MapLarge, String> {
        let set = sut::map_large_set();
        let mut map = MapLarge {
            first_pass: vec![None; set.len()],
            set,
            rng: Rng::new(ctx.seed),
        };
        let mut tally = Tally::default();
        map.pass(&mut tally, &mut Tracer::new());
        if tally.failed + tally.mismatches > 0 {
            return Err("the warm-up pass failed".into());
        }
        Ok(map)
    }

    /// One pass over the set, in an order drawn from the seed.
    fn pass(&mut self, tally: &mut Tally, tracer: &mut Tracer) {
        let mut order: Vec<usize> = (0..self.set.len()).collect();
        self.rng.shuffle(&mut order);
        for ix in order {
            tally.attempted += 1;
            let start = Instant::now();
            let mapped = map_one(&self.set[ix].1, ix as u64, tracer);
            tally.latencies_ms.push(ms_since(start));
            match mapped {
                Ok((facts, sound)) => {
                    tally.cells += facts.cells;
                    let repeatable = *self.first_pass[ix].get_or_insert(facts) == facts;
                    tally.mismatches += u64::from(!(sound && repeatable));
                }
                Err(_) => tally.failed += 1,
            }
        }
    }
}

/// Map one program. The flag is the oracle: no error-severity diagnostic,
/// a network-feasible partition, every stencil on exactly one device.
fn map_one(text: &str, job: u64, tracer: &mut Tracer) -> Result<(Facts, bool), String> {
    let id = Some(job);
    let program = tracer.span("program.from_json", id, || sut::program_from_json(text))?;
    let clean = tracer.span("analysis.analyze_program", id, || {
        sut::analyze_program(&program)
    });
    let fused = tracer.span("dataflow.fuse_all", id, || sut::fuse_all(&program))?;
    let buffer_elements = tracer.span("core.analyze", id, || sut::core_analyze(&fused))?;
    let mapping = tracer.span("core.mapping", id, || sut::build_mapping(&fused))?;
    let kernel_bytes = tracer.span("codegen.generate", id, || {
        sut::generate_kernels(&fused, &mapping)
    });
    let plan = tracer.span("core.partition", id, || sut::partition(&fused, DEVICES))?;
    let model_cycles = tracer.span("perf.expected_cycles", id, || sut::expected_cycles(&fused))?;
    let facts = Facts {
        stencils_fused_away: sut::stencil_count(&program) - sut::stencil_count(&fused),
        buffer_elements,
        kernel_bytes,
        model_cycles,
        cells: sut::cell_updates(&fused),
    };
    let sound = clean && plan.network_feasible() && plan.covers_exactly_once(&fused);
    Ok((facts, sound))
}

/// The per-layer metrics both mapping workloads report from their spans:
/// time per pass in each layer (per-program medians, summed over the set).
pub fn layer_times(tracer: &Tracer, jobs: usize, layers: &mut Layers) {
    for (metric, span) in [
        ("program.from_json_us", "program.from_json"),
        ("analysis.analyze_program_us", "analysis.analyze_program"),
        ("dataflow.fuse_all_us", "dataflow.fuse_all"),
        ("core.analyze_us", "core.analyze"),
        ("core.mapping_us", "core.mapping"),
        ("codegen.generate_us", "codegen.generate"),
        ("core.partition_us", "core.partition"),
    ] {
        layers.insert(metric.into(), tracer.pass_total_us(&[span], jobs));
    }
}

impl Workload for MapLarge {
    fn tail_percentile(&self) -> f64 {
        0.90
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        whole_iterations(seconds, tally, tracer, |tally, tracer| {
            self.pass(tally, tracer)
        });
    }

    /// The oracle runs inside every job (see [`map_one`]); nothing is left
    /// to check afterwards.
    fn verify(&mut self, _tally: &mut Tally, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        layer_times(tracer, self.set.len(), layers);
        let facts: Vec<Facts> = self
            .first_pass
            .iter()
            .map(|f| f.unwrap_or_default())
            .collect();
        let sum = |f: fn(&Facts) -> f64| facts.iter().map(f).sum::<f64>();
        layers.insert(
            "dataflow.stencils_fused".into(),
            sum(|f| f.stencils_fused_away as f64),
        );
        layers.insert(
            "core.buffer_elements".into(),
            sum(|f| f.buffer_elements as f64),
        );
        layers.insert(
            "codegen.kernel_bytes".into(),
            sum(|f| f.kernel_bytes as f64),
        );
        layers.insert("perf.model_cycles".into(), sum(|f| f.model_cycles as f64));

        // Log-log slope of time against DAG size from the 256- to the
        // 1024-stage chain (1.0 = linear), for the whole job and for the
        // two layers that grow fastest.
        let index = |label: &str| self.set.iter().position(|(l, _)| *l == label);
        let (Some(large), Some(small)) = (index("chain1024"), index("chain256")) else {
            return Err("the chain programs are missing from the set".into());
        };
        let all = [
            "program.from_json",
            "analysis.analyze_program",
            "dataflow.fuse_all",
            "core.analyze",
            "core.mapping",
            "codegen.generate",
            "core.partition",
            "perf.expected_cycles",
        ];
        let exponent = |spans: &[&str]| {
            let time = |job: usize| -> f64 {
                spans
                    .iter()
                    .map(|span| tracer.median_us(span, Some(job as u64)))
                    .sum()
            };
            (time(large) / time(small)).ln() / 4f64.ln()
        };
        layers.insert("map.scaling_exponent".into(), exponent(&all));
        layers.insert(
            "map.fuse_scaling_exponent".into(),
            exponent(&["dataflow.fuse_all"]),
        );
        layers.insert(
            "map.codegen_scaling_exponent".into(),
            exponent(&["codegen.generate"]),
        );
        Ok(())
    }
}
