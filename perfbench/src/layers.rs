//! Per-layer timings taken from outside: the benchmark calls each
//! layer's public functions directly, on the workload's own inputs and
//! mesh shapes, and times the calls.

use std::time::Instant;

use oplix_linalg::{CMatrix, Complex64};
use oplix_photonics::svd_map::PhotonicLayer;
use oplix_photonics::CompiledLayer;
use oplixnet::pool;
use rand::Rng;

use crate::model::{self, WINDOW};
use crate::report::{median, Metrics};
use crate::trace::{self, Spans};
use crate::workload::World;

/// Runs `f` `reps` times, recording each call as a span; returns the
/// per-call times in ns.
fn sample_calls(
    reps: usize,
    spans: &mut Option<Spans>,
    name: &'static str,
    label: &'static str,
    mut f: impl FnMut(),
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            trace::timed(spans, name, label, &mut f);
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Measures every layer the workload exercises; returns problems found
/// (a worker count that changes the logits).
pub fn measure(world: &World, spans: &mut Option<Spans>, m: &mut Metrics) -> Vec<String> {
    let mut problems = Vec::new();
    let w = world.workload;
    let nproc = crate::nproc();

    // datasets::assign — the real-to-complex assignment of the raw images.
    let per_rep: Vec<f64> = (0..5)
        .map(|_| {
            let mut ns = 0.0;
            for (arch, inputs) in &world.inputs {
                ns += sample_calls(1, spans, "assign.apply", arch.key(), || {
                    std::hint::black_box(model::ASSIGNMENT.apply(&inputs.raw.inputs));
                })[0];
            }
            ns
        })
        .collect();
    let images: usize = world.inputs.values().map(|i| i.raw.len()).sum();
    m.set(
        "assign.ns_per_sample",
        median(&per_rep) / images as f64,
        "ns",
    );

    // photonics — one compiled SVD layer per deployed mesh shape, fed a
    // full serving window.
    for arch in w.arches() {
        for &(rows, cols) in arch.mesh_shapes() {
            let mut rng = model::stream(world.seed, 0x3E5_0000 + (rows * 1000 + cols) as u64);
            let mut c = || Complex64::new(rng.gen_f64() - 0.5, rng.gen_f64() - 0.5);
            let matrix = CMatrix::from_fn(rows, cols, |_, _| c());
            let layer = PhotonicLayer::from_matrix(&matrix, model::STYLE);
            let compiled = CompiledLayer::compile(&layer);
            let input: Vec<Complex64> = (0..WINDOW * cols).map(|_| c()).collect();
            let mut io = Vec::new();
            let mut tmp = Vec::new();
            let mut run = || {
                io.clear();
                io.extend_from_slice(&input);
                compiled.forward_batch(&mut io, &mut tmp, WINDOW);
                std::hint::black_box(&io);
            };
            // Enough calls per timing that each spans ~2 ms.
            let t = Instant::now();
            run();
            let once = t.elapsed().as_nanos().max(1) as f64;
            let calls = ((2e6 / once) as usize).clamp(1, 10_000);
            let batches: Vec<f64> = (0..7)
                .map(|_| {
                    let t = Instant::now();
                    trace::timed(spans, "photonics.forward_batch", arch.key(), || {
                        for _ in 0..calls {
                            run();
                        }
                    });
                    t.elapsed().as_nanos() as f64 / (calls * WINDOW) as f64
                })
                .collect();
            let shape = format!("{rows}x{cols}");
            m.set(
                &format!("photonics.mesh_ns_per_sample.{shape}"),
                median(&batches),
                "ns",
            );
            m.set(
                &format!("photonics.mzi_count.{shape}"),
                layer.device_count().mzis as f64,
                "count",
            );
        }
    }

    // pool — launching `nproc` empty tasks on the persistent executor.
    let launches = sample_calls(2000, spans, "pool.run_scoped", "", || {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..nproc)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        pool::run_scoped(tasks);
    });
    m.set("pool.launch_us", median(&launches) / 1e3, "us");
    m.set("pool.workers_alive", pool::workers_alive() as f64, "count");

    // engine — one serving window through a side copy of the deployment,
    // on one worker and on `nproc` workers.
    for arch in w.arches() {
        let net = w.weights_of(arch).build(world.seed);
        let mut engine = arch.deploy(&net).expect("benchmark models deploy");
        let window = world.inputs[&arch].head(WINDOW);
        let reps = match arch {
            model::Arch::Fcnn => 200,
            model::Arch::Lenet => 9,
        };
        let mut logits = Vec::new();
        for (workers, key) in [(1, "w1"), (nproc, "wN")] {
            engine.set_num_workers(workers);
            let out = engine.predict_batch(&window).expect("window serves");
            let times = sample_calls(reps, spans, "engine.predict_batch", arch.key(), || {
                std::hint::black_box(engine.predict_batch(&window).expect("window serves"));
            });
            m.set(
                &format!("engine.window_us.{key}.{}", arch.key()),
                median(&times) / 1e3,
                "us",
            );
            let bits: Vec<u64> = out.iter().flatten().map(|v| v.to_bits()).collect();
            logits.push(bits);
        }
        if logits[0] != logits[1] {
            problems.push(format!(
                "{}: logits differ between 1 and {nproc} workers",
                arch.key()
            ));
        }
    }
    problems
}
