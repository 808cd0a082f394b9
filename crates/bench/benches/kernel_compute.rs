//! Compute-kernel benchmarks: compiled vs interpreted mesh propagation,
//! the GEMM variants, and persistent-executor launch overhead.
//!
//! Beyond the Criterion groups, the headline numbers are hand-timed and
//! written to `BENCH_kernels.json` at the workspace root as a baseline
//! other sessions can diff against:
//!
//! * `mesh16_*` — per-sample propagation through a 16-mode Clements mesh,
//!   interpreted ([`MziMesh::propagate_in_place`]) vs compiled
//!   ([`CompiledMesh`], per-sample and batched). The compiled path is
//!   expected to be ≥ 3× faster (it replays precomputed coefficients
//!   instead of re-deriving six transcendentals per MZI per sample).
//! * `gemm_*` — the dense-layer product in its transpose-free layouts
//!   (`matmul_nt` / `matmul_tn`) vs materialising the transpose.
//! * `executor_*` — mean [`pool::run_scoped`] launch cost for a
//!   fine-grained task list on the persistent executor (first call pays
//!   the lazy worker spawn; steady-state calls reuse the parked workers).
//! * `train_step_transpose2_materialisations` — transposed weight copies
//!   per train epoch (expected **0** since the trainer runs on the
//!   transpose-free kernels).
//! * `staged_walk_sequential_us_per_sample` — one-worker engine time per
//!   sample of a training-scale (halved) LeNet-5 body, seven deployed
//!   stages, over 256 16×16 views: the conv lowering's im2col gathers and
//!   the stage transfers end to end.
//!
//! Printed only (not persisted): per-stage attribution of the serving
//! tier — for every LeNet and FCNN mesh shape at its im2col positions,
//! ns/sample of the MZI walk ([`CompiledLayer::forward_batch`] over
//! gathered rows, the golden reference) vs what the deployed stage
//! serves: [`TransferLayer::forward_batch`] for dense stages, and for
//! conv stages [`TransferLayer::conv_into`] on source samples through an
//! index table built from `im2col_indices` — gather, product and
//! channel-major write together.

use criterion::{criterion_group, criterion_main, Criterion};
use oplix_linalg::CMatrix;
use oplix_linalg::Complex64;
use oplix_nn::ctensor::CTensor;
use oplix_nn::functional::im2col_indices;
use oplix_nn::head::MergeHead;
use oplix_nn::layers::{CDense, CRelu, CSequential};
use oplix_nn::network::Network;
use oplix_nn::optim::Sgd;
use oplix_nn::tensor::{transpose2_materialisations, Tensor};
use oplix_nn::trainer::{train_epoch, CDataset};
use oplix_photonics::clements::decompose_clements;
use oplix_photonics::compiled::{CompiledLayer, CompiledMesh, GatherSource};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::mesh::MziMesh;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use oplix_photonics::transfer::{GatherTable, TransferLayer};
use oplixnet::engine::InferenceEngine;
use oplixnet::pool;
use oplixnet::zoo::{build_lenet, LenetConfig, ModelVariant};
use oplixnet::DeployedDetection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const MESH_MODES: usize = 16;

fn mesh16() -> MziMesh {
    let mut rng = StdRng::seed_from_u64(21);
    decompose_clements(&CMatrix::random_unitary(MESH_MODES, &mut rng))
}

fn fields(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Mean seconds per call of `f`, after one warm-up call.
fn timed<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_mesh_propagation(c: &mut Criterion) {
    let mesh = mesh16();
    let compiled = CompiledMesh::compile(&mesh);
    let base = fields(MESH_MODES, 3);
    let mut group = c.benchmark_group("mesh_propagation_16");
    group.sample_size(10);
    group.bench_function("interpreted", |b| {
        let mut io = base.clone();
        b.iter(|| {
            io.copy_from_slice(&base);
            mesh.propagate_in_place(&mut io);
        })
    });
    group.bench_function("compiled", |b| {
        let mut io = base.clone();
        b.iter(|| {
            io.copy_from_slice(&base);
            compiled.propagate_in_place(&mut io);
        })
    });
    group.finish();
}

fn bench_gemm_variants(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::random_uniform(&[64, 256], 1.0, &mut rng);
    let w = Tensor::random_uniform(&[128, 256], 1.0, &mut rng);
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    group.bench_function("transpose_then_matmul", |b| {
        b.iter(|| x.matmul(&w.transpose2()))
    });
    group.bench_function("matmul_nt", |b| b.iter(|| x.matmul_nt(&w)));
    group.bench_function("matmul_tn", |b| {
        // dW-shaped product: [64,128]ᵀ·[64,256].
        let dy = Tensor::random_uniform(&[64, 128], 1.0, &mut StdRng::seed_from_u64(6));
        b.iter(|| dy.matmul_tn(&x))
    });
    group.finish();
}

/// Headline numbers, hand-timed, printed, and persisted as the
/// `BENCH_kernels.json` baseline.
fn report_kernel_baseline(_c: &mut Criterion) {
    // --- Mesh propagation: interpreted vs compiled, 16 modes. ---
    let mesh = mesh16();
    let compiled = CompiledMesh::compile(&mesh);
    let window = 256usize;
    let base = fields(MESH_MODES * window, 7);
    let mut buf = base.clone();
    let reps = 200;
    let interp = timed(reps, || {
        buf.copy_from_slice(&base);
        for row in buf.chunks_exact_mut(MESH_MODES) {
            mesh.propagate_in_place(row);
        }
    }) / window as f64;
    let comp = timed(reps, || {
        buf.copy_from_slice(&base);
        for row in buf.chunks_exact_mut(MESH_MODES) {
            compiled.propagate_in_place(row);
        }
    }) / window as f64;
    let batch = timed(reps, || {
        buf.copy_from_slice(&base);
        compiled.propagate_batch(&mut buf, window);
    }) / window as f64;
    let mesh_speedup = interp / comp;
    println!(
        "mesh16 propagation: interpreted {:.0} ns/sample, compiled {:.0} ns/sample \
         ({mesh_speedup:.2}x), compiled batch {:.0} ns/sample",
        interp * 1e9,
        comp * 1e9,
        batch * 1e9,
    );

    // --- GEMM: transpose-free vs transpose-then-multiply. ---
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::random_uniform(&[64, 256], 1.0, &mut rng);
    let w = Tensor::random_uniform(&[128, 256], 1.0, &mut rng);
    let dy = Tensor::random_uniform(&[64, 128], 1.0, &mut rng);
    let gemm_reps = 50;
    let t_transpose = timed(gemm_reps, || {
        criterion::black_box(x.matmul(&w.transpose2()));
    });
    let t_nt = timed(gemm_reps, || {
        criterion::black_box(x.matmul_nt(&w));
    });
    let t_tn = timed(gemm_reps, || {
        criterion::black_box(dy.matmul_tn(&x));
    });
    println!(
        "gemm 64x256·(128x256)ᵀ: transpose+matmul {:.3} ms, matmul_nt {:.3} ms \
         ({:.2}x), matmul_tn {:.3} ms",
        t_transpose * 1e3,
        t_nt * 1e3,
        t_transpose / t_nt,
        t_tn * 1e3,
    );

    // --- Per-stage attribution: MZI walk vs the served stage. ---
    report_stage_attribution();

    // --- Staged walk: halved LeNet-5 (seven chips), one worker. ---
    const WALK_SAMPLES: usize = 256;
    let mut rng = StdRng::seed_from_u64(23);
    let view = CTensor::new(
        Tensor::random_uniform(&[WALK_SAMPLES, 1, 16, 16], 1.0, &mut rng),
        Tensor::random_uniform(&[WALK_SAMPLES, 1, 16, 16], 1.0, &mut rng),
    );
    let mut rng = StdRng::seed_from_u64(17);
    let cfg = LenetConfig::training_scale(2, 16, 10).halved();
    let net = build_lenet(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
    let mut lenet = InferenceEngine::from_network_shaped(
        &net,
        Some((cfg.in_ch, cfg.input_h, cfg.input_w)),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("LeNet deploys");
    let staged_us = timed(3, || {
        lenet.predict_batch(&view).expect("staged walk");
    }) * 1e6
        / WALK_SAMPLES as f64;
    println!(
        "staged walk over {} chips, {WALK_SAMPLES} samples: {staged_us:.1} us/sample",
        lenet.deployed().num_stages(),
    );

    // --- Executor launch overhead: fine-grained task lists. ---
    pool::set_jobs(4);
    let tasks = 64usize;
    let launch = |_: ()| {
        let _ = pool::parallel_map((0..tasks as u64).collect(), |x| x.wrapping_mul(2654435761));
    };
    launch(()); // first call spawns the persistent workers
    let exec = timed(200, || launch(()));
    println!(
        "executor: {tasks}-task run_scoped in {:.1} µs steady-state \
         ({} persistent workers alive)",
        exec * 1e6,
        pool::workers_alive(),
    );

    // --- Train-step transpose materialisations (expected 0). ---
    let mut rng = StdRng::seed_from_u64(13);
    // MergeHead halves the body output (differential pairing): 8 optical
    // outputs detect 4 classes.
    let body = CSequential::new()
        .push(CDense::new(16, 32, &mut rng))
        .push(CRelu::new())
        .push(CDense::new(32, 8, &mut rng));
    let mut net = Network::new(body, Box::new(MergeHead::new()));
    let data = CDataset::new(
        CTensor::new(
            Tensor::random_uniform(&[64, 16], 1.0, &mut rng),
            Tensor::random_uniform(&[64, 16], 1.0, &mut rng),
        ),
        (0..64).map(|i| i % 4).collect(),
    );
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    let _ = train_epoch(&mut net, &data, 16, &mut opt, &mut rng); // warm-up
    let before = transpose2_materialisations();
    let _ = train_epoch(&mut net, &data, 16, &mut opt, &mut rng);
    let train_transposes = transpose2_materialisations() - before;
    println!("train step: {train_transposes} transpose2 materialisations (want 0)");

    // --- Persist the baseline. ---
    let meta = oplix_bench::baseline::BenchMeta::current();
    let json = format!(
        "{{\n{meta_fields}  \"mesh16_interpreted_ns_per_sample\": {:.1},\n  \
         \"mesh16_compiled_ns_per_sample\": {:.1},\n  \
         \"mesh16_compiled_batch_ns_per_sample\": {:.1},\n  \
         \"mesh16_compiled_speedup\": {:.2},\n  \
         \"gemm_transpose_then_matmul_ms\": {:.4},\n  \
         \"gemm_matmul_nt_ms\": {:.4},\n  \
         \"gemm_matmul_tn_ms\": {:.4},\n  \
         \"executor_launch_us_64_tasks\": {:.2},\n  \
         \"executor_workers_alive\": {},\n  \
         \"train_step_transpose2_materialisations\": {},\n  \
         \"staged_walk_sequential_us_per_sample\": {:.3}\n}}\n",
        interp * 1e9,
        comp * 1e9,
        batch * 1e9,
        mesh_speedup,
        t_transpose * 1e3,
        t_nt * 1e3,
        t_tn * 1e3,
        exec * 1e6,
        pool::workers_alive(),
        train_transposes,
        staged_us,
        meta_fields = meta.json_fields(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

/// `(outputs, inputs, im2col positions, conv input (C, H, W))` of every
/// optical stage the halved LeNet-5 (16×16 inputs) and the paper FCNN
/// deploy; the LeNet convs are 5×5, stride 1, padding 2.
type StageShape = (
    &'static str,
    usize,
    usize,
    usize,
    Option<(usize, usize, usize)>,
);

const STAGE_SHAPES: [StageShape; 7] = [
    ("lenet conv1", 3, 26, 256, Some((1, 16, 16))),
    ("lenet conv2", 6, 76, 64, Some((3, 8, 8))),
    ("lenet fc1", 24, 97, 1, None),
    ("lenet fc2", 16, 25, 1, None),
    ("lenet fc3", 20, 17, 1, None),
    ("fcnn fc1", 32, 65, 1, None),
    ("fcnn fc2", 20, 33, 1, None),
];

/// The deployed conv stage's index table: 5×5 patches at stride 1 and
/// padding 2 (padding taps dark), the bias tap on the reference slot.
fn conv_table((c, h, w): (usize, usize, usize), fan_in: usize) -> GatherTable {
    let (indices, _) = im2col_indices(c, h, w, 5, 1, 2);
    let mut plan = Vec::new();
    for taps in indices.chunks_exact(fan_in - 1) {
        plan.extend(taps.iter().map(|&ix| {
            if ix >= 0 {
                GatherSource::Input(ix as u32)
            } else {
                GatherSource::Dark
            }
        }));
        plan.push(GatherSource::Reference);
    }
    GatherTable::new(&plan, c * h * w, fan_in)
}

/// Prints, per deployed stage shape, ns/sample of the MZI walk and of
/// what the deployed stage serves, over one 64-sample serving window.
fn report_stage_attribution() {
    const WINDOW: usize = 64;
    println!("stage attribution (64-sample windows, ns/sample):");
    println!("  stage          shape   positions        mesh      served   speedup");
    let (mut mesh_total, mut transfer_total) = (0.0, 0.0);
    for (i, &(name, m, n, positions, conv)) in STAGE_SHAPES.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(40 + i as u64);
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5))
        });
        let layer = PhotonicLayer::from_matrix(&w, MeshStyle::Clements);
        let compiled = CompiledLayer::compile(&layer);
        let transfer = TransferLayer::from_compiled(&compiled);
        let rows = WINDOW * positions;
        let input = fields(rows * n, 50 + i as u64);
        let (mut io, mut tmp) = (Vec::new(), Vec::new());
        let reps = (400_000 / (rows * n)).clamp(3, 200);
        let mesh = timed(reps, || {
            io.clear();
            io.extend_from_slice(&input);
            compiled.forward_batch(&mut io, &mut tmp, rows);
        }) * 1e9
            / WINDOW as f64;
        let fast = match conv {
            Some(geometry) => {
                let table = conv_table(geometry, n);
                assert_eq!(table.positions(), positions, "{name}: im2col geometry");
                let src = fields(WINDOW * table.src_width(), 60 + i as u64);
                let mut out = vec![Complex64::ZERO; rows * m];
                timed(reps, || transfer.conv_into(&table, &src, &mut out))
            }
            None => timed(reps, || {
                io.clear();
                io.extend_from_slice(&input);
                transfer.forward_batch(&mut io, &mut tmp, rows);
            }),
        } * 1e9
            / WINDOW as f64;
        mesh_total += mesh;
        transfer_total += fast;
        println!(
            "  {name:<12} {:>7} {positions:>11} {mesh:>11.0} {fast:>11.0} {:>8.1}x",
            format!("{m}x{n}"),
            mesh / fast,
        );
    }
    println!(
        "  {:<32} {mesh_total:>11.0} {transfer_total:>11.0} {:>8.1}x",
        "total",
        mesh_total / transfer_total,
    );
}

criterion_group!(
    benches,
    bench_mesh_propagation,
    bench_gemm_variants,
    report_kernel_baseline
);
criterion_main!(benches);
