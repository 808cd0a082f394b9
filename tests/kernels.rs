//! Integration tests for the compute-kernel layer: compiled mesh/layer
//! kernels pinned bitwise against the interpreted walk on realistic
//! (decomposition-produced) meshes, the transfer serving tier pinned
//! against that walk within its relative bound and bitwise across window
//! splits, its one-pass conv entry point pinned bitwise against gather →
//! batch → channel-major transpose, the transpose-free GEMM layouts pinned bitwise against
//! transpose-then-multiply, and the persistent executor serving the
//! sharded engine across worker counts.

use oplix_linalg::lanes::{F64x4, F64x8};
use oplix_linalg::{CMatrix, Complex64};
use oplix_nn::ctensor::CTensor;
use oplix_nn::tensor::Tensor;
use oplix_photonics::clements::decompose_clements;
use oplix_photonics::compiled::{
    gather_into, CompiledLayer, CompiledMesh, GatherSource, MODE_MAJOR_MIN_SAMPLES,
};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::reck::decompose_reck;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use oplix_photonics::transfer::{GatherTable, TransferLayer};
use oplixnet::engine::InferenceEngine;
use oplixnet::pool;
use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
use oplixnet::DeployedDetection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The window range sampled by `propagate_batch_is_bitwise_per_sample_across_windows`
// must straddle the scalar/planar switch so both paths are covered.
const _: () = assert!(MODE_MAJOR_MIN_SAMPLES < 40);

fn random_fields(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

#[test]
fn compiled_kernels_are_bitwise_on_decomposed_unitaries() {
    // Meshes that come out of the real decomposition algorithms (not just
    // random MZI lists): full Clements rectangles and Reck triangles.
    let mut rng = StdRng::seed_from_u64(1);
    for n in [1usize, 2, 5, 16] {
        let u = CMatrix::random_unitary(n, &mut rng);
        for mesh in [decompose_clements(&u), decompose_reck(&u)] {
            let compiled = CompiledMesh::compile(&mesh);
            assert_eq!(compiled.mzi_count(), mesh.mzi_count());
            assert_eq!(compiled.stage_count(), mesh.depth());
            for seed in 0..4u64 {
                let mut fast = random_fields(n, 100 * n as u64 + seed);
                let mut reference = fast.clone();
                compiled.propagate_in_place(&mut fast);
                mesh.propagate_in_place(&mut reference);
                assert_eq!(fast, reference, "n={n} seed={seed}");
            }
        }
    }
}

#[test]
fn compiled_svd_layers_are_bitwise_across_styles() {
    let mut rng = StdRng::seed_from_u64(2);
    for &(m, n) in &[(1usize, 1usize), (3, 7), (7, 3), (16, 16)] {
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        for style in [MeshStyle::Clements, MeshStyle::Reck] {
            let layer = PhotonicLayer::from_matrix(&w, style);
            let compiled = CompiledLayer::compile(&layer);
            let mut io = random_fields(n, (m * 31 + n) as u64);
            let mut reference = io.clone();
            let (mut tmp_a, mut tmp_b) = (Vec::new(), Vec::new());
            compiled.forward_into(&mut io, &mut tmp_a);
            layer.forward_into(&mut reference, &mut tmp_b);
            assert_eq!(io, reference, "{m}x{n} {style:?}");
        }
    }
}

fn random_weights(m: usize, n: usize, seed: u64) -> CMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CMatrix::from_fn(m, n, |_, _| {
        Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

fn norm(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// A gather plan of `positions × fan_in` slots over `width`-field
/// samples, mixing input taps with dark (padding) and reference (bias)
/// slots.
fn random_plan(positions: usize, fan_in: usize, width: usize, seed: u64) -> Vec<GatherSource> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..positions * fan_in)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => GatherSource::Dark,
            1 => GatherSource::Reference,
            _ => GatherSource::Input(rng.gen_range(0..width as u32)),
        })
        .collect()
}

/// The conv reference: every row gathered by hand (`gather_into`), the
/// whole window served through `forward_batch`, and each sample's
/// position-major `[P][O]` rows transposed channel-major `[O][P]`.
fn gather_batch_transpose(
    transfer: &TransferLayer,
    plan: &[GatherSource],
    src: &[Complex64],
    width: usize,
) -> Vec<Complex64> {
    let (m, n) = (transfer.output_dim(), transfer.input_dim());
    let positions = plan.len() / n;
    let samples = src.len() / width;
    let mut rows = vec![Complex64::ZERO; samples * plan.len()];
    for (sample, dst) in src
        .chunks_exact(width)
        .zip(rows.chunks_exact_mut(plan.len()))
    {
        gather_into(plan, sample, dst);
    }
    transfer.forward_batch(&mut rows, &mut Vec::new(), samples * positions);
    let mut out = vec![Complex64::ZERO; rows.len()];
    for s in 0..samples {
        for p in 0..positions {
            for o in 0..m {
                out[(s * m + o) * positions + p] = rows[(s * positions + p) * m + o];
            }
        }
    }
    out
}

/// Naive strictly-ascending-`k` f32 matmul: the scalar twin the lane
/// micro-kernel in `oplix_linalg::gemm` must reproduce bit for bit.
fn naive_matmul_f32(x: &Tensor, w: &Tensor) -> Tensor {
    let (m, k) = (x.shape()[0], x.shape()[1]);
    let n = w.shape()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for t in 0..k {
            let a = x.as_slice()[i * k + t];
            for j in 0..n {
                out.as_mut_slice()[i * n + j] += a * w.as_slice()[t * n + j];
            }
        }
    }
    out
}

/// Naive strictly-ascending-`k` complex matmul, same role as
/// [`naive_matmul_f32`] for the planar `Complex64` lane kernel.
fn naive_matmul_c64(x: &CMatrix, w: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(x.rows(), w.cols());
    for i in 0..x.rows() {
        for t in 0..x.cols() {
            let a = x[(i, t)];
            for j in 0..w.cols() {
                out[(i, j)] += a * w[(t, j)];
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transpose-free layouts are bitwise transpose-then-multiply
    /// across random shapes, including empty and 1×N edge cases.
    #[test]
    fn gemm_nt_tn_are_bitwise_transpose_free(
        m in 0usize..10,
        k in 0usize..80,
        n in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&[m, k], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[n, k], 1.0, &mut rng);
        prop_assert_eq!(x.matmul_nt(&w), x.matmul(&w.transpose2()));
        let dy = Tensor::random_uniform(&[k, m], 1.0, &mut rng);
        let b = Tensor::random_uniform(&[k, n], 1.0, &mut rng);
        prop_assert_eq!(dy.matmul_tn(&b), dy.transpose2().matmul(&b));
    }

    /// The lane micro-kernel behind every GEMM is bitwise the naive
    /// strictly-ascending-`k` scalar loop, across shapes chosen to
    /// straddle the lane widths (4/8/16) in the `j` dimension —
    /// remainder-tail-only rows, exactly-one-lane rows, lane-plus-tail
    /// rows — and single-row products.
    #[test]
    fn gemm_lane_kernel_is_bitwise_naive_scalar(
        mi in 0usize..3,
        ki in 0usize..4,
        ni in 0usize..11,
        seed in 0u64..u64::MAX,
    ) {
        let m = [1usize, 2, 5][mi];
        let k = [1usize, 3, 8, 17][ki];
        let n = [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&[m, k], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[k, n], 1.0, &mut rng);
        prop_assert_eq!(x.matmul(&w), naive_matmul_f32(&x, &w));
        let cx = CMatrix::from_fn(m, k, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let cw = CMatrix::from_fn(k, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        prop_assert_eq!(cx.matmul(&cw), naive_matmul_c64(&cx, &cw));
    }

    /// The planar lane sweep behind `propagate_batch` is bitwise the
    /// per-sample compiled walk (itself pinned to the interpreted mesh)
    /// for every window size straddling `MODE_MAJOR_MIN_SAMPLES` and the
    /// lane widths: below the threshold (scalar chunk path), exactly at
    /// it, lane-multiple windows, and windows with remainder tails.
    #[test]
    fn propagate_batch_is_bitwise_per_sample_across_windows(
        ni in 0usize..4,
        samples in 0usize..=40,
        seed in 0u64..u64::MAX,
    ) {
        let n = [1usize, 2, 5, 16][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh = decompose_clements(&CMatrix::random_unitary(n, &mut rng));
        let compiled = CompiledMesh::compile(&mesh);
        let mut batch = random_fields(n * samples, seed ^ 0x5eed);
        let mut reference = batch.clone();
        compiled.propagate_batch(&mut batch, samples);
        for row in reference.chunks_exact_mut(n) {
            compiled.propagate_in_place(row);
        }
        prop_assert_eq!(batch, reference, "n={} samples={}", n, samples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The transfer tier's tolerance contract against the golden MZI
    /// walk: per row, `‖Δy‖₂ ≤ 1e-12·max(‖y‖₂, ‖x‖₂)` over tall, wide and
    /// square maps up to the widest deployed stage, for both mesh styles.
    #[test]
    fn transfer_matches_mesh_walk_within_relative_bound(
        m in 1usize..=32,
        n in 1usize..=100,
        samples in 1usize..=12,
        reck in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let style = if reck == 0 { MeshStyle::Clements } else { MeshStyle::Reck };
        let layer = PhotonicLayer::from_matrix(&random_weights(m, n, seed), style);
        let compiled = CompiledLayer::compile(&layer);
        let transfer = TransferLayer::from_compiled(&compiled);
        prop_assert_eq!((transfer.output_dim(), transfer.input_dim()), (m, n));
        let x = random_fields(samples * n, seed ^ 0x7e57);
        let (mut walk, mut fast) = (x.clone(), x.clone());
        let mut tmp = Vec::new();
        compiled.forward_batch(&mut walk, &mut tmp, samples);
        transfer.forward_batch(&mut fast, &mut tmp, samples);
        for s in 0..samples {
            let y = &walk[s * m..(s + 1) * m];
            let diff: Vec<Complex64> = y
                .iter()
                .zip(&fast[s * m..(s + 1) * m])
                .map(|(a, b)| *a - *b)
                .collect();
            let bound = 1e-12 * norm(y).max(norm(&x[s * n..(s + 1) * n]));
            prop_assert!(
                norm(&diff) <= bound,
                "{}x{} {:?} row {}: |dy| {:e} > {:e}",
                m, n, style, s, norm(&diff), bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A row's transfer output does not depend on the window it is served
    /// in: the whole window, the window split at any point, and every row
    /// on its own agree bitwise — across output widths on both sides of
    /// the lane-orientation switch and windows straddling every lane and
    /// block width.
    #[test]
    fn transfer_rows_are_bitwise_across_window_splits(
        m in 1usize..=24,
        n in 1usize..=40,
        samples in 0usize..=40,
        split in 0usize..=40,
        seed in 0u64..u64::MAX,
    ) {
        let split = split.min(samples);
        let layer = PhotonicLayer::from_matrix(&random_weights(m, n, seed), MeshStyle::Clements);
        let transfer = TransferLayer::compile(&layer);
        let x = random_fields(samples * n, seed ^ 0x5b1);
        let mut tmp = Vec::new();
        let mut whole = x.clone();
        transfer.forward_batch(&mut whole, &mut tmp, samples);
        let mut parts = Vec::new();
        for (lo, hi) in [(0, split), (split, samples)] {
            let mut part = x[lo * n..hi * n].to_vec();
            transfer.forward_batch(&mut part, &mut tmp, hi - lo);
            parts.extend(part);
        }
        prop_assert_eq!(bits(&parts), bits(&whole));
        let mut rows = Vec::new();
        for row in x.chunks_exact(n) {
            let mut one = row.to_vec();
            transfer.forward_batch(&mut one, &mut tmp, 1);
            rows.extend(one);
        }
        prop_assert_eq!(bits(&rows), bits(&whole));
    }

    /// The one-pass im2col entry point is bitwise gathering every row by
    /// hand, serving the window through `forward_batch` and transposing
    /// each sample channel-major, with plans mixing input taps, dark
    /// (padding) and reference (bias) modes over position counts
    /// straddling every lane width.
    #[test]
    fn transfer_conv_into_is_bitwise_gather_then_batch(
        m in 1usize..=12,
        n in 1usize..=20,
        positions in 1usize..=70,
        samples in 0usize..=5,
        seed in 0u64..u64::MAX,
    ) {
        let width = 9usize;
        let plan = random_plan(positions, n, width, seed);
        let layer = PhotonicLayer::from_matrix(&random_weights(m, n, seed ^ 1), MeshStyle::Clements);
        let transfer = TransferLayer::compile(&layer);
        let src = random_fields(samples * width, seed ^ 2);
        let mut io = vec![Complex64::ZERO; samples * positions * m];
        transfer.conv_into(&GatherTable::new(&plan, width, n), &src, &mut io);
        let want = gather_batch_transpose(&transfer, &plan, &src, width);
        prop_assert_eq!(bits(&io), bits(&want));
    }

    /// Every body of the conv kernel — the portable one at 4 and at 8
    /// lanes and the dispatched tier — is bitwise the gather → batch →
    /// transpose reference, for output widths on both sides of the
    /// lane-orientation switch (`m < 8` gathers into the row-lane block,
    /// `m ≥ 8` reads through the table per field) and position counts off
    /// the 4- and 8-lane grid.
    #[test]
    fn conv_kernel_bodies_are_bitwise_gather_batch_transpose(
        m in 1usize..=20,
        n in 1usize..=100,
        positions in 1usize..=40,
        samples in 1usize..=3,
        width in 1usize..=30,
        seed in 0u64..u64::MAX,
    ) {
        let plan = random_plan(positions, n, width, seed);
        let table = GatherTable::new(&plan, width, n);
        prop_assert_eq!(table.plan(), plan.clone());
        let layer = PhotonicLayer::from_matrix(&random_weights(m, n, seed ^ 1), MeshStyle::Clements);
        let transfer = TransferLayer::compile(&layer);
        let src = random_fields(samples * width, seed ^ 2);
        let want = bits(&gather_batch_transpose(&transfer, &plan, &src, width));
        let mut got = vec![Complex64::ZERO; samples * positions * m];
        transfer.conv_into_lanes::<F64x4>(&table, &src, &mut got);
        prop_assert_eq!(bits(&got), want.clone(), "portable x4");
        transfer.conv_into_lanes::<F64x8>(&table, &src, &mut got);
        prop_assert_eq!(bits(&got), want.clone(), "portable x8");
        transfer.conv_into(&table, &src, &mut got);
        prop_assert_eq!(bits(&got), want, "dispatched tier");
    }
}

#[test]
fn sharded_engine_on_persistent_executor_is_bitwise_sequential() {
    // Force a multi-slot budget so the sharded path really runs on the
    // persistent executor's workers (not the inline fallback), then pin
    // the compiled window path bitwise across worker counts.
    pool::set_jobs(4);
    let mut rng = StdRng::seed_from_u64(5);
    let net = build_fcnn(
        &FcnnConfig {
            input: 12,
            hidden: 10,
            classes: 4,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    let make = || {
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys")
    };
    // A batch bigger than one serve window (64), so the window loop and
    // the shard split both engage.
    let batch = CTensor::new(
        Tensor::random_uniform(&[150, 12], 1.0, &mut rng),
        Tensor::random_uniform(&[150, 12], 1.0, &mut rng),
    );
    let want = make().predict_batch(&batch).expect("sequential");
    for workers in [2usize, 3, 7] {
        let got = make()
            .with_num_workers(workers)
            .predict_batch(&batch)
            .expect("sharded");
        assert_eq!(got, want, "{workers} workers");
    }
    assert!(
        pool::workers_alive() >= 1,
        "the sharded batches must have spun up persistent workers"
    );
}
