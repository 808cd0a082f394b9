//! The transfer-matrix serving tier: an SVD-mapped layer served as the
//! `[m, n]` linear map its *current* phases realise.
//!
//! Between detections an optical stage (`V*` mesh → Σ attenuators → `U`
//! mesh) is one linear map, yet the compiled walk
//! ([`CompiledLayer::forward_batch`]) replays every MZI of the n-mode
//! `V*` mesh per row — O(n²) butterflies — even though Σ keeps only
//! `min(m, n)` modes and the map itself needs `m·n` complex
//! multiply–adds. [`TransferLayer::from_compiled`] pushes the n-row
//! identity basis through the compiled walk in one batch and keeps the
//! result; every later row is a small planar matrix–vector product.
//!
//! **Golden reference.** The MZI walk ([`CompiledLayer`], itself bitwise
//! the interpreted [`PhotonicLayer`] walk) stays the reference this tier
//! is pinned against: outputs agree within
//! `‖Δy‖₂ ≤ 1e-12·max(‖y‖₂, ‖x‖₂)` (property-tested in
//! `tests/kernels.rs`), not bitwise — the walk and the product round in
//! different places.
//!
//! **Bitwise contract of the tier itself.** Every output element is
//! accumulated from zero in strictly ascending input mode with the exact
//! [`Complex64`] expression `o += a * t` (input field `a` on the left,
//! no FMA — see [`oplix_linalg::lanes`]). A row's result therefore does
//! not depend on the window it is served in or its offset inside it, so
//! the tier is bitwise across worker counts and entry points. The two
//! lane orientations — across outputs for dense stages, across rows for
//! narrow conv stages — run that identical per-element sequence; they are
//! a codegen choice, not a second semantics, and the unit tests below
//! pin both against the scalar loop.

use crate::compiled::{gather_into, CompiledLayer, GatherSource};
use crate::svd_map::PhotonicLayer;
use oplix_linalg::lanes::{cmul_splat_lhs, cmul_splat_rhs, F64x4, Lane};
use oplix_linalg::{CMatrix, Complex64};

/// Output count from which lanes run across a row's outputs (dense
/// stages); narrower maps (conv stages, `out_ch` of 3 or 6) run lanes
/// across rows instead, so no lane idles on a short output row.
const OUTPUT_LANES_MIN_OUTPUTS: usize = 8;

/// Rows sharing each loaded stripe of the transfer matrix in the
/// output-lane orientation: the matrix streams from cache once per block
/// instead of once per row.
const ROW_BLOCK: usize = 4;

/// Outputs accumulated per pass in the row-lane orientation — the
/// accumulators of one pass stay in registers on every dispatch tier.
const OUTPUT_BLOCK: usize = 4;

/// im2col rows [`TransferLayer::gathered_into`] expands per kernel call:
/// the gathered block stays cache-resident between the gather and the
/// product instead of the whole window's patches round-tripping through
/// memory.
const GATHER_BLOCK_ROWS: usize = 32;

std::thread_local! {
    /// Reusable planar staging buffer of the row-lane orientation (one
    /// block of rows, mode-major): after warm-up the kernel allocates
    /// nothing per window.
    static ROW_LANE_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The `[m, n]` matrix an SVD-mapped layer's current phases realise,
/// stored planar and transposed (`re[j·m + i]`, `im[j·m + i]` hold
/// entry `(i, j)`), with batched entry points shaped like
/// [`CompiledLayer`]'s.
///
/// # Example
///
/// ```
/// use oplix_linalg::{CMatrix, Complex64};
/// use oplix_photonics::compiled::CompiledLayer;
/// use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
/// use oplix_photonics::transfer::TransferLayer;
///
/// let w = CMatrix::from_fn(2, 3, |i, j| Complex64::new(i as f64 + 1.0, j as f64));
/// let compiled = CompiledLayer::compile(&PhotonicLayer::from_matrix(&w, MeshStyle::Clements));
/// let transfer = TransferLayer::from_compiled(&compiled);
///
/// let x = vec![Complex64::ONE, Complex64::i(), Complex64::new(0.5, -0.5)];
/// let (mut walk, mut fast) = (x.clone(), x);
/// let (mut tmp_a, mut tmp_b) = (Vec::new(), Vec::new());
/// compiled.forward_batch(&mut walk, &mut tmp_a, 1);
/// transfer.forward_batch(&mut fast, &mut tmp_b, 1);
/// for (a, b) in walk.iter().zip(&fast) {
///     assert!((*a - *b).abs() < 1e-12); // within rounding of the MZI walk
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TransferLayer {
    m: usize,
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl TransferLayer {
    /// Realises the map a compiled layer's current phases implement:
    /// the n-row identity basis runs through
    /// [`CompiledLayer::forward_batch`] as one batch, and row `j` of the
    /// result — the image of basis vector `e_j`, i.e. column `j` of the
    /// map — is exactly the transposed storage row `j`.
    pub fn from_compiled(layer: &CompiledLayer) -> Self {
        let (m, n) = (layer.output_dim(), layer.input_dim());
        let mut basis = vec![Complex64::ZERO; n * n];
        for j in 0..n {
            basis[j * n + j] = Complex64::ONE;
        }
        let mut tmp = Vec::new();
        layer.forward_batch(&mut basis, &mut tmp, n);
        TransferLayer {
            m,
            n,
            re: basis.iter().map(|z| z.re).collect(),
            im: basis.iter().map(|z| z.im).collect(),
        }
    }

    /// Compiles a hardware layer's meshes and realises their map
    /// ([`CompiledLayer::compile`] then [`TransferLayer::from_compiled`]).
    pub fn compile(layer: &PhotonicLayer) -> Self {
        Self::from_compiled(&CompiledLayer::compile(layer))
    }

    /// Output dimension `m`.
    #[inline]
    pub fn output_dim(&self) -> usize {
        self.m
    }

    /// Input dimension `n`.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// The realised `[m, n]` matrix.
    pub fn matrix(&self) -> CMatrix {
        CMatrix::from_fn(self.m, self.n, |i, j| {
            Complex64::new(self.re[j * self.m + i], self.im[j * self.m + i])
        })
    }

    /// Approximate resident size in bytes, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        (self.re.len() + self.im.len()) * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }

    /// Forward pass over a window of `samples` contiguous samples: `io`
    /// holds `samples × n` input fields on entry and `samples × m` output
    /// fields on exit; `tmp` is caller-owned scratch. Each row is bitwise
    /// independent of the window it runs in.
    ///
    /// # Panics
    ///
    /// Panics if `io.len() != samples * self.input_dim()`.
    pub fn forward_batch(&self, io: &mut Vec<Complex64>, tmp: &mut Vec<Complex64>, samples: usize) {
        assert_eq!(
            io.len(),
            samples * self.n,
            "batch length must be samples * layer fan-in"
        );
        tmp.clear();
        tmp.resize(samples * self.m, Complex64::ZERO);
        self.dispatch(io, tmp, samples);
        std::mem::swap(io, tmp);
    }

    /// Batched forward over *im2col windows*: every sample of `src` (a
    /// contiguous window of `src.len() / src_width` samples) expands
    /// through `plan` into `plan.len() / input_dim` gathered rows — one
    /// per convolution output position — where each plan entry reads an
    /// input field, a dark (zero-padding) mode or the always-on reference
    /// (bias) mode. On exit `io` holds
    /// `samples × rows_per_sample × output_dim` fields, row-major in
    /// `(sample, row)` order; `tmp` is caller-owned scratch. Bitwise
    /// identical to gathering every row by hand and running the window
    /// through [`TransferLayer::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `plan.len()` is not a multiple of
    /// [`TransferLayer::input_dim`], `src.len()` is not a multiple of
    /// `src_width`, or a plan entry indexes past `src_width`.
    pub fn forward_gathered(
        &self,
        src: &[Complex64],
        src_width: usize,
        plan: &[GatherSource],
        io: &mut Vec<Complex64>,
        tmp: &mut Vec<Complex64>,
    ) {
        let rows = src.len() / src_width.max(1) * (plan.len() / self.n.max(1));
        io.clear();
        io.resize(rows * self.m, Complex64::ZERO);
        self.gathered_into(src, src_width, plan, io, tmp);
    }

    /// [`TransferLayer::forward_gathered`] into a caller-sized `out`
    /// slice, so disjoint sample ranges of one window can be served
    /// concurrently. Rows are gathered 32 at a time into `scratch` and run
    /// through the kernel straight away; rows are independent, so the
    /// blocking is bitwise invisible.
    ///
    /// # Panics
    ///
    /// Panics if `plan.len()` is not a multiple of
    /// [`TransferLayer::input_dim`], `src.len()` is not a multiple of
    /// `src_width`, `out` does not hold exactly one output row per
    /// gathered row, or a plan entry indexes past `src_width`.
    pub fn gathered_into(
        &self,
        src: &[Complex64],
        src_width: usize,
        plan: &[GatherSource],
        out: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
    ) {
        let (m, n) = (self.m, self.n);
        assert!(
            n > 0 && plan.len().is_multiple_of(n),
            "gather plan length must be a multiple of the layer fan-in"
        );
        assert!(
            src_width > 0 && src.len().is_multiple_of(src_width),
            "source window length must be a multiple of the sample width"
        );
        let rows_per_sample = plan.len() / n;
        assert_eq!(
            out.len(),
            src.len() / src_width * rows_per_sample * m,
            "output length must be gathered rows * layer fan-out"
        );
        scratch.clear();
        scratch.resize(GATHER_BLOCK_ROWS.min(rows_per_sample) * n, Complex64::ZERO);
        for (sample, dst) in src
            .chunks_exact(src_width)
            .zip(out.chunks_exact_mut((rows_per_sample * m).max(1)))
        {
            for (taps, block) in plan
                .chunks(GATHER_BLOCK_ROWS * n)
                .zip(dst.chunks_mut(GATHER_BLOCK_ROWS * m.max(1)))
            {
                let x = &mut scratch[..taps.len()];
                gather_into(taps, sample, x);
                self.dispatch(x, block, taps.len() / n);
            }
        }
    }

    /// Picks the widest lane tier the CPU supports and lends the kernel
    /// this thread's row-lane staging buffer.
    fn dispatch(&self, x: &[Complex64], out: &mut [Complex64], samples: usize) {
        ROW_LANE_SCRATCH.with(|cell| {
            let mut planar = cell.borrow_mut();
            // Grow-only: a row-lane block overwrites every staged value
            // before reading it. Sized for the widest (8-lane) tier.
            if planar.len() < 2 * 8 * self.n {
                planar.resize(2 * 8 * self.n, 0.0);
            }
            #[cfg(target_arch = "x86_64")]
            {
                if oplix_linalg::lanes::avx512f_available() {
                    // SAFETY: AVX-512F was just verified at runtime; the
                    // clone is the identical portable lane body
                    // monomorphised at 8 lanes, so results are bitwise
                    // unchanged.
                    unsafe { self.kernel_avx512(x, out, samples, &mut planar) };
                    return;
                }
                if oplix_linalg::lanes::avx2_available() {
                    // SAFETY: AVX2 was just verified at runtime; the clone
                    // is the identical portable lane body at 4 lanes.
                    unsafe { self.kernel_avx2(x, out, samples, &mut planar) };
                    return;
                }
            }
            self.kernel::<F64x4>(x, out, samples, &mut planar);
        });
    }

    // SAFETY: `#[target_feature]` makes this fn unsafe to *call*; the
    // only caller gates on `avx512f_available()`. The body is the same
    // portable `kernel`, monomorphised at 8 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn kernel_avx512(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        samples: usize,
        planar: &mut [f64],
    ) {
        self.kernel::<oplix_linalg::lanes::F64x8>(x, out, samples, planar);
    }

    // SAFETY: `#[target_feature]` makes this fn unsafe to *call*; the
    // only caller gates on `avx2_available()`. The body is the same
    // portable `kernel`, monomorphised at 4 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn kernel_avx2(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        samples: usize,
        planar: &mut [f64],
    ) {
        self.kernel::<F64x4>(x, out, samples, planar);
    }

    /// The portable kernel body: the orientation is chosen by output
    /// width only, and both are bitwise [`TransferLayer::scalar_rows`].
    #[inline(always)]
    fn kernel<V: Lane<f64>>(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        samples: usize,
        planar: &mut [f64],
    ) {
        if self.m >= OUTPUT_LANES_MIN_OUTPUTS {
            self.output_lanes::<V>(x, out, samples);
        } else {
            self.row_lanes::<V>(x, out, samples, planar);
        }
    }

    /// The reference semantics of one output element: `o += a * t` from
    /// zero, in ascending input mode, over one row's fields `xs`.
    #[inline(always)]
    fn dot(&self, xs: &[Complex64], i: usize) -> Complex64 {
        let mut o = Complex64::ZERO;
        for (j, &a) in xs.iter().enumerate() {
            o += a * Complex64::new(self.re[j * self.m + i], self.im[j * self.m + i]);
        }
        o
    }

    /// Rows `rows` of `x` into `out`, one [`TransferLayer::dot`] per
    /// output element.
    fn scalar_rows(&self, x: &[Complex64], out: &mut [Complex64], rows: std::ops::Range<usize>) {
        let (m, n) = (self.m, self.n);
        for s in rows {
            for i in 0..m {
                out[s * m + i] = self.dot(&x[s * n..(s + 1) * n], i);
            }
        }
    }

    /// Lanes across each row's outputs (dense stages): blocks of
    /// [`ROW_BLOCK`] rows share every loaded stripe of the matrix.
    #[inline(always)]
    fn output_lanes<V: Lane<f64>>(&self, x: &[Complex64], out: &mut [Complex64], samples: usize) {
        let mut s = 0;
        while s + ROW_BLOCK <= samples {
            self.output_block::<V, ROW_BLOCK>(x, out, s);
            s += ROW_BLOCK;
        }
        while s < samples {
            self.output_block::<V, 1>(x, out, s);
            s += 1;
        }
    }

    /// Rows `s0..s0 + R`, every output: full `V` stripes, then a
    /// four-wide stripe, then scalar outputs for the remainder.
    #[inline(always)]
    fn output_block<V: Lane<f64>, const R: usize>(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        s0: usize,
    ) {
        let m = self.m;
        let mut c = 0;
        while c + V::LANES <= m {
            self.output_stripe::<V, R>(x, out, s0, c);
            c += V::LANES;
        }
        if c + F64x4::LANES <= m {
            self.output_stripe::<F64x4, R>(x, out, s0, c);
            c += F64x4::LANES;
        }
        for i in c..m {
            for s in s0..s0 + R {
                out[s * m + i] = self.dot(&x[s * self.n..(s + 1) * self.n], i);
            }
        }
    }

    /// Outputs `c..c + W::LANES` of rows `s0..s0 + R`: per input mode,
    /// one stripe load and `R` splatted-field products
    /// ([`cmul_splat_lhs`] — the field is the left operand, as in
    /// `a * t`), each added into its row's accumulator.
    #[inline(always)]
    fn output_stripe<W: Lane<f64>, const R: usize>(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        s0: usize,
        c: usize,
    ) {
        let (m, n) = (self.m, self.n);
        let mut acc_re = [W::splat(0.0); R];
        let mut acc_im = [W::splat(0.0); R];
        for j in 0..n {
            let tr = W::load(&self.re[j * m + c..]);
            let ti = W::load(&self.im[j * m + c..]);
            for r in 0..R {
                let a = x[(s0 + r) * n + j];
                let (pr, pi) = cmul_splat_lhs(a.re, a.im, tr, ti);
                acc_re[r] = acc_re[r] + pr;
                acc_im[r] = acc_im[r] + pi;
            }
        }
        for r in 0..R {
            let dst = &mut out[(s0 + r) * m + c..][..W::LANES];
            for (l, o) in dst.iter_mut().enumerate() {
                *o = Complex64::new(acc_re[r].get(l), acc_im[r].get(l));
            }
        }
    }

    /// Lanes across `V::LANES` rows at a time (narrow conv stages): each
    /// block of rows is staged planar and mode-major in `planar` (`2·n`
    /// rows of `V::LANES` doubles) so every input mode is two contiguous
    /// lane loads, then served in passes of up to [`OUTPUT_BLOCK`]
    /// outputs; the remainder rows run the scalar loop.
    #[inline(always)]
    fn row_lanes<V: Lane<f64>>(
        &self,
        x: &[Complex64],
        out: &mut [Complex64],
        samples: usize,
        planar: &mut [f64],
    ) {
        let (m, n) = (self.m, self.n);
        let (xr, xi) = planar[..2 * n * V::LANES].split_at_mut(n * V::LANES);
        let full = samples - samples % V::LANES;
        let mut s = 0;
        while s < full {
            for (l, row) in x[s * n..(s + V::LANES) * n].chunks_exact(n).enumerate() {
                for (j, z) in row.iter().enumerate() {
                    xr[j * V::LANES + l] = z.re;
                    xi[j * V::LANES + l] = z.im;
                }
            }
            let mut i = 0;
            while i < m {
                match m - i {
                    1 => self.row_stripe::<V, 1>(xr, xi, out, s, i),
                    2 => self.row_stripe::<V, 2>(xr, xi, out, s, i),
                    3 => self.row_stripe::<V, 3>(xr, xi, out, s, i),
                    _ => self.row_stripe::<V, OUTPUT_BLOCK>(xr, xi, out, s, i),
                }
                i += OUTPUT_BLOCK.min(m - i);
            }
            s += V::LANES;
        }
        self.scalar_rows(x, out, full..samples);
    }

    /// Outputs `i0..i0 + K` of the staged rows `s0..s0 + V::LANES`: per
    /// input mode, two lane loads of the rows' fields and `K`
    /// splatted-entry products ([`cmul_splat_rhs`] — the field stays the
    /// left operand).
    #[inline(always)]
    fn row_stripe<V: Lane<f64>, const K: usize>(
        &self,
        xr: &[f64],
        xi: &[f64],
        out: &mut [Complex64],
        s0: usize,
        i0: usize,
    ) {
        let (m, n) = (self.m, self.n);
        let mut acc_re = [V::splat(0.0); K];
        let mut acc_im = [V::splat(0.0); K];
        for j in 0..n {
            let vr = V::load(&xr[j * V::LANES..]);
            let vi = V::load(&xi[j * V::LANES..]);
            let t = j * m + i0;
            for k in 0..K {
                let (pr, pi) = cmul_splat_rhs(vr, vi, self.re[t + k], self.im[t + k]);
                acc_re[k] = acc_re[k] + pr;
                acc_im[k] = acc_im[k] + pi;
            }
        }
        for l in 0..V::LANES {
            let dst = &mut out[(s0 + l) * m + i0..][..K];
            for (k, o) in dst.iter_mut().enumerate() {
                *o = Complex64::new(acc_re[k].get(l), acc_im[k].get(l));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd_map::MeshStyle;
    use oplix_linalg::lanes::F64x8;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_layer(m: usize, n: usize, seed: u64) -> TransferLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        TransferLayer::compile(&PhotonicLayer::from_matrix(&w, MeshStyle::Clements))
    }

    fn random_fields(len: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn storage_is_the_transposed_realised_matrix() {
        let t = random_layer(3, 5, 1);
        let a = t.matrix();
        assert_eq!((a.rows(), a.cols()), (3, 5));
        // Column j of the map is the image of e_j.
        for j in 0..5 {
            let mut e = vec![Complex64::ZERO; 5];
            e[j] = Complex64::ONE;
            let mut tmp = Vec::new();
            t.forward_batch(&mut e, &mut tmp, 1);
            for i in 0..3 {
                assert_eq!(e[i], a[(i, j)]);
            }
        }
    }

    #[test]
    fn forward_gathered_matches_manual_gather_bitwise() {
        // A 3-mode layer fed two gathered rows per 4-wide source sample:
        // the im2col entry point must be bitwise the hand-gathered
        // per-row walk, including dark (padding) and reference (bias)
        // modes.
        let t = random_layer(2, 3, 900);
        let plan = [
            GatherSource::Input(2),
            GatherSource::Dark,
            GatherSource::Reference,
            GatherSource::Input(0),
            GatherSource::Input(3),
            GatherSource::Reference,
        ];
        let src = random_fields(3 * 4, 901); // three 4-wide samples
        let (mut io, mut tmp) = (Vec::new(), Vec::new());
        t.forward_gathered(&src, 4, &plan, &mut io, &mut tmp);

        let mut want = Vec::new();
        for sample in src.chunks_exact(4) {
            for mut row in [
                vec![sample[2], Complex64::ZERO, Complex64::ONE],
                vec![sample[0], sample[3], Complex64::ONE],
            ] {
                t.forward_batch(&mut row, &mut tmp, 1);
                want.extend(row);
            }
        }
        assert_eq!(bits(&io), bits(&want));
    }

    #[test]
    fn empty_window_serves_nothing() {
        let t = random_layer(4, 3, 2);
        let (mut io, mut tmp) = (Vec::new(), Vec::new());
        t.forward_batch(&mut io, &mut tmp, 0);
        assert!(io.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both lane orientations, at both lane widths, are bitwise the
        /// scalar loop — whatever the output width would normally pick —
        /// across row counts with and without lane/block remainders.
        #[test]
        fn both_orientations_are_bitwise_the_scalar_loop(
            m in 1usize..=20,
            n in 1usize..=40,
            samples in 0usize..=19,
            seed in 0u64..u64::MAX,
        ) {
            let t = random_layer(m, n, seed);
            let x = random_fields(samples * n, seed ^ 0x7a5);
            let mut want = vec![Complex64::ZERO; samples * m];
            t.scalar_rows(&x, &mut want, 0..samples);
            let want = bits(&want);
            let mut got = vec![Complex64::ZERO; samples * m];
            t.output_lanes::<F64x4>(&x, &mut got, samples);
            prop_assert_eq!(bits(&got), want.clone(), "output lanes x4");
            t.output_lanes::<F64x8>(&x, &mut got, samples);
            prop_assert_eq!(bits(&got), want.clone(), "output lanes x8");
            let mut planar = vec![0.0; 2 * 8 * n];
            t.row_lanes::<F64x4>(&x, &mut got, samples, &mut planar);
            prop_assert_eq!(bits(&got), want.clone(), "row lanes x4");
            t.row_lanes::<F64x8>(&x, &mut got, samples, &mut planar);
            prop_assert_eq!(bits(&got), want.clone(), "row lanes x8");
            t.dispatch(&x, &mut got, samples);
            prop_assert_eq!(bits(&got), want, "dispatched tier");
        }
    }
}
