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
//! pin both against the scalar loop. Likewise the kernel's two row
//! sources — rows laid out by the caller ([`TransferLayer::forward_batch`])
//! and im2col rows read through a [`GatherTable`]
//! ([`TransferLayer::conv_into`]) — hand it the identical field values.

use crate::compiled::{CompiledLayer, GatherSource};
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

/// Lanes of the widest dispatch tier (`F64x8`): a row-lane block stages
/// `2·n` rows of this many doubles.
const MAX_LANES: usize = 8;

std::thread_local! {
    /// Reusable planar staging buffer: one row-lane block (mode-major)
    /// and, for conv windows, the current sample's fields. After warm-up
    /// the kernel allocates nothing per window.
    static STAGING: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Lends this thread's staging buffer, grown to at least `len` doubles.
/// Grow-only: every consumer writes each value before reading it.
fn with_staging<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    STAGING.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// An im2col gather compiled to a branch-free index table, built once
/// per conv stage: one `u32` per mesh input mode per output position
/// (position-major), indexing the sample's fields *extended by two
/// constant slots* — `src_width` holds the dark (zero) field and
/// `src_width + 1` the reference (unit) field. So `Input(j)` → `j`,
/// `Dark` → `src_width`, `Reference` → `src_width + 1`, and serving a
/// tap is one load whatever its kind.
///
/// # Example
///
/// ```
/// use oplix_photonics::compiled::GatherSource::{Dark, Input, Reference};
/// use oplix_photonics::transfer::GatherTable;
///
/// // Two positions of a 2-mode mesh over 3-field samples.
/// let plan = [Input(2), Reference, Dark, Reference];
/// let table = GatherTable::new(&plan, 3, 2);
/// assert_eq!(table.positions(), 2);
/// assert_eq!(table.plan(), plan);
/// ```
#[derive(Clone, Debug)]
pub struct GatherTable {
    idx: Vec<u32>,
    src_width: usize,
    fan_in: usize,
}

impl GatherTable {
    /// Compiles a gather `plan` of `positions × fan_in` sources over
    /// samples of `src_width` fields.
    ///
    /// # Panics
    ///
    /// Panics if `src_width` or `fan_in` is zero, `fan_in` does not
    /// divide `plan.len()`, a plan entry indexes past `src_width`, or
    /// `src_width + 1` does not fit in a `u32`.
    pub fn new(plan: &[GatherSource], src_width: usize, fan_in: usize) -> Self {
        assert!(
            src_width > 0 && src_width < u32::MAX as usize,
            "sample width must be in 1..u32::MAX"
        );
        assert!(
            fan_in > 0 && plan.len().is_multiple_of(fan_in),
            "gather plan length must be a multiple of the layer fan-in"
        );
        let dark = src_width as u32;
        let idx = plan
            .iter()
            .map(|&source| match source {
                GatherSource::Input(j) => {
                    assert!(j < dark, "gather plan entry indexes past the sample");
                    j
                }
                GatherSource::Dark => dark,
                GatherSource::Reference => dark + 1,
            })
            .collect();
        GatherTable {
            idx,
            src_width,
            fan_in,
        }
    }

    /// Fields per source sample.
    #[inline]
    pub fn src_width(&self) -> usize {
        self.src_width
    }

    /// Mesh input modes per output position.
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output positions (gathered rows) per sample.
    #[inline]
    pub fn positions(&self) -> usize {
        self.idx.len() / self.fan_in
    }

    /// The plan the table was compiled from — the per-slot form the
    /// reference gather ([`gather_into`](crate::compiled::gather_into))
    /// walks.
    pub fn plan(&self) -> Vec<GatherSource> {
        let dark = self.src_width as u32;
        self.idx
            .iter()
            .map(|&t| match t {
                t if t < dark => GatherSource::Input(t),
                t if t == dark => GatherSource::Dark,
                _ => GatherSource::Reference,
            })
            .collect()
    }
}

/// Where a kernel call reads its rows: input field `j` of row `s`. Both
/// sources hand the kernel identical values for identical rows, so the
/// product cannot tell them apart.
trait RowSource: Copy {
    /// Input field `j` of row `s`.
    fn field(&self, s: usize, j: usize) -> Complex64;

    /// Stages rows `s0..s0 + V::LANES` planar and mode-major: field `j`
    /// of row `s0 + l` lands at `xr[j·V::LANES + l]` / `xi[…]`.
    fn stage<V: Lane<f64>>(&self, s0: usize, xr: &mut [f64], xi: &mut [f64]);
}

/// Rows the caller laid out: `n` contiguous fields per row.
#[derive(Clone, Copy)]
struct Staged<'a> {
    x: &'a [Complex64],
    n: usize,
}

impl RowSource for Staged<'_> {
    #[inline(always)]
    fn field(&self, s: usize, j: usize) -> Complex64 {
        self.x[s * self.n + j]
    }

    #[inline(always)]
    fn stage<V: Lane<f64>>(&self, s0: usize, xr: &mut [f64], xi: &mut [f64]) {
        let n = self.n;
        for (l, row) in self.x[s0 * n..(s0 + V::LANES) * n]
            .chunks_exact(n)
            .enumerate()
        {
            for (j, z) in row.iter().enumerate() {
                xr[j * V::LANES + l] = z.re;
                xi[j * V::LANES + l] = z.im;
            }
        }
    }
}

/// The im2col rows of one sample: field `j` of position `s` is slot
/// `idx[s·n + j]` of the sample's planar fields `re`/`im`, which end in
/// the dark and reference slots.
#[derive(Clone, Copy)]
struct Indexed<'a> {
    idx: &'a [u32],
    re: &'a [f64],
    im: &'a [f64],
    n: usize,
}

impl RowSource for Indexed<'_> {
    #[inline(always)]
    fn field(&self, s: usize, j: usize) -> Complex64 {
        let t = self.idx[s * self.n + j] as usize;
        Complex64::new(self.re[t], self.im[t])
    }

    #[inline(always)]
    fn stage<V: Lane<f64>>(&self, s0: usize, xr: &mut [f64], xi: &mut [f64]) {
        let n = self.n;
        for (l, taps) in self.idx[s0 * n..(s0 + V::LANES) * n]
            .chunks_exact(n)
            .enumerate()
        {
            for (j, &t) in taps.iter().enumerate() {
                xr[j * V::LANES + l] = self.re[t as usize];
                xi[j * V::LANES + l] = self.im[t as usize];
            }
        }
    }
}

/// Where output `i` of row `s` lands: `out[s·row + i·col]` — row-major
/// (`row = m`, `col = 1`) for a dense window, channel-major (`row = 1`,
/// `col = positions`) for one conv sample.
#[derive(Clone, Copy)]
struct Layout {
    row: usize,
    col: usize,
}

/// The `[m, n]` matrix an SVD-mapped layer's current phases realise,
/// stored planar and transposed (`re[j·m + i]`, `im[j·m + i]` hold
/// entry `(i, j)`), served through a batched entry point shaped like
/// [`CompiledLayer`]'s ([`TransferLayer::forward_batch`]) and the
/// one-pass im2col entry point of conv stages
/// ([`TransferLayer::conv_into`]).
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
        let rows = Staged { x: io, n: self.n };
        let layout = Layout {
            row: self.m,
            col: 1,
        };
        with_staging(2 * MAX_LANES * self.n, |planar| {
            self.dispatch(rows, samples, tmp, layout, planar)
        });
        std::mem::swap(io, tmp);
    }

    /// Serves a window of im2col convolutions in one pass. Each sample of
    /// `src` (`src.len() / table.src_width()` samples) is copied once into
    /// a planar source ending in the dark and reference slots; its
    /// `table.positions()` patch rows are read through the index table
    /// straight into the kernel — into the row-lane block when
    /// `m < 8`, field by field when lanes run across outputs — and its
    /// outputs are written **channel-major**: per sample, `m × positions`
    /// fields of `out` with output `i` of position `p` at
    /// `i·positions + p` (the software conv layout `[out_ch, H'·W']`).
    ///
    /// Bitwise identical to gathering every row by hand, running the rows
    /// through [`TransferLayer::forward_batch`] and transposing: the
    /// kernel sees the same fields, dark taps included. Samples are
    /// independent, so disjoint sample ranges of one window can be served
    /// concurrently into disjoint slices of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `table.fan_in() != self.input_dim()`, `src.len()` is not
    /// a multiple of `table.src_width()`, or `out` does not hold exactly
    /// `m × positions` fields per sample.
    pub fn conv_into(&self, table: &GatherTable, src: &[Complex64], out: &mut [Complex64]) {
        self.conv_with(table, src, out, |rows, dst, layout, planar| {
            self.dispatch(rows, table.positions(), dst, layout, planar)
        });
    }

    /// [`TransferLayer::conv_into`] through the portable kernel body at
    /// `V` lanes, without runtime tier dispatch — bitwise identical to it
    /// at every lane width, so each body can be pinned on its own.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TransferLayer::conv_into`].
    pub fn conv_into_lanes<V: Lane<f64>>(
        &self,
        table: &GatherTable,
        src: &[Complex64],
        out: &mut [Complex64],
    ) {
        self.conv_with(table, src, out, |rows, dst, layout, planar| {
            self.kernel::<V, _>(rows, table.positions(), dst, layout, planar)
        });
    }

    /// The per-sample loop of the conv entry points: checks shapes, then
    /// fills the planar source of each sample and hands its rows, its
    /// channel-major output slice and the row-lane block to `run`.
    #[inline(always)]
    fn conv_with(
        &self,
        table: &GatherTable,
        src: &[Complex64],
        out: &mut [Complex64],
        run: impl Fn(Indexed<'_>, &mut [Complex64], Layout, &mut [f64]),
    ) {
        let (n, w) = (self.n, table.src_width);
        assert_eq!(
            table.fan_in, n,
            "gather table fan-in must match the layer fan-in"
        );
        assert!(
            src.len().is_multiple_of(w),
            "source window length must be a multiple of the sample width"
        );
        let positions = table.positions();
        let per_sample = self.m * positions;
        assert_eq!(
            out.len(),
            src.len() / w * per_sample,
            "output length must be samples * positions * layer fan-out"
        );
        let layout = Layout {
            row: 1,
            col: positions,
        };
        let block = 2 * MAX_LANES * n;
        with_staging(block + 2 * (w + 2), |buf| {
            let (planar, source) = buf.split_at_mut(block);
            let (re, im) = source.split_at_mut(w + 2);
            (re[w], im[w]) = (0.0, 0.0);
            (re[w + 1], im[w + 1]) = (1.0, 0.0);
            for (sample, dst) in src
                .chunks_exact(w)
                .zip(out.chunks_exact_mut(per_sample.max(1)))
            {
                for (z, (r, i)) in sample.iter().zip(re.iter_mut().zip(im.iter_mut())) {
                    (*r, *i) = (z.re, z.im);
                }
                let rows = Indexed {
                    idx: &table.idx,
                    re,
                    im,
                    n,
                };
                run(rows, dst, layout, planar);
            }
        });
    }

    /// Picks the widest lane tier the CPU supports for `count` rows.
    fn dispatch<S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
        planar: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if oplix_linalg::lanes::avx512f_available() {
                // SAFETY: AVX-512F was just verified at runtime; the
                // clone is the identical portable lane body
                // monomorphised at 8 lanes, so results are bitwise
                // unchanged.
                unsafe { self.kernel_avx512(rows, count, out, layout, planar) };
                return;
            }
            if oplix_linalg::lanes::avx2_available() {
                // SAFETY: AVX2 was just verified at runtime; the clone
                // is the identical portable lane body at 4 lanes.
                unsafe { self.kernel_avx2(rows, count, out, layout, planar) };
                return;
            }
        }
        self.kernel::<F64x4, S>(rows, count, out, layout, planar);
    }

    // SAFETY: `#[target_feature]` makes this fn unsafe to *call*; the
    // only caller gates on `avx512f_available()`. The body is the same
    // portable `kernel`, monomorphised at 8 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn kernel_avx512<S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
        planar: &mut [f64],
    ) {
        self.kernel::<oplix_linalg::lanes::F64x8, S>(rows, count, out, layout, planar);
    }

    // SAFETY: `#[target_feature]` makes this fn unsafe to *call*; the
    // only caller gates on `avx2_available()`. The body is the same
    // portable `kernel`, monomorphised at 4 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn kernel_avx2<S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
        planar: &mut [f64],
    ) {
        self.kernel::<F64x4, S>(rows, count, out, layout, planar);
    }

    /// The portable kernel body over `count` rows of `rows`: the
    /// orientation is chosen by output width only, and both are bitwise
    /// [`TransferLayer::scalar_rows`].
    #[inline(always)]
    fn kernel<V: Lane<f64>, S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
        planar: &mut [f64],
    ) {
        if self.m >= OUTPUT_LANES_MIN_OUTPUTS {
            self.output_lanes::<V, S>(rows, count, out, layout);
        } else {
            self.row_lanes::<V, S>(rows, count, out, layout, planar);
        }
    }

    /// The reference semantics of one output element: `o += a * t` from
    /// zero, in ascending input mode, over row `s`'s fields.
    #[inline(always)]
    fn dot<S: RowSource>(&self, rows: S, s: usize, i: usize) -> Complex64 {
        let mut o = Complex64::ZERO;
        for j in 0..self.n {
            o +=
                rows.field(s, j) * Complex64::new(self.re[j * self.m + i], self.im[j * self.m + i]);
        }
        o
    }

    /// Rows `range` of `rows` into `out`, one [`TransferLayer::dot`] per
    /// output element.
    fn scalar_rows<S: RowSource>(
        &self,
        rows: S,
        out: &mut [Complex64],
        layout: Layout,
        range: std::ops::Range<usize>,
    ) {
        for s in range {
            for i in 0..self.m {
                out[s * layout.row + i * layout.col] = self.dot(rows, s, i);
            }
        }
    }

    /// Lanes across each row's outputs (dense stages): blocks of
    /// [`ROW_BLOCK`] rows share every loaded stripe of the matrix.
    #[inline(always)]
    fn output_lanes<V: Lane<f64>, S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
    ) {
        let mut s = 0;
        while s + ROW_BLOCK <= count {
            self.output_block::<V, S, ROW_BLOCK>(rows, out, layout, s);
            s += ROW_BLOCK;
        }
        while s < count {
            self.output_block::<V, S, 1>(rows, out, layout, s);
            s += 1;
        }
    }

    /// Rows `s0..s0 + R`, every output: full `V` stripes, then a
    /// four-wide stripe, then scalar outputs for the remainder.
    #[inline(always)]
    fn output_block<V: Lane<f64>, S: RowSource, const R: usize>(
        &self,
        rows: S,
        out: &mut [Complex64],
        layout: Layout,
        s0: usize,
    ) {
        let m = self.m;
        let mut c = 0;
        while c + V::LANES <= m {
            self.output_stripe::<V, S, R>(rows, out, layout, s0, c);
            c += V::LANES;
        }
        if c + F64x4::LANES <= m {
            self.output_stripe::<F64x4, S, R>(rows, out, layout, s0, c);
            c += F64x4::LANES;
        }
        for i in c..m {
            for s in s0..s0 + R {
                out[s * layout.row + i * layout.col] = self.dot(rows, s, i);
            }
        }
    }

    /// Outputs `c..c + W::LANES` of rows `s0..s0 + R`: per input mode,
    /// one stripe load and `R` splatted-field products
    /// ([`cmul_splat_lhs`] — the field is the left operand, as in
    /// `a * t`), each added into its row's accumulator.
    #[inline(always)]
    fn output_stripe<W: Lane<f64>, S: RowSource, const R: usize>(
        &self,
        rows: S,
        out: &mut [Complex64],
        layout: Layout,
        s0: usize,
        c: usize,
    ) {
        let m = self.m;
        let mut acc_re = [W::splat(0.0); R];
        let mut acc_im = [W::splat(0.0); R];
        for j in 0..self.n {
            let tr = W::load(&self.re[j * m + c..]);
            let ti = W::load(&self.im[j * m + c..]);
            for r in 0..R {
                let a = rows.field(s0 + r, j);
                let (pr, pi) = cmul_splat_lhs(a.re, a.im, tr, ti);
                acc_re[r] = acc_re[r] + pr;
                acc_im[r] = acc_im[r] + pi;
            }
        }
        for r in 0..R {
            for l in 0..W::LANES {
                out[(s0 + r) * layout.row + (c + l) * layout.col] =
                    Complex64::new(acc_re[r].get(l), acc_im[r].get(l));
            }
        }
    }

    /// Lanes across `V::LANES` rows at a time (narrow conv stages): each
    /// block of rows is staged planar and mode-major in `planar` (`2·n`
    /// rows of `V::LANES` doubles — for conv rows, gathered straight
    /// through the index table) so every input mode is two contiguous
    /// lane loads, then served in passes of up to [`OUTPUT_BLOCK`]
    /// outputs; the remainder rows run the scalar loop.
    #[inline(always)]
    fn row_lanes<V: Lane<f64>, S: RowSource>(
        &self,
        rows: S,
        count: usize,
        out: &mut [Complex64],
        layout: Layout,
        planar: &mut [f64],
    ) {
        let (m, n) = (self.m, self.n);
        let (xr, xi) = planar[..2 * n * V::LANES].split_at_mut(n * V::LANES);
        let full = count - count % V::LANES;
        let mut s = 0;
        while s < full {
            rows.stage::<V>(s, xr, xi);
            let mut i = 0;
            while i < m {
                match m - i {
                    1 => self.row_stripe::<V, 1>(xr, xi, out, layout, s, i),
                    2 => self.row_stripe::<V, 2>(xr, xi, out, layout, s, i),
                    3 => self.row_stripe::<V, 3>(xr, xi, out, layout, s, i),
                    _ => self.row_stripe::<V, OUTPUT_BLOCK>(xr, xi, out, layout, s, i),
                }
                i += OUTPUT_BLOCK.min(m - i);
            }
            s += V::LANES;
        }
        self.scalar_rows(rows, out, layout, full..count);
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
        layout: Layout,
        s0: usize,
        i0: usize,
    ) {
        let m = self.m;
        let mut acc_re = [V::splat(0.0); K];
        let mut acc_im = [V::splat(0.0); K];
        for j in 0..self.n {
            let vr = V::load(&xr[j * V::LANES..]);
            let vi = V::load(&xi[j * V::LANES..]);
            let t = j * m + i0;
            for k in 0..K {
                let (pr, pi) = cmul_splat_rhs(vr, vi, self.re[t + k], self.im[t + k]);
                acc_re[k] = acc_re[k] + pr;
                acc_im[k] = acc_im[k] + pi;
            }
        }
        for k in 0..K {
            for l in 0..V::LANES {
                out[(s0 + l) * layout.row + (i0 + k) * layout.col] =
                    Complex64::new(acc_re[k].get(l), acc_im[k].get(l));
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
    fn conv_into_matches_manual_gather_bitwise() {
        // A 3-mode layer fed two gathered rows per 4-wide source sample:
        // the im2col entry point must be bitwise the hand-gathered
        // per-row walk, including dark (padding) and reference (bias)
        // modes, with each sample's outputs channel-major.
        let t = random_layer(2, 3, 900);
        let plan = [
            GatherSource::Input(2),
            GatherSource::Dark,
            GatherSource::Reference,
            GatherSource::Input(0),
            GatherSource::Input(3),
            GatherSource::Reference,
        ];
        let table = GatherTable::new(&plan, 4, 3);
        assert_eq!(table.plan(), plan);
        let src = random_fields(3 * 4, 901); // three 4-wide samples
        let mut got = vec![Complex64::ZERO; 3 * 2 * 2];
        t.conv_into(&table, &src, &mut got);

        let mut want = Vec::new();
        let mut tmp = Vec::new();
        for sample in src.chunks_exact(4) {
            let mut rows = Vec::new();
            for mut row in [
                vec![sample[2], Complex64::ZERO, Complex64::ONE],
                vec![sample[0], sample[3], Complex64::ONE],
            ] {
                t.forward_batch(&mut row, &mut tmp, 1);
                rows.push(row);
            }
            // Channel-major: output 0 of both positions, then output 1.
            want.extend([rows[0][0], rows[1][0], rows[0][1], rows[1][1]]);
        }
        assert_eq!(bits(&got), bits(&want));
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
            let rows = Staged { x: &x, n };
            let layout = Layout { row: m, col: 1 };
            let mut want = vec![Complex64::ZERO; samples * m];
            t.scalar_rows(rows, &mut want, layout, 0..samples);
            let want = bits(&want);
            let mut got = vec![Complex64::ZERO; samples * m];
            t.output_lanes::<F64x4, _>(rows, samples, &mut got, layout);
            prop_assert_eq!(bits(&got), want.clone(), "output lanes x4");
            t.output_lanes::<F64x8, _>(rows, samples, &mut got, layout);
            prop_assert_eq!(bits(&got), want.clone(), "output lanes x8");
            let mut planar = vec![0.0; 2 * 8 * n];
            t.row_lanes::<F64x4, _>(rows, samples, &mut got, layout, &mut planar);
            prop_assert_eq!(bits(&got), want.clone(), "row lanes x4");
            t.row_lanes::<F64x8, _>(rows, samples, &mut got, layout, &mut planar);
            prop_assert_eq!(bits(&got), want.clone(), "row lanes x8");
            t.dispatch(rows, samples, &mut got, layout, &mut planar);
            prop_assert_eq!(bits(&got), want, "dispatched tier");
        }
    }
}
