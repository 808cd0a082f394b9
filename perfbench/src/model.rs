//! The models and inputs the workloads serve: seeded random zoo weights
//! (mesh cost does not depend on the phase values, so no training is
//! needed) and synthetic digit images put through the paper's
//! real-to-complex assignment.

use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::{digits, RealDataset, SynthConfig};
use oplix_linalg::Complex64;
use oplix_nn::{CTensor, Network};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::InferenceEngine;
use oplixnet::serve::sample_row;
use oplixnet::zoo::{build_fcnn, build_lenet, FcnnConfig, LenetConfig, ModelVariant};
use oplixnet::{DeployedDetection, Error};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's split-complex family with the merging decoder.
pub const VARIANT: ModelVariant = ModelVariant::Split(DecoderKind::Merge);
pub const STYLE: MeshStyle = MeshStyle::Clements;
/// Adjacent row pairs → one complex value; halves the image height.
pub const ASSIGNMENT: AssignmentKind = AssignmentKind::SpatialInterlace;
/// The engine's serving window.
pub const WINDOW: usize = 64;

/// A network architecture the benchmark deploys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arch {
    /// 64-wide complex input, hidden 32, merge decoder (2 optical stages).
    Fcnn,
    /// Channel-halved LeNet-5 on 16×16 complex images (7 stages).
    Lenet,
}

pub const ARCHES: [Arch; 2] = [Arch::Fcnn, Arch::Lenet];

fn lenet_config() -> LenetConfig {
    LenetConfig::training_scale(2, 16, 10).halved()
}

impl Arch {
    pub fn key(self) -> &'static str {
        match self {
            Arch::Fcnn => "fcnn",
            Arch::Lenet => "lenet",
        }
    }

    /// Raw digit image `(height, width)`; the assignment halves the height.
    fn image(self) -> (usize, usize) {
        match self {
            Arch::Fcnn => (16, 8),
            Arch::Lenet => (32, 16),
        }
    }

    /// Distinct input samples per run; requests draw from this pool.
    fn pool_size(self) -> usize {
        match self {
            Arch::Fcnn => 8192,
            Arch::Lenet => 1024,
        }
    }

    /// Image shape the deployment is told about (CNN bodies only).
    pub fn input_shape(self) -> Option<(usize, usize, usize)> {
        match self {
            Arch::Fcnn => None,
            Arch::Lenet => {
                let c = lenet_config();
                Some((c.in_ch, c.input_h, c.input_w))
            }
        }
    }

    pub fn build(self, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Arch::Fcnn => build_fcnn(
                &FcnnConfig {
                    input: 64,
                    hidden: 32,
                    classes: 10,
                },
                VARIANT,
                &mut rng,
            ),
            Arch::Lenet => build_lenet(&lenet_config(), VARIANT, &mut rng),
        }
    }

    pub fn detection(self) -> DeployedDetection {
        VARIANT.detection()
    }

    pub fn deploy(self, net: &Network) -> Result<InferenceEngine, Error> {
        InferenceEngine::from_network_shaped(net, self.input_shape(), self.detection(), STYLE)
    }

    /// Optical mesh shapes `[m, n]` in stage order, bias column included:
    /// dense `[out, in + 1]`, conv `[out_ch, C·k·k + 1]`. Checked against
    /// the deployment's own MZI count in [`chip_check`].
    pub fn mesh_shapes(self) -> &'static [(usize, usize)] {
        match self {
            Arch::Fcnn => &[(32, 65), (20, 33)],
            Arch::Lenet => &[(3, 26), (6, 76), (24, 97), (16, 25), (20, 17)],
        }
    }
}

/// Every optical mesh shape any workload deploys.
pub fn all_mesh_shapes() -> Vec<(usize, usize)> {
    ARCHES
        .iter()
        .flat_map(|a| a.mesh_shapes().iter().copied())
        .collect()
}

/// One set of weights. Versions of a serving lane map onto these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Weights {
    /// The FCNN that serves first.
    A,
    /// The FCNN canary candidate of `fcnn-serve`.
    B,
    /// The FCNN the `router-mix` lanes swap to.
    C,
    /// The LeNet.
    L,
}

impl Weights {
    pub fn arch(self) -> Arch {
        match self {
            Weights::L => Arch::Lenet,
            _ => Arch::Fcnn,
        }
    }

    /// Weight seed, derived from the workload seed.
    pub fn seed(self, seed: u64) -> u64 {
        seed ^ (0x5EED_0000 + self as u64)
    }

    pub fn build(self, seed: u64) -> Network {
        self.arch().build(self.seed(seed))
    }
}

/// The seeded stream `tag` of a run. Tags are distinct constants, so
/// every stream of one run starts from its own seed.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag)
}

/// The input pool of one architecture: raw images, their assigned
/// complex view, and that view staged as per-request rows.
pub struct Inputs {
    pub raw: RealDataset,
    pub view: CTensor,
    pub rows: Vec<Vec<Complex64>>,
}

impl Inputs {
    pub fn generate(arch: Arch, seed: u64) -> Inputs {
        let (height, width) = arch.image();
        let raw = digits(&SynthConfig {
            height,
            width,
            samples: arch.pool_size(),
            seed: seed ^ (0x1A9E + arch as u64),
            ..SynthConfig::default()
        });
        let view = ASSIGNMENT.apply(&raw.inputs);
        let rows = (0..raw.len()).map(|i| sample_row(&view, i)).collect();
        Inputs { raw, view, rows }
    }

    /// The first `n` samples of the view as their own batch.
    pub fn head(&self, n: usize) -> CTensor {
        let shape = self.view.shape();
        let d: usize = shape[1..].iter().product();
        let mut dims = shape.to_vec();
        dims[0] = n;
        let take = |t: &oplix_nn::Tensor| {
            oplix_nn::Tensor::from_vec(&dims, t.as_slice()[..n * d].to_vec())
        };
        CTensor::new(take(&self.view.re), take(&self.view.im))
    }
}

/// The direct-engine classes of every pool sample under `weights`: the
/// reference every served prediction must equal.
pub fn reference(weights: Weights, seed: u64, inputs: &Inputs, workers: usize) -> Vec<usize> {
    let mut engine = weights
        .arch()
        .deploy(&weights.build(seed))
        .expect("benchmark models deploy");
    engine.set_num_workers(workers);
    engine
        .classify(&inputs.view)
        .expect("pool samples match the deployment")
}

/// Static chip physics of a deployment: its `ChipReport` rows and their
/// totals.
#[derive(Clone, Debug, Default)]
pub struct ChipTotals {
    /// One `stage:optical:in:out:depth:loss_db:latency_ps` entry per
    /// stage, `;`-separated.
    pub rows: String,
    pub optical_stages: usize,
    pub mesh_depth: usize,
    pub insertion_loss_db: f64,
    pub latency_ps: f64,
    pub mzis: u64,
}

/// Pinned `ChipReport` rows per architecture, one
/// `stage:optical:in:out:depth:loss_db:latency_ps` entry per stage. They
/// depend only on the mesh geometry, never on the weights or the host,
/// so a change that only speeds the host up must leave them identical.
const GOLDEN_FCNN: &str = "0:true:64:32:97:29.1:388.0;1:true:32:20:53:15.9:212.0";
const GOLDEN_LENET: &str = "0:true:256:768:29:8.7:116.0;1:false:768:192:0:0.0:0.0;\
    2:true:192:384:82:24.6:328.0;3:false:384:96:0:0.0:0.0;4:true:96:24:121:36.3:484.0;\
    5:true:24:16:41:12.3:164.0;6:true:16:20:37:11.1:148.0";
const GOLDEN_MZIS: [(Arch, u64); 2] = [(Arch::Fcnn, 3346), (Arch::Lenet, 8937)];

/// Checks a deployment's chip reports and MZI count against the pinned
/// values and the arch's mesh shapes; returns the totals and any
/// mismatch.
pub fn chip_check(arch: Arch, engine: &InferenceEngine) -> (ChipTotals, Vec<String>) {
    let reports = engine.deployed().chip_reports();
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}:{}:{}:{:?}:{:?}",
                r.stage,
                r.optical,
                r.input_width,
                r.output_width,
                r.mesh_depth,
                r.insertion_loss_db,
                r.latency_ps
            )
        })
        .collect();
    let got = rows.join(";");
    let mzis = engine.deployed().device_count().mzis;
    let totals = ChipTotals {
        rows: got.clone(),
        optical_stages: reports.iter().filter(|r| r.optical).count(),
        mesh_depth: reports.iter().map(|r| r.mesh_depth).sum(),
        insertion_loss_db: reports.iter().map(|r| r.insertion_loss_db).sum(),
        latency_ps: reports.iter().map(|r| r.latency_ps).sum(),
        mzis,
    };
    let mut problems = Vec::new();
    let golden = match arch {
        Arch::Fcnn => GOLDEN_FCNN,
        Arch::Lenet => GOLDEN_LENET,
    };
    if got != golden {
        problems.push(format!(
            "{} chip reports changed: got {got}, pinned {golden}",
            arch.key()
        ));
    }
    let pinned_mzis = GOLDEN_MZIS
        .iter()
        .find(|(a, _)| *a == arch)
        .map(|(_, m)| *m)
        .unwrap_or(0);
    if mzis != pinned_mzis {
        problems.push(format!(
            "{} MZI count changed: got {mzis}, pinned {pinned_mzis}",
            arch.key()
        ));
    }
    let shape_mzis: u64 = arch
        .mesh_shapes()
        .iter()
        .map(|&(m, n)| oplix_photonics::svd_map::layer_mzi_count(m, n))
        .sum();
    if shape_mzis != mzis || totals.optical_stages != arch.mesh_shapes().len() {
        problems.push(format!(
            "{} mesh shapes {:?} do not match the deployment ({mzis} MZIs)",
            arch.key(),
            arch.mesh_shapes()
        ));
    }
    (totals, problems)
}
