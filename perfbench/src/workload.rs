//! The three workloads and one serving pass over each: set up the
//! serving front, run the open-loop phase then the closed-loop phase
//! (with the workload's control schedule beside them), shut down and
//! collect every stats snapshot the program exposes.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use oplixnet::{
    CanaryPolicy, EngineStats, Router, RouterStats, Server, ServerStats, SwapOutcome, SwapTicket,
};
use rand::{Rng, RngCore};

use crate::drive::{self, Arrivals, ClosedOut, Ctx, Front, Lane, OpenOut};
use crate::model::{self, Arch, ChipTotals, Inputs, Weights};
use crate::trace::{self, Span, Spans};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FcnnServe,
    LenetServe,
    RouterMix,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::FcnnServe,
    Workload::LenetServe,
    Workload::RouterMix,
];

const NO_DEADLINE: (Duration, Duration) = (Duration::ZERO, Duration::ZERO);

const FCNN_LANES: [Lane; 1] = [Lane {
    name: "fcnn",
    arch: Arch::Fcnn,
    share: 100,
    budgets: NO_DEADLINE,
    versions: &[Weights::A, Weights::B],
    burst_offset: Duration::ZERO,
}];

const LENET_LANES: [Lane; 1] = [Lane {
    name: "lenet",
    arch: Arch::Lenet,
    share: 100,
    budgets: NO_DEADLINE,
    versions: &[Weights::L],
    burst_offset: Duration::ZERO,
}];

/// Any deadline miss fails the run, so the budgets are several times the
/// longest stall seen on a shared 2-vCPU host: windows whose p99 reached
/// 0.19 s, and sends 0.1 s late. Budgets of 100 ms there failed runs of
/// an unchanged program. Tight and loose still order the EDF queues.
const MIX_LANES: [Lane; 3] = [
    Lane {
        name: "fcnn-a",
        arch: Arch::Fcnn,
        share: 45,
        budgets: (Duration::from_secs(1), Duration::from_secs(5)),
        versions: &[Weights::A, Weights::C],
        burst_offset: Duration::ZERO,
    },
    Lane {
        name: "fcnn-b",
        arch: Arch::Fcnn,
        share: 45,
        budgets: (Duration::from_secs(1), Duration::from_secs(5)),
        versions: &[Weights::A, Weights::C],
        burst_offset: Duration::ZERO,
    },
    Lane {
        name: "lenet",
        arch: Arch::Lenet,
        share: 10,
        budgets: (Duration::from_secs(2), Duration::from_secs(10)),
        versions: &[Weights::L],
        // Half a burst period after the FCNN share: the open loop then
        // times each lane draining its own share of a burst, instead of a
        // thread-scheduling race between them that changed the median
        // from run to run. The closed loop still mixes all three lanes.
        burst_offset: Duration::from_millis(50),
    },
];

/// `router-mix` burst period.
const MIX_PERIOD: Duration = Duration::from_millis(100);

/// When a `router-mix` swap is issued, after the start of its burst: once
/// the FCNN share has drained and before the LeNet share is due. A swap
/// issued with the burst raced the FCNN drain, and how the race went
/// moved the median latency by half from run to run.
const MIX_SWAP_AT: Duration = Duration::from_millis(25);

/// Model instance names the per-model metrics use.
pub const INSTANCES: [&str; 3] = ["fcnn-a", "fcnn-b", "lenet"];

/// `fcnn-serve` control cycle: canary, promote, swap back.
const CYCLE: Duration = Duration::from_millis(500);
const CANARY_AT: Duration = Duration::from_millis(100);
const PROMOTE_AT: Duration = Duration::from_millis(250);
const SWAP_AT: Duration = Duration::from_millis(400);

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FcnnServe => "fcnn-serve",
            Workload::LenetServe => "lenet-serve",
            Workload::RouterMix => "router-mix",
        }
    }

    pub fn lanes(self) -> &'static [Lane] {
        match self {
            Workload::FcnnServe => &FCNN_LANES,
            Workload::LenetServe => &LENET_LANES,
            Workload::RouterMix => &MIX_LANES,
        }
    }

    /// The fixed open-loop schedule, never changed once recorded so runs
    /// stay comparable. `fcnn-serve` runs steadily at about half of the
    /// closed-loop capacity measured on a 2-core host. The two workloads
    /// with LeNet work get bursts, at about 30% and a quarter of
    /// capacity: a single-core LeNet server fed a steady trickle idles
    /// between requests, and its latency then measured how fast the host
    /// woke idle vCPUs (several-fold between runs), not the engine.
    pub fn arrivals(self) -> Arrivals {
        match self {
            Workload::FcnnServe => Arrivals::Steady { rate: 65_000.0 },
            // One full engine window at once, 500 req/s.
            Workload::LenetServe => Arrivals::Bursts {
                size: 64,
                period: Duration::from_millis(128),
            },
            // 5 000 req/s; the LeNet lane's share of a burst fits one
            // engine window.
            Workload::RouterMix => Arrivals::Bursts {
                size: 500,
                period: MIX_PERIOD,
            },
        }
    }

    /// Requests each closed-loop client keeps in flight. On `router-mix`
    /// a tenth of them are LeNet requests, and a client waits on its
    /// oldest request first, so its FCNN requests queue behind each LeNet
    /// one. 1 024 keeps the LeNet lane flushing full windows: at 128 its
    /// batches were part-filled by however the lanes raced, and the CPU
    /// cost per sample moved by a sixth between runs.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::FcnnServe => 256,
            Workload::LenetServe => 64,
            Workload::RouterMix => 1024,
        }
    }

    /// Length of the closed-loop windows CPU cost is taken over: one
    /// `fcnn-serve` control cycle, five `router-mix` swaps, and on
    /// `lenet-serve` enough completions (~3 500) that one engine window
    /// more or less moves the figure by 2%.
    pub fn cpu_window(self) -> Duration {
        match self {
            Workload::FcnnServe | Workload::RouterMix => Duration::from_millis(500),
            Workload::LenetServe => Duration::from_secs(2),
        }
    }

    /// Every `n`th request gets spans in the traced run, so the span
    /// buffers stay around 10⁵ entries.
    pub fn trace_stride(self) -> u64 {
        match self {
            Workload::FcnnServe => 16,
            Workload::LenetServe => 1,
            Workload::RouterMix => 4,
        }
    }

    pub fn weights(self) -> &'static [Weights] {
        match self {
            Workload::FcnnServe => &[Weights::A, Weights::B],
            Workload::LenetServe => &[Weights::L],
            Workload::RouterMix => &[Weights::A, Weights::C, Weights::L],
        }
    }

    /// The weights a side copy of `arch` is deployed from.
    pub fn weights_of(self, arch: Arch) -> Weights {
        self.weights()
            .iter()
            .copied()
            .find(|w| w.arch() == arch)
            .expect("every arch of a workload has weights")
    }

    pub fn arches(self) -> Vec<Arch> {
        let mut a: Vec<Arch> = self.lanes().iter().map(|l| l.arch).collect();
        a.sort();
        a.dedup();
        a
    }
}

/// The generated inputs and reference predictions of one workload run.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub inputs: BTreeMap<Arch, Inputs>,
    pub refs: BTreeMap<Weights, Vec<usize>>,
    pub chips: BTreeMap<Arch, ChipTotals>,
    pub problems: Vec<String>,
}

impl World {
    /// Inputs only: what a user's process builds before serving.
    pub fn inputs(workload: Workload, seed: u64) -> BTreeMap<Arch, Inputs> {
        workload
            .arches()
            .into_iter()
            .map(|a| (a, Inputs::generate(a, seed)))
            .collect()
    }

    /// Inputs plus the benchmark's own references and chip checks.
    pub fn build(workload: Workload, seed: u64, workers: usize) -> World {
        let inputs = World::inputs(workload, seed);
        let refs = workload
            .weights()
            .iter()
            .map(|&w| (w, model::reference(w, seed, &inputs[&w.arch()], workers)))
            .collect();
        let mut chips = BTreeMap::new();
        let mut problems = Vec::new();
        for arch in workload.arches() {
            let engine = arch
                .deploy(&workload.weights_of(arch).build(seed))
                .expect("benchmark models deploy");
            let (totals, p) = model::chip_check(arch, &engine);
            chips.insert(arch, totals);
            problems.extend(p);
        }
        World {
            workload,
            seed,
            inputs,
            refs,
            chips,
            problems,
        }
    }
}

/// The serving front of a workload, set up.
pub enum Stack {
    Serve(Server),
    Route(Router),
}

/// Builds, deploys and registers every model of `workload` and launches
/// its server or router. Deploy-bearing calls are recorded as `deploy`
/// spans labelled with the architecture.
pub fn launch(workload: Workload, seed: u64, spans: &mut Option<Spans>) -> Stack {
    let serve = |weights: Weights, spans: &mut Option<Spans>| {
        let net = weights.build(seed);
        let arch = weights.arch();
        let engine = trace::timed(spans, "deploy", arch.key(), || {
            arch.deploy(&net).expect("benchmark models deploy")
        });
        let server = trace::timed(spans, "serve.launch", "", || {
            Server::builder().serve_engine(engine)
        });
        Stack::Serve(server)
    };
    match workload {
        Workload::FcnnServe => serve(Weights::A, spans),
        Workload::LenetServe => serve(Weights::L, spans),
        Workload::RouterMix => {
            let router = Router::builder().build();
            for lane in workload.lanes() {
                let weights = lane.versions[0];
                let net = weights.build(seed);
                let arch = lane.arch;
                trace::timed(spans, "deploy", arch.key(), || {
                    router.register_shaped(
                        lane.name,
                        &net,
                        arch.input_shape(),
                        arch.detection(),
                        model::STYLE,
                    )
                })
                .expect("benchmark models register");
            }
            Stack::Route(router)
        }
    }
}

impl Stack {
    pub fn front(&self) -> Front<'_> {
        match self {
            Stack::Serve(s) => Front::Serve(s),
            Stack::Route(r) => Front::Route(r),
        }
    }
}

/// What a control thread did beside the traffic.
#[derive(Default)]
struct Control {
    /// Version-change call → `SwapTicket::wait`, in ms.
    swap_ms: Vec<f64>,
    /// Engines taken out of service, with their serving counters.
    retired: Vec<(&'static str, EngineStats)>,
    problems: Vec<String>,
    spans: Option<Spans>,
}

impl Control {
    /// Waits for a version change and keeps the retired engine's stats.
    fn settle(
        &mut self,
        issued: Instant,
        ticket: Result<SwapTicket, oplixnet::Error>,
        span: &'static str,
        retired_as: impl Fn(u64) -> &'static str,
    ) {
        let outcome = ticket.and_then(SwapTicket::wait);
        let done = Instant::now();
        self.swap_ms
            .push(done.duration_since(issued).as_secs_f64() * 1e3);
        if let Some(s) = &mut self.spans {
            s.record(span, "", issued, done, 0, 0);
        }
        match outcome {
            Ok(SwapOutcome::Applied { retired, version }) => {
                self.retired.push((retired_as(version), retired.stats()));
            }
            Ok(SwapOutcome::Aborted { .. }) => {
                self.problems
                    .push(format!("{span} aborted on a live server"));
            }
            Err(e) => self.problems.push(format!("{span} failed: {e}")),
        }
    }
}

/// Sleeps until `at`, or returns early once the pass is over.
fn wait_until(at: Instant, stop: &mpsc::Receiver<()>, stopped: &mut bool) {
    if *stopped {
        return;
    }
    let now = Instant::now();
    if at > now {
        match stop.recv_timeout(at - now) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            _ => *stopped = true,
        }
    }
}

/// The server's documented canary split: SplitMix64 finalizer of
/// `(seed, draw index)`, routed to the candidate below `fraction`.
/// Replayed here to check the served count against the seeded split.
fn split_unit(seed: u64, n: u64) -> f64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Instance name of the FCNN weights a `fcnn-serve` version runs.
fn fcnn_instance(version: u64) -> &'static str {
    match FCNN_LANES[0].weights(version) {
        Some(Weights::B) => "fcnn-b",
        _ => "fcnn-a",
    }
}

/// `fcnn-serve`: every [`CYCLE`], canary the B deployment at a seeded
/// fraction, promote it, then swap back to a fresh A deployment. A
/// cycle in progress when the pass ends still completes.
fn fcnn_control(
    server: &Server,
    seed: u64,
    t0: Instant,
    stop: mpsc::Receiver<()>,
    traced: bool,
) -> Control {
    let net_a = Weights::A.build(seed);
    let net_b = Weights::B.build(seed);
    let mut c = Control {
        spans: traced.then(|| Spans::new(30)),
        ..Control::default()
    };
    let mut stopped = false;
    for cycle in 0u32.. {
        let base = t0 + CYCLE * cycle;
        wait_until(base + CANARY_AT, &stop, &mut stopped);
        if stopped {
            break;
        }
        let mut rng = model::stream(seed, 0xCA4A_0000 + u64::from(cycle));
        let policy = CanaryPolicy {
            fraction: 0.2 + 0.1 * rng.gen_f64(),
            confidence: None,
            seed: rng.next_u64(),
        };
        let engine = trace::timed(&mut c.spans, "deploy", "fcnn", || Arch::Fcnn.deploy(&net_b));
        let staged = engine.and_then(|e| {
            trace::timed(&mut c.spans, "serve.canary", "", || {
                server.canary(e, policy)
            })
        });
        if let Err(e) = staged {
            c.problems.push(format!("canary failed: {e}"));
            break;
        }

        wait_until(base + PROMOTE_AT, &stop, &mut stopped);
        let issued = Instant::now();
        let ticket = server.promote();
        c.settle(issued, ticket, "serve.promote", |v| fcnn_instance(v - 1));
        match server.canary_stats() {
            Some(cs) => {
                let draws = cs.baseline.routed + cs.candidate.routed;
                let want = (0..draws)
                    .filter(|&n| split_unit(policy.seed, n) < cs.fraction)
                    .count() as u64;
                if cs.seed != policy.seed || cs.candidate.routed != want {
                    c.problems.push(format!(
                        "canary {cycle}: {} of {draws} admissions routed to the \
                         candidate, the seeded split gives {want}",
                        cs.candidate.routed
                    ));
                }
            }
            None => c.problems.push(format!("canary {cycle}: no canary stats")),
        }

        wait_until(base + SWAP_AT, &stop, &mut stopped);
        let engine = trace::timed(&mut c.spans, "deploy", "fcnn", || Arch::Fcnn.deploy(&net_a));
        let issued = Instant::now();
        let ticket = engine.and_then(|e| server.swap(e));
        c.settle(issued, ticket, "serve.swap", |v| fcnn_instance(v - 1));
    }
    c
}

/// `router-mix`: with every burst, at [`MIX_SWAP_AT`], a `swap_model` of
/// one FCNN lane, `fcnn-a` and `fcnn-b` in turn, each lane alternating
/// between the C and A weights. It runs through both phases, so every
/// burst holds a swap.
fn router_control(
    router: &Router,
    seed: u64,
    t0: Instant,
    stop: mpsc::Receiver<()>,
    traced: bool,
) -> Control {
    let nets = [Weights::A.build(seed), Weights::C.build(seed)];
    let mut c = Control {
        spans: traced.then(|| Spans::new(30)),
        ..Control::default()
    };
    let mut swaps = [0usize; 2];
    let mut stopped = false;
    for k in 0u32.. {
        wait_until(t0 + MIX_PERIOD * k + MIX_SWAP_AT, &stop, &mut stopped);
        if stopped {
            break;
        }
        let lane = (k % 2) as usize;
        let name = MIX_LANES[lane].name;
        swaps[lane] += 1;
        let net = &nets[swaps[lane] % 2];
        let issued = Instant::now();
        let ticket = trace::timed(&mut c.spans, "deploy", "fcnn", || {
            router.swap_model(name, net, Arch::Fcnn.detection(), model::STYLE)
        });
        c.settle(issued, ticket, "router.swap", |_| name);
    }
    c
}

/// Everything one pass measured.
pub struct PassOut {
    pub open: OpenOut,
    pub closed: ClosedOut,
    pub serve: Option<ServerStats>,
    pub router: Option<RouterStats>,
    /// Serving counters per model instance, retired engines included.
    pub engines: BTreeMap<&'static str, EngineStats>,
    /// Launch → shutdown.
    pub wall: Duration,
    pub swap_ms: Vec<f64>,
    /// Process CPU seconds spent in the open and the closed phase.
    pub open_cpu_s: f64,
    pub closed_cpu_s: f64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

/// Runs one pass: launch, open loop for `open`, closed loop for
/// `closed`, then shutdown. `traced` records spans around every call
/// into the program.
pub fn run_pass(world: &World, open: Duration, closed: Duration, traced: bool) -> PassOut {
    let w = world.workload;
    let seed = world.seed;
    let mut spans = traced.then(|| Spans::new(20));
    let launched = Instant::now();
    let stack = launch(w, seed, &mut spans);
    let ctx = Ctx {
        lanes: w.lanes(),
        inputs: &world.inputs,
        refs: &world.refs,
        trace_stride: if traced { w.trace_stride() } else { 0 },
    };
    let clients = crate::nproc();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let (open_out, closed_out, control, (open_cpu_s, closed_cpu_s)) = std::thread::scope(|scope| {
        // Arrivals and control steps share this clock.
        let t0 = Instant::now() + Duration::from_millis(2);
        let control = match &stack {
            Stack::Serve(server) if w == Workload::FcnnServe => {
                Some(scope.spawn(move || fcnn_control(server, seed, t0, stop_rx, traced)))
            }
            Stack::Route(router) => {
                Some(scope.spawn(move || router_control(router, seed, t0, stop_rx, traced)))
            }
            _ => None,
        };
        let cpu0 = crate::report::process_cpu_s();
        let o = drive::open_loop(stack.front(), &ctx, w.arrivals(), t0, open, seed);
        let cpu1 = crate::report::process_cpu_s();
        let c = drive::closed_loop(
            stack.front(),
            &ctx,
            clients,
            w.in_flight(),
            closed,
            w.cpu_window(),
            seed,
        );
        let cpu2 = crate::report::process_cpu_s();
        drop(stop_tx);
        let control = control
            .map(|h| h.join().expect("control thread"))
            .unwrap_or_default();
        (o, c, control, (cpu1 - cpu0, cpu2 - cpu1))
    });

    let mut problems = control.problems;
    let mut engines: BTreeMap<&'static str, EngineStats> = BTreeMap::new();
    let mut add = |key: &'static str, s: EngineStats| {
        let e = engines.entry(key).or_default();
        e.samples += s.samples;
        e.batches += s.batches;
        e.busy_nanos += s.busy_nanos;
    };
    for (key, s) in control.retired {
        add(key, s);
    }
    let (serve, router) = match stack {
        Stack::Serve(server) => {
            let stats = server.stats();
            let version = server.version();
            let key = match w {
                Workload::FcnnServe => fcnn_instance(version),
                _ => "lenet",
            };
            let engine = trace::timed(&mut spans, "serve.shutdown", "", || server.shutdown());
            add(key, engine.stats());
            (Some(stats), None)
        }
        Stack::Route(router) => {
            let stats = router.stats();
            let engines = trace::timed(&mut spans, "router.shutdown", "", || router.shutdown());
            for (name, engine) in engines {
                if let Some(key) = INSTANCES.iter().copied().find(|k| *k == name) {
                    add(key, engine.stats());
                }
            }
            (None, Some(stats))
        }
    };
    let wall = launched.elapsed();

    // Every admitted request is answered exactly once.
    let sent = open_out.tally.sent + closed_out.tally.sent;
    let refused = open_out.tally.refused + closed_out.tally.refused;
    let (admitted, served) = match (&serve, &router) {
        (Some(s), _) => (s.submitted, s.served),
        (_, Some(r)) => r.models.values().fold((0, 0), |(a, b), m| {
            (a + m.serve.submitted, b + m.serve.served)
        }),
        _ => (0, 0),
    };
    if admitted + refused != sent || served != admitted {
        problems.push(format!(
            "{sent} requests sent, {refused} refused, {admitted} admitted, {served} answered"
        ));
    }
    if let Some(r) = &router {
        for (name, m) in &r.models {
            let seen = open_out
                .tally
                .deadline_missed
                .get(name.as_str())
                .copied()
                .unwrap_or(0)
                + closed_out
                    .tally
                    .deadline_missed
                    .get(name.as_str())
                    .copied()
                    .unwrap_or(0);
            if seen != m.deadline_missed {
                problems.push(format!(
                    "{name}: {seen} deadline rejections seen, router counted {}",
                    m.deadline_missed
                ));
            }
        }
    }

    let mut open_out = open_out;
    let mut closed_out = closed_out;
    let all_spans: Vec<Span> = spans
        .into_iter()
        .chain(control.spans)
        .chain(open_out.spans.drain(..))
        .chain(closed_out.spans.drain(..))
        .flat_map(|s| s.spans)
        .collect();
    PassOut {
        open: open_out,
        closed: closed_out,
        serve,
        router,
        engines,
        wall,
        swap_ms: control.swap_ms,
        open_cpu_s,
        closed_cpu_s,
        problems,
        spans: all_spans,
    }
}
