//! The repository benchmark: the OplixNet serving stack driven through
//! its public API on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fcnn-serve|lenet-serve|router-mix|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a separate traced pass, writes its spans to
//! `perfbench/out/<workload>.spans.csv`, and reports the tracing overhead
//! against an untraced pass of the same length. The last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The process exits non-zero when any request is not served correctly
//! (wrong, lost, refused or deadline-rejected), or a pinned count
//! changed. See `perfbench/METRICS.md`.

mod drive;
mod layers;
mod model;
mod report;
mod trace;
mod workload;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use oplixnet::RouterRequest;

use report::{json_str, median, quantile, Metrics};
use workload::{Stack, Workload, World, INSTANCES, WORKLOADS};

/// Separate-process set-ups before the serving pass, and again after it;
/// `setup_s` is the median CPU time of all of them. Set-up time varies by
/// a tenth or more between fresh processes, and probes at both ends of
/// the run sample more than one moment of the host.
const SETUP_PROBES: usize = 6;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of (0, 120]", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: --workload must be one of fcnn-serve, lenet-serve, router-mix, all");
        return ExitCode::from(2);
    };
    if args.setup_probe {
        return setup_probe(w, args.seed);
    }
    run_workload(w, args.seed, args.seconds, args.trace)
}

/// Child mode: set up like a user's process would (inputs, models,
/// deployment, server or router), admit one request, say so, shut down.
fn setup_probe(w: Workload, seed: u64) -> ExitCode {
    let inputs = World::inputs(w, seed);
    let stack = workload::launch(w, seed, &mut None);
    let lane = &w.lanes()[0];
    let row = inputs[&lane.arch].rows[0].clone();
    // The "admitted" line carries this process's CPU time, and the timing
    // process stops its wall clock on it; serving the request out is not
    // part of set-up.
    let admitted = || {
        println!("admitted {}", report::process_cpu_s());
        let _ = std::io::stdout().flush();
    };
    let served = match &stack {
        Stack::Serve(s) => s.client().submit(row).is_ok_and(|t| {
            admitted();
            t.wait().is_ok()
        }),
        Stack::Route(r) => r.submit(RouterRequest::new(lane.name, row)).is_ok_and(|t| {
            admitted();
            t.wait().is_ok()
        }),
    };
    if served {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set-up probe: wall seconds from spawn to the first admitted
/// request, and the CPU seconds the probe process had used by then.
struct Setup {
    wall: f64,
    cpu: f64,
}

/// Runs `SETUP_PROBES` fresh processes up to their first admitted
/// request.
fn measure_setup(w: Workload, seed: u64, problems: &mut Vec<String>) -> Vec<Setup> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut times = Vec::new();
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        let child = Command::new(&exe)
            .args(["--setup-probe", "--workload", w.name(), "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                problems.push(format!("setup probe did not start: {e}"));
                break;
            }
        };
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let status = child.wait();
        let cpu = line
            .trim()
            .strip_prefix("admitted ")
            .and_then(|c| c.parse::<f64>().ok());
        if let (Some(cpu), true) = (cpu, status.is_ok_and(|s| s.success())) {
            times.push(Setup { wall: elapsed, cpu });
        } else {
            problems.push("setup probe did not admit its first request".into());
        }
    }
    times
}

/// `.git/HEAD` resolved to a commit id, when the checkout has one.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs")).and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`Cargo.toml` plus every `.rs` and
/// `Cargo.toml` under `crates/`), identifying the code where the checkout
/// carries no commit.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn env_line(w: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let commit = commit();
    let digest = if commit == "unknown" {
        json_str(&source_digest())
    } else {
        "null".into()
    };
    let arrivals = match w.arrivals() {
        drive::Arrivals::Steady { .. } => "steady".to_string(),
        drive::Arrivals::Bursts { size, period } => {
            format!("bursts of {size} every {} ms", period.as_millis())
        }
    };
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \
         \"open_rate_rps\": {}, \"arrivals\": {}, \"closed_clients\": {}, \
         \"closed_in_flight_per_client\": {}}}}}",
        json_str(w.name()),
        nproc(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit),
        digest,
        w.arrivals().rate(),
        json_str(&arrivals),
        nproc(),
        w.in_flight(),
    )
}

fn print_metrics(title: &str, metrics: &[(String, f64, &'static str)]) {
    println!("{title}");
    for (n, v, u) in metrics {
        println!("  {n:<44} {v:>16.4} {u}");
    }
}

fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let nproc = nproc();
    let mut problems = Vec::new();
    let mut setup = if trace {
        Vec::new()
    } else {
        measure_setup(w, seed, &mut problems)
    };
    let world = World::build(w, seed, nproc);
    problems.extend(world.problems.iter().cloned());

    // One third of each pass is the open loop, whose wall-clock latency
    // is printed; two thirds the closed loop, whose CPU cost per sample
    // is the gated figure. A traced run splits its time between an
    // untraced and a traced pass.
    let pass_s = if trace { seconds / 2.0 } else { seconds };
    let open = Duration::from_secs_f64(pass_s / 3.0);
    let closed = Duration::from_secs_f64(pass_s * 2.0 / 3.0);
    let mut layer_metrics = Metrics::default();
    let mut layer_spans = trace.then(|| trace::Spans::new(40));
    if trace {
        problems.extend(layers::measure(
            &world,
            &mut layer_spans,
            &mut layer_metrics,
        ));
    }
    let base = workload::run_pass(&world, open, closed, false);
    let rss = report::peak_rss_mb();
    if !trace {
        setup.extend(measure_setup(w, seed, &mut problems));
    }
    let summary = Summary::of(&base, closed);

    let mut passes = vec![base];
    if trace {
        passes.push(workload::run_pass(&world, open, closed, true));
    }
    for p in &passes {
        problems.extend(p.problems.iter().cloned());
    }
    let tallies: Vec<&drive::Tally> = passes
        .iter()
        .flat_map(|p| [&p.open.tally, &p.closed.tally])
        .collect();
    let sent: u64 = tallies.iter().map(|t| t.sent).sum();
    let failed: u64 = tallies.iter().map(|t| t.unsuccessful()).sum();
    let error_rate = failed as f64 / sent.max(1) as f64;
    // The program serves every request of every workload correctly at
    // the fixed schedules, so any refusal, deadline rejection or other
    // failure is a regression, not noise.
    for t in &tallies {
        if t.unsuccessful() > 0 {
            problems.push(format!(
                "{} wrong, {} lost and {} failed ({} refused) of {} requests",
                t.wrong, t.lost, t.failed, t.refused, t.sent
            ));
        }
        problems.extend(t.notes.iter().cloned());
    }

    let setup_cpu: Vec<f64> = setup.iter().map(|s| s.cpu).collect();
    let setup_wall: Vec<f64> = setup.iter().map(|s| s.wall).collect();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_cpu), "s");
    metrics.set("cpu_us_per_sample", summary.cpu_us_per_sample, "us");
    metrics.set("peak_rss_mb", rss, "MB");
    let e2e_names: Vec<(String, &'static str)> = report::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    let e2e = metrics.select(&e2e_names);

    println!(
        "perfbench {} seed {seed}, {seconds} s, {nproc} cores",
        w.name()
    );
    print_metrics("end to end (untraced pass)", &e2e);
    println!("  {:<44} {:>16.6} ratio", "error_rate", error_rate);
    if !setup.is_empty() {
        println!(
            "  set-up wall time: median {:.4} s of {} probes",
            median(&setup_wall),
            setup.len()
        );
    }
    summary.print(&passes[0].open);

    let out_metrics = if trace {
        let traced = &passes[1];
        let traced_summary = Summary::of(traced, closed);
        layer_metrics.set(
            "trace.overhead_pct",
            100.0 * (traced_summary.cpu_us_per_sample / summary.cpu_us_per_sample - 1.0),
            "%",
        );
        layer_metrics.set("wall.throughput_sps", summary.throughput, "1/s");
        layer_metrics.set("wall.latency_p50_ms", summary.p50, "ms");
        layer_metrics.set("wall.latency_p99_ms", summary.p99, "ms");
        layer_metrics.set(
            "cpu.open_us_per_sample",
            summary.open_cpu_us_per_sample,
            "us",
        );
        per_layer(&world, traced, &mut layer_metrics, error_rate);
        let mut spans = layer_spans.map(|s| s.spans).unwrap_or_default();
        spans.extend(traced.spans.iter().copied());
        layer_metrics.set("trace.spans", spans.len() as f64, "count");
        let origin = spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or_else(Instant::now);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.csv", w.name()));
        match trace::write_csv(&path, origin, &spans) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
        }
        let list = layer_metrics.select(&report::per_layer_catalog());
        print_metrics("per layer (traced pass)", &list);
        for (arch, chips) in &world.chips {
            println!("  chip reports {}: {}", arch.key(), chips.rows);
        }
        list
    } else {
        e2e
    };

    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", env_line(w, seed, seconds, trace));
    println!(
        "{}",
        report::result_line(correct, sent, failed, &out_metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The serving figures of one pass.
struct Summary {
    /// Closed loop: CPU time of the whole process (server, engine
    /// workers, control steps and load generator) per correctly served
    /// sample, in µs, the median over the phase's windows. CPU time
    /// leaves out what the hypervisor stole and time spent waiting for a
    /// core, so it repeats on a shared host where wall-clock figures do
    /// not; the median keeps a few windows of a noisy neighbour's cache
    /// traffic out of it.
    cpu_us_per_sample: f64,
    /// The same over the whole closed phase, drain included.
    phase_cpu_us_per_sample: f64,
    /// The same over the open loop.
    open_cpu_us_per_sample: f64,
    /// Closed loop: correctly served completions per wall-clock second.
    throughput: f64,
    /// Open loop: due time → ticket resolved, in ms, over the phase.
    p50: f64,
    p99: f64,
    samples: usize,
}

impl Summary {
    fn of(pass: &workload::PassOut, closed: Duration) -> Summary {
        let per = |cpu_s: f64, n: u64| cpu_s * 1e6 / n.max(1) as f64;
        let latency: Vec<f64> = pass.open.latency.iter().map(|l| l.1).collect();
        let windows: Vec<f64> = pass
            .closed
            .windows
            .iter()
            .map(|&(cpu_s, n)| per(cpu_s, n))
            .collect();
        let phase = per(pass.closed_cpu_s, pass.closed.tally.ok);
        Summary {
            // A phase shorter than one window has only its whole.
            cpu_us_per_sample: if windows.is_empty() {
                phase
            } else {
                median(&windows)
            },
            phase_cpu_us_per_sample: phase,
            open_cpu_us_per_sample: per(pass.open_cpu_s, pass.open.tally.ok),
            throughput: pass.closed.in_phase as f64 / closed.as_secs_f64(),
            p50: quantile(&latency, 0.5),
            p99: quantile(&latency, 0.99),
            samples: latency.len(),
        }
    }

    fn print(&self, open: &drive::OpenOut) {
        println!(
            "  wall clock (not gated; moves with the host's load): closed-loop \
             throughput {:.1} samples/s; open-loop latency p50 {:.4} ms, p99 {:.4} ms \
             over {} samples",
            self.throughput, self.p50, self.p99, self.samples
        );
        println!(
            "  CPU us/sample: closed phase as a whole {:.3}, open loop {:.3}; generator late \
             p99: {:.3} ms; collector CPU {:.1}% of a core",
            self.phase_cpu_us_per_sample,
            self.open_cpu_us_per_sample,
            quantile(&open.late_ms, 0.99),
            open.collector_cpu_pct
        );
    }
}

/// Per-layer metrics of the traced pass, from its spans and the stats
/// snapshots the program exposes.
fn per_layer(world: &World, t: &workload::PassOut, m: &mut Metrics, error_rate: f64) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for arch in world.workload.arches() {
        let deploys = trace::durations(&t.spans, "deploy", Some(arch.key()));
        m.set(
            &format!("deploy.model_ms.{}", arch.key()),
            median(&deploys) / 1e6,
            "ms",
        );
    }
    let cache = oplixnet::deploy_cache_stats();
    m.set("deploy.cache_hits", cache.hits as f64, "count");
    m.set("deploy.cache_misses", cache.misses as f64, "count");
    m.set(
        "deploy.cache_resident_bytes",
        cache.resident_bytes as f64,
        "bytes",
    );
    for (arch, c) in &world.chips {
        let k = arch.key();
        m.set(
            &format!("chip.optical_stages.{k}"),
            c.optical_stages as f64,
            "count",
        );
        m.set(
            &format!("chip.mesh_depth_total.{k}"),
            c.mesh_depth as f64,
            "count",
        );
        m.set(
            &format!("chip.insertion_loss_db_total.{k}"),
            c.insertion_loss_db,
            "dB",
        );
        m.set(&format!("chip.latency_ps_total.{k}"), c.latency_ps, "ps");
        m.set(&format!("chip.mzi_count.{k}"), c.mzis as f64, "count");
    }
    let wall = t.wall.as_nanos() as f64;
    for (key, e) in &t.engines {
        let per = if e.samples == 0 {
            0.0
        } else {
            e.busy_nanos as f64 / e.samples as f64 / 1e3
        };
        m.set(&format!("engine.busy_us_per_sample.{key}"), per, "us");
        m.set(
            &format!("engine.busy_share.{key}"),
            e.busy_nanos as f64 / wall,
            "ratio",
        );
        m.set(&format!("engine.batches.{key}"), e.batches as f64, "count");
    }
    if let Some(s) = &t.serve {
        let submits = trace::durations(&t.spans, "serve.submit", None);
        m.set("serve.submit_us_p50", quantile(&submits, 0.5) / 1e3, "us");
        m.set("serve.submit_us_p99", quantile(&submits, 0.99) / 1e3, "us");
        m.set("serve.batches", s.batches as f64, "count");
        m.set("serve.mean_batch_fill", s.mean_batch_fill(), "count");
        m.set("serve.max_wait_ms", ms(s.max_wait_observed), "ms");
        m.set("serve.rejected", s.rejected as f64, "count");
        m.set("serve.swap_ms_p50", median(&t.swap_ms), "ms");
    }
    if let Some(r) = &t.router {
        let submits = trace::durations(&t.spans, "router.submit", None);
        m.set("router.submit_us_p50", quantile(&submits, 0.5) / 1e3, "us");
        m.set("router.submit_us_p99", quantile(&submits, 0.99) / 1e3, "us");
        for name in INSTANCES {
            if let Some(s) = r.models.get(name) {
                m.set(&format!("router.wait_p50_ms.{name}"), ms(s.wait_p50), "ms");
                m.set(&format!("router.wait_p99_ms.{name}"), ms(s.wait_p99), "ms");
                m.set(
                    &format!("router.deadline_missed.{name}"),
                    s.deadline_missed as f64,
                    "count",
                );
                m.set(
                    &format!("router.mean_batch_fill.{name}"),
                    s.serve.mean_batch_fill(),
                    "count",
                );
            }
        }
        m.set(
            "router.cache_shared_deployments",
            r.cache_shared_deployments as f64,
            "count",
        );
        m.set("router.swap_ms_p50", median(&t.swap_ms), "ms");
    }
    m.set("loadgen.late_p99_ms", quantile(&t.open.late_ms, 0.99), "ms");
    m.set("loadgen.collector_cpu_pct", t.open.collector_cpu_pct, "%");
    for (phase, tally) in [("open", &t.open.tally), ("closed", &t.closed.tally)] {
        m.set(&format!("loadgen.{phase}_sent"), tally.sent as f64, "count");
        m.set(&format!("loadgen.{phase}_ok"), tally.ok as f64, "count");
        m.set(
            &format!("loadgen.{phase}_failed"),
            tally.unsuccessful() as f64,
            "count",
        );
    }
    m.set("loadgen.error_rate", error_rate, "ratio");
}

/// Runs every workload, each in its own process, and sums them up.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed"])
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .arg("--trace")
            .arg(if args.trace { "1" } else { "0" })
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out else {
            correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        correct &= out.status.success();
        let Some(last) = text.lines().last() else {
            correct = false;
            continue;
        };
        // The child's result line: sum its counts, nest its metrics.
        let field = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        if let Some(body) = last.split_once("\"metrics\": ").map(|(_, m)| m) {
            let body = body.strip_suffix('}').unwrap_or(body);
            metrics.push(format!("{}: {body}", json_str(w.name())));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
