//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;

use crate::model::{all_mesh_shapes, ARCHES};
use crate::workload::INSTANCES;

/// The end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_us_per_sample", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in print order. Each workload reports all of
/// them; a metric of a layer or model the workload does not exercise
/// reads 0.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| c.push((name, unit));
    add("wall.throughput_sps".into(), "1/s");
    add("wall.latency_p50_ms".into(), "ms");
    add("wall.latency_p99_ms".into(), "ms");
    add("cpu.open_us_per_sample".into(), "us");
    add("assign.ns_per_sample".into(), "ns");
    for a in ARCHES {
        add(format!("deploy.model_ms.{}", a.key()), "ms");
    }
    add("deploy.cache_hits".into(), "count");
    add("deploy.cache_misses".into(), "count");
    add("deploy.cache_resident_bytes".into(), "bytes");
    for a in ARCHES {
        let k = a.key();
        add(format!("chip.optical_stages.{k}"), "count");
        add(format!("chip.mesh_depth_total.{k}"), "count");
        add(format!("chip.insertion_loss_db_total.{k}"), "dB");
        add(format!("chip.latency_ps_total.{k}"), "ps");
        add(format!("chip.mzi_count.{k}"), "count");
    }
    for (m, n) in all_mesh_shapes() {
        add(format!("photonics.mesh_ns_per_sample.{m}x{n}"), "ns");
        add(format!("photonics.mzi_count.{m}x{n}"), "count");
    }
    add("pool.launch_us".into(), "us");
    add("pool.workers_alive".into(), "count");
    for a in ARCHES {
        add(format!("engine.window_us.w1.{}", a.key()), "us");
        add(format!("engine.window_us.wN.{}", a.key()), "us");
    }
    for i in INSTANCES {
        add(format!("engine.busy_us_per_sample.{i}"), "us");
        add(format!("engine.busy_share.{i}"), "ratio");
        add(format!("engine.batches.{i}"), "count");
    }
    add("serve.submit_us_p50".into(), "us");
    add("serve.submit_us_p99".into(), "us");
    add("serve.batches".into(), "count");
    add("serve.mean_batch_fill".into(), "count");
    add("serve.max_wait_ms".into(), "ms");
    add("serve.rejected".into(), "count");
    add("serve.swap_ms_p50".into(), "ms");
    add("router.submit_us_p50".into(), "us");
    add("router.submit_us_p99".into(), "us");
    for i in INSTANCES {
        add(format!("router.wait_p50_ms.{i}"), "ms");
        add(format!("router.wait_p99_ms.{i}"), "ms");
        add(format!("router.deadline_missed.{i}"), "count");
        add(format!("router.mean_batch_fill.{i}"), "count");
    }
    add("router.cache_shared_deployments".into(), "count");
    add("router.swap_ms_p50".into(), "ms");
    add("loadgen.late_p99_ms".into(), "ms");
    add("loadgen.collector_cpu_pct".into(), "%");
    for phase in ["open", "closed"] {
        add(format!("loadgen.{phase}_sent"), "count");
        add(format!("loadgen.{phase}_ok"), "count");
        add(format!("loadgen.{phase}_failed"), "count");
    }
    add("loadgen.error_rate".into(), "ratio");
    add("trace.overhead_pct".into(), "%");
    add("trace.spans".into(), "count");
    c
}

/// Named values with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The listed metrics in order; unset ones read 0.
    pub fn select(&self, names: &[(String, &'static str)]) -> Vec<(String, f64, &'static str)> {
        names
            .iter()
            .map(|(n, u)| {
                let v = self.0.get(n).map_or(0.0, |(v, _)| *v);
                (n.clone(), if v.is_finite() { v } else { 0.0 }, *u)
            })
            .collect()
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: correctness, request counts and every metric.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time every thread of this process has run, exited ones included,
/// in seconds. The kernel leaves out time the hypervisor stole from the
/// vCPU and time spent waiting for a core, so on a shared host this
/// clock moves with the work done, not with how busy the host was.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the C library's `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// CPU time the calling thread has run (`/proc/thread-self/schedstat`),
/// in seconds; 0 where the kernel does not report it.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}
