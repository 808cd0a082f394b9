//! The load generator: an open loop (one submitting thread plus one
//! ticket-collecting thread, requests sent on a fixed schedule) and a
//! closed loop (`nproc` clients, each keeping a fixed number of requests
//! in flight). Every response is checked against the direct-engine
//! reference of the deployment whose version it was stamped with.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use oplix_linalg::Complex64;
use oplixnet::{
    Client, Error, Priority, Router, RouterClient, RouterRequest, RouterTicket, Server, Ticket,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::model::{self, Arch, Inputs, Weights};
use crate::report::process_cpu_s;
use crate::trace::Spans;

/// How long the open-loop collector sleeps between looks at its pending
/// router tickets.
const POLL: Duration = Duration::from_micros(50);

/// The serving front a workload drives.
#[derive(Clone, Copy)]
pub enum Front<'a> {
    Serve(&'a Server),
    Route(&'a Router),
}

enum Sender {
    Serve(Client),
    Route(RouterClient),
}

impl Front<'_> {
    fn sender(&self) -> Sender {
        match self {
            Front::Serve(s) => Sender::Serve(s.client()),
            Front::Route(r) => Sender::Route(r.client()),
        }
    }

    /// Span name of the submit call.
    fn submit_span(&self) -> &'static str {
        match self {
            Front::Serve(_) => "serve.submit",
            Front::Route(_) => "router.submit",
        }
    }
}

/// A request ready to send (its row already cloned).
enum Staged {
    Serve(Vec<Complex64>),
    Route(RouterRequest),
}

impl Sender {
    fn send(&self, staged: Staged) -> Result<Pending, Error> {
        match (self, staged) {
            (Sender::Serve(c), Staged::Serve(row)) => c.submit(row).map(Pending::Serve),
            (Sender::Route(c), Staged::Route(req)) => c.submit(req).map(Pending::Route),
            _ => unreachable!("a staged request always matches its front"),
        }
    }
}

enum Pending {
    Serve(Ticket),
    Route(RouterTicket),
}

/// A resolved response: the predicted class (`None` on an abstention)
/// and the version stamp it was served under.
struct Answer {
    class: Option<usize>,
    version: u64,
}

impl Pending {
    fn poll(&mut self) -> Option<Result<Answer, Error>> {
        match self {
            Pending::Serve(t) => {
                let version = t.version();
                t.try_wait().map(|r| {
                    r.map(|p| Answer {
                        class: p.class(),
                        version,
                    })
                })
            }
            Pending::Route(t) => t.try_wait().map(|r| {
                r.map(|s| Answer {
                    class: s.prediction.class(),
                    version: s.version,
                })
            }),
        }
    }

    fn wait(self) -> Result<Answer, Error> {
        match self {
            Pending::Serve(t) => {
                let version = t.version();
                t.wait().map(|p| Answer {
                    class: p.class(),
                    version,
                })
            }
            Pending::Route(t) => t.wait().map(|s| Answer {
                class: s.prediction.class(),
                version: s.version,
            }),
        }
    }
}

/// One serving lane: a `Server`, or one model behind the `Router`.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    pub name: &'static str,
    pub arch: Arch,
    /// Share of requests, in percent.
    pub share: u32,
    /// `(tight, loose)` deadline budgets; unused on a `Server`.
    pub budgets: (Duration, Duration),
    /// The weights serving each version: version `v` uses
    /// `versions[(v - 1) % len]`.
    pub versions: &'static [Weights],
    /// How long after a burst starts this lane's share of it is due.
    pub burst_offset: Duration,
}

impl Lane {
    pub fn weights(&self, version: u64) -> Option<Weights> {
        let i = usize::try_from(version.checked_sub(1)?).ok()?;
        self.versions.get(i % self.versions.len()).copied()
    }
}

/// One request of the plan.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub id: u64,
    pub lane: usize,
    pub sample: usize,
    pub tight: bool,
    pub priority: Priority,
}

/// Everything a generator thread needs, shared read-only.
pub struct Ctx<'a> {
    pub lanes: &'a [Lane],
    pub inputs: &'a BTreeMap<Arch, Inputs>,
    pub refs: &'a BTreeMap<Weights, Vec<usize>>,
    /// Requests with `id % trace_stride == 0` get spans (0 = untraced).
    pub trace_stride: u64,
}

impl Ctx<'_> {
    /// Draws request `id` of a seeded stream.
    fn draw(&self, rng: &mut StdRng, id: u64) -> Req {
        let total: u32 = self.lanes.iter().map(|l| l.share).sum();
        let mut pick = rng.gen_range(0..total);
        let mut lane = 0;
        for (i, l) in self.lanes.iter().enumerate() {
            if pick < l.share {
                lane = i;
                break;
            }
            pick -= l.share;
        }
        let sample = rng.gen_range(0..self.inputs[&self.lanes[lane].arch].rows.len());
        let u = rng.gen_f64();
        let (tight, priority) = if u < 0.3 {
            (true, Priority::Interactive)
        } else if u < 0.8 {
            (false, Priority::Standard)
        } else {
            (false, Priority::Batch)
        };
        Req {
            id,
            lane,
            sample,
            tight,
            priority,
        }
    }

    fn stage(&self, front: Front<'_>, req: &Req, due: Instant) -> Staged {
        let lane = &self.lanes[req.lane];
        let row = self.inputs[&lane.arch].rows[req.sample].clone();
        match front {
            Front::Serve(_) => Staged::Serve(row),
            Front::Route(_) => {
                let budget = if req.tight {
                    lane.budgets.0
                } else {
                    lane.budgets.1
                };
                Staged::Route(
                    RouterRequest::new(lane.name, row)
                        .deadline_at(due + budget)
                        .priority(req.priority),
                )
            }
        }
    }

    fn traced(&self, req: &Req) -> bool {
        self.trace_stride > 0 && req.id.is_multiple_of(self.trace_stride)
    }

    /// Scores one resolution into `tally`; true when it was served
    /// correctly.
    fn score(&self, req: &Req, result: Result<Answer, Error>, tally: &mut Tally) -> bool {
        let lane = &self.lanes[req.lane];
        match result {
            Ok(answer) => {
                *tally
                    .per_version
                    .entry((lane.name, answer.version))
                    .or_default() += 1;
                let want = lane
                    .weights(answer.version)
                    .and_then(|w| self.refs.get(&w))
                    .map(|r| r[req.sample]);
                if answer.class.is_some() && answer.class == want {
                    tally.ok += 1;
                    true
                } else {
                    tally.wrong += 1;
                    tally.note(format!(
                        "request {} on {} v{}: served {:?}, reference {:?}",
                        req.id, lane.name, answer.version, answer.class, want
                    ));
                    false
                }
            }
            Err(e) => {
                self.fail(req, e, tally);
                false
            }
        }
    }

    fn fail(&self, req: &Req, e: Error, tally: &mut Tally) {
        match e {
            Error::DeadlineExceeded { .. } => {
                *tally
                    .deadline_missed
                    .entry(self.lanes[req.lane].name)
                    .or_default() += 1;
                tally.failed += 1;
            }
            Error::ServerClosed => {
                tally.lost += 1;
                tally.note(format!("request {} lost: {e}", req.id));
            }
            other => {
                tally.failed += 1;
                tally.note(format!("request {} failed: {other}", req.id));
            }
        }
    }
}

/// Request outcomes of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Served, but not the reference prediction of the stamped version.
    pub wrong: u64,
    /// Refused, deadline-rejected or otherwise failed (typed errors).
    pub failed: u64,
    /// Admitted but never answered.
    pub lost: u64,
    /// Turned away at submit (a subset of `failed`).
    pub refused: u64,
    pub deadline_missed: BTreeMap<&'static str, u64>,
    /// Responses per `(lane, version stamp)`.
    pub per_version: BTreeMap<(&'static str, u64), u64>,
    pub notes: Vec<String>,
}

impl Tally {
    /// Requests not served correctly: failed, wrong or lost.
    pub fn unsuccessful(&self) -> u64 {
        self.failed + self.wrong + self.lost
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.failed += o.failed;
        self.lost += o.lost;
        self.refused += o.refused;
        for (k, v) in o.deadline_missed {
            *self.deadline_missed.entry(k).or_default() += v;
        }
        for (k, v) in o.per_version {
            *self.per_version.entry(k).or_default() += v;
        }
        for n in o.notes {
            self.note(n);
        }
    }
}

/// The open loop's arrival schedule.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Evenly spaced at `rate` requests/s.
    Steady { rate: f64 },
    /// On/off bursts: `size` requests every `period`, each due at the
    /// burst start plus its lane's `burst_offset`, and nothing in between.
    Bursts { size: u64, period: Duration },
}

impl Arrivals {
    /// The group starting at request `k`: its due time relative to the
    /// phase start, and how many requests share it.
    fn group(&self, k: u64) -> (Duration, u64) {
        match *self {
            Arrivals::Steady { rate } => (Duration::from_secs_f64(k as f64 / rate), 1),
            Arrivals::Bursts { size, period } => {
                (period * u32::try_from(k / size).unwrap_or(u32::MAX), size)
            }
        }
    }

    /// Mean requests/s.
    pub fn rate(&self) -> f64 {
        match *self {
            Arrivals::Steady { rate } => rate,
            Arrivals::Bursts { size, period } => size as f64 / period.as_secs_f64(),
        }
    }
}

pub struct OpenOut {
    pub tally: Tally,
    /// Per served request: (due time since the phase start, due time →
    /// ticket resolved in ms).
    pub latency: Vec<(Duration, f64)>,
    /// How late each send ran against its due time, in ms.
    pub late_ms: Vec<f64>,
    /// CPU time of the ticket-collecting thread, in percent of its wall
    /// time.
    pub collector_cpu_pct: f64,
    pub spans: Vec<Spans>,
}

/// A request the open loop sent: when it was due, when its submit
/// returned, and its submit span.
struct Sent {
    req: Req,
    due: Instant,
    sent: Instant,
    span: u64,
}

/// Sends requests on `arrivals` from `start` for `duration`; latency is
/// timed from each request's due time, so a stall also counts against the
/// requests queued behind it. The sender sleeps until each request is due.
pub fn open_loop(
    front: Front<'_>,
    ctx: &Ctx<'_>,
    arrivals: Arrivals,
    start: Instant,
    duration: Duration,
    seed: u64,
) -> OpenOut {
    let (tx, rx) = mpsc::channel::<(Sent, Pending)>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let client = front.sender();
            let mut rng = model::stream(seed, 0x09E4);
            let mut tally = Tally::default();
            let mut late_ms = Vec::new();
            let mut spans = (ctx.trace_stride > 0).then(|| Spans::new(1));
            let mut k = 0u64;
            'plan: loop {
                let (base, n) = arrivals.group(k);
                if base >= duration {
                    break;
                }
                let mut group: Vec<(Duration, Req)> = (0..n)
                    .map(|i| {
                        let req = ctx.draw(&mut rng, k + i + 1);
                        (base + ctx.lanes[req.lane].burst_offset, req)
                    })
                    .collect();
                group.sort_by_key(|g| g.0);
                k += n;
                for (offset, req) in group {
                    let due = start + offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let staged = ctx.stage(front, &req, due);
                    let t0 = Instant::now();
                    late_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                    let result = client.send(staged);
                    let t1 = Instant::now();
                    tally.sent += 1;
                    let span = match (&mut spans, ctx.traced(&req)) {
                        (Some(s), true) => s.record(front.submit_span(), "", t0, t1, 0, req.id),
                        _ => 0,
                    };
                    match result {
                        Ok(pending) => {
                            let sent = Sent {
                                req,
                                due,
                                sent: t1,
                                span,
                            };
                            if tx.send((sent, pending)).is_err() {
                                break 'plan;
                            }
                        }
                        Err(e) => {
                            tally.refused += 1;
                            ctx.fail(&req, e, &mut tally);
                        }
                    }
                }
            }
            drop(tx);
            (tally, late_ms, spans)
        });

        let (cpu0, wall0) = (crate::report::thread_cpu_s(), Instant::now());
        let mut tally = Tally::default();
        let mut latency = Vec::new();
        let mut spans = (ctx.trace_stride > 0).then(|| Spans::new(2));
        let mut resolved = |m: &Sent, result, now: Instant| {
            if ctx.score(&m.req, result, &mut tally) {
                latency.push((
                    m.due.duration_since(start),
                    now.saturating_duration_since(m.due).as_secs_f64() * 1e3,
                ));
            }
            if let (Some(s), true) = (&mut spans, ctx.traced(&m.req)) {
                s.record("ticket.wait", "", m.sent, now, m.span, m.req.id);
            }
        };
        match front {
            // A server answers in admission order: block on each ticket.
            Front::Serve(_) => {
                for (m, pending) in rx {
                    let result = pending.wait();
                    resolved(&m, result, Instant::now());
                }
            }
            // Router lanes answer out of order (EDF, lanes of different
            // speed): look at every pending ticket, then sleep, so the
            // collector never spins beside the lanes it times.
            Front::Route(_) => {
                let mut pending: Vec<(Sent, Pending)> = Vec::new();
                let mut open = true;
                while open || !pending.is_empty() {
                    if pending.is_empty() {
                        match rx.recv() {
                            Ok(m) => pending.push(m),
                            Err(_) => open = false,
                        }
                    }
                    loop {
                        match rx.try_recv() {
                            Ok(m) => pending.push(m),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                open = false;
                                break;
                            }
                        }
                    }
                    let now = Instant::now();
                    pending.retain_mut(|(m, p)| match p.poll() {
                        None => true,
                        Some(result) => {
                            resolved(m, result, now);
                            false
                        }
                    });
                    if !pending.is_empty() {
                        std::thread::sleep(POLL);
                    }
                }
            }
        }
        let collector_cpu_pct =
            100.0 * (crate::report::thread_cpu_s() - cpu0) / wall0.elapsed().as_secs_f64();
        let (sent_tally, late_ms, sender_spans) = sender.join().expect("open-loop sender");
        tally.absorb(sent_tally);
        OpenOut {
            tally,
            latency,
            late_ms,
            collector_cpu_pct,
            spans: sender_spans.into_iter().chain(spans).collect(),
        }
    })
}

pub struct ClosedOut {
    pub tally: Tally,
    /// Correctly served completions that landed inside the phase; the
    /// drain after it is not counted.
    pub in_phase: u64,
    /// Per window of the phase: process CPU seconds spent in it, and the
    /// correctly served completions that landed in it.
    pub windows: Vec<(f64, u64)>,
    pub spans: Vec<Spans>,
}

/// `clients` threads, each keeping `in_flight` requests outstanding and
/// sending the next only as the oldest resolves, for `duration`.
/// Refused, failed and wrong requests are not completions. One more
/// thread wakes every `window` to read the process CPU clock and the
/// completion count, and sleeps in between.
pub fn closed_loop(
    front: Front<'_>,
    ctx: &Ctx<'_>,
    clients: usize,
    in_flight: usize,
    duration: Duration,
    window: Duration,
    seed: u64,
) -> ClosedOut {
    let start = Instant::now();
    let end = start + duration;
    let served = AtomicU64::new(0);
    let served = &served;
    let mut windows = Vec::new();
    let results: Vec<(Tally, Option<Spans>)> = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut marks = vec![(process_cpu_s(), 0)];
            let mut at = start + window;
            while at <= end {
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push((process_cpu_s(), served.load(Ordering::Relaxed)));
                at += window;
            }
            marks
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let client = front.sender();
                    let mut rng = model::stream(seed, 0xC105_0000 + c as u64);
                    let mut tally = Tally::default();
                    let mut spans = (ctx.trace_stride > 0).then(|| Spans::new(10 + c as u64));
                    let mut outstanding: VecDeque<(Req, Instant, u64, Pending)> = VecDeque::new();
                    let mut next_id = (c as u64) << 32;
                    loop {
                        let now = Instant::now();
                        while now < end && outstanding.len() < in_flight {
                            next_id += 1;
                            let req = ctx.draw(&mut rng, next_id);
                            let t0 = Instant::now();
                            let staged = ctx.stage(front, &req, t0);
                            let s0 = Instant::now();
                            let result = client.send(staged);
                            let s1 = Instant::now();
                            tally.sent += 1;
                            let span = match (&mut spans, ctx.traced(&req)) {
                                (Some(s), true) => {
                                    s.record(front.submit_span(), "", s0, s1, 0, req.id)
                                }
                                _ => 0,
                            };
                            match result {
                                Ok(p) => outstanding.push_back((req, s1, span, p)),
                                Err(e) => {
                                    tally.refused += 1;
                                    ctx.fail(&req, e, &mut tally);
                                }
                            }
                        }
                        let Some((req, sent, span, pending)) = outstanding.pop_front() else {
                            break;
                        };
                        let result = pending.wait();
                        let done = Instant::now();
                        if ctx.score(&req, result, &mut tally) && done < end {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        if let (Some(s), true) = (&mut spans, ctx.traced(&req)) {
                            s.record("ticket.wait", "", sent, done, span, req.id);
                        }
                    }
                    (tally, spans)
                })
            })
            .collect();
        let marks = sampler.join().expect("closed-loop sampler");
        windows = marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client"))
            .collect()
    });
    let mut out = ClosedOut {
        tally: Tally::default(),
        in_phase: served.load(Ordering::Relaxed),
        windows,
        spans: Vec::new(),
    };
    for (t, s) in results {
        out.tally.absorb(t);
        out.spans.extend(s);
    }
    out
}
