//! The serving lane: one bounded admission queue, one coalescing batcher
//! thread and one versioned engine rack. It is the single core under both
//! serving façades — a [`crate::serve::Server`] is one lane, a
//! [`crate::router::Router`] is a name → lane table.
//!
//! ```text
//!  admission ──▶ VersionGate ──▶ bounded MPSC ──▶ EDF pending set ──▶ serve step
//!  (width, stop,  (stamp v,       (queue_cap)      (≤ queue_cap,      (version-grouped,
//!   deadline)      send)                            coalesce window)    canary tally,
//!                                                                       fair share, drift)
//! ```
//!
//! * **Admission** checks the sample width, the stop flag and an
//!   already-passed deadline, then stamps the serving version and sends
//!   under the [`VersionGate`]'s read lock: blocking sends wait for room,
//!   non-blocking ones surface [`Error::QueueFull`].
//! * **Coalescing** moves requests from the channel into an
//!   [`EdfQueue`] only while it holds fewer than `queue_cap`, so a lane's
//!   admitted-but-unanswered depth stays ≤ 2·`queue_cap` (channel plus
//!   pending set). The `max_wait` window is anchored at the oldest
//!   request's admission, and a queued deadline inside the window cuts it
//!   short. A [`Control`] ends the window: everything admitted before it
//!   is flushed, then it applies — the micro-batch boundary a version
//!   change is atomic at.
//! * **Serving** pops `max_batch` entries in EDF order (rejecting those
//!   whose deadline passed with [`Error::DeadlineExceeded`]), groups them
//!   by stamped version, sizes the engine to the lane's fair share of the
//!   `--jobs` budget when it has a [`FairSlot`], tallies canary traffic,
//!   and takes one [`PhaseDrift`] step per cycle that served samples.
//!
//! Without deadlines and at one priority the EDF set is exactly
//! arrival-order FIFO, which is what the single-model server relies on.

use crate::deploy::ChipReport;
use crate::engine::{argmax, Confidence, InferenceEngine};
use crate::error::Error;
use crate::router::{EdfQueue, Priority, Served};
use crate::serve::{
    CanaryPolicy, CanaryStats, Prediction, ServerStats, SwapOutcome, SwapTicket, VersionTally,
};
use oplix_linalg::Complex64;
use oplix_photonics::PhaseDrift;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Recovers the guard from a possibly poisoned lock.
///
/// A poisoned lock means a *different* thread panicked while holding it.
/// Every lock on the serving tier guards state that is updated atomically
/// with respect to the guard (a version counter, a lane table, a tally
/// snapshot), so the value inside stays consistent even if a sibling
/// thread died elsewhere — and the panic policy forbids converting that
/// thread's crash into this one's. Take the guard and keep serving.
pub(crate) fn relock<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One queued request: the staged sample, its scheduling key, the
/// serving version stamped at admission, an optional ground-truth label
/// for canary tallies, the reply channel, and the admission timestamp
/// queue waits are measured from.
struct Request {
    fields: Vec<Complex64>,
    label: Option<usize>,
    deadline: Option<Instant>,
    priority: Priority,
    version: u64,
    reply: mpsc::Sender<Result<Served, Error>>,
    enqueued_at: Instant,
}

/// What flows through a lane queue: requests interleaved with
/// version-change controls. Because the queue is FIFO and controls are
/// published under the version gate's write lock, a control is popped
/// *after* every request stamped with the old version and *before* every
/// request stamped with the new one.
enum Envelope {
    Request(Request),
    Control(Control),
}

/// A version-change command riding the data queue.
enum Control {
    /// Replace the current engine with `engine`, serving as `version`
    /// from this micro-batch boundary on.
    Swap {
        engine: Box<InferenceEngine>,
        version: u64,
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
    /// Stage `engine` as the canary candidate for `version`; admissions
    /// stamped with `version` serve through it while tallies accumulate.
    Canary {
        engine: Box<InferenceEngine>,
        version: u64,
        confidence: Option<Confidence>,
        tallies: Arc<CanaryCounters>,
    },
    /// Retire the baseline and make the canary candidate current.
    Promote {
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
    /// Discard the canary candidate; the baseline keeps the lane.
    Rollback {
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
}

/// The live canary split, as the admission side sees it.
struct CanarySplit {
    version: u64,
    fraction: f64,
    drawn: AtomicU64,
    seed: u64,
    tallies: Arc<CanaryCounters>,
}

/// The version gate's guarded state: the current serving version, the
/// live canary split, if one is staged, and the admission side of the
/// lane queue (vacated when the lane shuts down, which disconnects the
/// batcher once it has drained).
struct GateState {
    current: u64,
    canary: Option<CanarySplit>,
    tx: Option<mpsc::SyncSender<Envelope>>,
}

impl GateState {
    /// Publishes a version-change control at the queue's tail.
    fn send(&self, control: Control) -> Result<(), Error> {
        self.tx
            .as_ref()
            .ok_or(Error::ServerClosed)?
            .send(Envelope::Control(control))
            .map_err(|_| Error::ServerClosed)
    }
}

/// The admission-side version barrier. Every submission stamps its
/// version and sends under the read lock; every version change (swap,
/// canary start, promote, rollback) mutates the state and publishes its
/// control message under the write lock. FIFO queue order therefore
/// equals version order: the batcher never sees an old-version request
/// after the control that retires that version, which is what makes the
/// switch atomic at a micro-batch boundary.
///
/// Every admission writes the lock word, so the gate sits on cache lines
/// of its own (128-byte aligned: adjacent-line prefetch pairs 64-byte
/// lines), away from the lane fields the batcher reads.
#[repr(align(128))]
struct VersionGate {
    state: RwLock<GateState>,
    /// Lock-free mirror of `state.current` for stats snapshots.
    current: AtomicU64,
}

/// Hashes (seed, draw index) to a uniform value in `[0, 1)` — the
/// deterministic admission split of a canary. SplitMix64 finalizer over a
/// golden-ratio sequence: replaying the same seed over the same draw
/// indices reproduces the exact partition.
fn split_unit(seed: u64, n: u64) -> f64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl VersionGate {
    fn new(tx: mpsc::SyncSender<Envelope>) -> Self {
        VersionGate {
            state: RwLock::new(GateState {
                current: 1,
                canary: None,
                tx: Some(tx),
            }),
            current: AtomicU64::new(1),
        }
    }

    /// The current serving version (the canary candidate, while staged,
    /// is `version() + 1`).
    fn version(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Stamps one admission and runs `send` under the read gate, so no
    /// version barrier can land between the stamp and the queue send.
    /// Returns the stamped version on a successful send.
    fn admit(
        &self,
        send: impl FnOnce(u64, &mpsc::SyncSender<Envelope>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        let state = relock(self.state.read());
        let tx = state.tx.as_ref().ok_or(Error::ServerClosed)?;
        let version = match &state.canary {
            Some(c) => {
                let n = c.drawn.fetch_add(1, Ordering::Relaxed);
                if split_unit(c.seed, n) < c.fraction {
                    c.version
                } else {
                    state.current
                }
            }
            None => state.current,
        };
        send(version, tx)?;
        if let Some(c) = &state.canary {
            if let Some(slot) = c.tallies.slot(version) {
                slot.routed.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(version)
    }

    /// Runs a version barrier: `f` mutates the gate state and publishes
    /// its control message while every admission is excluded.
    fn barrier<T>(&self, f: impl FnOnce(&mut GateState) -> Result<T, Error>) -> Result<T, Error> {
        let mut state = relock(self.state.write());
        let out = f(&mut state)?;
        self.current.store(state.current, Ordering::Relaxed);
        Ok(out)
    }
}

/// One version's atomic tally slots during a canary.
struct VersionTallyCounters {
    version: u64,
    routed: AtomicU64,
    served: AtomicU64,
    accepted: AtomicU64,
    abstained: AtomicU64,
    labeled: AtomicU64,
    correct: AtomicU64,
}

impl VersionTallyCounters {
    fn new(version: u64) -> Self {
        VersionTallyCounters {
            version,
            routed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            abstained: AtomicU64::new(0),
            labeled: AtomicU64::new(0),
            correct: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> VersionTally {
        VersionTally {
            version: self.version,
            routed: self.routed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            labeled: self.labeled.load(Ordering::Relaxed),
            correct: self.correct.load(Ordering::Relaxed),
        }
    }
}

/// The shared accumulator of one canary run: a tally slot per version
/// plus the split parameters, so a snapshot is self-describing.
pub(crate) struct CanaryCounters {
    fraction: f64,
    seed: u64,
    baseline: VersionTallyCounters,
    candidate: VersionTallyCounters,
}

impl CanaryCounters {
    fn new(baseline: u64, candidate: u64, fraction: f64, seed: u64) -> Self {
        CanaryCounters {
            fraction,
            seed,
            baseline: VersionTallyCounters::new(baseline),
            candidate: VersionTallyCounters::new(candidate),
        }
    }

    fn slot(&self, version: u64) -> Option<&VersionTallyCounters> {
        if version == self.baseline.version {
            Some(&self.baseline)
        } else if version == self.candidate.version {
            Some(&self.candidate)
        } else {
            None
        }
    }

    pub(crate) fn snapshot(&self) -> CanaryStats {
        CanaryStats {
            fraction: self.fraction,
            seed: self.seed,
            baseline: self.baseline.snapshot(),
            candidate: self.candidate.snapshot(),
        }
    }
}

/// Log₂-bucketed wait-time tracker: each admitted request's queue wait
/// (admission → flush) lands in the bucket of its nanosecond count's bit
/// length, so the whole distribution is a fixed array of relaxed atomic
/// counters — recordable from the batcher's hot path without locks, and
/// cheap enough that every lane carries one. Quantiles come back as the
/// upper bound of the bucket the cumulative count crosses (≤ 2× the true
/// value, which is plenty for p50/p99 SLO reporting).
pub(crate) struct WaitTracker {
    max_nanos: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Default for WaitTracker {
    fn default() -> Self {
        WaitTracker {
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl WaitTracker {
    pub(crate) fn record(&self, wait: Duration) {
        let nanos = wait.as_nanos().min(u64::MAX as u128) as u64;
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // Bucket i holds waits whose nanosecond count has bit length i,
        // i.e. [2^(i-1), 2^i); bucket 0 is a zero-length wait and the top
        // bucket (i = 64) waits of 2^63 ns and beyond.
        let bucket = (u64::BITS - nanos.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The longest wait observed since construction.
    pub(crate) fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of recorded waits, as the upper bound
    /// of the bucket the cumulative count crosses; zero when nothing has
    /// been recorded yet.
    pub(crate) fn quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^i − 1 nanoseconds (saturating
                // on the top bucket), capped by the true observed maximum.
                let bound = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return Duration::from_nanos(bound).min(self.max());
            }
        }
        self.max()
    }
}

/// A lane's process-lifetime counters, shared by its admission side and
/// its batcher thread; [`Counters::snapshot`] renders them in the public
/// [`ServerStats`] shape both façades report. The batcher writes them on
/// every response, so they too get cache lines of their own, away from
/// the fields admission reads.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    abstained: AtomicU64,
    batches: AtomicU64,
    batch_fill: AtomicU64,
    /// Requests admitted but not yet answered (queued or in flight).
    /// Signed because a fast batcher can answer a request before its
    /// submitter counts the admission; snapshots clamp at zero.
    depth: AtomicI64,
    /// Version changes the batcher has applied (swaps and promotes).
    swaps: AtomicU64,
    /// Requests rejected for a passed deadline, at admission or flush.
    pub(crate) deadline_missed: AtomicU64,
    pub(crate) waits: WaitTracker,
    /// Chip reports of the serving version, published by its
    /// [`EngineRack`] at launch and whenever a swap or promote replaces
    /// the serving engine.
    chip_reports: Mutex<Vec<ChipReport>>,
}

impl Counters {
    /// Publishes the chip reports of a newly serving engine for every
    /// later [`Counters::snapshot`].
    fn publish_chip_reports(&self, engine: &InferenceEngine) {
        *relock(self.chip_reports.lock()) = engine.deployed().chip_reports();
    }

    /// Snapshot of the counters in the public stats shape; the serving
    /// version lives on the gate, so the caller supplies it.
    fn snapshot(&self, version: u64) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_samples: self.batch_fill.load(Ordering::Relaxed),
            queue_depth: self.depth.load(Ordering::Relaxed).max(0) as u64,
            version,
            swaps: self.swaps.load(Ordering::Relaxed),
            max_wait_observed: self.waits.max(),
            chip_reports: relock(self.chip_reports.lock()).clone(),
        }
    }
}

/// Turns one logit row into the response under the optional confidence
/// policy — the one abstention rule every lane applies.
fn decide(confidence: Option<Confidence>, logits: &[f64]) -> Prediction {
    match confidence {
        None => Prediction::Class(argmax(logits)),
        Some(c) => {
            let (best, score) = c.score(logits);
            if score >= c.threshold {
                Prediction::Class(best)
            } else {
                Prediction::Abstain {
                    best,
                    confidence: score,
                }
            }
        }
    }
}

/// The batcher-side view of the versioned deployment: which engine serves
/// which version, plus canary bookkeeping. Mutated **only** by the batcher
/// thread, by applying [`Control`] messages popped from the same FIFO the
/// requests ride — so the rack's version history is exactly the admission
/// order's version history.
struct EngineRack {
    current_version: u64,
    current: InferenceEngine,
    /// A live canary candidate, keyed by the version it would become.
    candidate: Option<(u64, InferenceEngine)>,
    /// Confidence policy override while a canary is live (applied to both
    /// versions, so accept/abstain tallies compare like with like).
    confidence_override: Option<Confidence>,
    tallies: Option<Arc<CanaryCounters>>,
    /// Replacements from swaps that arrived while draining: they never
    /// became current, but version-stamped stragglers already admitted
    /// against them may still be queued, so they serve those and are
    /// handed back (`SwapOutcome::Aborted`) at batcher exit.
    aborted: Vec<(
        u64,
        InferenceEngine,
        mpsc::Sender<Result<SwapOutcome, Error>>,
    )>,
}

impl EngineRack {
    /// A rack serving `engine` as version 1; its chip reports are
    /// published into `counters` before the batcher starts, so stats
    /// carry them from launch on.
    fn new(engine: InferenceEngine, counters: &Counters) -> Self {
        counters.publish_chip_reports(&engine);
        EngineRack {
            current_version: 1,
            current: engine,
            candidate: None,
            confidence_override: None,
            tallies: None,
            aborted: Vec::new(),
        }
    }

    /// The engine that must serve a request admitted under `version`.
    fn engine_for(&mut self, version: u64) -> Option<&mut InferenceEngine> {
        if version == self.current_version {
            return Some(&mut self.current);
        }
        if let Some((v, engine)) = self.candidate.as_mut() {
            if *v == version {
                return Some(engine);
            }
        }
        self.aborted
            .iter_mut()
            .find(|(v, _, _)| *v == version)
            .map(|(_, engine, _)| engine)
    }

    /// Makes `engine` the serving version and publishes its chip
    /// reports (before the caller replies, so a resolved swap ticket
    /// implies fresh stats); returns the engine it retired.
    fn install(
        &mut self,
        engine: InferenceEngine,
        version: u64,
        counters: &Counters,
    ) -> InferenceEngine {
        counters.publish_chip_reports(&engine);
        self.current_version = version;
        counters.swaps.fetch_add(1, Ordering::Relaxed);
        std::mem::replace(&mut self.current, engine)
    }

    /// Applies one control message at its FIFO position. `draining` is
    /// the stop flag **at apply time**: a swap that lands after shutdown
    /// began must not replace the engine the lane hands back, so it
    /// parks in the aborted list instead.
    fn apply(&mut self, control: Control, draining: bool, counters: &Counters) {
        match control {
            Control::Swap {
                engine,
                version,
                reply,
            } => {
                if draining {
                    self.aborted.push((version, *engine, reply));
                } else {
                    let retired = self.install(*engine, version, counters);
                    let _ = reply.send(Ok(SwapOutcome::Applied { retired, version }));
                }
            }
            Control::Canary {
                engine,
                version,
                confidence,
                tallies,
            } => {
                // Always installed, even while draining: requests stamped
                // with the candidate version may sit behind this control.
                self.candidate = Some((version, *engine));
                self.confidence_override = confidence;
                self.tallies = Some(tallies);
            }
            Control::Promote { reply } => {
                if draining {
                    let _ = reply.send(Err(Error::ServerClosed));
                } else if let Some((version, engine)) = self.candidate.take() {
                    let retired = self.install(engine, version, counters);
                    self.confidence_override = None;
                    self.tallies = None;
                    let _ = reply.send(Ok(SwapOutcome::Applied { retired, version }));
                } else {
                    let _ = reply.send(Err(Error::NoCanary));
                }
            }
            Control::Rollback { reply } => {
                if draining {
                    let _ = reply.send(Err(Error::ServerClosed));
                } else if let Some((_, engine)) = self.candidate.take() {
                    self.confidence_override = None;
                    self.tallies = None;
                    let _ = reply.send(Ok(SwapOutcome::Applied {
                        retired: engine,
                        version: self.current_version,
                    }));
                } else {
                    let _ = reply.send(Err(Error::NoCanary));
                }
            }
        }
    }

    /// One drift step over every live engine (current + candidate), so a
    /// canary measured under drift faces the same wandered hardware.
    fn drift(&mut self, drift: &mut PhaseDrift) {
        self.current.drift_step(drift);
        if let Some((_, engine)) = self.candidate.as_mut() {
            engine.drift_step(drift);
        }
    }

    /// Batcher exit: resolve every parked aborted swap (its replacement
    /// engine goes back to the caller) and hand the serving engine back.
    fn finish(mut self) -> InferenceEngine {
        for (_, engine, reply) in self.aborted.drain(..) {
            let _ = reply.send(Ok(SwapOutcome::Aborted {
                replacement: engine,
            }));
        }
        self.current
    }
}

/// Per-lane weighted queue depths (`queued requests × optical weight`),
/// keyed by lane registration id — the inputs to the largest-remainder
/// split of the `--jobs` worker budget. A registry rather than a single
/// router-wide sum: computing every lane's share from one consistent
/// snapshot is what keeps the *summed* allocation bounded (the old
/// per-lane `clamp(1, jobs)` let N idle-but-nonempty lanes claim N >
/// jobs shards in aggregate).
#[derive(Default)]
pub(crate) struct FairShare {
    lanes: Mutex<BTreeMap<u64, u64>>,
    next_id: AtomicU64,
}

impl FairShare {
    /// Adds a lane to the registry (weighted depth 0) and returns its id.
    pub(crate) fn register(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        relock(self.lanes.lock()).insert(id, 0);
        id
    }

    /// Removes a lane; its workers return to the splittable budget.
    pub(crate) fn deregister(&self, id: u64) {
        relock(self.lanes.lock()).remove(&id);
    }

    /// One admission: the lane's weighted depth grows by its weight.
    pub(crate) fn add(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w += weight;
        }
    }

    /// One response: the admission's weight is handed back.
    pub(crate) fn sub(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w = w.saturating_sub(weight);
        }
    }

    /// Lane `id`'s share of the `jobs` budget under one consistent
    /// registry snapshot, floored at the one worker the lane itself is
    /// (a lane about to serve a batch always runs at least itself).
    pub(crate) fn share_for(&self, id: u64, jobs: usize) -> usize {
        let lanes = relock(self.lanes.lock());
        let idx = lanes.keys().position(|k| *k == id);
        let weights: Vec<u64> = lanes.values().copied().collect();
        drop(lanes);
        idx.map_or(1, |i| fair_shares(jobs, &weights)[i].max(1))
    }
}

/// Splits the `jobs` worker budget across lanes by weighted queue depth,
/// bounding the **sum**: every live lane (weight > 0) keeps the one
/// worker it is, and only the remaining budget — `jobs` minus the live
/// lane count, when positive — is divided proportionally by weight with
/// a largest-remainder rounding (remainder ties break toward the lower
/// index, so the split is deterministic). Idle lanes (weight 0) get 0.
///
/// Invariant: `Σ shares == max(jobs, live lanes)` whenever any lane is
/// live — the allocation oversubscribes the budget only by the floor
/// that serving lanes physically occupy, never by proportional rounding.
pub(crate) fn fair_shares(jobs: usize, weights: &[u64]) -> Vec<usize> {
    let jobs = jobs.max(1);
    let mut shares: Vec<usize> = weights.iter().map(|&w| usize::from(w > 0)).collect();
    let live: usize = shares.iter().sum();
    let spare = jobs.saturating_sub(live);
    let total: u64 = weights.iter().sum();
    if spare == 0 || total == 0 {
        return shares;
    }
    // Largest-remainder split of the spare workers by weight: floors
    // first, then one extra worker per largest fractional part until the
    // spare pool is spent.
    let mut remainders: Vec<(usize, u64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let scaled = spare as u128 * w as u128;
        shares[i] += (scaled / total as u128) as usize;
        assigned += (scaled / total as u128) as usize;
        remainders.push((i, (scaled % total as u128) as u64));
    }
    remainders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (i, _) in remainders.into_iter().take(spare - assigned) {
        shares[i] += 1;
    }
    shares
}

/// A lane's slot in a [`FairShare`] registry: with one, the lane sizes
/// its engine's worker count to its share at every flush; without one
/// (the single-model server) the engine keeps the count it was given.
pub(crate) struct FairSlot {
    fair: Arc<FairShare>,
    id: u64,
    /// Scheduling weight per queued request: the deployment's optical
    /// stage count (deeper meshes cost more per sample), floored at 1.
    weight: u64,
}

impl FairSlot {
    /// Registers a new lane of `weight` in `fair`.
    pub(crate) fn register(fair: &Arc<FairShare>, weight: u64) -> Self {
        FairSlot {
            fair: Arc::clone(fair),
            id: fair.register(),
            weight,
        }
    }
}

/// Flush and admission policy of a lane.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Policy {
    pub(crate) max_batch: usize,
    pub(crate) max_wait: Duration,
    pub(crate) queue_cap: usize,
    pub(crate) confidence: Option<Confidence>,
}

impl Default for Policy {
    /// One engine serving window per flush, a 1 ms window, 1024 queued.
    fn default() -> Self {
        Policy {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            queue_cap: 1024,
            confidence: None,
        }
    }
}

/// Pops one flush batch off `pending` in EDF order: up to `max_batch`
/// live entries, plus every popped entry whose deadline is already past
/// `now` (returned separately for rejection — expired entries do not
/// occupy batch slots). Pure, so flush-time expiry is unit-testable
/// without real timing.
pub(crate) fn take_flush_batch<T>(
    pending: &mut EdfQueue<T>,
    max_batch: usize,
    now: Instant,
) -> (Vec<T>, Vec<(T, Duration)>) {
    let mut batch = Vec::with_capacity(max_batch.min(pending.len()));
    let mut expired = Vec::new();
    while batch.len() < max_batch {
        let Some(item) = pending.pop() else { break };
        match item.deadline {
            Some(deadline) if deadline <= now => expired.push((item.value, now - deadline)),
            _ => batch.push(item.value),
        }
    }
    (batch, expired)
}

/// One serving lane: the admission side every client handle shares and
/// the handle of the batcher thread that drains it.
pub(crate) struct Lane {
    policy: Policy,
    gate: VersionGate,
    stop: AtomicBool,
    pub(crate) counters: Counters,
    fair: Option<FairSlot>,
    pub(crate) input_dim: usize,
    handle: Mutex<Option<thread::JoinHandle<InferenceEngine>>>,
}

impl Lane {
    /// Launches a lane over `engine` on a batcher thread called `name`.
    pub(crate) fn spawn(
        name: String,
        engine: InferenceEngine,
        policy: Policy,
        fair: Option<FairSlot>,
        drift: Option<PhaseDrift>,
    ) -> Arc<Lane> {
        let (tx, rx) = mpsc::sync_channel(policy.queue_cap);
        let counters = Counters::default();
        let rack = EngineRack::new(engine, &counters);
        let lane = Arc::new(Lane {
            policy,
            gate: VersionGate::new(tx),
            stop: AtomicBool::new(false),
            counters,
            fair,
            input_dim: rack.current.input_dim(),
            handle: Mutex::new(None),
        });
        let batcher = Arc::clone(&lane);
        let handle = thread::Builder::new()
            .name(name)
            .spawn(move || batcher.run(rack, rx, drift))
            .expect("failed to spawn a serving lane thread");
        *relock(lane.handle.lock()) = Some(handle);
        lane
    }

    /// The deployment version new admissions are stamped with.
    pub(crate) fn version(&self) -> u64 {
        self.gate.version()
    }

    /// The admission queue bound.
    pub(crate) fn queue_cap(&self) -> usize {
        self.policy.queue_cap
    }

    /// A snapshot of the lane's counters.
    pub(crate) fn stats(&self) -> ServerStats {
        self.counters.snapshot(self.gate.version())
    }

    /// Admits one request: width check, stop check, deadline check, then
    /// stamp + send under the version gate (blocking for room, or
    /// surfacing [`Error::QueueFull`]). Returns the stamped version and
    /// the reply channel.
    pub(crate) fn submit(
        &self,
        fields: Vec<Complex64>,
        label: Option<usize>,
        deadline: Option<Instant>,
        priority: Priority,
        blocking: bool,
    ) -> Result<(u64, mpsc::Receiver<Result<Served, Error>>), Error> {
        if fields.len() != self.input_dim {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim,
                got: fields.len(),
                what: "sample width",
            });
        }
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let now = Instant::now();
        if let Some(deadline) = deadline.filter(|d| now >= *d) {
            // Refuse before the request costs a queue slot: a result
            // nobody can use should not spend mesh cycles.
            self.counters
                .deadline_missed
                .fetch_add(1, Ordering::Relaxed);
            return Err(Error::DeadlineExceeded {
                missed_by: now - deadline,
            });
        }
        let (reply, rx) = mpsc::channel();
        // The fair-share weight is claimed before the send, so the reply
        // can never hand it back before it was added.
        if let Some(f) = &self.fair {
            f.fair.add(f.id, f.weight);
        }
        let sent = self.gate.admit(|version, tx| {
            let request = Envelope::Request(Request {
                fields,
                label,
                deadline,
                priority,
                version,
                reply,
                enqueued_at: now,
            });
            if blocking {
                tx.send(request).map_err(|_| Error::ServerClosed)
            } else {
                tx.try_send(request).map_err(|e| match e {
                    mpsc::TrySendError::Full(_) => Error::QueueFull {
                        capacity: self.policy.queue_cap,
                    },
                    mpsc::TrySendError::Disconnected(_) => Error::ServerClosed,
                })
            }
        });
        match sent {
            Ok(version) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.depth.fetch_add(1, Ordering::Relaxed);
                Ok((version, rx))
            }
            Err(e) => {
                if let Some(f) = &self.fair {
                    f.fair.sub(f.id, f.weight);
                }
                if matches!(e, Error::QueueFull { .. }) {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Checks a candidate engine against the lane's geometry and
    /// liveness — shared by every version-change entry point.
    fn check_candidate(&self, input_dim: usize) -> Result<(), Error> {
        if input_dim != self.input_dim {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim,
                got: input_dim,
                what: "candidate input width",
            });
        }
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        Ok(())
    }

    /// Publishes a hot swap to `engine` at the queue's tail; see
    /// [`crate::serve::Server::swap`].
    pub(crate) fn swap(&self, engine: InferenceEngine) -> Result<SwapTicket, Error> {
        self.check_candidate(engine.input_dim())?;
        self.gate.barrier(|state| {
            if state.canary.is_some() {
                return Err(Error::CanaryActive);
            }
            let version = state.current + 1;
            let (reply, rx) = mpsc::channel();
            state.send(Control::Swap {
                engine: Box::new(engine),
                version,
                reply,
            })?;
            state.current = version;
            Ok(SwapTicket { rx })
        })
    }

    /// Stages `engine` as a canary candidate at the queue's tail and
    /// starts the seeded admission split; see
    /// [`crate::serve::Server::canary`]. Returns the run's tallies.
    pub(crate) fn canary(
        &self,
        engine: InferenceEngine,
        policy: CanaryPolicy,
    ) -> Result<Arc<CanaryCounters>, Error> {
        self.check_candidate(engine.input_dim())?;
        let fraction = policy.fraction.clamp(0.0, 1.0);
        self.gate.barrier(|state| {
            if state.canary.is_some() {
                return Err(Error::CanaryActive);
            }
            let version = state.current + 1;
            let tallies = Arc::new(CanaryCounters::new(
                state.current,
                version,
                fraction,
                policy.seed,
            ));
            state.send(Control::Canary {
                engine: Box::new(engine),
                version,
                confidence: policy.confidence,
                tallies: Arc::clone(&tallies),
            })?;
            state.canary = Some(CanarySplit {
                version,
                fraction,
                drawn: AtomicU64::new(0),
                seed: policy.seed,
                tallies: Arc::clone(&tallies),
            });
            Ok(tallies)
        })
    }

    /// Ends the live canary — promoting the candidate or rolling it back —
    /// at the queue's tail; see [`crate::serve::Server::promote`].
    pub(crate) fn decide_canary(&self, promote: bool) -> Result<SwapTicket, Error> {
        self.gate.barrier(|state| {
            let Some(canary) = state.canary.take() else {
                return Err(Error::NoCanary);
            };
            let (reply, rx) = mpsc::channel();
            let control = if promote {
                Control::Promote { reply }
            } else {
                Control::Rollback { reply }
            };
            // A failed send means the lane is closed; the canary split is
            // already cleared either way.
            state.send(control)?;
            if promote {
                state.current = canary.version;
            }
            Ok(SwapTicket { rx })
        })
    }

    /// Stops the lane: admission closes, the batcher drains every
    /// admitted request and exits, and the serving engine comes back.
    /// Idempotent; `None` after the first call.
    pub(crate) fn shutdown(&self) -> Option<InferenceEngine> {
        self.stop.store(true, Ordering::SeqCst);
        let handle = relock(self.handle.lock()).take()?;
        // Wake a batcher waiting out a window on a full pending set, so
        // it drains and frees room for senders blocked under the gate.
        handle.thread().unpark();
        // Dropping the only sender disconnects the channel once drained.
        let _ = self.gate.barrier(|state| {
            state.tx = None;
            Ok(())
        });
        Some(handle.join().expect("serving lane thread panicked"))
    }

    /// The batcher thread body: coalesce into the EDF pending set, flush
    /// on `max_batch` / `max_wait` / an imminent deadline / a control,
    /// serve, apply the control, step drift. Exits once admission has
    /// closed and everything admitted was answered.
    fn run(
        &self,
        mut rack: EngineRack,
        rx: mpsc::Receiver<Envelope>,
        mut drift: Option<PhaseDrift>,
    ) -> InferenceEngine {
        // The batcher is a resident service thread: claim one slot of the
        // shared worker budget so engines + grids + lanes stay ≈ `--jobs`.
        let _slot = crate::pool::reserve_service_slot();
        let policy = self.policy;
        let mut pending: EdfQueue<Request> = EdfQueue::new();
        let push = |pending: &mut EdfQueue<Request>, r: Request| {
            pending.push(r.deadline, r.priority, r.enqueued_at, r);
        };
        let mut rows: Vec<Complex64> = Vec::new();
        let mut flush_seq: u64 = 0;
        loop {
            let mut control: Option<Control> = None;
            if pending.is_empty() {
                // Park for the first envelope of the next batch; shutdown
                // disconnects the channel once it is drained.
                match rx.recv() {
                    Ok(Envelope::Request(r)) => push(&mut pending, r),
                    Ok(Envelope::Control(c)) => control = Some(c),
                    Err(_) => break,
                }
            }

            // Coalesce until the batch fills, the oldest request's window
            // closes, a queued deadline would expire inside the window,
            // or a control arrives (during a drain: flush at once). Under
            // load, stragglers are collected with non-blocking drains
            // separated by scheduler yields: parking would make every
            // straggler's `submit` pay a futex wake. The yield spin is
            // bounded, though — past `SPIN_WAIT` the batcher parks in a
            // timed wait for the rest of the window, so a long `max_wait`
            // over a trickle of traffic idles the core instead of burning
            // it. Requests leave the channel only while the pending set
            // has room, so `queue_cap` bounds both (and caps a batch).
            const SPIN_WAIT: Duration = Duration::from_micros(256);
            // The window is anchored lazily: a backlog of `max_batch` or
            // more flushes at once, without scanning for its oldest entry.
            let mut window: Option<(Instant, Instant)> = None;
            'coalesce: while control.is_none() {
                while pending.len() < policy.queue_cap {
                    match rx.try_recv() {
                        Ok(Envelope::Request(r)) => push(&mut pending, r),
                        Ok(Envelope::Control(c)) => {
                            control = Some(c);
                            break 'coalesce;
                        }
                        Err(_) => break,
                    }
                }
                if pending.len() >= policy.max_batch || self.stop.load(Ordering::SeqCst) {
                    break;
                }
                let now = Instant::now();
                let (window_end, spin_until) = *window.get_or_insert_with(|| {
                    let oldest = pending.oldest_arrival().unwrap_or(now);
                    (
                        oldest + policy.max_wait,
                        now + SPIN_WAIT.min(policy.max_wait),
                    )
                });
                if now >= window_end || pending.earliest_deadline().is_some_and(|d| d <= window_end)
                {
                    break;
                }
                if now < spin_until {
                    thread::yield_now();
                    continue;
                }
                if pending.len() >= policy.queue_cap {
                    // Full below `max_batch`: wait out the window without
                    // taking more (shutdown unparks).
                    thread::park_timeout(window_end - now);
                    continue;
                }
                match rx.recv_timeout(window_end - now) {
                    Ok(Envelope::Request(r)) => push(&mut pending, r),
                    Ok(Envelope::Control(c)) => control = Some(c),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }

            // Flush: pop in EDF order, reject what already expired, serve
            // the rest. With a control in hand, flush *everything*
            // admitted before it (possibly several batches) — the FIFO
            // channel guarantees every old-version request precedes the
            // control, so afterwards no request still needs the engine
            // the control may retire.
            let mut served = false;
            loop {
                let now = Instant::now();
                let (batch, expired) = take_flush_batch(&mut pending, policy.max_batch, now);
                for (request, missed_by) in expired {
                    self.counters
                        .deadline_missed
                        .fetch_add(1, Ordering::Relaxed);
                    let waited = now.saturating_duration_since(request.enqueued_at);
                    self.counters.waits.record(waited);
                    self.respond(&request, Err(Error::DeadlineExceeded { missed_by }));
                }
                // A flush in which *every* popped request had expired
                // spends no batch, engine call or flush sequence number.
                if !batch.is_empty() {
                    flush_seq += 1;
                    served = true;
                    self.serve(&mut rack, batch, &mut rows, flush_seq, now);
                }
                if control.is_none() || pending.is_empty() {
                    break;
                }
            }
            if let Some(c) = control {
                rack.apply(c, self.stop.load(Ordering::SeqCst), &self.counters);
            }
            // One drift step per cycle that served samples: phases wander
            // between micro-batches, not within one.
            if let Some(d) = drift.as_mut().filter(|_| served) {
                rack.drift(d);
            }
        }
        if let Some(f) = &self.fair {
            f.fair.deregister(f.id);
        }
        rack.finish()
    }

    /// Serves one popped flush batch, grouped by stamped version so every
    /// request is served by exactly the engine it was admitted under
    /// (single-version in steady state; split around a version change).
    /// A group poisoned by one sample (non-finite logits) falls back to
    /// serving each request on its own, so only the offending ticket gets
    /// the error.
    fn serve(
        &self,
        rack: &mut EngineRack,
        mut batch: Vec<Request>,
        rows: &mut Vec<Complex64>,
        flush_seq: u64,
        now: Instant,
    ) {
        let counters = &self.counters;
        let share = self
            .fair
            .as_ref()
            .map(|f| f.fair.share_for(f.id, crate::pool::jobs()));
        while !batch.is_empty() {
            let version = batch[0].version;
            let group = if batch.iter().all(|r| r.version == version) {
                std::mem::take(&mut batch)
            } else {
                let (group, rest): (Vec<_>, Vec<_>) =
                    batch.drain(..).partition(|r| r.version == version);
                batch = rest;
                group
            };
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters
                .batch_fill
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            rows.clear();
            for request in &group {
                counters
                    .waits
                    .record(now.saturating_duration_since(request.enqueued_at));
                rows.extend_from_slice(&request.fields);
            }
            let confidence = rack.confidence_override.or(self.policy.confidence);
            let tallies = rack.tallies.clone();
            let Some(engine) = rack.engine_for(version) else {
                // Unreachable by construction (every stamped version has a
                // rack slot until its last ticket resolves), but never
                // strand a ticket.
                for request in &group {
                    self.respond(request, Err(Error::ServerClosed));
                }
                continue;
            };
            if let Some(share) = share.filter(|s| *s != engine.num_workers()) {
                engine.set_num_workers(share);
            }
            let emit = move |logits: &[f64]| decide(confidence, logits);
            let served = |request: &Request, prediction: Prediction| {
                tally(tallies.as_deref(), request, &prediction);
                Served {
                    prediction,
                    flush_seq,
                    waited: now.saturating_duration_since(request.enqueued_at),
                    version,
                }
            };
            match engine.serve_rows(rows, &emit) {
                Ok(predictions) => {
                    for (request, prediction) in group.iter().zip(predictions) {
                        self.respond(request, Ok(served(request, prediction)));
                    }
                }
                Err(_) => {
                    for request in &group {
                        let outcome = engine
                            .serve_rows(&request.fields, &emit)
                            .map(|mut v| served(request, v.remove(0)));
                        self.respond(request, outcome);
                    }
                }
            }
        }
    }

    /// Counts and replies one response, handing its fair-share weight
    /// back.
    fn respond(&self, request: &Request, outcome: Result<Served, Error>) {
        let counters = &self.counters;
        counters.served.fetch_add(1, Ordering::Relaxed);
        counters.depth.fetch_sub(1, Ordering::Relaxed);
        if let Some(f) = &self.fair {
            f.fair.sub(f.id, f.weight);
        }
        if let Ok(Served {
            prediction: Prediction::Abstain { .. },
            ..
        }) = outcome
        {
            counters.abstained.fetch_add(1, Ordering::Relaxed);
        }
        // A dropped ticket just means nobody is listening; serving continues.
        let _ = request.reply.send(outcome);
    }
}

/// Canary accounting for one served request: which version served it,
/// whether the (shared) confidence policy accepted or abstained, and —
/// when the request carried a ground-truth label — whether the accepted
/// class was correct.
fn tally(tallies: Option<&CanaryCounters>, request: &Request, prediction: &Prediction) {
    let Some(slot) = tallies.and_then(|t| t.slot(request.version)) else {
        return;
    };
    slot.served.fetch_add(1, Ordering::Relaxed);
    match prediction {
        Prediction::Class(class) => {
            slot.accepted.fetch_add(1, Ordering::Relaxed);
            if let Some(label) = request.label {
                slot.labeled.fetch_add(1, Ordering::Relaxed);
                if *class == label {
                    slot.correct.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Prediction::Abstain { .. } => {
            slot.abstained.fetch_add(1, Ordering::Relaxed);
            if request.label.is_some() {
                slot.labeled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployedDetection;
    use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    use oplix_photonics::decoder::DecoderKind;
    use oplix_photonics::svd_map::MeshStyle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(seed: u64) -> InferenceEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = build_fcnn(
            &FcnnConfig {
                input: 6,
                hidden: 5,
                classes: 3,
            },
            ModelVariant::Split(DecoderKind::Merge),
            &mut rng,
        );
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys")
    }

    fn submit(lane: &Lane) -> mpsc::Receiver<Result<Served, Error>> {
        let fields = vec![Complex64::ONE; 6];
        let (_, rx) = lane
            .submit(fields, None, None, Priority::Standard, true)
            .expect("admits");
        rx
    }

    #[test]
    fn full_pending_set_waits_out_the_window_until_shutdown_wakes_it() {
        // A pending set of 2 below a batch of 8 and an hour-long window:
        // the batcher holds two requests, the channel two more, and
        // nothing flushes on its own.
        let policy = Policy {
            max_batch: 8,
            max_wait: Duration::from_secs(3600),
            queue_cap: 2,
            confidence: None,
        };
        let lane = Lane::spawn("lane-test".into(), engine(100_100), policy, None, None);
        let replies: Vec<_> = (0..4).map(|_| submit(&lane)).collect();
        thread::sleep(Duration::from_millis(20));
        let stats = lane.stats();
        assert_eq!(
            stats.queue_depth, 4,
            "channel + pending set = 2 · queue_cap"
        );
        assert_eq!(stats.served, 0, "a full set below max_batch does not flush");

        // Shutdown must wake the waiting batcher and drain everything.
        let start = Instant::now();
        let back = lane.shutdown().expect("first shutdown");
        assert!(start.elapsed() < Duration::from_secs(60));
        for rx in replies {
            let served = rx.recv().expect("answered").expect("served");
            assert_eq!(served.version, 1);
        }
        assert_eq!(back.stats().samples, 4);
        assert!(lane.shutdown().is_none(), "shutdown is idempotent");
    }

    #[test]
    fn fair_share_weight_is_handed_back_by_every_answer() {
        let fair = Arc::new(FairShare::default());
        let slot = FairSlot::register(&fair, 3);
        let id = slot.id;
        let policy = Policy {
            max_batch: 4,
            ..Policy::default()
        };
        let lane = Lane::spawn(
            "lane-test".into(),
            engine(100_110),
            policy,
            Some(slot),
            None,
        );
        let replies: Vec<_> = (0..40).map(|_| submit(&lane)).collect();
        for rx in replies {
            rx.recv().expect("answered").expect("served");
        }
        assert_eq!(relock(fair.lanes.lock())[&id], 0, "no weight leaks");
        lane.shutdown().expect("first shutdown");
        assert!(
            relock(fair.lanes.lock()).is_empty(),
            "a stopped lane leaves the registry"
        );
    }
}
