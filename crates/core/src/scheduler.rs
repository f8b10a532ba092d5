//! Multi-device request dispatch (Section VI).
//!
//! * [`Dispatcher`] — Eq. 4: each rendering request goes to the node
//!   minimizing `(w_j + r) / c_j + l_j`, with `r` the request workload,
//!   `c_j` the node's capability, `w_j` its queued workload and `l_j` the
//!   round-trip delay. The capability used for *scoring* is predicted
//!   from an EWMA over each node's observed effective service rate
//!   (render + encode), so a node whose encoder dominates its service
//!   time is scored by what it actually delivers, not its raw fillrate.
//! * Per-node outstanding-request queues: every dispatched frame stays
//!   on the node's queue until [`Dispatcher::complete`] retires it, so a
//!   failed node knows exactly which in-flight frames to orphan
//!   ([`Dispatcher::fail_node`]).
//! * [`ReorderBuffer`] — "our system keeps track of the sequence numbers
//!   of the requests, such that we can display their results in a proper
//!   order" (Section VI-C).
//! * State-replication accounting lives with the session engine, which
//!   multicasts state-mutating commands to every node
//!   ([`crate::wrapper::Disposition::ReplicateAll`]).

use std::collections::{BTreeMap, VecDeque};

use gbooster_forecast::ewma::Ewma;
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, Counter, Histogram, Registry};

/// Smoothing factor for the per-node effective-rate forecaster.
const RATE_EWMA_ALPHA: f64 = 0.2;

/// Upper clamp on a single request's booked service time. Keeps
/// `busy_until` finite for adversarial capabilities (see the scoring
/// totality property test) without affecting any realistic workload.
const MAX_SERVICE_SECS: f64 = 3600.0;

/// Identity of one in-flight frame on a node's outstanding queue.
///
/// Sequence numbers alone are not unique once several tenants share a
/// pool — every session numbers its frames from zero, so two tenants
/// routinely have a "frame 5" outstanding on the same node. Retiring by
/// bare `seq` would drop *both* (the single-session assumption this key
/// fixes); every queue entry therefore carries its session id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrameKey {
    /// Originating session (0 for the legacy single-session API).
    pub session: u64,
    /// Frame sequence number within that session.
    pub seq: u64,
}

/// One offloading destination as seen by the scheduler.
#[derive(Clone, Debug)]
pub struct ServiceNode {
    /// Hardware description.
    pub spec: DeviceSpec,
    /// Computation capability `c_j` in complexity-weighted pixels/second.
    pub capability: f64,
    /// Round-trip delay `l_j` to this node.
    pub rtt: SimDuration,
    busy_until: SimTime,
    requests_served: u64,
    /// Frames dispatched to this node and not yet retired, oldest first.
    outstanding: VecDeque<FrameKey>,
    /// Forecast of the node's *effective* service rate (workload per
    /// second including encode overhead), learned from completed
    /// bookings.
    rate_ewma: Ewma,
    alive: bool,
    /// Whether the node accepts *new* dispatches. A cordoned node
    /// (`false`) is alive — in-flight frames drain normally — but its
    /// Eq. 4 score is infinite, so the scheduler routes around it. Set
    /// by a drain (docs/MIGRATION.md); cleared by revive.
    accepting: bool,
    /// End of the rejoin warm-up window: until this instant the node's
    /// Eq. 4 score carries an extra penalty so a freshly resynced node
    /// (cold caches, unwarmed clocks) eases back in instead of instantly
    /// winning every dispatch. `SimTime::ZERO` means no warm-up pending.
    warmup_until: SimTime,
}

impl ServiceNode {
    /// Creates a node from a device spec and a measured RTT.
    ///
    /// The capability is profiled beforehand (the paper profiles command
    /// workloads offline, ref \[31\]); we derive it from the GPU fillrate.
    pub fn new(spec: DeviceSpec, rtt: SimDuration) -> Self {
        let capability = spec.gpu.fillrate_gpixels_per_sec * 1e9;
        ServiceNode {
            spec,
            capability,
            rtt,
            busy_until: SimTime::ZERO,
            requests_served: 0,
            outstanding: VecDeque::new(),
            rate_ewma: Ewma::new(RATE_EWMA_ALPHA),
            alive: true,
            accepting: true,
            warmup_until: SimTime::ZERO,
        }
    }

    /// Requests this node has served.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// The instant this node's queue drains.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Frames dispatched here and not yet retired via
    /// [`Dispatcher::complete`].
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether the node is still accepting requests.
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Whether the node accepts new dispatches (alive and not
    /// cordoned by a drain).
    pub fn accepting(&self) -> bool {
        self.alive && self.accepting
    }

    /// Accepting and done with its booked work at `now`.
    fn idle_at(&self, now: SimTime) -> bool {
        self.accepting() && self.busy_until <= now
    }

    /// The service rate used for Eq. 4 scoring: the EWMA forecast once
    /// observations exist, the profiled capability before that.
    pub fn predicted_rate(&self) -> f64 {
        let forecast = self.rate_ewma.forecast_next();
        if forecast > 0.0 && forecast.is_finite() {
            forecast
        } else {
            self.capability
        }
    }

    /// Eq. 4 score `(w_j + r)/ĉ_j + l_j` for a request of workload
    /// `r_fill` arriving at `now`, against the *predicted* rate `ĉ_j`.
    ///
    /// Total for every input: dead nodes and nodes whose rate is
    /// non-positive or non-finite score `f64::INFINITY`; the result is
    /// never NaN.
    pub fn score(&self, r_fill: u64, now: SimTime) -> f64 {
        if !self.alive || !self.accepting {
            return f64::INFINITY;
        }
        let rate = self.predicted_rate();
        if !rate.is_finite() || rate <= 0.0 {
            return f64::INFINITY;
        }
        // w_j / c_j: queued workload already expressed in seconds.
        let backlog_secs = self.busy_until.saturating_duration_since(now).as_secs_f64();
        // Rejoin warm-up: the remaining warm-up window is charged as
        // phantom backlog, decaying to zero as the node proves itself.
        let warmup_secs = self
            .warmup_until
            .saturating_duration_since(now)
            .as_secs_f64();
        let score = backlog_secs + warmup_secs + r_fill as f64 / rate + self.rtt.as_secs_f64();
        if score.is_nan() {
            f64::INFINITY
        } else {
            score
        }
    }

    /// Ground-truth service seconds for `r_fill` on this node, clamped
    /// to a finite sane range for adversarial capabilities.
    fn service_secs(&self, r_fill: u64) -> f64 {
        let secs = r_fill as f64 / self.capability;
        if secs.is_finite() && secs > 0.0 {
            secs.min(MAX_SERVICE_SECS)
        } else {
            0.0
        }
    }
}

/// The outcome of dispatching one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchDecision {
    /// Chosen node index.
    pub node: usize,
    /// When the node begins the request (after its queue and the uplink
    /// propagation delay).
    pub start: SimTime,
    /// When the node finishes the request.
    pub finish: SimTime,
}

/// Eq. 4 dispatcher over a set of service nodes.
///
/// # Examples
///
/// ```
/// use gbooster_core::scheduler::{Dispatcher, ServiceNode};
/// use gbooster_sim::device::DeviceSpec;
/// use gbooster_sim::time::{SimDuration, SimTime};
///
/// let mut d = Dispatcher::new(vec![
///     ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
///     ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
/// ]);
/// // With equal queues and latency, the faster Shield wins.
/// let decision = d.dispatch(0, 10_000_000, SimDuration::ZERO, SimTime::ZERO);
/// assert_eq!(decision.node, 0);
/// // The frame stays on the node's outstanding queue until retired.
/// assert_eq!(d.nodes()[0].outstanding(), 1);
/// d.complete(decision.node, 0);
/// assert_eq!(d.nodes()[0].outstanding(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Dispatcher {
    nodes: Vec<ServiceNode>,
    telemetry: Option<(Counter, Histogram)>,
}

impl Dispatcher {
    /// Creates a dispatcher.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<ServiceNode>) -> Self {
        assert!(!nodes.is_empty(), "dispatcher needs at least one node");
        Dispatcher {
            nodes,
            telemetry: None,
        }
    }

    /// Mirrors dispatch activity into `registry`: a request counter under
    /// [`names::sched::REQUESTS`] and a queue-wait histogram (request
    /// arrival at the node until service start) under
    /// [`names::sched::QUEUE_WAIT`].
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.telemetry = Some((
            registry.counter(names::sched::REQUESTS),
            registry.histogram(names::sched::QUEUE_WAIT),
        ));
    }

    /// The managed nodes.
    pub fn nodes(&self) -> &[ServiceNode] {
        &self.nodes
    }

    /// Nodes still accepting requests.
    pub fn alive_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Dispatches frame `seq` with workload `r_fill` (complexity-weighted
    /// pixels) arriving at `now`; `extra_service` is per-request work
    /// beyond raster fill (frame encoding) spent on the chosen node.
    ///
    /// Applies Eq. 4 against each node's *predicted* rate, books the
    /// chosen node's queue with its ground-truth service time, and
    /// appends `seq` to its outstanding queue. The booking is fed back
    /// into the node's rate forecaster so future scores track the
    /// effective (render + encode) rate.
    ///
    /// # Panics
    ///
    /// Panics if every node has failed.
    pub fn dispatch(
        &mut self,
        seq: u64,
        r_fill: u64,
        extra_service: SimDuration,
        now: SimTime,
    ) -> DispatchDecision {
        self.dispatch_for(0, seq, r_fill, extra_service, now)
    }

    /// Session-qualified [`Self::dispatch`]: scores every node with
    /// Eq. 4 and books the winner for frame `seq` of `session`.
    ///
    /// # Panics
    ///
    /// Panics if every node has failed.
    pub fn dispatch_for(
        &mut self,
        session: u64,
        seq: u64,
        r_fill: u64,
        extra_service: SimDuration,
        now: SimTime,
    ) -> DispatchDecision {
        gbooster_telemetry::prof_scope!(names::host::DISPATCH);
        let mut best: Option<usize> = None;
        let mut best_score = f64::INFINITY;
        for (j, node) in self.nodes.iter().enumerate() {
            let score = node.score(r_fill, now);
            if score < best_score {
                best_score = score;
                best = Some(j);
            }
        }
        // Every finite score lost (e.g. adversarial capabilities make all
        // scores infinite): fall back to the first live node.
        let best = best
            .or_else(|| self.nodes.iter().position(|n| n.alive))
            .expect("dispatch with no live service node");
        self.dispatch_to(best, session, seq, r_fill, extra_service, now)
    }

    /// Books frame `seq` of `session` on a *caller-chosen* node. The
    /// fabric's fair-share scheduler picks the tenant first (max-min
    /// over attained GPU time) and the node second (Eq. 4 over the idle
    /// nodes), so node selection happens outside the dispatcher; the
    /// booking, forecasting, and outstanding-queue bookkeeping stay in
    /// one place.
    ///
    /// # Panics
    ///
    /// Panics if `node` is dead.
    pub fn dispatch_to(
        &mut self,
        node_idx: usize,
        session: u64,
        seq: u64,
        r_fill: u64,
        extra_service: SimDuration,
        now: SimTime,
    ) -> DispatchDecision {
        let node = &mut self.nodes[node_idx];
        assert!(node.alive, "dispatch_to a dead node");
        let arrive = now + node.rtt / 2;
        let start = arrive.max(node.busy_until);
        let render = SimDuration::from_secs_f64(node.service_secs(r_fill));
        let finish = start + render + extra_service;
        let total_secs = (finish - start).as_secs_f64();
        if r_fill > 0 && total_secs > 0.0 {
            let rate = r_fill as f64 / total_secs;
            if rate.is_finite() {
                node.rate_ewma.observe(rate);
            }
        }
        node.busy_until = finish;
        node.requests_served += 1;
        node.outstanding.push_back(FrameKey { session, seq });
        if let Some((requests, queue_wait)) = &self.telemetry {
            requests.inc();
            queue_wait.record_duration(start - arrive);
        }
        DispatchDecision {
            node: node_idx,
            start,
            finish,
        }
    }

    /// Retires frame `seq` from node `node`'s outstanding queue (its
    /// result has been received back on the user device). Legacy
    /// single-session form of [`Self::complete_for`] (session 0).
    pub fn complete(&mut self, node: usize, seq: u64) {
        self.complete_for(node, 0, seq);
    }

    /// Retires frame `seq` of `session` from node `node`'s outstanding
    /// queue. Only that session's entry is removed: other tenants'
    /// frames that happen to carry the same sequence number stay in
    /// flight (see [`FrameKey`]).
    pub fn complete_for(&mut self, node: usize, session: u64, seq: u64) {
        self.nodes[node]
            .outstanding
            .retain(|k| !(k.session == session && k.seq == seq));
    }

    /// Whether some accepting node is idle at `now`. When none is,
    /// [`Dispatcher::best_idle_node`] returns `None` for every fill, so
    /// a caller can skip choosing a request altogether.
    pub fn has_idle_node(&self, now: SimTime) -> bool {
        self.nodes.iter().any(|n| n.idle_at(now))
    }

    /// The alive node with the best Eq. 4 score for a request of
    /// `r_fill` that is also *idle* at `now` (its booked queue has
    /// drained). `None` when every live node is mid-request — the
    /// fabric keeps the frame in its tenant queue rather than booking
    /// queueing delay onto a node.
    pub fn best_idle_node(&self, r_fill: u64, now: SimTime) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (j, node) in self.nodes.iter().enumerate() {
            if !node.idle_at(now) {
                continue;
            }
            let score = node.score(r_fill, now);
            if score.is_finite() && best.is_none_or(|(_, s)| score < s) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| j)
    }

    /// Marks node `node` failed at `now` and returns its orphaned
    /// in-flight frames (oldest first, session-qualified) for
    /// re-dispatch.
    ///
    /// The node's booked backlog is clamped to `now`: the orphaned work
    /// leaves with the frames, so `busy_until` must not keep growing past
    /// the failure instant (a saturated node would otherwise carry its
    /// phantom queue forever — see the regression test).
    pub fn fail_node(&mut self, node: usize, now: SimTime) -> Vec<FrameKey> {
        let n = &mut self.nodes[node];
        n.alive = false;
        n.busy_until = now.min(n.busy_until);
        n.outstanding.drain(..).collect()
    }

    /// Re-admits a previously failed node at `now` after a state resync.
    /// For the next `warmup` of sim time the node's Eq. 4 score carries
    /// the remaining warm-up window as phantom backlog, so traffic ramps
    /// onto the rejoined node instead of slamming it.
    pub fn revive_node(&mut self, node: usize, now: SimTime, warmup: SimDuration) {
        let n = &mut self.nodes[node];
        n.alive = true;
        n.accepting = true;
        n.busy_until = now.max(n.busy_until);
        n.warmup_until = now + warmup;
    }

    /// Cordons (or un-cordons) node `node`: a cordoned node stays
    /// alive and drains its in-flight frames, but its Eq. 4 score is
    /// infinite so no new dispatch lands on it. The drain protocol
    /// cordons the source once its last session has cut over
    /// (docs/MIGRATION.md); [`Dispatcher::revive_node`] lifts the
    /// cordon.
    pub fn cordon_node(&mut self, node: usize, cordoned: bool) {
        self.nodes[node].accepting = !cordoned;
    }

    /// Applies a rejoin-style warm-up window to an *already alive*
    /// node: for the next `warmup` of sim time its Eq. 4 score carries
    /// phantom backlog. A migration destination warms up exactly like
    /// a revived node — its per-session caches are cold for the newly
    /// landed tenants — without cycling through death.
    pub fn warm_node(&mut self, node: usize, now: SimTime, warmup: SimDuration) {
        let n = &mut self.nodes[node];
        n.warmup_until = n.warmup_until.max(now + warmup);
    }

    /// Scales node `node`'s ground-truth capability by `factor` (a
    /// thermal or contention brownout; `factor` in `(0, 1]`). The rate
    /// forecaster keeps learning, so Eq. 4 scoring tracks the slowdown
    /// within a few dispatches.
    pub fn degrade_node(&mut self, node: usize, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "degrade factor must be in (0, 1], got {factor}"
        );
        self.nodes[node].capability *= factor;
    }

    /// Per-node request counts (load-balance telemetry).
    pub fn served_counts(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.requests_served).collect()
    }
}

/// Re-sequences out-of-order frame results for display.
///
/// # Examples
///
/// ```
/// use gbooster_core::scheduler::ReorderBuffer;
///
/// let mut buf = ReorderBuffer::new();
/// buf.insert(1, "frame1");
/// assert!(buf.pop_ready().is_empty(), "frame 0 still missing");
/// buf.insert(0, "frame0");
/// let ready: Vec<&str> = buf.pop_ready();
/// assert_eq!(ready, vec!["frame0", "frame1"]);
/// ```
#[derive(Clone, Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
    max_held: usize,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// Creates a buffer expecting sequence 0.
    pub fn new() -> Self {
        ReorderBuffer {
            next: 0,
            pending: BTreeMap::new(),
            max_held: 0,
        }
    }

    /// Inserts the result for `seq`. Duplicate sequence numbers replace
    /// the held value (idempotent retransmits).
    pub fn insert(&mut self, seq: u64, value: T) {
        if seq >= self.next {
            self.pending.insert(seq, value);
            self.max_held = self.max_held.max(self.pending.len());
        }
    }

    /// Removes and returns every result now deliverable in order.
    pub fn pop_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_ready_into(&mut out);
        out
    }

    /// Like [`ReorderBuffer::pop_ready`], appending to `out` so a
    /// caller draining once per frame can reuse one buffer.
    pub fn pop_ready_into(&mut self, out: &mut Vec<T>) {
        while let Some(v) = self.pending.remove(&self.next) {
            out.push(v);
            self.next += 1;
        }
    }

    /// Results held waiting for a predecessor.
    pub fn held(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of held results (memory-overhead accounting).
    pub fn max_held(&self) -> usize {
        self.max_held
    }

    /// Next sequence number awaited.
    pub fn awaiting(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> Dispatcher {
        Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(
                DeviceSpec::dell_optiplex_9010(),
                SimDuration::from_millis(2),
            ),
        ])
    }

    #[test]
    fn faster_idle_node_wins() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
        ]);
        let decision = d.dispatch(0, 50_000_000, SimDuration::ZERO, SimTime::ZERO);
        assert_eq!(decision.node, 1, "shield (16 GP/s) beats minix (6 GP/s)");
    }

    #[test]
    fn backlog_diverts_to_the_other_node() {
        let mut d = two_nodes();
        // Saturate node 0 with several big requests.
        let big = 100_000_000u64;
        let first = d.dispatch(0, big, SimDuration::ZERO, SimTime::ZERO);
        let second = d.dispatch(1, big, SimDuration::ZERO, SimTime::ZERO);
        assert_ne!(
            first.node, second.node,
            "Eq. 4 must divert around the backlog"
        );
    }

    #[test]
    fn latency_term_matters_for_small_requests() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(50)),
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_micros(100)),
        ]);
        // A tiny request: render-time difference (micros) is dwarfed by
        // the 50 ms RTT, so the slower-but-closer node wins.
        let decision = d.dispatch(0, 10_000, SimDuration::ZERO, SimTime::ZERO);
        assert_eq!(decision.node, 1);
    }

    #[test]
    fn queue_advances_busy_until() {
        let mut d = two_nodes();
        let a = d.dispatch(0, 16_000_000, SimDuration::from_millis(5), SimTime::ZERO);
        assert!(a.finish > a.start);
        let served: u64 = d.served_counts().iter().sum();
        assert_eq!(served, 1);
        assert_eq!(d.nodes()[a.node].busy_until(), a.finish);
    }

    #[test]
    fn load_balances_across_equal_nodes() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
        ]);
        let mut now = SimTime::ZERO;
        // Requests arrive faster than any single node can serve them
        // (14 ms service, 5 ms spacing), so Eq. 4 must fan out to all 3.
        for seq in 0..30 {
            d.dispatch(seq, 64_000_000, SimDuration::from_millis(10), now);
            now += SimDuration::from_millis(5);
        }
        let counts = d.served_counts();
        for &c in &counts {
            assert!((6..=14).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn ewma_scoring_learns_effective_rate_including_encode() {
        let mut d = Dispatcher::new(vec![ServiceNode::new(
            DeviceSpec::nvidia_shield(),
            SimDuration::from_millis(2),
        )]);
        let raw = d.nodes()[0].capability;
        // Heavy encode overhead dominates the service time; the forecast
        // must converge well below the raw fillrate.
        let mut now = SimTime::ZERO;
        for seq in 0..40 {
            let dec = d.dispatch(seq, 64_000_000, SimDuration::from_millis(20), now);
            now = dec.finish;
        }
        let predicted = d.nodes()[0].predicted_rate();
        assert!(
            predicted < raw * 0.5,
            "forecast {predicted:.3e} should sit well under raw capability {raw:.3e}"
        );
    }

    #[test]
    fn outstanding_queue_tracks_in_flight_frames() {
        let mut d = two_nodes();
        let a = d.dispatch(0, 16_000_000, SimDuration::ZERO, SimTime::ZERO);
        let b = d.dispatch(1, 16_000_000, SimDuration::ZERO, SimTime::ZERO);
        let total: usize = d.nodes().iter().map(|n| n.outstanding()).sum();
        assert_eq!(total, 2);
        d.complete(a.node, 0);
        d.complete(b.node, 1);
        let total: usize = d.nodes().iter().map(|n| n.outstanding()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn failed_node_backlog_is_clamped_when_frames_redispatch_away() {
        let mut d = two_nodes();
        // Saturate node 0 far beyond the failure instant.
        let big = 200_000_000u64;
        let mut on_zero = Vec::new();
        for seq in 0..8 {
            let dec = d.dispatch(seq, big, SimDuration::from_millis(5), SimTime::ZERO);
            if dec.node == 0 {
                on_zero.push(seq);
            }
        }
        let t_fail = SimTime::from_millis(10);
        assert!(
            d.nodes()[0].busy_until() > t_fail,
            "node 0 must be saturated past the failure instant"
        );
        let orphans: Vec<u64> = d.fail_node(0, t_fail).iter().map(|k| k.seq).collect();
        assert_eq!(orphans, on_zero, "every in-flight frame is orphaned");
        assert!(!d.nodes()[0].alive());
        assert_eq!(d.nodes()[0].outstanding(), 0);
        // The regression: the phantom backlog must not survive the
        // failure — busy_until is clamped to the failure instant.
        assert_eq!(d.nodes()[0].busy_until(), t_fail);
        // Orphans re-dispatch onto the surviving node only.
        for seq in orphans {
            let dec = d.dispatch(seq, big, SimDuration::ZERO, t_fail);
            assert_eq!(dec.node, 1, "dead node must never win a dispatch");
        }
    }

    #[test]
    fn fail_node_before_any_backlog_keeps_busy_until_monotone() {
        let mut d = two_nodes();
        // Node never dispatched to: busy_until is ZERO and must not be
        // dragged *forward* by the clamp.
        let orphans = d.fail_node(1, SimTime::from_secs(5));
        assert!(orphans.is_empty());
        assert_eq!(d.nodes()[1].busy_until(), SimTime::ZERO);
    }

    #[test]
    fn cordoned_node_drains_but_never_wins_a_dispatch() {
        let mut d = two_nodes();
        // Put one frame in flight on node 0, then cordon it.
        let dec = d.dispatch(0, 1_000_000, SimDuration::ZERO, SimTime::ZERO);
        d.cordon_node(dec.node, true);
        let n = &d.nodes()[dec.node];
        assert!(n.alive(), "cordoned node stays alive");
        assert!(!n.accepting(), "cordoned node accepts nothing new");
        assert_eq!(
            n.score(1, SimTime::ZERO),
            f64::INFINITY,
            "cordoned score must route traffic elsewhere"
        );
        // The in-flight frame drains normally.
        d.complete(dec.node, 0);
        assert_eq!(d.nodes()[dec.node].outstanding(), 0);
        // best_idle_node skips the cordoned node even when idle.
        let late = SimTime::from_secs(10);
        let other = (dec.node + 1) % 2;
        assert_eq!(d.best_idle_node(1_000, late), Some(other));
        // Lifting the cordon restores it.
        d.cordon_node(dec.node, false);
        assert!(d.nodes()[dec.node].accepting());
    }

    #[test]
    fn warm_node_penalizes_an_alive_destination_like_a_rejoin() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
        ]);
        let t0 = SimTime::from_millis(100);
        let base = d.nodes()[0].score(50_000_000, t0);
        d.warm_node(0, t0, SimDuration::from_millis(200));
        let warmed = d.nodes()[0].score(50_000_000, t0);
        assert!(
            warmed > base + 0.19,
            "warm-up must charge phantom backlog: {base} -> {warmed}"
        );
        // Past the window the penalty is gone; the node never died.
        assert!(d.nodes()[0].alive());
        let after = d.nodes()[0].score(50_000_000, t0 + SimDuration::from_millis(250));
        assert!(after <= base + 1e-9);
    }

    #[test]
    fn revived_node_warms_up_before_winning_dispatches() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
        ]);
        let t0 = SimTime::from_millis(100);
        d.fail_node(0, t0);
        assert_eq!(d.alive_nodes(), 1);
        // Rejoin the fast node with a 200 ms warm-up.
        let warmup = SimDuration::from_millis(200);
        d.revive_node(0, t0, warmup);
        assert_eq!(d.alive_nodes(), 2);
        // Inside the warm-up window the phantom backlog keeps traffic on
        // the slower-but-settled node...
        let early = d.dispatch(0, 50_000_000, SimDuration::ZERO, t0);
        assert_eq!(early.node, 1, "warm-up must shield the rejoined node");
        // ...and once it expires the faster node wins again.
        let late = d.dispatch(1, 50_000_000, SimDuration::ZERO, t0 + warmup * 2);
        assert_eq!(late.node, 0, "warm-up must decay, not persist");
    }

    #[test]
    fn degraded_node_loses_dispatches_it_used_to_win() {
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
        ]);
        let before = d.dispatch(0, 50_000_000, SimDuration::ZERO, SimTime::ZERO);
        assert_eq!(before.node, 0, "shield wins at full capability");
        d.complete(0, 0);
        // Brown the shield out to 10%: slower than the minix now. The
        // forecaster needs a few bookings to track the new ground truth.
        d.degrade_node(0, 0.1);
        let mut now = SimTime::from_secs(1);
        let mut last = 0;
        for seq in 1..12 {
            let dec = d.dispatch(seq, 50_000_000, SimDuration::ZERO, now);
            d.complete(dec.node, seq);
            now = dec.finish.max(now);
            last = dec.node;
        }
        assert_eq!(last, 1, "Eq. 4 must learn the brownout and divert");
    }

    #[test]
    fn dispatch_telemetry_counts_requests_and_queue_waits() {
        let registry = Registry::new();
        let mut d = two_nodes();
        d.attach_registry(&registry);
        let big = 100_000_000u64;
        for seq in 0..6 {
            d.dispatch(seq, big, SimDuration::ZERO, SimTime::ZERO);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::sched::REQUESTS), 6);
        let waits = snap.histogram(names::sched::QUEUE_WAIT).unwrap();
        assert_eq!(waits.count(), 6);
        // Six heavy requests over two nodes at t=0: the later ones must
        // queue behind the earlier, so some wait is strictly positive.
        assert!(waits.max() > 0, "expected queueing, waits all zero");
    }

    #[test]
    fn outstanding_queue_distinguishes_sessions_with_equal_seqs() {
        // Two tenants both dispatch *their own* frame 5 to the same
        // node. Retiring tenant A's frame 5 must leave tenant B's in
        // flight — the bare-seq `retain` used to drop both.
        let mut d = Dispatcher::new(vec![ServiceNode::new(
            DeviceSpec::nvidia_shield(),
            SimDuration::from_millis(2),
        )]);
        d.dispatch_for(101, 5, 16_000_000, SimDuration::ZERO, SimTime::ZERO);
        d.dispatch_for(202, 5, 16_000_000, SimDuration::ZERO, SimTime::ZERO);
        assert_eq!(d.nodes()[0].outstanding(), 2);
        d.complete_for(0, 101, 5);
        assert_eq!(
            d.nodes()[0].outstanding(),
            1,
            "tenant B's frame 5 must survive tenant A's retirement"
        );
        let orphans = d.fail_node(0, SimTime::from_millis(50));
        assert_eq!(
            orphans,
            vec![FrameKey {
                session: 202,
                seq: 5
            }]
        );
    }

    #[test]
    fn shared_ewma_scores_stay_total_across_interleaved_tenants() {
        // Many tenants with wildly different workloads share one node's
        // rate EWMA. Every score must stay non-NaN (total) throughout,
        // including zero-fill frames and the extremes.
        let mut d = Dispatcher::new(vec![
            ServiceNode::new(DeviceSpec::nvidia_shield(), SimDuration::from_millis(2)),
            ServiceNode::new(DeviceSpec::minix_neo_u1(), SimDuration::from_millis(2)),
        ]);
        let fills = [0u64, 1, 50_000_000, u64::MAX >> 20, 12_345];
        let mut now = SimTime::ZERO;
        for (i, &fill) in fills.iter().cycle().take(40).enumerate() {
            let session = (i % 7) as u64 + 1;
            let dec = d.dispatch_for(session, i as u64, fill, SimDuration::from_millis(1), now);
            for node in d.nodes() {
                let s = node.score(fill, now);
                assert!(!s.is_nan(), "score must be total, got NaN");
            }
            if i % 3 == 0 {
                d.complete_for(dec.node, session, i as u64);
            }
            now += SimDuration::from_millis(2);
        }
    }

    #[test]
    fn best_idle_node_skips_busy_and_dead_nodes() {
        let mut d = two_nodes();
        // Both idle: the faster node wins.
        let first = d.best_idle_node(50_000_000, SimTime::ZERO).unwrap();
        d.dispatch_to(first, 1, 0, 200_000_000, SimDuration::ZERO, SimTime::ZERO);
        // The winner is now busy: the other node is the only idle one.
        let second = d.best_idle_node(50_000_000, SimTime::ZERO).unwrap();
        assert_ne!(first, second);
        d.dispatch_to(second, 1, 1, 200_000_000, SimDuration::ZERO, SimTime::ZERO);
        assert_eq!(
            d.best_idle_node(50_000_000, SimTime::ZERO),
            None,
            "every node mid-request: the frame must wait in its queue"
        );
        // Once the bookings drain, nodes become idle again — except dead ones.
        let later = SimTime::from_secs(3600);
        d.fail_node(first, later);
        assert_eq!(d.best_idle_node(50_000_000, later), Some(second));
    }

    #[test]
    fn reorder_buffer_delivers_in_sequence() {
        let mut buf = ReorderBuffer::new();
        buf.insert(2, 2);
        buf.insert(0, 0);
        assert_eq!(buf.pop_ready(), vec![0]);
        assert_eq!(buf.held(), 1);
        buf.insert(1, 1);
        assert_eq!(buf.pop_ready(), vec![1, 2]);
        assert_eq!(buf.awaiting(), 3);
        assert_eq!(buf.max_held(), 2);
    }

    #[test]
    fn reorder_buffer_drops_stale_results() {
        let mut buf = ReorderBuffer::new();
        buf.insert(0, "a");
        assert_eq!(buf.pop_ready(), vec!["a"]);
        buf.insert(0, "late duplicate");
        assert!(buf.pop_ready().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_dispatcher_panics() {
        let _ = Dispatcher::new(Vec::new());
    }
}
