//! Standalone ADN processor endpoints: [`ProcessorCore`], the processor
//! as one sans-IO step over a batch of frames, and [`spawn_processor`],
//! the thread that pumps frames, control messages and heartbeats through
//! it. The deterministic simulator drives the same core.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use adn_rpc::clock::Clock;
use adn_rpc::engine::{EngineChain, Verdict};
use adn_rpc::message::{MessageKind, RpcMessage, RpcStatus};
use adn_rpc::retry::DedupWindow;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, Frame, Link};
use adn_rpc::wire_format;
use adn_telemetry::{ElementMetrics, HopTelemetry, Span, TraceContext};
use adn_wire::buffer::BufferPool;
use adn_wire::header::Priority;

/// Entries retained in the processor's request/response dedup caches.
pub(crate) const PROCESSOR_DEDUP_WINDOW: usize = 4096;

/// Default ceiling on frames pulled per serve-loop iteration. One backlog
/// read, one control-drain, one beat, and one batched send amortize over up
/// to this many frames.
pub const DEFAULT_BATCH_MAX: usize = 32;

/// Why a control-plane query to a processor failed. Distinguishes a
/// processor whose serve loop has exited from one that is alive but wedged —
/// callers must not mistake either for an empty answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlError {
    /// The serve loop has exited (stopped or crashed); the control channel
    /// is closed.
    Stopped,
    /// The processor did not answer within the control deadline (wedged or
    /// overloaded).
    Unresponsive,
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Stopped => write!(f, "processor stopped"),
            CtlError::Unresponsive => write!(f, "processor unresponsive"),
        }
    }
}

impl std::error::Error for CtlError {}

fn ctl_recv_err(e: RecvTimeoutError) -> CtlError {
    match e {
        RecvTimeoutError::Timeout => CtlError::Unresponsive,
        RecvTimeoutError::Disconnected => CtlError::Stopped,
    }
}

/// Admission-control tuning for a processor under overload. The default is
/// fully permissive — no shedding, expired-frame dropping on — which leaves
/// undeadlined traffic (every message in the pre-extension format)
/// completely untouched: the batch=1 golden sim log depends on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Inbound backlog (frames) above which the processor starts shedding
    /// requests lowest-priority-first. `0` disables shedding. The ladder:
    /// above `shed_high_water` only [`Priority::Sheddable`] is refused;
    /// above `2×` Normal goes too; above `4×` everything below Critical.
    pub shed_high_water: usize,
    /// Whether requests whose in-band deadline budget is exhausted are
    /// dropped before the chain runs (counted in
    /// [`StatsSnapshot::expired_drops`], never silently).
    pub drop_expired: bool,
    /// Brownout: refuse every [`Priority::Sheddable`] request regardless of
    /// backlog, conserving capacity for the classes above it. The per-app
    /// fail-open knob the controller flips when a service degrades.
    pub brownout: bool,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            shed_high_water: 0,
            drop_expired: true,
            brownout: false,
        }
    }
}

impl OverloadPolicy {
    /// The lowest priority class still admitted at `backlog` queued frames.
    /// Everything strictly below the returned class is shed.
    pub fn admission_floor(&self, backlog: usize) -> Priority {
        if self.shed_high_water == 0 {
            return if self.brownout {
                Priority::Normal
            } else {
                Priority::Sheddable
            };
        }
        let hw = self.shed_high_water;
        let base = if backlog > hw.saturating_mul(4) {
            Priority::Critical
        } else if backlog > hw.saturating_mul(2) {
            Priority::Important
        } else if backlog > hw {
            Priority::Normal
        } else {
            Priority::Sheddable
        };
        if self.brownout && base == Priority::Sheddable {
            Priority::Normal
        } else {
            base
        }
    }
}

/// Where a processor forwards messages after processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// Use the message's own destination (possibly rewritten by a ROUTE
    /// element in the chain).
    Dst,
    /// Forward to a fixed endpoint (the next processor in a split chain).
    Fixed(EndpointAddr),
}

impl NextHop {
    fn resolve(self, msg_dst: EndpointAddr) -> EndpointAddr {
        match self {
            NextHop::Dst => msg_dst,
            NextHop::Fixed(addr) => addr,
        }
    }
}

/// Cumulative processor counters.
#[derive(Debug, Default)]
pub struct ProcessorStats {
    pub requests: AtomicU64,
    pub responses: AtomicU64,
    pub forwarded: AtomicU64,
    pub dropped: AtomicU64,
    pub aborted: AtomicU64,
    pub decode_errors: AtomicU64,
    pub dedup_hits: AtomicU64,
    pub stale_responses: AtomicU64,
    pub queue_depth: AtomicU64,
    pub drain_drops: AtomicU64,
    pub expired_drops: AtomicU64,
    pub shed: AtomicU64,
}

/// Point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub responses: u64,
    pub forwarded: u64,
    pub dropped: u64,
    pub aborted: u64,
    pub decode_errors: u64,
    /// Retransmitted frames answered from the dedup caches without
    /// re-running the chain.
    pub dedup_hits: u64,
    /// Responses with no flow entry and no cached reply (dropped: their
    /// NAT'd destination would be this processor itself).
    pub stale_responses: u64,
    /// Frames waiting in the inbound queue when the serve loop last checked
    /// — the congestion signal the controller's load-aware placement reads.
    pub queue_depth: u64,
    /// Frames lost during a [`ProcessorHandle::drain`] because the link
    /// rejected them even after a retry. Zero-loss reconfiguration demands
    /// this stays zero; the sim's loss invariant reads it.
    pub drain_drops: u64,
    /// Requests dropped before the chain because their in-band deadline
    /// budget was already exhausted — the caller gave up; executing them
    /// would be pure waste under overload.
    pub expired_drops: u64,
    /// Requests refused with a fast-fail [`adn_rpc::message::RpcStatus::Shed`]
    /// reply, by admission control or by a chain shed verdict.
    pub shed: u64,
}

impl ProcessorStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            stale_responses: self.stale_responses.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            drain_drops: self.drain_drops.load(Ordering::Relaxed),
            expired_drops: self.expired_drops.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Element-wise sum, used to aggregate per-shard snapshots into one
    /// logical processor view. `queue_depth` also sums: it is the total
    /// backlog across shard inboxes.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests + other.requests,
            responses: self.responses + other.responses,
            forwarded: self.forwarded + other.forwarded,
            dropped: self.dropped + other.dropped,
            aborted: self.aborted + other.aborted,
            decode_errors: self.decode_errors + other.decode_errors,
            dedup_hits: self.dedup_hits + other.dedup_hits,
            stale_responses: self.stale_responses + other.stale_responses,
            queue_depth: self.queue_depth + other.queue_depth,
            drain_drops: self.drain_drops + other.drain_drops,
            expired_drops: self.expired_drops + other.expired_drops,
            shed: self.shed + other.shed,
        }
    }
}

/// Control messages to a running processor.
enum Ctl {
    /// Stop pulling frames; queued frames accumulate (lossless pause).
    Pause(Sender<()>),
    /// Resume pulling frames.
    Resume,
    /// Export the chain's state images.
    ExportState(Sender<Vec<Vec<u8>>>),
    /// Import state images into the chain.
    ImportState(Vec<Vec<u8>>, Sender<Result<(), String>>),
    /// Replace the engine chain (hot update). Replies with the old chain's
    /// exported state.
    InstallChain(EngineChain, Sender<Vec<Vec<u8>>>),
    /// Re-send every currently queued frame onto the link addressed to this
    /// processor's own address (used after the fabric was re-pointed to a
    /// successor), then reply with the count.
    Drain(Sender<usize>),
    /// Exit the serve loop.
    Stop,
    /// Finish the queued frames, then exit the serve loop.
    StopWhenIdle,
    /// Re-point where requests are forwarded after processing (controller
    /// re-routing during failover).
    SetRequestNext(NextHop),
    /// Replace the overload/admission policy (controller brownout and
    /// shedding knobs). Acknowledged so the caller knows admission
    /// decisions after the call use the new policy.
    SetOverload(OverloadPolicy, Sender<()>),
    /// Simulate a hard crash: stop processing frames and heartbeating, but
    /// keep the frame receiver open so traffic silently blackholes (a dead
    /// host, not a closed socket). Only `Stop` ends the crashed thread.
    Crash,
}

/// Configuration for [`spawn_processor`].
pub struct ProcessorConfig {
    /// Flat address this processor serves.
    pub addr: EndpointAddr,
    /// Service schema for decoding.
    pub service: Arc<ServiceSchema>,
    /// The compiled chain.
    pub chain: EngineChain,
    /// Where requests go after processing.
    pub request_next: NextHop,
    /// Where responses go after processing (usually `Dst` — the flow table
    /// already restored the original requester).
    pub response_next: NextHop,
    /// NAT flow entries inherited from a predecessor (live migration moves
    /// in-flight flows along with element state).
    pub initial_flows: HashMap<u64, EndpointAddr>,
    /// Observability wiring. `None` keeps the serve loop on the untimed
    /// path; `Some` costs one sampling branch per message until a message
    /// is actually sampled.
    pub telemetry: Option<HopTelemetry>,
    /// Time source for the liveness heartbeat. `None` uses the wall clock;
    /// deterministic tests share a virtual clock between processors and the
    /// controller so heartbeat ages follow controlled jumps.
    pub clock: Option<Arc<dyn Clock>>,
    /// Ceiling on frames pulled per serve-loop iteration
    /// ([`DEFAULT_BATCH_MAX`] unless overridden). `1` restores strict
    /// frame-at-a-time behavior.
    pub batch_max: usize,
    /// Admission-control tuning (shedding high-water mark, expired-frame
    /// dropping, brownout). The default touches nothing.
    pub overload: OverloadPolicy,
    /// Capacity of each per-shard inbox when this config is sharded via
    /// [`crate::shard::spawn_processor_sharded`] (`None` = unbounded, the
    /// historical behavior). A full inbox drops the frame, counted in
    /// [`crate::shard::ShardedProcessor::inbox_drops`].
    pub inbox_capacity: Option<usize>,
}

impl ProcessorConfig {
    /// Convenience constructor with an empty flow table.
    pub fn new(
        addr: EndpointAddr,
        service: Arc<ServiceSchema>,
        chain: EngineChain,
        request_next: NextHop,
        response_next: NextHop,
    ) -> Self {
        Self {
            addr,
            service,
            chain,
            request_next,
            response_next,
            initial_flows: HashMap::new(),
            telemetry: None,
            clock: None,
            batch_max: DEFAULT_BATCH_MAX,
            overload: OverloadPolicy::default(),
            inbox_capacity: None,
        }
    }

    /// Attaches observability wiring (builder style).
    pub fn with_telemetry(mut self, telemetry: HopTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Substitutes the heartbeat time source (builder style).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Overrides the per-iteration batch ceiling (builder style). Clamped
    /// to at least 1.
    pub fn with_batch(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Sets the overload/admission policy (builder style).
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Bounds the per-shard inboxes (builder style; sharded spawns only).
    pub fn with_inbox_capacity(mut self, capacity: usize) -> Self {
        self.inbox_capacity = Some(capacity.max(1));
        self
    }
}

/// Per-processor observation state: the chain's metric series (rebuilt on
/// hot chain swaps), the scratch stage-timing buffer, and the span sink.
struct HopObserver {
    telemetry: HopTelemetry,
    addr: EndpointAddr,
    /// Engine names in chain order, cloned once per chain install.
    names: Vec<String>,
    /// Registry series positionally matching `names`.
    series: Vec<Arc<ElementMetrics>>,
    /// Scratch buffer for [`EngineChain::process_timed`].
    stage_ns: Vec<u64>,
}

impl HopObserver {
    fn new(telemetry: HopTelemetry, addr: EndpointAddr, chain: &EngineChain) -> Self {
        let mut obs = Self {
            telemetry,
            addr,
            names: Vec::new(),
            series: Vec::new(),
            stage_ns: Vec::new(),
        };
        obs.rebind(chain);
        obs
    }

    /// Re-resolves the metric series after a chain install. Series register
    /// under the telemetry's metrics id when set (distinct per shard of a
    /// sharded processor), else under the hop address.
    fn rebind(&mut self, chain: &EngineChain) {
        let metrics_id = self.telemetry.metrics_processor.unwrap_or(self.addr);
        self.names = chain.names().into_iter().map(str::to_owned).collect();
        self.series = self
            .names
            .iter()
            .map(|n| {
                self.telemetry
                    .registry
                    .element(&self.telemetry.app, n, metrics_id)
            })
            .collect();
    }

    /// Whether this message takes the timed path: in-band context wins (so
    /// every hop of a sampled call agrees), otherwise the local sampler
    /// decides by call id.
    fn sampled(&self, trace: Option<&TraceContext>, call_id: u64) -> bool {
        trace.is_some() || self.telemetry.sampler.decide(call_id)
    }

    /// Records the stage timings `process_timed` left in `stage_ns`. Only
    /// the last executed stage can have produced a non-forward verdict.
    fn record_stages(&self, verdict: &Verdict) {
        let ran = self.stage_ns.len();
        for (i, (series, &ns)) in self.series.iter().zip(&self.stage_ns).enumerate() {
            let forwarded = verdict.is_forward() || i + 1 < ran;
            series.observe(ns, forwarded);
        }
    }

    /// Emits a span for a traced hop, honoring the context's budget flag.
    fn emit_span(&self, ctx: &TraceContext, call_id: u64, queue_ns: u64, serialize_ns: u64) {
        if !ctx.budget {
            return;
        }
        self.telemetry.spans.push(Span {
            trace_id: ctx.trace_id,
            span_id: ctx.span_at(self.addr),
            parent_span: ctx.parent_span,
            call_id,
            processor: self.addr,
            queue_ns,
            stages: self
                .names
                .iter()
                .zip(&self.stage_ns)
                .map(|(n, &ns)| (n.clone(), ns))
                .collect(),
            serialize_ns,
        });
    }
}

/// Handle to a running processor.
pub struct ProcessorHandle {
    addr: EndpointAddr,
    ctl: Sender<Ctl>,
    stats: Arc<ProcessorStats>,
    flows: Arc<parking_lot::Mutex<HashMap<u64, EndpointAddr>>>,
    /// Nanoseconds on `clock` of the serve loop's last liveness beat.
    beat: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ProcessorHandle {
    /// The processor's flat address.
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Time since the serve loop last proved liveness. The loop beats every
    /// iteration (including while paused), so a large age means the
    /// processor is dead or wedged — the controller's failure detector
    /// compares this against its heartbeat timeout.
    pub fn heartbeat_age(&self) -> Duration {
        let last = Duration::from_nanos(self.beat.load(Ordering::Relaxed));
        self.clock.now().saturating_sub(last)
    }

    /// The time source this processor's heartbeat runs on. Reconfiguration
    /// hands it to successors so a migrated processor keeps the same
    /// (possibly virtual) clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Simulates a hard crash for failure testing: frames blackhole,
    /// heartbeats stop, control queries fail with [`CtlError::Stopped`].
    /// The thread itself stays joinable (drop/stop still work).
    pub fn kill(&self) {
        let _ = self.ctl.send(Ctl::Crash);
    }

    /// Re-points where requests are forwarded after processing (controller
    /// re-routing during failover).
    pub fn set_request_next(&self, next: NextHop) {
        let _ = self.ctl.send(Ctl::SetRequestNext(next));
    }

    /// Replaces the overload/admission policy (controller brownout and
    /// shedding knobs). Blocks (bounded) until the serve loop applies it:
    /// frames admitted after this returns saw the new policy, so a
    /// brownout flip cannot race the next request.
    pub fn set_overload(&self, overload: OverloadPolicy) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.ctl.send(Ctl::SetOverload(overload, tx)).is_ok() {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        }
    }

    /// Pauses frame processing (queued frames are retained).
    pub fn pause(&self) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.ctl.send(Ctl::Pause(tx)).is_ok() {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        }
    }

    /// Resumes frame processing.
    pub fn resume(&self) {
        let _ = self.ctl.send(Ctl::Resume);
    }

    /// Exports per-engine state images. Fails explicitly if the processor
    /// is stopped or unresponsive — an empty answer is a real (stateless)
    /// export, never a masked hang.
    pub fn export_state(&self) -> Result<Vec<Vec<u8>>, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::ExportState(tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Imports per-engine state images.
    pub fn import_state(&self, images: Vec<Vec<u8>>) -> Result<(), String> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::ImportState(images, tx))
            .map_err(|_| CtlError::Stopped.to_string())?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|e| ctl_recv_err(e).to_string())?
    }

    /// Hot-swaps the engine chain, returning the old chain's state images.
    pub fn install_chain(&self, chain: EngineChain) -> Result<Vec<Vec<u8>>, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::InstallChain(chain, tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Snapshot of the NAT flow table (in-flight call id → requester).
    /// Live migration hands this to the successor so in-flight responses
    /// still find their way back.
    pub fn export_flows(&self) -> HashMap<u64, EndpointAddr> {
        self.flows.lock().clone()
    }

    /// Re-emits queued frames to this processor's address (after the fabric
    /// has been re-pointed at a successor). Returns frames drained, or an
    /// explicit error if the processor is stopped or unresponsive (a hung
    /// processor must not look like an empty queue).
    pub fn drain(&self) -> Result<usize, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::Drain(tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Stops the processor thread.
    pub fn stop(mut self) {
        let _ = self.ctl.send(Ctl::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Asks the processor to finish its queued frames and then exit, and
    /// waits for it (make-before-break retirement).
    pub fn stop_when_idle(mut self) {
        let _ = self.ctl.send(Ctl::StopWhenIdle);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ProcessorHandle {
    fn drop(&mut self) {
        let _ = self.ctl.send(Ctl::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What a [`ProcessorCore`] did with one inbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The chain ran and forwarded the message.
    Forward,
    /// The chain ran and dropped the message.
    Drop,
    /// The chain ran and aborted the message with this code: a request's
    /// caller gets an aborted reply, a response travels home aborted.
    Abort(u32),
    /// The chain ran and a stage shed the message: a request's caller gets
    /// a Shed reply, a response travels home with its status rewritten.
    ChainShed,
    /// A retransmission answered from a dedup cache without running the
    /// chain. `deferred` marks an in-batch duplicate, replayed once the
    /// frame holding its key had executed.
    Replay { deferred: bool },
    /// Admission refused a request of this priority (below the backlog's
    /// floor) with a fast-fail Shed reply.
    Shed(Priority),
    /// Admission dropped a request whose deadline budget was exhausted.
    Expired,
    /// A response with neither a flow entry nor a cached reply.
    Stale,
    /// The payload did not parse.
    Malformed,
}

impl Fate {
    /// Whether the chain executed for this frame.
    pub fn ran_chain(self) -> bool {
        matches!(
            self,
            Fate::Forward | Fate::Drop | Fate::Abort(_) | Fate::ChainShed
        )
    }
}

/// The typed outcome of one inbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Request or response; `None` when the envelope did not parse.
    pub kind: Option<MessageKind>,
    /// The frame's call id (0 when the envelope did not parse).
    pub call_id: u64,
    /// What happened to the frame.
    pub fate: Fate,
    /// Whether an outbound frame left: in [`Outputs::forwards`] when the
    /// chain ran, in [`Outputs::replays`] otherwise.
    pub sent: bool,
    /// The inbound trace context of a message the chain ran on.
    pub trace: Option<TraceContext>,
}

/// What one [`ProcessorCore::on_batch`] step produced. Every field is
/// cleared at the start of a step, so one value serves a whole run.
#[derive(Debug, Default)]
pub struct Outputs {
    /// Fresh chain outputs, in input order. The driver counts the ones the
    /// link accepts in [`StatsSnapshot::forwarded`].
    pub forwards: Vec<Frame>,
    /// Dedup replays and admission Shed replies, never counted forwarded.
    pub replays: Vec<Frame>,
    /// One outcome per input frame, in input order, except that in-batch
    /// duplicates come last, after the batch they waited for. Walking
    /// them in order and taking the next frame of the queue each sent one
    /// names pairs every outcome with its frame.
    pub outcomes: Vec<Outcome>,
}

/// Per-message bookkeeping carried from batch classification to verdict
/// handling.
struct RunMeta {
    sampled: bool,
    /// Inbound trace context (forwards re-parent on this hop).
    ctx: Option<TraceContext>,
    origin: Origin,
    /// Index of this message's entry in [`Outputs::outcomes`].
    slot: usize,
}

/// What kind of traffic a runnable message is, plus the identifiers the
/// at-most-once machinery needs after the chain has (possibly) rewritten
/// the message.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    Request {
        /// Dedup key: (pre-NAT source, call id).
        key: (EndpointAddr, u64),
        orig_src: EndpointAddr,
    },
    Response {
        call_id: u64,
    },
}

/// A frame set aside during classification because an earlier frame in the
/// same batch holds its dedup key: its outcome is replayed from the cache
/// once the batch has executed, exactly as sequential processing would.
#[derive(Clone, Copy)]
enum Deferred {
    Request((EndpointAddr, u64)),
    Response(u64),
}

/// The processor itself, without a thread, a channel or a clock: one
/// implementation of classify → admission → chain → verdict → deferred
/// replay. [`spawn_processor`] pumps frames from a channel through it; the
/// deterministic simulator drives the same value on virtual time. The
/// driver measures queue wait and backlog and hands them in with each
/// batch.
pub struct ProcessorCore {
    addr: EndpointAddr,
    service: Arc<ServiceSchema>,
    chain: EngineChain,
    request_next: NextHop,
    response_next: NextHop,
    overload: OverloadPolicy,
    /// NAT flow table: call id → original requester. Shared so a handle
    /// can still export the flows of a crashed processor.
    flows: Arc<parking_lot::Mutex<HashMap<u64, EndpointAddr>>>,
    /// At-most-once caches. Requests key on (pre-NAT src, call id) and
    /// cache the outbound frame, so a retransmission replays the forward
    /// without re-running the chain or re-inserting the flow. Responses key
    /// on call id and cache the post-chain reply, so a response
    /// retransmitted after its flow entry was consumed still reaches the
    /// requester instead of looping back to us.
    req_cache: DedupWindow<(EndpointAddr, u64), Option<Frame>>,
    resp_cache: DedupWindow<u64, Option<Frame>>,
    stats: Arc<ProcessorStats>,
    /// Inbound payloads return here after decode and outbound encodes draw
    /// from here, so the steady-state hot path does not allocate per
    /// message.
    pool: BufferPool,
    observer: Option<HopObserver>,
    runnable: Vec<RpcMessage>,
    meta: Vec<RunMeta>,
    verdicts: Vec<Verdict>,
    deferred: Vec<Deferred>,
}

impl ProcessorCore {
    /// Builds the core a config describes. The pump-only fields (`clock`,
    /// `inbox_capacity`) are ignored; `batch_max` sizes the buffer pool.
    pub fn new(config: ProcessorConfig) -> Self {
        let batch_max = config.batch_max.max(1);
        Self {
            observer: config
                .telemetry
                .map(|t| HopObserver::new(t, config.addr, &config.chain)),
            addr: config.addr,
            service: config.service,
            chain: config.chain,
            request_next: config.request_next,
            response_next: config.response_next,
            overload: config.overload,
            flows: Arc::new(parking_lot::Mutex::new(config.initial_flows)),
            req_cache: DedupWindow::new(PROCESSOR_DEDUP_WINDOW),
            resp_cache: DedupWindow::new(PROCESSOR_DEDUP_WINDOW),
            stats: Arc::default(),
            pool: BufferPool::new(512, 2 * batch_max),
            runnable: Vec::with_capacity(batch_max),
            meta: Vec::with_capacity(batch_max),
            verdicts: Vec::with_capacity(batch_max),
            deferred: Vec::new(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Where requests go after processing.
    pub fn request_next(&self) -> NextHop {
        self.request_next
    }

    /// Re-points where requests go after processing.
    pub fn set_request_next(&mut self, next: NextHop) {
        self.request_next = next;
    }

    /// Replaces the overload/admission policy.
    pub fn set_overload(&mut self, overload: OverloadPolicy) {
        self.overload = overload;
    }

    /// The chain's per-engine state images.
    pub fn export_state(&self) -> Vec<Vec<u8>> {
        self.chain.export_states()
    }

    /// Imports per-engine state images into the chain.
    pub fn import_state(&mut self, images: &[Vec<u8>]) -> Result<(), String> {
        self.chain.import_states(images)
    }

    /// Replaces the chain (hot update), returning the old chain's state
    /// images. Flows and dedup caches stay.
    pub fn install_chain(&mut self, chain: EngineChain) -> Vec<Vec<u8>> {
        let old = std::mem::replace(&mut self.chain, chain);
        if let Some(obs) = self.observer.as_mut() {
            obs.rebind(&self.chain);
        }
        old.export_states()
    }

    /// Runs one batch: every frame gets an envelope peek; retransmissions,
    /// stale responses and refused requests settle right there, without a
    /// full decode. `queue_ns` is how long the batch waited (charged to
    /// each deadline budget) and `backlog` the frames still queued behind
    /// it (the shed ladder's input).
    pub fn on_batch(
        &mut self,
        queue_ns: u64,
        backlog: usize,
        frames: impl IntoIterator<Item = Frame>,
        out: &mut Outputs,
    ) {
        out.forwards.clear();
        out.replays.clear();
        out.outcomes.clear();
        for frame in frames {
            if let Some(outcome) = self.classify(frame, queue_ns, backlog, out) {
                out.outcomes.push(outcome);
            }
        }

        // At most one fresh frame per runnable message: size the queue
        // once, since a driver that hands it to `send_batch` leaves none.
        out.forwards.reserve(self.runnable.len());

        // Run the chain and turn verdicts into outbound frames. Unsampled
        // batches (the common case) take the engine-major batch entry
        // point; a batch containing any sampled message falls back to
        // per-message processing so stage timings and spans attribute to
        // the right message.
        let mut runnable = std::mem::take(&mut self.runnable);
        let mut meta = std::mem::take(&mut self.meta);
        if meta.iter().any(|m| m.sampled) {
            for (mut msg, m) in runnable.drain(..).zip(meta.drain(..)) {
                let verdict = match (&mut self.observer, m.sampled) {
                    (Some(obs), true) => {
                        let v = self.chain.process_timed(&mut msg, &mut obs.stage_ns);
                        obs.record_stages(&v);
                        v
                    }
                    _ => self.chain.process(&mut msg),
                };
                let call_id = msg.call_id;
                let forward = verdict.is_forward();
                // Every request outcome and forwarded/dropped responses
                // emit a span; response aborts do not.
                let emit = !(matches!(m.origin, Origin::Response { .. })
                    && matches!(verdict, Verdict::Abort { .. }));
                let serialize = Instant::now();
                self.apply(verdict, msg, &m, out);
                if let (Some(obs), Some(c), true, true) = (&self.observer, &m.ctx, m.sampled, emit)
                {
                    let ser_ns = if forward {
                        serialize.elapsed().as_nanos() as u64
                    } else {
                        0
                    };
                    obs.emit_span(c, call_id, queue_ns, ser_ns);
                }
            }
        } else {
            let mut verdicts = std::mem::take(&mut self.verdicts);
            self.chain.process_batch(&mut runnable, &mut verdicts);
            for ((msg, m), verdict) in runnable
                .drain(..)
                .zip(meta.drain(..))
                .zip(verdicts.drain(..))
            {
                self.apply(verdict, msg, &m, out);
            }
            self.verdicts = verdicts;
        }
        self.runnable = runnable;
        self.meta = meta;

        // Deferred in-batch duplicates replay the (now recorded) outcome
        // of their first instance. Every runnable key was cached above, so
        // a miss means the window evicted it; the chain already ran for
        // that key, and nothing is resent.
        for d in self.deferred.drain(..) {
            let (kind, call_id, cached) = match d {
                Deferred::Request(key) => (MessageKind::Request, key.1, self.req_cache.get(&key)),
                Deferred::Response(call_id) => (
                    MessageKind::Response,
                    call_id,
                    self.resp_cache.get(&call_id),
                ),
            };
            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            out.outcomes.push(Outcome {
                kind: Some(kind),
                call_id,
                fate: Fate::Replay { deferred: true },
                sent: replay(cached.and_then(Option::as_ref), &mut out.replays),
                trace: None,
            });
        }
    }

    /// Settles one frame at the envelope, or decodes it into the runnable
    /// set (returning a placeholder outcome that [`Self::apply`] fills).
    /// `None` means the frame was deferred behind an earlier one.
    fn classify(
        &mut self,
        frame: Frame,
        queue_ns: u64,
        backlog: usize,
        out: &mut Outputs,
    ) -> Option<Outcome> {
        let payload = frame.payload;
        let Ok(env) = wire_format::peek_envelope(&payload) else {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            self.pool.give(payload);
            return Some(Outcome {
                kind: None,
                call_id: 0,
                fate: Fate::Malformed,
                sent: false,
                trace: None,
            });
        };
        let settled = |fate, sent| {
            Some(Outcome {
                kind: Some(env.kind),
                call_id: env.call_id,
                fate,
                sent,
                trace: None,
            })
        };
        let (msg, origin) =
            match env.kind {
                MessageKind::Request => {
                    let key = (env.src, env.call_id);
                    if self
                        .meta
                        .iter()
                        .any(|m| matches!(m.origin, Origin::Request { key: k, .. } if k == key))
                    {
                        self.deferred.push(Deferred::Request(key));
                        self.pool.give(payload);
                        return None;
                    }
                    if let Some(cached) = self.req_cache.get(&key) {
                        // Retransmission: replay the recorded outcome without
                        // re-running the chain (at-most-once through stateful
                        // elements) or re-inserting the flow.
                        self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        let sent = replay(cached.as_ref(), &mut out.replays);
                        self.pool.give(payload);
                        return settled(Fate::Replay { deferred: false }, sent);
                    }
                    // Admission control, straight off the envelope: refused
                    // frames never pay a full decode or the chain. The hop
                    // first charges the batch's queue wait against the
                    // in-band budget.
                    let remaining = env.deadline.map(|d| d.consume(queue_ns));
                    if self.overload.drop_expired && remaining.is_some_and(|d| d.expired()) {
                        // The caller already gave up. Counted, never cached: a
                        // retry arrives with a fresh budget and is judged
                        // afresh.
                        self.stats.expired_drops.fetch_add(1, Ordering::Relaxed);
                        self.pool.give(payload);
                        return settled(Fate::Expired, false);
                    }
                    // Unstamped traffic rides as Normal: brownout (floor
                    // Normal) never touches it, deep overload (floor above
                    // Normal) sheds it like any other non-critical class.
                    let priority = remaining.map_or(Priority::Normal, |d| d.priority);
                    if priority < self.overload.admission_floor(backlog) {
                        // Fast-fail refusal: a Shed reply tells the client to
                        // back off instead of letting its attempt time out
                        // into a retry storm. Not dedup-cached: the request
                        // never ran, so a later retry is a fresh decision.
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                        self.pool.give(payload);
                        let mut sent = false;
                        if let Some(method) = self.service.method_by_id(env.method_id) {
                            let mut r = RpcMessage::request(
                                env.call_id,
                                env.method_id,
                                method.response.clone(),
                            );
                            r.kind = MessageKind::Response;
                            r.status = RpcStatus::Shed;
                            r.src = self.addr;
                            r.dst = env.src;
                            r.trace = env.trace;
                            r.deadline = remaining;
                            if let Some(frame) = encode_out(&self.pool, self.addr, env.src, &r) {
                                out.replays.push(frame);
                                sent = true;
                            }
                        }
                        return settled(Fate::Shed(priority), sent);
                    }
                    let Some(mut msg) = self.decode(payload) else {
                        return settled(Fate::Malformed, false);
                    };
                    // The forwarded message carries the decremented budget:
                    // downstream hops see strictly less.
                    msg.deadline = remaining;
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let orig_src = msg.src;
                    (msg, Origin::Request { key, orig_src })
                }
                MessageKind::Response => {
                    let call_id = env.call_id;
                    if self.meta.iter().any(
                        |m| matches!(m.origin, Origin::Response { call_id: c } if c == call_id),
                    ) {
                        self.deferred.push(Deferred::Response(call_id));
                        self.pool.give(payload);
                        return None;
                    }
                    let Some(mut msg) = self.decode(payload) else {
                        return settled(Fate::Malformed, false);
                    };
                    // NAT out: restore the original requester.
                    let flow = self.flows.lock().remove(&call_id);
                    let Some(orig_src) = flow else {
                        // No flow entry: either a retransmitted response whose
                        // flow was already consumed (replay the cached reply)
                        // or a stale/foreign response whose NAT'd destination
                        // is this processor itself (refuse it before the chain
                        // — forwarding would self-loop).
                        if let Some(cached) = self.resp_cache.get(&call_id) {
                            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                            let sent = replay(cached.as_ref(), &mut out.replays);
                            return settled(Fate::Replay { deferred: false }, sent);
                        }
                        self.stats.stale_responses.fetch_add(1, Ordering::Relaxed);
                        return settled(Fate::Stale, false);
                    };
                    self.stats.responses.fetch_add(1, Ordering::Relaxed);
                    msg.dst = orig_src;
                    // Responses charge their queue wait too, so the echoed
                    // budget stays monotonic end to end.
                    msg.deadline = msg.deadline.map(|d| d.consume(queue_ns));
                    (msg, Origin::Response { call_id })
                }
            };
        // Sampling: the in-band context wins (every hop of a sampled call
        // agrees without coordination), otherwise the local sampler
        // decides by call id.
        let sampled = self
            .observer
            .as_ref()
            .is_some_and(|o| o.sampled(msg.trace.as_ref(), msg.call_id));
        self.meta.push(RunMeta {
            sampled,
            ctx: msg.trace,
            origin,
            slot: out.outcomes.len(),
        });
        self.runnable.push(msg);
        settled(Fate::Forward, false)
    }

    /// Full decode of a chain-bound payload; the buffer returns to the pool
    /// either way.
    fn decode(&self, payload: Vec<u8>) -> Option<RpcMessage> {
        let msg = wire_format::decode_message_exact(&payload, &self.service).ok();
        if msg.is_none() {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.pool.give(payload);
        msg
    }

    /// Applies a chain verdict to one message: NAT bookkeeping, trace
    /// re-parenting, outbound encode, the at-most-once cache insert, and
    /// the message's outcome. Fresh frames land in `out.forwards`.
    fn apply(&mut self, verdict: Verdict, mut msg: RpcMessage, m: &RunMeta, out: &mut Outputs) {
        let addr = self.addr;
        let call_id = msg.call_id;
        // Forwards re-parent the trace so downstream spans hang off this
        // hop; replies to the caller keep the inbound context.
        let reparent = |msg: &mut RpcMessage| {
            if let Some(c) = &m.ctx {
                msg.trace = Some(c.child_from(addr));
            }
        };
        let (fate, send) = match (m.origin, verdict) {
            (_, Verdict::Drop) => (Fate::Drop, None),
            (Origin::Request { orig_src, .. }, Verdict::Forward) => {
                // NAT in: responses will come back to us.
                self.flows.lock().insert(call_id, orig_src);
                reparent(&mut msg);
                let to = self.request_next.resolve(msg.dst);
                (Fate::Forward, Some((msg, to)))
            }
            (Origin::Request { orig_src, .. }, Verdict::Abort { code, message }) => (
                Fate::Abort(code),
                self.reply(&msg, orig_src, RpcStatus::Aborted { code, message }),
            ),
            // A chain element refused the request. Unlike the pre-chain
            // admission shed, the chain partially ran, so the outcome is
            // cached like an abort: a retransmission replays the refusal
            // instead of re-driving stateful elements.
            (Origin::Request { orig_src, .. }, Verdict::Shed) => {
                (Fate::ChainShed, self.reply(&msg, orig_src, RpcStatus::Shed))
            }
            (Origin::Response { .. }, Verdict::Forward) => {
                reparent(&mut msg);
                let to = self.response_next.resolve(msg.dst);
                (Fate::Forward, Some((msg, to)))
            }
            (Origin::Response { .. }, Verdict::Abort { code, message }) => {
                msg.abort(code, message);
                let to = msg.dst;
                (Fate::Abort(code), Some((msg, to)))
            }
            // Shedding a response would waste the work already done
            // upstream; rewrite the status instead so the client learns
            // the path is overloaded, and forward it home.
            (Origin::Response { .. }, Verdict::Shed) => {
                msg.status = RpcStatus::Shed;
                let to = self.response_next.resolve(msg.dst);
                (Fate::ChainShed, Some((msg, to)))
            }
        };
        let counter = match fate {
            Fate::Drop => Some(&self.stats.dropped),
            Fate::Abort(_) => Some(&self.stats.aborted),
            Fate::ChainShed => Some(&self.stats.shed),
            _ => None,
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let frame = send.and_then(|(mut msg, to)| {
            msg.src = addr;
            encode_out(&self.pool, addr, to, &msg)
        });
        if let Some(f) = &frame {
            out.forwards.push(f.clone());
        }
        let sent = frame.is_some();
        let kind = match m.origin {
            Origin::Request { key, .. } => {
                self.req_cache.insert(key, frame);
                MessageKind::Request
            }
            Origin::Response { call_id } => {
                self.resp_cache.insert(call_id, frame);
                MessageKind::Response
            }
        };
        out.outcomes[m.slot] = Outcome {
            kind: Some(kind),
            call_id,
            fate,
            sent,
            trace: m.ctx,
        };
    }

    /// A reply to request `req`, addressed to its caller `to`.
    fn reply(
        &self,
        req: &RpcMessage,
        to: EndpointAddr,
        status: RpcStatus,
    ) -> Option<(RpcMessage, EndpointAddr)> {
        let method = self.service.method_by_id(req.method_id)?;
        let mut resp = RpcMessage::response_to(req, method.response.clone());
        resp.status = status;
        resp.dst = to;
        Some((resp, to))
    }
}

/// Queues a cached outbound frame for replay; whether there was one.
fn replay(cached: Option<&Frame>, replays: &mut Vec<Frame>) -> bool {
    replays.extend(cached.cloned());
    cached.is_some()
}

/// Spawns a processor thread serving `config.addr` with frames from
/// `frames` over `link`: a pump around a [`ProcessorCore`] that adds
/// control messages, heartbeats, the queue-depth gauge, queue-wait
/// measurement and batched sends.
pub fn spawn_processor(
    mut config: ProcessorConfig,
    link: Arc<dyn Link>,
    frames: Receiver<Frame>,
) -> ProcessorHandle {
    let (ctl_tx, ctl_rx) = crossbeam::channel::unbounded();
    let clock = config.clock.take().unwrap_or_else(adn_rpc::clock::system);
    let addr = config.addr;
    let batch_max = config.batch_max.max(1);
    let stats = Arc::new(ProcessorStats::default());
    let flows = Arc::new(parking_lot::Mutex::new(std::mem::take(
        &mut config.initial_flows,
    )));
    let (thread_stats, thread_flows) = (stats.clone(), flows.clone());
    // Born live: the spawn itself counts as a beat. Otherwise a failure
    // detector polling between spawn and the serve loop's first iteration
    // sees age = now − 0 and declares a newborn (e.g. a failover
    // successor) dead — a race on the wall clock, a certainty on a
    // virtual one.
    let beat = Arc::new(AtomicU64::new(clock.now().as_nanos() as u64));
    let thread_beat = beat.clone();
    let thread_clock = clock.clone();

    let join = std::thread::Builder::new()
        .name(format!("adn-processor-{addr}"))
        .spawn(move || {
            // The core (metric series, caches, pool) is built on the serve
            // thread, off the spawner's path; the handle shares its
            // counters and flow table.
            let stats = thread_stats.clone();
            let mut core = ProcessorCore {
                stats: thread_stats,
                flows: thread_flows,
                ..ProcessorCore::new(config)
            };
            // When the previous batch finished, on the processor's clock: a
            // frame pulled from a non-empty queue has been waiting at least
            // since then (the queue-wait approximation spans record). Read
            // through `Clock`, not `Instant`, so queue-wait is deterministic
            // under a virtual clock.
            let mut last_done = thread_clock.now();
            let mut paused = false;
            let mut stopping = false;
            let mut crashed = false;
            let mut batch: Vec<Frame> = Vec::with_capacity(batch_max);
            let mut out = Outputs::default();

            loop {
                if crashed {
                    // Blackhole: no frame processing, no heartbeats, no
                    // control replies. Only Stop (sent by stop()/drop) or a
                    // closed control channel ends the thread.
                    match ctl_rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(Ctl::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                        _ => continue,
                    }
                }
                thread_beat.store(thread_clock.now().as_nanos() as u64, Ordering::Relaxed);
                // Drain control messages first.
                while let Ok(ctl) = ctl_rx.try_recv() {
                    match ctl {
                        Ctl::Pause(reply) => {
                            paused = true;
                            let _ = reply.send(());
                        }
                        Ctl::Resume => paused = false,
                        Ctl::ExportState(reply) => {
                            let _ = reply.send(core.export_state());
                        }
                        Ctl::ImportState(images, reply) => {
                            let _ = reply.send(core.import_state(&images));
                        }
                        Ctl::InstallChain(chain, reply) => {
                            let _ = reply.send(core.install_chain(chain));
                        }
                        Ctl::Drain(reply) => {
                            let mut count = 0;
                            while let Ok(frame) = frames.try_recv() {
                                // Same dst: the fabric now delivers to the
                                // successor attached at this address. A
                                // failed send is retried once (the link may
                                // have been mid-repoint); a frame lost after
                                // that is recorded, never silently dropped —
                                // the sim's zero-loss invariant reads this
                                // counter.
                                if link.send(frame.clone()).is_ok() || link.send(frame).is_ok() {
                                    count += 1;
                                } else {
                                    stats.drain_drops.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            let _ = reply.send(count);
                        }
                        Ctl::Stop => return,
                        Ctl::StopWhenIdle => stopping = true,
                        Ctl::SetRequestNext(next) => core.set_request_next(next),
                        Ctl::SetOverload(policy, reply) => {
                            core.set_overload(policy);
                            let _ = reply.send(());
                        }
                        Ctl::Crash => crashed = true,
                    }
                }
                if crashed {
                    continue;
                }
                if paused {
                    // The gauge must keep tracking the backlog while intake
                    // is frozen — a paused processor with a growing queue is
                    // exactly what load-aware placement needs to see.
                    stats
                        .queue_depth
                        .store(frames.len() as u64, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let backlog = frames.len();
                stats.queue_depth.store(backlog as u64, Ordering::Relaxed);
                let first = if stopping {
                    // Graceful retirement: drain what is queued, then exit.
                    match frames.try_recv() {
                        Ok(f) => f,
                        Err(_) => return,
                    }
                } else {
                    match frames.recv_timeout(Duration::from_millis(20)) {
                        Ok(f) => f,
                        Err(RecvTimeoutError::Timeout) => {
                            last_done = thread_clock.now();
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                };
                // Fill the batch opportunistically: everything already
                // queued, up to the ceiling. Never blocks.
                batch.push(first);
                while batch.len() < batch_max {
                    match frames.try_recv() {
                        Ok(f) => batch.push(f),
                        Err(_) => break,
                    }
                }
                // Decay the gauge to the post-pull residue: the frames just
                // pulled are no longer "waiting", and an idle processor must
                // read zero rather than hold the last pre-drain depth.
                stats
                    .queue_depth
                    .store(frames.len() as u64, Ordering::Relaxed);
                // A frame pulled from a non-empty queue was waiting while
                // the previous batch was processed; one pulled from an
                // empty queue arrived just now. One reading per batch.
                let queue_ns = if backlog > 0 {
                    thread_clock.now().saturating_sub(last_done).as_nanos() as u64
                } else {
                    0
                };
                core.on_batch(queue_ns, backlog, batch.drain(..), &mut out);
                // One batched send for fresh forwards (these count toward
                // `forwarded`, per successful frame) and one for replays
                // (these never did).
                if !out.forwards.is_empty() {
                    let sent = link.send_batch(std::mem::take(&mut out.forwards));
                    stats.forwarded.fetch_add(sent as u64, Ordering::Relaxed);
                }
                if !out.replays.is_empty() {
                    link.send_batch(std::mem::take(&mut out.replays));
                }
                last_done = thread_clock.now();
            }
        })
        .expect("spawn processor thread");

    ProcessorHandle {
        addr,
        ctl: ctl_tx,
        stats,
        flows,
        beat,
        clock,
        join: Some(join),
    }
}

/// Encodes `msg` into a pool-backed buffer as an outbound frame. The frame
/// is both queued for the batched send and recorded in a dedup cache (even
/// if the fabric later rejects it — retransmission replays resend it).
/// `None` only on encode failure.
fn encode_out(
    pool: &BufferPool,
    src: EndpointAddr,
    to: EndpointAddr,
    msg: &RpcMessage,
) -> Option<Frame> {
    let payload = wire_format::encode_message_into(pool.take(), msg).ok()?;
    Some(Frame {
        src,
        dst: to,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use adn_rpc::engine::Engine;
    use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
    use adn_rpc::schema::{MethodDef, RpcSchema};
    use adn_rpc::transport::InProcNetwork;
    use adn_rpc::value::{Value, ValueType};
    use adn_rpc::RpcError;
    use adn_wire::header::OverloadContext;

    fn service() -> Arc<ServiceSchema> {
        let request = Arc::new(
            RpcSchema::builder()
                .field("x", ValueType::U64)
                .field("who", ValueType::Str)
                .build()
                .unwrap(),
        );
        let response = Arc::new(
            RpcSchema::builder()
                .field("x", ValueType::U64)
                .field("who", ValueType::Str)
                .build()
                .unwrap(),
        );
        Arc::new(
            ServiceSchema::new(
                "Echo",
                vec![MethodDef {
                    id: 1,
                    name: "Echo".into(),
                    request,
                    response,
                }],
            )
            .unwrap(),
        )
    }

    struct CountAndStamp {
        count: u64,
    }
    impl Engine for CountAndStamp {
        fn name(&self) -> &str {
            "count_stamp"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            self.count += 1;
            if msg.kind == MessageKind::Response {
                msg.set("who", Value::Str("via-processor".into()));
            }
            Verdict::Forward
        }
        fn export_state(&self) -> Vec<u8> {
            self.count.to_le_bytes().to_vec()
        }
        fn import_state(&mut self, image: &[u8]) -> Result<(), String> {
            self.count = u64::from_le_bytes(image.try_into().map_err(|_| "bad image")?);
            Ok(())
        }
    }

    struct DenyOdd;
    impl Engine for DenyOdd {
        fn name(&self) -> &str {
            "deny_odd"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            if msg.kind == MessageKind::Request {
                if let Some(Value::U64(x)) = msg.get("x") {
                    if x % 2 == 1 {
                        return Verdict::Abort {
                            code: 7,
                            message: "odd".into(),
                        };
                    }
                }
            }
            Verdict::Forward
        }
    }

    /// Forwards `x == 0`, aborts `x == 1` with code 9, sheds `x == 2`.
    struct Refuse;
    impl Engine for Refuse {
        fn name(&self) -> &str {
            "refuse"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            match msg.get("x") {
                Some(Value::U64(1)) => Verdict::Abort {
                    code: 9,
                    message: "refused".into(),
                },
                Some(Value::U64(2)) => Verdict::Shed,
                _ => Verdict::Forward,
            }
        }
    }

    /// client(1) → processor(5) → server(2)
    fn setup(
        chain: EngineChain,
    ) -> (
        Arc<RpcClient>,
        ProcessorHandle,
        adn_rpc::runtime::ServerHandle,
    ) {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();

        let server_frames = net.attach(2);
        let svc2 = svc.clone();
        let server = spawn_server(
            ServerConfig {
                addr: 2,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            server_frames,
            Box::new(move |req| {
                let m = svc2.method_by_id(req.method_id).unwrap();
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("x", req.get("x").unwrap().clone());
                resp.set("who", Value::Str("server".into()));
                resp
            }),
        );

        let proc_frames = net.attach(5);
        let processor = spawn_processor(
            ProcessorConfig {
                addr: 5,
                service: svc.clone(),
                chain,
                request_next: NextHop::Fixed(2),
                response_next: NextHop::Dst,
                initial_flows: Default::default(),
                telemetry: None,
                clock: None,
                batch_max: DEFAULT_BATCH_MAX,
                overload: OverloadPolicy::default(),
                inbox_capacity: None,
            },
            link.clone(),
            proc_frames,
        );

        let client_frames = net.attach(1);
        let client = RpcClient::new(1, link, client_frames, svc, EngineChain::new());
        (client, processor, server)
    }

    fn req(client: &RpcClient, x: u64) -> RpcMessage {
        let m = client.service().method_by_id(1).unwrap();
        RpcMessage::request(0, 1, m.request.clone())
            .with("x", x)
            .with("who", "client")
    }

    #[test]
    fn requests_and_responses_traverse_the_processor() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        // Client addresses the processor (the controller's routing choice).
        let resp = client.call(req(&client, 4), 5).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(4)));
        // The response chain ran on the processor (NAT return path).
        assert_eq!(resp.get("who"), Some(&Value::Str("via-processor".into())));
        // The serve loop bumps its counters after handing frames to the
        // fabric, so the client can hold the response a beat before the
        // increments land — poll rather than race them.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.stats().forwarded < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = processor.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.forwarded, 2);
    }

    #[test]
    fn sampled_calls_record_spans_and_element_metrics() {
        use adn_telemetry::{Registry, Sampler, SpanRing};

        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let svc2 = svc.clone();
        let _server = spawn_server(
            ServerConfig {
                addr: 2,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            net.attach(2),
            Box::new(move |request| {
                let m = svc2.method_by_id(request.method_id).unwrap();
                let mut resp = RpcMessage::response_to(request, m.response.clone());
                resp.set("x", request.get("x").unwrap().clone());
                resp.set("who", Value::Str("server".into()));
                resp
            }),
        );
        let telemetry = HopTelemetry {
            app: "echo".into(),
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanRing::new(64)),
            sampler: Arc::new(Sampler::off()),
            metrics_processor: None,
        };
        let _processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_telemetry(telemetry.clone()),
            link.clone(),
            net.attach(5),
        );
        let client = RpcClient::new(1, link, net.attach(1), svc, EngineChain::new());

        // The client samples every call: each request carries a root trace
        // context the processor must honor regardless of its own sampler.
        client.set_trace_sampling(1.0);
        let resp = client.call(req(&client, 4), 5).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(4)));

        // Request + response each ran the one-stage chain under sampling.
        let snaps = telemetry.registry.snapshot_for("echo", 5);
        assert_eq!(snaps.len(), 1, "{snaps:?}");
        assert_eq!(snaps[0].key.element, "count_stamp");
        assert_eq!(snaps[0].count, 2);
        assert_eq!(snaps[0].errors, 0);

        // Both hop directions emitted spans under the same trace id. The
        // response-hop span lands just after the client unblocks, so give
        // the processor thread a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while telemetry.spans.len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = telemetry.spans.drain();
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        assert!(spans.iter().all(|s| s.processor == 5));
        assert!(spans
            .iter()
            .all(|s| s.stages.len() == 1 && s.stages[0].0 == "count_stamp"));

        // With sampling off and no inbound trace, nothing is recorded.
        client.set_trace_sampling(0.0);
        client.call(req(&client, 6), 5).unwrap();
        assert!(telemetry.spans.is_empty());
        assert_eq!(telemetry.registry.snapshot_for("echo", 5)[0].count, 2);
    }

    #[test]
    fn processor_abort_reflects_to_client() {
        let chain = EngineChain::from_engines(vec![Box::new(DenyOdd)]);
        let (client, processor, _server) = setup(chain);
        assert!(client.call(req(&client, 2), 5).is_ok());
        let err = client.call(req(&client, 3), 5).unwrap_err();
        assert!(matches!(err, RpcError::Aborted { code: 7, .. }));
        assert_eq!(processor.stats().aborted, 1);
    }

    #[test]
    fn state_export_import_across_processors() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        for i in 0..3 {
            client.call(req(&client, i * 2), 5).unwrap();
        }
        processor.pause();
        let images = processor.export_state().unwrap();
        // 3 requests + 3 responses = 6 engine invocations.
        assert_eq!(images[0], 6u64.to_le_bytes().to_vec());
        processor.resume();

        // Import shifted state and verify.
        processor
            .import_state(vec![100u64.to_le_bytes().to_vec()])
            .unwrap();
        assert_eq!(
            processor.export_state().unwrap()[0],
            100u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn hot_chain_swap_returns_old_state() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        client.call(req(&client, 0), 5).unwrap();
        let old_state = processor
            .install_chain(EngineChain::from_engines(vec![Box::new(CountAndStamp {
                count: 0,
            })]))
            .unwrap();
        assert_eq!(old_state[0], 2u64.to_le_bytes().to_vec());
        // New chain starts fresh and still works.
        client.call(req(&client, 2), 5).unwrap();
        assert_eq!(
            processor.export_state().unwrap()[0],
            2u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn pause_is_lossless() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        processor.pause();
        // Send while paused: the call completes only after resume.
        let pending = client.send_call(req(&client, 8), 5).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        processor.resume();
        let resp = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(8)));
    }

    #[test]
    fn killed_processor_blackholes_and_control_errors() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        client.call(req(&client, 2), 5).unwrap();
        assert!(processor.heartbeat_age() < Duration::from_secs(1));

        processor.kill();
        // Heartbeats stopped. The serve thread may emit one last beat
        // after kill() returns (it checks the flag once per iteration, and
        // a loaded scheduler can hold it mid-iteration past a fixed
        // sleep), so wait for the age to grow instead of sleeping blind —
        // it only grows without bound if the loop is truly dead.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.heartbeat_age() < Duration::from_millis(100)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(processor.heartbeat_age() >= Duration::from_millis(100));
        // Control queries fail explicitly — a crashed processor is
        // distinguishable from an empty answer.
        assert_eq!(processor.export_state().unwrap_err(), CtlError::Stopped);
        assert_eq!(processor.drain().unwrap_err(), CtlError::Stopped);
        assert_eq!(
            processor.install_chain(EngineChain::new()).unwrap_err(),
            CtlError::Stopped
        );
        // Traffic blackholes: the deadline fires, no panic, no response.
        let err = client
            .send_call(req(&client, 4), 5)
            .unwrap()
            .wait(Duration::from_millis(200))
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { .. }));
        // Drop of the handle (end of test) must still join cleanly.
    }

    #[test]
    fn set_request_next_reroutes_traffic() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let mut servers = Vec::new();
        for (addr, tag) in [(2u64, "alpha"), (3, "beta")] {
            let svc2 = svc.clone();
            servers.push(spawn_server(
                ServerConfig {
                    addr,
                    service: svc.clone(),
                    chain: EngineChain::new(),
                },
                link.clone(),
                net.attach(addr),
                Box::new(move |request| {
                    let m = svc2.method_by_id(request.method_id).unwrap();
                    let mut resp = RpcMessage::response_to(request, m.response.clone());
                    resp.set("x", request.get("x").unwrap().clone());
                    resp.set("who", Value::Str(tag.into()));
                    resp
                }),
            ));
        }
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            link.clone(),
            net.attach(5),
        );
        let client = RpcClient::new(1, link, net.attach(1), svc, EngineChain::new());

        let resp = client.call(req(&client, 0), 5).unwrap();
        assert_eq!(resp.get("who"), Some(&Value::Str("alpha".into())));

        processor.set_request_next(NextHop::Fixed(3));
        std::thread::sleep(Duration::from_millis(50));
        let resp = client.call(req(&client, 2), 5).unwrap();
        assert_eq!(resp.get("who"), Some(&Value::Str("beta".into())));
    }

    /// Heartbeat staleness on a virtual clock: a processor is born live
    /// (the spawn itself beats, so a detector polling before the serve
    /// loop's first iteration finds age zero), a crashed one ages by
    /// exactly the controlled jumps and nothing else.
    #[test]
    fn heartbeat_age_follows_virtual_clock_jumps() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                service(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_clock(clock.clone()),
            link,
            net.attach(5),
        );
        // Born live, even before the serve loop has run once.
        assert_eq!(processor.heartbeat_age(), Duration::ZERO);

        processor.kill();
        // Wait (bounded by thread latency, not wall time) until the serve
        // loop observes the crash; after that it never beats again.
        while processor.export_state().is_ok() {
            std::thread::yield_now();
        }
        // Every beat so far happened at virtual zero, so staleness is
        // exactly the jump we make — deterministic, not approximate.
        clock.advance(Duration::from_millis(300));
        assert_eq!(processor.heartbeat_age(), Duration::from_millis(300));
        clock.advance(Duration::from_millis(300));
        assert_eq!(processor.heartbeat_age(), Duration::from_millis(600));
    }

    /// A link that fails its next `fail_next` sends, then recovers —
    /// models a fabric caught mid-repoint during retirement.
    struct FlakyLink {
        inner: Arc<dyn Link>,
        fail_next: AtomicU64,
    }
    impl Link for FlakyLink {
        fn send(&self, frame: Frame) -> adn_rpc::RpcResult<()> {
            if self
                .fail_next
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(RpcError::Disconnected);
            }
            self.inner.send(frame)
        }
    }

    /// Builds a paused processor at 5 over a [`FlakyLink`] with `queued`
    /// frames waiting, then re-points the fabric address at a fresh
    /// receiver (the "successor"), mirroring retirement order: frames are
    /// queued on the old instance, the fabric moves, then `drain` re-emits.
    fn drain_rig(
        queued: usize,
    ) -> (
        ProcessorHandle,
        Arc<FlakyLink>,
        crossbeam::channel::Receiver<Frame>,
    ) {
        let net = InProcNetwork::new();
        let flaky = Arc::new(FlakyLink {
            inner: Arc::new(net.clone()),
            fail_next: AtomicU64::new(0),
        });
        let svc = service();
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            flaky.clone(),
            net.attach(5),
        );
        processor.pause();

        let m = svc.method_by_id(1).unwrap();
        let mut msg = RpcMessage::request(0, 1, m.request.clone())
            .with("x", 1u64)
            .with("who", "c");
        msg.src = 1;
        msg.dst = 2;
        let payload = wire_format::encode_message_to_vec(&msg).unwrap();
        for _ in 0..queued {
            net.send(Frame {
                src: 1,
                dst: 5,
                payload: payload.clone(),
            })
            .unwrap();
        }
        // Re-point the address: re-emitted frames now reach the successor,
        // not the retiring processor's own queue.
        let successor_rx = net.attach(5);
        (processor, flaky, successor_rx)
    }

    /// A transiently failing link during `drain` is absorbed by the
    /// per-frame retry: nothing is lost, nothing is counted dropped.
    #[test]
    fn drain_retries_transient_link_failure() {
        let (processor, flaky, successor_rx) = drain_rig(2);
        flaky.fail_next.store(1, Ordering::SeqCst);
        assert_eq!(processor.drain().unwrap(), 2);
        assert_eq!(processor.stats().drain_drops, 0);
        // Both frames reached the successor.
        for _ in 0..2 {
            successor_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
    }

    /// Regression for silent drain loss: a frame the link rejects on both
    /// attempts must be recorded in `drain_drops` — never silently
    /// discarded (the sim's zero-loss invariant reads this counter).
    #[test]
    fn drain_across_failing_link_counts_drops() {
        let (processor, flaky, successor_rx) = drain_rig(2);
        flaky.fail_next.store(u64::MAX, Ordering::SeqCst);
        assert_eq!(processor.drain().unwrap(), 0, "nothing was re-emitted");
        assert_eq!(processor.stats().drain_drops, 2, "loss must be counted");
        assert!(successor_rx.try_recv().is_err());
    }

    /// Regression: the gauge used to go stale — it was only written when a
    /// frame was pulled, so an idle processor kept reporting its last
    /// pre-drain depth and a paused one never showed the backlog growing.
    /// Load-aware placement steers on this number; it must track both ways.
    #[test]
    fn queue_depth_gauge_tracks_backlog_and_decays_to_zero() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            link,
            net.attach(5),
        );
        // Freeze intake; queued frames must still move the gauge up.
        processor.pause();
        let m = svc.method_by_id(1).unwrap();
        for i in 0..4u64 {
            let mut msg = RpcMessage::request(100 + i, 1, m.request.clone())
                .with("x", i)
                .with("who", "c");
            msg.src = 1;
            msg.dst = 2;
            let payload = wire_format::encode_message_to_vec(&msg).unwrap();
            net.send(Frame {
                src: 1,
                dst: 5,
                payload,
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.stats().queue_depth < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            processor.stats().queue_depth,
            4,
            "paused backlog must be visible"
        );
        // Unfreeze: the batch drains (no server at 2 answers, but the
        // forward empties the inbox) and the gauge must decay to zero
        // rather than hold the pre-drain reading.
        processor.resume();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (processor.stats().queue_depth > 0 || processor.stats().requests < 4)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = processor.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.queue_depth, 0, "idle gauge must read zero");
    }

    /// Regression for the queue-wait wall-clock leak: the serve loop used
    /// `Instant::now()` for its batch timestamps, bypassing the `Clock`
    /// trait, so spans recorded wall time even under a virtual clock. With
    /// the fix, a virtual-clock jump while frames wait shows up in the
    /// span's `queue_ns` exactly — deterministic, not approximate.
    #[test]
    fn queue_wait_is_measured_on_the_processor_clock() {
        use adn_telemetry::{Registry, Sampler, SpanRing};

        let clock = adn_rpc::clock::VirtualClock::shared();
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let telemetry = HopTelemetry {
            app: "echo".into(),
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanRing::new(16)),
            sampler: Arc::new(Sampler::off()),
            metrics_processor: None,
        };
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_clock(clock.clone())
            .with_telemetry(telemetry.clone()),
            link,
            net.attach(5),
        );
        // Freeze intake so the frame provably waits across the jump.
        processor.pause();

        let m = svc.method_by_id(1).unwrap();
        let mut msg = RpcMessage::request(0, 1, m.request.clone())
            .with("x", 1u64)
            .with("who", "c");
        msg.call_id = 42;
        msg.src = 1;
        msg.dst = 2;
        // In-band context: the hop samples it regardless of the local
        // sampler, so a span (carrying queue_ns) is emitted.
        msg.trace = Some(TraceContext::root(7));
        let payload = wire_format::encode_message_to_vec(&msg).unwrap();
        net.send(Frame {
            src: 1,
            dst: 5,
            payload,
        })
        .unwrap();

        // The wait happens entirely in virtual time.
        clock.advance(Duration::from_secs(2));
        processor.resume();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while telemetry.spans.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = telemetry.spans.drain();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(
            spans[0].queue_ns,
            Duration::from_secs(2).as_nanos() as u64,
            "queue wait must be the virtual-clock jump, exactly"
        );
    }
    // ---- ProcessorCore: admission, dedup, NAT and verdicts, no thread ----

    /// A core at 5 that forwards requests to 2.
    fn core(chain: EngineChain) -> ProcessorCore {
        ProcessorCore::new(ProcessorConfig::new(
            5,
            service(),
            chain,
            NextHop::Fixed(2),
            NextHop::Dst,
        ))
    }

    /// A request from client 1 for server 2, or the server's response
    /// addressed back to processor 5.
    fn msg(kind: MessageKind, call_id: u64, x: u64) -> RpcMessage {
        let svc = service();
        let m = svc.method_by_id(1).unwrap();
        let schema = match kind {
            MessageKind::Request => m.request.clone(),
            MessageKind::Response => m.response.clone(),
        };
        let mut msg = RpcMessage::request(call_id, 1, schema)
            .with("x", x)
            .with("who", "c");
        msg.kind = kind;
        (msg.src, msg.dst) = match kind {
            MessageKind::Request => (1, 2),
            MessageKind::Response => (2, 5),
        };
        msg
    }

    /// `msg` encoded as a frame arriving at processor 5.
    fn frame(msg: &RpcMessage) -> Frame {
        Frame {
            src: msg.src,
            dst: 5,
            payload: wire_format::encode_message_to_vec(msg).unwrap(),
        }
    }

    /// Runs one batch and returns what it produced.
    fn step(
        core: &mut ProcessorCore,
        queue_ns: u64,
        backlog: usize,
        frames: Vec<Frame>,
    ) -> Outputs {
        let mut out = Outputs::default();
        core.on_batch(queue_ns, backlog, frames, &mut out);
        out
    }

    fn fates(out: &Outputs) -> Vec<Fate> {
        out.outcomes.iter().map(|o| o.fate).collect()
    }

    fn decode(frame: &Frame) -> RpcMessage {
        wire_format::decode_message_exact(&frame.payload, &service()).unwrap()
    }

    /// Chain-run count of a [`CountAndStamp`] core.
    fn runs(core: &ProcessorCore) -> u64 {
        u64::from_le_bytes(core.export_state()[0].clone().try_into().unwrap())
    }

    fn count_core() -> ProcessorCore {
        core(EngineChain::from_engines(vec![Box::new(CountAndStamp {
            count: 0,
        })]))
    }

    fn stamped(kind: MessageKind, call_id: u64, budget: Duration, prio: Priority) -> RpcMessage {
        let mut m = msg(kind, call_id, 0);
        m.deadline = Some(OverloadContext::root(budget.as_nanos() as u64, prio));
        m
    }

    /// A retransmitted request replays the recorded forward byte for byte
    /// without re-running the chain; so does a retransmitted response once
    /// its flow entry is consumed.
    #[test]
    fn duplicate_request_replays_cached_outcome() {
        let mut core = count_core();
        let req = frame(&msg(MessageKind::Request, 99, 4));
        let first = step(&mut core, 0, 0, vec![req.clone()]);
        assert_eq!(fates(&first), [Fate::Forward]);
        assert_eq!(first.forwards[0].dst, 2);
        let again = step(&mut core, 0, 0, vec![req]);
        assert_eq!(fates(&again), [Fate::Replay { deferred: false }]);
        assert!(again.forwards.is_empty());
        assert_eq!(again.replays[0].payload, first.forwards[0].payload);

        let resp = frame(&msg(MessageKind::Response, 99, 4));
        let back = step(&mut core, 0, 0, vec![resp.clone()]);
        assert_eq!(fates(&back), [Fate::Forward]);
        assert_eq!(back.forwards[0].dst, 1, "NAT restores the requester");
        let again = step(&mut core, 0, 0, vec![resp]);
        assert_eq!(fates(&again), [Fate::Replay { deferred: false }]);
        assert_eq!(again.replays[0].payload, back.forwards[0].payload);

        let stats = core.stats();
        assert_eq!(
            (stats.requests, stats.responses, stats.dedup_hits),
            (1, 1, 2)
        );
        assert_eq!(runs(&core), 2, "one request + one response execution");
    }

    /// A response with no flow entry and no cached reply is counted stale
    /// and dropped: its NAT'd destination is this processor, so forwarding
    /// it would self-loop.
    #[test]
    fn stale_response_is_dropped_not_looped() {
        let mut core = core(EngineChain::new());
        let out = step(
            &mut core,
            0,
            0,
            vec![frame(&msg(MessageKind::Response, 777, 0))],
        );
        assert_eq!(fates(&out), [Fate::Stale]);
        assert!(out.forwards.is_empty() && out.replays.is_empty());
        let stats = core.stats();
        assert_eq!(stats.stale_responses, 1);
        assert_eq!(stats.responses, 0);
    }

    /// Pins a behavior the simulator's old processor model got wrong (it
    /// ran the chain on a stale response and cached a drop): a stale
    /// response is refused before the chain, so it never executes, never
    /// yields a verdict, and is counted only in `stale_responses`.
    #[test]
    fn stale_response_never_runs_the_chain() {
        let mut core = count_core();
        let out = step(
            &mut core,
            0,
            0,
            vec![frame(&msg(MessageKind::Response, 5, 0))],
        );
        assert_eq!(out.outcomes.len(), 1);
        assert!(
            !out.outcomes[0].fate.ran_chain(),
            "no verdict for a stale response"
        );
        assert_eq!(runs(&core), 0);
        let stats = core.stats();
        assert_eq!(stats.stale_responses, 1);
        assert_eq!(
            (stats.responses, stats.dropped, stats.dedup_hits),
            (0, 0, 0)
        );
        // Nothing was cached: the same response is stale again.
        let out = step(
            &mut core,
            0,
            0,
            vec![frame(&msg(MessageKind::Response, 5, 0))],
        );
        assert_eq!(fates(&out), [Fate::Stale]);
    }

    /// Pins the trace contexts a hop emits, which the simulator's old model
    /// got wrong (it re-parented before the chain): replies to the caller
    /// (chain abort, chain shed, admission shed) carry the inbound context;
    /// only forwards re-parent on this hop.
    #[test]
    fn abort_and_shed_replies_carry_the_inbound_trace() {
        let inbound = TraceContext::root(7);
        let traced = |call_id, x| {
            let mut m = msg(MessageKind::Request, call_id, x);
            m.trace = Some(inbound);
            m
        };
        let mut core = core(EngineChain::from_engines(vec![Box::new(Refuse)]));
        let mut sheddable = traced(4, 0);
        sheddable.deadline = Some(OverloadContext::root(1_000_000_000, Priority::Sheddable));
        core.set_overload(OverloadPolicy {
            brownout: true,
            ..OverloadPolicy::default()
        });
        let frames = vec![
            frame(&traced(1, 0)),
            frame(&traced(2, 1)),
            frame(&traced(3, 2)),
            frame(&sheddable),
        ];
        let out = step(&mut core, 0, 0, frames);
        assert_eq!(
            fates(&out),
            [
                Fate::Forward,
                Fate::Abort(9),
                Fate::ChainShed,
                Fate::Shed(Priority::Sheddable)
            ]
        );
        assert_eq!(decode(&out.forwards[0]).trace, Some(inbound.child_from(5)));
        for reply in &out.forwards[1..] {
            assert_eq!(decode(reply).trace, Some(inbound), "chain replies");
        }
        assert_eq!(
            decode(&out.replays[0]).trace,
            Some(inbound),
            "admission shed"
        );
        // Outcomes report the inbound context of every chain run.
        assert!(out.outcomes[..3].iter().all(|o| o.trace == Some(inbound)));
    }

    /// A duplicate landing in the same batch as a frame that runs the chain
    /// waits for it and replays its recorded outcome (listed after the
    /// batch); a duplicate of a frame that was itself a replay is just
    /// another replay.
    #[test]
    fn in_batch_duplicates_defer_and_replay() {
        let mut core = count_core();
        let a = frame(&msg(MessageKind::Request, 10, 0));
        let b = frame(&msg(MessageKind::Request, 11, 0));
        let out = step(&mut core, 0, 0, vec![a.clone(), a.clone(), b]);
        assert_eq!(
            fates(&out),
            [
                Fate::Forward,
                Fate::Forward,
                Fate::Replay { deferred: true }
            ]
        );
        assert_eq!(
            out.outcomes.iter().map(|o| o.call_id).collect::<Vec<_>>(),
            [10, 11, 10]
        );
        assert_eq!(out.forwards.len(), 2);
        assert_eq!(out.replays[0].payload, out.forwards[0].payload);
        assert_eq!(runs(&core), 2);

        let out = step(&mut core, 0, 0, vec![a.clone(), a]);
        assert_eq!(fates(&out), [Fate::Replay { deferred: false }; 2]);
        assert_eq!(runs(&core), 2);
        assert_eq!(core.stats().dedup_hits, 3);
    }

    /// A request arriving with an exhausted in-band budget is dropped
    /// before the chain — counted, never executed, never cached (a retry
    /// re-stamps a live budget and is judged afresh).
    #[test]
    fn expired_requests_are_dropped_and_counted_not_cached() {
        let mut core = count_core();
        let dead = stamped(MessageKind::Request, 9, Duration::ZERO, Priority::Normal);
        let out = step(&mut core, 0, 0, vec![frame(&dead)]);
        assert_eq!(fates(&out), [Fate::Expired]);
        assert!(out.forwards.is_empty() && out.replays.is_empty());
        assert_eq!(core.stats().expired_drops, 1);
        assert_eq!(runs(&core), 0, "an expired frame never runs the chain");

        let live = stamped(
            MessageKind::Request,
            9,
            Duration::from_secs(5),
            Priority::Normal,
        );
        let out = step(&mut core, 0, 0, vec![frame(&live)]);
        assert_eq!(fates(&out), [Fate::Forward], "retry is judged afresh");
        assert_eq!(core.stats().dedup_hits, 0);
    }

    /// Brownout refuses Sheddable-stamped requests with zero backlog and a
    /// fast-fail Shed reply, admits unstamped (Normal) traffic untouched,
    /// and is reversible.
    #[test]
    fn brownout_sheds_sheddable_requests_and_is_reversible() {
        let mut core = count_core();
        let sheddable = |call_id| {
            stamped(
                MessageKind::Request,
                call_id,
                Duration::from_secs(5),
                Priority::Sheddable,
            )
        };
        core.set_overload(OverloadPolicy {
            brownout: true,
            ..OverloadPolicy::default()
        });
        let out = step(
            &mut core,
            0,
            0,
            vec![
                frame(&sheddable(1)),
                frame(&msg(MessageKind::Request, 2, 0)),
            ],
        );
        assert_eq!(
            fates(&out),
            [Fate::Shed(Priority::Sheddable), Fate::Forward]
        );
        let reply = decode(&out.replays[0]);
        assert_eq!(reply.status, RpcStatus::Shed);
        assert_eq!((out.replays[0].dst, reply.call_id), (1, 1));
        assert_eq!(core.stats().shed, 1);

        core.set_overload(OverloadPolicy::default());
        let out = step(&mut core, 0, 0, vec![frame(&sheddable(3))]);
        assert_eq!(fates(&out), [Fate::Forward], "brownout must be reversible");
        assert_eq!(runs(&core), 2);
    }

    /// The shed ladder: above the high-water mark Sheddable goes, above 2×
    /// Normal, above 4× everything below Critical; Critical is never
    /// backlog-shed. Refusals are not cached.
    #[test]
    fn admission_ladder_sheds_by_priority() {
        let mut core = count_core();
        core.set_overload(OverloadPolicy {
            shed_high_water: 4,
            ..OverloadPolicy::default()
        });
        let prios = [
            Priority::Sheddable,
            Priority::Normal,
            Priority::Important,
            Priority::Critical,
        ];
        let mut call_id = 0;
        for (backlog, admitted_from) in [(4, 0), (5, 1), (9, 2), (17, 3), (100_000, 3)] {
            let frames = prios
                .iter()
                .map(|&p| {
                    call_id += 1;
                    frame(&stamped(
                        MessageKind::Request,
                        call_id,
                        Duration::from_secs(5),
                        p,
                    ))
                })
                .collect();
            let out = step(&mut core, 0, backlog, frames);
            for (i, (&p, o)) in prios.iter().zip(&out.outcomes).enumerate() {
                let want = if i >= admitted_from {
                    Fate::Forward
                } else {
                    Fate::Shed(p)
                };
                assert_eq!(o.fate, want, "backlog {backlog}, {p:?}");
            }
        }
        assert_eq!(core.stats().shed, 1 + 2 + 3 + 3);
        assert_eq!(core.stats().dedup_hits, 0);
    }

    /// The batch's queue wait is charged against every deadline budget:
    /// forwards (requests and responses) carry strictly less, and a wait
    /// that exhausts the budget drops the request before the chain.
    #[test]
    fn queue_wait_is_charged_to_the_deadline() {
        let mut core = count_core();
        let ms = |n: u64| Duration::from_millis(n).as_nanos() as u64;
        let req = stamped(
            MessageKind::Request,
            1,
            Duration::from_millis(5),
            Priority::Normal,
        );
        let out = step(&mut core, ms(2), 1, vec![frame(&req)]);
        assert_eq!(fates(&out), [Fate::Forward]);
        let fwd = decode(&out.forwards[0]).deadline.unwrap();
        assert_eq!(fwd.budget_ns, ms(3));

        let mut resp = msg(MessageKind::Response, 1, 0);
        resp.deadline = Some(fwd);
        let out = step(&mut core, ms(1), 1, vec![frame(&resp)]);
        assert_eq!(decode(&out.forwards[0]).deadline.unwrap().budget_ns, ms(2));

        let req = stamped(
            MessageKind::Request,
            2,
            Duration::from_millis(5),
            Priority::Normal,
        );
        let out = step(&mut core, ms(5), 1, vec![frame(&req)]);
        assert_eq!(fates(&out), [Fate::Expired]);
        assert_eq!(runs(&core), 2);
    }
}
