//! Online serving layer: arrival-process traffic, multi-tenant SLO
//! queueing, and latency-percentile reporting.
//!
//! Every other entry point in the workspace is *batch*: one closed
//! population in, one makespan out. Real MADNESS applications issue
//! continuous streams of small irregular Apply tasks, and a cluster
//! serving heavy traffic is judged by latency *distributions* — p50,
//! p99, p999 sojourn times and per-tenant SLO attainment — not by any
//! single completion time. This module adds that open-system view on
//! top of the PR-5 balance machinery:
//!
//! * **[`RateProfile`]** — seeded arrival processes (Poisson, bursty
//!   on/off, diurnal) generated by Lewis–Shedler thinning over a
//!   stateless splitmix draw, so the same seed always produces the
//!   bit-identical request trace;
//! * **[`ServeConfig`]** — the traffic contract: tenants with weights,
//!   deadlines and per-request fan-out, a bounded admission queue at the
//!   cluster boundary, and a [`ShedPolicy`] for overload;
//! * a serving loop that drives the balance-style cluster DES
//!   *incrementally*: requests are injected at their arrival `SimTime`,
//!   batched per [`TaskKind`] through the node's [`Batcher`] (timer and
//!   size flushes exactly as in the offline pipeline), dequeued by
//!   strict tenant-weight priority, and stolen across nodes under the
//!   same profit guard as [`BalanceMode::Steal`] — preferring the
//!   highest-weight tenant's batches, so weight buys latency;
//! * **[`ServeReport`]** — exact (nearest-rank) latency percentiles per
//!   tenant and per kind, SLO attainment, admission accounting with a
//!   conservation law (`completed + rejected + shed == generated`), and
//!   the migration ledger.
//!
//! Every request outcome is journaled through `madness-trace` as a
//! [`ServeEvent`] plus a [`Stage::Sojourn`] span, and the fault injector
//! composes ([`ClusterSim::run_served_with_faults`]): a straggler or a
//! flaky GPU calibrates slow, becomes a steal victim, and shows up as
//! p999 inflation rather than lost work.
//!
//! **Survivable serving** ([`ClusterSim::run_served_survivable`])
//! extends the open-system view to whole-node loss and graceful
//! degradation:
//!
//! * planned [`NodeFault`]s (crash / partition / rejoin) take nodes
//!   down mid-traffic; the cluster detects the loss by missed heartbeat
//!   beats, reconstructs the node's unfinished lineage from an
//!   epoch-boundary checkpoint plus a delta journal (never from the
//!   dead node's memory), and re-executes it on the survivors through
//!   the shared LPT placement — journaled as [`Stage::Recover`] spans;
//! * rejoining nodes come back cold (startup paid again) and re-admit
//!   through a per-(tenant, node)
//!   [`CircuitBreaker`](madness_faults::CircuitBreaker) probe ladder;
//! * [`HedgeConfig`] launches a duplicate attempt on another node once
//!   a request overstays its kind's p99-tracking latency budget —
//!   first completion wins, the loser is accounted as
//!   [`ServeOutcome::CancelledHedge`], and the conservation law
//!   generalizes to `completed + rejected + shed + cancelled_hedges ==
//!   generated + hedges_launched`;
//! * [`BrownoutConfig`] degrades service (reduced-rank Apply via
//!   [`WorkloadSpec::rr_mean_rank`]) when the sojourn EWMA crosses the
//!   tightest deadline, before the [`ShedPolicy`] starts dropping
//!   requests.
//!
//! Everything is seeded and event-driven, so a crashed run replays
//! bit-identically, and an inert [`SurvivalConfig`] (no node faults, no
//! hedging, no brownout) schedules no new events at all — the default
//! path stays bit-identical to the pre-survival serving loop.

use crate::balance::{Migrations, Move};
use crate::cluster::ClusterSim;
use crate::des::Des;
use crate::node::{NodeRate, ResourceMode};
use crate::workload::WorkloadSpec;
use crate::BalanceMode;
use madness_faults::{
    draw, BreakerMap, BreakerPolicy, FaultAction, FaultEvent, FaultKind, FaultPlan, NodeFault,
    RecoveryPolicy,
};
use madness_gpusim::SimTime;
use madness_mra::procmap::lpt_assign;
use madness_runtime::{Batcher, TaskKind, TenantId};
use madness_trace::{BalanceKind, Recorder, ServeEvent, ServeOutcome, Stage};
use std::collections::{BTreeMap, BTreeSet};

/// Operation id every serving request carries (requests are small Apply
/// invocations; the op identity is shared, kinds differ by tenant and
/// data shape).
pub const SERVE_OP_ID: u64 = 0x5E12;

/// Hard cap on generated requests per run — a mis-set rate cannot OOM
/// the generator; generation stops (and is reported) at the cap.
pub const MAX_REQUESTS: usize = 2_000_000;

// Distinct salts for the stateless splitmix draws, one per decision
// stream, so reordering one stream can never perturb another.
const SALT_INTERARRIVAL: u64 = 0x5E12_AE01;
const SALT_THIN: u64 = 0x5E12_AE02;
const SALT_KIND: u64 = 0x5E12_AE03;
const SALT_HOME: u64 = 0x5E12_AE04;

/// Maps one uniform draw in `[0, 1]` onto a node index: scale and
/// *clamp*. The clamp (not a modulo) keeps a draw at the very top of
/// the unit interval — `u * n` rounding up to exactly `n` — on the
/// last node instead of silently wrapping it onto node 0, which would
/// bias placement toward node 0 for no physical reason.
fn home_index(u: f64, n: usize) -> usize {
    debug_assert!(n > 0, "cluster must have nodes");
    ((u * n as f64) as usize).min(n - 1)
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

/// The shape of one tenant's request-rate function λ(t), requests/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateProfile {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson {
        /// Requests per second.
        rate: f64,
    },
    /// Bursty on/off (interrupted Poisson): `rate_on` during the first
    /// `duty` fraction of each period, `rate_off` for the rest.
    OnOff {
        /// Requests per second while the source is on.
        rate_on: f64,
        /// Requests per second while the source is off.
        rate_off: f64,
        /// Length of one on+off cycle.
        period: SimTime,
        /// Fraction of the period spent on, in `[0, 1]`.
        duty: f64,
    },
    /// Diurnal: `base + amplitude · sin(2πt/period)`, floored at zero.
    Diurnal {
        /// Mean requests per second.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Length of one cycle.
        period: SimTime,
    },
}

impl RateProfile {
    /// Instantaneous rate λ(t), requests/s (never negative).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            RateProfile::Poisson { rate } => rate.max(0.0),
            RateProfile::OnOff {
                rate_on,
                rate_off,
                period,
                duty,
            } => {
                let p = period.as_nanos().max(1);
                let phase = (t.as_nanos() % p) as f64 / p as f64;
                if phase < duty.clamp(0.0, 1.0) {
                    rate_on.max(0.0)
                } else {
                    rate_off.max(0.0)
                }
            }
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let p = period.as_nanos().max(1);
                let phase = (t.as_nanos() % p) as f64 / p as f64;
                (base + amplitude * (2.0 * std::f64::consts::PI * phase).sin()).max(0.0)
            }
        }
    }

    /// Upper bound on λ(t) — the thinning envelope.
    pub fn peak_rate(&self) -> f64 {
        match *self {
            RateProfile::Poisson { rate } => rate.max(0.0),
            RateProfile::OnOff {
                rate_on, rate_off, ..
            } => rate_on.max(rate_off).max(0.0),
            RateProfile::Diurnal {
                base, amplitude, ..
            } => (base + amplitude.abs()).max(0.0),
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RateProfile::Poisson { .. } => "poisson",
            RateProfile::OnOff { .. } => "onoff",
            RateProfile::Diurnal { .. } => "diurnal",
        }
    }
}

/// One traffic source: identity, queueing weight, latency SLO, arrival
/// process, and the Apply fan-out of each request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant identity (tags every generated `TaskKind`).
    pub id: TenantId,
    /// Queueing weight: strict-priority dequeue and steal preference.
    /// Higher weight buys lower latency; must be positive.
    pub weight: f64,
    /// Per-request sojourn SLO (attainment = fraction under this).
    pub deadline: SimTime,
    /// Arrival process.
    pub profile: RateProfile,
    /// Apply tasks each request fans out into (small: a handful of
    /// (node × displacement) tasks, not a whole-tree batch job).
    pub tasks_per_request: u64,
}

/// What admission control does when the bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Bounce the incoming request ([`ServeOutcome::Rejected`]).
    RejectNew,
    /// Drop the oldest queued batch of the lowest-weight tenant to make
    /// room ([`ServeOutcome::Shed`] for its requests); falls back to
    /// rejecting when nothing is queued (everything already in
    /// service or still accumulating in a batcher).
    DropOldest,
}

impl ShedPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNew => "reject-new",
            ShedPolicy::DropOldest => "drop-oldest",
        }
    }
}

// ---------------------------------------------------------------------
// Survivable serving configuration
// ---------------------------------------------------------------------

/// Deadline-aware request hedging: once a request has been in the
/// system longer than its kind's latency budget, a duplicate attempt
/// is shipped to the least-loaded live node; the first completion wins
/// and the loser terminates as [`ServeOutcome::CancelledHedge`].
///
/// The budget is `budget_factor ×` a per-kind tail-tracking EWMA of
/// completion sojourns (fast to rise, slow to decay, so one slow batch
/// widens the budget immediately but a lucky fast one does not collapse
/// it), floored at `min_budget`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Budget multiplier over the per-kind sojourn EWMA.
    pub budget_factor: f64,
    /// Budget floor, and the bootstrap budget before a kind has any
    /// completions to estimate from.
    pub min_budget: SimTime,
    /// Hedge attempts allowed per request (1 = a classic tied request).
    pub max_hedges: u32,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            budget_factor: 3.0,
            min_budget: SimTime::from_millis(2),
            max_hedges: 1,
        }
    }
}

/// Overload brownout: when the completion-sojourn EWMA crosses the
/// tightest tenant deadline, every node switches to the reduced-rank
/// Apply rate (cheaper, slightly lossier results) *before* the
/// [`ShedPolicy`] starts dropping whole requests; hysteresis keeps the
/// controller from flapping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownoutConfig {
    /// Reduced mean separated rank served while browned out (the
    /// [`WorkloadSpec::rr_mean_rank`] calibration hook).
    pub rr_rank: usize,
    /// Engage when `sojourn EWMA > engage × tightest deadline`.
    pub engage: f64,
    /// Disengage when `sojourn EWMA < disengage × tightest deadline`;
    /// must be below `engage` for the hysteresis to bite.
    pub disengage: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            rr_rank: 8,
            engage: 1.0,
            disengage: 0.5,
        }
    }
}

/// The node-loss survival contract for
/// [`ClusterSim::run_served_survivable`].
///
/// The default config is **inert** when no plan schedules a
/// [`NodeFault`]: no heartbeats, hedges or brownout checks are ever
/// scheduled, and the serving loop is bit-identical to
/// [`ClusterSim::run_served`].
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalConfig {
    /// Heartbeat interval: each beat folds the lineage delta journal
    /// into the epoch-boundary checkpoint and counts missed beats for
    /// unreachable nodes. Must be positive when any plan schedules
    /// node faults.
    pub heartbeat: SimTime,
    /// Missed beats after which an unreachable node is declared dead
    /// and its lineage re-executed on the survivors.
    pub missed_heartbeats: u32,
    /// Per-(tenant, node) circuit-breaker tuning for re-admission.
    pub breaker: BreakerPolicy,
    /// Hedged requests (off when `None`).
    pub hedge: Option<HedgeConfig>,
    /// Overload brownout (off when `None`).
    pub brownout: Option<BrownoutConfig>,
}

impl Default for SurvivalConfig {
    fn default() -> Self {
        SurvivalConfig {
            heartbeat: SimTime::from_millis(1),
            missed_heartbeats: 2,
            breaker: BreakerPolicy::default(),
            hedge: None,
            brownout: None,
        }
    }
}

/// The serving workload contract: who sends traffic, to how many nodes,
/// for how long, under which admission bound.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shape of every Apply task behind the requests.
    pub spec: WorkloadSpec,
    /// The traffic sources.
    pub tenants: Vec<TenantSpec>,
    /// Compute nodes serving the traffic.
    pub nodes: usize,
    /// Seed for every stochastic decision (arrivals, thinning, kinds,
    /// home-node placement). The same seed replays bit-identically.
    pub seed: u64,
    /// Arrivals stop at this simulated instant; queued work drains.
    pub horizon: SimTime,
    /// Bound on requests in the system (admitted − completed − shed);
    /// an arrival that would exceed it triggers the shed policy.
    pub queue_capacity: usize,
    /// What to do at the bound.
    pub shed: ShedPolicy,
    /// Distinct data shapes per tenant (`data_hash ∈ [0, kinds)`);
    /// requests of different kinds never share a batch.
    pub kinds_per_tenant: u64,
}

/// One timestamped serving request, as generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Global arrival-order id (ties broken by tenant then draw order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Batch identity (op, data shape, tenant).
    pub kind: TaskKind,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Apply tasks this request fans out into.
    pub tasks: u64,
}

/// Generates the full request trace for `cfg`: per-tenant Lewis–Shedler
/// thinning against each profile's peak-rate envelope, merged in
/// `(arrival, tenant, draw-index)` order and numbered globally.
/// Deterministic in `cfg.seed`; capped at [`MAX_REQUESTS`].
pub fn generate_requests(cfg: &ServeConfig) -> Vec<Request> {
    let mut all: Vec<(SimTime, u32, u64, TaskKind, u64)> = Vec::new();
    for spec in &cfg.tenants {
        let peak = spec.profile.peak_rate();
        if peak <= 0.0 {
            continue;
        }
        let tseed = cfg.seed ^ (u64::from(spec.id.0)).rotate_left(32);
        let mut t = 0.0f64; // seconds
        let horizon_s = cfg.horizon.as_secs_f64();
        let mut i = 0u64;
        loop {
            let u = draw(tseed, SALT_INTERARRIVAL, i);
            t += -(1.0 - u).ln() / peak;
            if t >= horizon_s || all.len() >= MAX_REQUESTS {
                break;
            }
            let at = SimTime::from_secs_f64(t);
            let keep = draw(tseed, SALT_THIN, i) * peak <= spec.profile.rate_at(at);
            if keep {
                let shape = (draw(tseed, SALT_KIND, i) * cfg.kinds_per_tenant.max(1) as f64) as u64;
                let kind = TaskKind::for_tenant(SERVE_OP_ID, shape, spec.id);
                all.push((at, spec.id.0, i, kind, spec.tasks_per_request.max(1)));
            }
            i += 1;
        }
    }
    all.sort_unstable_by_key(|&(at, tenant, i, _, _)| (at, tenant, i));
    all.into_iter()
        .enumerate()
        .map(|(id, (arrival, tenant, _, kind, tasks))| Request {
            id: id as u64,
            tenant: TenantId(tenant),
            kind,
            arrival,
            tasks,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Percentile sink
// ---------------------------------------------------------------------

/// Exact latency percentiles over one completion population.
///
/// Percentiles are **nearest-rank** over the sorted sojourn times
/// (`idx = ⌈q·n⌉ − 1`): exact order statistics, no interpolation, so a
/// replayed run reproduces them bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completions aggregated.
    pub count: u64,
    /// Median sojourn.
    pub p50: SimTime,
    /// 99th-percentile sojourn.
    pub p99: SimTime,
    /// 99.9th-percentile sojourn.
    pub p999: SimTime,
    /// Worst sojourn.
    pub max: SimTime,
    /// Mean sojourn.
    pub mean: SimTime,
}

impl LatencyStats {
    /// Aggregates a (not necessarily sorted) population of sojourn
    /// times. Empty input yields the all-zero stats.
    pub fn from_sojourns(mut ns: Vec<u64>) -> LatencyStats {
        if ns.is_empty() {
            return LatencyStats::default();
        }
        ns.sort_unstable();
        let n = ns.len();
        let rank = |q: f64| -> SimTime {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            SimTime::from_nanos(ns[idx])
        };
        LatencyStats {
            count: n as u64,
            p50: rank(0.50),
            p99: rank(0.99),
            p999: rank(0.999),
            max: SimTime::from_nanos(ns[n - 1]),
            mean: SimTime::from_nanos((ns.iter().sum::<u64>() as f64 / n as f64).round() as u64),
        }
    }
}

/// One tenant's serving outcome: admission accounting, SLO attainment,
/// and the latency distribution of its completions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantReport {
    /// Tenant identity.
    pub tenant: TenantId,
    /// Requests the generator produced for this tenant.
    pub generated: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests bounced at admission.
    pub rejected: u64,
    /// Requests shed from a queue after admission.
    pub shed: u64,
    /// Completions whose sojourn met the tenant's deadline.
    pub slo_met: u64,
    /// `slo_met / generated` — rejections and sheds count as misses
    /// (1.0 when the tenant generated nothing).
    pub slo_attainment: f64,
    /// Latency distribution over the completions.
    pub latency: LatencyStats,
}

/// Per-`TaskKind` latency distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KindLatency {
    /// The batch identity.
    pub kind: TaskKind,
    /// Latency distribution over the kind's completions.
    pub latency: LatencyStats,
}

/// Outcome of one serving run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests generated (== completed + rejected + shed).
    pub generated: u64,
    /// Requests admitted past the boundary queue.
    pub admitted: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests bounced at admission.
    pub rejected: u64,
    /// Requests shed after admission.
    pub shed: u64,
    /// Arrival horizon of the run.
    pub horizon: SimTime,
    /// When the last completion landed (the drain tail past the
    /// horizon).
    pub makespan: SimTime,
    /// Latency distribution over every completion.
    pub overall: LatencyStats,
    /// Per-tenant outcomes, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// Per-kind latency, in `TaskKind` order.
    pub kinds: Vec<KindLatency>,
    /// Committed steals.
    pub steals: u64,
    /// Steal attempts deferred by the in-flight cap.
    pub blocked_steals: u64,
    /// Tasks migrated between nodes.
    pub migrated_tasks: u64,
    /// Bytes those migrations put on the interconnect.
    pub migrated_bytes: u64,
    /// Aggregate wire time of the migrations.
    pub migration_wire: SimTime,
    /// Duplicate attempts launched (client hedges plus re-executions of
    /// work frozen behind a partition the cluster declared dead).
    pub hedges_launched: u64,
    /// Attempt copies that terminated without being the winning
    /// completion: their request had already completed elsewhere, they
    /// were shed while a sibling copy survived, or they were lost with
    /// a crashed node while another copy lived on.
    pub cancelled_hedges: u64,
    /// Requests re-executed from the lineage checkpoint after a node
    /// loss (relocations of sole copies plus partition duplicates).
    pub recovered_requests: u64,
    /// Node crashes injected by the fault plans.
    pub node_crashes: u64,
    /// Node readmissions: rejoin after a crash, or a partition healing
    /// after the cluster had declared the node dead.
    pub rejoins: u64,
    /// Circuit-breaker trips across every (tenant, node) pair.
    pub breaker_trips: u64,
    /// Times the brownout controller engaged.
    pub brownout_engagements: u64,
    /// Tasks served at the reduced-rank (browned-out) rate.
    pub degraded_tasks: u64,
}

impl ServeReport {
    /// The admission conservation law: every attempt — one per
    /// generated request plus one per launched hedge — leaves the
    /// system exactly once. With survival features off it reduces to
    /// the classic `completed + rejected + shed == generated`.
    pub fn conserved(&self) -> bool {
        self.completed + self.rejected + self.shed + self.cancelled_hedges
            == self.generated + self.hedges_launched
    }

    /// The report row for `tenant`, if it generated any traffic.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

// ---------------------------------------------------------------------
// The serving DES
// ---------------------------------------------------------------------

/// A flushed batch waiting in a node's ready queue (or in flight during
/// a migration).
#[derive(Clone, Debug)]
struct ReadyBatch {
    weight: f64,
    reqs: Vec<Request>,
    tasks: u64,
    ready_at: SimTime,
    seq: u64,
}

/// The batch a node is currently executing.
#[derive(Clone, Debug)]
struct Serving {
    batch: ReadyBatch,
    start: SimTime,
}

struct ServeNode {
    rate: NodeRate,
    batcher: Batcher<Request>,
    ready: Vec<ReadyBatch>,
    serving: Option<Serving>,
    /// When the batch in service completes; `startup` while cold.
    busy_until: SimTime,
    /// One inbound steal at a time.
    awaiting: bool,
    /// Host is running (false between a crash and its rejoin).
    up: bool,
    /// Host can exchange messages (false while partitioned).
    reachable: bool,
    /// The cluster has declared this node dead (missed-beat detection).
    declared_dead: bool,
    /// Bumped on every crash; fences stale `BatchDone` events so a
    /// rejoined node cannot complete a batch the crash already lost.
    gen: u32,
    /// Completions computed behind a partition, buffered until heal
    /// delivers them (or a crash loses them): `(request, start)`.
    fenced: Vec<(Request, SimTime)>,
}

impl ServeNode {
    fn ready_tasks(&self) -> u64 {
        self.ready.iter().map(|b| b.tasks).sum()
    }

    /// Estimated absolute finish of everything queued here.
    fn est(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now) + self.rate.per_task * self.ready_tasks()
    }
}

enum Ev {
    /// The `idx`-th generated request arrives at the boundary.
    Arrival(usize),
    /// Timer sweep of `node`'s batcher.
    FlushTimer(usize),
    /// The batch in service on `node` completed. `gen` fences
    /// completions that a crash invalidated (always 0 without faults).
    BatchDone { node: usize, gen: u32 },
    /// Stolen/repartitioned/recovered batches land on `to`. `steal`
    /// marks batches that occupy a steal in-flight slot.
    Migrated {
        to: usize,
        batches: Vec<ReadyBatch>,
        steal: bool,
    },
    /// Arrivals are over: drain every batcher.
    Drain,
    /// Repartition sync point.
    Epoch,
    /// A planned node crash fires.
    NodeCrash(usize),
    /// A planned partition starts.
    NodePartition(usize),
    /// A partition heals.
    NodeHeal(usize),
    /// A crashed node rejoins, cold.
    NodeRejoin(usize),
    /// Survival heartbeat: checkpoint the lineage ledger and count
    /// missed beats.
    Heartbeat,
    /// A request's latency budget expired: consider hedging it.
    HedgeCheck { req: usize },
}

/// One entry of the lineage delta journal: a request copy entered or
/// left a node's resident set since the last checkpoint.
#[derive(Clone, Copy, Debug)]
enum DeltaOp {
    Add(usize, u64),
    Del(usize, u64),
}

fn apply_delta(ckpt: &mut [BTreeMap<u64, u32>], op: DeltaOp) {
    match op {
        DeltaOp::Add(n, id) => *ckpt[n].entry(id).or_insert(0) += 1,
        DeltaOp::Del(n, id) => match ckpt[n].get_mut(&id) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                ckpt[n].remove(&id);
            }
            None => debug_assert!(false, "request {id} was never resident on node {n}"),
        },
    }
}

/// Mutable survival state: lineage ledger, copy accounting, breakers,
/// latency models. Present only when a plan schedules node faults or
/// hedging/brownout is configured — `None` means the serving loop runs
/// the exact pre-survival code path.
struct SurvState {
    heartbeat: SimTime,
    missed_limit: u32,
    hedge: Option<HedgeConfig>,
    brownout: Option<BrownoutConfig>,
    has_node_faults: bool,
    /// Per-node reduced-rank per-task cost while browned out.
    degraded: Vec<SimTime>,
    /// Request-level completion flag (first copy to finish wins).
    done: Vec<bool>,
    /// Live attempt copies per request.
    copies: Vec<u8>,
    /// Hedge attempts already launched per request.
    hedged: Vec<u8>,
    /// Epoch-boundary checkpoint: per node, resident request copies.
    ckpt: Vec<BTreeMap<u64, u32>>,
    /// Residency changes since the last checkpoint; folded in at each
    /// heartbeat, replayed over the checkpoint for recovery.
    delta: Vec<DeltaOp>,
    /// Requests sent to a silently-down node: lost in transit until
    /// detection or heal relocates them.
    void: Vec<BTreeSet<u64>>,
    /// Missed heartbeats per node.
    missed: Vec<u32>,
    breakers: BreakerMap,
    /// Last planned fault instant: heartbeats keep running until then.
    last_fault_at: SimTime,
    hedges_launched: u64,
    recovered: u64,
    node_crashes: u64,
    rejoins: u64,
    /// Per-kind tail-tracking sojourn EWMA (ns) for hedge budgets.
    kind_ewma: BTreeMap<TaskKind, f64>,
    /// Global completion-sojourn EWMA (ns) for the brownout controller.
    sojourn_ewma: f64,
    /// Tightest tenant deadline (ns) — the brownout threshold.
    deadline_ref: u64,
    brownout_on: bool,
    brownout_engagements: u64,
    degraded_tasks: u64,
}

struct ServeCluster<'a, R: Recorder> {
    nodes: Vec<ServeNode>,
    des: Des<Ev>,
    mig: Migrations,
    requests: &'a [Request],
    weights: Vec<(TenantId, f64)>,
    mode: BalanceMode,
    queue_capacity: usize,
    shed_policy: ShedPolicy,
    timer: SimTime,
    seed: u64,
    seq: u64,
    admitted: u64,
    /// Completed + rejected + shed so far.
    finished: u64,
    /// Rejections never occupied a system slot; tracked apart so the
    /// in-system bound stays exact.
    rejections: u64,
    /// Cancelled-hedge outcomes: copy terminations that did not retire
    /// a request, tracked apart for the same reason.
    cancelled: u64,
    /// `(tenant, kind, sojourn_ns, outcome)` per attempt copy.
    outcomes: Vec<(TenantId, TaskKind, u64, ServeOutcome)>,
    makespan: SimTime,
    surv: Option<SurvState>,
    rec: &'a mut R,
}

impl<R: Recorder> ServeCluster<'_, R> {
    fn weight_of(&self, tenant: TenantId) -> f64 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
    }

    /// Requests currently occupying the bounded queue: admitted but
    /// not yet completed or shed.
    fn in_system(&self) -> usize {
        // `finished` counts every outcome; `rejections` never occupied
        // a slot and `cancelled` copies never freed one (their request
        // departed with the winning copy), so the admitted traffic
        // that has left is `finished - rejections - cancelled`. The
        // invariant the outcome paths must jointly maintain: nothing
        // leaves the bounded queue that was never admitted into it.
        let non_departures = self.rejections + self.cancelled;
        let departed = self.finished.saturating_sub(non_departures);
        debug_assert!(
            self.finished >= non_departures,
            "rejections and cancels outran total outcomes: {} > {}",
            non_departures,
            self.finished
        );
        debug_assert!(
            departed <= self.admitted,
            "more requests completed or shed than were admitted: {departed} > {}",
            self.admitted
        );
        self.admitted.saturating_sub(departed) as usize
    }

    fn record(&mut self, req: &Request, started: SimTime, finished: SimTime, out: ServeOutcome) {
        if R::ENABLED {
            self.rec.serve(ServeEvent {
                tenant: req.tenant.0,
                op: req.kind.op,
                data_hash: req.kind.data_hash,
                tasks: req.tasks,
                arrived_ns: req.arrival.as_nanos(),
                started_ns: started.as_nanos(),
                finished_ns: finished.as_nanos(),
                outcome: out,
            });
            if out == ServeOutcome::Completed {
                self.rec.span(
                    Stage::Sojourn,
                    req.arrival.as_nanos(),
                    finished.as_nanos(),
                    req.tenant.0,
                );
            }
            self.rec.add(
                match out {
                    ServeOutcome::Completed => "serve_completed",
                    ServeOutcome::Rejected => "serve_rejected",
                    ServeOutcome::Shed => "serve_shed",
                    ServeOutcome::CancelledHedge => "serve_cancelled_hedge",
                },
                1,
            );
        }
        let sojourn = finished.saturating_sub(req.arrival).as_nanos();
        self.outcomes.push((req.tenant, req.kind, sojourn, out));
        self.finished += 1;
        if out == ServeOutcome::Rejected {
            self.rejections += 1;
        }
        if out == ServeOutcome::CancelledHedge {
            self.cancelled += 1;
        }
        if out == ServeOutcome::Completed {
            self.observe_sojourn(req.kind, sojourn);
        }
        self.makespan = self.makespan.max(finished);
    }

    /// Feeds one completion sojourn into the hedge-budget and brownout
    /// latency models (no-op without survival state).
    fn observe_sojourn(&mut self, kind: TaskKind, sojourn_ns: u64) {
        let Some(s) = self.surv.as_mut() else { return };
        let x = sojourn_ns as f64;
        if s.hedge.is_some() {
            // Tail-tracking EWMA: rises fast on a slow completion,
            // decays slowly, so the budget hugs the p99 region.
            let e = s.kind_ewma.entry(kind).or_insert(x);
            let alpha = if x > *e { 0.25 } else { 0.05 };
            *e += alpha * (x - *e);
        }
        if let Some(b) = s.brownout {
            if s.sojourn_ewma == 0.0 {
                s.sojourn_ewma = x;
            } else {
                s.sojourn_ewma += 0.2 * (x - s.sojourn_ewma);
            }
            let dl = s.deadline_ref as f64;
            if !s.brownout_on && s.sojourn_ewma > b.engage * dl {
                s.brownout_on = true;
                s.brownout_engagements += 1;
            } else if s.brownout_on && s.sojourn_ewma < b.disengage * dl {
                s.brownout_on = false;
            }
        }
    }

    /// Whether `i` can take part in balancing, routing and recovery:
    /// running, reachable, and not declared dead. Trivially true for
    /// every node when no survival features are active.
    fn can_balance(&self, i: usize) -> bool {
        let n = &self.nodes[i];
        n.up && n.reachable && !n.declared_dead
    }

    /// Terminates one live copy of `req` at `now`: the first
    /// termination completes the request, every later one is an
    /// accounting-only cancelled hedge.
    fn finish_copy(&mut self, req: &Request, started: SimTime, now: SimTime) {
        let out = match self.surv.as_mut() {
            None => ServeOutcome::Completed,
            Some(s) => {
                let id = req.id as usize;
                s.copies[id] = s.copies[id].saturating_sub(1);
                if s.done[id] {
                    ServeOutcome::CancelledHedge
                } else {
                    s.done[id] = true;
                    ServeOutcome::Completed
                }
            }
        };
        self.record(req, started, now, out);
    }

    /// Terminates one queued copy of `req` by shedding: the request
    /// itself is shed only when this was its last live copy and it had
    /// not completed elsewhere.
    fn shed_copy(&mut self, req: &Request, now: SimTime) {
        let out = match self.surv.as_mut() {
            None => ServeOutcome::Shed,
            Some(s) => {
                let id = req.id as usize;
                let live = s.copies[id];
                s.copies[id] = live.saturating_sub(1);
                if s.done[id] || live > 1 {
                    ServeOutcome::CancelledHedge
                } else {
                    s.done[id] = true;
                    ServeOutcome::Shed
                }
            }
        };
        self.record(req, req.arrival, now, out);
    }

    /// Ledger and breaker bookkeeping for a copy leaving `node` after
    /// successful service (no-op without survival state).
    fn depart(&mut self, node: usize, req: &Request, now: SimTime) {
        let Some(s) = self.surv.as_mut() else { return };
        s.delta.push(DeltaOp::Del(node, req.id));
        if s.has_node_faults {
            s.breakers
                .get(req.tenant.0, node as u32)
                .on_success(now.as_nanos());
        }
    }

    /// Deterministic home node: requests follow their data. The home is
    /// a splitmix hash of the `TaskKind` — the node that owns that
    /// function's coefficients — so every request of a kind lands on
    /// one node and hot kinds create hot nodes. That is the MADNESS
    /// affinity story, it keeps batches coalescing, and it is the
    /// placement skew the stealing mode exists to fix. Identical in
    /// every balance mode, so mode comparisons see the same placement.
    fn home(&self, req: &Request) -> usize {
        let key = req.kind.op
            ^ req.kind.data_hash.rotate_left(24)
            ^ u64::from(req.kind.tenant.0).rotate_left(48);
        home_index(draw(self.seed, SALT_HOME, key), self.nodes.len())
    }

    fn arrival(&mut self, idx: usize, now: SimTime) {
        let req = self.requests[idx];
        if self.in_system() >= self.queue_capacity.max(1) {
            // Overload: brown out first — the controller cannot reclaim
            // the slot this arrival needs, but degraded service drains
            // the queue for the next ones — and only then shed.
            if let Some(s) = self.surv.as_mut() {
                if s.brownout.is_some() && !s.brownout_on {
                    s.brownout_on = true;
                    s.brownout_engagements += 1;
                }
            }
            match self.shed_policy {
                ShedPolicy::RejectNew => {
                    self.record(&req, now, now, ServeOutcome::Rejected);
                    return;
                }
                ShedPolicy::DropOldest => {
                    if !self.shed_oldest(now) {
                        self.record(&req, now, now, ServeOutcome::Rejected);
                        return;
                    }
                }
            }
        }
        self.admitted += 1;
        let home = self.home(&req);
        // Route around nodes the cluster has *declared* dead and
        // through the re-admission breaker ladder. Undetected failures
        // are invisible here: the request is still sent at its home.
        let target = match self.surv.as_mut() {
            Some(s) if s.has_node_faults => {
                let n = self.nodes.len();
                let mut t = home;
                for off in 0..n {
                    let j = (home + off) % n;
                    if !self.nodes[j].declared_dead
                        && s.breakers.get(req.tenant.0, j as u32).admit(now.as_nanos())
                    {
                        t = j;
                        break;
                    }
                }
                t
            }
            _ => home,
        };
        if let Some(s) = self.surv.as_mut() {
            s.copies[idx] = 1;
            if let Some(h) = s.hedge {
                let budget = match s.kind_ewma.get(&req.kind) {
                    Some(e) => {
                        SimTime::from_nanos((h.budget_factor * e).round() as u64).max(h.min_budget)
                    }
                    None => h.min_budget,
                };
                self.des.schedule(now + budget, Ev::HedgeCheck { req: idx });
            }
            let nd = &self.nodes[target];
            if !nd.up || !nd.reachable {
                // Sent to a silently-down node: lost in transit until
                // detection or heal relocates it from the void ledger.
                s.void[target].insert(req.id);
                return;
            }
            s.delta.push(DeltaOp::Add(target, req.id));
        }
        if let Some((kind, reqs)) = self.nodes[target].batcher.push_at(req.kind, req, now) {
            self.enqueue_ready(target, kind, reqs, now);
            self.maybe_start(target, now);
        } else {
            // Timer sweep for the (possibly fresh) kind. With
            // `timer == ZERO` this lands in the same tick and flushes
            // the push immediately; `flush_expired` removes what it
            // flushes, so a redundant sweep is a no-op (the pinned
            // no-double-flush semantics).
            self.des.schedule(now + self.timer, Ev::FlushTimer(target));
        }
    }

    /// Sheds the oldest ready batch of the lowest-weight tenant across
    /// the (reachable) cluster. Returns false when nothing is queued
    /// to shed.
    fn shed_oldest(&mut self, now: SimTime) -> bool {
        let mut pick: Option<(usize, usize)> = None; // (node, ready idx)
        for (ni, node) in self.nodes.iter().enumerate() {
            if self.surv.is_some() && !self.can_balance(ni) {
                continue; // cannot reach into a dead node's queue
            }
            for (bi, b) in node.ready.iter().enumerate() {
                let better = match pick {
                    None => true,
                    Some((pn, pb)) => {
                        let p = &self.nodes[pn].ready[pb];
                        (b.weight, b.ready_at, b.seq) < (p.weight, p.ready_at, p.seq)
                    }
                };
                if better {
                    pick = Some((ni, bi));
                }
            }
        }
        let Some((ni, bi)) = pick else { return false };
        let batch = self.nodes[ni].ready.remove(bi);
        for req in &batch.reqs {
            if let Some(s) = self.surv.as_mut() {
                s.delta.push(DeltaOp::Del(ni, req.id));
            }
            self.shed_copy(req, now);
        }
        true
    }

    fn enqueue_ready(&mut self, node: usize, kind: TaskKind, reqs: Vec<Request>, now: SimTime) {
        let tasks = reqs.iter().map(|r| r.tasks).sum();
        let weight = self.weight_of(kind.tenant);
        let seq = self.seq;
        self.seq += 1;
        self.nodes[node].ready.push(ReadyBatch {
            weight,
            reqs,
            tasks,
            ready_at: now,
            seq,
        });
    }

    /// Strict-priority dequeue: highest tenant weight first, FIFO
    /// within a weight class (ready time, then flush sequence).
    fn take_next_batch(&mut self, node: usize) -> Option<ReadyBatch> {
        let ready = &self.nodes[node].ready;
        let best = ready.iter().enumerate().min_by(|(_, a), (_, b)| {
            // Highest weight first ⇒ reverse on weight, forward on age.
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.ready_at.cmp(&b.ready_at))
                .then(a.seq.cmp(&b.seq))
        })?;
        let idx = best.0;
        Some(self.nodes[node].ready.remove(idx))
    }

    fn maybe_start(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || self.nodes[node].serving.is_some() {
            return;
        }
        let Some(batch) = self.take_next_batch(node) else {
            return;
        };
        let mut per_task = self.nodes[node].rate.per_task;
        if let Some(s) = self.surv.as_mut() {
            if s.brownout_on {
                per_task = s.degraded[node];
                s.degraded_tasks += batch.tasks;
            }
        }
        let n = &mut self.nodes[node];
        let start = now.max(n.busy_until);
        let end = start + per_task * batch.tasks;
        n.busy_until = end;
        let gen = n.gen;
        n.serving = Some(Serving { batch, start });
        self.des.schedule(end, Ev::BatchDone { node, gen });
    }

    fn batch_done(&mut self, node: usize, now: SimTime) {
        let Some(Serving { batch, start }) = self.nodes[node].serving.take() else {
            return;
        };
        if self.surv.is_some() && !self.nodes[node].reachable {
            // Partitioned: the batch really ran, but its results cannot
            // reach anyone. Buffer them for delivery at heal (or loss
            // at a crash); the lineage ledger keeps the requests
            // resident meanwhile, and the node keeps chewing its queue.
            for req in batch.reqs {
                self.nodes[node].fenced.push((req, start));
            }
            self.maybe_start(node, now);
            return;
        }
        for req in &batch.reqs {
            self.depart(node, req, now);
            self.finish_copy(req, start, now);
        }
        self.maybe_start(node, now);
        if self.nodes[node].serving.is_none() {
            self.try_steal(node, now);
        }
    }

    /// A steal attempt by drained `thief`: same profit guard as the
    /// balance DES (thief's finish including wire time must not exceed
    /// the victim's pre-steal estimate), but batch selection honors
    /// tenant weights — the highest-weight batches migrate first, so a
    /// weighty tenant's backlog is the first to find idle capacity.
    fn try_steal(&mut self, thief: usize, now: SimTime) {
        let BalanceMode::Steal { max_inflight, .. } = self.mode else {
            return;
        };
        if self.nodes[thief].awaiting
            || self.nodes[thief].serving.is_some()
            || !self.nodes[thief].ready.is_empty()
            || !self.can_balance(thief)
        {
            return;
        }
        if self.mig.steal_blocked(max_inflight) {
            return;
        }
        // Victim: largest ready backlog (ties to the lowest index).
        let mut victim: Option<usize> = None;
        for j in 0..self.nodes.len() {
            if j == thief || self.nodes[j].ready.is_empty() || !self.can_balance(j) {
                continue;
            }
            if victim.is_none_or(|v| self.nodes[j].est(now) > self.nodes[v].est(now)) {
                victim = Some(j);
            }
        }
        let Some(v) = victim else { return };
        let victim_est = self.nodes[v].est(now);
        // Steal half the ready batches, highest tenant weight first.
        let mut order: Vec<usize> = (0..self.nodes[v].ready.len()).collect();
        order.sort_by(|&a, &b| {
            let (ba, bb) = (&self.nodes[v].ready[a], &self.nodes[v].ready[b]);
            bb.weight
                .partial_cmp(&ba.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ba.ready_at.cmp(&bb.ready_at))
                .then(ba.seq.cmp(&bb.seq))
        });
        let take = order.len().div_ceil(2);
        for take in [take, 1] {
            let chosen = &order[..take];
            let tasks: u64 = chosen.iter().map(|&i| self.nodes[v].ready[i].tasks).sum();
            if tasks == 0 {
                return;
            }
            let arrive = self.mig.quote(now, tasks);
            let t = &self.nodes[thief];
            let thief_est = t.busy_until.max(arrive) + t.rate.per_task * tasks;
            if thief_est <= victim_est {
                let mut idxs: Vec<usize> = chosen.to_vec();
                idxs.sort_unstable_by(|a, b| b.cmp(a)); // remove back-to-front
                let mut batches = Vec::with_capacity(idxs.len());
                for i in idxs {
                    batches.push(self.nodes[v].ready.remove(i));
                }
                batches.reverse(); // preserve weight-priority order
                if let Some(s) = self.surv.as_mut() {
                    for b in &batches {
                        for r in &b.reqs {
                            s.delta.push(DeltaOp::Del(v, r.id));
                        }
                    }
                }
                self.nodes[thief].awaiting = true;
                let steal = Move::Balance(BalanceKind::Steal);
                let booked = self.mig.commit(self.rec, steal, (v, thief), tasks, now);
                debug_assert_eq!(booked, arrive);
                self.des.schedule(
                    arrive,
                    Ev::Migrated {
                        to: thief,
                        batches,
                        steal: true,
                    },
                );
                return;
            }
            if take == 1 {
                break;
            }
        }
    }

    /// Repartition sync point: greedily move ready batches from the
    /// most- to the least-loaded node while each move closes more of
    /// the estimated-finish gap than it costs at the destination.
    /// Moved work is counted toward the destination's estimate
    /// immediately so the loop converges instead of over-draining.
    fn epoch(&mut self, now: SimTime) {
        let BalanceMode::Repartition { .. } = self.mode else {
            return;
        };
        let n = self.nodes.len();
        let elig: Vec<usize> = (0..n).filter(|&i| self.can_balance(i)).collect();
        if elig.len() < 2 {
            return;
        }
        let mut extra = vec![0u64; n]; // tasks virtually in flight to i
        let est = |nodes: &[ServeNode], extra: &[u64], i: usize| {
            nodes[i].est(now) + nodes[i].rate.per_task * extra[i]
        };
        let mut moves: Vec<(usize, usize, ReadyBatch)> = Vec::new();
        loop {
            let (mut hi, mut lo) = (elig[0], elig[0]);
            for &i in &elig[1..] {
                if est(&self.nodes, &extra, i) > est(&self.nodes, &extra, hi) {
                    hi = i;
                }
                if est(&self.nodes, &extra, i) < est(&self.nodes, &extra, lo) {
                    lo = i;
                }
            }
            if hi == lo || self.nodes[hi].ready.is_empty() {
                break;
            }
            let gap = est(&self.nodes, &extra, hi).saturating_sub(est(&self.nodes, &extra, lo));
            let last_tasks = self.nodes[hi]
                .ready
                .last()
                .expect("checked non-empty")
                .tasks;
            let cost = self.nodes[lo].rate.per_task * last_tasks;
            if gap <= cost {
                break;
            }
            let batch = self.nodes[hi].ready.pop().expect("checked non-empty");
            extra[lo] += batch.tasks;
            moves.push((hi, lo, batch));
        }
        for (from, to, batch) in moves {
            let tasks = batch.tasks;
            if let Some(s) = self.surv.as_mut() {
                for r in &batch.reqs {
                    s.delta.push(DeltaOp::Del(from, r.id));
                }
            }
            let mv = Move::Balance(BalanceKind::Repartition);
            let arrive = self.mig.commit(self.rec, mv, (from, to), tasks, now);
            self.des.schedule(
                arrive,
                Ev::Migrated {
                    to,
                    batches: vec![batch],
                    steal: false,
                },
            );
        }
    }

    /// Land a migration (steal, epoch move, recovery batch, or hedge).
    ///
    /// Only steal migrations carry an in-flight slot / `awaiting` flag to
    /// release. If the destination died while the batch was on the wire,
    /// re-aim it at the least-loaded balanceable survivor — wire time was
    /// already paid, so landing is free.
    fn migrated(&mut self, to: usize, batches: Vec<ReadyBatch>, steal: bool, now: SimTime) {
        if steal {
            self.mig.steal_landed();
            self.nodes[to].awaiting = false;
        }
        let mut dst = to;
        if self.surv.is_some() && !self.can_balance(dst) {
            let mut best: Option<usize> = None;
            for j in 0..self.nodes.len() {
                if j == to || !self.can_balance(j) {
                    continue;
                }
                if best.is_none_or(|b| self.nodes[j].est(now) < self.nodes[b].est(now)) {
                    best = Some(j);
                }
            }
            // No survivor: land it anyway; a later declare-dead pass
            // re-executes from the ledger.
            dst = best.unwrap_or(to);
        }
        if let Some(s) = self.surv.as_mut() {
            for b in &batches {
                for r in &b.reqs {
                    s.delta.push(DeltaOp::Add(dst, r.id));
                }
            }
        }
        self.nodes[dst].ready.extend(batches);
        self.maybe_start(dst, now);
        // A freed in-flight slot may unblock parked thieves.
        for i in 0..self.nodes.len() {
            let nd = &self.nodes[i];
            if i != dst && nd.serving.is_none() && nd.ready.is_empty() && !nd.awaiting {
                self.try_steal(i, now);
            }
        }
    }

    /// Heartbeat sweep: fold the delta journal into the checkpoint (the
    /// epoch boundary of the lineage ledger), advance per-node missed
    /// counters, and declare nodes dead once they exceed the budget.
    /// Reschedules itself while any fault is pending or unresolved.
    fn heartbeat(&mut self, now: SimTime) {
        let Some(s) = self.surv.as_mut() else { return };
        for op in s.delta.drain(..).collect::<Vec<_>>() {
            apply_delta(&mut s.ckpt, op);
        }
        let limit = s.missed_limit;
        let mut declare: Vec<usize> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.up && n.reachable {
                s.missed[i] = 0;
            } else if !n.declared_dead {
                s.missed[i] += 1;
                if s.missed[i] >= limit {
                    declare.push(i);
                }
            }
        }
        let hb = s.heartbeat;
        let last_fault = s.last_fault_at;
        for i in declare {
            self.declare_dead(i, now);
        }
        let unresolved = self
            .nodes
            .iter()
            .any(|n| (!n.up || !n.reachable) && !n.declared_dead);
        if now < last_fault || unresolved {
            self.des.schedule(now + hb, Ev::Heartbeat);
        }
    }

    /// The failure detector fires: journal the detection, trip every
    /// (tenant, node) breaker so admission routes around the corpse, and
    /// re-execute its resident lineage on the survivors.
    fn declare_dead(&mut self, node: usize, now: SimTime) {
        self.nodes[node].declared_dead = true;
        let crashed = !self.nodes[node].up;
        if R::ENABLED {
            self.rec.fault(FaultEvent {
                kind: if crashed {
                    FaultKind::NodeCrash
                } else {
                    FaultKind::NodePartition
                },
                action: FaultAction::Detected,
                at_ns: now.as_nanos(),
                tasks: 0,
            });
        }
        if let Some(s) = self.surv.as_mut() {
            s.breakers.trip_node(node as u32, now.as_nanos());
        }
        self.recover_node(node, now, !crashed);
    }

    /// Lineage re-execution from the checkpoint + delta journal — never
    /// from the dead node's memory.
    ///
    /// `frozen` = the node is partitioned but may still be computing: its
    /// resident work is *duplicated* (hedge semantics, first completion
    /// wins at heal). A crash (`!frozen`) instead *relocates* each sole
    /// surviving copy and cancels copies that exist elsewhere or whose
    /// request already finished. Void entries (lost in transit to the
    /// unreachable node) always follow the crash rule.
    fn recover_node(&mut self, node: usize, now: SimTime, frozen: bool) {
        let mut relocate: Vec<u64> = Vec::new();
        let mut duplicate: Vec<u64> = Vec::new();
        let mut cancels: Vec<u64> = Vec::new();
        {
            let Some(s) = self.surv.as_mut() else { return };
            let mut resident = s.ckpt[node].clone();
            for op in &s.delta {
                match *op {
                    DeltaOp::Add(n, id) if n == node => *resident.entry(id).or_insert(0) += 1,
                    DeltaOp::Del(n, id) if n == node => match resident.get_mut(&id) {
                        Some(c) if *c > 1 => *c -= 1,
                        Some(_) => {
                            resident.remove(&id);
                        }
                        None => debug_assert!(false, "delta Del without resident copy"),
                    },
                    _ => {}
                }
            }
            for (&id, &cnt) in &resident {
                let i = id as usize;
                if frozen {
                    if !s.done[i] {
                        duplicate.push(id);
                    }
                    // Resident stays: the frozen node still holds the
                    // originals; they fence at heal or cancel at crash.
                    continue;
                }
                let elsewhere = s.copies[i].saturating_sub(cnt.min(u32::from(u8::MAX)) as u8);
                if s.done[i] || elsewhere > 0 {
                    for _ in 0..cnt {
                        cancels.push(id);
                    }
                } else {
                    relocate.push(id);
                    for _ in 1..cnt {
                        cancels.push(id);
                    }
                }
                for _ in 0..cnt {
                    s.delta.push(DeltaOp::Del(node, id));
                }
            }
            for id in std::mem::take(&mut s.void[node]) {
                let i = id as usize;
                if s.done[i] || s.copies[i] > 1 {
                    cancels.push(id);
                } else {
                    relocate.push(id);
                }
            }
        }
        for id in cancels {
            let req = self.requests[id as usize];
            if let Some(s) = self.surv.as_mut() {
                s.copies[id as usize] = s.copies[id as usize].saturating_sub(1);
            }
            self.record(&req, now, now, ServeOutcome::CancelledHedge);
        }
        if let Some(s) = self.surv.as_mut() {
            s.hedges_launched += duplicate.len() as u64;
            for &id in &duplicate {
                s.copies[id as usize] += 1;
            }
            s.recovered += (relocate.len() + duplicate.len()) as u64;
        }
        let kind = if frozen {
            FaultKind::NodePartition
        } else {
            FaultKind::NodeCrash
        };
        self.dispatch_recovery(node, relocate, now, kind, FaultAction::Recovered);
        self.dispatch_recovery(
            node,
            duplicate,
            now,
            FaultKind::NodePartition,
            FaultAction::Hedged,
        );
    }

    /// Ship re-executed lineage to the survivors: group by task kind,
    /// place groups by LPT over the survivors' estimated finish times,
    /// and pay real wire time per recovery batch.
    fn dispatch_recovery(
        &mut self,
        from: usize,
        ids: Vec<u64>,
        now: SimTime,
        kind: FaultKind,
        action: FaultAction,
    ) {
        if ids.is_empty() {
            return;
        }
        let mut groups: BTreeMap<TaskKind, Vec<Request>> = BTreeMap::new();
        for id in ids {
            let req = self.requests[id as usize];
            groups.entry(req.kind).or_default().push(req);
        }
        let targets: Vec<usize> = {
            let t: Vec<usize> = (0..self.nodes.len())
                .filter(|&j| j != from && self.can_balance(j))
                .collect();
            if t.is_empty() {
                vec![from]
            } else {
                t
            }
        };
        let weights: Vec<u64> = groups
            .values()
            .map(|reqs| reqs.iter().map(|r| r.tasks).sum())
            .collect();
        let base: Vec<f64> = targets
            .iter()
            .map(|&j| self.nodes[j].est(now).saturating_sub(now).as_secs_f64())
            .collect();
        let per_unit: Vec<f64> = targets
            .iter()
            .map(|&j| self.nodes[j].rate.per_task.as_secs_f64())
            .collect();
        let assign = lpt_assign(&weights, &base, &per_unit);
        for ((_kind, reqs), slot) in groups.into_iter().zip(assign) {
            let to = targets[slot];
            let nreqs = reqs.len();
            let tasks: u64 = reqs.iter().map(|r| r.tasks).sum();
            let seq = self.seq;
            self.seq += 1;
            let batch = ReadyBatch {
                weight: self.weight_of(reqs[0].tenant),
                reqs,
                tasks,
                ready_at: now,
                seq,
            };
            let mv = Move::Recover {
                kind,
                action,
                counter: "recovered_requests",
                count: nreqs as u64,
            };
            let arrive = self.mig.commit(self.rec, mv, (from, to), tasks, now);
            self.des.schedule(
                arrive,
                Ev::Migrated {
                    to,
                    batches: vec![batch],
                    steal: false,
                },
            );
        }
    }

    /// Planned crash: the node loses *everything* — queued batches, the
    /// batch it was serving, batcher contents, fenced results. Recovery
    /// reads only the ledger; `gen` fences any stale in-flight
    /// `BatchDone`.
    fn node_crash(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up {
            return;
        }
        if R::ENABLED {
            self.rec.fault(FaultEvent {
                kind: FaultKind::NodeCrash,
                action: FaultAction::Injected,
                at_ns: now.as_nanos(),
                tasks: 0,
            });
        }
        if let Some(s) = self.surv.as_mut() {
            s.node_crashes += 1;
        }
        let was_declared = self.nodes[node].declared_dead;
        let n = &mut self.nodes[node];
        n.up = false;
        n.reachable = true;
        n.gen += 1;
        n.serving = None;
        n.ready.clear();
        n.fenced.clear();
        n.awaiting = false;
        let _ = n.batcher.drain();
        n.busy_until = now;
        if was_declared {
            // A declared-dead partition that now truly crashes: the
            // frozen originals are gone for real — cancel them (the
            // hedge duplicates already cover completion).
            self.recover_node(node, now, false);
        }
    }

    /// Planned partition: the node keeps computing but nothing gets in
    /// or out until heal.
    fn node_partition(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || !self.nodes[node].reachable {
            return;
        }
        self.nodes[node].reachable = false;
        if R::ENABLED {
            self.rec.fault(FaultEvent {
                kind: FaultKind::NodePartition,
                action: FaultAction::Injected,
                at_ns: now.as_nanos(),
                tasks: 0,
            });
        }
    }

    /// Partition heals: fenced results deliver now (first completion
    /// wins against any hedge duplicates), void requests that still need
    /// a copy are resent locally, and a declared-dead node re-admits
    /// through the breakers' probe ladder.
    fn node_heal(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || self.nodes[node].reachable {
            self.nodes[node].reachable = true;
            return;
        }
        self.nodes[node].reachable = true;
        let was_declared = self.nodes[node].declared_dead;
        self.nodes[node].declared_dead = false;
        if let Some(s) = self.surv.as_mut() {
            s.missed[node] = 0;
        }
        for (req, start) in std::mem::take(&mut self.nodes[node].fenced) {
            self.depart(node, &req, now);
            self.finish_copy(&req, start, now);
        }
        let void: Vec<u64> = self
            .surv
            .as_mut()
            .map(|s| std::mem::take(&mut s.void[node]).into_iter().collect())
            .unwrap_or_default();
        let mut resend: BTreeMap<TaskKind, Vec<Request>> = BTreeMap::new();
        for id in void {
            let i = id as usize;
            let req = self.requests[i];
            let s = self.surv.as_mut().expect("void implies surv");
            if s.done[i] || s.copies[i] > 1 {
                s.copies[i] = s.copies[i].saturating_sub(1);
                self.record(&req, now, now, ServeOutcome::CancelledHedge);
            } else {
                s.delta.push(DeltaOp::Add(node, id));
                resend.entry(req.kind).or_default().push(req);
            }
        }
        for (kind, reqs) in resend {
            let tasks: u64 = reqs.iter().map(|r| r.tasks).sum();
            if R::ENABLED {
                self.rec.fault(FaultEvent {
                    kind: FaultKind::NodePartition,
                    action: FaultAction::Resent,
                    at_ns: now.as_nanos(),
                    tasks,
                });
            }
            self.enqueue_ready(node, kind, reqs, now);
        }
        if was_declared {
            if let Some(s) = self.surv.as_mut() {
                s.rejoins += 1;
            }
            if R::ENABLED {
                self.rec.fault(FaultEvent {
                    kind: FaultKind::NodePartition,
                    action: FaultAction::Readmitted,
                    at_ns: now.as_nanos(),
                    tasks: 0,
                });
            }
        }
        self.maybe_start(node, now);
    }

    /// Planned rejoin after a crash: revive with a cold cache (full
    /// startup cost) and re-admit through the probe ladder. If the crash
    /// was never declared (heartbeats hadn't fired yet), recover its
    /// lineage first — nothing may be lost just because detection lagged.
    fn node_rejoin(&mut self, node: usize, now: SimTime) {
        if self.nodes[node].up {
            return;
        }
        if !self.nodes[node].declared_dead {
            if R::ENABLED {
                self.rec.fault(FaultEvent {
                    kind: FaultKind::NodeCrash,
                    action: FaultAction::Detected,
                    at_ns: now.as_nanos(),
                    tasks: 0,
                });
            }
            self.recover_node(node, now, false);
        }
        let n = &mut self.nodes[node];
        n.up = true;
        n.reachable = true;
        n.declared_dead = false;
        n.busy_until = now + n.rate.startup; // cold cache: repay startup
        if let Some(s) = self.surv.as_mut() {
            s.missed[node] = 0;
            s.rejoins += 1;
        }
        if R::ENABLED {
            self.rec.fault(FaultEvent {
                kind: FaultKind::NodeRejoin,
                action: FaultAction::Readmitted,
                at_ns: now.as_nanos(),
                tasks: 0,
            });
        }
        self.maybe_start(node, now);
    }

    /// Deadline-aware hedge: if the request is still unfinished when its
    /// per-kind tail budget expires, launch a second copy on the
    /// least-loaded other node. First completion wins; the loser is
    /// accounted as [`ServeOutcome::CancelledHedge`].
    fn hedge_check(&mut self, idx: usize, now: SimTime) {
        {
            let Some(s) = self.surv.as_ref() else { return };
            let Some(h) = s.hedge.as_ref() else { return };
            if s.done[idx] || s.copies[idx] == 0 || u32::from(s.hedged[idx]) >= h.max_hedges {
                return;
            }
        }
        let req = self.requests[idx];
        let home = self.home(&req);
        let mut target: Option<usize> = None;
        for j in 0..self.nodes.len() {
            if j == home || !self.can_balance(j) {
                continue;
            }
            if target.is_none_or(|t| self.nodes[j].est(now) < self.nodes[t].est(now)) {
                target = Some(j);
            }
        }
        if target.is_none() && self.can_balance(home) {
            target = Some(home);
        }
        let Some(to) = target else { return };
        let s = self.surv.as_mut().expect("checked above");
        s.hedged[idx] += 1;
        s.copies[idx] += 1;
        s.hedges_launched += 1;
        let seq = self.seq;
        self.seq += 1;
        let batch = ReadyBatch {
            weight: self.weight_of(req.tenant),
            reqs: vec![req],
            tasks: req.tasks,
            ready_at: now,
            seq,
        };
        let mv = Move::Recover {
            kind: FaultKind::SlowNode,
            action: FaultAction::Hedged,
            counter: "hedges_launched",
            count: 1,
        };
        let arrive = self.mig.commit(self.rec, mv, (home, to), req.tasks, now);
        self.des.schedule(
            arrive,
            Ev::Migrated {
                to,
                batches: vec![batch],
                steal: false,
            },
        );
    }

    fn run(&mut self) {
        while let Some((now, ev)) = self.des.pop() {
            match ev {
                Ev::Arrival(idx) => self.arrival(idx, now),
                Ev::FlushTimer(node) => {
                    for (kind, reqs) in self.nodes[node].batcher.flush_expired(now) {
                        self.enqueue_ready(node, kind, reqs, now);
                    }
                    self.maybe_start(node, now);
                }
                Ev::BatchDone { node, gen } => {
                    if self.nodes[node].gen == gen {
                        self.batch_done(node, now);
                    }
                }
                Ev::Migrated { to, batches, steal } => self.migrated(to, batches, steal, now),
                Ev::Drain => {
                    for node in 0..self.nodes.len() {
                        for (kind, reqs) in self.nodes[node].batcher.drain() {
                            self.enqueue_ready(node, kind, reqs, now);
                        }
                        self.maybe_start(node, now);
                    }
                }
                Ev::Epoch => self.epoch(now),
                Ev::NodeCrash(node) => self.node_crash(node, now),
                Ev::NodePartition(node) => self.node_partition(node, now),
                Ev::NodeHeal(node) => self.node_heal(node, now),
                Ev::NodeRejoin(node) => self.node_rejoin(node, now),
                Ev::Heartbeat => self.heartbeat(now),
                Ev::HedgeCheck { req } => self.hedge_check(req, now),
            }
        }
    }
}

impl ClusterSim {
    /// Serves `cfg`'s traffic on this cluster under `mode`/`bmode`:
    /// requests arrive at their generated instants, batch per kind
    /// through each home node's batcher, queue by tenant weight, and —
    /// under [`BalanceMode::Steal`] — migrate to drained nodes under
    /// the balance profit guard (highest-weight batches first).
    pub fn run_served<R: Recorder>(
        &self,
        cfg: &ServeConfig,
        mode: ResourceMode,
        bmode: BalanceMode,
        rec: &mut R,
    ) -> ServeReport {
        self.run_served_with_faults(cfg, mode, bmode, &[], RecoveryPolicy::default(), rec)
    }

    /// [`ClusterSim::run_served`] under per-node fault schedules: a
    /// faulty node calibrates with its plan active (stragglers are
    /// journaled as [`FaultKind::SlowNode`]), runs slow, and becomes a
    /// steal victim — degradation surfaces as p999 inflation and SLO
    /// misses, never as lost requests (the conservation law holds under
    /// every plan).
    pub fn run_served_with_faults<R: Recorder>(
        &self,
        cfg: &ServeConfig,
        mode: ResourceMode,
        bmode: BalanceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        rec: &mut R,
    ) -> ServeReport {
        self.run_served_survivable(
            cfg,
            mode,
            bmode,
            plans,
            policy,
            &SurvivalConfig::default(),
            rec,
        )
    }

    /// [`ClusterSim::run_served_with_faults`] with the full survival
    /// contract: heartbeat-based failure detection, lineage
    /// re-execution from the checkpoint + delta ledger for planned
    /// [`NodeFault`]s, per-(tenant, node) breaker re-admission, and the
    /// optional hedging / brownout degradation modes of
    /// [`SurvivalConfig`].
    ///
    /// The conservation law generalizes: every attempt copy terminates
    /// exactly once, so `completed + rejected + shed + cancelled_hedges
    /// == generated + hedges_launched` — a node crash under live
    /// traffic loses **zero** requests, and the same seed replays
    /// bit-identically. With no node faults in any plan and hedging and
    /// brownout off, no survival event is ever scheduled and the run is
    /// bit-identical to [`ClusterSim::run_served`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_served_survivable<R: Recorder>(
        &self,
        cfg: &ServeConfig,
        mode: ResourceMode,
        bmode: BalanceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        survival: &SurvivalConfig,
        rec: &mut R,
    ) -> ServeReport {
        assert!(cfg.nodes > 0, "cluster must have nodes");
        let requests = generate_requests(cfg);
        let (healthy, rates) =
            self.calibrate_rates(&cfg.spec, mode, plans, policy, cfg.nodes, |_| 0, rec);
        let has_node_faults = plans.iter().any(|p| !p.node_faults().is_empty());
        let active = has_node_faults || survival.hedge.is_some() || survival.brownout.is_some();
        // Brownout serves the reduced-rank Apply: calibrate the healthy
        // degraded rate once and scale it by each node's own slowdown.
        let degraded: Vec<SimTime> = match survival.brownout.as_ref() {
            Some(b) => {
                let dspec = WorkloadSpec {
                    rr_mean_rank: Some(b.rr_rank),
                    ..cfg.spec
                };
                let drate = self
                    .node()
                    .calibrate(&dspec, mode, &FaultPlan::none(), policy);
                rates
                    .iter()
                    .map(|r| {
                        let ratio = r.per_task.as_nanos().max(1) as f64
                            / healthy.per_task.as_nanos().max(1) as f64;
                        drate.per_task.scale(ratio)
                    })
                    .collect()
            }
            None => Vec::new(),
        };

        let batch_config = self.node().params().batch;
        let mut des = Des::new();
        for (i, req) in requests.iter().enumerate() {
            des.schedule(req.arrival, Ev::Arrival(i));
        }
        des.schedule(cfg.horizon, Ev::Drain);
        if let BalanceMode::Repartition { epochs } = bmode {
            let interval = cfg.horizon / (u64::from(epochs) + 1);
            if interval > SimTime::ZERO {
                for e in 0..epochs {
                    des.schedule(interval * (u64::from(e) + 1), Ev::Epoch);
                }
            }
        }
        let mut last_fault = SimTime::ZERO;
        if active {
            for (i, plan) in plans.iter().enumerate().take(cfg.nodes) {
                for nf in plan.node_faults() {
                    match *nf {
                        NodeFault::CrashAt(t) => {
                            des.schedule(SimTime::from_nanos(t), Ev::NodeCrash(i));
                        }
                        NodeFault::PartitionAt { at_ns, duration_ns } => {
                            des.schedule(SimTime::from_nanos(at_ns), Ev::NodePartition(i));
                            des.schedule(
                                SimTime::from_nanos(at_ns.saturating_add(duration_ns)),
                                Ev::NodeHeal(i),
                            );
                        }
                        NodeFault::RejoinAt(t) => {
                            des.schedule(SimTime::from_nanos(t), Ev::NodeRejoin(i));
                        }
                    }
                    last_fault = last_fault.max(SimTime::from_nanos(nf.at_ns()));
                }
            }
            if has_node_faults {
                assert!(
                    survival.heartbeat > SimTime::ZERO,
                    "node faults require a positive heartbeat interval"
                );
                des.schedule(survival.heartbeat, Ev::Heartbeat);
            }
        }
        let nodes: Vec<ServeNode> = rates
            .iter()
            .map(|&rate| ServeNode {
                rate,
                batcher: Batcher::new(batch_config),
                ready: Vec::new(),
                serving: None,
                busy_until: rate.startup,
                awaiting: false,
                up: true,
                reachable: true,
                declared_dead: false,
                gen: 0,
                fenced: Vec::new(),
            })
            .collect();
        let mut weights: Vec<(TenantId, f64)> = cfg
            .tenants
            .iter()
            .map(|t| (t.id, t.weight.max(f64::MIN_POSITIVE)))
            .collect();
        weights.sort_by_key(|(t, _)| *t);
        let deadline_ref = cfg
            .tenants
            .iter()
            .map(|t| t.deadline.as_nanos())
            .min()
            .unwrap_or(0)
            .max(1);
        let nreq = requests.len();
        let surv = active.then(|| {
            let mut breakers = BreakerMap::new(survival.breaker);
            if has_node_faults {
                // Prewarm every (tenant, node) breaker so `trip_node`
                // at detection time finds them all.
                for t in &cfg.tenants {
                    for j in 0..cfg.nodes {
                        let _ = breakers.get(t.id.0, j as u32);
                    }
                }
            }
            SurvState {
                heartbeat: survival.heartbeat,
                missed_limit: survival.missed_heartbeats.max(1),
                hedge: survival.hedge,
                brownout: survival.brownout,
                has_node_faults,
                degraded,
                done: vec![false; nreq],
                copies: vec![0; nreq],
                hedged: vec![0; nreq],
                ckpt: vec![BTreeMap::new(); cfg.nodes],
                delta: Vec::new(),
                void: vec![BTreeSet::new(); cfg.nodes],
                missed: vec![0; cfg.nodes],
                breakers,
                last_fault_at: last_fault,
                hedges_launched: 0,
                recovered: 0,
                node_crashes: 0,
                rejoins: 0,
                kind_ewma: BTreeMap::new(),
                sojourn_ewma: 0.0,
                deadline_ref,
                brownout_on: false,
                brownout_engagements: 0,
                degraded_tasks: 0,
            }
        });
        let mut cluster = ServeCluster {
            nodes,
            des,
            mig: Migrations::new(self.network().clone(), cfg.spec.result_bytes()),
            requests: &requests,
            weights,
            mode: bmode,
            queue_capacity: cfg.queue_capacity,
            shed_policy: cfg.shed,
            timer: batch_config.timer,
            seed: cfg.seed,
            seq: 0,
            admitted: 0,
            finished: 0,
            rejections: 0,
            cancelled: 0,
            outcomes: Vec::with_capacity(requests.len()),
            makespan: SimTime::ZERO,
            surv,
            rec,
        };
        cluster.run();
        let hedges = cluster.surv.as_ref().map_or(0, |s| s.hedges_launched);
        debug_assert_eq!(
            cluster.outcomes.len() as u64,
            requests.len() as u64 + hedges,
            "admission lost or duplicated request copies"
        );

        // Aggregate the percentile sink.
        let ledger = cluster.mig.report;
        let mut report = ServeReport {
            generated: requests.len() as u64,
            admitted: cluster.admitted,
            horizon: cfg.horizon,
            makespan: cluster.makespan,
            steals: ledger.steals,
            blocked_steals: ledger.blocked_steals,
            migrated_tasks: ledger.migrated_tasks,
            migrated_bytes: ledger.migrated_bytes,
            migration_wire: ledger.migration_wire,
            ..ServeReport::default()
        };
        let mut all_ns: Vec<u64> = Vec::new();
        let mut by_tenant: Vec<(TenantId, TenantReport, Vec<u64>)> = cfg
            .tenants
            .iter()
            .map(|t| {
                (
                    t.id,
                    TenantReport {
                        tenant: t.id,
                        ..TenantReport::default()
                    },
                    Vec::new(),
                )
            })
            .collect();
        by_tenant.sort_by_key(|(t, _, _)| *t);
        let mut by_kind: std::collections::BTreeMap<TaskKind, Vec<u64>> =
            std::collections::BTreeMap::new();
        let deadline_of = |t: TenantId| {
            cfg.tenants
                .iter()
                .find(|s| s.id == t)
                .map(|s| s.deadline)
                .unwrap_or(SimTime::ZERO)
        };
        for (tenant, kind, sojourn, out) in &cluster.outcomes {
            if *out == ServeOutcome::CancelledHedge {
                // A losing attempt copy, not a request: it must not
                // inflate any tenant's generated/latency accounting.
                report.cancelled_hedges += 1;
                continue;
            }
            let entry = by_tenant
                .iter_mut()
                .find(|(t, _, _)| t == tenant)
                .expect("outcome from unknown tenant");
            entry.1.generated += 1;
            match out {
                ServeOutcome::Completed => {
                    report.completed += 1;
                    entry.1.completed += 1;
                    if SimTime::from_nanos(*sojourn) <= deadline_of(*tenant) {
                        entry.1.slo_met += 1;
                    }
                    entry.2.push(*sojourn);
                    all_ns.push(*sojourn);
                    by_kind.entry(*kind).or_default().push(*sojourn);
                }
                ServeOutcome::Rejected => {
                    report.rejected += 1;
                    entry.1.rejected += 1;
                }
                ServeOutcome::Shed => {
                    report.shed += 1;
                    entry.1.shed += 1;
                }
                ServeOutcome::CancelledHedge => unreachable!("filtered above"),
            }
        }
        report.overall = LatencyStats::from_sojourns(all_ns);
        for (_, mut tr, ns) in by_tenant {
            tr.slo_attainment = if tr.generated == 0 {
                1.0
            } else {
                tr.slo_met as f64 / tr.generated as f64
            };
            tr.latency = LatencyStats::from_sojourns(ns);
            report.tenants.push(tr);
        }
        for (kind, ns) in by_kind {
            report.kinds.push(KindLatency {
                kind,
                latency: LatencyStats::from_sojourns(ns),
            });
        }
        if let Some(s) = cluster.surv.as_ref() {
            report.hedges_launched = s.hedges_launched;
            report.recovered_requests = s.recovered;
            report.node_crashes = s.node_crashes;
            report.rejoins = s.rejoins;
            report.breaker_trips = s.breakers.total_trips();
            report.brownout_engagements = s.brownout_engagements;
            report.degraded_tasks = s.degraded_tasks;
        }
        debug_assert_eq!(
            report.cancelled_hedges, cluster.cancelled,
            "cancelled-hedge accounting split"
        );
        debug_assert!(report.conserved(), "conservation violated: {report:?}");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::node::{NodeParams, NodeSim};
    use madness_gpusim::KernelKind;
    use madness_trace::{MemRecorder, NullRecorder};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: 10,
            rank: 100,
            rr_mean_rank: None,
        }
    }

    fn sim() -> ClusterSim {
        ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
    }

    fn hybrid() -> ResourceMode {
        ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        }
    }

    fn steal() -> BalanceMode {
        BalanceMode::Steal {
            min_batch: 60,
            max_inflight: 8,
        }
    }

    /// Aggregate request rate (req/s) that loads `nodes` to `rho` given
    /// the calibrated per-task cost.
    fn rate_for(sim: &ClusterSim, nodes: usize, tasks_per_request: u64, rho: f64) -> f64 {
        let rate = sim.node().calibrate(
            &spec(),
            hybrid(),
            &FaultPlan::none(),
            RecoveryPolicy::default(),
        );
        let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
        rho * nodes as f64 / per_req.max(1e-12)
    }

    fn two_tenant_cfg(sim: &ClusterSim, rho: f64) -> ServeConfig {
        let nodes = 4;
        let tasks_per_request = 4;
        let total = rate_for(sim, nodes, tasks_per_request, rho);
        ServeConfig {
            spec: spec(),
            tenants: vec![
                TenantSpec {
                    id: TenantId(1),
                    weight: 4.0,
                    deadline: SimTime::from_millis(5),
                    profile: RateProfile::Poisson { rate: total / 2.0 },
                    tasks_per_request,
                },
                TenantSpec {
                    id: TenantId(2),
                    weight: 1.0,
                    deadline: SimTime::from_millis(20),
                    profile: RateProfile::Poisson { rate: total / 2.0 },
                    tasks_per_request,
                },
            ],
            nodes,
            seed: 0xC0FFEE,
            horizon: SimTime::from_millis(50),
            queue_capacity: 1 << 20,
            shed: ShedPolicy::RejectNew,
            kinds_per_tenant: 4,
        }
    }

    #[test]
    fn request_trace_is_deterministic_and_ordered() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let a = generate_requests(&cfg);
        let b = generate_requests(&cfg);
        assert_eq!(a, b, "same seed must replay the identical trace");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.arrival < cfg.horizon));
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        // Both tenants actually produce traffic and tag their kinds.
        for t in [TenantId(1), TenantId(2)] {
            assert!(a.iter().any(|r| r.tenant == t && r.kind.tenant == t));
        }
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(generate_requests(&other), a, "seed must matter");
    }

    #[test]
    fn onoff_respects_silent_phase_and_diurnal_floors_at_zero() {
        let period = SimTime::from_millis(10);
        let profile = RateProfile::OnOff {
            rate_on: 50_000.0,
            rate_off: 0.0,
            period,
            duty: 0.3,
        };
        let cfg = ServeConfig {
            spec: spec(),
            tenants: vec![TenantSpec {
                id: TenantId(7),
                weight: 1.0,
                deadline: SimTime::from_millis(10),
                profile,
                tasks_per_request: 1,
            }],
            nodes: 2,
            seed: 42,
            horizon: SimTime::from_millis(40),
            queue_capacity: 1 << 20,
            shed: ShedPolicy::RejectNew,
            kinds_per_tenant: 1,
        };
        let reqs = generate_requests(&cfg);
        assert!(!reqs.is_empty());
        let p = period.as_nanos();
        for r in &reqs {
            let phase = (r.arrival.as_nanos() % p) as f64 / p as f64;
            assert!(phase < 0.3, "arrival in the off phase: {:?}", r.arrival);
        }
        let diurnal = RateProfile::Diurnal {
            base: 10.0,
            amplitude: 50.0,
            period,
        };
        // 3/4 through the period the sine trough would be negative.
        assert_eq!(diurnal.rate_at(period * 3u64 / 4u64), 0.0);
        assert_eq!(diurnal.peak_rate(), 60.0);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let ns: Vec<u64> = (1..=1000).rev().collect();
        let stats = LatencyStats::from_sojourns(ns);
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.p50, SimTime::from_nanos(500));
        assert_eq!(stats.p99, SimTime::from_nanos(990));
        assert_eq!(stats.p999, SimTime::from_nanos(999));
        assert_eq!(stats.max, SimTime::from_nanos(1000));
        assert_eq!(LatencyStats::from_sojourns(vec![]), LatencyStats::default());
        // Singleton: every percentile is the one sample.
        let one = LatencyStats::from_sojourns(vec![17]);
        assert_eq!((one.p50, one.p999, one.max), (one.p99, one.p99, one.p99));
    }

    #[test]
    fn ample_capacity_completes_everything() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.4);
        let report = s.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert_eq!(report.generated, report.completed);
        assert_eq!(report.rejected + report.shed, 0);
        assert_eq!(report.admitted, report.generated);
        assert!(report.overall.count == report.completed);
        assert!(report.overall.p50 <= report.overall.p99);
        assert!(report.overall.p99 <= report.overall.p999);
        assert!(report.overall.p999 <= report.overall.max);
        assert!(report.makespan >= SimTime::from_nanos(1));
        assert!(!report.kinds.is_empty());
        for t in &report.tenants {
            assert!(t.slo_attainment >= 0.0 && t.slo_attainment <= 1.0);
        }
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        let report = s.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert!(report.rejected > 0, "overload must bounce requests");
        assert_eq!(report.shed, 0, "RejectNew never sheds admitted work");
        assert_eq!(report.admitted, report.completed + report.shed);
    }

    #[test]
    fn drop_oldest_sheds_low_weight_tenant_first() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        cfg.shed = ShedPolicy::DropOldest;
        let report = s.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert!(report.shed > 0, "overload must shed queued work");
        let heavy = report.tenant(TenantId(1)).unwrap();
        let light = report.tenant(TenantId(2)).unwrap();
        assert!(
            light.shed >= heavy.shed,
            "low-weight tenant must bear the shedding: {light:?} vs {heavy:?}"
        );
    }

    #[test]
    fn weighted_stealing_helps_heavy_tenant_tail() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.7);
        let stat = s.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder);
        let dyn_ = s.run_served(&cfg, hybrid(), steal(), &mut NullRecorder);
        assert!(stat.conserved() && dyn_.conserved());
        assert!(dyn_.steals > 0, "0.7x load must trigger steals");
        let heavy_static = stat.tenant(TenantId(1)).unwrap().latency.p99;
        let heavy_steal = dyn_.tenant(TenantId(1)).unwrap().latency.p99;
        assert!(
            heavy_steal < heavy_static,
            "weighted stealing must cut the heavy tenant's p99: {heavy_steal:?} vs {heavy_static:?}"
        );
    }

    #[test]
    fn repartition_epochs_migrate_and_conserve() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.9);
        let mut rec = MemRecorder::new();
        let report = s.run_served(
            &cfg,
            hybrid(),
            BalanceMode::Repartition { epochs: 4 },
            &mut rec,
        );
        assert!(report.conserved(), "{report:?}");
        assert_eq!(report.generated, report.completed);
        // Epoch moves journal as repartitions, never as steals, and
        // account for every migrated task.
        let moves: Vec<_> = rec.balance_events().collect();
        assert!(!moves.is_empty(), "0.9x load must trigger epoch moves");
        assert!(moves.iter().all(|e| e.kind == BalanceKind::Repartition));
        let tasks: u64 = moves.iter().map(|e| e.tasks).sum();
        assert_eq!(tasks, report.migrated_tasks);
    }

    #[test]
    fn straggler_inflates_tail_but_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let healthy = s.run_served(&cfg, hybrid(), steal(), &mut NullRecorder);
        let plans = vec![FaultPlan::none().with_straggler(2.5), FaultPlan::none()];
        let mut rec = MemRecorder::new();
        let faulty = s.run_served_with_faults(
            &cfg,
            hybrid(),
            steal(),
            &plans,
            RecoveryPolicy::default(),
            &mut rec,
        );
        assert!(faulty.conserved(), "{faulty:?}");
        assert!(
            faulty.overall.p999 >= healthy.overall.p999,
            "a straggler must not improve the tail: {:?} vs {:?}",
            faulty.overall.p999,
            healthy.overall.p999
        );
        assert!(
            rec.faults().any(|f| f.kind == FaultKind::SlowNode),
            "straggler must be journaled"
        );
    }

    #[test]
    fn home_index_clamps_the_top_of_the_unit_interval() {
        // The regression: a draw whose scaled value rounds to exactly
        // `n` must land on the last node, not wrap onto node 0.
        for n in [1usize, 2, 3, 4, 7, 64] {
            assert_eq!(home_index(1.0, n), n - 1, "n = {n}");
            assert_eq!(home_index(0.0, n), 0, "n = {n}");
            // Just below the top: also the last node, same as the clamp.
            assert_eq!(home_index(1.0 - 1e-12, n), n - 1, "n = {n}");
        }
        // Interior draws are untouched by the clamp.
        assert_eq!(home_index(0.5, 4), 2);
        assert_eq!(home_index(0.2499, 4), 0);
        assert_eq!(home_index(0.75, 4), 3);
    }

    #[test]
    fn home_placement_counts_are_pinned() {
        // Placement is a pure function of (seed, kind): pin the
        // per-node counts for the boundary-exercising seed so any
        // change to the index arithmetic (clamp vs. modulo, rounding)
        // shows up as a diff here. Every kind must land in range.
        let nodes = 4usize;
        let seed = 0xB0DA_2013_u64;
        let mut counts = vec![0usize; nodes];
        for tenant in 1..=2u32 {
            for shape in 0..64u64 {
                let kind = TaskKind::for_tenant(SERVE_OP_ID, shape, TenantId(tenant));
                let key = kind.op
                    ^ kind.data_hash.rotate_left(24)
                    ^ u64::from(kind.tenant.0).rotate_left(48);
                let home = home_index(draw(seed, SALT_HOME, key), nodes);
                assert!(home < nodes);
                counts[home] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 128);
        assert_eq!(counts, vec![34, 38, 29, 27], "placement counts moved");
    }

    #[test]
    fn reject_while_full_and_shed_interleavings_conserve() {
        // Drive the bounded queue through both shed paths at heavy
        // overload: RejectNew bounces at the boundary, DropOldest sheds
        // queued batches and falls back to rejecting when nothing is
        // queued — the in-system accounting must stay exact (the
        // debug_assert! in `in_system` is live in `cargo test`).
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 4.0);
        cfg.queue_capacity = 8;
        for shed in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            cfg.shed = shed;
            let report = s.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder);
            assert!(report.conserved(), "{shed:?}: {report:?}");
            assert!(
                report.rejected > 0,
                "{shed:?} must bounce at 4x overload with an 8-slot queue"
            );
            assert_eq!(
                report.admitted,
                report.completed + report.shed,
                "{shed:?}: every admitted request completes or is shed"
            );
            assert_eq!(
                report.generated,
                report.admitted + report.rejected,
                "{shed:?}: every generated request is admitted or rejected"
            );
            if shed == ShedPolicy::RejectNew {
                assert_eq!(report.shed, 0, "RejectNew never sheds admitted work");
            } else {
                assert!(report.shed > 0, "DropOldest must shed queued batches");
            }
        }
        // The steal mode migrates ready batches mid-overload — the
        // interleaving of Migrated and shed events must also conserve.
        cfg.shed = ShedPolicy::DropOldest;
        let report = s.run_served(&cfg, hybrid(), steal(), &mut NullRecorder);
        assert!(report.conserved(), "steal interleaving: {report:?}");
        assert_eq!(report.admitted, report.completed + report.shed);
    }

    #[test]
    fn serve_events_are_journaled_per_request() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 0.5);
        cfg.horizon = SimTime::from_millis(5);
        let mut rec = MemRecorder::new();
        let report = s.run_served(&cfg, hybrid(), steal(), &mut rec);
        let events: Vec<_> = rec.serve_events().collect();
        assert_eq!(events.len() as u64, report.generated);
        let completed = events
            .iter()
            .filter(|e| e.outcome == ServeOutcome::Completed)
            .count() as u64;
        assert_eq!(completed, report.completed);
        for e in &events {
            assert!(e.finished_ns >= e.arrived_ns);
            assert!(e.started_ns >= e.arrived_ns || e.started_ns == e.arrived_ns);
        }
        let sojourns = rec.spans().filter(|sp| sp.stage == Stage::Sojourn).count() as u64;
        assert_eq!(sojourns, report.completed);
    }

    // -----------------------------------------------------------------
    // Survivable serving
    // -----------------------------------------------------------------

    /// Every *request* (not copy) terminates exactly once as
    /// completed, rejected, or shed — node loss must not leak any.
    fn assert_no_request_lost(report: &ServeReport) {
        assert!(report.conserved(), "{report:?}");
        assert_eq!(
            report.generated,
            report.completed + report.rejected + report.shed,
            "a request was lost or double-counted: {report:?}"
        );
        assert_eq!(
            report.cancelled_hedges, report.hedges_launched,
            "every extra copy must terminate as a cancelled hedge: {report:?}"
        );
    }

    #[test]
    fn inert_survival_config_is_bit_identical_to_run_served() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.7);
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let base = s.run_served(&cfg, hybrid(), steal(), &mut rec_a);
        let surv = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &[],
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec_b,
        );
        assert_eq!(base, surv, "inert survival config must not perturb serving");
        assert_eq!(rec_a.to_json(), rec_b.to_json(), "journals must match");
        assert_eq!(surv.hedges_launched + surv.cancelled_hedges, 0);
        assert_eq!(surv.node_crashes + surv.rejoins + surv.breaker_trips, 0);
        assert_eq!(surv.brownout_engagements + surv.degraded_tasks, 0);
    }

    #[test]
    fn node_crash_under_live_traffic_loses_nothing_and_replays() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        let crash_at = SimTime::from_millis(20).as_nanos();
        let plans = vec![FaultPlan::none().with_node_crash_at(crash_at)];
        let run = |rec: &mut MemRecorder| {
            s.run_served_survivable(
                &cfg,
                hybrid(),
                steal(),
                &plans,
                RecoveryPolicy::default(),
                &SurvivalConfig::default(),
                rec,
            )
        };
        let mut rec_a = MemRecorder::new();
        let report = run(&mut rec_a);
        assert_no_request_lost(&report);
        assert_eq!(report.node_crashes, 1);
        assert!(
            report.recovered_requests > 0,
            "the crash must strand work to recover: {report:?}"
        );
        assert!(
            report.breaker_trips > 0,
            "detection must trip the dead node's breakers"
        );
        assert!(
            rec_a
                .faults()
                .any(|f| f.kind == FaultKind::NodeCrash && f.action == FaultAction::Detected),
            "heartbeats must detect the crash"
        );
        assert!(
            rec_a
                .faults()
                .any(|f| f.kind == FaultKind::NodeCrash && f.action == FaultAction::Recovered),
            "lineage re-execution must be journaled"
        );
        assert!(
            rec_a.spans().any(|sp| sp.stage == Stage::Recover),
            "recovery wire time must be journaled"
        );
        // Same seed, same plan: bit-identical replay.
        let mut rec_b = MemRecorder::new();
        let replay = run(&mut rec_b);
        assert_eq!(report, replay, "same-seed chaos replay diverged");
        assert_eq!(rec_a.to_json(), rec_b.to_json());
    }

    #[test]
    fn short_partition_fences_results_and_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        // One heartbeat long: heals before the 2-beat detection limit,
        // so nothing is declared dead and no duplicates launch.
        let plans =
            vec![FaultPlan::none()
                .with_node_partition(SimTime::from_millis(20).as_nanos(), 1_000_000)];
        let mut rec = MemRecorder::new();
        let report = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec,
        );
        assert_no_request_lost(&report);
        assert_eq!(
            report.hedges_launched, 0,
            "undetected partition: {report:?}"
        );
        assert_eq!(report.node_crashes, 0);
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Injected),
            "partition must be journaled"
        );
    }

    #[test]
    fn declared_dead_partition_duplicates_and_first_completion_wins() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        // Ten heartbeats: declared dead after two, heals much later —
        // the frozen work re-executes as duplicates, the fenced
        // originals lose the race and cancel.
        let plans =
            vec![FaultPlan::none()
                .with_node_partition(SimTime::from_millis(15).as_nanos(), 10_000_000)];
        let mut rec = MemRecorder::new();
        let report = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec,
        );
        assert_no_request_lost(&report);
        assert!(
            report.hedges_launched > 0,
            "declared-dead partition must duplicate its frozen work: {report:?}"
        );
        assert!(report.rejoins >= 1, "the heal must re-admit the node");
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Hedged),
            "partition duplicates must be journaled as hedges"
        );
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Readmitted),
            "the heal re-admission must be journaled"
        );
    }

    #[test]
    fn crash_then_rejoin_recovers_and_readmits() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        let plans = vec![FaultPlan::none()
            .with_node_crash_at(SimTime::from_millis(15).as_nanos())
            .with_node_rejoin_at(SimTime::from_millis(30).as_nanos())];
        let mut rec = MemRecorder::new();
        let report = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec,
        );
        assert_no_request_lost(&report);
        assert_eq!(report.node_crashes, 1);
        assert!(report.rejoins >= 1, "{report:?}");
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodeRejoin && f.action == FaultAction::Readmitted),
            "rejoin must be journaled"
        );
        // The rejoined node must actually serve again: more capacity
        // than the crash-only run, never less.
        let crash_only =
            vec![FaultPlan::none().with_node_crash_at(SimTime::from_millis(15).as_nanos())];
        let base = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &crash_only,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut NullRecorder,
        );
        assert_no_request_lost(&base);
        assert!(
            report.makespan <= base.makespan,
            "rejoin must not slow the drain: {:?} vs {:?}",
            report.makespan,
            base.makespan
        );
    }

    #[test]
    fn hedging_duplicates_straggler_tails_and_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let plans = vec![FaultPlan::none().with_straggler(4.0)];
        let survival = SurvivalConfig {
            hedge: Some(HedgeConfig::default()),
            ..SurvivalConfig::default()
        };
        let mut rec = MemRecorder::new();
        let report = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &plans,
            RecoveryPolicy::default(),
            &survival,
            &mut rec,
        );
        assert_no_request_lost(&report);
        assert!(
            report.hedges_launched > 0,
            "a 4x straggler must trip the hedge budget: {report:?}"
        );
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::SlowNode && f.action == FaultAction::Hedged),
            "hedges must be journaled"
        );
    }

    #[test]
    fn brownout_engages_before_shedding_and_conserves() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        cfg.shed = ShedPolicy::DropOldest;
        let survival = SurvivalConfig {
            brownout: Some(BrownoutConfig::default()),
            ..SurvivalConfig::default()
        };
        let report = s.run_served_survivable(
            &cfg,
            hybrid(),
            steal(),
            &[],
            RecoveryPolicy::default(),
            &survival,
            &mut NullRecorder,
        );
        assert_no_request_lost(&report);
        assert!(
            report.brownout_engagements > 0,
            "3x overload must engage the brownout: {report:?}"
        );
        assert!(
            report.degraded_tasks > 0,
            "browned-out batches must serve at the degraded rate: {report:?}"
        );
    }

    #[test]
    fn crash_during_overload_shedding_conserves() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 16;
        for shed in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            cfg.shed = shed;
            let plans =
                vec![FaultPlan::none().with_node_crash_at(SimTime::from_millis(10).as_nanos())];
            let report = s.run_served_survivable(
                &cfg,
                hybrid(),
                steal(),
                &plans,
                RecoveryPolicy::default(),
                &SurvivalConfig::default(),
                &mut NullRecorder,
            );
            assert_no_request_lost(&report);
            assert!(report.rejected > 0, "{shed:?} must bounce at 3x overload");
            assert_eq!(report.node_crashes, 1, "{shed:?}: {report:?}");
        }
    }
}
