//! Cluster-wide dynamic load balancing.
//!
//! The paper runs MADNESS's *static* load balancing (§III-A): every node
//! executes exactly the tasks its process map assigned, and the
//! application waits for the slowest one. On a lumpy partition that
//! wastes every early-finishing node. This module replaces the
//! independent per-node runs with one cluster-level discrete-event
//! simulation in which work can *move*:
//!
//! * **[`BalanceMode::Static`]** — the baseline, re-expressed inside the
//!   DES (calibrated marginal rates, whole-batch execution) so the
//!   dynamic modes are compared against the identical cost model;
//! * **[`BalanceMode::Steal`]** — a node that drains its queue steals
//!   whole `TaskKind` batches (never fractional tasks) from the node
//!   with the latest estimated finish, paying the migration's wire time
//!   through the contention-aware [`Interconnect`] (shared torus links,
//!   in-flight cap). A steal only commits if the thief's estimated
//!   finish *including the transfer* stays at or below the victim's
//!   pre-steal estimate, so by induction no node's estimate ever exceeds
//!   the initial static makespan — `Steal` is structurally never worse
//!   than `Static`;
//! * **[`BalanceMode::Repartition`]** — TREES-style sync epochs: at each
//!   epoch the queued batches are reassigned across nodes by the shared
//!   speed-aware LPT ([`madness_mra::procmap::lpt_assign`]) from each
//!   node's *measured* EWMA cost per task, and the diffs migrate over
//!   the interconnect.
//!
//! Per-node pipeline detail is folded into a calibrated marginal rate
//! ([`crate::node::NodeSim::calibrate`]); after the DES settles, each
//! node's pipeline is re-simulated on the task count it actually
//! executed, so busy-time breakdowns and fault summaries (conservation
//! law included) stay exact. Every migration is journaled through
//! `madness-trace` as a [`Stage::Migrate`] span plus a [`BalanceEvent`],
//! and fault plans compose: a quarantined-GPU or straggler node
//! calibrates slow and naturally becomes a steal victim.

use crate::cluster::{ClusterReport, ClusterSim};
use crate::des::Des;
use crate::network::{Interconnect, NetworkModel};
use crate::node::{FaultSummary, NodeRate, ResourceMode};
use crate::workload::TaskPopulation;
use madness_faults::{FaultAction, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_mra::procmap::lpt_assign;
use madness_trace::{BalanceEvent, BalanceKind, Recorder, Stage};

/// EWMA smoothing for the measured per-task cost a repartition epoch
/// feeds into the LPT.
const EWMA_ALPHA: f64 = 0.3;

/// Repartition epochs skip reassignment while the estimated-finish
/// imbalance (max/mean) is below this.
const REPARTITION_SLACK: f64 = 1.05;

/// How the cluster distributes work at runtime (orthogonal to
/// [`ResourceMode`], which picks the resources *within* a node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceMode {
    /// The paper's static load balancing: nodes keep their partition.
    Static,
    /// Drained nodes steal whole batches from the most-loaded node.
    Steal {
        /// Smallest number of tasks worth stealing (rounded up to whole
        /// batches); guards against migration-dominated thrashing.
        min_batch: u64,
        /// Cluster-wide cap on concurrent in-flight migrations.
        max_inflight: usize,
    },
    /// Re-run the cost partition from measured EWMA rates at sync
    /// epochs, migrating the diffs.
    Repartition {
        /// Number of rebalance points spread across the estimated run.
        epochs: u32,
    },
}

impl BalanceMode {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BalanceMode::Static => "static",
            BalanceMode::Steal { .. } => "steal",
            BalanceMode::Repartition { .. } => "repartition",
        }
    }
}

/// Migration accounting of one balanced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceReport {
    /// Committed steals.
    pub steals: u64,
    /// Steal attempts deferred by the in-flight cap.
    pub blocked_steals: u64,
    /// Epochs that actually moved work.
    pub repartitions: u64,
    /// Tasks migrated (steals + repartitions).
    pub migrated_tasks: u64,
    /// Bytes migrated.
    pub migrated_bytes: u64,
    /// Aggregate wire time the migrations occupied links for.
    pub migration_wire: SimTime,
}

/// What a committed migration is, for the journal: a balance move
/// (`Stage::Migrate` span plus a [`BalanceEvent`] and the migration
/// counters) or a survival copy (`Stage::Recover` span plus a
/// [`FaultEvent`] and `count` added to `counter`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Move {
    Balance(BalanceKind),
    Recover {
        kind: FaultKind,
        action: FaultAction,
        counter: &'static str,
        count: u64,
    },
}

/// The migration ledger of a cluster DES: the contended interconnect,
/// the steal in-flight count and the [`BalanceReport`] every migration
/// commits to. The balance and serving loops move work only through it.
#[derive(Debug)]
pub(crate) struct Migrations {
    net: Interconnect,
    bytes_per_task: u64,
    /// Steal migrations on the wire (capped by `max_inflight`).
    inflight: usize,
    pub(crate) report: BalanceReport,
}

impl Migrations {
    pub(crate) fn new(model: NetworkModel, bytes_per_task: u64) -> Self {
        Migrations {
            net: Interconnect::new(model),
            bytes_per_task,
            inflight: 0,
            report: BalanceReport::default(),
        }
    }

    /// The in-flight cap: true, and one more blocked steal counted,
    /// when `max_inflight` steals are already on the wire.
    pub(crate) fn steal_blocked(&mut self, max_inflight: usize) -> bool {
        let blocked = self.inflight >= max_inflight.max(1);
        self.report.blocked_steals += u64::from(blocked);
        blocked
    }

    /// When a migration of `tasks` released at `now` would land,
    /// without booking it (the steal profit guard's quote).
    pub(crate) fn quote(&self, now: SimTime, tasks: u64) -> SimTime {
        self.net.next_start(now) + self.net.model().migration_time(tasks, self.bytes_per_task)
    }

    /// Commits a migration of `tasks` from `from` to `to` decided at
    /// `now`: books a link, adds it to the ledger (a steal also takes an
    /// in-flight slot) and journals it as `mv`. Returns the arrival.
    pub(crate) fn commit<R: Recorder>(
        &mut self,
        rec: &mut R,
        mv: Move,
        (from, to): (usize, usize),
        tasks: u64,
        now: SimTime,
    ) -> SimTime {
        let bytes = tasks * self.bytes_per_task;
        let wire = self.net.model().migration_time(tasks, self.bytes_per_task);
        let (lane, start, arrive) = self.net.migrate(now, tasks, self.bytes_per_task);
        if let Move::Balance(BalanceKind::Steal) = mv {
            self.report.steals += 1;
            self.inflight += 1;
        }
        self.report.migrated_tasks += tasks;
        self.report.migrated_bytes += bytes;
        self.report.migration_wire += wire;
        if R::ENABLED {
            let (lane, start_ns, end_ns) = (lane as u32, start.as_nanos(), arrive.as_nanos());
            match mv {
                Move::Balance(kind) => {
                    rec.span(Stage::Migrate, start_ns, end_ns, lane);
                    rec.balance_event(BalanceEvent {
                        kind,
                        from_node: from as u32,
                        to_node: to as u32,
                        tasks,
                        bytes,
                        at_ns: now.as_nanos(),
                    });
                    rec.add("migrations", 1);
                    rec.add("migrated_tasks", tasks);
                    rec.add("migrated_bytes", bytes);
                }
                Move::Recover {
                    kind,
                    action,
                    counter,
                    count,
                } => {
                    rec.span(Stage::Recover, start_ns, end_ns, lane);
                    rec.fault(FaultEvent {
                        kind,
                        action,
                        at_ns: now.as_nanos(),
                        tasks,
                    });
                    rec.add(counter, count);
                }
            }
        }
        arrive
    }

    /// A steal migration landed: its in-flight slot frees up.
    pub(crate) fn steal_landed(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
    }
}

/// One node's state inside the balance DES.
#[derive(Clone, Debug)]
struct BalNode {
    rate: NodeRate,
    /// Tasks not yet started (stealable).
    queue: u64,
    /// Tasks started or finished here.
    executed: u64,
    /// When the batch in service completes (== start time while idle).
    busy_until: SimTime,
    /// Last completion time (ZERO if the node never ran anything).
    finished: SimTime,
    /// One inbound steal at a time.
    awaiting: bool,
    /// Measured per-task cost, seconds (repartition's input).
    ewma_rate: f64,
}

impl BalNode {
    /// Estimated compute finish: exact while nobody steals *from* the
    /// node, and steals only shrink it.
    fn compute_est(&self) -> SimTime {
        self.busy_until + self.rate.per_task * self.queue
    }
}

/// DES events. Node start is a `BatchDone` with nothing in service.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// The batch in service on `node` completed (or the node spun up).
    BatchDone(usize),
    /// A migration of `tasks` tasks landed on `to`.
    Arrive { to: usize, tasks: u64 },
    /// Repartition sync point.
    Epoch,
}

/// Full cluster state threaded through the event loop.
struct BalCluster<'a, R: Recorder> {
    nodes: Vec<BalNode>,
    des: Des<Ev>,
    mig: Migrations,
    /// Whole-batch quantum (the batcher's size trigger).
    batch_cap: u64,
    mode: BalanceMode,
    rec: &'a mut R,
}

/// Per-node outcome of the DES: what it executed and when it finished.
#[derive(Clone, Copy, Debug)]
struct NodeOutcome {
    executed: u64,
    finish: SimTime,
}

impl<R: Recorder> BalCluster<'_, R> {
    /// Per-node injection time if the node ends up with `tasks` tasks —
    /// the network component of its finish estimate.
    fn inj(&self, tasks: u64) -> SimTime {
        let mig = &self.mig;
        mig.net.model().injection_time(tasks, mig.bytes_per_task)
    }

    /// Estimated node finish including unoverlapped injection.
    fn est(&self, i: usize) -> SimTime {
        let n = &self.nodes[i];
        n.compute_est().max(self.inj(n.executed + n.queue))
    }

    /// Puts the next whole batch (or remainder) of `i`'s queue in
    /// service at `now`.
    fn start_batch(&mut self, i: usize, now: SimTime) {
        let n = &mut self.nodes[i];
        let b = n.queue.min(self.batch_cap);
        debug_assert!(b > 0);
        n.queue -= b;
        n.executed += b;
        n.busy_until = now + n.rate.per_task * b;
        n.finished = n.busy_until;
        // The node observes its own speed; repartition epochs read it.
        n.ewma_rate = EWMA_ALPHA * n.rate.per_task.as_secs_f64() + (1.0 - EWMA_ALPHA) * n.ewma_rate;
        let at = n.busy_until;
        self.des.schedule(at, Ev::BatchDone(i));
    }

    /// A steal attempt by drained node `thief` at `now`. Commits only if
    /// the thief's estimated finish (transfer included) stays at or
    /// below the victim's pre-steal estimate — the invariant that keeps
    /// `Steal` never worse than `Static`.
    fn try_steal(&mut self, thief: usize, now: SimTime) {
        let BalanceMode::Steal {
            min_batch,
            max_inflight,
        } = self.mode
        else {
            return;
        };
        if self.nodes[thief].awaiting || self.nodes[thief].queue > 0 {
            return;
        }
        if self.mig.steal_blocked(max_inflight) {
            return; // retried when a transfer lands
        }
        // Victim: latest estimated finish among nodes with at least one
        // whole batch to give (ties to the lowest index).
        let mut victim: Option<usize> = None;
        for j in 0..self.nodes.len() {
            if j == thief || self.nodes[j].queue < self.batch_cap {
                continue;
            }
            if victim.is_none_or(|v| self.est(j) > self.est(v)) {
                victim = Some(j);
            }
        }
        let Some(v) = victim else { return };
        let victim_est = self.est(v);
        let batches_avail = self.nodes[v].queue / self.batch_cap;
        // Steal-half, at least `min_batch` tasks, in whole batches.
        let want = (self.nodes[v].queue / 2).max(min_batch);
        let want_batches = (want / self.batch_cap)
            .max(min_batch.div_ceil(self.batch_cap))
            .clamp(1, batches_avail);
        // If half the queue is too much to be profitable (slow thief,
        // congested network), fall back to a single batch.
        for a_batches in [want_batches, 1] {
            let a = a_batches * self.batch_cap;
            let arrive = self.mig.quote(now, a);
            let t = &self.nodes[thief];
            let compute_after = t.busy_until.max(arrive) + t.rate.per_task * a;
            let thief_est = compute_after.max(self.inj(t.executed + a));
            if thief_est <= victim_est {
                let booked = self.mig.commit(
                    self.rec,
                    Move::Balance(BalanceKind::Steal),
                    (v, thief),
                    a,
                    now,
                );
                debug_assert_eq!(booked, arrive);
                self.nodes[v].queue -= a;
                self.nodes[thief].awaiting = true;
                self.des.schedule(
                    arrive,
                    Ev::Arrive {
                        to: thief,
                        tasks: a,
                    },
                );
                return;
            }
            if a_batches == 1 {
                break;
            }
        }
    }

    /// TREES-style sync point: reassign every queued whole batch by
    /// speed-aware LPT over the measured EWMA rates, then migrate the
    /// diffs. Partial trailing batches stay home (whole batches only).
    fn epoch(&mut self, now: SimTime) {
        let n = self.nodes.len();
        // Imbalance gate: while estimates are even, moving work only
        // pays wire time.
        let ests: Vec<f64> = (0..n).map(|i| self.est(i).as_secs_f64()).collect();
        let max = ests.iter().cloned().fold(0.0, f64::max);
        let mean = ests.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 || max / mean <= REPARTITION_SLACK {
            return;
        }
        let movable: Vec<u64> = self
            .nodes
            .iter()
            .map(|nd| nd.queue / self.batch_cap)
            .collect();
        let total_batches: u64 = movable.iter().sum();
        if total_batches == 0 {
            return;
        }
        // Base = each node's unmovable backlog (batch in service plus
        // the partial remainder); speed = measured EWMA cost per task.
        let base: Vec<f64> = self
            .nodes
            .iter()
            .map(|nd| {
                let rem = nd.queue % self.batch_cap;
                (nd.busy_until.saturating_sub(now) + nd.rate.per_task * rem).as_secs_f64()
            })
            .collect();
        let speed: Vec<f64> = self.nodes.iter().map(|nd| nd.ewma_rate).collect();
        let weights = vec![self.batch_cap; total_batches as usize];
        let assignment = lpt_assign(&weights, &base, &speed);
        let mut new_batches = vec![0u64; n];
        for owner in assignment {
            new_batches[owner] += 1;
        }
        // Senders shed down to their new allotment; receivers pick the
        // surplus up in index order.
        let mut moved_any = false;
        let mut surplus: Vec<(usize, u64)> = Vec::new(); // (node, batches to send)
        let mut deficit: Vec<(usize, u64)> = Vec::new();
        for i in 0..n {
            let old = movable[i];
            let new = new_batches[i];
            if old > new {
                surplus.push((i, old - new));
            } else if new > old {
                deficit.push((i, new - old));
            }
        }
        let mut di = 0usize;
        for (from, mut give) in surplus {
            while give > 0 && di < deficit.len() {
                let (to, need) = &mut deficit[di];
                let b = give.min(*need);
                let a = b * self.batch_cap;
                let arrive = self.mig.commit(
                    self.rec,
                    Move::Balance(BalanceKind::Repartition),
                    (from, *to),
                    a,
                    now,
                );
                self.nodes[from].queue -= a;
                self.des.schedule(arrive, Ev::Arrive { to: *to, tasks: a });
                moved_any = true;
                give -= b;
                *need -= b;
                if *need == 0 {
                    di += 1;
                }
            }
        }
        if moved_any {
            self.mig.report.repartitions += 1;
        }
    }

    /// Runs the event loop to completion.
    fn run(&mut self) -> Vec<NodeOutcome> {
        while let Some((now, ev)) = self.des.pop() {
            match ev {
                Ev::BatchDone(i) => {
                    if self.nodes[i].busy_until != now {
                        continue; // stale: an arrival already restarted the node
                    }
                    if self.nodes[i].queue > 0 {
                        self.start_batch(i, now);
                        if self.nodes[i].queue == 0 {
                            // Prefetch: overlap the next steal's wire
                            // time with the batch in service.
                            self.try_steal(i, now);
                        }
                    } else {
                        self.try_steal(i, now);
                    }
                }
                Ev::Arrive { to, tasks } => {
                    self.mig.steal_landed();
                    self.nodes[to].awaiting = false;
                    self.nodes[to].queue += tasks;
                    if self.nodes[to].busy_until <= now {
                        self.start_batch(to, now);
                    }
                    if self.nodes[to].queue == 0 {
                        self.try_steal(to, now);
                    }
                    // A freed in-flight slot may unblock parked thieves.
                    for i in 0..self.nodes.len() {
                        let nd = &self.nodes[i];
                        if i != to && nd.queue == 0 && !nd.awaiting && nd.busy_until <= now {
                            self.try_steal(i, now);
                        }
                    }
                }
                Ev::Epoch => self.epoch(now),
            }
        }
        self.nodes
            .iter()
            .map(|nd| {
                debug_assert_eq!(nd.queue, 0, "work left behind");
                NodeOutcome {
                    executed: nd.executed,
                    finish: nd.finished,
                }
            })
            .collect()
    }
}

impl ClusterSim {
    /// [`ClusterSim::run_recorded`] under a [`BalanceMode`]: the whole
    /// cluster advances through one discrete-event simulation, so
    /// drained nodes can steal batched work (or epochs can repartition
    /// it) with migration cost charged through the contention-aware
    /// interconnect. `Static` reproduces the per-node baseline inside
    /// the same cost model, which is what the dynamic modes are
    /// guaranteed against.
    pub fn run_balanced<R: Recorder>(
        &self,
        population: &TaskPopulation,
        mode: ResourceMode,
        bmode: BalanceMode,
        rec: &mut R,
    ) -> (ClusterReport, BalanceReport) {
        let (report, bal, _) = self.run_balanced_with_faults(
            population,
            mode,
            bmode,
            &[],
            RecoveryPolicy::default(),
            rec,
        );
        (report, bal)
    }

    /// [`ClusterSim::run_balanced`] under per-node fault schedules
    /// (compare [`ClusterSim::run_with_faults`]). Faulty nodes calibrate
    /// with their plan active, so a quarantined-GPU node or a straggler
    /// runs at its degraded rate and naturally becomes a steal victim —
    /// load sheds to healthy nodes instead of the straggler setting the
    /// makespan. With all-empty plans the result is bit-identical to
    /// [`ClusterSim::run_balanced`]'s.
    ///
    /// Returns the cluster report, the migration accounting, and one
    /// [`FaultSummary`] per node (conservation holds against the task
    /// count the node *actually executed* after migration).
    pub fn run_balanced_with_faults<R: Recorder>(
        &self,
        population: &TaskPopulation,
        mode: ResourceMode,
        bmode: BalanceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        rec: &mut R,
    ) -> (ClusterReport, BalanceReport, Vec<FaultSummary>) {
        let spec = population.spec;
        let n = population.per_node.len();
        let (_, rates) = self.calibrate_rates(
            &spec,
            mode,
            plans,
            policy,
            n,
            |i| population.per_node[i],
            rec,
        );

        // Seed the DES: every node spins up at its startup time with its
        // static partition queued.
        let mut des = Des::new();
        let mean_rate =
            rates.iter().map(|r| r.per_task.as_secs_f64()).sum::<f64>() / n.max(1) as f64;
        let nodes: Vec<BalNode> = (0..n)
            .map(|i| BalNode {
                rate: rates[i],
                queue: population.per_node[i],
                executed: 0,
                busy_until: rates[i].startup,
                finished: SimTime::ZERO,
                awaiting: false,
                // Repartition must *learn* heterogeneity: everyone
                // starts from the cluster-mean prior.
                ewma_rate: mean_rate,
            })
            .collect();
        for (i, nd) in nodes.iter().enumerate() {
            des.schedule(nd.busy_until, Ev::BatchDone(i));
        }
        if let BalanceMode::Repartition { epochs } = bmode {
            let horizon = nodes
                .iter()
                .map(BalNode::compute_est)
                .max()
                .unwrap_or(SimTime::ZERO);
            let interval = horizon / (u64::from(epochs) + 1);
            for e in 0..epochs {
                des.schedule(interval * (u64::from(e) + 1), Ev::Epoch);
            }
        }
        let batch_cap = (self.node().params().batch.max_batch as u64).max(1);
        let mut cluster = BalCluster {
            nodes,
            des,
            mig: Migrations::new(self.network().clone(), spec.result_bytes()),
            batch_cap,
            mode: bmode,
            rec: &mut *rec,
        };
        let outcomes = cluster.run();
        let bal = cluster.mig.report;
        debug_assert_eq!(
            outcomes.iter().map(|o| o.executed).sum::<u64>(),
            population.total(),
            "migration lost or duplicated tasks"
        );

        // Fidelity pass: re-run each node's pipeline on what it actually
        // executed for busy-time breakdowns and fault conservation; the
        // DES finish time overrides the isolated total, and injection
        // rides on the executed counts exactly as in `run_with_faults`.
        let none = FaultPlan::none();
        let mut summaries = Vec::with_capacity(n);
        let nodes = outcomes
            .iter()
            .enumerate()
            .map(|(i, out)| {
                let plan = plans.get(i).unwrap_or(&none);
                let finish = Some(out.finish);
                let (report, net, summary) =
                    self.finish_node(&spec, out.executed, mode, plan, policy, finish, rec);
                summaries.push(summary);
                (report, net)
            })
            .collect();
        (self.reduce(nodes, population), bal, summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::node::{NodeParams, NodeSim};
    use crate::workload::WorkloadSpec;
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

    fn lumpy(n_nodes: usize, loaded: usize, tasks_each: u64) -> TaskPopulation {
        let mut per_node = vec![0u64; n_nodes];
        for t in per_node.iter_mut().take(loaded) {
            *t = tasks_each;
        }
        TaskPopulation {
            spec: spec(),
            per_node,
        }
    }

    #[test]
    fn static_mode_matches_calibrated_makespan() {
        let s = sim();
        let pop = lumpy(4, 2, 12_000);
        let (r, bal) = s.run_balanced(
            &pop,
            ResourceMode::CpuOnly { threads: 16 },
            BalanceMode::Static,
            &mut NullRecorder,
        );
        assert_eq!(bal.steals, 0);
        assert_eq!(bal.migrated_tasks, 0);
        let rate = s.node().calibrate(
            &spec(),
            ResourceMode::CpuOnly { threads: 16 },
            &FaultPlan::none(),
            RecoveryPolicy::default(),
        );
        let expect = rate.startup + rate.per_task * 12_000;
        assert_eq!(r.total, expect.max(r.network_time));
    }

    #[test]
    fn steal_beats_static_on_lumpy_partition() {
        let s = sim();
        let pop = lumpy(8, 2, 24_000);
        let mode = ResourceMode::CpuOnly { threads: 16 };
        let (st, _) = s.run_balanced(&pop, mode, BalanceMode::Static, &mut NullRecorder);
        let (dy, bal) = s.run_balanced(&pop, mode, steal(), &mut NullRecorder);
        assert!(bal.steals > 0, "idle nodes must steal");
        assert!(
            dy.total.as_secs_f64() < 0.5 * st.total.as_secs_f64(),
            "steal {} vs static {}",
            dy.total,
            st.total
        );
        assert!(dy.balance() > st.balance());
    }

    #[test]
    fn steal_is_inert_on_even_population() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 48_000, 8);
        let mode = ResourceMode::CpuOnly { threads: 16 };
        let (st, _) = s.run_balanced(&pop, mode, BalanceMode::Static, &mut NullRecorder);
        let (dy, bal) = s.run_balanced(&pop, mode, steal(), &mut NullRecorder);
        assert!(dy.total <= st.total);
        // Whatever it stole (the ±1-task remainder spread), the result
        // must not be worse.
        assert!(bal.migrated_tasks <= 8 * 60);
    }

    #[test]
    fn repartition_beats_static_on_lumpy_partition() {
        let s = sim();
        let pop = lumpy(8, 2, 24_000);
        let mode = ResourceMode::CpuOnly { threads: 16 };
        let (st, _) = s.run_balanced(&pop, mode, BalanceMode::Static, &mut NullRecorder);
        let (rp, bal) = s.run_balanced(
            &pop,
            mode,
            BalanceMode::Repartition { epochs: 4 },
            &mut NullRecorder,
        );
        assert!(bal.repartitions > 0, "epochs must move work");
        assert!(
            rp.total.as_secs_f64() < 0.7 * st.total.as_secs_f64(),
            "repartition {} vs static {}",
            rp.total,
            st.total
        );
    }

    #[test]
    fn migrations_are_journaled() {
        let s = sim();
        let pop = lumpy(4, 1, 6_000);
        let mut rec = MemRecorder::new();
        let (_, bal) = s.run_balanced(
            &pop,
            ResourceMode::CpuOnly { threads: 16 },
            steal(),
            &mut rec,
        );
        assert!(bal.steals > 0);
        let events: Vec<_> = rec.balance_events().collect();
        assert_eq!(events.len(), bal.steals as usize);
        assert!(events.iter().all(|e| e.kind == BalanceKind::Steal));
        assert_eq!(
            events.iter().map(|e| e.tasks).sum::<u64>(),
            bal.migrated_tasks
        );
        assert!(rec.spans().any(|sp| sp.stage == Stage::Migrate));
        assert_eq!(rec.metrics().counter("migrated_tasks"), bal.migrated_tasks);
        // Round-trip through JSON keeps the migration journal.
        let back = MemRecorder::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn fault_free_identity_with_empty_plans() {
        let s = sim();
        let pop = lumpy(4, 2, 6_000);
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let (ra, ba) = s.run_balanced(&pop, hybrid(), steal(), &mut rec_a);
        let (rb, bb, sums) = s.run_balanced_with_faults(
            &pop,
            hybrid(),
            steal(),
            &[],
            RecoveryPolicy::default(),
            &mut rec_b,
        );
        assert_eq!(ra, rb);
        assert_eq!(ba, bb);
        assert_eq!(rec_a.to_json(), rec_b.to_json());
        let executed: Vec<u64> = sums
            .iter()
            .map(|s| s.completed_cpu + s.completed_gpu)
            .collect();
        assert_eq!(executed.iter().sum::<u64>(), pop.total());
    }

    #[test]
    fn straggler_sheds_load_to_healthy_nodes() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 24_000, 4);
        let mode = ResourceMode::CpuOnly { threads: 16 };
        let mut plans = vec![FaultPlan::none(); 4];
        plans[1] = FaultPlan::none().with_straggler(4.0);
        let policy = RecoveryPolicy::default();
        // Static under the same DES cost model: the straggler sets the
        // makespan.
        let (st, _, _) = s.run_balanced_with_faults(
            &pop,
            mode,
            BalanceMode::Static,
            &plans,
            policy,
            &mut NullRecorder,
        );
        assert_eq!(st.slowest_node, 1);
        let (dy, bal, sums) =
            s.run_balanced_with_faults(&pop, mode, steal(), &plans, policy, &mut NullRecorder);
        assert!(bal.steals > 0, "healthy nodes must relieve the straggler");
        assert!(
            dy.total.as_secs_f64() < 0.8 * st.total.as_secs_f64(),
            "steal {} vs static {}",
            dy.total,
            st.total
        );
        // The straggler executed less than its static share.
        let straggler_done = sums[1].completed_cpu + sums[1].completed_gpu;
        assert!(straggler_done < pop.per_node[1]);
        assert_eq!(
            sums.iter()
                .map(|s| s.completed_cpu + s.completed_gpu + s.lost)
                .sum::<u64>(),
            pop.total()
        );
    }

    #[test]
    fn quarantined_gpu_node_becomes_victim() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 16_000, 4);
        let mut plans = vec![FaultPlan::none(); 4];
        // A GPU that loses its device early runs on the CPU fallback —
        // much slower in GPU-heavy mode.
        plans[2] = FaultPlan::seeded(7).with_launch_fail_rate(0.9);
        let policy = RecoveryPolicy::default();
        let mut rec = MemRecorder::new();
        let (_, bal, _) =
            s.run_balanced_with_faults(&pop, hybrid(), steal(), &plans, policy, &mut rec);
        assert!(bal.steals > 0, "the degraded node must be relieved");
        // Every steal takes work away from a node; the degraded node
        // must appear as a victim at least once.
        assert!(
            rec.balance_events().any(|e| e.from_node == 2),
            "node 2 never shed load"
        );
    }

    #[test]
    fn empty_nodes_steal_work() {
        let s = sim();
        let pop = lumpy(16, 1, 30_000);
        let mode = ResourceMode::CpuOnly { threads: 16 };
        let (dy, bal) = s.run_balanced(&pop, mode, steal(), &mut NullRecorder);
        assert!(bal.steals >= 10, "only {} steals", bal.steals);
        assert!(dy.balance() > 0.5, "balance {}", dy.balance());
        assert_eq!(dy.total_tasks, 30_000);
    }
}
