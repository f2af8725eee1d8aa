//! The three workloads: set-up, the timed closed loop, and the
//! correctness checks that run after it.
//!
//! Every workload is a closed loop with one client: the next request is
//! submitted when the previous call returns. Topologies are fixed per
//! workload (the paper's networks); the seed draws the requests, the
//! arrival and holding times, and the fault schedule.

use crate::calib::{self, Probe};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use netgraph::EdgeId;
use nfv_engine::{
    audit, AdmissionPipeline, FaultEvent, PipelineConfig, PipelineOutcome, PipelineReport,
    RepairConfig, RepairPolicy, RepairReport, SessionManager, StreamEvent,
};
use nfv_multicast::{appro_multi_cap_with_scratch, Admission, ApproScratch};
use nfv_online::{OnlineAlgorithm, OnlineCp, TimedRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdn::{MulticastRequest, RequestId, Sdn};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{PoissonWorkload, RequestGenerator};

/// Servers per request for `Appro_Multi_Cap` (the paper's `K`).
pub const K: usize = 3;
/// Switches of the Fig. 5 Waxman network.
pub const WAXMAN_N: usize = 250;
/// Fat-tree radix: `k = 64` gives 5 120 nodes.
pub const FAT_TREE_K: usize = 64;
/// Spread-placed servers on the fat-tree.
pub const FAT_TREE_SERVERS: usize = 32;
/// Landmarks of `Online_CP`'s candidate-scan oracle.
pub const LANDMARKS: usize = 8;
/// Planner threads of the stream; with the caller's committer thread
/// this is the 2-vCPU budget the benchmark is sized for.
pub const PIPELINE_WORKERS: usize = 1;
/// In-flight window of the stream.
pub const PIPELINE_WINDOW: usize = 6;
/// Snapshot refresh threshold of the stream.
pub const PIPELINE_REFRESH: usize = 6;
/// Repair attempts per broken session on the stream.
pub const REPAIR_RETRIES: usize = 3;
/// Stream arrivals per unit time and mean holding time: 200 Erlangs.
const ARRIVAL_RATE: f64 = 4.0;
const MEAN_HOLDING: f64 = 50.0;
/// One fault event (a failure or a recovery) per this many arrivals.
const ARRIVALS_PER_FAULT: usize = 4;
/// Share of failures that hit servers (the rest hit links).
const SERVER_FAILURE_SHARE: f64 = 0.2;
/// Mean time a failed element stays down (40 mean inter-arrival times).
const MEAN_DOWNTIME: f64 = 10.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Appro_Multi_Cap` on the Fig. 5 Waxman network, commit-only.
    OfflineWaxman250,
    /// `Online_CP` with the landmark oracle on the n = 5 120 fat-tree.
    OnlineFattree5120,
    /// The admission pipeline under Poisson churn and injected faults.
    StreamFaultsWaxman250,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineWaxman250,
        Workload::OnlineFattree5120,
        Workload::StreamFaultsWaxman250,
    ];

    /// The name the command line uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineWaxman250 => "offline_waxman250",
            Workload::OnlineFattree5120 => "online_fattree5120",
            Workload::StreamFaultsWaxman250 => "stream_faults_waxman250",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests (stream: arrivals) per round, and the wall-clock seconds
    /// one round takes on the 2-vCPU reference host.
    fn round_shape(self) -> (usize, f64) {
        match self {
            Workload::OfflineWaxman250 => (300, 7.0),
            Workload::OnlineFattree5120 => (200, 11.0),
            Workload::StreamFaultsWaxman250 => (600, 7.5),
        }
    }
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Independent rounds, each on a fresh network with its own inputs.
    pub rounds: usize,
    /// Requests (stream: arrivals) per round.
    pub round_len: usize,
    /// Fat-tree radix of the online workload.
    pub fat_tree_k: usize,
}

impl Size {
    /// The size whose timed phase lasts about `seconds` on the reference
    /// host. The work is a function of `seconds` alone, never of the
    /// machine's speed, so deterministic metrics repeat exactly.
    #[must_use]
    pub fn for_seconds(workload: Workload, seconds: u64) -> Size {
        let (round_len, round_s) = workload.round_shape();
        let rounds = ((seconds as f64 / round_s).round() as usize).max(1);
        Size {
            rounds,
            round_len,
            fat_tree_k: FAT_TREE_K,
        }
    }
}

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Work per pass.
    pub size: Size,
}

/// Set-up timings, one entry per repetition.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Whole set-up: topology, inputs and planner construction (s),
    /// scaled to the nominal host (see [`crate::calib`]).
    pub total_s: Vec<f64>,
    /// Allocation probe after each repetition (ns): set-up builds networks
    /// and requests out of small heap objects on every workload.
    pub probe_ns: Vec<f64>,
    /// Median host slowdown over the set-up (see [`crate::calib`]).
    pub slowdown: f64,
    /// Topology build (ms).
    pub topology_ms: Vec<f64>,
    /// Request, arrival and fault generation (ms).
    pub generate_ms: Vec<f64>,
}

enum Planner {
    Offline(Sdn, ApproScratch),
    Online(Sdn, OnlineCp),
    Stream(Box<AdmissionPipeline>),
}

enum RoundInput {
    Requests(Vec<MulticastRequest>),
    Stream(Vec<StreamEvent>),
}

/// The fresh network, the generated inputs and the calibration probe.
pub struct Prepared {
    params: Params,
    probe: Probe,
    fresh: Sdn,
    rounds: Vec<RoundInput>,
}

fn build_topology(params: &Params) -> Sdn {
    match params.workload {
        Workload::OfflineWaxman250 | Workload::StreamFaultsWaxman250 => {
            sim::waxman_sdn(WAXMAN_N, 0)
        }
        Workload::OnlineFattree5120 => {
            sim::fat_tree_sdn(params.size.fat_tree_k, FAT_TREE_SERVERS, 0)
        }
    }
}

fn generate(params: &Params, sdn: &Sdn) -> Vec<RoundInput> {
    let salt = match params.workload {
        Workload::OfflineWaxman250 => 0x0FF1_14E0,
        Workload::OnlineFattree5120 => 0x0411_4E00,
        Workload::StreamFaultsWaxman250 => 0x057E_A400,
    };
    let mut rng = StdRng::seed_from_u64(params.seed ^ salt);
    let mut gen = match params.workload {
        // Groups of up to 8% of the nodes (the paper's reach 20%), so a
        // stream run holds enough arrivals and faults to average the
        // bimodal cost of repairs.
        Workload::StreamFaultsWaxman250 => {
            RequestGenerator::new(sdn.node_count()).with_dmax_ratio_range(0.02, 0.08)
        }
        Workload::OfflineWaxman250 | Workload::OnlineFattree5120 => {
            RequestGenerator::new(sdn.node_count())
        }
    };
    let len = params.size.round_len;
    (0..params.size.rounds)
        .map(|_| match params.workload {
            // The paper's default mix (§VI-A).
            Workload::OfflineWaxman250 => RoundInput::Requests(stratified(
                &mut gen,
                (0.05, 0.2),
                (50.0, 200.0),
                len,
                &mut rng,
            )),
            // Small groups with hot demands.
            Workload::OnlineFattree5120 => RoundInput::Requests(stratified(
                &mut gen,
                (0.001, 0.001),
                (400.0, 900.0),
                len,
                &mut rng,
            )),
            Workload::StreamFaultsWaxman250 => {
                RoundInput::Stream(stream_events(&mut gen, len, sdn, &mut rng))
            }
        })
        .collect()
}

/// `count` points of `[0, 1)`, one in each of `count` equal strata, in
/// random order.
fn strata(count: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut points: Vec<f64> = (0..count)
        .map(|i| (i as f64 + rng.gen::<f64>()) / count as f64)
        .collect();
    for i in (1..count).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    points
}

/// `count` requests from `gen`, with `D_max/|V|` and the bandwidth demand
/// (Mbps) set for each request to one point of a stratified sample of
/// `dmax_ratio` and `bandwidth`. A stratum picked uniformly at random is
/// uniform on the range, so each request keeps the generator's uniform
/// distribution; across a batch the group-size bound and the demand cover
/// their ranges evenly. Seeds then differ less in how much work they
/// offer: on `offline_waxman250` (seeds 1-10, 2-vCPU Xeon VM) it cut the
/// cross-seed IQR/median of `decision_p95_ms` from 0.20 to 0.11 and of
/// `decisions_per_s` from 0.13 to 0.055, while repeats of one seed
/// spread by about 0.04.
fn stratified(
    gen: &mut RequestGenerator,
    dmax_ratio: (f64, f64),
    bandwidth: (f64, f64),
    count: usize,
    rng: &mut StdRng,
) -> Vec<MulticastRequest> {
    let lerp = |(lo, hi): (f64, f64), t: f64| lo + (hi - lo) * t;
    let (ratios, demands) = (strata(count, rng), strata(count, rng));
    ratios
        .into_iter()
        .zip(demands)
        .map(|(r, b)| {
            let demand = lerp(bandwidth, b);
            *gen = gen
                .clone()
                .with_dmax_ratio(lerp(dmax_ratio, r))
                .with_bandwidth_range(demand, demand);
            gen.generate(rng)
        })
        .collect()
}

/// `count` distinct indices below `n`, drawn uniformly.
fn distinct(n: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count.min(n) {
        pool.swap(i, rng.gen_range(i..n));
    }
    pool.truncate(count.min(n));
    pool
}

/// Poisson arrivals with exponential holding, merged by time with seeded
/// fail/recover pairs: distinct links and servers go down at uniform
/// times and come back after an exponential downtime. A fixed share of
/// the failures hits servers.
fn stream_events(
    gen: &mut RequestGenerator,
    arrivals: usize,
    sdn: &Sdn,
    rng: &mut StdRng,
) -> Vec<StreamEvent> {
    let sessions = PoissonWorkload::new(ARRIVAL_RATE, MEAN_HOLDING).generate(gen, arrivals, rng);
    let horizon = sessions.last().map_or(1.0, |s| s.1);
    let failures = arrivals / (2 * ARRIVALS_PER_FAULT);
    let server_failures = (failures as f64 * SERVER_FAILURE_SHARE).round() as usize;
    let servers = distinct(sdn.servers().len(), server_failures, rng)
        .into_iter()
        .map(|i| {
            (
                FaultEvent::FailServer(sdn.servers()[i]),
                FaultEvent::RecoverServer(sdn.servers()[i]),
            )
        });
    let links = distinct(sdn.link_count(), failures - server_failures, rng)
        .into_iter()
        .map(|i| {
            (
                FaultEvent::FailLink(EdgeId::new(i)),
                FaultEvent::RecoverLink(EdgeId::new(i)),
            )
        });
    let mut faults: Vec<(f64, FaultEvent)> = Vec::with_capacity(2 * failures);
    for (fail, recover) in servers.chain(links) {
        let down = rng.gen_range(0.0..horizon);
        let up = down - MEAN_DOWNTIME * rng.gen_range(f64::EPSILON..1.0).ln();
        faults.push((down, fail));
        faults.push((up, recover));
    }
    let mut events: Vec<(f64, StreamEvent)> = sessions
        .into_iter()
        .map(|(req, arrival, duration)| {
            let timed = TimedRequest::try_new(req, arrival, duration)
                .expect("generated sessions are well-formed");
            (arrival, StreamEvent::Arrival(timed))
        })
        .collect();
    events.extend(faults.into_iter().map(|(t, f)| (t, StreamEvent::Fault(f))));
    // Stable sort: an arrival precedes a fault drawn at the same time.
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events.into_iter().map(|(_, e)| e).collect()
}

/// The stream's repair service.
#[must_use]
pub fn repair_config() -> RepairConfig {
    RepairConfig::new(K)
        .with_policy(RepairPolicy::Degrade)
        .with_max_retries(REPAIR_RETRIES)
}

fn pipeline_config(workers: usize) -> PipelineConfig {
    PipelineConfig::new(K)
        .with_workers(workers)
        .with_window(PIPELINE_WINDOW)
        .with_refresh(PIPELINE_REFRESH)
        .with_repair(repair_config())
}

fn construct(workload: Workload, fresh: &Sdn, workers: usize) -> Planner {
    match workload {
        Workload::OfflineWaxman250 => Planner::Offline(fresh.clone(), ApproScratch::new()),
        Workload::OnlineFattree5120 => {
            Planner::Online(fresh.clone(), OnlineCp::new().with_oracle(LANDMARKS))
        }
        Workload::StreamFaultsWaxman250 => Planner::Stream(Box::new(AdmissionPipeline::launch(
            fresh.clone(),
            pipeline_config(workers),
        ))),
    }
}

fn retire(planner: Planner) {
    if let Planner::Stream(pipe) = planner {
        // Joins the planner thread.
        drop(pipe.finish());
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Set-up repetitions: at least [`SETUP_MIN_REPS`], and more until they
/// add up to [`SETUP_MIN_SECONDS`], so a cheap set-up is timed over many
/// repetitions; at most [`SETUP_MAX_REPS`].
pub const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECONDS: f64 = 1.0;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 1000;

/// Sets the workload up repeatedly (see [`SETUP_MIN_REPS`]), timing each
/// repetition, and keeps the network and inputs of the last one. The
/// calibration probe is built first, so its buffer is resident for the
/// whole run (see [`Prepared::probe_mb`]).
#[must_use]
pub fn prepare(params: Params, tracer: &mut Tracer) -> (Prepared, SetupTimes) {
    let probe = match params.workload {
        Workload::OnlineFattree5120 => Probe::memory(),
        Workload::OfflineWaxman250 | Workload::StreamFaultsWaxman250 => Probe::Cache,
    };
    let mut times = SetupTimes::default();
    let mut last = None;
    while times.total_s.len() < SETUP_MIN_REPS
        || (times.total_s.iter().sum::<f64>() < SETUP_MIN_SECONDS
            && times.total_s.len() < SETUP_MAX_REPS)
    {
        // The previous repetition's network and inputs go before the next
        // is built, so at most one set is resident.
        drop(last.take());
        let t0 = Instant::now();
        let root = tracer.open("setup", None, None, t0);
        let fresh = tracer.scope("topology::build", root, None, || build_topology(&params));
        let t1 = Instant::now();
        let rounds = tracer.scope("workload::generate", root, None, || {
            generate(&params, &fresh)
        });
        let t2 = Instant::now();
        let planner = tracer.scope("planner::construct", root, None, || {
            construct(params.workload, &fresh, PIPELINE_WORKERS)
        });
        let t3 = Instant::now();
        tracer.close(root, t3);
        times.total_s.push(ms(t0, t3) / 1e3);
        times.probe_ns.push(Probe::Alloc.time_ns());
        times.topology_ms.push(ms(t0, t1));
        times.generate_ms.push(ms(t1, t2));
        retire(planner);
        last = Some((fresh, rounds));
    }
    let slowdown = Probe::Alloc.slowdowns(&times.probe_ns, 2);
    times.slowdown = median(&slowdown);
    for (t, s) in times.total_s.iter_mut().zip(slowdown) {
        *t /= s;
    }
    let (fresh, rounds) = last.expect("at least one set-up repetition");
    let prepared = Prepared {
        params,
        probe,
        fresh,
        rounds,
    };
    (prepared, times)
}

impl Prepared {
    /// Servers of the workload's network.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.fresh.servers().len()
    }

    /// Memory (MiB) the calibration probe keeps resident, to be taken off
    /// the process's peak RSS so that `peak_rss_mb` is the program's.
    #[must_use]
    pub fn probe_mb(&self) -> f64 {
        self.probe.resident_bytes() as f64 / f64::from(1 << 20)
    }
}

/// Pipeline statistics summed over rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineTotals {
    /// Commits taken straight from a speculative plan.
    pub speculative_hits: usize,
    /// Plans re-planned inline at commit.
    pub replanned: usize,
    /// Times the committer blocked on the head-of-line plan.
    pub stalls: u64,
    /// Snapshots published for the planner thread.
    pub snapshots: u64,
}

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Decisions in submission order, all rounds concatenated.
    pub decisions: Vec<Admission>,
    /// Per-decision latency (ms), scaled to the nominal host.
    pub latencies_ms: Vec<f64>,
    /// Duration of each timed call (ms), scaled to the nominal host.
    pub call_ms: Vec<f64>,
    /// Calibration probe after each call (ns).
    pub probe_ns: Vec<f64>,
    /// Median host slowdown over the timed phase (see [`crate::calib`]).
    pub slowdown: f64,
    /// Index of the call that ended each decision's latency.
    latency_call: Vec<usize>,
    /// Length of the timed phase: the sum of the calls' times (s).
    pub timed_s: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Summed implementation cost of the admitted trees.
    pub cost_sum: f64,
    /// Admitted sessions that repair degraded or dropped, or left pending.
    pub not_kept: usize,
    /// Fault events injected.
    pub faults: usize,
    /// Sessions broken by faults.
    pub broken: usize,
    /// Decisions preceded by at least one release or liveness flip.
    pub after_release: usize,
    /// Operations attempted: decisions plus fault events.
    pub attempted: usize,
    /// Failed operations and failed checks, described.
    pub failures: Vec<String>,
    /// Pipeline statistics (stream only).
    pub pipeline: PipelineTotals,
    /// Duration of each round's final `engine::audit` (ms).
    pub audit_ms: Vec<f64>,
    /// Telemetry counters at the end of the timed phase, indexed by
    /// `telemetry::Counter` (all zero unless telemetry is enabled).
    pub counters: Vec<u64>,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Scales the call times and latencies by the host's local slowdown
    /// (see [`crate::calib`]).
    fn normalize(&mut self, probe: &Probe) {
        let slowdown = probe.slowdowns(&self.probe_ns, calib::WINDOW);
        self.slowdown = median(&slowdown);
        for (t, s) in self.call_ms.iter_mut().zip(&slowdown) {
            *t /= s;
        }
        for (t, &call) in self.latencies_ms.iter_mut().zip(&self.latency_call) {
            *t /= slowdown[call];
        }
    }

    /// The value of telemetry counter `c` at the end of the timed phase.
    #[must_use]
    pub fn counter(&self, c: telemetry::Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }
}

struct RoundResult<'a> {
    input: &'a RoundInput,
    decisions: Vec<Admission>,
    end: RoundEnd,
}

enum RoundEnd {
    Ledger(Box<Sdn>),
    Stream(Box<PipelineOutcome>, Vec<RepairReport>),
}

/// Runs every round of `prepared`'s inputs through the timed loop, each
/// on a fresh network and planner, then checks the outputs outside the
/// timed phase. A call's time (a decision; on the stream a `push`,
/// `inject` or `finish`) and a decision's latency are scaled to the
/// nominal host (see [`crate::calib`]); the timed phase is the sum of
/// the calls' times.
pub fn run_pass(prepared: &Prepared, workers: usize, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut results = Vec::with_capacity(prepared.rounds.len());
    let probe = &prepared.probe;
    for input in &prepared.rounds {
        let planner = construct(prepared.params.workload, &prepared.fresh, workers);
        let (decisions, end) = match (planner, input) {
            (Planner::Offline(mut sdn, mut scratch), RoundInput::Requests(reqs)) => {
                let span = "appro_multi_cap_with_scratch";
                let d = timed_requests(
                    reqs,
                    &mut sdn,
                    probe,
                    tracer,
                    &mut pass,
                    span,
                    |sdn, req| appro_multi_cap_with_scratch(sdn, req, K, &mut scratch),
                );
                (d, RoundEnd::Ledger(Box::new(sdn)))
            }
            (Planner::Online(mut sdn, mut algo), RoundInput::Requests(reqs)) => {
                let span = "OnlineCp::admit";
                let d = timed_requests(
                    reqs,
                    &mut sdn,
                    probe,
                    tracer,
                    &mut pass,
                    span,
                    |sdn, req| {
                        algo.admit(sdn, req)
                            .map_or(Admission::Rejected, Admission::Admitted)
                    },
                );
                (d, RoundEnd::Ledger(Box::new(sdn)))
            }
            (Planner::Stream(pipe), RoundInput::Stream(events)) => {
                let (out, reports) = timed_stream(*pipe, events.clone(), probe, tracer, &mut pass);
                (
                    out.decisions.clone(),
                    RoundEnd::Stream(Box::new(out), reports),
                )
            }
            _ => unreachable!("planner and input are built for the same workload"),
        };
        results.push(RoundResult {
            input,
            decisions,
            end,
        });
    }
    pass.counters = telemetry::Counter::ALL
        .iter()
        .map(|&c| telemetry::counter_value(c))
        .collect();
    pass.normalize(probe);
    pass.timed_s = pass.call_ms.iter().sum::<f64>() / 1e3;
    for r in results {
        pass.offered += r.decisions.len();
        for d in &r.decisions {
            if let Admission::Admitted(tree) = d {
                pass.admitted += 1;
                pass.cost_sum += tree.total_cost();
            }
        }
        check_round(&prepared.fresh, &r, tracer, &mut pass);
        pass.decisions.extend(r.decisions);
    }
    pass.attempted = pass.offered + pass.faults;
    pass
}

/// Closed loop over commit-only requests: plan, then allocate the tree.
fn timed_requests(
    requests: &[MulticastRequest],
    sdn: &mut Sdn,
    probe: &Probe,
    tracer: &mut Tracer,
    pass: &mut Pass,
    span: &'static str,
    mut plan: impl FnMut(&Sdn, &MulticastRequest) -> Admission,
) -> Vec<Admission> {
    let mut decisions = Vec::with_capacity(requests.len());
    for req in requests {
        let id = Some(req.id.0);
        let t0 = Instant::now();
        let root = tracer.open("decision", None, id, t0);
        let planned = tracer.scope(span, root, id, || {
            catch_unwind(AssertUnwindSafe(|| plan(sdn, req)))
        });
        let decision = planned.unwrap_or_else(|_| {
            pass.fail(format!("request {}: planner panicked", req.id.0));
            Admission::Rejected
        });
        if let Admission::Admitted(tree) = &decision {
            let alloc = tree.allocation(req);
            if let Err(e) = tracer.scope("Sdn::allocate", root, id, || sdn.allocate(&alloc)) {
                pass.fail(format!("request {}: allocate failed: {e}", req.id.0));
            }
        }
        let t1 = Instant::now();
        tracer.close(root, t1);
        pass.latency_call.push(pass.call_ms.len());
        pass.latencies_ms.push(ms(t0, t1));
        pass.call_ms.push(ms(t0, t1));
        pass.probe_ns.push(probe.time_ns());
        decisions.push(decision);
    }
    decisions
}

/// Commit bookkeeping of the stream: which pushed arrivals the committer
/// has decided so far.
#[derive(Default)]
struct Commits {
    decided: usize,
    departed: usize,
    /// A liveness flip happened since the last decision.
    flipped: bool,
}

impl Commits {
    /// Ends the latency of every arrival decided since the last call at
    /// `now`, and marks the first of them when sessions departed or a
    /// fault flipped liveness before it.
    fn settle(
        &mut self,
        report: &PipelineReport,
        now: Instant,
        pushed: &[(Instant, SpanId)],
        tracer: &mut Tracer,
        pass: &mut Pass,
    ) {
        let decided = report.admitted + report.rejected;
        if decided > self.decided {
            if report.departed > self.departed || self.flipped {
                pass.after_release += 1;
            }
            self.flipped = false;
        }
        for &(at, span) in &pushed[self.decided..decided] {
            pass.latency_call.push(pass.call_ms.len() - 1);
            pass.latencies_ms.push(ms(at, now));
            tracer.close(span, now);
        }
        self.decided = decided;
        self.departed = report.departed;
    }
}

/// Closed loop over the stream: push each arrival; before each fault,
/// drain the window, then inject the fault. A decision's latency runs
/// from its `push` to the end of the call during which the committer
/// decided it: a `push`, or the `drain` before a fault, so repair time is
/// not part of any decision's latency (it stays in the timed phase).
fn timed_stream(
    mut pipe: AdmissionPipeline,
    events: Vec<StreamEvent>,
    probe: &Probe,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> (PipelineOutcome, Vec<RepairReport>) {
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, StreamEvent::Arrival(_)))
        .count();
    let mut pushed: Vec<(Instant, SpanId)> = Vec::with_capacity(arrivals);
    let mut reports = Vec::new();
    let mut not_kept: BTreeSet<RequestId> = BTreeSet::new();
    let mut commits = Commits::default();
    let mut end_call = |pipe: &AdmissionPipeline,
                        t0: Instant,
                        pushed: &[(Instant, SpanId)],
                        tracer: &mut Tracer,
                        pass: &mut Pass,
                        fault: bool| {
        let now = Instant::now();
        pass.call_ms.push(ms(t0, now));
        commits.settle(pipe.report(), now, pushed, tracer, pass);
        commits.flipped |= fault;
        pass.probe_ns.push(probe.time_ns());
    };
    for event in events {
        match event {
            StreamEvent::Arrival(timed) => {
                let t0 = Instant::now();
                let request = timed.request.id.0;
                let id = Some(request);
                pushed.push((t0, tracer.open("decision", None, id, t0)));
                let r = tracer.scope("AdmissionPipeline::push", None, id, || {
                    catch_unwind(AssertUnwindSafe(|| pipe.push(timed)))
                });
                if r.is_err() {
                    pass.fail(format!("request {request}: push panicked"));
                }
                end_call(&pipe, t0, &pushed, tracer, pass, false);
            }
            StreamEvent::Fault(f) => {
                let t0 = Instant::now();
                let r = tracer.scope("AdmissionPipeline::drain", None, None, || {
                    catch_unwind(AssertUnwindSafe(|| pipe.drain()))
                });
                if r.is_err() {
                    pass.fail(format!("drain before {f:?} panicked"));
                }
                end_call(&pipe, t0, &pushed, tracer, pass, false);
                pass.faults += 1;
                let t0 = Instant::now();
                let r = tracer.scope("AdmissionPipeline::inject", None, None, || {
                    catch_unwind(AssertUnwindSafe(|| pipe.inject(f)))
                });
                match r {
                    Ok(Ok(report)) => {
                        pass.broken += report.broken.len();
                        not_kept.extend(report.degraded.iter().map(|&(id, _)| id));
                        not_kept.extend(report.dropped.iter().copied());
                        reports.push(report);
                    }
                    Ok(Err(e)) => pass.fail(format!("inject {f:?} failed: {e}")),
                    Err(_) => pass.fail(format!("inject {f:?} panicked")),
                }
                end_call(&pipe, t0, &pushed, tracer, pass, true);
            }
        }
    }
    let t0 = Instant::now();
    let out = tracer.scope("AdmissionPipeline::finish", None, None, || pipe.finish());
    let now = Instant::now();
    pass.call_ms.push(ms(t0, now));
    commits.settle(&out.report, now, &pushed, tracer, pass);
    pass.probe_ns.push(probe.time_ns());
    not_kept.extend(out.sessions.pending_repairs());
    pass.not_kept += not_kept.len();
    pass.pipeline.speculative_hits += out.report.speculative_hits;
    pass.pipeline.replanned += out.report.replanned;
    pass.pipeline.stalls += out.report.stalls;
    pass.pipeline.snapshots += out.report.snapshots_published;
    (out, reports)
}

/// Checks one round outside the timed phase: replays its decisions on a
/// fresh ledger, validating every admitted tree against the ledger it was
/// committed on, compares the replayed ledger with the timed one, audits
/// the end state, and drains it back to the fresh network.
fn check_round(fresh: &Sdn, round: &RoundResult, tracer: &mut Tracer, pass: &mut Pass) {
    let root = tracer.open("check", None, None, Instant::now());
    let mut sdn = fresh.clone();
    let mut mgr = SessionManager::new();
    let mut scratch = ApproScratch::new();
    let mut decisions = round.decisions.iter();
    let commit = |sdn: &mut Sdn,
                  mgr: &mut SessionManager,
                  req: &MulticastRequest,
                  decision: Option<&Admission>,
                  pass: &mut Pass|
     -> bool {
        match decision {
            Some(Admission::Admitted(tree)) => {
                if let Err(e) = tree.validate(sdn, req) {
                    pass.fail(format!("request {}: invalid tree: {e}", req.id.0));
                    return false;
                }
                if let Err(e) = mgr.commit(sdn, req.clone(), tree.clone()) {
                    pass.fail(format!(
                        "request {}: tree does not fit its ledger: {e}",
                        req.id.0
                    ));
                    return false;
                }
                true
            }
            Some(Admission::Rejected) => false,
            None => {
                pass.fail(format!("request {}: no decision", req.id.0));
                false
            }
        }
    };
    match (&round.input, &round.end) {
        (RoundInput::Requests(reqs), RoundEnd::Ledger(timed)) => {
            tracer.scope("check::replay", root, None, || {
                for req in reqs {
                    commit(&mut sdn, &mut mgr, req, decisions.next(), pass);
                }
            });
            if sdn != **timed {
                pass.fail("replayed ledger differs from the timed run's".into());
            }
            drain(fresh, sdn, mgr, None, root, tracer, pass);
        }
        (RoundInput::Stream(events), RoundEnd::Stream(out, reports)) => {
            let config = repair_config();
            let mut reports = reports.iter();
            let mut deadlines: BTreeMap<RequestId, f64> = BTreeMap::new();
            tracer.scope("check::replay", root, None, || {
                for event in events {
                    match event {
                        StreamEvent::Arrival(t) => {
                            let due: Vec<RequestId> = deadlines
                                .iter()
                                .filter(|(_, &d)| d <= t.arrival)
                                .map(|(&id, _)| id)
                                .collect();
                            for id in due {
                                deadlines.remove(&id);
                                if let Err(e) = mgr.depart(&mut sdn, id) {
                                    pass.fail(format!("session {}: release failed: {e}", id.0));
                                }
                            }
                            let d = decisions.next();
                            if commit(&mut sdn, &mut mgr, &t.request, d, pass) {
                                deadlines.insert(t.request.id, t.arrival + t.duration);
                            } else if matches!(d, Some(Admission::Rejected))
                                && appro_multi_cap_with_scratch(&sdn, &t.request, K, &mut scratch)
                                    .is_admitted()
                            {
                                pass.fail(format!(
                                    "request {}: rejected, but the sequential planner admits it",
                                    t.request.id.0
                                ));
                            }
                        }
                        StreamEvent::Fault(f) => {
                            let applied = match *f {
                                FaultEvent::FailLink(e) => sdn.fail_link(e),
                                FaultEvent::RecoverLink(e) => sdn.recover_link(e),
                                FaultEvent::FailServer(v) => sdn.fail_server(v),
                                FaultEvent::RecoverServer(v) => sdn.recover_server(v),
                            };
                            if let Err(e) = applied {
                                pass.fail(format!("replay of {f:?} failed: {e}"));
                            }
                            let report = mgr.repair(&mut sdn, &config, &mut scratch);
                            if reports.next() != Some(&report) {
                                pass.fail(format!("repair after {f:?} differs from the replay's"));
                            }
                        }
                    }
                }
            });
            if sdn != out.sdn {
                pass.fail("replayed ledger differs from the pipeline's".into());
            }
            let replayed: Vec<_> = mgr.sessions().map(|(id, s)| (id, &s.allocation)).collect();
            let live: Vec<_> = out
                .sessions
                .sessions()
                .map(|(id, s)| (id, &s.allocation))
                .collect();
            if replayed != live || mgr.pending_repairs() != out.sessions.pending_repairs() {
                pass.fail("replayed sessions differ from the pipeline's".into());
            }
            drain(
                fresh,
                out.sdn.clone(),
                out.sessions.clone(),
                Some(config),
                root,
                tracer,
                pass,
            );
        }
        _ => unreachable!("inputs and results are built for the same workload"),
    }
    tracer.close(root, Instant::now());
}

/// Audits the end state, then recovers every element, settles pending
/// repairs, departs every session and asserts the network round-trips to
/// `fresh`, as the chaos replay does.
fn drain(
    fresh: &Sdn,
    mut sdn: Sdn,
    mut mgr: SessionManager,
    repair: Option<RepairConfig>,
    parent: SpanId,
    tracer: &mut Tracer,
    pass: &mut Pass,
) {
    let t0 = Instant::now();
    let audited = audit(&sdn, &mgr);
    let t1 = Instant::now();
    tracer.record("engine::audit", parent, None, t0, t1);
    pass.audit_ms.push(ms(t0, t1));
    if let Err(e) = audited {
        pass.fail(format!("final audit failed: {e}"));
    }
    sdn.recover_all();
    if let Some(config) = repair {
        let _ = mgr.repair(&mut sdn, &config, &mut ApproScratch::new());
    }
    let ids: Vec<RequestId> = mgr
        .pending_repairs()
        .into_iter()
        .chain(mgr.sessions().map(|(id, _)| id))
        .collect();
    for id in ids {
        if let Err(e) = mgr.depart(&mut sdn, id) {
            pass.fail(format!("session {}: drain failed: {e}", id.0));
        }
    }
    if let Err(e) = audit(&sdn, &mgr) {
        pass.fail(format!("audit after drain failed: {e}"));
    }
    sdn.reset();
    if sdn != *fresh {
        pass.fail("drained network does not round-trip to its fresh state".into());
    }
}
