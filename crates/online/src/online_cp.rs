//! `Online_CP` (Algorithm 2): online admission with the exponential cost
//! model and LCA-based pseudo-multicast trees.

use crate::OnlineAlgorithm;
use netgraph::{CsrGraph, DijkstraScratch, EdgeId, LandmarkOracle, NodeId, RootedTree};
use nfv_multicast::{PseudoMulticastTree, ServerUse};
use sdn::{ExponentialCostModel, LinearCostModel, MulticastRequest, Sdn};

/// How `Online_CP` prices residual resources when weighting the admission
/// graph `G_k`.
///
/// The paper's algorithm uses [`CostMode::Exponential`]; the linear mode
/// exists for the ablation benches, which quantify how much of the
/// throughput gain comes from workload-aware pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostMode {
    /// Eq. 1–2 with `α = β = 2|V|` (the paper's setting).
    #[default]
    Exponential,
    /// Load-oblivious unit prices (`w_e = c_e`, `w_v = c_v`), thresholds
    /// disabled.
    Linear,
}

/// How the bandwidth admission threshold `σ_e = |V| − 1` is applied.
///
/// Algorithm 2's listing (line 9) writes the rejection condition as a sum
/// over the tree, `Σ_{e∈T} w_e(k) ≥ σ_e`; the competitive analysis
/// (Lemma 1, inequality (8); Lemma 2 Case 2) only ever needs the
/// *per-edge* bound `w_e(k) < σ_e`, which each summand inherits from the
/// sum. The sum rule rejects trees once mean link utilization passes
/// roughly `log(|V|/|T|)/log(2|V|)` (≈ 40 % in the paper's parameter
/// range), stranding most of the network's capacity — irreconcilable with
/// the throughput the paper reports for `Online_CP`. The per-edge rule
/// keeps admitting until individual links approach
/// `log|V|/log(2|V|) ≈ 87 %` utilization and satisfies the same analysis,
/// so it is the default; the ablation bench measures both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdRule {
    /// `w_e(k) < σ_e` must hold for every tree edge individually.
    #[default]
    PerEdge,
    /// `Σ_{e∈T} w_e(k) < σ_e` over the whole tree (the literal line 9).
    TreeSum,
}

/// The network as `Online_CP` prices it, kept from one request to the
/// next: every link's `G_k` weight, and the arcs of the current
/// request's `G_k` filtered from it.
///
/// A link's weight is its exponential price `β^util − 1` plus an
/// infinitesimal unit-cost tiebreak `COST_TIEBREAK_REL·c_e/c_max`, where
/// `c_max` is the largest unit cost among the links `G_k` keeps; in
/// linear mode it is the unit cost `c_e`. A committed tree moves the
/// price of only the links it uses, so [`PricedNetwork::refresh`] makes
/// one O(m) pass that compares each link's residual and liveness with the
/// ones it was priced at and calls `powf` only on the links that moved.
/// `c_max` is the one input that depends on the request's bandwidth `b`:
/// it is recomputed per request, and every tiebreak term is re-added only
/// when it differs from the value the table was priced at.
///
/// `G_k` is then not rebuilt but filtered: the reused `arcs` buffer is
/// refilled with the arcs of the links alive with `residual +
/// CAPACITY_EPS ≥ b`, in the parent graph's adjacency order and with
/// parent edge ids. The shortest-path runs of the Steiner routine use it,
/// and everything after them reads weights from `weight` by parent edge
/// id and endpoints from the network's own topology. Arcs and weights
/// are bit-identical to a `G_k` built afresh (the test-only
/// `build_admission_graph`), and so are the decisions (DESIGN.md §13).
///
/// Like the oracle slot, the table assumes one `OnlineCp` follows one
/// network; it is rebuilt only when the network's shape changes.
#[derive(Debug, Clone)]
pub(crate) struct PricedNetwork {
    mode: CostMode,
    model: ExponentialCostModel,
    /// Each link's current `G_k` weight.
    weight: Vec<f64>,
    /// `β^util − 1` per link at the residual in `residual` (exponential
    /// mode only).
    price: Vec<f64>,
    /// Residual bandwidth each link was last refreshed at.
    residual: Vec<f64>,
    /// Liveness of each link at the last refresh.
    alive: Vec<bool>,
    /// Whether each link is in the current request's `G_k`.
    keep: Vec<bool>,
    /// Links by unit cost, most expensive first: `c_max` is the cost of
    /// the first one kept.
    by_cost: Vec<EdgeId>,
    /// The `c_max` the tiebreak terms in `weight` were computed with.
    c_max: f64,
    /// Links whose residual or liveness changed at the last refresh.
    dirty: Vec<EdgeId>,
    /// [`Sdn::version`] at the last refresh.
    version: u64,
    /// The current request's `G_k`: the kept links as arcs.
    arcs: CsrGraph,
}

impl PricedNetwork {
    /// Prices every link of `sdn`. The first [`PricedNetwork::refresh`]
    /// adds the tiebreak terms.
    fn new(sdn: &Sdn, mode: CostMode) -> Self {
        let model = ExponentialCostModel::for_network(sdn);
        let links = || sdn.graph().edges().map(|e| e.id);
        let price = match mode {
            CostMode::Exponential => links().map(|e| model.edge_weight(sdn, e)).collect(),
            CostMode::Linear => Vec::new(),
        };
        let mut by_cost: Vec<EdgeId> = links().collect();
        by_cost.sort_by(|&x, &y| {
            sdn.unit_bandwidth_cost(y)
                .total_cmp(&sdn.unit_bandwidth_cost(x))
        });
        PricedNetwork {
            mode,
            model,
            arcs: CsrGraph::from_graph(sdn.graph()),
            weight: vec![0.0; sdn.link_count()],
            price,
            residual: links().map(|e| sdn.residual_bandwidth(e)).collect(),
            alive: links().map(|e| sdn.is_link_alive(e)).collect(),
            keep: vec![false; sdn.link_count()],
            by_cost,
            // No `c_max` matches NaN, so the first refresh prices all.
            c_max: f64::NAN,
            dirty: Vec::new(),
            version: sdn.version(),
        }
    }

    /// Returns the table kept in `slot`, refreshed for a request of
    /// bandwidth `b` on `sdn`, building it if the slot is empty or holds
    /// another network shape or mode, and whether every link was
    /// repriced (a build, or a new `c_max`).
    pub(crate) fn refreshed<'s>(
        slot: &'s mut Option<PricedNetwork>,
        sdn: &Sdn,
        b: f64,
        mode: CostMode,
    ) -> (&'s mut PricedNetwork, bool) {
        let fits = |t: &PricedNetwork| {
            t.mode == mode
                && t.residual.len() == sdn.link_count()
                && t.arcs.node_count() == sdn.node_count()
        };
        if !slot.as_ref().is_some_and(fits) {
            *slot = None;
        }
        let table = slot.get_or_insert_with(|| PricedNetwork::new(sdn, mode));
        let full = table.refresh(sdn, b);
        (table, full)
    }

    /// Brings the table up to date with `sdn` and filters `G_k` at `b`.
    /// Returns whether every link was repriced.
    fn refresh(&mut self, sdn: &Sdn, b: f64) -> bool {
        self.dirty.clear();
        self.version = sdn.version();
        let states = self.residual.iter_mut().zip(&mut self.alive);
        for (i, ((residual, alive), keep)) in states.zip(&mut self.keep).enumerate() {
            let e = EdgeId::new(i);
            let now = (sdn.residual_bandwidth(e), sdn.is_link_alive(e));
            if now.0.to_bits() != residual.to_bits() || now.1 != *alive {
                (*residual, *alive) = now;
                self.dirty.push(e);
            }
            *keep = now.1 && now.0 + sdn::CAPACITY_EPS >= b;
        }
        if self.mode == CostMode::Exponential {
            for &e in &self.dirty {
                if let Some(p) = self.price.get_mut(e.index()) {
                    *p = self.model.edge_weight(sdn, e);
                }
            }
        }
        let c_max = self.c_max_where(sdn, &self.keep);
        let full = c_max.to_bits() != self.c_max.to_bits();
        self.c_max = c_max;
        let (mode, price) = (self.mode, &self.price);
        if full {
            for (i, w) in self.weight.iter_mut().enumerate() {
                *w = link_weight(mode, price, sdn, EdgeId::new(i), c_max);
            }
        } else {
            for &e in &self.dirty {
                if let Some(w) = self.weight.get_mut(e.index()) {
                    *w = link_weight(mode, price, sdn, e, c_max);
                }
            }
        }
        self.filter(sdn);
        full
    }

    /// Refills `arcs` with the links of the current `G_k`.
    fn filter(&mut self, sdn: &Sdn) {
        let (keep, weight) = (&self.keep, &self.weight);
        self.arcs.refill(sdn.graph(), |e| {
            match (keep.get(e.index()), weight.get(e.index())) {
                (Some(true), Some(&w)) => Some(w),
                _ => None,
            }
        });
    }

    /// The largest unit cost among the links passing `mask` (floored at
    /// `COST_FLOOR`, like the fold over them in the reference build).
    fn c_max_where(&self, sdn: &Sdn, mask: &[bool]) -> f64 {
        self.by_cost
            .iter()
            .find(|e| mask.get(e.index()).copied().unwrap_or(false))
            .map_or(sdn::COST_FLOOR, |&e| {
                sdn::COST_FLOOR.max(sdn.unit_bandwidth_cost(e))
            })
    }

    /// Whether the current `G_k` has no link at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.arcs.arc_count() == 0
    }

    /// The `G_k` weight of link `e`.
    pub(crate) fn weight(&self, e: EdgeId) -> f64 {
        self.weight.get(e.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// The current `G_k` as arcs carrying parent link ids.
    pub(crate) fn arcs(&self) -> &CsrGraph {
        &self.arcs
    }
}

/// Link `e`'s `G_k` weight given its exponential `price` table and the
/// tiebreak normaliser `c_max`; the unit cost in linear mode.
fn link_weight(mode: CostMode, price: &[f64], sdn: &Sdn, e: EdgeId, c_max: f64) -> f64 {
    match mode {
        CostMode::Exponential => {
            let price = price.get(e.index()).copied().unwrap_or(0.0);
            price + sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(e) / c_max
        }
        CostMode::Linear => sdn.unit_bandwidth_cost(e),
    }
}

/// The candidate-scan landmark oracle (oracle mode only) over every link
/// alive at build time, priced at the `G_k` weights of that moment, plus
/// the per-link residuals it was built against.
///
/// The oracle is kept while every link alive now was alive at build time
/// and has no more residual bandwidth than then. Under that rule each
/// `G_k` is a subgraph of the oracle graph whose weights are no lower:
/// utilisation only rose, so `β^util − 1` did too, and `G_k`'s cost
/// maximum `c_max` (over fewer links) is no larger, so its tiebreak term
/// is no smaller. Distances in `G_k` therefore dominate the oracle's, and
/// the ALT bounds stay admissible. Allocations and failures always keep
/// the oracle; a release, recovery or [`Sdn::reset`] rebuilds it once it
/// lifts a link above its build-time residual or revives a link that was
/// down at build time. Like the priced table, the slot assumes one
/// `OnlineCp` follows one network.
#[derive(Debug, Clone)]
struct OracleSlot {
    oracle: LandmarkOracle,
    /// Residual bandwidth of each link at build time, `−∞` for a link
    /// that was down (so its recovery fails the reuse check).
    residual: Vec<f64>,
}

impl OracleSlot {
    /// Builds the oracle from a table just refreshed against `sdn`. The
    /// oracle graph is laid out in the table's arc buffer, which is then
    /// refilled with `G_k`, so the build allocates no second graph.
    fn build(sdn: &Sdn, net: &mut PricedNetwork, landmarks: usize) -> Self {
        let c_max = net.c_max_where(sdn, &net.alive);
        let (mode, price, alive) = (net.mode, &net.price, &net.alive);
        net.arcs.refill(sdn.graph(), |e| {
            let up = alive.get(e.index()).copied().unwrap_or(false);
            up.then(|| link_weight(mode, price, sdn, e, c_max))
        });
        let oracle = LandmarkOracle::build(&net.arcs, landmarks, &mut DijkstraScratch::new());
        net.filter(sdn);
        let residual = net
            .residual
            .iter()
            .zip(&net.alive)
            .map(|(&r, &alive)| if alive { r } else { f64::NEG_INFINITY })
            .collect();
        OracleSlot { oracle, residual }
    }

    /// The full-scan form of [`OracleSlot::admissible_after`]: no link
    /// came back up and no residual grew since the build.
    #[cfg(test)]
    fn admissible_on(&self, sdn: &Sdn) -> bool {
        self.residual.len() == sdn.link_count()
            && sdn
                .graph()
                .edges()
                .zip(&self.residual)
                .all(|(e, &r)| !sdn.is_link_alive(e.id) || sdn.residual_bandwidth(e.id) <= r)
    }

    /// Whether the oracle's bounds are still admissible after `net`'s
    /// last refresh: no link that moved since the previous refresh came
    /// back up or gained residual over the build. The links that did not
    /// move passed this check at an earlier refresh, or the oracle was
    /// built then, so checking the moved ones decides it for all.
    fn admissible_after(&self, net: &PricedNetwork) -> bool {
        self.residual.len() == net.residual.len()
            && net.dirty.iter().all(|e| {
                let i = e.index();
                match (net.alive.get(i), net.residual.get(i), self.residual.get(i)) {
                    (Some(&alive), Some(&now), Some(&built)) => !alive || now <= built,
                    _ => false,
                }
            })
    }
}

/// The `Online_CP` admission algorithm (Algorithm 2, `K = 1`).
#[derive(Debug, Clone, Default)]
pub struct OnlineCp {
    mode: CostMode,
    rule: ThresholdRule,
    /// Landmarks for the candidate-scan oracle (0 = exact scan).
    oracle_landmarks: usize,
    priced: Option<PricedNetwork>,
    oracle: Option<OracleSlot>,
    oracle_builds: u64,
}

impl OnlineCp {
    /// Creates the paper's `Online_CP` (exponential cost model, per-edge
    /// threshold rule).
    #[must_use]
    pub fn new() -> Self {
        OnlineCp::default()
    }

    /// Creates an `Online_CP` variant with an explicit cost mode
    /// (ablation).
    #[must_use]
    pub fn with_mode(mode: CostMode) -> Self {
        OnlineCp {
            mode,
            ..OnlineCp::default()
        }
    }

    /// Overrides the bandwidth threshold rule (ablation).
    #[must_use]
    pub fn with_threshold_rule(mut self, rule: ThresholdRule) -> Self {
        self.rule = rule;
        self
    }

    /// Enables the landmark-oracle candidate scan: servers are ordered by
    /// an admissible lower bound on their admission weight and evaluated
    /// lazily, stopping once the bound proves no remaining server can beat
    /// the incumbent. Decisions are byte-identical to the exact scan —
    /// the bound never underestimates a winner away — but at 5k+ nodes
    /// most candidates skip their Steiner construction entirely.
    ///
    /// `landmarks = 0` disables the oracle (the default exact scan).
    #[must_use]
    pub fn with_oracle(mut self, landmarks: usize) -> Self {
        self.oracle_landmarks = landmarks;
        self.oracle = None;
        self
    }

    /// The configured oracle landmark count (0 = exact scan).
    #[must_use]
    pub fn oracle_landmarks(&self) -> usize {
        self.oracle_landmarks
    }

    /// The active cost mode.
    #[must_use]
    pub fn mode(&self) -> CostMode {
        self.mode
    }

    /// The active threshold rule.
    #[must_use]
    pub fn threshold_rule(&self) -> ThresholdRule {
        self.rule
    }

    /// The [`Sdn::version`] the priced network behind `G_k` was last
    /// refreshed at, or `None` before the first admission. The invariant
    /// auditor compares this against the live network right after an
    /// admission is served.
    #[must_use]
    pub fn cached_version(&self) -> Option<u64> {
        self.priced.as_ref().map(|p| p.version)
    }

    /// Landmark-oracle builds so far: the first admission in oracle mode
    /// builds one, and later admissions rebuild it only after a release,
    /// recovery or reset lifted a link above the residual it was built at
    /// or revived a link that was down then.
    #[must_use]
    pub fn oracle_builds(&self) -> u64 {
        self.oracle_builds
    }

    /// Refreshes the priced network for bandwidth `b` against the
    /// current residual state, plus the landmark oracle when oracle mode
    /// is on. A full repricing counts on `AdmissionCacheRebuilds`, an
    /// incremental refresh on `AdmissionCacheHits`.
    fn admission_graph(&mut self, sdn: &Sdn, b: f64) -> (&PricedNetwork, Option<&LandmarkOracle>) {
        let (net, full) = PricedNetwork::refreshed(&mut self.priced, sdn, b, self.mode);
        telemetry::hit(if full {
            telemetry::Counter::AdmissionCacheRebuilds
        } else {
            telemetry::Counter::AdmissionCacheHits
        });
        if self.oracle_landmarks > 0
            && !self
                .oracle
                .as_ref()
                .is_some_and(|o| o.admissible_after(net))
        {
            self.oracle = Some(OracleSlot::build(sdn, net, self.oracle_landmarks));
            self.oracle_builds += 1;
        }
        (net, self.oracle.as_ref().map(|o| &o.oracle))
    }
}

/// Builds the admission graph `G_k` for bandwidth `b` from scratch: the
/// alive, residual-feasible subgraph, its edges weighted under the chosen
/// cost mode. The reference [`PricedNetwork`] must reproduce bit for bit.
///
/// G_k keeps links with enough residual bandwidth for one traversal (a
/// link on the send-back path needs 2·b_k; that stricter joint check
/// happens on the final allocation) and excludes failed links exactly like
/// saturated ones. A fresh network has every exponential weight at exactly
/// zero, which would leave the Steiner routine picking among ties
/// arbitrarily (and wastefully); an infinitesimal unit-cost term breaks
/// those ties toward cost-efficient trees without ever influencing a
/// loaded decision or the admission thresholds.
#[cfg(test)]
pub(crate) fn build_admission_graph(sdn: &Sdn, b: f64, mode: CostMode) -> netgraph::FilteredGraph {
    let keep =
        |e: EdgeId| sdn.is_link_alive(e) && sdn.residual_bandwidth(e) + sdn::CAPACITY_EPS >= b;
    let c_max = sdn
        .graph()
        .edges()
        .filter(|e| keep(e.id))
        .map(|e| sdn.unit_bandwidth_cost(e.id))
        .fold(sdn::COST_FLOOR, f64::max);
    let model = ExponentialCostModel::for_network(sdn);
    netgraph::induced_subgraph_weighted(
        sdn.graph(),
        |_| true,
        keep,
        |e| match mode {
            CostMode::Exponential => {
                let tiebreak = sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(e.id) / c_max;
                model.edge_weight(sdn, e.id) + tiebreak
            }
            CostMode::Linear => LinearCostModel::new().edge_cost(sdn, e.id, 1.0),
        },
    )
}

/// One evaluated admission candidate.
pub(crate) struct Candidate {
    pub(crate) weight: f64,
    pub(crate) tree: PseudoMulticastTree,
}

/// A server that passed the cheap phase-1 checks (alive, residual
/// computing, saturation threshold) and still awaits the expensive
/// Steiner-tree evaluation. `lb` is an admissible lower bound on the
/// candidate's final admission weight (just `wv` until the oracle adds
/// its distance term).
struct Survivor {
    pos: usize,
    v: NodeId,
    wv: f64,
    lb: f64,
}

/// What evaluating one surviving server produced.
pub(crate) enum EvalOutcome {
    /// Steps 8-12 succeeded; the candidate still faces the final
    /// allocation check.
    Admissible(Candidate),
    /// The link-side admission threshold (step 9) rejected the tree.
    ThresholdBlocked,
    /// No Steiner tree connects the terminals through this server.
    Skip,
}

/// Everything the per-server Steiner evaluation (steps 8-12 of
/// Algorithm 2 plus candidate materialization) needs, bundled so the
/// exact and oracle scans share a single code path and can never drift
/// apart.
pub(crate) struct AdmissionCtx<'a> {
    pub(crate) sdn: &'a Sdn,
    pub(crate) request: &'a MulticastRequest,
    pub(crate) b: f64,
    pub(crate) demand: f64,
    pub(crate) sigma: f64,
    pub(crate) mode: CostMode,
    pub(crate) rule: ThresholdRule,
    /// `G_k`: shortest paths run on its arcs, and every link id they
    /// return reads its weight here and its endpoints in `sdn`.
    pub(crate) gk: &'a PricedNetwork,
}

impl AdmissionCtx<'_> {
    /// Evaluates server `v` with admission weight `wv`. With a `bank` the
    /// shortest-path trees are shared with the other candidates of the
    /// scan; without one the candidate gets its own, as in the paper's
    /// per-candidate KMB. Both give the same tree.
    pub(crate) fn evaluate(
        &self,
        v: NodeId,
        wv: f64,
        bank: Option<&mut steiner::TerminalSptBank<'_>>,
    ) -> EvalOutcome {
        let (sdn, request, gk) = (self.sdn, self.request, self.gk);
        let weight = |e: EdgeId| gk.weight(e);
        let topology = sdn.graph();
        // Step 8: Steiner tree over {s_k, v} ∪ D_k in G_k, in parent link
        // ids.
        let mut terminals = vec![request.source, v];
        terminals.extend(request.destinations.iter().copied());
        let tree = match bank {
            Some(bank) => steiner::kmb_with_bank(topology, weight, &terminals, bank),
            None => {
                let mut own = steiner::TerminalSptBank::new(gk.arcs(), terminals.clone());
                steiner::kmb_with_bank(topology, weight, &terminals, &mut own)
            }
        };
        let Some(tree) = tree else {
            return EvalOutcome::Skip;
        };
        // Step 9: link-side admission threshold.
        let tree_weight: f64 = tree.cost();
        if self.mode == CostMode::Exponential {
            let violates = match self.rule {
                ThresholdRule::TreeSum => tree_weight >= self.sigma,
                ThresholdRule::PerEdge => tree.edges().iter().any(|&e| weight(e) >= self.sigma),
            };
            if violates {
                return EvalOutcome::ThresholdBlocked;
            }
        }
        // Steps 10-12: LCA send-back construction.
        let Some(rooted) =
            RootedTree::from_weighted_edges(topology, tree.edges(), request.source, weight)
        else {
            return EvalOutcome::Skip;
        };
        let lca = rooted.lca();
        let mut lca_args = vec![v];
        lca_args.extend(request.destinations.iter().copied());
        let u = lca.lca_of_set(&lca_args);
        let sendback = rooted.path_between(v, u);
        let sendback_weight: f64 = sendback.cost();

        let weight = tree_weight + wv + sendback_weight;

        // Materialize the pseudo-multicast tree.
        let ingress_ids: Vec<EdgeId> = rooted.path_between(request.source, v).edges().to_vec();
        let ingress_set: std::collections::BTreeSet<EdgeId> = ingress_ids.iter().copied().collect();
        let all_tree: &[EdgeId] = tree.edges();
        let distribution: Vec<EdgeId> = all_tree
            .iter()
            .copied()
            .filter(|e| !ingress_set.contains(e))
            .collect();
        let extra: Vec<EdgeId> = sendback.edges().to_vec();

        let ingress_cost: f64 = ingress_ids
            .iter()
            .map(|&e| sdn.unit_bandwidth_cost(e) * self.b)
            .sum();
        let computing_cost = sdn.unit_computing_cost(v).expect("server") * self.demand; // lint:allow(P1): v is drawn from servers()
        let bandwidth_cost: f64 = all_tree
            .iter()
            .chain(&extra)
            .map(|&e| sdn.unit_bandwidth_cost(e) * self.b)
            .sum();
        EvalOutcome::Admissible(Candidate {
            weight,
            tree: PseudoMulticastTree {
                request: request.id,
                source: request.source,
                servers: vec![ServerUse {
                    server: v,
                    ingress_edges: ingress_ids,
                    ingress_cost,
                    computing_cost,
                }],
                distribution_edges: distribution,
                extra_traversals: extra,
                bandwidth_cost,
                computing_cost,
            },
        })
    }
}

impl OnlineAlgorithm for OnlineCp {
    fn name(&self) -> &'static str {
        match self.mode {
            CostMode::Exponential => "Online_CP",
            CostMode::Linear => "Online_CP(linear)",
        }
    }

    // lint:entry(api)
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
        let b = request.bandwidth;
        let demand = request.computing_demand();
        let model = ExponentialCostModel::for_network(sdn);
        let linear = LinearCostModel::new();
        let sigma = ExponentialCostModel::threshold(sdn);

        let mode = self.mode;
        let rule = self.rule;
        let (net, oracle) = self.admission_graph(sdn, b);
        if net.is_empty() {
            telemetry::hit(telemetry::Counter::OnlineRejectedInfeasible);
            return None;
        }
        let ctx = AdmissionCtx {
            sdn,
            request,
            b,
            demand,
            sigma,
            mode,
            rule,
            gk: net,
        };

        // Phase 1: cheap per-server checks. These always run over every
        // server, so the saturation telemetry and the threshold-blocked
        // rejection reason are identical with and without the oracle.
        let mut threshold_blocked = false;
        let mut survivors: Vec<Survivor> = Vec::new();
        for (pos, &v) in sdn.servers().iter().enumerate() {
            // Hard feasibility: the server must be up and the chain must
            // fit its residual capacity (a dead server reads as zero).
            if !sdn.is_server_alive(v)
                || sdn.residual_computing(v).unwrap_or(0.0) + sdn::CAPACITY_EPS < demand
            {
                continue;
            }
            let wv = match mode {
                CostMode::Exponential => model.server_weight(sdn, v).expect("server"), // lint:allow(P1): v is drawn from servers()
                CostMode::Linear => linear.server_cost(sdn, v, 1.0).expect("server"), // lint:allow(P1): v is drawn from servers()
            };
            // Step 7: server-side admission threshold.
            if mode == CostMode::Exponential && wv >= sigma {
                // The exponential cost saturated: utilisation pushed this
                // server's normalised weight past the sigma threshold.
                telemetry::hit(telemetry::Counter::OnlineSaturatedServers);
                threshold_blocked = true;
                continue;
            }
            survivors.push(Survivor { pos, v, wv, lb: wv });
        }

        if let Some(oracle) = oracle {
            // Oracle scan: order survivors by an admissible lower bound on
            // their final admission weight (`wv` plus the Steiner bound
            // over {s_k, v} ∪ D_k, since the send-back term is ≥ 0), then
            // evaluate lazily. The bound never exceeds the true weight, so
            // stopping once it passes the incumbent cannot change the
            // decision — only skip Steiner constructions that were going
            // to lose anyway.
            let mut terminals = vec![request.source];
            terminals.extend(request.destinations.iter().copied());
            for s in &mut survivors {
                terminals.push(s.v);
                s.lb += steiner::steiner_lower_bound(&terminals, |x, y| oracle.lower_bound(x, y));
                terminals.pop();
            }
            // One SPT bank for the whole scan: the anchor terminals'
            // Dijkstra runs are shared across every candidate instead of
            // re-run per server (the scan's dominant cost at 5k+ nodes).
            let mut bank_targets = terminals.clone();
            bank_targets.extend(survivors.iter().map(|s| s.v));
            let mut bank = steiner::TerminalSptBank::new(ctx.gk.arcs(), bank_targets);
            survivors.sort_by(|x, y| {
                x.lb.partial_cmp(&y.lb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.pos.cmp(&y.pos))
            });

            let mut had_candidates = false;
            let mut best: Option<(f64, usize, PseudoMulticastTree)> = None;
            for (idx, s) in survivors.iter().enumerate() {
                if let Some((best_w, _, _)) = &best {
                    // Strictly worse than the incumbent (with a margin so
                    // float noise can never prune an exact tie, which the
                    // position rule below might still award differently).
                    if s.lb > best_w * (1.0 + sdn::PRUNE_GUARD_REL) + sdn::PRUNE_GUARD_ABS {
                        telemetry::add(
                            telemetry::Counter::OnlineCandidatesPruned,
                            (survivors.len() - idx) as u64,
                        );
                        break;
                    }
                }
                match ctx.evaluate(s.v, s.wv, Some(&mut bank)) {
                    EvalOutcome::Admissible(c) => {
                        had_candidates = true;
                        // The final ledger check runs per candidate here;
                        // the exact scan's "sort then first-allocatable"
                        // is the same min over (weight, server position).
                        if sdn.can_allocate(&c.tree.allocation(request)) {
                            let replace = match &best {
                                None => true,
                                Some((bw, bp, _)) => {
                                    c.weight < *bw || (c.weight == *bw && s.pos < *bp)
                                }
                            };
                            if replace {
                                best = Some((c.weight, s.pos, c.tree));
                            }
                        }
                    }
                    EvalOutcome::ThresholdBlocked => threshold_blocked = true,
                    EvalOutcome::Skip => {}
                }
            }
            if let Some((_, _, tree)) = best {
                return Some(tree);
            }
            // No early-exit fired on this path (it requires an incumbent),
            // so every survivor was evaluated and the rejection reason is
            // computed from exactly the same evidence as the exact scan.
            telemetry::hit(if had_candidates {
                telemetry::Counter::OnlineRejectedCapacity
            } else if threshold_blocked {
                telemetry::Counter::OnlineRejectedThreshold
            } else {
                telemetry::Counter::OnlineRejectedInfeasible
            });
            return None;
        }

        // Exact scan (the paper's listing): evaluate every survivor in
        // server order.
        let mut candidates: Vec<Candidate> = Vec::new();
        for s in &survivors {
            match ctx.evaluate(s.v, s.wv, None) {
                EvalOutcome::Admissible(c) => candidates.push(c),
                EvalOutcome::ThresholdBlocked => threshold_blocked = true,
                EvalOutcome::Skip => {}
            }
        }

        // Try candidates cheapest-first; the send-back path may need 2·b_k
        // on some link, so the accumulated allocation is the final check.
        candidates.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("weights are finite")); // lint:allow(P1): candidate weights are finite sums of finite unit costs
        let had_candidates = !candidates.is_empty();
        for c in candidates {
            if sdn.can_allocate(&c.tree.allocation(request)) {
                return Some(c.tree);
            }
        }
        telemetry::hit(if had_candidates {
            // Every surviving candidate failed the final ledger check.
            telemetry::Counter::OnlineRejectedCapacity
        } else if threshold_blocked {
            telemetry::Counter::OnlineRejectedThreshold
        } else {
            telemetry::Counter::OnlineRejectedInfeasible
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// Line with a mid-path destination requiring send-back:
    /// s -- a -- v(server), with d hanging off a.
    fn sendback_fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let a = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, a, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(a, v, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(a, d, 1_000.0, 1.0).unwrap();
        (bld.build().unwrap(), vec![s, a, v, d], vec![e0, e1, e2])
    }

    #[test]
    fn admits_with_sendback() {
        let (sdn, v, e) = sendback_fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        let mut algo = OnlineCp::new();
        let tree = algo.admit(&sdn, &req).expect("admissible");
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[2]]);
        // Tree: s-a, a-v, a-d. LCA(v, d) = a => send-back a-v.
        assert_eq!(tree.extra_traversals, vec![e[1]]);
        let alloc = tree.allocation(&req);
        assert_eq!(alloc.link_load(e[1]), 200.0); // double traversal
        assert_eq!(alloc.link_load(e[0]), 100.0);
        assert_eq!(alloc.link_load(e[2]), 100.0);
    }

    #[test]
    fn sendback_capacity_is_respected() {
        let (mut sdn, v, e) = sendback_fixture();
        // Leave only 150 Mbps on the a-v link: a 100 Mbps request needs
        // 200 there (send-back), so it must be rejected.
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[1], 850.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn prefers_underloaded_server() {
        // Two symmetric servers; load one, Online_CP must pick the other.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v1 = bld.add_server(1_000.0, 1.0);
        let v2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, v1, 10_000.0, 1.0).unwrap();
        bld.add_link(s, v2, 10_000.0, 1.0).unwrap();
        bld.add_link(v1, d, 10_000.0, 1.0).unwrap();
        bld.add_link(v2, d, 10_000.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v1, 800.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let tree = OnlineCp::new().admit(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v2]);
    }

    #[test]
    fn linear_mode_ignores_load() {
        // Same fixture: linear mode keeps picking the unit-cost-cheapest
        // server even when it is loaded.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v1 = bld.add_server(1_000.0, 0.5); // cheaper per unit
        let v2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, v1, 10_000.0, 1.0).unwrap();
        bld.add_link(s, v2, 10_000.0, 1.0).unwrap();
        bld.add_link(v1, d, 10_000.0, 1.0).unwrap();
        bld.add_link(v2, d, 10_000.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v1, 800.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let tree = OnlineCp::with_mode(CostMode::Linear)
            .admit(&sdn, &req)
            .unwrap();
        assert_eq!(tree.servers_used(), vec![v1]);
    }

    #[test]
    fn rejects_when_no_computing_left() {
        let (mut sdn, v, _) = sendback_fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v[2], 7_990.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn rejects_when_links_saturated() {
        let (mut sdn, v, e) = sendback_fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 950.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn server_as_tree_root_needs_no_sendback() {
        // Server on the path before the branch point: no extra traversals.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, v, 1_000.0, 1.0).unwrap();
        bld.add_link(v, d1, 1_000.0, 1.0).unwrap();
        bld.add_link(v, d2, 1_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 100.0, chain());
        let tree = OnlineCp::new().admit(&sdn, &req).unwrap();
        tree.validate(&sdn, &req).unwrap();
        assert!(tree.extra_traversals.is_empty());
    }

    #[test]
    fn caching_is_transparent_to_decisions() {
        // A warm cache must admit exactly what a cold one does.
        let (sdn0, v, _) = sendback_fixture();
        let reqs: Vec<MulticastRequest> = (0..12)
            .map(|i| MulticastRequest::new(RequestId(i), v[0], vec![v[3]], 100.0, chain()))
            .collect();
        let mut warm_net = sdn0.clone();
        let mut cold_net = sdn0.clone();
        let mut warm = OnlineCp::new();
        for req in &reqs {
            let warm_tree = warm.admit(&warm_net, req);
            let cold_tree = OnlineCp::new().admit(&cold_net, req);
            assert_eq!(warm_tree, cold_tree, "request {}", req.id);
            if let Some(t) = warm_tree {
                warm_net.allocate(&t.allocation(req)).unwrap();
                cold_net
                    .allocate(&cold_tree.unwrap().allocation(req))
                    .unwrap();
            }
        }
        assert_eq!(warm_net, cold_net);
    }

    /// Ring of 16 nodes with chords, a server on every third node.
    fn ring_fixture() -> (Sdn, Vec<NodeId>) {
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..16)
            .map(|i| {
                if i % 3 == 0 {
                    bld.add_server(4_000.0, 1.0 + (i % 5) as f64 * 0.1)
                } else {
                    bld.add_switch()
                }
            })
            .collect();
        for i in 0..16 {
            bld.add_link(
                nodes[i],
                nodes[(i + 1) % 16],
                2_000.0,
                1.0 + (i % 4) as f64 * 0.25,
            )
            .unwrap();
        }
        for i in (0..16).step_by(4) {
            bld.add_link(nodes[i], nodes[(i + 7) % 16], 2_000.0, 1.5)
                .unwrap();
        }
        (bld.build().unwrap(), nodes)
    }

    fn ring_request(nodes: &[NodeId], i: u64) -> Option<MulticastRequest> {
        let src = nodes[(i as usize * 5) % 16];
        let dst = nodes[(i as usize * 11 + 3) % 16];
        (src != dst).then(|| MulticastRequest::new(RequestId(i), src, vec![dst], 120.0, chain()))
    }

    #[test]
    fn oracle_scan_matches_exact_decisions() {
        // The oracle-ordered lazy scan must admit exactly the same trees
        // as the exact scan across a sequence that allocates, releases,
        // and fails and recovers links, so the oracle is both reused
        // while weights only rise and rebuilt when one can fall.
        let (sdn0, nodes) = ring_fixture();
        let links: Vec<EdgeId> = sdn0.graph().edges().map(|e| e.id).collect();
        let mut exact_net = sdn0.clone();
        let mut oracle_net = sdn0;
        let mut exact = OnlineCp::new();
        let mut fast = OnlineCp::new().with_oracle(4);
        assert_eq!(fast.oracle_landmarks(), 4);
        assert_eq!(exact.oracle_landmarks(), 0);
        let mut sessions: Vec<Allocation> = Vec::new();
        let mut admitted = 0;
        for i in 0..60u64 {
            let link = links[(i as usize * 3) % links.len()];
            let released = (i % 9 == 4 && !sessions.is_empty()).then(|| sessions.remove(0));
            for net in [&mut exact_net, &mut oracle_net] {
                if let Some(session) = &released {
                    net.release(session).unwrap();
                }
                match i % 10 {
                    0 => drop(net.fail_link(link).unwrap()),
                    5 => net.recover_all(),
                    _ => {}
                }
            }
            let Some(req) = ring_request(&nodes, i) else {
                continue;
            };
            let a = exact.admit(&exact_net, &req);
            let b = fast.admit(&oracle_net, &req);
            assert_eq!(a, b, "request {}", req.id);
            if let (Some(ta), Some(tb)) = (&a, &b) {
                exact_net.allocate(&ta.allocation(&req)).unwrap();
                oracle_net.allocate(&tb.allocation(&req)).unwrap();
                sessions.push(ta.allocation(&req));
                admitted += 1;
            }
            assert_eq!(exact_net, oracle_net);
        }
        assert!(admitted > 0, "fixture admits nothing; test is vacuous");
        assert!(fast.oracle_builds() > 1, "no rebuild was exercised");
        assert!(
            fast.oracle_builds() < admitted,
            "the oracle was never reused ({} builds)",
            fast.oracle_builds()
        );
    }

    #[test]
    fn oracle_rebuilds_only_when_a_weight_can_fall() {
        let (mut sdn, nodes) = ring_fixture();
        let links: Vec<EdgeId> = sdn.graph().edges().map(|e| e.id).collect();
        let (down, other) = (links[0], links[5]);
        let server = nodes[3];
        let mut algo = OnlineCp::new().with_oracle(4);
        let mut next = 0u64;
        // Offers the next servable request; commits and returns its
        // allocation when admitted.
        let mut admit_one = |algo: &mut OnlineCp, sdn: &mut Sdn| loop {
            next += 1;
            let Some(req) = ring_request(&nodes, next) else {
                continue;
            };
            let alloc = algo.admit(sdn, &req).map(|tree| tree.allocation(&req));
            if let Some(a) = &alloc {
                sdn.allocate(a).unwrap();
            }
            break alloc;
        };
        // The first admission builds the oracle with `down` already down.
        sdn.fail_link(down).unwrap();
        let held: Vec<Allocation> = (0..8)
            .filter_map(|_| admit_one(&mut algo, &mut sdn))
            .collect();
        assert_eq!(algo.oracle_builds(), 1, "allocations must keep the oracle");
        let held = held.first().expect("fixture admits nothing").clone();

        sdn.fail_link(other).unwrap();
        admit_one(&mut algo, &mut sdn);
        sdn.fail_server(server).unwrap();
        admit_one(&mut algo, &mut sdn);
        assert_eq!(algo.oracle_builds(), 1, "failures must keep the oracle");
        // A server's liveness never prices a link, and `other` was up when
        // the oracle was built at weights no higher than today's.
        sdn.recover_server(server).unwrap();
        admit_one(&mut algo, &mut sdn);
        sdn.recover_link(other).unwrap();
        admit_one(&mut algo, &mut sdn);
        assert_eq!(algo.oracle_builds(), 1);

        // Each of these lifts a link above what the current oracle was
        // built at: exactly one rebuild, and the new oracle is kept.
        let mut builds = 1;
        let mut expect_one_rebuild = |what: &str, algo: &mut OnlineCp, sdn: &mut Sdn| {
            admit_one(algo, sdn);
            builds += 1;
            assert_eq!(algo.oracle_builds(), builds, "{what} must rebuild once");
            admit_one(algo, sdn);
            assert_eq!(
                algo.oracle_builds(),
                builds,
                "{what}: the new oracle is kept"
            );
        };
        sdn.recover_link(down).unwrap();
        expect_one_rebuild("recover_link", &mut algo, &mut sdn);
        sdn.release(&held).unwrap();
        expect_one_rebuild("release", &mut algo, &mut sdn);
        sdn.reset();
        expect_one_rebuild("reset", &mut algo, &mut sdn);
    }

    #[test]
    fn allocation_or_rejection_reprices_only_touched_links() {
        let (mut sdn, nodes) = ring_fixture();
        let links: Vec<EdgeId> = sdn.graph().edges().map(|e| e.id).collect();
        let mut algo = OnlineCp::new();
        let weights = |algo: &OnlineCp| -> Vec<u64> {
            let net = algo.priced.as_ref().expect("priced after an admission");
            net.weight.iter().map(|w| w.to_bits()).collect()
        };
        let dirty = |algo: &OnlineCp| algo.priced.as_ref().map(|p| p.dirty.clone());

        let first = ring_request(&nodes, 1).expect("distinct endpoints");
        let tree = algo.admit(&sdn, &first).expect("a fresh ring admits");
        let committed = tree.allocation(&first);
        sdn.allocate(&committed).unwrap();
        let before = weights(&algo);

        // Same bandwidth, so `c_max` holds: exactly the committed tree's
        // links are repriced, and no other weight moves.
        let second = ring_request(&nodes, 2).expect("distinct endpoints");
        assert_eq!(second.bandwidth, first.bandwidth);
        let _ = algo.admit(&sdn, &second);
        let after = weights(&algo);
        let touched: Vec<EdgeId> = links
            .iter()
            .copied()
            .filter(|&e| committed.link_load(e) > 0.0)
            .collect();
        let moved: Vec<EdgeId> = links
            .iter()
            .copied()
            .filter(|e| before[e.index()] != after[e.index()])
            .collect();
        assert!(!touched.is_empty());
        assert_eq!(moved, touched);
        assert_eq!(dirty(&algo), Some(touched));
        assert_eq!(algo.cached_version(), Some(sdn.version()));

        // With every server full, requests are rejected; a rejection, like
        // a commit that loads only servers, reprices no link.
        let mut fill = Allocation::new(RequestId(99));
        for &v in sdn.servers() {
            fill.add_server(v, sdn.residual_computing(v).unwrap());
        }
        sdn.allocate(&fill).unwrap();
        for i in 3..6 {
            let req = ring_request(&nodes, i).expect("distinct endpoints");
            assert!(algo.admit(&sdn, &req).is_none());
            assert_eq!(dirty(&algo), Some(Vec::new()));
            assert_eq!(weights(&algo), after);
        }
    }

    /// Small ring-plus-chords network for the oracle property sweep:
    /// `n` nodes, a server on every third, chords `(u, v, unit cost)`.
    fn arb_net(n: usize, chords: &[(usize, usize, u32)]) -> Sdn {
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    bld.add_server(1_000.0, 1.0)
                } else {
                    bld.add_switch()
                }
            })
            .collect();
        for i in 0..n {
            let cost = 1.0 + (i % 4) as f64;
            bld.add_link(nodes[i], nodes[(i + 1) % n], 1_000.0, cost)
                .unwrap();
        }
        for &(u, v, c) in chords {
            if u % n != v % n {
                bld.add_link(nodes[u % n], nodes[v % n], 1_000.0, f64::from(c))
                    .unwrap();
            }
        }
        bld.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The oracle is kept exactly as `OnlineCp` keeps it — through
        /// any mix of allocations and link or server failures, and through
        /// releases and recoveries until the reuse rule calls for a
        /// rebuild — and never overestimates a distance in a freshly built
        /// `G_k` by more than the margin the candidate scan's prune test
        /// already allows.
        #[test]
        fn kept_oracle_stays_admissible(
            n in 6usize..16,
            chords in proptest::collection::vec((0usize..16, 0usize..16, 1u32..6), 0..12),
            steps in proptest::collection::vec((0u8..6, 0usize..64, 1u32..900), 1..16),
            preload in proptest::collection::vec((0usize..64, 1u32..900), 0..8),
            down in 0usize..64,
            linear in proptest::prelude::any::<bool>(),
        ) {
            let mut sdn = arb_net(n, &chords);
            let mode = if linear { CostMode::Linear } else { CostMode::Exponential };
            let m = sdn.link_count();
            // A load on a run of links, like a path's.
            let path_load = |id: u64, idx: usize, amount: u32| {
                let mut alloc = Allocation::new(RequestId(id));
                for j in 0..4 {
                    alloc.add_link(EdgeId::new((idx + j) % m), f64::from(amount));
                }
                alloc
            };
            // Build the oracle on a loaded network with a link down, so
            // later releases and recoveries can undercut its weights.
            let mut held: Vec<Allocation> = Vec::new();
            for (i, &(idx, amount)) in preload.iter().enumerate() {
                let alloc = path_load(1_000 + i as u64, idx, amount);
                if sdn.allocate(&alloc).is_ok() {
                    held.push(alloc);
                }
            }
            sdn.fail_link(EdgeId::new(down % m)).unwrap();
            let mut net = PricedNetwork::new(&sdn, mode);
            net.refresh(&sdn, 1.0);
            let mut slot = OracleSlot::build(&sdn, &mut net, 3);
            for (i, &(kind, idx, amount)) in steps.iter().enumerate() {
                let e = EdgeId::new(idx % m);
                let weights_only_rise = kind < 4;
                match kind {
                    0 | 1 => {
                        let alloc = path_load(i as u64, idx, amount);
                        // An allocation that no longer fits is refused
                        // and leaves the ledger untouched.
                        if sdn.allocate(&alloc).is_ok() {
                            held.push(alloc);
                        }
                    }
                    2 => drop(sdn.fail_link(e).unwrap()),
                    3 => drop(sdn.fail_server(sdn.servers()[idx % sdn.servers().len()]).unwrap()),
                    4 if !held.is_empty() => sdn.release(&held.remove(idx % held.len())).unwrap(),
                    _ => drop(sdn.recover_link(e).unwrap()),
                }
                // The check over the links the refresh saw move must
                // agree with a full scan of the network.
                net.refresh(&sdn, 1.0);
                let kept = slot.admissible_after(&net);
                proptest::prop_assert_eq!(kept, slot.admissible_on(&sdn), "step {}", i);
                if weights_only_rise {
                    proptest::prop_assert!(kept, "step {i} broke the reuse rule");
                } else if !kept {
                    slot = OracleSlot::build(&sdn, &mut net, 3);
                }
                for b in [1.0, 150.0, 600.0] {
                    let gk = build_admission_graph(&sdn, b, mode);
                    for u in gk.graph().nodes() {
                        let spt = netgraph::dijkstra(gk.graph(), u);
                        for v in gk.graph().nodes() {
                            let Some(d) = spt.distance(v) else { continue };
                            let lb = slot.oracle.lower_bound(u, v);
                            proptest::prop_assert!(
                                lb <= d * (1.0 + sdn::PRUNE_GUARD_REL) + sdn::PRUNE_GUARD_ABS,
                                "step {i}, b = {b}: lb({u},{v}) = {lb} exceeds d = {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One priced network kept across random allocations, releases,
        /// link and server failures, recoveries and resets, refreshed at
        /// random bandwidths (some above every residual, some between the
        /// residuals of the costliest links, so `c_max` flips), filters to
        /// exactly the `G_k` a fresh build gives: the same arcs per node in
        /// the same order, and bit-equal weights.
        #[test]
        fn priced_network_matches_rebuilt_gk(
            n in 6usize..16,
            chords in proptest::collection::vec((0usize..16, 0usize..16, 1u32..9), 0..12),
            steps in proptest::collection::vec(
                (0u8..8, 0usize..64, 1u32..1000, 0usize..6),
                1..24,
            ),
            linear in proptest::prelude::any::<bool>(),
        ) {
            let mut sdn = arb_net(n, &chords);
            let mode = if linear { CostMode::Linear } else { CostMode::Exponential };
            let m = sdn.link_count();
            let mut net: Option<PricedNetwork> = None;
            let mut held: Vec<Allocation> = Vec::new();
            for (i, &(kind, idx, amount, bi)) in steps.iter().enumerate() {
                let e = EdgeId::new(idx % m);
                match kind {
                    0..=2 => {
                        let mut alloc = Allocation::new(RequestId(i as u64));
                        for j in 0..3 {
                            alloc.add_link(EdgeId::new((idx + j * 5) % m), f64::from(amount));
                        }
                        if sdn.allocate(&alloc).is_ok() {
                            held.push(alloc);
                        }
                    }
                    3 => drop(sdn.fail_link(e).unwrap()),
                    4 => drop(sdn.fail_server(sdn.servers()[idx % sdn.servers().len()]).unwrap()),
                    5 if !held.is_empty() => sdn.release(&held.remove(idx % held.len())).unwrap(),
                    6 => drop(sdn.recover_link(e).unwrap()),
                    _ => {
                        sdn.reset();
                        held.clear();
                    }
                }
                let b = [1.0, 250.0, 500.0, 999.0, 1000.0, 1500.0][bi];
                let (table, _) = PricedNetwork::refreshed(&mut net, &sdn, b, mode);
                let reference = build_admission_graph(&sdn, b, mode);
                proptest::prop_assert_eq!(table.is_empty(), reference.graph().edge_count() == 0);
                proptest::prop_assert_eq!(table.version, sdn.version());
                for v in sdn.graph().nodes() {
                    let got: Vec<(NodeId, EdgeId, u64)> = table
                        .arcs
                        .arcs(v)
                        .map(|(head, id, w)| (head, id, w.to_bits()))
                        .collect();
                    let want: Vec<(NodeId, EdgeId, u64)> = reference
                        .graph()
                        .neighbors(v)
                        .iter()
                        .map(|nb| {
                            let w = reference.graph().edge(nb.edge).weight;
                            (nb.node, reference.parent_edge(nb.edge), w.to_bits())
                        })
                        .collect();
                    proptest::prop_assert_eq!(got, want, "step {}, b = {}, node {}", i, b, v);
                }
                for er in reference.graph().edges() {
                    let parent = reference.parent_edge(er.id);
                    proptest::prop_assert_eq!(
                        table.weight[parent.index()].to_bits(),
                        er.weight.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn name_reflects_mode() {
        use crate::OnlineAlgorithm;
        assert_eq!(OnlineCp::new().name(), "Online_CP");
        assert_eq!(
            OnlineCp::with_mode(CostMode::Linear).name(),
            "Online_CP(linear)"
        );
        assert_eq!(OnlineCp::new().mode(), CostMode::Exponential);
    }
}
