//! Minimum-cost flow, used to solve the Leiserson–Saxe min-register
//! retiming LP exactly.
//!
//! The retiming LP
//!
//! ```text
//!   minimize   Σ_v c_v · r(v)
//!   subject to r(u) − r(v) ≤ w(e)   for every edge e = (u → v)
//! ```
//!
//! is the dual of a minimum-cost transshipment: find a flow `f ≥ 0` with
//! node imbalance `inflow(v) − outflow(v) = c_v` minimizing `Σ f(e)·w(e)`.
//! The optimal lags are recovered from the node potentials of the optimal
//! flow (see [`MinCostFlow::valid_potentials`]).
//!
//! # Algorithm: primal–dual with blocking flows
//!
//! [`MinCostFlow::solve`] attaches a super source `s` and sink `t` and
//! alternates two steps until every supply is routed:
//!
//! 1. **Dual step.** One Dijkstra from `s` over the reduced costs
//!    `cost(u,v) + π(u) − π(v)` (non-negative by invariant) gives the
//!    distances `d`; the potentials become `π(v) += min(d(v), d(t))`. After
//!    the update every residual arc still has a non-negative reduced cost,
//!    and the shortest `s → t` paths are exactly the `s → t` paths of the
//!    *admissible* subgraph: residual arcs of reduced cost zero.
//! 2. **Primal step.** A Dinic-style maximum flow through the admissible
//!    subgraph: BFS levels from `s`, then a blocking flow along
//!    level-increasing admissible arcs, repeated until `t` is no longer
//!    reachable. Augmenting along zero-reduced-cost arcs only creates reverse
//!    arcs of reduced cost zero, so the dual invariant survives.
//!
//! Each dual step raises `d(t)`, the cost of the cheapest remaining path, so
//! the number of Dijkstra runs is the number of distinct shortest-path
//! lengths rather than the number of augmenting paths. Retiming graphs have
//! 0/1 register weights, which keeps that count small. The augmenting search
//! is iterative (an explicit arc stack with per-node current-arc pointers),
//! so path length is bounded by memory, not by the thread's stack.

/// A directed edge handle returned by [`MinCostFlow::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// Error returned when the supplies cannot be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleFlowError;

impl std::fmt::Display for InfeasibleFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow supplies cannot be routed")
    }
}

impl std::error::Error for InfeasibleFlowError {}

/// Work counters of the last [`MinCostFlow::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Dijkstra runs (dual steps), one per distinct shortest-path length.
    pub phases: u64,
    /// Augmenting paths pushed by the blocking flows.
    pub augments: u64,
}

/// A minimum-cost flow network with non-negative edge costs.
///
/// # Examples
///
/// ```
/// use diam_transform::flow::MinCostFlow;
///
/// let mut net = MinCostFlow::new(3);
/// let cheap = net.add_edge(0, 1, 10, 1);
/// let _expensive = net.add_edge(0, 1, 10, 5);
/// net.add_edge(1, 2, 10, 0);
/// let cost = net.solve(&[4, 0, -4])?;
/// assert_eq!(cost, 4);             // all flow takes the cheap arc
/// assert_eq!(net.flow(cheap), 4);
/// assert_eq!(net.stats().phases, 1);
/// # Ok::<(), diam_transform::flow::InfeasibleFlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    num_nodes: usize,
    /// Arcs in pairs: `2k` forward, `2k+1` backward (residual).
    arcs: Vec<Arc>,
    adj: Vec<Vec<usize>>,
    potentials: Vec<i64>,
    stats: FlowStats,
}

impl MinCostFlow {
    /// Creates a network with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> MinCostFlow {
        MinCostFlow {
            num_nodes,
            arcs: Vec::new(),
            adj: vec![Vec::new(); num_nodes],
            potentials: vec![0; num_nodes],
            stats: FlowStats::default(),
        }
    }

    /// Adds an edge `u → v` with the given capacity and cost.
    ///
    /// # Panics
    ///
    /// Panics if the cost is negative or a node index is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> EdgeId {
        assert!(cost >= 0, "negative edge cost");
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "node out of range"
        );
        let id = self.arcs.len();
        self.adj[u].push(id);
        self.arcs.push(Arc { to: v, cap, cost });
        self.adj[v].push(id + 1);
        self.arcs.push(Arc {
            to: u,
            cap: 0,
            cost: -cost,
        });
        EdgeId(id)
    }

    /// The flow currently on `e` (meaningful after [`solve`](Self::solve)).
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.arcs[e.0 + 1].cap
    }

    /// Dijkstra phases and augmenting paths of the last
    /// [`solve`](Self::solve) call.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Routes the given supplies (`supplies[v] > 0` = source of that many
    /// units, `< 0` = sink) at minimum cost. Returns the total cost.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleFlowError`] if the supplies do not balance or
    /// cannot be routed through the network.
    ///
    /// # Panics
    ///
    /// Panics if `supplies.len()` differs from the node count.
    pub fn solve(&mut self, supplies: &[i64]) -> Result<i64, InfeasibleFlowError> {
        assert_eq!(supplies.len(), self.num_nodes, "supply vector width");
        self.stats = FlowStats::default();
        if supplies.iter().sum::<i64>() != 0 {
            return Err(InfeasibleFlowError);
        }
        // Attach a super source/sink.
        let s = self.num_nodes;
        let t = self.num_nodes + 1;
        self.adj.push(Vec::new());
        self.adj.push(Vec::new());
        self.potentials = vec![0; self.num_nodes + 2];
        let mut need = 0i64;
        let old_nodes = self.num_nodes;
        self.num_nodes += 2;
        for (v, &b) in supplies.iter().enumerate() {
            if b > 0 {
                self.add_edge(s, v, b, 0);
                need += b;
            } else if b < 0 {
                self.add_edge(v, t, -b, 0);
            }
        }

        let mut total_cost = 0i64;
        let mut routed = 0i64;
        let mut level = vec![usize::MAX; self.num_nodes];
        let mut current = vec![0usize; self.num_nodes];
        while routed < need {
            // Dual step: Dijkstra over reduced costs from s.
            self.stats.phases += 1;
            let dist = self.dijkstra(s);
            let dt = dist[t];
            if dt == i64::MAX {
                // Restore node count before failing.
                self.detach_super(old_nodes);
                return Err(InfeasibleFlowError);
            }
            // Update potentials; nodes the search did not reach, or reached
            // beyond the sink distance, are clamped to it, which preserves
            // the non-negative reduced-cost invariant.
            for (pot, &d) in self.potentials.iter_mut().zip(&dist) {
                *pot += d.min(dt);
            }
            // Primal step: maximum flow through the admissible subgraph.
            while self.admissible_levels(s, t, &mut level) {
                current.fill(0);
                let (pushed, cost) = self.blocking_flow(s, t, &level, &mut current);
                routed += pushed;
                total_cost += cost;
            }
        }
        self.detach_super(old_nodes);
        Ok(total_cost)
    }

    fn detach_super(&mut self, old_nodes: usize) {
        // Leave the super arcs in place (they are saturated or harmless) but
        // restore the public node count and drop super potentials.
        self.num_nodes = old_nodes;
        self.potentials.truncate(old_nodes);
    }

    fn reduced_cost(&self, u: usize, a: usize) -> i64 {
        let arc = &self.arcs[a];
        arc.cost + self.potentials[u] - self.potentials[arc.to]
    }

    /// An arc the primal step may push along: residual capacity left and
    /// reduced cost zero.
    fn admissible(&self, u: usize, a: usize) -> bool {
        self.arcs[a].cap > 0 && self.reduced_cost(u, a) == 0
    }

    /// Shortest distances from `s` by reduced cost (`i64::MAX` = unreached).
    fn dijkstra(&self, s: usize) -> Vec<i64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![i64::MAX; self.num_nodes];
        let mut done = vec![false; self.num_nodes];
        let mut heap = BinaryHeap::new();
        dist[s] = 0;
        heap.push(Reverse((0i64, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if done[v] {
                continue;
            }
            done[v] = true;
            for &a in &self.adj[v] {
                let arc = &self.arcs[a];
                if arc.cap <= 0 {
                    continue;
                }
                let rc = self.reduced_cost(v, a);
                debug_assert!(rc >= 0, "negative reduced cost");
                let nd = d + rc;
                if nd < dist[arc.to] {
                    dist[arc.to] = nd;
                    heap.push(Reverse((nd, arc.to)));
                }
            }
        }
        dist
    }

    /// BFS levels from `s` over admissible arcs; returns whether `t` is
    /// reachable.
    fn admissible_levels(&self, s: usize, t: usize, level: &mut [usize]) -> bool {
        level.fill(usize::MAX);
        level[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            if v == t {
                // Nodes at or beyond t's level cannot lie on a shortest
                // level path to t.
                break;
            }
            for &a in &self.adj[v] {
                let to = self.arcs[a].to;
                if level[to] == usize::MAX && self.admissible(v, a) {
                    level[to] = level[v] + 1;
                    queue.push_back(to);
                }
            }
        }
        level[t] != usize::MAX
    }

    /// Pushes a blocking flow from `s` to `t` along level-increasing
    /// admissible arcs. Returns `(units pushed, their cost)`.
    ///
    /// Depth-first with an explicit stack of the arcs on the current path;
    /// `current[v]` is the next arc of `v` still worth trying, so every arc
    /// is abandoned at most once per call.
    fn blocking_flow(
        &mut self,
        s: usize,
        t: usize,
        level: &[usize],
        current: &mut [usize],
    ) -> (i64, i64) {
        let mut pushed = 0i64;
        let mut cost = 0i64;
        let mut path: Vec<usize> = Vec::new();
        let mut v = s;
        loop {
            if v == t {
                let bottleneck = path
                    .iter()
                    .map(|&a| self.arcs[a].cap)
                    .min()
                    .expect("t != s");
                let mut retreat = path.len();
                for (k, &a) in path.iter().enumerate() {
                    self.arcs[a].cap -= bottleneck;
                    self.arcs[a ^ 1].cap += bottleneck;
                    cost += bottleneck * self.arcs[a].cost;
                    if self.arcs[a].cap == 0 && retreat == path.len() {
                        retreat = k;
                    }
                }
                pushed += bottleneck;
                self.stats.augments += 1;
                // Resume from the tail of the first saturated arc.
                v = self.arcs[path[retreat] ^ 1].to;
                path.truncate(retreat);
                continue;
            }
            let mut advanced = false;
            while current[v] < self.adj[v].len() {
                let a = self.adj[v][current[v]];
                let to = self.arcs[a].to;
                if level[to] == level[v] + 1 && self.admissible(v, a) {
                    path.push(a);
                    v = to;
                    advanced = true;
                    break;
                }
                current[v] += 1;
            }
            if !advanced {
                // Dead end: no flow can pass v any more in this level graph.
                let Some(a) = path.pop() else {
                    break;
                };
                v = self.arcs[a ^ 1].to;
                current[v] += 1;
            }
        }
        (pushed, cost)
    }

    /// Node potentials `π` of the optimal flow, valid after a successful
    /// [`solve`](Self::solve): for every residual arc `u → v` with capacity,
    /// `cost(u,v) + π(u) − π(v) ≥ 0`. For the retiming LP the optimal lags
    /// are `r(v) = −π(v)`.
    ///
    /// The result is the *greatest* `π ≤ 0` satisfying those residual
    /// constraints, computed with Bellman–Ford from a virtual root, so nodes
    /// the Dijkstra passes never reached still receive valid values.
    ///
    /// **It does not depend on which optimal flow `solve` found.** By
    /// complementary slackness, the potentials satisfying the residual
    /// constraints of an optimal flow are exactly the optimal duals, and any
    /// optimal dual satisfies complementary slackness with *every* optimal
    /// flow. So the constraint set, and with it its greatest element below
    /// zero, is the same for all optimal flows: any exact solver yields the
    /// same potentials, and retiming the same lags.
    pub fn valid_potentials(&self) -> Vec<i64> {
        // Queue-based Bellman–Ford (SPFA) over the residual graph; all nodes
        // start at 0 (a virtual root). The optimal flow has no negative
        // residual cycles, so this terminates.
        let mut pot = vec![0i64; self.num_nodes];
        let mut in_queue = vec![true; self.num_nodes];
        let mut queue: std::collections::VecDeque<usize> = (0..self.num_nodes).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &a in &self.adj[u] {
                let arc = &self.arcs[a];
                if arc.cap <= 0 || arc.to >= self.num_nodes {
                    continue;
                }
                if pot[u] + arc.cost < pot[arc.to] {
                    pot[arc.to] = pot[u] + arc.cost;
                    if !in_queue[arc.to] {
                        in_queue[arc.to] = true;
                        queue.push_back(arc.to);
                    }
                }
            }
        }
        pot
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror time-steps here
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_path_cost() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 5, 2);
        net.add_edge(1, 2, 5, 3);
        let cost = net.solve(&[3, 0, -3]).unwrap();
        assert_eq!(cost, 3 * 5);
    }

    #[test]
    fn chooses_cheaper_parallel_edge_first() {
        let mut net = MinCostFlow::new(2);
        let cheap = net.add_edge(0, 1, 2, 1);
        let dear = net.add_edge(0, 1, 10, 4);
        let cost = net.solve(&[5, -5]).unwrap();
        assert_eq!(cost, 2 + 3 * 4);
        assert_eq!(net.flow(cheap), 2);
        assert_eq!(net.flow(dear), 3);
    }

    #[test]
    fn unbalanced_supplies_are_infeasible() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 1, 0);
        assert!(net.solve(&[2, -1]).is_err());
    }

    #[test]
    fn disconnected_demand_is_infeasible() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 10, 0);
        assert!(net.solve(&[1, 0, -1]).is_err());
    }

    #[test]
    fn zero_supplies_cost_zero() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 10, 7);
        assert_eq!(net.solve(&[0, 0]).unwrap(), 0);
    }

    #[test]
    fn potentials_satisfy_reduced_cost_optimality() {
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 4, 1);
        net.add_edge(0, 2, 2, 2);
        net.add_edge(1, 3, 3, 1);
        net.add_edge(2, 3, 3, 1);
        net.add_edge(1, 2, 2, 0);
        net.solve(&[4, 0, 0, -4]).unwrap();
        let pot = net.valid_potentials();
        for u in 0..4 {
            for &a in &net.adj[u] {
                let arc = &net.arcs[a];
                if arc.cap > 0 && arc.to < 4 {
                    assert!(
                        arc.cost + pot[u] - pot[arc.to] >= 0,
                        "arc {u}->{} violates optimality",
                        arc.to
                    );
                }
            }
        }
    }

    /// Cross-check the LP interpretation: minimize Σ c_v·r(v) subject to
    /// difference constraints, solved via flow potentials, against brute
    /// force over a small lag box.
    #[test]
    fn retiming_lp_matches_brute_force() {
        let mut state = 0xabcdu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let nv = 3 + (next() % 3) as usize; // 3..5 vertices
            let ne = nv + (next() % 4) as usize;
            // Random edges with weights 0..2; ensure the constraint graph
            // admits r = 0 (weights non-negative) so it is always feasible.
            let edges: Vec<(usize, usize, i64)> = (0..ne)
                .map(|_| {
                    (
                        (next() % nv as u64) as usize,
                        (next() % nv as u64) as usize,
                        (next() % 3) as i64,
                    )
                })
                .collect();
            // Node objective coefficients = indeg - outdeg (the retiming
            // register-count objective).
            let mut c = vec![0i64; nv];
            for &(u, v, _) in &edges {
                c[v] += 1;
                c[u] -= 1;
            }
            // Flow formulation: the LP stationarity condition reads
            // inflow(v) − outflow(v) = c_v, while `solve` takes supplies as
            // outflow − inflow, hence the negation.
            let mut net = MinCostFlow::new(nv);
            for &(u, v, w) in &edges {
                net.add_edge(u, v, 1_000, w);
            }
            let supplies: Vec<i64> = c.iter().map(|&x| -x).collect();
            if net.solve(&supplies).is_err() {
                continue; // degenerate instance (e.g. isolated supply)
            }
            let pot = net.valid_potentials();
            let lags: Vec<i64> = pot.iter().map(|&p| -p).collect();
            // Feasibility: r(u) - r(v) <= w(e).
            for &(u, v, w) in &edges {
                assert!(lags[u] - lags[v] <= w, "round {round}: infeasible lags");
            }
            let obj: i64 = (0..nv).map(|v| c[v] * lags[v]).sum();
            // Brute force over the box [-3, 3]^nv.
            let mut best = i64::MAX;
            let mut idx = vec![-3i64; nv];
            'outer: loop {
                let feasible = edges.iter().all(|&(u, v, w)| idx[u] - idx[v] <= w);
                if feasible {
                    let o: i64 = (0..nv).map(|v| c[v] * idx[v]).sum();
                    best = best.min(o);
                }
                for k in 0..nv {
                    idx[k] += 1;
                    if idx[k] <= 3 {
                        continue 'outer;
                    }
                    idx[k] = -3;
                }
                break;
            }
            assert_eq!(obj, best, "round {round}: objective mismatch");
        }
    }

    /// An independent oracle: the single-path successive-shortest-path
    /// loop this module used before the blocking-flow rewrite (one Dijkstra
    /// per augmenting path, pushing only that path's bottleneck), plus a
    /// plain round-robin Bellman–Ford for the potentials. It shares no code
    /// with the engine.
    mod ssp_oracle {
        #[derive(Debug, Clone)]
        struct Arc {
            to: usize,
            cap: i64,
            cost: i64,
        }

        pub struct SspOracle {
            num_nodes: usize,
            arcs: Vec<Arc>,
            adj: Vec<Vec<usize>>,
            potentials: Vec<i64>,
        }

        impl SspOracle {
            pub fn new(num_nodes: usize) -> SspOracle {
                SspOracle {
                    num_nodes,
                    arcs: Vec::new(),
                    adj: vec![Vec::new(); num_nodes],
                    potentials: vec![0; num_nodes],
                }
            }

            pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) {
                let id = self.arcs.len();
                self.adj[u].push(id);
                self.arcs.push(Arc { to: v, cap, cost });
                self.adj[v].push(id + 1);
                self.arcs.push(Arc {
                    to: u,
                    cap: 0,
                    cost: -cost,
                });
            }

            pub fn solve(&mut self, supplies: &[i64]) -> Option<i64> {
                if supplies.iter().sum::<i64>() != 0 {
                    return None;
                }
                let s = self.num_nodes;
                let t = self.num_nodes + 1;
                self.adj.push(Vec::new());
                self.adj.push(Vec::new());
                self.potentials = vec![0; self.num_nodes + 2];
                let mut need = 0i64;
                let old_nodes = self.num_nodes;
                self.num_nodes += 2;
                for (v, &b) in supplies.iter().enumerate() {
                    if b > 0 {
                        self.add_edge(s, v, b, 0);
                        need += b;
                    } else if b < 0 {
                        self.add_edge(v, t, -b, 0);
                    }
                }
                let mut total_cost = 0i64;
                let mut routed = 0i64;
                while routed < need {
                    let dist = self.dijkstra(s);
                    if dist[t].0 == i64::MAX {
                        self.num_nodes = old_nodes;
                        return None;
                    }
                    let dt = dist[t].0;
                    for (pot, d) in self.potentials.iter_mut().zip(&dist) {
                        *pot += d.0.min(dt);
                    }
                    let mut bottleneck = i64::MAX;
                    let mut v = t;
                    while v != s {
                        let a = dist[v].1;
                        bottleneck = bottleneck.min(self.arcs[a].cap);
                        v = self.arcs[a ^ 1].to;
                    }
                    let mut v = t;
                    while v != s {
                        let a = dist[v].1;
                        self.arcs[a].cap -= bottleneck;
                        self.arcs[a ^ 1].cap += bottleneck;
                        total_cost += bottleneck * self.arcs[a].cost;
                        v = self.arcs[a ^ 1].to;
                    }
                    routed += bottleneck;
                }
                self.num_nodes = old_nodes;
                Some(total_cost)
            }

            fn dijkstra(&self, s: usize) -> Vec<(i64, usize)> {
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;
                let mut dist = vec![(i64::MAX, usize::MAX); self.num_nodes];
                let mut done = vec![false; self.num_nodes];
                let mut heap = BinaryHeap::new();
                dist[s].0 = 0;
                heap.push(Reverse((0i64, s)));
                while let Some(Reverse((d, v))) = heap.pop() {
                    if done[v] {
                        continue;
                    }
                    done[v] = true;
                    for &a in &self.adj[v] {
                        let arc = &self.arcs[a];
                        if arc.cap <= 0 {
                            continue;
                        }
                        let rc = arc.cost + self.potentials[v] - self.potentials[arc.to];
                        let nd = d + rc;
                        if nd < dist[arc.to].0 {
                            dist[arc.to] = (nd, a);
                            heap.push(Reverse((nd, arc.to)));
                        }
                    }
                }
                dist
            }

            /// Greatest `π ≤ 0` with `cost + π(u) − π(v) ≥ 0` on every
            /// residual arc between original nodes (Bellman–Ford).
            pub fn potentials(&self) -> Vec<i64> {
                let mut pot = vec![0i64; self.num_nodes];
                loop {
                    let mut changed = false;
                    for u in 0..self.num_nodes {
                        for &a in &self.adj[u] {
                            let arc = &self.arcs[a];
                            if arc.cap > 0
                                && arc.to < self.num_nodes
                                && pot[u] + arc.cost < pot[arc.to]
                            {
                                pot[arc.to] = pot[u] + arc.cost;
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        return pot;
                    }
                }
            }
        }
    }

    /// A random network: `(nodes, edges (u, v, cap, cost), supplies)`.
    /// Parallel arcs and self-loops arise naturally at these sizes; a
    /// zero-cost cycle through random nodes is planted on purpose, and half
    /// the cases use the retiming objective (supplies `outdeg − indeg`,
    /// effectively unbounded capacities) instead of random supplies and
    /// small capacities.
    type Network = (usize, Vec<(usize, usize, i64, i64)>, Vec<i64>);

    fn random_network(seed: u64) -> Network {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let nv = 2 + rng.below(11) as usize;
        let retiming = rng.below(2) == 0;
        let ne = nv + rng.below(3 * nv as u64) as usize;
        let cap = |rng: &mut proptest::test_runner::TestRng| {
            if retiming {
                1_000
            } else {
                1 + rng.below(4) as i64
            }
        };
        let mut edges = Vec::new();
        for _ in 0..ne {
            let u = rng.below(nv as u64) as usize;
            let v = rng.below(nv as u64) as usize;
            let c = cap(&mut rng);
            edges.push((u, v, c, rng.below(3) as i64));
        }
        let cycle_len = 2 + rng.below(nv as u64 - 1) as usize;
        let cycle: Vec<usize> = (0..cycle_len)
            .map(|_| rng.below(nv as u64) as usize)
            .collect();
        for k in 0..cycle_len {
            let c = cap(&mut rng);
            edges.push((cycle[k], cycle[(k + 1) % cycle_len], c, 0));
        }
        let mut supplies = vec![0i64; nv];
        if retiming {
            for &(u, v, _, _) in &edges {
                supplies[u] += 1;
                supplies[v] -= 1;
            }
        } else {
            for _ in 0..1 + rng.below(4) {
                let units = 1 + rng.below(3) as i64;
                supplies[rng.below(nv as u64) as usize] += units;
                supplies[rng.below(nv as u64) as usize] -= units;
            }
        }
        (nv, edges, supplies)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The blocking-flow engine and the single-path oracle agree on
        /// feasibility, optimal cost and the potentials (hence the lags).
        #[test]
        fn blocking_flow_matches_single_path_oracle(seed in any::<u64>()) {
            let (nv, edges, supplies) = random_network(seed);
            let mut net = MinCostFlow::new(nv);
            let mut oracle = ssp_oracle::SspOracle::new(nv);
            for &(u, v, cap, cost) in &edges {
                net.add_edge(u, v, cap, cost);
                oracle.add_edge(u, v, cap, cost);
            }
            let got = net.solve(&supplies).ok();
            let want = oracle.solve(&supplies);
            prop_assert_eq!(got, want, "cost differs on {:?}", (nv, &edges, &supplies));
            if got.is_some() {
                prop_assert_eq!(
                    net.valid_potentials(),
                    oracle.potentials(),
                    "potentials differ on {:?}",
                    (nv, &edges, &supplies)
                );
                let stats = net.stats();
                prop_assert!(stats.phases <= stats.augments.max(1));
            }
        }
    }

    /// Paths of equal length are all pushed by one Dijkstra phase.
    #[test]
    fn equal_length_paths_share_one_phase() {
        let k = 50;
        let mut net = MinCostFlow::new(k + 2);
        for m in 0..k {
            net.add_edge(0, 2 + m, 1, 1);
            net.add_edge(2 + m, 1, 1, 0);
        }
        let mut supplies = vec![0i64; k + 2];
        supplies[0] = k as i64;
        supplies[1] = -(k as i64);
        assert_eq!(net.solve(&supplies).unwrap(), k as i64);
        assert_eq!(
            net.stats(),
            FlowStats {
                phases: 1,
                augments: k as u64
            }
        );
    }

    /// The augmenting search keeps its path on the heap: a path network far
    /// longer than a small thread stack could recurse through still solves.
    #[test]
    fn long_path_solves_on_a_small_stack() {
        let nodes = 200_000;
        let solved = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut net = MinCostFlow::new(nodes);
                let edges: Vec<EdgeId> = (0..nodes - 1)
                    .map(|v| net.add_edge(v, v + 1, 3, 1))
                    .collect();
                let mut supplies = vec![0i64; nodes];
                supplies[0] = 2;
                supplies[nodes - 1] = -2;
                let cost = net.solve(&supplies).unwrap();
                (cost, net.flow(edges[nodes / 2]), net.stats())
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            solved,
            (
                2 * (nodes as i64 - 1),
                2,
                FlowStats {
                    phases: 1,
                    augments: 1
                }
            )
        );
    }
}
