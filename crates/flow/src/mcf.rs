//! Integral minimum-cost maximum-flow via successive shortest paths.

use crate::queue::{assert_potential_drift, LevelQueue, NodeState};

/// Identifier of a directed edge returned by [`MinCostFlow::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: i64,
    cost: i64,
    flow: i64,
}

/// One CSR arc's hot fields packed into 16 bytes, so the Dijkstra inner
/// loop streams a single array instead of gathering from four parallel
/// ones. Costs and capacities are stored as `i32` — the freeze asserts
/// they fit (escape networks use small integer costs; the `i64` public
/// API is kept for arena bookkeeping).
#[derive(Debug, Clone, Copy)]
struct PackedArc {
    to: u32,
    twin: u32,
    cost: i32,
    res: i32,
}

/// Result of a [`MinCostFlow::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowResult {
    /// Units of flow actually routed (≤ the requested amount).
    pub flow: i64,
    /// Total cost of the routed flow.
    pub cost: i64,
}

/// Minimum-cost flow solver (successive shortest paths with Dijkstra and
/// Johnson potentials; Bellman–Ford bootstrap when negative costs exist).
///
/// Capacities and costs are `i64`; all flows are integral. The solver
/// sends flow one augmenting path at a time in order of increasing
/// reduced cost, which yields a min-cost flow for *every* intermediate
/// flow value — exactly the behaviour needed to "route as many as
/// possible, cheapest first".
///
/// Edges accumulate in a flat arena; adjacency is a CSR layout frozen
/// on every [`MinCostFlow::solve`], so the augmentation loop walks one
/// contiguous array instead of chasing per-node `Vec`s. Every solve
/// starts from the flow the arena holds and from zero potentials.
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    nodes: usize,
    edges: Vec<Edge>,
    has_negative: bool,
    /// CSR row offsets (`nodes + 1` entries once frozen).
    head: Vec<usize>,
    /// CSR arc ids, grouped by tail node: arc `a` leaves `edges[a ^ 1].to`.
    arcs: Vec<u32>,
    /// CSR-position-ordered packed copies of the arc fields
    /// ([`PackedArc`]) — residual capacity replaces `cap`/`flow`, and
    /// each arc carries the CSR position of its twin for the
    /// augmentation walk. Flows are written back into `edges` after
    /// every solve, keeping [`MinCostFlow::edge_flow`] and the next
    /// solve's freeze exact.
    csr: Vec<PackedArc>,
    /// Per-node Dijkstra distance and Johnson potential. `dist` entries
    /// are dirty exactly for the nodes listed in `touched`; every
    /// augmentation resets only those.
    node: Vec<NodeState>,
    prev_pos: Vec<u32>,
    touched: Vec<u32>,
    queue: LevelQueue,
}

impl MinCostFlow {
    /// Creates a network with `n` nodes (`0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            nodes: n,
            edges: Vec::new(),
            has_negative: false,
            head: Vec::new(),
            arcs: Vec::new(),
            csr: Vec::new(),
            node: Vec::new(),
            prev_pos: Vec::new(),
            touched: Vec::new(),
            queue: LevelQueue::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds a directed edge `u → v` with capacity `cap` and per-unit cost
    /// `cost`. Returns an [`EdgeId`] usable with [`MinCostFlow::edge_flow`].
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range or `cap < 0`.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> EdgeId {
        assert!(u < self.nodes && v < self.nodes, "endpoint out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        if cost < 0 {
            self.has_negative = true;
        }
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            cost,
            flow: 0,
        });
        self.edges.push(Edge {
            to: u,
            cap: 0,
            cost: -cost,
            flow: 0,
        });
        EdgeId(id)
    }

    /// Current flow on a forward edge.
    pub fn edge_flow(&self, id: EdgeId) -> i64 {
        self.edges[id.0].flow
    }

    /// Builds the CSR adjacency from the arena. Counting sort over arc
    /// tails: arc `a` (forward or residual) leaves the head of its twin,
    /// `edges[a ^ 1].to`.
    fn freeze_csr(&mut self) {
        self.head.clear();
        self.head.resize(self.nodes + 1, 0);
        for a in 0..self.edges.len() {
            self.head[self.edges[a ^ 1].to + 1] += 1;
        }
        for v in 0..self.nodes {
            self.head[v + 1] += self.head[v];
        }
        let mut cursor = self.head.clone();
        self.arcs.clear();
        self.arcs.resize(self.edges.len(), 0);
        // Arc id → CSR position, for wiring each arc to its twin.
        let mut pos_of = vec![0u32; self.edges.len()];
        for (a, pos) in pos_of.iter_mut().enumerate() {
            let u = self.edges[a ^ 1].to;
            self.arcs[cursor[u]] = a as u32;
            *pos = cursor[u] as u32;
            cursor[u] += 1;
        }
        self.csr.clear();
        self.csr.reserve(self.edges.len());
        for &a in &self.arcs {
            let e = &self.edges[a as usize];
            let cap = i32::try_from(e.cap).expect("edge capacity exceeds CSR i32 range");
            let cost = i32::try_from(e.cost).expect("edge cost exceeds CSR i32 range");
            self.csr.push(PackedArc {
                to: e.to as u32,
                twin: pos_of[a as usize ^ 1],
                cost,
                res: cap - e.flow as i32,
            });
        }
    }

    /// Sends up to `max_flow` units from `s` to `t` at minimum cost.
    /// Augmentation stops early when `t` becomes unreachable, so the
    /// returned flow may be smaller than requested.
    ///
    /// # Panics
    ///
    /// Panics when `s` or `t` is out of range.
    pub fn solve(&mut self, s: usize, t: usize, max_flow: i64) -> FlowResult {
        self.solve_until(s, t, max_flow, i64::MAX)
    }

    /// [`MinCostFlow::solve`], but stops augmenting once the *true* cost
    /// of the next shortest augmenting path reaches `bail`. SSP path
    /// costs are non-decreasing, so every skipped augmentation would
    /// also have cost ≥ `bail`; the flow routed before the bail-out is
    /// still min-cost for its value. `bail = i64::MAX` never triggers.
    pub fn solve_until(&mut self, s: usize, t: usize, max_flow: i64, bail: i64) -> FlowResult {
        assert!(s < self.nodes && t < self.nodes, "terminal out of range");
        self.freeze_csr();
        let n = self.nodes;
        // Offset-form Johnson potentials: after each augmentation the
        // textbook update is `potential[v] += dist[v].min(dt)` for all v.
        // Potentials only ever appear in differences, so the uniform
        // `+dt` part cancels and we store `potential[v] - Σdt` instead —
        // touched nodes get `+= dist[v].min(dt) - dt`, untouched nodes
        // (`dist[v] = MAX`, i.e. `+= dt` in textbook form) stay put. That
        // turns two O(n) sweeps per augmentation (reset + update) into
        // O(touched) work.
        self.node.clear();
        self.node.resize(n, NodeState::CLEAN);
        self.prev_pos.resize(n, u32::MAX);
        self.touched.clear();

        if self.has_negative {
            // Bellman–Ford over residual edges with remaining capacity.
            let mut dist = vec![i64::MAX; n];
            dist[s] = 0;
            for _ in 0..n {
                let mut changed = false;
                for u in 0..n {
                    if dist[u] == i64::MAX {
                        continue;
                    }
                    for pos in self.head[u]..self.head[u + 1] {
                        let arc = self.csr[pos];
                        let to = arc.to as usize;
                        if arc.res > 0 && dist[u] + (arc.cost as i64) < dist[to] {
                            dist[to] = dist[u] + arc.cost as i64;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for (v, &dv) in dist.iter().enumerate().take(n) {
                if dv != i64::MAX {
                    self.node[v].pot =
                        i32::try_from(dv).expect("bootstrap potential exceeds i32 range");
                }
            }
        }

        let result = self.augment(s, t, max_flow, bail);
        // Publish the residuals back to the arena so `edge_flow` and the
        // next CSR freeze observe the flow this solve routed.
        for pos in 0..self.arcs.len() {
            let a = self.arcs[pos] as usize;
            self.edges[a].flow = self.edges[a].cap - self.csr[pos].res as i64;
        }
        result
    }

    /// The SSP augmentation loop: Dijkstra on reduced costs under the
    /// current potentials, augmenting until `want` units are routed, `t`
    /// becomes unreachable, or the next path's true cost reaches `bail`.
    fn augment(&mut self, s: usize, t: usize, want: i64, bail: i64) -> FlowResult {
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        while total_flow < want {
            // Dijkstra on reduced costs, stopping as soon as `t` is
            // settled: unsettled nodes have true distance ≥ dist[t], so
            // clamping their potential update to dist[t] preserves
            // non-negative reduced costs (standard SSP early exit).
            for &v in &self.touched {
                self.node[v as usize].dist = i32::MAX;
            }
            self.touched.clear();
            self.queue.reset(self.nodes);
            self.node[s].dist = 0;
            self.touched.push(s as u32);
            self.queue.push(s, 0);
            'search: while let Some((u, d)) = {
                let node = &self.node;
                self.queue.pop(|v| node[v].dist, node[t].dist)
            } {
                let pu = self.node[u].pot;
                for pos in self.head[u]..self.head[u + 1] {
                    let arc = self.csr[pos];
                    if arc.res <= 0 {
                        continue;
                    }
                    let to = arc.to as usize;
                    let st = self.node[to];
                    let nd = d + arc.cost + pu - st.pot;
                    debug_assert!(nd >= d, "negative reduced cost");
                    if nd < st.dist {
                        if st.dist == i32::MAX {
                            self.touched.push(to as u32);
                        }
                        self.node[to].dist = nd;
                        self.prev_pos[to] = pos as u32;
                        if nd == d && to == t {
                            // Tight relaxation into the sink: dist[t]
                            // equals the current level, so no later
                            // settle can improve it or (by strict
                            // improvement) reassign prev[t], and the
                            // remaining plateau settles update every
                            // potential by zero — settle t here.
                            break 'search;
                        }
                        self.queue.push(to, nd);
                    }
                }
            }
            // The queue also stops at the sink's level: t is settled
            // whenever it was reached at all.
            let dt = self.node[t].dist;
            if dt == i32::MAX {
                break; // t unreachable: maximal flow attained
            }
            // True path cost = dist[t] + potential[t] - potential[s]
            // (telescoping reduced costs); the Σdt offset cancels in the
            // difference, so offset-form potentials give the exact value.
            if bail != i64::MAX
                && (dt as i64) + (self.node[t].pot as i64) - (self.node[s].pot as i64) >= bail
            {
                break;
            }
            for &v in &self.touched {
                let st = &mut self.node[v as usize];
                if st.dist < dt {
                    st.pot += st.dist - dt;
                }
            }
            assert_potential_drift(self.node[s].pot);
            // Bottleneck along the augmenting path.
            let mut push = want - total_flow;
            let mut v = t;
            while v != s {
                let pos = self.prev_pos[v] as usize;
                push = push.min(self.csr[pos].res as i64);
                v = self.csr[self.csr[pos].twin as usize].to as usize;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let pos = self.prev_pos[v] as usize;
                let twin = self.csr[pos].twin as usize;
                self.csr[pos].res -= push as i32;
                self.csr[twin].res += push as i32;
                total_cost += push * self.csr[pos].cost as i64;
                v = self.csr[twin].to as usize;
            }
            total_flow += push;
        }
        FlowResult {
            flow: total_flow,
            cost: total_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_paths() {
        let mut mcf = MinCostFlow::new(4);
        mcf.add_edge(0, 1, 1, 1);
        mcf.add_edge(0, 2, 1, 2);
        mcf.add_edge(1, 3, 1, 1);
        mcf.add_edge(2, 3, 1, 2);
        let r = mcf.solve(0, 3, 10);
        assert_eq!(r, FlowResult { flow: 2, cost: 6 });
    }

    #[test]
    fn respects_requested_flow() {
        let mut mcf = MinCostFlow::new(2);
        mcf.add_edge(0, 1, 5, 3);
        let r = mcf.solve(0, 1, 2);
        assert_eq!(r, FlowResult { flow: 2, cost: 6 });
    }

    #[test]
    fn cheapest_first() {
        // Capacity 2 wanted but only 1 requested: must take the cheap arc.
        let mut mcf = MinCostFlow::new(2);
        let cheap = mcf.add_edge(0, 1, 1, 1);
        let dear = mcf.add_edge(0, 1, 1, 100);
        let r = mcf.solve(0, 1, 1);
        assert_eq!(r.cost, 1);
        assert_eq!(mcf.edge_flow(cheap), 1);
        assert_eq!(mcf.edge_flow(dear), 0);
    }

    #[test]
    fn unreachable_sink_gives_zero() {
        let mut mcf = MinCostFlow::new(3);
        mcf.add_edge(0, 1, 1, 1);
        let r = mcf.solve(0, 2, 5);
        assert_eq!(r, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    fn rerouting_via_residual_edges() {
        // Classic case where the second augmentation must push back flow:
        //   s→a (1,1), s→b (1,4), a→b (1,0)... build so naive greedy fails.
        let (s, a, b, t) = (0, 1, 2, 3);
        let mut mcf = MinCostFlow::new(4);
        mcf.add_edge(s, a, 1, 1);
        mcf.add_edge(s, b, 1, 10);
        mcf.add_edge(a, b, 1, 1);
        mcf.add_edge(a, t, 1, 10);
        mcf.add_edge(b, t, 1, 1);
        // Best for 2 units: s→a→b→t (3) + s→b? b full... the solver must
        // route s→a→t (11) and s→b→t (11) or s→a→b→t + s→b→t with rewind.
        let r = mcf.solve(s, t, 2);
        assert_eq!(r.flow, 2);
        // Optimal = s→a→b→t (1+1+1=3) + s→b...b→t used; residual forces
        // s→b (10) + push-back on a→b + a→t (10): total 3 - 1 + 10 + 10 + 1 = 23?
        // Enumerate: routes {s→a→t, s→b→t} = 11 + 11 = 22;
        //            {s→a→b→t, s→b→t} infeasible (b→t cap 1).
        // So optimum is 22.
        assert_eq!(r.cost, 22);
    }

    #[test]
    fn negative_costs_handled() {
        let mut mcf = MinCostFlow::new(3);
        mcf.add_edge(0, 1, 1, -5);
        mcf.add_edge(1, 2, 1, 2);
        mcf.add_edge(0, 2, 1, 1);
        let r = mcf.solve(0, 2, 2);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, -3 + 1);
    }

    #[test]
    fn intermediate_flows_are_min_cost() {
        // Ask for 1 unit in a network whose cheapest s-t path costs 4.
        let mut mcf = MinCostFlow::new(5);
        mcf.add_edge(0, 1, 1, 2);
        mcf.add_edge(1, 4, 1, 2);
        mcf.add_edge(0, 2, 1, 3);
        mcf.add_edge(2, 4, 1, 3);
        mcf.add_edge(0, 3, 1, 1);
        mcf.add_edge(3, 4, 1, 9);
        let r = mcf.solve(0, 4, 1);
        assert_eq!(r, FlowResult { flow: 1, cost: 4 });
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_panics() {
        MinCostFlow::new(2).add_edge(0, 1, -1, 0);
    }

    /// Naive successive-shortest-path reference: Bellman–Ford over the
    /// residual graph each augmentation, no potentials, no CSR. Slow but
    /// obviously correct on networks without negative cycles.
    struct Reference {
        n: usize,
        // (to, cap, cost, flow); arc a's twin is a ^ 1.
        edges: Vec<(usize, i64, i64, i64)>,
    }

    impl Reference {
        fn new(n: usize) -> Self {
            Self {
                n,
                edges: Vec::new(),
            }
        }

        fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) {
            let _ = u;
            self.edges.push((v, cap, cost, 0));
            self.edges.push((u, 0, -cost, 0));
        }

        fn tail(&self, a: usize) -> usize {
            self.edges[a ^ 1].0
        }

        fn solve(&mut self, s: usize, t: usize, max_flow: i64) -> FlowResult {
            let mut total_flow = 0i64;
            let mut total_cost = 0i64;
            while total_flow < max_flow {
                let mut dist = vec![i64::MAX; self.n];
                let mut prev = vec![usize::MAX; self.n];
                dist[s] = 0;
                for _ in 0..self.n {
                    let mut changed = false;
                    for a in 0..self.edges.len() {
                        let (to, cap, cost, flow) = self.edges[a];
                        let u = self.tail(a);
                        if cap - flow > 0 && dist[u] != i64::MAX && dist[u] + cost < dist[to] {
                            dist[to] = dist[u] + cost;
                            prev[to] = a;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                if dist[t] == i64::MAX {
                    break;
                }
                let mut push = max_flow - total_flow;
                let mut v = t;
                while v != s {
                    let a = prev[v];
                    push = push.min(self.edges[a].1 - self.edges[a].3);
                    v = self.tail(a);
                }
                let mut v = t;
                while v != s {
                    let a = prev[v];
                    self.edges[a].3 += push;
                    self.edges[a ^ 1].3 -= push;
                    total_cost += push * self.edges[a].2;
                    v = self.tail(a);
                }
                total_flow += push;
            }
            FlowResult {
                flow: total_flow,
                cost: total_cost,
            }
        }
    }

    #[test]
    fn randomized_equivalence_with_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF10C);
        for case in 0..60 {
            let n = rng.gen_range(4..12usize);
            let m = rng.gen_range(n..4 * n);
            let mut mcf = MinCostFlow::new(n);
            let mut reference = Reference::new(n);
            for _ in 0..m {
                // Forward-oriented edges (u < v) keep the network acyclic,
                // so negative costs cannot form negative cycles.
                let u = rng.gen_range(0..n - 1);
                let v = rng.gen_range(u + 1..n);
                let cap = rng.gen_range(0..4i64);
                let cost = rng.gen_range(-3..10i64);
                mcf.add_edge(u, v, cap, cost);
                reference.add_edge(u, v, cap, cost);
            }
            let want = rng.gen_range(1..8i64);
            let got = mcf.solve(0, n - 1, want);
            let expect = reference.solve(0, n - 1, want);
            assert_eq!(got, expect, "case {case}: n={n} m={m} want={want}");
        }
    }

    #[test]
    fn csr_refreezes_after_growth() {
        // Solve, then add edges and solve again: the CSR must pick up
        // the new edges on top of the flow already routed.
        let mut mcf = MinCostFlow::new(3);
        mcf.add_edge(0, 1, 1, 1);
        assert_eq!(mcf.solve(0, 1, 10).flow, 1);
        let v = 2;
        mcf.add_edge(0, v, 2, 1);
        mcf.add_edge(v, 1, 2, 1);
        let r = mcf.solve(0, 1, 10);
        assert_eq!(r.flow, 2, "two more units via the new node");
        assert_eq!(r.cost, 4);
    }

    #[test]
    fn large_grid_like_network() {
        // 10x10 grid, 5 sources on the left, sink column on the right.
        let n = 10;
        let id = |x: usize, y: usize| y * n + x;
        let t = n * n;
        let s = n * n + 1;
        let mut mcf = MinCostFlow::new(n * n + 2);
        for y in 0..n {
            for x in 0..n {
                if x + 1 < n {
                    mcf.add_edge(id(x, y), id(x + 1, y), 1, 1);
                    mcf.add_edge(id(x + 1, y), id(x, y), 1, 1);
                }
                if y + 1 < n {
                    mcf.add_edge(id(x, y), id(x, y + 1), 1, 1);
                    mcf.add_edge(id(x, y + 1), id(x, y), 1, 1);
                }
            }
        }
        for k in 0..5 {
            mcf.add_edge(s, id(0, 2 * k), 1, 0);
            mcf.add_edge(id(n - 1, 2 * k), t, 1, 0);
        }
        let r = mcf.solve(s, t, 5);
        assert_eq!(r.flow, 5);
        // Straight rows: 9 steps each.
        assert_eq!(r.cost, 45);
    }
}
