//! Optimality certificate for escape outcomes (test support).
//!
//! [`certify`] rebuilds the explicit node-split network of the escape
//! formulation (module docs of `escape.rs`) from the solver's inputs,
//! loads an [`EscapeOutcome`] onto it as one unit of flow per source,
//! and checks the min-cost-flow optimality condition: the residual
//! network has no negative-cost cycle. Every source sends its unit —
//! along its route, or over its overflow arc when unrouted — so the
//! loaded flow has the fixed value `sources.len()`, and no negative
//! cycle means it is a cheapest flow of that value. β dominates every
//! route, so that is the most sources routed, then the least channel
//! length plus tap tiers. The check accepts *any* optimal outcome; it
//! shares no search code with the solver.

use crate::escape::{costs, EscapeOutcome, EscapeSource};
use pacor_grid::{ObsMap, Point};
use std::collections::HashMap;

/// A unit-capacity arc of the explicit network.
struct Arc {
    from: usize,
    to: usize,
    cost: i64,
    flow: bool,
}

/// The explicit network: parallel arcs share a key, and a direct-pin
/// arc is told apart from its source's other sink arcs by its cell.
#[derive(Default)]
struct Network {
    arcs: Vec<Arc>,
    by_key: HashMap<(usize, usize, usize), Vec<usize>>,
}

/// The `via` key of every arc but a direct-pin arc.
const PLAIN: usize = usize::MAX;

impl Network {
    fn add(&mut self, from: usize, to: usize, via: usize, cost: i64) {
        self.by_key
            .entry((from, to, via))
            .or_default()
            .push(self.arcs.len());
        self.arcs.push(Arc {
            from,
            to,
            cost,
            flow: false,
        });
    }

    /// Sends one unit over the cheapest free `(from, to, via)` arc.
    fn push(&mut self, from: usize, to: usize, via: usize) -> Result<(), String> {
        let arcs = &self.arcs;
        let free = self
            .by_key
            .get(&(from, to, via))
            .into_iter()
            .flatten()
            .copied()
            .filter(|&a| !arcs[a].flow)
            .min_by_key(|&a| arcs[a].cost)
            .ok_or_else(|| format!("no free arc {from} -> {to}"))?;
        self.arcs[free].flow = true;
        Ok(())
    }

    /// Bellman–Ford over the residual network from a virtual root with a
    /// zero-cost arc to every node: a pass that still relaxes after
    /// `n_nodes` passes proves a negative-cost cycle.
    fn has_negative_cycle(&self, n_nodes: usize) -> bool {
        let mut dist = vec![0i64; n_nodes];
        for _ in 0..n_nodes {
            let mut relaxed = false;
            for a in &self.arcs {
                let (u, v, c) = if a.flow {
                    (a.to, a.from, -a.cost)
                } else {
                    (a.from, a.to, a.cost)
                };
                if dist[u] + c < dist[v] {
                    dist[v] = dist[u] + c;
                    relaxed = true;
                }
            }
            if !relaxed {
                return false;
            }
        }
        true
    }
}

/// Checks that `out` is a feasible, optimal escape outcome for
/// `(obs, sources, pins)`; the error names the first violation.
pub(crate) fn certify(
    obs: &ObsMap,
    sources: &[EscapeSource],
    pins: &[Point],
    out: &EscapeOutcome,
) -> Result<(), String> {
    let (w, h) = (obs.width() as i32, obs.height() as i32);
    let n_cells = (w * h) as usize;
    let in_bounds = |p: Point| p.x >= 0 && p.y >= 0 && p.x < w && p.y < h;
    let cell = |p: Point| (p.y * w + p.x) as usize;
    let (in_node, out_node) = (|c: usize| 2 * c, |c: usize| 2 * c + 1);
    let src_node = |i: usize| 2 * n_cells + i;
    let super_source = 2 * n_cells + sources.len();
    let sink = super_source + 1;

    // Transit cells: unblocked, and interior or a pin (constraint (8)).
    let mut pin_mask = vec![false; n_cells];
    for &p in pins.iter().filter(|&&p| in_bounds(p)) {
        pin_mask[cell(p)] = true;
    }
    let boundary = |p: Point| p.x == 0 || p.y == 0 || p.x == w - 1 || p.y == h - 1;
    let transit =
        |p: Point| in_bounds(p) && !obs.is_blocked(p) && (!boundary(p) || pin_mask[cell(p)]);
    let usable_pin = |p: Point| in_bounds(p) && pin_mask[cell(p)] && !obs.is_blocked(p);

    let mut net = Network::default();
    for y in 0..h {
        for x in 0..w {
            let p = Point::new(x, y);
            if !transit(p) {
                continue;
            }
            net.add(in_node(cell(p)), out_node(cell(p)), PLAIN, 0);
            for q in p.neighbors4().into_iter().filter(|&q| transit(q)) {
                net.add(out_node(cell(p)), in_node(cell(q)), PLAIN, 1);
            }
        }
    }
    for &p in pins.iter().filter(|&&p| usable_pin(p)) {
        net.add(out_node(cell(p)), sink, PLAIN, 0);
    }
    let (tier, beta) = costs(n_cells, sources);
    for (i, src) in sources.iter().enumerate() {
        net.add(super_source, src_node(i), PLAIN, 0);
        for (k, &c) in src.cells.iter().enumerate() {
            if !in_bounds(c) {
                continue;
            }
            let tap = src.tap_cost(k) * tier;
            if usable_pin(c) {
                net.add(src_node(i), sink, cell(c), tap);
                continue;
            }
            net.add(src_node(i), out_node(cell(c)), PLAIN, tap);
            // A non-transit exit (a routed path cell) gains movement
            // arcs out of it, once per listing.
            if !transit(c) {
                for q in c.neighbors4().into_iter().filter(|&q| transit(q)) {
                    net.add(out_node(cell(c)), in_node(cell(q)), PLAIN, 1);
                }
            }
        }
        net.add(src_node(i), sink, PLAIN, beta);
    }

    if out.routes.len() != sources.len() {
        return Err(format!(
            "{} routes for {} sources",
            out.routes.len(),
            sources.len()
        ));
    }
    let (mut routed, mut total_length) = (0usize, 0u64);
    for (i, route) in out.routes.iter().enumerate() {
        let fail = |e: String| format!("source {i}: {e}");
        net.push(super_source, src_node(i), PLAIN).map_err(fail)?;
        let Some((path, pin)) = route else {
            net.push(src_node(i), sink, PLAIN).map_err(fail)?;
            continue;
        };
        let exit = path.source();
        if path.target() != *pin
            || !sources[i].cells.contains(&exit)
            || !path.cells().iter().all(|&c| in_bounds(c))
        {
            return Err(fail(format!(
                "route {exit} -> {} to pin {pin}",
                path.target()
            )));
        }
        if path.is_empty() {
            net.push(src_node(i), sink, cell(exit)).map_err(fail)?;
        } else {
            net.push(src_node(i), out_node(cell(exit)), PLAIN)
                .map_err(fail)?;
            for step in path.cells().windows(2) {
                let (a, b) = (cell(step[0]), cell(step[1]));
                net.push(out_node(a), in_node(b), PLAIN).map_err(fail)?;
                net.push(in_node(b), out_node(b), PLAIN).map_err(fail)?;
            }
            net.push(out_node(cell(*pin)), sink, PLAIN).map_err(fail)?;
        }
        routed += 1;
        total_length += path.len();
    }
    if (routed, total_length) != (out.routed, out.total_length) {
        return Err(format!(
            "reports {} routed / length {}, routes hold {routed} / {total_length}",
            out.routed, out.total_length
        ));
    }
    if net.has_negative_cycle(sink + 1) {
        return Err("residual network has a negative-cost cycle".into());
    }
    Ok(())
}
