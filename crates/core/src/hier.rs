//! Hierarchical global-then-detailed routing (ROADMAP item 4).
//!
//! Large valve arrays (256², 512²) overwhelm a single flat pass: every
//! negotiation round touches the whole chip, and a round routes its
//! nets one by one, so parallelism has to come from coarser units
//! (DESIGN §10). The hierarchical mode splits the problem the way
//! classical VLSI routers do:
//!
//! 1. **Global stage** — coarsen the chip into a [`GcellGrid`] of
//!    `gcell_size`-sided tiles whose edges carry boundary-crossing
//!    capacities, and plan one congestion-aware corridor per cluster
//!    from its bounding-box tile to the nearest open boundary row (the
//!    pin rows). Corridor usage is committed edge by edge, so later
//!    corridors steer around saturated tiles; the whole plan is
//!    reported through `global.*` counters/histograms.
//! 2. **Region partition** — each gcell column spans a full-height
//!    stripe of the chip. A cluster whose halo-inflated bounding box
//!    (plus any column its corridor was pushed through) fits a single
//!    stripe is assigned to it; everything else is deferred to the
//!    stitch phase. Stripes are disjoint by construction — cluster
//!    geometry, pins and obstacles never overlap across regions.
//! 3. **Region-parallel detailed routing** — every stripe runs the
//!    ordinary PACOR pipeline ([`run_stage_pipeline`]) against a
//!    region-windowed [`ObsMap`] view, fanned out over
//!    [`parallel_map_with`](crate::parallel_map_with). Results merge
//!    in canonical column order; cluster ids come from per-region
//!    id blocks sized up front. Telemetry and the flight recorder are
//!    paused for the fan-out (worker threads have neither installed,
//!    so pausing the session thread makes the inline one-thread path
//!    emit the same nothing), while counters/histograms ride the
//!    deterministic task-frame absorption of the fan-out itself —
//!    the merged result is byte-identical at any thread count.
//! 4. **Stitch + repair** — deferred clusters spanning two adjacent
//!    columns route in two *waves* of disjoint paired-column windows
//!    (even pairs, then odd pairs), each wave fanned out like the
//!    regions; wider spans finish serially on the live merged map.
//!    Then a two-round repair pass re-attempts every cluster its
//!    region could not connect: first a windowed escape over the
//!    still-unused pins, then — if failures remain — a whole-chip
//!    round that also re-enters the committed clusters near the
//!    failures (counted as `global.widened`), so the escape stage's
//!    rip machinery can attribute and move the walls that boxed them
//!    in. The usual final detour covers the newly completed clusters.

use crate::escape_stage::{escape_all, EscapeStats};
use crate::flow::run_stage_pipeline;
use crate::{detour_cluster, FlowConfig, FlowMetrics, FlowVariant, Problem, RoutedCluster};
use pacor_grid::{GcellGrid, GridLen, ObsMap, Point, Rect};
use pacor_valves::Cluster;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One cluster paired with its valve positions — the unit of work every
/// phase hands around.
type ClusterJob = (Cluster, Vec<Point>);

/// One full-height region stripe (a gcell column) with its assigned
/// clusters, the pins on its boundary, and a pre-reserved cluster-id
/// block so regions can allocate ids without coordination.
struct Region {
    rect: Rect,
    pins: Vec<Point>,
    clusters: Vec<ClusterJob>,
    id_base: u32,
    id_block: u32,
}

/// Upper bound on cluster ids a detailed run over `clusters` can
/// allocate: MST splitting consumes at most `2n` ids per `n`-valve
/// cluster (binary split tree), escape de-clustering at most `n` more
/// (each valve becomes at most one singleton); `+16` is slack.
fn id_block_of(clusters: &[ClusterJob]) -> u32 {
    clusters.iter().map(|(c, _)| 4 * c.len() as u32 + 16).sum()
}

fn add_stats(into: &mut EscapeStats, s: EscapeStats) {
    into.rounds += s.rounds;
    into.declustered += s.declustered;
    into.ripped += s.ripped;
}

/// Folds a region run's per-stage metrics into the flow totals (the
/// duration fields sum worker wall-clock; the task counts are exact
/// and thread-count-invariant because regions run single-threaded).
fn add_metrics(into: &mut FlowMetrics, m: &FlowMetrics) {
    into.lm_routing += m.lm_routing;
    into.mst_routing += m.mst_routing;
    into.escape += m.escape;
    into.detour += m.detour;
    into.lm_candidate_tasks += m.lm_candidate_tasks;
    into.lm_scoring_tasks += m.lm_scoring_tasks;
}

/// The control pins no cluster in `claimed` has escaped to.
fn unclaimed_pins<'a>(
    pins: &[Point],
    claimed: impl IntoIterator<Item = &'a RoutedCluster>,
) -> Vec<Point> {
    let used: BTreeSet<Point> = claimed
        .into_iter()
        .filter_map(|rc| rc.escape.as_ref().map(|(_, pin)| *pin))
        .collect();
    pins.iter().copied().filter(|p| !used.contains(p)).collect()
}

/// Bounding box of `positions` grown by `radius` on every side — the
/// neighbourhood a pocketed valve's widened repair may rip within.
fn inflated_bbox(positions: &[Point], radius: i32) -> Rect {
    let first = positions.first().copied().unwrap_or(Point::new(0, 0));
    let bbox = positions
        .iter()
        .skip(1)
        .fold(Rect::from_point(first), |r, p| {
            r.union(&Rect::from_point(*p))
        });
    Rect::from_corners(
        Point::new(bbox.min().x - radius, bbox.min().y - radius),
        Point::new(bbox.max().x + radius, bbox.max().y + radius),
    )
}

/// Whether any cell of the cluster's committed geometry (internal nets
/// or escape path) lies inside one of the repair windows.
fn touches_any(rc: &RoutedCluster, windows: &[Rect]) -> bool {
    let in_any = |c: Point| windows.iter().any(|w| w.contains(c));
    rc.net_cells().into_iter().any(in_any)
        || rc
            .escape
            .as_ref()
            .is_some_and(|(esc, _)| esc.cells().iter().any(|&c| in_any(c)))
}

/// Blocks a routed cluster's geometry on the shared map when merging a
/// region result back. Re-blocking cells the region already saw is a
/// no-op, so the merge is idempotent.
fn commit_geometry(obs: &mut ObsMap, rc: &RoutedCluster) {
    obs.block_all(rc.net_cells());
    if let Some((esc, _)) = &rc.escape {
        obs.block_all(esc.cells().iter().copied());
    }
}

/// Fans a batch of disjoint regions out over the worker pool, each
/// running the full detailed pipeline against its own windowed view of
/// `base_obs`. The session thread's telemetry stream and flight
/// recorder are suspended for the fan-out: worker threads have neither
/// installed, so this makes the inline (single-thread) path emit
/// exactly what the parallel path does — nothing — while
/// counters/histograms still merge deterministically through the
/// fan-out's task frames.
fn route_regions(
    base_obs: &ObsMap,
    regions: &[Region],
    threads: usize,
    config: &FlowConfig,
    delta: GridLen,
) -> Vec<(Vec<RoutedCluster>, EscapeStats, FlowMetrics)> {
    let _tp = pacor_obs::telemetry_pause();
    let _fp = pacor_obs::flight_pause();
    crate::parallel_map_with(
        threads,
        regions,
        || (),
        |(), _i, region: &Region| {
            let mut robs = base_obs.windowed(region.rect);
            let mut next = region.id_base;
            let mut m = FlowMetrics::default();
            let (routed, stats) = run_stage_pipeline(
                &mut robs,
                region.clusters.clone(),
                &region.pins,
                delta,
                config,
                &mut next,
                &mut m,
            );
            assert!(
                next - region.id_base <= region.id_block,
                "region cluster-id block overflow: {} > {}",
                next - region.id_base,
                region.id_block
            );
            (routed, stats, m)
        },
    )
}

/// Merges a fan-out batch back into the shared map and the flow-level
/// accumulators, in the deterministic item order of the batch.
fn merge_results(
    obs: &mut ObsMap,
    results: Vec<(Vec<RoutedCluster>, EscapeStats, FlowMetrics)>,
    routed_all: &mut Vec<RoutedCluster>,
    stats: &mut EscapeStats,
    timings: &mut FlowMetrics,
) {
    for (batch_routed, batch_stats, m) in results {
        for rc in &batch_routed {
            commit_geometry(obs, rc);
        }
        add_stats(stats, batch_stats);
        add_metrics(timings, &m);
        routed_all.extend(batch_routed);
    }
}

/// Stages 2–6 in hierarchical mode: global corridor planning, region
/// partition, region-parallel detailed routing, stitch, and repair.
///
/// With a single gcell column (tile ≥ chip width) the hierarchy
/// degenerates to exactly the flat pipeline — same calls, same
/// observability — which the equivalence proptests pin down.
pub(crate) fn run_hierarchical(
    obs: &mut ObsMap,
    clusters: Vec<(Cluster, Vec<Point>)>,
    problem: &Problem,
    config: &FlowConfig,
    next_cluster_id: &mut u32,
    timings: &mut FlowMetrics,
) -> (Vec<RoutedCluster>, EscapeStats) {
    let mut gc = GcellGrid::new(obs, config.gcell_size);
    if gc.cols() <= 1 {
        return run_stage_pipeline(
            obs,
            clusters,
            &problem.pins,
            problem.delta,
            config,
            next_cluster_id,
            timings,
        );
    }

    // ---- Global stage: corridors on the gcell graph -------------------
    pacor_obs::telemetry_stage_enter("global");
    let span = pacor_obs::span_with(
        "stage.global",
        &[
            ("gcells", gc.len() as u64),
            ("clusters", clusters.len() as u64),
        ],
    );
    pacor_obs::counter_add("global.gcells", gc.len() as u64);
    let halo = config.region_halo as i32;
    let mut local: Vec<Vec<ClusterJob>> =
        (0..gc.cols()).map(|_| Vec::new()).collect();
    let mut deferred: BTreeMap<(u32, u32), Vec<ClusterJob>> = BTreeMap::new();
    for (c, positions) in clusters {
        let Some(&first) = positions.first() else {
            local[0].push((c, positions));
            continue;
        };
        let bbox = positions
            .iter()
            .skip(1)
            .fold(Rect::from_point(first), |r, p| {
                r.union(&Rect::from_point(*p))
            });
        let center = Point::new(
            (bbox.min().x + bbox.max().x) / 2,
            (bbox.min().y + bbox.max().y) / 2,
        );
        let corridor = gc.route_to_boundary(gc.gcell_of(center));
        pacor_obs::counter_add("global.corridors", 1);
        pacor_obs::record("global.corridor_len", corridor.len() as u64);
        // The stripe span covers the halo-inflated bounding box plus
        // every column congestion pushed the corridor through, so the
        // detailed window can realize the planned escape.
        let mut c0 = gc.column_of(bbox.min().x - halo);
        let mut c1 = gc.column_of(bbox.max().x + halo);
        for &(cc, _) in &corridor {
            c0 = c0.min(cc);
            c1 = c1.max(cc);
        }
        if c0 == c1 {
            local[c0 as usize].push((c, positions));
        } else {
            pacor_obs::counter_add("global.deferred", 1);
            deferred.entry((c0, c1)).or_default().push((c, positions));
        }
    }
    pacor_obs::counter_add("global.overflows", gc.overflowed_edges() as u64);

    // ---- Region partition: one stripe per non-empty gcell column ------
    let mut regions: Vec<Region> = Vec::new();
    let mut base = *next_cluster_id;
    for (col, assigned) in local.into_iter().enumerate() {
        if assigned.is_empty() {
            continue;
        }
        let rect = gc.column_rect(col as u32);
        let pins: Vec<Point> = problem
            .pins
            .iter()
            .copied()
            .filter(|p| rect.contains(*p))
            .collect();
        let id_block = id_block_of(&assigned);
        regions.push(Region {
            rect,
            pins,
            clusters: assigned,
            id_base: base,
            id_block,
        });
        base += id_block;
    }
    *next_cluster_id = base;
    pacor_obs::counter_add("global.regions", regions.len() as u64);
    drop(span);
    pacor_obs::telemetry_stage_exit("global", regions.len() as u64);

    // ---- Phase A: region-parallel detailed routing --------------------
    pacor_obs::telemetry_stage_enter("regions");
    let span = pacor_obs::span_with("stage.regions", &[("regions", regions.len() as u64)]);
    let region_config = config.with_threads(1).with_escape_windowed(true);
    let threads = crate::effective_threads(config.thread_count);
    timings.threads = threads;
    let delta = problem.delta;
    let results = route_regions(obs, &regions, threads, &region_config, delta);
    let region_count = regions.len() as u64;
    drop(span);

    let mut routed_all: Vec<RoutedCluster> = Vec::new();
    let mut stats = EscapeStats::default();
    merge_results(obs, results, &mut routed_all, &mut stats, timings);
    pacor_obs::telemetry_stage_exit("regions", region_count);

    // ---- Phase B: stitch deferred (cross-region) clusters -------------
    // Deferred spans are almost always two adjacent columns (a bounding
    // box straddling one stripe border), so two parallel waves of
    // paired-column super-stripes cover them: wave 0 pairs columns
    // (0,1)(2,3)…, wave 1 pairs (1,2)(3,4)…. Windows within a wave are
    // disjoint — the wave fans out over the worker pool exactly like
    // Phase A — and the waves merge sequentially, so wave 1 sees wave
    // 0's committed geometry. Spans wider than two columns (rare) run
    // serially at the end against their own window.
    if !deferred.is_empty() {
        let total: usize = deferred.values().map(Vec::len).sum();
        let span = pacor_obs::span_with("stage.stitch", &[("clusters", total as u64)]);
        let mut waves: [BTreeMap<u32, Vec<ClusterJob>>; 2] =
            [BTreeMap::new(), BTreeMap::new()];
        let mut rest: Vec<((u32, u32), Vec<ClusterJob>)> = Vec::new();
        for ((c0, c1), group) in deferred {
            if c0 / 2 == c1 / 2 {
                waves[0].entry(c0 / 2).or_default().extend(group);
            } else if c0.div_ceil(2) == c1.div_ceil(2) {
                waves[1].entry(c0.div_ceil(2)).or_default().extend(group);
            } else {
                rest.push(((c0, c1), group));
            }
        }
        for (wave, groups) in waves.into_iter().enumerate() {
            if groups.is_empty() {
                continue;
            }
            let used: BTreeSet<Point> = routed_all
                .iter()
                .filter_map(|rc| rc.escape.as_ref().map(|(_, pin)| *pin))
                .collect();
            let mut batch: Vec<Region> = Vec::new();
            let mut base = *next_cluster_id;
            for (k, group) in groups {
                let (lo, hi) = if wave == 0 {
                    (2 * k, (2 * k + 1).min(gc.cols() - 1))
                } else {
                    (2 * k - 1, 2 * k)
                };
                let rect =
                    Rect::from_corners(gc.column_rect(lo).min(), gc.column_rect(hi).max());
                let pins: Vec<Point> = problem
                    .pins
                    .iter()
                    .copied()
                    .filter(|p| rect.contains(*p) && !used.contains(p))
                    .collect();
                let id_block = id_block_of(&group);
                batch.push(Region {
                    rect,
                    pins,
                    clusters: group,
                    id_base: base,
                    id_block,
                });
                base += id_block;
            }
            *next_cluster_id = base;
            let results = route_regions(obs, &batch, threads, &region_config, delta);
            merge_results(obs, results, &mut routed_all, &mut stats, timings);
        }
        for ((c0, c1), group) in rest {
            let used: BTreeSet<Point> = routed_all
                .iter()
                .filter_map(|rc| rc.escape.as_ref().map(|(_, pin)| *pin))
                .collect();
            let window = Rect::from_corners(gc.column_rect(c0).min(), gc.column_rect(c1).max());
            let pins: Vec<Point> = problem
                .pins
                .iter()
                .copied()
                .filter(|p| window.contains(*p) && !used.contains(p))
                .collect();
            let mut robs = obs.windowed(window);
            let mut m = FlowMetrics::default();
            let (group_routed, group_stats) = run_stage_pipeline(
                &mut robs,
                group,
                &pins,
                delta,
                &region_config,
                next_cluster_id,
                &mut m,
            );
            for rc in &group_routed {
                commit_geometry(obs, rc);
            }
            add_stats(&mut stats, group_stats);
            add_metrics(timings, &m);
            routed_all.extend(group_routed);
        }
        drop(span);
    }

    // ---- Phase C: flat repair of region-local failures ----------------
    // Round 1: clusters a windowed run could not connect get one
    // whole-chip escape attempt with the pins nobody claimed. Only
    // pending clusters enter `escape_all` — it rips every escape in its
    // input, so passing the completed ones would discard the region
    // work. Round 2 (when round 1 leaves failures): the escape stage's
    // rip-up machinery can only attribute walls to clusters *in its
    // input*, so a valve pocketed by committed neighbours is
    // unrecoverable to a pending-only call. Widen the retry set with
    // every committed cluster whose geometry touches a failure's
    // neighbourhood; their escapes become rippable and their pins
    // return to the pool.
    let (mut done, mut pending): (Vec<_>, Vec<_>) = routed_all
        .into_iter()
        .partition(|rc| rc.escape.is_some());
    if !pending.is_empty() {
        let free_pins = unclaimed_pins(&problem.pins, &done);
        pacor_obs::telemetry_stage_enter("escape");
        let stage = Instant::now();
        let span = pacor_obs::span_with("stage.repair", &[("pending", pending.len() as u64)]);
        // Round 1 skips the last-resort phase (the pending few are
        // local failures); round 2 below restores the full machinery,
        // last-resort phase included, as the completion guarantee.
        let repair = escape_all(
            obs,
            &mut pending,
            &free_pins,
            &config.with_escape_windowed(true),
            next_cluster_id,
        );
        add_stats(&mut stats, repair);

        // Pocket walls sit immediately around the failed valve; a tight
        // radius keeps the widened retry (and its re-solve) local
        // instead of degenerating into a flat whole-chip pass.
        let radius = 16;
        let windows: Vec<Rect> = pending
            .iter()
            .filter(|rc| rc.escape.is_none())
            .map(|rc| inflated_bbox(&rc.member_positions, radius))
            .collect();
        if !windows.is_empty() {
            let (near, far): (Vec<_>, Vec<_>) = done
                .into_iter()
                .partition(|rc| touches_any(rc, &windows));
            done = far;
            if !near.is_empty() {
                pacor_obs::counter_add("global.widened", near.len() as u64);
                let (fixed, still): (Vec<_>, Vec<_>) =
                    pending.into_iter().partition(|rc| rc.escape.is_some());
                let mut retry = near;
                retry.extend(still);
                let pool = unclaimed_pins(&problem.pins, done.iter().chain(fixed.iter()));
                let widened = escape_all(obs, &mut retry, &pool, config, next_cluster_id);
                add_stats(&mut stats, widened);
                pending = fixed;
                pending.extend(retry);
            }
        }
        drop(span);
        timings.escape += stage.elapsed();
        pacor_obs::telemetry_stage_exit("escape", pending.len() as u64);
        if config.variant != FlowVariant::DetourFirst {
            pacor_obs::telemetry_stage_enter("detour");
            let stage = Instant::now();
            let span = pacor_obs::span("stage.detour");
            let mut detoured = 0u64;
            for rc in pending.iter_mut() {
                if rc.cluster.is_length_matched() && rc.is_complete() {
                    detour_cluster(obs, rc, delta, config);
                    detoured += 1;
                }
            }
            drop(span);
            timings.detour += stage.elapsed();
            pacor_obs::telemetry_stage_exit("detour", detoured);
        }
    }
    done.extend(pending);
    (done, stats)
}
