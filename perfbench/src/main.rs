//! End-to-end and per-stage benchmark of the PACOR flow.
//!
//! ```text
//! pacor-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--design-seed <n>]
//! pacor-perfbench --workload <name> --record <designs>
//! ```
//!
//! One closed-loop client routes the workload's recorded designs in an
//! order drawn from `--seed`, whole cycles at a time, until `--seconds`
//! have passed. Every operation is checked: `verify_layout` must find no
//! violation and the outcome must equal the recorded one. The last line
//! of standard output is the result object; the line before it carries
//! provenance and the per-route quality rows. `--trace 1` interleaves a
//! stage-by-stage traced copy of every operation and reports per-stage
//! metrics instead. `--design-seed` restricts the run to one recorded
//! design; `--record` prints the golden rows for the first `<designs>`
//! verify-clean design seeds.

mod golden;
mod trace;
mod workload;

use golden::HELD_OUT_SEED;
use pacor::{verify_layout, PacorFlow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{run_traced, StageTimes};
use workload::{Outcome, Route, Workload};

const USAGE: &str =
    "usage: pacor-perfbench --workload <escape_recovery|lm_congested|paper_table2|smoke> \
--seed <n> --seconds <s> --trace <0|1> [--design-seed <n>]\n       \
pacor-perfbench --workload <name> --record <designs>";

/// Times the set-up is repeated in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Counters the traced run reports, summed over its operations.
const COUNTERS: [&str; 13] = [
    "astar.expansions",
    "astar.queries",
    "negotiate.rounds",
    "negotiate.ripups",
    "lm.demoted",
    "lm.reconstructed",
    "mst.splits",
    "escape.rounds",
    "escape.declustered",
    "escape.ripped",
    "escape.delta_fallback",
    "detour.segments",
    "dme.candidates",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    design_seed: Option<u64>,
    record: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    let (mut design_seed, mut record) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: invalid value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--design-seed" => design_seed = Some(value.parse().map_err(|_| bad())?),
            "--record" => record = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        design_seed,
        record,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(designs) = args.record {
        record(args.workload, designs);
        return;
    }
    let design_seeds = match args.design_seed {
        Some(d) => args
            .workload
            .recorded_seeds()
            .into_iter()
            .filter(|&s| s == d)
            .collect(),
        None => args.workload.catalog(),
    };
    if design_seeds.is_empty() {
        eprintln!("error: no recorded designs for this workload and design seed");
        std::process::exit(2);
    }

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut failures = Vec::new();
    let mut items = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        items = setup(args.workload, &design_seeds, &mut failures);
        setup_times.push(t.elapsed().as_secs_f64());
    }

    let mut run = Run::new(args.workload, &items, args.trace);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let start = Instant::now();
    while run.cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for i in permutation(&mut rng, items.len()) {
            run.operation(i);
        }
        run.cycles += 1;
    }
    failures.append(&mut run.failures);
    for f in &failures {
        eprintln!("FAILED: {f}");
    }

    let metrics = if args.trace {
        run.layer_metrics()
    } else {
        run.end_to_end_metrics(median(&setup_times), peak_rss_mb())
    };
    let detail = obj(vec![
        ("provenance", provenance(&args, &design_seeds, &run, setups)),
        ("op_ms", quartiles_value(&run.all_op_ms())),
        ("rows", run.rows()),
    ]);
    println!("{}", json(&detail));
    let attempted = run.attempted + setups;
    let result = obj(vec![
        ("correct", Value::Bool(failures.is_empty())),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failures.len().min(attempted) as i64)),
        ("metrics", metric_values(&metrics)),
    ]);
    println!("{}", json(&result));
}

/// One operation's routes: one design for most workloads, the whole
/// suite of a design seed for `paper_table2`.
struct Item {
    design_seed: u64,
    routes: Vec<Route>,
}

/// Synthesizes and validates every design, then runs one warm-up
/// operation on the first.
fn setup(workload: Workload, design_seeds: &[u64], failures: &mut Vec<String>) -> Vec<Item> {
    let items: Vec<Item> = design_seeds
        .iter()
        .map(|&design_seed| Item {
            design_seed,
            routes: workload.routes(design_seed),
        })
        .collect();
    for item in &items {
        for r in &item.routes {
            if let Err(e) = r.problem.validate() {
                failures.push(format!("{} seed {}: {e}", r.name, item.design_seed));
            }
        }
    }
    if let Err(e) = route_item(workload, &items[0]) {
        failures.push(e);
    }
    items
}

/// What one untraced route yields.
struct Routed {
    outcome: Outcome,
    cluster_lengths: Vec<u64>,
    wall: Duration,
}

/// Routes every route of `item` with `PacorFlow::run_detailed`, checking
/// each against `verify_layout` and the recorded outcome.
fn route_item(workload: Workload, item: &Item) -> Result<Vec<Routed>, String> {
    item.routes
        .iter()
        .map(|r| {
            let (routed, violations) = route_once(r)?;
            let what = format!("{} seed {}", r.name, item.design_seed);
            if violations > 0 {
                return Err(format!(
                    "{what}: verify_layout found {violations} violations"
                ));
            }
            match workload.expected(item.design_seed, &r.name) {
                Some(e) if e == routed.outcome => Ok(routed),
                Some(e) => Err(format!("{what}: got {:?}, recorded {e:?}", routed.outcome)),
                None => Err(format!("{what}: no recorded outcome")),
            }
        })
        .collect()
}

/// Runs one route and counts its layout violations.
fn route_once(r: &Route) -> Result<(Routed, usize), String> {
    let flow = PacorFlow::new(r.config);
    let t = Instant::now();
    let (report, layout) = flow
        .run_detailed(&r.problem)
        .map_err(|e| format!("{}: {e}", r.name))?;
    let wall = t.elapsed();
    let violations = verify_layout(&r.problem, &layout).len();
    let routed = Routed {
        outcome: Outcome::of(&report),
        cluster_lengths: report.clusters.iter().map(|c| c.total_length).collect(),
        wall,
    };
    Ok((routed, violations))
}

/// Prints golden rows for the first `designs` verify-clean design seeds
/// (42, then 1, 2, 3, …) and for the held-out seed, and reports the seeds
/// skipped on stderr.
fn record(workload: Workload, designs: usize) {
    let catalog = std::iter::once(42)
        .chain((1..).filter(|&s| s != 42 && s != HELD_OUT_SEED))
        .filter_map(|design_seed| record_design(workload, design_seed))
        .take(designs);
    for rows in catalog.chain(record_design(workload, HELD_OUT_SEED)) {
        println!("{rows}");
    }
}

/// The golden rows of one design seed, or `None` when a route fails or
/// its layout has violations.
fn record_design(workload: Workload, design_seed: u64) -> Option<String> {
    let mut rows = Vec::new();
    for r in workload.routes(design_seed) {
        let routed = match route_once(&r) {
            Ok((routed, 0)) => routed,
            Ok((_, violations)) => {
                eprintln!(
                    "skip seed {design_seed}: {} has {violations} violations",
                    r.name
                );
                return None;
            }
            Err(e) => {
                eprintln!("skip seed {design_seed}: {e}");
                return None;
            }
        };
        let o = routed.outcome;
        rows.push(format!(
            "    g({:?}, {design_seed}, {:?}, {}, {}, {}, {}),",
            workload.name(),
            r.name,
            o.valves_routed,
            o.valves_total,
            o.matched,
            o.total_length
        ));
    }
    Some(rows.join("\n"))
}

/// Accumulates one run's measurements.
struct Run<'a> {
    workload: Workload,
    items: &'a [Item],
    trace: bool,
    cycles: usize,
    attempted: usize,
    failures: Vec<String>,
    /// Per item: wall-clock of each successful operation, in ms.
    op_ms: Vec<Vec<f64>>,
    /// Per item: the route outcomes of its last successful operation.
    outcomes: Vec<Vec<Outcome>>,
    valves_routed: usize,
    routed_secs: f64,
    layers: Layers,
}

/// Sums over the traced run's operations.
#[derive(Default)]
struct Layers {
    ops: u64,
    untraced: Duration,
    traced: Duration,
    stages: StageTimes,
    counters: BTreeMap<&'static str, u64>,
    lm_in: u64,
    escape_multi_in: u64,
    detoured: u64,
    detour_matched: u64,
}

impl<'a> Run<'a> {
    fn new(workload: Workload, items: &'a [Item], trace: bool) -> Self {
        Self {
            workload,
            items,
            trace,
            cycles: 0,
            attempted: 0,
            failures: Vec::new(),
            op_ms: vec![Vec::new(); items.len()],
            outcomes: vec![Vec::new(); items.len()],
            valves_routed: 0,
            routed_secs: 0.0,
            layers: Layers::default(),
        }
    }

    /// One untraced operation on item `i`, followed by its traced copy
    /// in a traced run.
    fn operation(&mut self, i: usize) {
        let items = self.items;
        let item = &items[i];
        self.attempted += 1;
        let routed = match route_item(self.workload, item) {
            Ok(routed) => routed,
            Err(e) => return self.failures.push(e),
        };
        let wall: Duration = routed.iter().map(|r| r.wall).sum();
        self.op_ms[i].push(wall.as_secs_f64() * 1e3);
        self.valves_routed += routed
            .iter()
            .map(|r| r.outcome.valves_routed)
            .sum::<usize>();
        self.routed_secs += wall.as_secs_f64();
        self.outcomes[i] = routed.iter().map(|r| r.outcome).collect();
        if self.trace {
            self.attempted += 1;
            if let Err(e) = self.traced_operation(item, &routed) {
                self.failures.push(e);
            }
        }
    }

    fn traced_operation(&mut self, item: &Item, untraced: &[Routed]) -> Result<(), String> {
        let layers = &mut self.layers;
        for (r, plain) in item.routes.iter().zip(untraced) {
            let traced = run_traced(r).map_err(|e| format!("{} traced: {e}", r.name))?;
            if traced.outcome != plain.outcome || traced.cluster_lengths != plain.cluster_lengths {
                return Err(format!(
                    "{} seed {}: traced {:?} differs from the flow's {:?}",
                    r.name, item.design_seed, traced.outcome, plain.outcome
                ));
            }
            layers.untraced += plain.wall;
            layers.traced += traced.wall;
            layers.stages.add(&traced.stages);
            for name in COUNTERS {
                let value = match traced.counters.histograms().find(|(n, _)| *n == name) {
                    Some((_, h)) => h.sum(),
                    None => traced.counters.counter(name),
                };
                *layers.counters.entry(name).or_default() += value;
            }
            layers.lm_in += traced.lm_in;
            layers.escape_multi_in += traced.escape_multi_in;
            layers.detoured += traced.detoured;
            layers.detour_matched += traced.detour_matched;
        }
        layers.ops += 1;
        Ok(())
    }

    fn all_op_ms(&self) -> Vec<f64> {
        self.op_ms.iter().flatten().copied().collect()
    }

    fn end_to_end_metrics(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        // Each item's median operation time, averaged over the catalog:
        // every run routes the same designs, so the mix is fixed.
        let medians: Vec<f64> = self
            .op_ms
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .collect();
        let route_ms = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
        let outcomes = self.outcomes.iter().flatten();
        let (mut routed, mut total, mut matched, mut length) = (0, 0, 0, 0);
        for o in outcomes {
            routed += o.valves_routed;
            total += o.valves_total;
            matched += o.matched;
            length += o.total_length;
        }
        vec![
            ("route_ms_p50", route_ms, "ms"),
            (
                "valves_per_s",
                self.valves_routed as f64 / self.routed_secs.max(f64::MIN_POSITIVE),
                "valves/s",
            ),
            ("completion", ratio(routed as u64, total as u64), "fraction"),
            ("matched_clusters", matched as f64, "count"),
            ("total_length", length as f64, "grid_units"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let ops = l.ops.max(1) as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / ops;
        let share = |d: Duration| d.as_secs_f64() / l.traced.as_secs_f64().max(f64::MIN_POSITIVE);
        let c = |name: &str| l.counters.get(name).copied().unwrap_or(0);
        let per_op = |name: &str| c(name) as f64 / ops;
        let unattributed = l.untraced.as_secs_f64() - l.stages.total().as_secs_f64();
        let overhead = (l.traced.as_secs_f64() / l.untraced.as_secs_f64().max(f64::MIN_POSITIVE)
            - 1.0)
            * 100.0;
        vec![
            ("clustering.ms", ms(l.stages.clustering), "ms"),
            ("lm_routing.ms", ms(l.stages.lm_routing), "ms"),
            ("lm_routing.share", share(l.stages.lm_routing), "fraction"),
            ("mst_routing.ms", ms(l.stages.mst_routing), "ms"),
            ("escape.ms", ms(l.stages.escape), "ms"),
            ("escape.share", share(l.stages.escape), "fraction"),
            ("detour.ms", ms(l.stages.detour), "ms"),
            ("unattributed.ms", unattributed * 1e3 / ops, "ms"),
            ("trace.overhead_pct", overhead, "%"),
            ("astar.expansions", per_op("astar.expansions"), "count"),
            (
                "astar.expansions_per_query",
                ratio(c("astar.expansions"), c("astar.queries")),
                "count/query",
            ),
            ("negotiate.rounds", per_op("negotiate.rounds"), "count"),
            ("negotiate.ripups", per_op("negotiate.ripups"), "count"),
            (
                "negotiate.ripups_per_round",
                ratio(c("negotiate.ripups"), c("negotiate.rounds")),
                "count/round",
            ),
            ("dme.candidates", per_op("dme.candidates"), "count"),
            ("lm.demoted", per_op("lm.demoted"), "count"),
            (
                "lm.demoted_ratio",
                ratio(c("lm.demoted"), l.lm_in),
                "fraction",
            ),
            ("lm.reconstructed", per_op("lm.reconstructed"), "count"),
            ("mst.splits", per_op("mst.splits"), "count"),
            ("escape.rounds", per_op("escape.rounds"), "count"),
            ("escape.declustered", per_op("escape.declustered"), "count"),
            (
                "escape.declustered_ratio",
                ratio(c("escape.declustered"), l.escape_multi_in),
                "fraction",
            ),
            ("escape.ripped", per_op("escape.ripped"), "count"),
            (
                "escape.delta_fallback",
                per_op("escape.delta_fallback"),
                "count",
            ),
            ("detour.segments", per_op("detour.segments"), "count"),
            (
                "detour.matched_ratio",
                ratio(l.detour_matched, l.detoured),
                "fraction",
            ),
        ]
    }

    /// The quality row of every route, from the last operation per item.
    fn rows(&self) -> Value {
        let mut rows = Vec::new();
        for (item, outcomes) in self.items.iter().zip(&self.outcomes) {
            for (r, o) in item.routes.iter().zip(outcomes) {
                rows.push(obj(vec![
                    ("design_seed", Value::Int(item.design_seed as i64)),
                    ("route", Value::Str(r.name.clone())),
                    ("valves_routed", Value::Int(o.valves_routed as i64)),
                    ("valves_total", Value::Int(o.valves_total as i64)),
                    ("matched_clusters", Value::Int(o.matched as i64)),
                    ("total_length", Value::Int(o.total_length as i64)),
                ]));
            }
        }
        Value::Array(rows)
    }
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

fn metric_values(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = obj(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.into())),
                ]);
                (name.to_string(), value)
            })
            .collect(),
    )
}

fn provenance(args: &Args, design_seeds: &[u64], run: &Run, setups: usize) -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("host_cpus", Value::Int(cpus as i64)),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_commit", Value::Str(env!("PERFBENCH_COMMIT").into())),
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", Value::Int(args.seed as i64)),
        (
            "design_seeds",
            Value::Array(design_seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
        ),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Float(args.seconds)),
        ("setups", Value::Int(setups as i64)),
        ("cycles", Value::Int(run.cycles as i64)),
        ("ops", Value::Int(run.attempted as i64)),
        ("runs", Value::Int(1)),
    ])
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("metric values are finite")
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn quartiles_value(values: &[f64]) -> Value {
    let [q1, q2, q3] = quartiles(values);
    obj(vec![
        ("q1", Value::Float(q1)),
        ("median", Value::Float(q2)),
        ("q3", Value::Float(q3)),
        ("samples", Value::Int(values.len() as i64)),
    ])
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A uniformly shuffled `0..n` (Fisher–Yates).
fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}
