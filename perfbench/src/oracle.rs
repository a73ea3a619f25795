//! The `oracle` workload: the exact branch-and-bound, called in process
//! through `onesched-exact`'s public API (the daemon does not expose it).
//!
//! Instances are 5–9-task DAGs on 3–5 processors: random layered DAGs
//! (the daemon's own generator) and forks shaped like the paper's
//! Figure 1, half on homogeneous platforms — where processor symmetry
//! multiplies the search — and half on heterogeneous ones. The pool is
//! fixed in `expect/oracle.json`: each entry was proven optimal within the
//! node limit when pinned, with its optimum and node count recorded.
//!
//! The workload is run by hand, not listed in `BENCHMARK.json`: on a
//! shared host its pure-CPU timings spread past the bounds there (see
//! `README.md`).

use crate::util::{median, ms_since, percentile, vm_hwm_mib, Rng};
use crate::Report;
use onesched_dag::TaskGraph;
use onesched_exact::bnb::{branch_and_bound, BnbResult};
use onesched_heuristics::registry::SchedulerSpec;
use onesched_platform::Platform;
use onesched_service::protocol::{DagSpec, JobSpec, PlatformSpec};
use onesched_sim::CommModel;
use onesched_testbeds::{fork, random_layered, RandomDagConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub const MODEL: CommModel = CommModel::OnePortBidir;
/// Node limit of every solve (pinned instances finish far below it).
pub const NODE_LIMIT: u64 = 2_000_000;
/// Pinned instances expand between these many nodes, so none is trivial
/// and none dominates a pass.
const NODES_MIN: u64 = 2_000;
const NODES_MAX: u64 = 120_000;
/// Candidate indices scanned when pinning.
const CANDIDATES: u64 = 1_500;
const SCHEMA: &str = "onesched-perfbench-oracle/v1";

/// One oracle instance, derived entirely from its candidate index.
pub struct Instance {
    pub index: u64,
    pub g: TaskGraph,
    pub platform: Platform,
    /// The same instance as a daemon job spec (random DAGs only; the
    /// protocol cannot express a fork with arbitrary weights).
    pub spec: Option<JobSpec>,
}

const HETERO_SPEEDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 6.0];

impl Instance {
    pub fn new(index: u64) -> Instance {
        let mut rng = Rng::new(index.wrapping_mul(0x5851_F42D_4C95_7F2D));
        let procs = 3 + rng.below(3);
        let homogeneous = (index / 2).is_multiple_of(2);
        let cycle_times: Vec<f64> = (0..procs).map(|_| *rng.pick(&HETERO_SPEEDS)).collect();
        let platform = if homogeneous {
            Platform::homogeneous(procs)
        } else {
            Platform::uniform_links(cycle_times.clone(), 1.0).expect("positive cycle times")
        };
        if index.is_multiple_of(2) {
            let (layers, max_width) = (3 + rng.below(2), 2 + rng.below(2));
            let cfg = RandomDagConfig {
                layers,
                max_width,
                edge_prob: 0.5,
                ..RandomDagConfig::default()
            };
            let g = random_layered(&cfg, index);
            let links = (0..procs)
                .flat_map(|a| {
                    (0..procs)
                        .filter(move |&b| b != a)
                        .map(move |b| vec![a as f64, b as f64, 1.0])
                })
                .collect();
            let pspec = if homogeneous {
                PlatformSpec {
                    kind: "homogeneous".into(),
                    procs: Some(procs),
                    ..PlatformSpec::paper()
                }
            } else {
                PlatformSpec::custom(cycle_times, links)
            };
            let spec = JobSpec {
                dag: DagSpec::random(layers, max_width, 0.5, index),
                platform: Some(pspec),
                scheduler: Some(SchedulerSpec::heft()),
                model: Some("one-port-bidir".into()),
                validate: true,
            };
            Instance {
                index,
                g,
                platform,
                spec: Some(spec),
            }
        } else {
            let children: Vec<(f64, f64)> = (0..4 + rng.below(4))
                .map(|_| ((1 + rng.below(3)) as f64, (1 + rng.below(3)) as f64))
                .collect();
            Instance {
                index,
                g: fork(1.0, &children),
                platform,
                spec: None,
            }
        }
    }

    pub fn solve(&self) -> BnbResult {
        branch_and_bound(&self.g, &self.platform, MODEL, NODE_LIMIT)
    }
}

/// Every concrete registry kind (the portfolio is their minimum).
fn incumbent_kinds() -> Vec<SchedulerSpec> {
    onesched_baselines::registry::catalog()
        .list()
        .into_iter()
        .filter(|k| k.kind != "portfolio")
        .map(|k| match k.kind {
            "ilha" | "routed-ilha" => SchedulerSpec {
                b: Some(4),
                ..SchedulerSpec::named(k.kind)
            },
            kind => SchedulerSpec::named(kind),
        })
        .collect()
}

/// The incumbent of every instance: the best makespan over all concrete
/// registry kinds (HEFT and ILHA included) — the upper bound an exact
/// optimum must never exceed.
pub fn incumbents(instances: &[Instance]) -> Vec<f64> {
    let kinds = incumbent_kinds();
    instances
        .iter()
        .map(|inst| {
            kinds
                .iter()
                .map(|k| {
                    let s = onesched_baselines::registry::build(k).expect("catalog kinds build");
                    s.schedule(&inst.g, &inst.platform, MODEL).makespan()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// A pinned pool entry: the proven optimum (`{:?}` text), the nodes the
/// B&B expanded when pinned, and the solve time then (microseconds; used
/// only to order the pool for the systematic draw).
pub struct Pinned {
    pub optimum: String,
    pub nodes: u64,
    pub cost_us: u64,
}

pub type Pool = BTreeMap<u64, Pinned>;

/// Load `expect/oracle.json`: candidate index → pinned entry.
pub fn load() -> Result<Pool, String> {
    let p = pin_path();
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let v: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    if v.get_field("schema").and_then(serde::Value::as_str).ok() != Some(SCHEMA) {
        return Err(format!("{}: unknown schema", p.display()));
    }
    let mut out = BTreeMap::new();
    if let Ok(serde::Value::Map(entries)) = v.get_field("entries") {
        for (k, v) in entries {
            let s = v.as_str().map_err(|e| e.0)?;
            let bad = || format!("{}: bad entry {k}", p.display());
            let mut it = s.split(' ');
            let (Some(optimum), Some(nodes), Some(cost)) = (it.next(), it.next(), it.next()) else {
                return Err(bad());
            };
            out.insert(
                k.parse().map_err(|_| bad())?,
                Pinned {
                    optimum: optimum.to_string(),
                    nodes: nodes.parse().map_err(|_| bad())?,
                    cost_us: cost.parse().map_err(|_| bad())?,
                },
            );
        }
    }
    Ok(out)
}

fn pin_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expect/oracle.json")
}

/// Solve every candidate and keep those proven optimal within the node
/// window; writes `expect/oracle.json`.
pub fn pin() -> Result<usize, String> {
    let mut kept: Vec<(u64, String)> = std::thread::scope(|scope| {
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                scope.spawn(move || {
                    (t..CANDIDATES)
                        .step_by(2)
                        .filter_map(|i| {
                            let inst = Instance::new(i);
                            if !(5..=9).contains(&inst.g.num_tasks()) {
                                return None;
                            }
                            let r = branch_and_bound(&inst.g, &inst.platform, MODEL, NODES_MAX + 1);
                            if !r.optimal || r.nodes < NODES_MIN {
                                return None;
                            }
                            let cost_us = (0..3)
                                .map(|_| {
                                    let t = Instant::now();
                                    std::hint::black_box(inst.solve());
                                    t.elapsed().as_micros() as u64
                                })
                                .min()
                                .unwrap_or(0);
                            Some((i, format!("{:?} {} {cost_us}", r.makespan, r.nodes)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("pin thread"))
            .collect()
    });
    kept.sort();
    let body: Vec<String> = kept.iter().map(|(i, s)| format!("\"{i}\":{s:?}")).collect();
    let text = format!(
        "{{\"schema\":\"{SCHEMA}\",\"node_limit\":{NODE_LIMIT},\"entries\":{{\n{}\n}}}}\n",
        body.join(",\n")
    );
    std::fs::write(pin_path(), text).map_err(|e| e.to_string())?;
    Ok(kept.len())
}

/// The run's instance list: a fixed systematic sample of the pinned pool,
/// in seeded order.
pub fn draw(seed: u64, seconds: u64) -> Result<(Vec<Instance>, Pool), String> {
    let pinned = load()?;
    // ordered by pinned solve time, so the systematic draw gives every
    // seed the same spread of search costs
    let mut ids: Vec<u64> = pinned.keys().copied().collect();
    ids.sort_by_key(|i| (pinned[i].cost_us, *i));
    let len = crate::workload::Workload::Oracle.pass_len(seconds);
    if len > ids.len() {
        return Err(format!(
            "pass of {len} instances exceeds the pool of {}",
            ids.len()
        ));
    }
    // The set itself does not depend on the seed, only its order does:
    // with 74 of 524 instances per run, seed-drawn sets alone moved the
    // p80 solve time by 17% between runs.
    let mut ids = crate::workload::systematic(&ids, len, &mut Rng::new(0));
    Rng::new(seed ^ 0x0AC1E).shuffle(&mut ids);
    Ok((ids.into_iter().map(Instance::new).collect(), pinned))
}

/// Check one solve: proven optimal, equal to the pinned optimum, a valid
/// schedule, and no worse than the heuristic incumbent.
pub fn check(inst: &Instance, r: &BnbResult, incumbent: f64, pinned: &Pool) -> Result<(), String> {
    let want = &pinned
        .get(&inst.index)
        .ok_or("instance not pinned")?
        .optimum;
    let got = format!("{:?}", r.makespan);
    if !r.optimal {
        return Err(format!("instance {}: not proven optimal", inst.index));
    }
    if &got != want {
        return Err(format!(
            "instance {}: optimum {got}, pinned {want}",
            inst.index
        ));
    }
    let violations = onesched_sim::validate(&inst.g, &inst.platform, MODEL, &r.schedule);
    if !violations.is_empty() {
        return Err(format!(
            "instance {}: {} violations",
            inst.index,
            violations.len()
        ));
    }
    if r.makespan > incumbent + onesched_sim::EPS {
        return Err(format!(
            "instance {}: optimum {} above incumbent {incumbent}",
            inst.index, r.makespan
        ));
    }
    Ok(())
}

/// The untraced `oracle` run. Every timing is the best of its passes:
/// each instance's fastest solve. On this CPU- and allocation-bound path
/// a slow host phase covered more than half the passes of a run often
/// enough that median passes disagreed by 20% between runs; a phase must
/// cover every solve of an instance to move its best.
///
/// The solver has no set-up of its own, so no `setup_s` is reported; the
/// incumbents the optima are checked against are computed once, untimed.
pub fn run(seed: u64, seconds: u64, r: &mut Report) -> Result<(), String> {
    let (instances, pinned) = draw(seed, seconds)?;
    let w = crate::workload::Workload::Oracle;
    let incumbent = incumbents(&instances);
    let mut rates = Vec::new();
    let mut best = vec![f64::INFINITY; instances.len()];
    for _ in 0..w.passes() {
        let t_pass = Instant::now();
        for ((inst, &inc), best) in instances.iter().zip(&incumbent).zip(best.iter_mut()) {
            let t = Instant::now();
            let res = std::hint::black_box(inst.solve());
            *best = best.min(ms_since(t));
            r.attempted += 1;
            if let Err(why) = check(inst, &res, inc, &pinned) {
                r.fail(why);
            }
        }
        rates.push(instances.len() as f64 / (ms_since(t_pass) / 1e3));
    }
    r.metric(
        "jobs_per_s",
        best.len() as f64 / (best.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    r.metric("latency_p50_ms", percentile(&best, 50.0), "ms");
    r.metric("latency_tail_ms", percentile(&best, w.tail_pct()), "ms");
    r.metric("peak_rss_mb", vm_hwm_mib(None).unwrap_or(f64::NAN), "MiB");
    let nodes: u64 = instances.iter().map(|i| pinned[&i.index].nodes).sum();
    r.note(format!(
        "passes {} x {} instances ({nodes} pinned nodes per pass); timings are each instance's best of {0} solves; whole-pass jobs_per_s {:?}, median {:.2}",
        rates.len(),
        instances.len(),
        rates.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>(),
        median(&rates)
    ));
    r.note(format!(
        "latency_tail_ms is p{} ({} instances beyond it)",
        w.tail_pct(),
        instances.len() - (w.tail_pct() / 100.0 * instances.len() as f64).ceil() as usize
    ));
    Ok(())
}
