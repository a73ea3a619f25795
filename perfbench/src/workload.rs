//! The daemon workloads: seeded, fixed job lists drawn from finite pools.
//!
//! Every job a workload can generate comes from a finite pool, so the
//! expected answer of every pool entry can be pinned once in
//! `expect/<workload>.json` and any `--seed` draws only pinned jobs.

use crate::util::Rng;
use onesched_service::protocol::{DagSpec, JobSpec, PlatformSpec, Request, SchedulerSpec, SimSpec};
use onesched_service::Testbed;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallMix,
    LargeOneport,
    LargeRouted,
    Oracle,
}

pub const ALL: [Workload; 4] = [
    Workload::SmallMix,
    Workload::LargeOneport,
    Workload::LargeRouted,
    Workload::Oracle,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallMix => "small-mix",
            Workload::LargeOneport => "large-oneport",
            Workload::LargeRouted => "large-routed",
            Workload::Oracle => "oracle",
        }
    }

    /// Closed-loop client connections (never more than the host's 2 cores).
    pub fn conns(self) -> usize {
        match self {
            Workload::SmallMix => 2,
            _ => 1,
        }
    }

    /// Equal passes per run. Daemon workloads report the median pass, so
    /// a slow host phase must cover at least half of them to move a
    /// number; the oracle reports each instance's best pass, and more
    /// passes give every instance more chances to meet a quiet host.
    pub fn passes(self) -> usize {
        match self {
            Workload::Oracle => 15,
            _ => 7,
        }
    }

    /// The fixed tail percentile. Chosen with the pass size so that every
    /// pass has at least ten samples beyond it (checked at generation).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::SmallMix => 90.0,
            _ => 80.0,
        }
    }

    /// Jobs per second of `--seconds` on the reference host (2-core VM):
    /// sizes the fixed list so a run measures for about `--seconds`. The
    /// list depends only on `--seed` and `--seconds`, never on elapsed time.
    fn rate(self) -> f64 {
        match self {
            Workload::SmallMix => 44.0,
            Workload::LargeOneport => 16.0,
            Workload::LargeRouted => 15.0,
            Workload::Oracle => 37.0,
        }
    }

    /// Jobs in one pass for a run of `seconds`.
    pub fn pass_len(self, seconds: u64) -> usize {
        let per_pass = (seconds as f64 * self.rate() / self.passes() as f64).round() as usize;
        // at least ten samples beyond the tail percentile in every pass
        let floor = (10.0 / (1.0 - self.tail_pct() / 100.0)).ceil() as usize + 1;
        per_pass.max(floor)
    }
}

/// One pool entry: a fully specified job (and, for `simulate`, its
/// perturbation).
#[derive(Debug, Clone)]
pub struct Entry {
    pub dag: DagSpec,
    pub platform: PlatformSpec,
    pub sched: SchedulerSpec,
    pub validate: bool,
    pub sim: Option<(&'static str, f64, u64)>,
    /// Stable expectation key.
    pub key: String,
}

impl Entry {
    fn new(
        tb: Testbed,
        n: usize,
        platform: (PlatformSpec, String),
        sched: SchedulerSpec,
        validate: bool,
        sim: Option<(&'static str, f64, u64)>,
    ) -> Entry {
        let mut key = format!("{}/{n}/{}/{}", tb.name(), platform.1, sched.canonical());
        if let Some((policy, sigma, seed)) = sim {
            key.push_str(&format!("/sim({policy},{sigma},{seed})"));
        }
        Entry {
            dag: DagSpec::testbed(tb, n),
            platform: platform.0,
            sched,
            validate,
            sim,
            key,
        }
    }

    pub fn spec(&self) -> JobSpec {
        JobSpec {
            dag: self.dag.clone(),
            platform: Some(self.platform.clone()),
            scheduler: Some(self.sched.clone()),
            model: Some("one-port-bidir".into()),
            validate: self.validate,
        }
    }

    pub fn request(&self, id: String) -> Request {
        match self.sim {
            None => Request::submit(Some(id), 0, self.spec()),
            Some((policy, sigma, seed)) => Request::simulate(
                Some(id),
                0,
                self.spec(),
                SimSpec::noise(policy, sigma, seed),
            ),
        }
    }
}

/// One request of a pass.
#[derive(Debug, Clone)]
pub struct Job {
    pub id: String,
    /// The request line as sent (no trailing newline).
    pub line: String,
    pub entry: Entry,
    /// Client connection this job is sent on.
    pub conn: usize,
}

fn paper() -> (PlatformSpec, String) {
    (PlatformSpec::paper(), "paper".into())
}

/// Concrete registry kinds `small-mix` submits (every kind in the catalog).
fn small_kinds() -> Vec<SchedulerSpec> {
    let mut kinds: Vec<SchedulerSpec> = [
        "heft",
        "ilha",
        "routed-heft",
        "routed-ilha",
        "cpop",
        "gdl",
        "bil",
        "pct",
        "min-min",
        "max-min",
        "round-robin",
        "serial",
    ]
    .iter()
    .map(|k| SchedulerSpec::named(k))
    .collect();
    for seed in [0, 1] {
        kinds.push(SchedulerSpec {
            seed: Some(seed),
            ..SchedulerSpec::named("random")
        });
    }
    kinds
}

fn small_portfolios() -> Vec<SchedulerSpec> {
    let n = SchedulerSpec::named;
    vec![
        SchedulerSpec::portfolio(vec![n("heft"), n("ilha")]),
        SchedulerSpec::portfolio(vec![n("heft"), n("cpop"), n("gdl"), n("bil")]),
        // the default portfolio: every non-routed kind
        n("portfolio"),
    ]
}

const SIM_KINDS: [&str; 2] = ["heft", "ilha"];

const SMALL_SIMS: [(&str, f64, u64); 3] = [
    ("static-order", 0.0, 0),
    ("static-order", 0.2, 1),
    ("list-dynamic", 0.2, 2),
];

/// Problem sizes of `small-mix` connection `conn`: the two connections
/// use disjoint sizes, so no cache key is shared between them and every
/// cache hit is decided by one connection's own order, not by timing.
fn small_sizes(conn: usize) -> Vec<usize> {
    (6..=20).filter(|n| n % 2 == conn % 2).collect()
}

const LARGE_SIZES: std::ops::RangeInclusive<usize> = 60..=120;
const ROUTED_SIZES: std::ops::RangeInclusive<usize> = 60..=80;

fn routed_platforms(n: usize) -> Vec<(PlatformSpec, String)> {
    let mut v: Vec<(PlatformSpec, String)> = ["star", "ring", "line"]
        .iter()
        .map(|k| (PlatformSpec::routed(k, 8, 1.0), k.to_string()))
        .collect();
    let seed = (n % 3) as u64;
    v.push((
        PlatformSpec::random_connected(8, 1.0, 0.3, seed),
        format!("random-connected(seed={seed})"),
    ));
    v
}

/// Every entry a workload can draw (the pinning universe).
pub fn pool(w: Workload) -> Vec<Entry> {
    let mut out = Vec::new();
    match w {
        Workload::SmallMix => {
            for conn in 0..2 {
                for n in small_sizes(conn) {
                    for tb in Testbed::ALL {
                        for s in small_kinds().into_iter().chain(small_portfolios()) {
                            out.push(Entry::new(tb, n, paper(), s, true, None));
                        }
                        for s in SIM_KINDS {
                            for sim in SMALL_SIMS {
                                let spec = SchedulerSpec::named(s);
                                out.push(Entry::new(tb, n, paper(), spec, true, Some(sim)));
                            }
                        }
                    }
                }
            }
        }
        // Size-major within each (testbed, scheduler, topology) group, so
        // a systematic draw over the pool covers every group at evenly
        // spread sizes (see `generate`).
        Workload::LargeOneport => {
            for tb in Testbed::ALL {
                for s in ["heft", "ilha"] {
                    for n in LARGE_SIZES {
                        let spec = SchedulerSpec::named(s);
                        out.push(Entry::new(tb, n, paper(), spec, false, None));
                    }
                }
            }
        }
        Workload::LargeRouted => {
            for tb in Testbed::ALL {
                for s in ["routed-heft", "routed-ilha"] {
                    for topo in 0..4 {
                        for n in ROUTED_SIZES {
                            let p = routed_platforms(n).swap_remove(topo);
                            let spec = SchedulerSpec::named(s);
                            out.push(Entry::new(tb, n, p, spec, true, None));
                        }
                    }
                }
            }
        }
        Workload::Oracle => {}
    }
    out
}

fn job(w: Workload, conn: usize, i: usize, entry: Entry) -> Job {
    job_from(format!("{}-{conn}-{i}", w.name()), entry, conn)
}

/// A job sending `entry` as request `id` on connection `conn`.
pub fn job_from(id: String, entry: Entry, conn: usize) -> Job {
    let line = serde_json::to_string(&entry.request(id.clone())).expect("requests serialize");
    Job {
        id,
        line,
        entry,
        conn,
    }
}

/// The fixed job list of one pass of a daemon workload.
pub fn generate(w: Workload, seed: u64, seconds: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ ((w as u64) << 56));
    let len = w.pass_len(seconds);
    let mut jobs = Vec::with_capacity(len);
    match w {
        Workload::SmallMix => {
            let kinds = small_kinds();
            let portfolios = small_portfolios();
            for conn in 0..2 {
                let sizes = small_sizes(conn);
                let mut mine: Vec<Entry> = Vec::new();
                let mut fresh = 0usize;
                for i in 0..len / 2 {
                    // The mix is fixed by position and only the choices
                    // within it are seeded: every third job is a repeat,
                    // every fourth fresh job a simulation, and every 25th
                    // a portfolio (cycling through the three), so each
                    // seed carries the same proportions.
                    let entry = if i % 3 == 2 && mine.len() >= 8 {
                        // an exact repeat of one of this connection's last
                        // eight jobs: always still cached (FIFO capacity
                        // 1024 is far beyond what two connections insert
                        // meanwhile), so the hit count is deterministic
                        mine[mine.len() - 1 - rng.below(8)].clone()
                    } else {
                        fresh += 1;
                        let tb = *rng.pick(&Testbed::ALL);
                        let n = *rng.pick(&sizes);
                        if fresh % 4 == 3 {
                            let kind = SIM_KINDS[rng.below(SIM_KINDS.len())];
                            let s = SchedulerSpec::named(kind);
                            Entry::new(tb, n, paper(), s, true, Some(*rng.pick(&SMALL_SIMS)))
                        } else if fresh % 25 == 12 {
                            let p = portfolios[(fresh / 25) % portfolios.len()].clone();
                            Entry::new(tb, n, paper(), p, true, None)
                        } else {
                            Entry::new(tb, n, paper(), rng.pick(&kinds).clone(), true, None)
                        }
                    };
                    mine.push(entry.clone());
                    jobs.push(job(w, conn, i, entry));
                }
            }
        }
        Workload::LargeOneport | Workload::LargeRouted => {
            // A fixed sample whose order alone is seeded: the peak
            // resident set follows the largest job, and seed-drawn sets
            // moved it by 5% between runs.
            let mut entries = systematic(&pool(w), len, &mut Rng::new(0));
            rng.shuffle(&mut entries);
            for (i, entry) in entries.into_iter().enumerate() {
                jobs.push(job(w, 0, i, entry));
            }
        }
        Workload::Oracle => unreachable!("the oracle runs in process"),
    }
    jobs
}

/// A systematic sample of `len` distinct items: one from each of `len`
/// equal strata of `items`, at a seeded offset. Over a pool ordered by
/// cost, every seed draws nearly the same mix of cheap and costly jobs,
/// so run-to-run differences come from the host, not from the draw.
pub fn systematic<T: Clone>(items: &[T], len: usize, rng: &mut Rng) -> Vec<T> {
    assert!(len <= items.len(), "pass longer than the distinct pool");
    let step = items.len() as f64 / len as f64;
    let offset = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * step;
    (0..len)
        .map(|i| items[((offset + i as f64 * step) as usize).min(items.len() - 1)].clone())
        .collect()
}
