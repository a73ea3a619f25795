//! The traced run (`--trace 1`): per-layer numbers.
//!
//! The daemon is run again with `--trace`, alternating with untraced
//! passes (their ratio is the tracing overhead), and its span log is
//! summarised by `onesched-svc trace report`. Beside those daemon-side
//! self-times the benchmark times its own in-process calls to each
//! layer's public entry point on the same jobs, under the counting
//! allocator of the `perfbench-traced` binary. Every layer is timed on
//! every workload's own inputs, including a layer the daemon path skips
//! for that workload (validation on `large-oneport`, execution and the
//! portfolio outside `small-mix`), so every per-layer metric is measured
//! in every traced run.

use crate::daemon::{daemon_bin, run_pass, Answer, Daemon};
use crate::expect::{self, Expected};
use crate::oracle::{self, Instance};
use crate::util::{median, ms_since, percentile};
use crate::workload::{self, Entry, Job, Workload};
use crate::{check_answers, run_dir, Report};
use onesched_heuristics::registry::SchedulerSpec;
use onesched_service::cache::{run_portfolio_members, run_sim_job, ConstructProbe, PHASES};
use onesched_service::ledger::{key_hash, Ledger, LedgerRecord};
use onesched_service::protocol::{PlatformSpec, Request};
use onesched_service::runner::schedule_timed_probed;
use onesched_trace::WallClock;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Jobs of the list that also get the costly in-process layers
/// (execution and a portfolio race each).
const SUBSET: usize = 24;
/// Untraced and traced passes, alternated, for the overhead ratio.
const OVERHEAD_PASSES: usize = 2;
/// Appends per timed `Ledger::sync` (the daemon syncs every 64; a
/// smaller batch gives every list several sync samples).
const SYNC_BATCH: usize = 16;
/// Reconciliation tolerance: a job's layer sum may exceed its client
/// latency by at most this much (the in-process timings come from a
/// separate, quieter execution of the same calls).
const TOL_ABS_MS: f64 = 0.25;
const TOL_REL: f64 = 0.10;

/// In-process timings of one job.
struct JobLayers {
    parse_us: f64,
    resolve_us: f64,
    /// Validator time, ms (the daemon ran it only if the job validates).
    validate_ms: f64,
}

/// Per-layer numbers of a traced run.
pub fn run(w: Workload, seed: u64, seconds: u64, r: &mut Report) -> Result<(), String> {
    if !onesched_prof::enabled() {
        return Err("the traced run needs the perfbench-traced binary (counting allocator)".into());
    }
    let (jobs, expect, nodes, solve_ms) = match w {
        Workload::Oracle => {
            let (instances, pinned) = oracle::draw(seed, seconds)?;
            let t0 = Instant::now();
            let mut nodes = 0;
            let incumbents = oracle::incumbents(&instances);
            for (inst, &inc) in instances.iter().zip(&incumbents) {
                let res = inst.solve();
                nodes += res.nodes;
                r.attempted += 1;
                if let Err(why) = oracle::check(inst, &res, inc, &pinned) {
                    r.fail(why);
                }
            }
            let solve_ms = ms_since(t0);
            let (jobs, expect) = oracle_reference_jobs(&instances)?;
            (jobs, expect, nodes, solve_ms)
        }
        _ => (
            workload::generate(w, seed, seconds),
            expect::load(w)?,
            0,
            0.0,
        ),
    };
    let (fig1_nodes, fig1_ms) = figure1();
    let (nodes, solve_ms) = if w == Workload::Oracle {
        (nodes, solve_ms)
    } else {
        // the daemon workloads make no B&B solve besides Figure 1
        (fig1_nodes, fig1_ms)
    };
    daemon_layers(w, &jobs, &expect, r)?;
    r.metric("exact.nodes", nodes as f64, "count");
    r.metric(
        "exact.us_per_node",
        solve_ms * 1e3 / nodes.max(1) as f64,
        "us",
    );
    r.metric("exact.fig1_nodes", fig1_nodes as f64, "count");
    r.metric("exact.fig1_ms", fig1_ms, "ms");
    Ok(())
}

/// The paper's Figure 1 fork (a source and six unit children, unit
/// messages) on five identical processors under one-port: the B&B cost
/// ROADMAP item 3 targets.
fn figure1() -> (u64, f64) {
    let g = onesched_testbeds::fork(1.0, &[(1.0, 1.0); 6]);
    let p = onesched_platform::Platform::homogeneous(5);
    let t0 = Instant::now();
    let res = onesched_exact::bnb::branch_and_bound(&g, &p, oracle::MODEL, 20_000_000);
    (res.nodes, ms_since(t0))
}

/// The oracle's random-DAG instances as daemon jobs (HEFT and ILHA, with
/// validation), with expectations computed in process: the daemon layers
/// measured on the oracle's own instances.
fn oracle_reference_jobs(
    instances: &[Instance],
) -> Result<(Vec<Job>, BTreeMap<String, Expected>), String> {
    let mut jobs = Vec::new();
    let mut expect = BTreeMap::new();
    for inst in instances {
        let Some(spec) = &inst.spec else { continue };
        for sched in [SchedulerSpec::heft(), SchedulerSpec::named("ilha")] {
            let entry = Entry {
                dag: spec.dag.clone(),
                platform: spec.platform.clone().unwrap_or_else(PlatformSpec::paper),
                key: format!("oracle/{}/{}", inst.index, sched.canonical()),
                sched,
                validate: true,
                sim: None,
            };
            expect.insert(entry.key.clone(), expect::compute(&entry)?);
            let id = format!("oracle-{}", jobs.len());
            jobs.push(workload::job_from(id, entry, 0));
        }
    }
    Ok((jobs, expect))
}

/// Numbers from the aggregate table of `onesched-svc trace report`:
/// span name → (count, total_ms, self_ms, p50_ms, p99_ms).
fn trace_report(bin: &Path, trace: &Path) -> Result<BTreeMap<String, [f64; 5]>, String> {
    let out = Command::new(bin)
        .args(["trace", "report"])
        .arg(trace)
        .output()
        .map_err(|e| format!("trace report: {e}"))?;
    if !out.status.success() {
        return Err(format!("trace report failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut rows = BTreeMap::new();
    for line in text.lines().skip(1) {
        if line.trim().is_empty() {
            break;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() < 6 {
            continue;
        }
        let nums: Vec<f64> = cols[1..6].iter().filter_map(|c| c.parse().ok()).collect();
        if let [count, total, selft, p50, p99] = nums[..] {
            rows.insert(cols[0].to_string(), [count, total, selft, p50, p99]);
        }
    }
    Ok(rows)
}

/// Durations of every `name` span in a trace log, ms at the log's full
/// microsecond resolution (`trace report` rounds to 1 µs in ms text).
fn span_durations_ms(trace: &Path, name: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| serde_json::from_str::<serde::Value>(l).ok())
        .filter(|v| {
            v.get_field("kind").and_then(|k| k.as_str()).ok() == Some("span")
                && v.get_field("name").and_then(|k| k.as_str()).ok() == Some(name)
        })
        .filter_map(|v| v.get_field("dur_us").and_then(|d| d.as_num()).ok())
        .map(|us| us / 1e3)
        .collect())
}

fn num_field(line: &str, name: &str) -> f64 {
    serde_json::from_str::<serde::Value>(line)
        .ok()
        .and_then(|v| v.get_field(name).ok().and_then(|x| x.as_num().ok()))
        .unwrap_or(0.0)
}

fn is_cache_hit(line: &str) -> bool {
    line.contains("\"cache_hit\":true")
}

/// Daemon-side and in-process layer numbers of one job list.
fn daemon_layers(
    w: Workload,
    jobs: &[Job],
    expect: &BTreeMap<String, Expected>,
    r: &mut Report,
) -> Result<(), String> {
    let bin = daemon_bin()?;
    let dir = run_dir(w)?;
    let conns = w.conns();

    // Alternate untraced and traced passes (fresh daemon and ledger each).
    let mut rate = [Vec::new(), Vec::new()];
    let mut untraced: Vec<Answer> = Vec::new();
    let mut hit_ratio = (0.0, 0.0);
    let trace_path = dir.join("trace.ndjson");
    let ledger_path = dir.join("traced.ndjson");
    for k in 0..2 * OVERHEAD_PASSES {
        let traced = k % 2 == 1;
        let ledger = if traced {
            ledger_path.clone()
        } else {
            dir.join("untraced.ndjson")
        };
        let _ = std::fs::remove_file(&ledger);
        let _ = std::fs::remove_file(&trace_path);
        let d = Daemon::spawn(&bin, &ledger, traced.then_some(trace_path.as_path()))?;
        let (answers, wall) = run_pass(&d.addr, jobs, conns)?;
        if traced {
            let stats = d.control("stats")?;
            let get = |f: &str| stats.get_field(f).and_then(|v| v.as_num()).unwrap_or(0.0);
            hit_ratio = (get("cache_hits"), get("jobs_done"));
        }
        d.shutdown()?;
        check_answers(jobs, &answers, expect, r);
        rate[traced as usize].push(answers.len() as f64 / wall);
        if !traced && untraced.is_empty() {
            untraced = answers;
        }
    }
    let report = trace_report(&bin, &trace_path)?;
    let queue_wait_ms = span_durations_ms(&trace_path, "queue.wait")?;

    // Ledger layer: replay the traced pass's ledger, append and sync a
    // fresh one with the records the daemon writes at submission.
    let ledger_bytes = std::fs::metadata(&ledger_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let mut replay_ms = Vec::new();
    for _ in 0..5 {
        let copy = dir.join("replay.ndjson");
        std::fs::copy(&ledger_path, &copy).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let opened = Ledger::open(&copy).map_err(|e| e.to_string())?;
        replay_ms.push(ms_since(t0));
        drop(opened);
    }

    // In-process layers, job by job.
    let clock = WallClock::new();
    let mut per_job = Vec::with_capacity(jobs.len());
    let mut phase_ms: [Vec<f64>; 4] = Default::default();
    let mut scan = onesched_heuristics::ScanStats::default();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut append_us = Vec::new();
    let mut sync_ms = Vec::new();
    let (mut scratch, _) =
        Ledger::open_with(&dir.join("append.ndjson"), u64::MAX).map_err(|e| e.to_string())?;
    let mut exec_ms = Vec::new();
    let mut events = 0u64;
    let mut portfolio_ms = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let mut parse = Vec::new();
        let mut resolve = Vec::new();
        let mut resolved = None;
        let mut req = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let q: Request = serde_json::from_str(&job.line).map_err(|e| e.to_string())?;
            parse.push(ms_since(t0) * 1e3);
            let spec = q.job.clone().ok_or("request without a job")?;
            let t1 = Instant::now();
            let rj = spec.resolve().map_err(|e| e.to_string())?;
            resolve.push(ms_since(t1) * 1e3);
            resolved = Some(rj);
            req = Some(q);
        }
        let (job_r, req) = (resolved.expect("resolved"), req.expect("parsed"));
        let record = LedgerRecord::submitted(
            i as u64,
            &job.id,
            &key_hash(&job_r.key),
            0,
            req.job.clone().expect("parsed with a job"),
            req.sim.clone(),
        );
        let t0 = Instant::now();
        scratch.append(&record).map_err(|e| e.to_string())?;
        append_us.push(ms_since(t0) * 1e3);
        if (i + 1) % SYNC_BATCH == 0 || i + 1 == jobs.len() {
            let t0 = Instant::now();
            scratch.sync().map_err(|e| e.to_string())?;
            sync_ms.push(ms_since(t0));
        }

        // construction with the phase probe, then the validator on the
        // schedule it produced
        let probe = ConstructProbe::new(&clock);
        let (g, platform) = (job_r.build_graph(), job_r.build_platform());
        let scheduler = job_r.build_scheduler();
        let (sched, _) =
            schedule_timed_probed(&g, &platform, scheduler.as_ref(), job_r.model(), &probe);
        for (slot, phase) in PHASES.iter().enumerate() {
            phase_ms[slot].push(probe.phase_us(*phase) as f64 / 1e3);
            let a = probe.phase_allocs(*phase);
            allocs += a.allocs;
            alloc_bytes += a.bytes;
        }
        scan.add(&probe.scan());
        let t0 = Instant::now();
        std::hint::black_box(onesched_sim::validate(&g, &platform, job_r.model(), &sched));
        let validate_ms = ms_since(t0);
        per_job.push(JobLayers {
            parse_us: median(&parse),
            resolve_us: median(&resolve),
            validate_ms,
        });

        if i < SUBSET {
            // execution: the job's own perturbation, else a zero-noise replay
            let sim = req.sim.clone().unwrap_or_default().resolve()?;
            let o = run_sim_job(&job_r, &sim, None, &clock).map_err(|e| e.to_string())?;
            exec_ms.push(o.exec.as_secs_f64() * 1e3);
            events += o.events_processed;
            // portfolio: the job's own members, else its one-port or
            // routed HEFT/ILHA pair
            let members: Vec<SchedulerSpec> = match &job_r.scheduler_spec().members {
                Some(m) => m.clone(),
                None if platform.is_fully_connected() => {
                    vec![SchedulerSpec::heft(), SchedulerSpec::named("ilha")]
                }
                None => vec![SchedulerSpec::routed_heft(), SchedulerSpec::routed_ilha()],
            };
            let member_jobs = members
                .iter()
                .map(|m| {
                    Ok((
                        m.canonical(),
                        job_r.with_scheduler(m).map_err(|e| e.to_string())?,
                        None,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let t0 = Instant::now();
            std::hint::black_box(run_portfolio_members(member_jobs));
            portfolio_ms.push(ms_since(t0));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Reconciliation against the untraced pass: intake + construct +
    // validate + exec must fit in each job's client latency.
    let mut over = Vec::new();
    let mut remainder = Vec::new();
    let mut overhead = Vec::new();
    let mut inproc = Vec::new();
    for a in &untraced {
        let (job, l) = (&jobs[a.job], &per_job[a.job]);
        let hit = is_cache_hit(&a.line);
        let (c, e) = if hit {
            (0.0, 0.0)
        } else {
            (
                num_field(&a.line, "construct_ms"),
                num_field(&a.line, "exec_ms"),
            )
        };
        let v = if job.entry.validate && !hit {
            l.validate_ms
        } else {
            0.0
        };
        let intake = (l.parse_us + l.resolve_us) / 1e3;
        let sum = intake + c + v + e;
        if sum > a.latency_ms * (1.0 + TOL_REL) + TOL_ABS_MS {
            over.push(format!(
                "{} sum {sum:.3} > latency {:.3}",
                job.id, a.latency_ms
            ));
        }
        remainder.push(a.latency_ms - sum);
        // a cache hit reports its original construct_ms but spent none
        overhead.push(a.latency_ms - c - e);
        inproc.push(intake + v);
    }
    let (rem50, ovh50, in50) = (median(&remainder), median(&overhead), median(&inproc));
    r.note(format!(
        "reconcile {}: {} jobs, {} over budget (tolerance {TOL_ABS_MS} ms + {}% of latency); remainder p50 {rem50:.3} ms + intake/validate p50 {in50:.3} ms vs daemon.overhead p50 {ovh50:.3} ms",
        if over.is_empty() { "ok" } else { "FAIL" },
        untraced.len(),
        over.len(),
        TOL_REL * 100.0
    ));
    for o in over.iter().take(5) {
        r.note(format!("  over budget: {o}"));
    }

    // daemon-side self times beside the in-process spans
    let row = |name: &str| report.get(name).copied().unwrap_or([0.0; 5]);
    r.note("span                 daemon count  self_ms  p50_ms | in-process p50_ms".to_string());
    let inproc_p50 = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, 50.0)
        }
    };
    let pairs: [(&str, f64); 8] = [
        ("queue.wait", f64::NAN),
        ("construct.rank", inproc_p50(&phase_ms[0])),
        ("construct.step1", inproc_p50(&phase_ms[1])),
        ("construct.scan", inproc_p50(&phase_ms[2])),
        ("construct.commit", inproc_p50(&phase_ms[3])),
        ("construct.portfolio", inproc_p50(&portfolio_ms)),
        ("execute", inproc_p50(&exec_ms)),
        ("respond", f64::NAN),
    ];
    for (name, mine) in pairs {
        let [count, _, selft, p50, _] = row(name);
        r.note(format!(
            "{name:<20} {count:>12} {selft:>8.3} {p50:>7.3} | {mine:.4}"
        ));
    }

    let col = |f: fn(&JobLayers) -> f64| per_job.iter().map(f).collect::<Vec<f64>>();
    let validated: Vec<f64> = col(|l| l.validate_ms);
    r.metric("intake.parse_us", median(&col(|l| l.parse_us)), "us");
    r.metric("intake.resolve_us", median(&col(|l| l.resolve_us)), "us");
    r.metric("ledger.append_us", median(&append_us), "us");
    r.metric("ledger.sync_ms", median(&sync_ms), "ms");
    r.metric("ledger.replay_ms", median(&replay_ms), "ms");
    r.metric(
        "ledger.bytes_per_job",
        ledger_bytes as f64 / jobs.len() as f64,
        "B",
    );
    r.metric(
        "cache.hit_ratio",
        hit_ratio.0 / hit_ratio.1.max(1.0),
        "ratio",
    );
    r.note(format!(
        "cache.hit_ratio base: {} hits of {} jobs answered",
        hit_ratio.0, hit_ratio.1
    ));
    r.metric("daemon.overhead_p50_ms", ovh50, "ms");
    r.metric("queue.wait_p50_ms", median(&queue_wait_ms), "ms");
    for (slot, name) in [
        "construct.rank_ms",
        "construct.step1_ms",
        "construct.scan_ms",
        "construct.commit_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let v = &phase_ms[slot];
        r.metric(name, v.iter().sum::<f64>() / v.len().max(1) as f64, "ms");
    }
    r.metric("scan.candidates", scan.candidates as f64, "count");
    r.metric("scan.evaluated", scan.evaluated as f64, "count");
    r.metric("scan.pruned_bound", scan.pruned_bound as f64, "count");
    r.metric(
        "scan.pruned_contention",
        scan.pruned_contention as f64,
        "count",
    );
    r.metric("construct.allocs", allocs as f64, "count");
    r.metric("construct.alloc_bytes", alloc_bytes as f64, "B");
    r.metric("portfolio.construct_ms", median(&portfolio_ms), "ms");
    r.metric("validate_ms", median(&validated), "ms");
    r.metric("exec.run_ms", median(&exec_ms), "ms");
    r.metric("exec.events", events as f64, "count");
    r.metric(
        "trace.overhead_ratio",
        median(&rate[1]) / median(&rate[0]),
        "ratio",
    );
    r.note(format!(
        "in-process layers over {} jobs ({} with execution and a portfolio race); trace.overhead_ratio base: traced {:?} vs untraced {:?} jobs/s",
        jobs.len(),
        SUBSET.min(jobs.len()),
        rate[1].iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>(),
        rate[0].iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>()
    ));
    Ok(())
}
