//! Fixed-work benchmark for the onesched daemon and the exact B&B oracle.
//!
//! See `README.md` beside this crate for the workloads, the metrics, and
//! how to claim a gain with them.

pub mod daemon;
pub mod expect;
pub mod layers;
pub mod oracle;
pub mod util;
pub mod workload;

use daemon::{daemon_bin, restart_times, run_pass, Daemon};
use std::path::PathBuf;
use util::{host_calib_ms, median, percentile};
use workload::Workload;

/// Daemon restarts timed after each pass, over that pass's ledger, for
/// `setup_s`. Spreading them over the run keeps one slow moment at its
/// end from setting the median: with all restarts at the end, the
/// median moved 32% (quartile spread) between runs.
const RESTARTS_PER_PASS: usize = 3;

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: human-readable notes, then the JSON result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// First few wrong or error answers, for the log.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 10 {
            self.mismatches.push(why);
        }
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}:{{\"value\":{},\"unit\":{:?}}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Scratch directory of one run, under the build's target directory.
pub(crate) fn run_dir(w: Workload) -> Result<PathBuf, String> {
    let dir = daemon::target_dir().join("perfbench-runs").join(format!(
        "{}-{}",
        w.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Per-pass client-side numbers.
struct Pass {
    jobs_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    rss_mib: f64,
}

/// The untraced end-to-end run of a daemon workload.
fn run_daemon_workload(w: Workload, seed: u64, seconds: u64, r: &mut Report) -> Result<(), String> {
    let bin = daemon_bin()?;
    let expect = expect::load(w)?;
    let jobs = workload::generate(w, seed, seconds);
    let dir = run_dir(w)?;
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut ledger_bytes = 0;
    for p in 0..w.passes() {
        let ledger = dir.join(format!("pass{p}.ndjson"));
        let d = Daemon::spawn(&bin, &ledger, None)?;
        let (answers, wall) = run_pass(&d.addr, &jobs, w.conns())?;
        let rss_mib = d.peak_rss_mib();
        d.shutdown()?;
        let lat: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
        check_answers(&jobs, &answers, &expect, r);
        passes.push(Pass {
            jobs_per_s: answers.len() as f64 / wall,
            p50_ms: percentile(&lat, 50.0),
            tail_ms: percentile(&lat, w.tail_pct()),
            rss_mib,
        });
        ledger_bytes = std::fs::metadata(&ledger).map(|m| m.len()).unwrap_or(0);
        setups.extend(restart_times(&bin, &ledger, &dir, RESTARTS_PER_PASS)?);
        let _ = std::fs::remove_file(&ledger);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    r.metric("jobs_per_s", med(|p| p.jobs_per_s), "1/s");
    r.metric("latency_p50_ms", med(|p| p.p50_ms), "ms");
    r.metric("latency_tail_ms", med(|p| p.tail_ms), "ms");
    r.metric("setup_s", median(&setups), "s");
    // The run's peak: the highest pass. Which worker's malloc arena meets
    // the largest jobs depends on thread timing, so even the same jobs
    // peak up to ~10% apart from run to run.
    let peak = passes.iter().map(|p| p.rss_mib).fold(0.0, f64::max);
    r.metric("peak_rss_mb", peak, "MiB");
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.1}", p.jobs_per_s))
        .collect();
    r.note(format!(
        "passes {} x {} jobs over {} connection(s); jobs_per_s per pass [{}]",
        passes.len(),
        jobs.len(),
        w.conns(),
        per_pass.join(", ")
    ));
    r.note(format!(
        "latency_tail_ms is p{} ({} samples beyond it per pass)",
        w.tail_pct(),
        jobs.len() - (w.tail_pct() / 100.0 * jobs.len() as f64).ceil() as usize
    ));
    r.note(format!(
        "setup_s: median of {} restarts, {RESTARTS_PER_PASS} after each pass over its ledger ({ledger_bytes} bytes, {} jobs); samples {:?}",
        setups.len(),
        jobs.len(),
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    Ok(())
}

/// Check every answer of a pass against the pinned expectations.
pub fn check_answers(
    jobs: &[workload::Job],
    answers: &[daemon::Answer],
    expect: &std::collections::BTreeMap<String, expect::Expected>,
    r: &mut Report,
) {
    r.attempted += jobs.len() as u64;
    for _ in answers.len()..jobs.len() {
        r.fail("request without an answer".into());
    }
    for a in answers {
        let job = &jobs[a.job];
        let verdict = serde_json::from_str::<serde::Value>(&a.line)
            .map_err(|e| format!("{}: unparsable answer: {e}", job.id))
            .and_then(|v| expect::check(&v, &job.id, &job.entry, expect));
        if let Err(why) = verdict {
            r.fail(why);
        }
    }
}

/// Command-line arguments of a run.
#[derive(Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One benchmark run: the report, or an error that aborts the run.
pub fn run(a: &RunArgs) -> Result<Report, String> {
    let mut r = Report::default();
    let calib_before = host_calib_ms();
    match (a.workload, a.trace) {
        (Workload::Oracle, false) => oracle::run(a.seed, a.seconds, &mut r)?,
        (w, false) => run_daemon_workload(w, a.seed, a.seconds, &mut r)?,
        (w, true) => layers::run(w, a.seed, a.seconds, &mut r)?,
    }
    let calib_after = host_calib_ms();
    r.note(format!(
        "host.calib_ms before {calib_before:.2} after {calib_after:.2} (fixed CPU loop; a diagnostic, not a normaliser)"
    ));
    r.note(format!(
        "error_rate {} ({} wrong or error answers of {} requests)",
        if r.attempted > 0 {
            r.failed as f64 / r.attempted as f64
        } else {
            0.0
        },
        r.failed,
        r.attempted
    ));
    Ok(r)
}

fn parse_args(args: &[String]) -> Result<(RunArgs, Option<usize>), String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut runs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            "--runs" => runs = Some(val()?.parse().map_err(|e| format!("--runs: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
        },
        runs,
    ))
}

const USAGE: &str = "usage:
  perfbench --workload W --seed N --seconds S --trace 0|1   one run
  perfbench steady --workload W --runs N [--seed N] [--seconds S]
  perfbench pin [--workload W]                             re-pin expectations
workloads: small-mix, large-oneport, large-routed, oracle";

/// Entry point shared by both binaries; returns the exit code.
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => {
            parse_args(&args[1..]).and_then(|(a, runs)| steady(&a, runs.unwrap_or(10)))
        }
        Some("pin") => pin(&args[1..]),
        Some("-h") | Some("--help") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => parse_args(&args).and_then(|(a, _)| {
            let r = run(&a)?;
            for n in r.notes.iter() {
                println!("{n}");
            }
            for m in r.mismatches.iter() {
                println!("mismatch: {m}");
            }
            println!("{}", r.json_line());
            if r.failed > 0 {
                Err(format!("{} wrong or error answers", r.failed))
            } else {
                Ok(())
            }
        }),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn pin(args: &[String]) -> Result<(), String> {
    let which: Vec<Workload> = match args {
        [] => workload::ALL.to_vec(),
        [flag, w] if flag == "--workload" => {
            vec![Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?]
        }
        _ => return Err(USAGE.into()),
    };
    for w in which {
        let n = match w {
            Workload::Oracle => oracle::pin()?,
            _ => expect::pin(w, 2)?,
        };
        println!("pinned {n} entries for {}", w.name());
    }
    Ok(())
}

/// One run in a child process of this binary, as an outside driver
/// makes it (so per-process figures such as the oracle's `VmHWM` start
/// fresh): the parsed result line.
fn run_child(a: &RunArgs) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "seed {}: run failed ({}): {last}",
            a.seed, out.status
        ));
    }
    serde_json::from_str(last).map_err(|e| format!("seed {}: bad result line: {e}", a.seed))
}

fn num_at(v: &serde::Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get_field(p).ok()?;
    }
    cur.as_num().ok()
}

/// Run one workload `runs` times on seeds `seed..seed+runs`, each in its
/// own process, then print each metric's median and quartile spread
/// relative to it. Seed `seed` is run once more, and the two runs must
/// attempt the same number of requests.
fn steady(a: &RunArgs, runs: usize) -> Result<(), String> {
    let mut results = Vec::new();
    for i in 0..runs {
        let args = RunArgs {
            seed: a.seed + i as u64,
            ..*a
        };
        let v = run_child(&args)?;
        println!(
            "seed {}: {}",
            args.seed,
            serde_json::to_string(&v).unwrap_or_default()
        );
        results.push(v);
    }
    let again = run_child(a)?;
    let (first, second) = (
        num_at(&results[0], &["attempted"]),
        num_at(&again, &["attempted"]),
    );
    if first != second {
        return Err(format!(
            "seed {} attempted {first:?} then {second:?} requests",
            a.seed
        ));
    }
    println!(
        "same-seed repeat: seed {} attempted {:?} both times",
        a.seed, first
    );
    let names: Vec<String> = match results[0].get_field("metrics") {
        Ok(serde::Value::Map(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    for name in names {
        let vals: Vec<f64> = results
            .iter()
            .filter_map(|v| num_at(v, &["metrics", &name, "value"]))
            .collect();
        let med = median(&vals);
        let (q1, q3) = util::quartiles(&vals);
        println!(
            "{name:<24} median {med:>14.4} spread (q3-q1)/median {:.4}",
            (q3 - q1) / med
        );
    }
    Ok(())
}
