//! Pinned expectations: the answer every pool entry must get, kept in
//! `expect/<workload>.json` beside the benchmark, and the check of a
//! daemon answer against them.

use crate::workload::{pool, Entry, Workload};
use onesched_service::cache::{run_job, run_sim_job};
use onesched_trace::WallClock;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const SCHEMA: &str = "onesched-perfbench-expect/v1";

pub fn path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expect")
        .join(format!("{}.json", w.name()))
}

/// Expected answer: placement fingerprint and makespan, plus the executed
/// trace fingerprint and makespan for `simulate` entries. Stored as one
/// space-separated string per key.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected(pub String);

/// The recorded answer of one entry, computed in process through the
/// same library path the daemon uses.
pub fn compute(e: &Entry) -> Result<Expected, String> {
    let req = e.request("pin".into());
    let job = req
        .job
        .as_ref()
        .expect("pool requests carry a job")
        .resolve()
        .map_err(|err| format!("{}: {err}", e.key))?;
    Ok(Expected(match &req.sim {
        None => {
            let o = run_job(&job);
            format!("{:016x} {:?}", o.fingerprint, o.makespan)
        }
        Some(sim) => {
            let sim = sim.resolve().map_err(|err| format!("{}: {err}", e.key))?;
            let o = run_sim_job(&job, &sim, None, &WallClock::new())
                .map_err(|err| format!("{}: {err}", e.key))?;
            format!(
                "{:016x} {:?} {:016x} {:?}",
                o.job.fingerprint, o.job.makespan, o.trace_fingerprint, o.executed_makespan
            )
        }
    }))
}

/// Recompute and write the expectations of every entry of `w`'s pool.
pub fn pin(w: Workload, threads: usize) -> Result<usize, String> {
    let entries = pool(w);
    let results: Vec<Result<(String, Expected), String>> = std::thread::scope(|scope| {
        let chunks: Vec<_> = (0..threads)
            .map(|t| {
                let entries = &entries;
                scope.spawn(move || {
                    entries
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|e| compute(e).map(|x| (e.key.clone(), x)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("pin thread"))
            .collect()
    });
    let mut map = BTreeMap::new();
    for r in results {
        let (k, v) = r?;
        map.insert(k, v.0);
    }
    let mut text = format!(
        "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{}\",\"entries\":{{\n",
        w.name()
    );
    let n = map.len();
    for (i, (k, v)) in map.iter().enumerate() {
        let sep = if i + 1 < n { "," } else { "" };
        text.push_str(&format!("{:?}:{:?}{sep}\n", k, v));
    }
    text.push_str("}}\n");
    std::fs::write(path(w), text).map_err(|e| e.to_string())?;
    Ok(n)
}

/// Load the pinned expectations of `w`.
pub fn load(w: Workload) -> Result<BTreeMap<String, Expected>, String> {
    let p = path(w);
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    let schema = v.get_field("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!("{}: unknown schema {schema:?}", p.display()));
    }
    match v.get_field("entries") {
        Ok(Value::Map(entries)) => entries
            .iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    Expected(v.as_str().map_err(|e| e.0)?.to_string()),
                ))
            })
            .collect(),
        _ => Err(format!("{}: no entries", p.display())),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name).map_err(|e| e.0)
}

fn num(v: &Value, name: &str) -> Result<f64, String> {
    field(v, name)?.as_num().map_err(|e| e.0)
}

fn text<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    field(v, name)?.as_str().map_err(|e| e.0)
}

/// Check one daemon answer line against the pinned expectation of the
/// job's entry: the right op and id, zero validator violations, and
/// bit-equal fingerprints and makespans.
pub fn check(
    answer: &Value,
    id: &str,
    e: &Entry,
    expect: &BTreeMap<String, Expected>,
) -> Result<(), String> {
    let want = expect
        .get(&e.key)
        .ok_or_else(|| format!("no pinned expectation for {}", e.key))?;
    let op = text(answer, "op")?;
    let want_op = if e.sim.is_some() {
        "sim-result"
    } else {
        "result"
    };
    if op != want_op {
        return Err(format!("{id}: expected {want_op}, got {op}"));
    }
    if text(answer, "id")? != id {
        return Err(format!("{id}: answer for another id"));
    }
    if num(answer, "violations")? != 0.0 {
        return Err(format!("{id}: validator violations"));
    }
    let got = if e.sim.is_some() {
        format!(
            "{} {:?} {} {:?}",
            text(answer, "fingerprint")?,
            num(answer, "static_makespan")?,
            text(answer, "trace_fingerprint")?,
            num(answer, "executed_makespan")?
        )
    } else {
        format!(
            "{} {:?}",
            text(answer, "fingerprint")?,
            num(answer, "makespan")?
        )
    };
    if got != want.0 {
        return Err(format!("{id} ({}): got {got}, pinned {}", e.key, want.0));
    }
    Ok(())
}
