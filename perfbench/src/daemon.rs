//! Driving the released `onesched-svc` daemon from outside: find the
//! binary `run.sh` built, spawn it on an ephemeral TCP port, run
//! closed-loop client passes, and time restarts over a ledger.

use crate::util::{ms_since, secs_since, vm_hwm_mib};
use crate::workload::Job;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The repository checkout this benchmark belongs to (the parent of the
/// benchmark's own directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Cargo's target directory for the repository build: `CARGO_TARGET_DIR`
/// (relative paths resolved against the repository root, where cargo is
/// run) or `<root>/target`.
pub fn target_dir() -> PathBuf {
    let root = repo_root();
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) => root.join(d),
        None => root.join("target"),
    }
}

/// The daemon binary `run.sh` built before the run.
pub fn daemon_bin() -> Result<PathBuf, String> {
    let bin = target_dir().join("release").join("onesched-svc");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} missing: build it first (perfbench/run.sh does)",
            bin.display()
        ))
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawn `serve --tcp 127.0.0.1:0 --workers 2 --ledger LEDGER [--trace
    /// TRACE]` and wait for its `ready` line.
    pub fn spawn(bin: &Path, ledger: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--ledger",
        ])
        .arg(ledger);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let addr = ready.ok().and_then(|_| {
            let v: Value = serde_json::from_str(line.trim()).ok()?;
            (v.get_field("op").ok()?.as_str().ok()? == "ready")
                .then(|| v.get_field("addr").ok()?.as_str().ok().map(String::from))?
        });
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce ready: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One control request on a fresh connection; returns the answer line.
    pub fn control(&self, op: &str) -> Result<Value, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        writeln!(s, "{{\"op\":\"{op}\"}}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        serde_json::from_str(line.trim()).map_err(|e| format!("bad {op} answer: {e}"))
    }

    /// Peak resident set of the daemon so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        vm_hwm_mib(Some(self.pid())).unwrap_or(f64::NAN)
    }

    /// Graceful shutdown; waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = self.control("shutdown");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        answer?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // only reached on error paths (shutdown consumes self via wait)
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered request as the client saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index into the pass's job list.
    pub job: usize,
    /// Send-to-answer-line latency, ms.
    pub latency_ms: f64,
    pub line: String,
}

/// One closed-loop pass: every connection sends its jobs one at a time,
/// each only after the previous answer arrived. Returns the answers in job
/// order and the wall time from the first send to the last answer.
pub fn run_pass(addr: &str, jobs: &[Job], conns: usize) -> Result<(Vec<Answer>, f64), String> {
    let t0 = Instant::now();
    let per_conn: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Answer>, String> {
                    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream);
                    let mut out = Vec::new();
                    let mut buf = String::with_capacity(512);
                    for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.conn == c) {
                        buf.clear();
                        buf.push_str(&job.line);
                        buf.push('\n');
                        let sent = Instant::now();
                        writer
                            .write_all(buf.as_bytes())
                            .map_err(|e| e.to_string())?;
                        let mut line = String::new();
                        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
                        let latency_ms = ms_since(sent);
                        if n == 0 {
                            return Err("daemon closed the connection".into());
                        }
                        out.push(Answer {
                            job: i,
                            latency_ms,
                            line: line.trim_end().to_string(),
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = secs_since(t0);
    let mut answers = Vec::with_capacity(jobs.len());
    for r in per_conn {
        answers.extend(r?);
    }
    answers.sort_by_key(|a| a.job);
    Ok((answers, wall))
}

/// Spawn-to-`ready` seconds of a daemon restarting over a copy of
/// `ledger` (replay, cache rehydration and requeue included), once per
/// `restarts`. Each restart gets a fresh copy, so all see the same ledger.
pub fn restart_times(
    bin: &Path,
    ledger: &Path,
    dir: &Path,
    restarts: usize,
) -> Result<Vec<f64>, String> {
    let copy = dir.join("restart.ndjson");
    let mut out = Vec::with_capacity(restarts);
    for _ in 0..restarts {
        std::fs::copy(ledger, &copy).map_err(|e| format!("copy ledger: {e}"))?;
        let t0 = Instant::now();
        let d = Daemon::spawn(bin, &copy, None)?;
        out.push(secs_since(t0));
        d.shutdown()?;
    }
    Ok(out)
}
