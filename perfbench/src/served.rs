//! The served path: an in-process `sgr_serve` job server driven open
//! loop by one client process over two connections — submissions on one,
//! status polls and result fetches on the other, so a slow poll never
//! delays a due submission.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sgr_sample::WalkKind;
use sgr_serve::{Client, JobState, ServeConfig, SubmitRequest};
use sgr_util::Xoshiro256pp;

use crate::metrics::{derive_seed, Report};
use crate::setup::host_cpus;
use crate::workload::{Arrivals, Workload, STREAM_ARRIVALS};

/// Pause between status polls, so polling never spins a core the
/// server's workers need.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// A job not fetched and verified this long after it was due counts as
/// failed (a dead worker or a wedged queue fails jobs instead of hanging
/// the run).
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// How long shutdown may take before the run gives up on the server.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);
/// Where served runs keep job state, relative to the working directory.
const STATE_ROOT: &str = ".bench_state";

/// One distinct job spec: what a client submits and what it must get
/// back.
pub struct PoolJob {
    pub request: SubmitRequest,
    /// The result section a local restoration of the same spec produces.
    pub expected: Vec<u8>,
    /// Wall seconds of that local restoration (the overhead baseline).
    pub local_secs: f64,
}

/// A submission for `edges` restored under the workload's settings with
/// the server's default checkpoint cadence.
pub fn submit_request(w: &Workload, edges: &[u8], job_seed: u64) -> SubmitRequest {
    let crawl = w.crawl_spec();
    let cfg = w.restore_config();
    SubmitRequest {
        tenant: String::new(),
        walk_code: WalkKind::RandomWalk.code(),
        fraction: crawl.fraction,
        snowball_k: crawl.snowball_k as u64,
        burn_prob: crawl.burn_prob,
        rewiring_coefficient: cfg.rewiring_coefficient,
        rewire: cfg.rewire,
        threads: cfg.threads as u64,
        seed: job_seed,
        checkpoint_every: 0,
        abort_after: 0,
        edges: edges.to_vec(),
    }
}

/// One scheduled arrival.
struct Arrival {
    /// Seconds after the schedule starts.
    due: f64,
    /// Index into the pool.
    spec: usize,
    tenant: &'static str,
}

/// The open-loop schedule for `seconds`: a Poisson process at the
/// workload's rate conditioned on its expected count — that many
/// arrival times drawn uniformly over the window and sorted — with each
/// arrival's spec and tenant drawn uniformly.
fn schedule(w: &Workload, seed: u64, seconds: f64) -> Vec<Arrival> {
    let Arrivals::Served { specs, rate, .. } = w.arrivals else {
        return vec![Arrival {
            due: 0.0,
            spec: 0,
            tenant: "tenant-a",
        }];
    };
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, STREAM_ARRIVALS, 0));
    let n = ((rate * seconds).round() as usize).max(1);
    let mut dues: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    dues.into_iter()
        .map(|due| Arrival {
            due,
            spec: rng.gen_range(specs),
            tenant: if rng.gen_bool(0.5) {
                "tenant-a"
            } else {
                "tenant-b"
            },
        })
        .collect()
}

/// What the client observed.
#[derive(Default)]
pub struct Outcome {
    /// Due time → result fetched and verified, per verified job.
    pub latencies: Vec<f64>,
    /// Summed over segments: segment start → its last job resolved.
    pub wall: f64,
    pub submit_rtt: Vec<f64>,
    pub status_rtt: Vec<f64>,
    pub fetch_rtt: Vec<f64>,
    pub fetch_bytes: Vec<f64>,
    /// Submission acknowledged → first poll that saw the job running.
    pub queue_wait: Vec<f64>,
    /// First poll that saw it running → first poll that saw it completed.
    pub run_secs: Vec<f64>,
    /// `run_secs` over the local restoration time of the same spec.
    pub overhead_ratio: Vec<f64>,
    pub checkpoints: Vec<f64>,
    pub polls: u64,
    /// Latest a submission started after it was due.
    pub generator_lag_max: f64,
}

/// A submitted job the poller is following.
struct Tracked {
    spec: usize,
    due: Instant,
    acked: Instant,
    running_seen: Option<Instant>,
}

/// What the submitter tells the poller.
enum Submitted {
    Job {
        id: u64,
        spec: usize,
        due: Instant,
        acked: Instant,
    },
    Done,
}

/// Local work run between served segments, with the server idle:
/// called with block `k` before segment `k` and once more after the
/// last segment.
pub type Between<'a> = dyn FnMut(usize, &mut Report) -> Result<(), String> + 'a;

/// Starts a server with `min(2, nproc)` workers on an ephemeral port and
/// a fresh state root inside the working directory, drives the schedule
/// in the workload's segments (each on two fresh connections) with
/// `between` run before, between and after them, shuts the server down,
/// and removes the state root. Each failure (rejected submission, failed
/// job, mismatching result, deadline miss) is recorded in `report`.
pub fn open_loop(
    w: &Workload,
    seed: u64,
    seconds: f64,
    pool: &[PoolJob],
    report: &mut Report,
    between: &mut Between<'_>,
) -> Result<Outcome, String> {
    let dir = PathBuf::from(STATE_ROOT).join(format!("serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let result = serve_and_drive(w, seed, seconds, pool, report, between, &dir);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir(STATE_ROOT).ok();
    result
}

fn serve_and_drive(
    w: &Workload,
    seed: u64,
    seconds: f64,
    pool: &[PoolJob],
    report: &mut Report,
    between: &mut Between<'_>,
    dir: &std::path::Path,
) -> Result<Outcome, String> {
    let server = sgr_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: host_cpus().min(2),
        dir: dir.to_path_buf(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.addr();
    let connect = || Client::connect(addr).map_err(|e| format!("connecting: {e}"));

    let arrivals = schedule(w, seed, seconds);
    let segments = match w.arrivals {
        Arrivals::Served { segments, .. } => segments,
        Arrivals::Local => 1,
    };
    let length = seconds / segments as f64;
    let mut out = Outcome::default();
    for k in 0..segments {
        between(k, report)?;
        let from = length * k as f64;
        let part: Vec<&Arrival> = arrivals
            .iter()
            .filter(|a| a.due >= from && (a.due < from + length || k + 1 == segments))
            .collect();
        // Each segment is a client session with fresh submit and poll
        // connections. Whether a frame stalls depends on per-connection
        // delayed-ACK state, so new connections draw it anew and the
        // run averages over several draws.
        let mut submitter = connect()?;
        let mut poller = connect()?;
        drive_segment(
            &part,
            from,
            pool,
            &mut submitter,
            &mut poller,
            report,
            &mut out,
        )?;
    }
    between(segments, report)?;

    connect()?
        .shutdown_server()
        .map_err(|e| format!("shutting down server: {e}"))?;
    join_within(server, SHUTDOWN_DEADLINE)?;
    Ok(out)
}

/// Submits one segment's arrivals (due times offset by `from`) and
/// polls until every one is resolved, adding what the client saw to
/// `out`.
fn drive_segment(
    arrivals: &[&Arrival],
    from: f64,
    pool: &[PoolJob],
    submitter: &mut Client,
    poller: &mut Client,
    report: &mut Report,
    out: &mut Outcome,
) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(20);
    let mut failures = Vec::new();
    let polled = std::thread::scope(|s| {
        let poll = s.spawn(move || poll_loop(poller, &rx, pool));
        for a in arrivals {
            let due = start + Duration::from_secs_f64(a.due - from);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            out.generator_lag_max = out
                .generator_lag_max
                .max(sent.duration_since(due).as_secs_f64());
            let mut req = pool[a.spec].request.clone();
            req.tenant = a.tenant.to_string();
            match submitter.submit(&req) {
                Ok(id) => {
                    let acked = Instant::now();
                    out.submit_rtt
                        .push(acked.duration_since(sent).as_secs_f64());
                    let job = Submitted::Job {
                        id,
                        spec: a.spec,
                        due,
                        acked,
                    };
                    if tx.send(job).is_err() {
                        break;
                    }
                }
                Err(e) => failures.push(format!("submission rejected: {e}")),
            }
        }
        let _ = tx.send(Submitted::Done);
        poll.join().expect("poller thread panicked")
    });
    report.attempted += arrivals.len() as u64;
    let (polled, polled_failures, last_resolved) = polled?;
    for f in failures.into_iter().chain(polled_failures) {
        report.fail(f);
    }
    out.wall += last_resolved
        .unwrap_or(start)
        .duration_since(start)
        .as_secs_f64();
    out.latencies.extend(polled.latencies);
    out.status_rtt.extend(polled.status_rtt);
    out.fetch_rtt.extend(polled.fetch_rtt);
    out.fetch_bytes.extend(polled.fetch_bytes);
    out.queue_wait.extend(polled.queue_wait);
    out.run_secs.extend(polled.run_secs);
    out.overhead_ratio.extend(polled.overhead_ratio);
    out.checkpoints.extend(polled.checkpoints);
    out.polls += polled.polls;
    Ok(())
}

/// Waits for the server's threads, giving up after `limit`.
fn join_within(server: sgr_serve::ServerHandle, limit: Duration) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => {
            joiner.join().expect("joiner thread panicked");
            Ok(())
        }
        Err(_) => Err("server did not shut down in time".into()),
    }
}

/// Polls the job list until every submitted job is resolved: fetched
/// and verified byte-for-byte, failed, or past its deadline. Returns the
/// observations, the failures, and when the last job was resolved.
fn poll_loop(
    client: &mut Client,
    rx: &mpsc::Receiver<Submitted>,
    pool: &[PoolJob],
) -> Result<(Outcome, Vec<String>, Option<Instant>), String> {
    let mut p = Outcome::default();
    let mut failures = Vec::new();
    let mut last_resolved = None;
    let mut tracked: BTreeMap<u64, Tracked> = BTreeMap::new();
    let mut submitting = true;
    loop {
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Submitted::Job {
                    id,
                    spec,
                    due,
                    acked,
                } => {
                    tracked.insert(
                        id,
                        Tracked {
                            spec,
                            due,
                            acked,
                            running_seen: None,
                        },
                    );
                }
                Submitted::Done => submitting = false,
            }
        }
        if !submitting && tracked.is_empty() {
            return Ok((p, failures, last_resolved));
        }
        if tracked.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        let sent = Instant::now();
        let list = client.list().map_err(|e| format!("status poll: {e}"))?;
        let seen = Instant::now();
        p.status_rtt.push(seen.duration_since(sent).as_secs_f64());
        p.polls += 1;
        for status in list {
            let Some(job) = tracked.get_mut(&status.id) else {
                continue;
            };
            match status.state {
                JobState::Queued => {}
                JobState::Running => {
                    job.running_seen.get_or_insert(seen);
                }
                JobState::Completed => {
                    let job = tracked.remove(&status.id).expect("tracked job");
                    let sent = Instant::now();
                    let fetched = client.fetch(status.id);
                    let done = Instant::now();
                    last_resolved = Some(done);
                    match fetched {
                        Ok(bytes) if bytes == pool[job.spec].expected => {
                            p.fetch_rtt.push(done.duration_since(sent).as_secs_f64());
                            p.fetch_bytes.push(bytes.len() as f64);
                            p.latencies.push(done.duration_since(job.due).as_secs_f64());
                            let running = job.running_seen.unwrap_or(seen);
                            p.queue_wait
                                .push(running.duration_since(job.acked).as_secs_f64());
                            let run = seen.duration_since(running).as_secs_f64();
                            p.run_secs.push(run);
                            p.overhead_ratio.push(run / pool[job.spec].local_secs);
                            p.checkpoints.push(status.checkpoints as f64);
                        }
                        Ok(_) => failures.push(format!(
                            "job {}: fetched result differs from the local restoration",
                            status.id
                        )),
                        Err(e) => failures.push(format!("job {}: fetch: {e}", status.id)),
                    }
                }
                JobState::Failed | JobState::Interrupted => {
                    tracked.remove(&status.id);
                    last_resolved = Some(Instant::now());
                    failures.push(format!(
                        "job {} ended {}: {}",
                        status.id,
                        status.state.name(),
                        status.message
                    ));
                }
            }
        }
        let now = Instant::now();
        tracked.retain(|id, job| {
            let alive = now.duration_since(job.due) < JOB_DEADLINE;
            if !alive {
                failures.push(format!("job {id} missed its deadline"));
                last_resolved = Some(now);
            }
            alive
        });
        std::thread::sleep(POLL_INTERVAL);
    }
}
