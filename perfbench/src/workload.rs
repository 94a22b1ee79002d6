//! The workloads and the untraced (end-to-end) measurement.

use std::collections::VecDeque;
use std::time::Instant;

use sgr_core::{restore_with, ConstructScratch, RestoreConfig, Restored};
use sgr_graph::snapshot::{encode_csr, encode_section, KIND_CSR_GRAPH};
use sgr_props::StructuralProperties;
use sgr_sample::{run_crawl, CrawlSpec};
use sgr_util::alloc::{live_model_bytes, peak_model_bytes, reset_peak};
use sgr_util::Xoshiro256pp;

use crate::metrics::{derive_seed, mean, median, tail_percentile, Report};
use crate::served::{self, PoolJob};
use crate::setup::{props_config, Hidden};
use crate::traced;

/// Seed stream of the hidden graphs.
const STREAM_HIDDEN: u64 = 1;
/// Seed stream of the per-job crawl + restoration RNG.
const STREAM_JOB: u64 = 2;
/// Seed stream of the served arrival schedule.
pub const STREAM_ARRIVALS: u64 = 3;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["paper_rc500", "served_mix"];

/// How a workload's restorations arrive.
#[derive(Clone, Copy)]
pub enum Arrivals {
    /// One local client restoring back to back (closed loop), no
    /// checkpoint policy.
    Local,
    /// Independent users submitting to an in-process job server on a
    /// seeded Poisson schedule (open loop), under the server's default
    /// checkpoint cadence.
    Served {
        /// Distinct job specs (hidden graph + job seed) in the pool.
        specs: usize,
        /// Offered load in jobs per second.
        rate: f64,
        /// The schedule runs in this many equal segments, with local
        /// measurement blocks before, between and after them.
        segments: usize,
    },
}

/// One workload's fixed settings.
pub struct Workload {
    pub name: &'static str,
    /// Hidden-graph size (Holme–Kim, m = 4, p_t = 0.5).
    pub hidden_nodes: usize,
    /// Distinct hidden graphs; job `i` restores graph `i % graphs`.
    pub graphs: usize,
    /// Random-walk crawl budget as a fraction of the hidden nodes.
    pub fraction: f64,
    /// `R_C`.
    pub rc: f64,
    pub arrivals: Arrivals,
    /// Local: restorations every run makes whatever `--seconds` says,
    /// each also evaluated, one by one, spread over the window.
    /// `evaluate_s`, `mean_l1` and `peak_heap_bytes` are taken over
    /// exactly these, so the latter two repeat at a fixed seed.
    pub min_jobs: usize,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        let w = match name {
            "paper_rc500" => Workload {
                name: "paper_rc500",
                hidden_nodes: 2_000,
                graphs: 12,
                fraction: 0.3,
                rc: 500.0,
                arrivals: Arrivals::Local,
                min_jobs: 18,
                setup_reps: 2,
            },
            "served_mix" => Workload {
                name: "served_mix",
                hidden_nodes: 2_000,
                graphs: 16,
                fraction: 0.3,
                rc: 25.0,
                arrivals: Arrivals::Served {
                    specs: 16,
                    rate: 4.0,
                    segments: 8,
                },
                min_jobs: 0,
                setup_reps: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The restoration settings (sequential rewiring, no checkpoints).
    pub fn restore_config(&self) -> RestoreConfig {
        RestoreConfig {
            rewiring_coefficient: self.rc,
            rewire: true,
            threads: 1,
        }
    }

    /// Job `i` of a run seeded `seed`.
    pub fn spec(&self, seed: u64, i: usize) -> Spec {
        Spec {
            hidden: i % self.graphs,
            job_seed: derive_seed(seed, STREAM_JOB, i as u64),
        }
    }

    pub fn crawl_spec(&self) -> CrawlSpec {
        CrawlSpec {
            fraction: self.fraction,
            ..CrawlSpec::default()
        }
    }
}

/// One untraced restoration: `run_crawl` + `restore_with` from a fresh
/// RNG seeded with `job_seed` and a fresh scratch — the `sgr restore`
/// path and the job server's path, minus checkpoints.
pub struct LocalRun {
    pub restored: Restored,
    /// Wall seconds of crawl + restore.
    pub wall: f64,
    /// Peak modeled heap above the pre-run live level.
    pub peak_bytes: u64,
}

pub fn restore_once(w: &Workload, hidden: &Hidden, job_seed: u64) -> Result<LocalRun, String> {
    let live_before = live_model_bytes();
    reset_peak();
    let t = Instant::now();
    let mut rng = Xoshiro256pp::seed_from_u64(job_seed);
    let outcome = run_crawl(&hidden.graph, &w.crawl_spec(), &mut rng)?;
    let restored = restore_with(
        &outcome.crawl,
        &w.restore_config(),
        &mut rng,
        &mut ConstructScratch::new(),
    )
    .map_err(|e| format!("restore (job seed {job_seed}): {e}"))?;
    drop(outcome);
    let wall = t.elapsed().as_secs_f64();
    let peak_bytes = peak_model_bytes().saturating_sub(live_before);
    Ok(LocalRun {
        restored,
        wall,
        peak_bytes,
    })
}

/// The result bytes `sgr fetch` returns for this restoration.
pub fn result_bytes(restored: &Restored) -> Vec<u8> {
    encode_section(KIND_CSR_GRAPH, &encode_csr(&restored.snapshot))
}

/// Checks a restoration's own invariants: counters agree with the
/// graph, rewiring ran its `ceil(R_C · |Ẽ_rew|)` attempts, and did not
/// worsen the clustering distance.
fn check_restored(w: &Workload, r: &Restored) -> Result<(), String> {
    let s = &r.stats;
    let expected_attempts = (w.rc * s.candidate_edges as f64).ceil() as u64;
    if s.nodes != r.snapshot.num_nodes() || s.edges != r.snapshot.num_edges() {
        return Err(format!(
            "stats say {} nodes / {} edges, snapshot has {} / {}",
            s.nodes,
            s.edges,
            r.snapshot.num_nodes(),
            r.snapshot.num_edges()
        ));
    }
    if s.rewire_stats.attempts != expected_attempts {
        return Err(format!(
            "{} rewiring attempts, expected {expected_attempts}",
            s.rewire_stats.attempts
        ));
    }
    let (d0, d1) = (
        s.rewire_stats.initial_distance,
        s.rewire_stats.final_distance,
    );
    if d1.is_nan() || d1 > d0 {
        return Err(format!("rewiring worsened D: {d0} -> {d1}"));
    }
    Ok(())
}

/// Evaluates a restoration against its hidden graph: wall seconds of
/// `StructuralProperties::compute` and the mean of the 12 L1 distances.
fn evaluate(hidden: &Hidden, r: &Restored, report: &mut Report) -> (f64, f64) {
    let cfg = props_config();
    let t = Instant::now();
    let props = StructuralProperties::compute(&r.snapshot, &cfg);
    let secs = t.elapsed().as_secs_f64();
    let l1 = hidden.props.l1_distances(&props);
    let m = mean(&l1);
    report.check(l1.iter().all(|d| d.is_finite()), || {
        format!("non-finite L1 distances {l1:?}")
    });
    (secs, m)
}

/// One job spec: which hidden graph, restored from which seed.
#[derive(Clone, Copy)]
pub struct Spec {
    pub hidden: usize,
    pub job_seed: u64,
}

/// The inputs of one run, built by set-up.
pub struct Inputs {
    /// Local: one hidden graph. Served: `graphs` of them.
    pub hidden: Vec<Hidden>,
    /// Local: job 0 (the traced job). Served: the pool.
    pub specs: Vec<Spec>,
    /// Served: the locally restored expected result of each pool spec.
    pub expected: Vec<LocalRun>,
}

/// Set-up: hidden graphs, their properties, and (served) the expected
/// results. Returns the inputs and the wall seconds it took.
fn set_up(w: &Workload, seed: u64) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let cfg = props_config();
    let specs = match w.arrivals {
        Arrivals::Local => 1,
        Arrivals::Served { specs, .. } => specs,
    };
    let hidden = (0..w.graphs as u64)
        .map(|j| Hidden::generate(w.hidden_nodes, derive_seed(seed, STREAM_HIDDEN, j), &cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let specs: Vec<Spec> = (0..specs).map(|j| w.spec(seed, j)).collect();
    let mut expected = Vec::new();
    if matches!(w.arrivals, Arrivals::Served { .. }) {
        for s in &specs {
            expected.push(restore_once(w, &hidden[s.hidden], s.job_seed)?);
        }
    }
    let inputs = Inputs {
        hidden,
        specs,
        expected,
    };
    Ok((inputs, t.elapsed().as_secs_f64()))
}

/// Runs one workload and returns its report.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new();
    let mut setup_secs = Vec::with_capacity(w.setup_reps);
    let mut setup_restores = Vec::new();
    let mut inputs = None;
    // The traced run reports no set-up time, so it sets up once.
    let reps = if trace { 1 } else { w.setup_reps.max(1) };
    for _ in 0..reps {
        let (i, secs) = set_up(w, seed)?;
        setup_secs.push(secs);
        setup_restores.extend(i.expected.iter().map(|r| r.wall));
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up repetition");

    if trace {
        traced::run(w, seed, seconds, &inputs, &mut report)?;
        return Ok(report);
    }
    match w.arrivals {
        Arrivals::Local => run_local(w, seed, seconds, &inputs, &mut report)?,
        Arrivals::Served { .. } => {
            run_served(w, seed, seconds, &inputs, &setup_restores, &mut report)?
        }
    }
    report.put("setup_s", median(&setup_secs), "s");
    Ok(report)
}

/// End-to-end metrics of a local workload: restorations back to back
/// until `seconds` have passed (and at least `min_jobs` ran). The first
/// `min_jobs` restorations are kept and evaluated one by one at evenly
/// spaced points of the window, so the `evaluate_s` samples span it as
/// the `restore_s` ones do.
fn run_local(
    w: &Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let slot = seconds / w.min_jobs.max(1) as f64;
    let (mut walls, mut evals, mut l1s, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pending: VecDeque<(usize, LocalRun)> = VecDeque::new();
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = i >= w.min_jobs && elapsed >= seconds;
        if done || elapsed >= evals.len() as f64 * slot {
            if let Some((j, run)) = pending.pop_front() {
                let hidden = &inputs.hidden[w.spec(seed, j).hidden];
                let (secs, l1) = evaluate(hidden, &run.restored, report);
                eprintln!(
                    "{} job {j}: evaluate {secs:.3} s, mean L1 {l1:.4}, peak heap {} B",
                    w.name, run.peak_bytes
                );
                evals.push(secs);
                l1s.push(l1);
                peaks.push(run.peak_bytes as f64);
                continue;
            }
        }
        if done {
            break;
        }
        let spec = w.spec(seed, i);
        report.attempted += 1;
        match restore_once(w, &inputs.hidden[spec.hidden], spec.job_seed) {
            Ok(run) => {
                if let Err(e) = check_restored(w, &run.restored) {
                    report.fail(e);
                }
                let st = &run.restored.stats;
                eprintln!(
                    "{} job {i}: {} nodes, {} attempts, restore {:.3} s",
                    w.name, st.nodes, st.rewire_stats.attempts, run.wall
                );
                walls.push(run.wall);
                if i < w.min_jobs {
                    pending.push_back((i, run));
                }
            }
            Err(e) => report.fail(e),
        }
        i += 1;
    }
    let total: f64 = walls.iter().sum();
    let (p90, _) = tail_percentile(&walls);
    report.put("restore_s", median(&walls), "s");
    report.put("evaluate_s", median(&evals), "s");
    report.put("mean_l1", mean(&l1s), "1");
    report.put("peak_heap_bytes", median(&peaks), "B");
    report.put("job_latency_p50_s", median(&walls), "s");
    report.put("job_latency_p90_s", p90, "s");
    report.put("jobs_per_s", walls.len() as f64 / total, "1/s");
    put_success(report);
    Ok(())
}

/// End-to-end metrics of the served workload.
fn run_served(
    w: &Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    setup_restores: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let pool = pool_jobs(w, inputs);
    let blocks = match w.arrivals {
        Arrivals::Served { segments, .. } => segments + 1,
        Arrivals::Local => 1,
    };
    // The local measurements run in blocks before, between and after
    // the served segments, while the server is idle, so their samples
    // span the window; restore_s also counts the set-up restorations.
    // Block k restores the half of the pool of k's parity, and each
    // result must reproduce the expected one. It also evaluates the pool
    // results i with i % blocks == k; the served results match those
    // byte for byte, so this evaluates the served output.
    let mut restores = setup_restores.to_vec();
    let (mut evals, mut l1s) = (Vec::new(), Vec::new());
    let mut block = |k: usize, report: &mut Report| -> Result<(), String> {
        for (i, (spec, job)) in inputs.specs.iter().zip(&pool).enumerate() {
            let hidden = &inputs.hidden[spec.hidden];
            if i % 2 == k % 2 {
                report.attempted += 1;
                match restore_once(w, hidden, spec.job_seed) {
                    Ok(run) => {
                        restores.push(run.wall);
                        if let Err(e) = check_restored(w, &run.restored) {
                            report.fail(e);
                        } else if result_bytes(&run.restored) != job.expected {
                            report.fail(format!(
                                "job seed {}: restoring twice gave two results",
                                spec.job_seed
                            ));
                        }
                    }
                    Err(e) => report.fail(e),
                }
            }
            if i % blocks == k {
                let (secs, l1) = evaluate(hidden, &inputs.expected[i].restored, report);
                evals.push(secs);
                l1s.push(l1);
            }
        }
        Ok(())
    };
    let out = served::open_loop(w, seed, seconds, &pool, report, &mut block)?;
    let peaks: Vec<f64> = inputs
        .expected
        .iter()
        .map(|r| r.peak_bytes as f64)
        .collect();
    let (p90, beyond) = tail_percentile(&out.latencies);
    eprintln!(
        "{}: {} verified jobs, {beyond} beyond job_latency_p90_s",
        w.name,
        out.latencies.len()
    );
    report.put("restore_s", median(&restores), "s");
    report.put("evaluate_s", median(&evals), "s");
    report.put("mean_l1", mean(&l1s), "1");
    report.put("peak_heap_bytes", median(&peaks), "B");
    report.put("job_latency_p50_s", median(&out.latencies), "s");
    report.put("job_latency_p90_s", p90, "s");
    report.put("jobs_per_s", out.latencies.len() as f64 / out.wall, "1/s");
    put_success(report);
    Ok(())
}

/// The served pool: one submission template and expected result per spec.
pub fn pool_jobs(w: &Workload, inputs: &Inputs) -> Vec<PoolJob> {
    inputs
        .specs
        .iter()
        .zip(&inputs.expected)
        .map(|(spec, run)| PoolJob {
            request: served::submit_request(w, &inputs.hidden[spec.hidden].edges, spec.job_seed),
            expected: result_bytes(&run.restored),
            local_secs: run.wall,
        })
        .collect()
}

/// `success_frac`: the share of attempted operations that passed every
/// check (1 − fail_frac; reported this way because a metric must never
/// read 0).
fn put_success(report: &mut Report) {
    let attempted = report.attempted.max(1) as f64;
    report.put(
        "success_frac",
        (attempted - report.failed as f64) / attempted,
        "1",
    );
}
