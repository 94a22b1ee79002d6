//! The traced run: the pipeline recomposed from each layer's public
//! calls, each timed from outside, checked bitwise against the untraced
//! `restore_with` and `StructuralProperties::compute`; then the served
//! path with the client timing every request.

use std::time::Instant;

use sgr_core::{construct, target_dv, target_jdm, ConstructScratch, RestoreStats};
use sgr_dk::rewire::RewireEngine;
use sgr_estimate::estimate_all;
use sgr_graph::components::largest_component_csr;
use sgr_graph::snapshot::encode_csr;
use sgr_graph::{CsrGraph, GraphView};
use sgr_props::{betweenness, local, paths, spectral, StructuralProperties};
use sgr_sample::run_crawl;
use sgr_util::Xoshiro256pp;

use crate::metrics::{median, tail_percentile, Report};
use crate::served::{self, PoolJob};
use crate::setup::props_config;
use crate::workload::{pool_jobs, restore_once, result_bytes, Arrivals, Inputs, Workload};

/// Spans in the order they ran: layer-qualified name and seconds.
#[derive(Default)]
struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Runs `f` inside a span named `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0.push((name, t.elapsed().as_secs_f64()));
        r
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    fn total(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

/// What the traced composition produced, for the bitwise checks.
struct Composed {
    snapshot: CsrGraph,
    edges: Vec<(u32, u32)>,
    props: StructuralProperties,
    queries: usize,
    walk_len: usize,
    added_edges: usize,
    attempts: u64,
    accepted: u64,
    final_distance: f64,
}

/// Crawl → estimate → targets → construct → rewire → freeze → the five
/// property kernels, exactly as `restore_with` and
/// `StructuralProperties::compute` sequence them.
fn compose(
    w: &Workload,
    graph: &sgr_graph::Graph,
    job_seed: u64,
    spans: &mut Spans,
) -> Result<Composed, String> {
    let mut rng = Xoshiro256pp::seed_from_u64(job_seed);
    let outcome = spans.time("sample.crawl_s", || {
        run_crawl(graph, &w.crawl_spec(), &mut rng)
    })?;
    let crawl = &outcome.crawl;
    if crawl.num_queried() == 0 {
        return Err("crawl queried no node".into());
    }
    let estimates = spans
        .time("estimate.estimate_s", || estimate_all(crawl))
        .map_err(|e| format!("estimation: {e}"))?;
    let subgraph = spans.time("estimate.subgraph_s", || crawl.subgraph());
    let mut dv = spans.time("core.target_dv_s", || {
        target_dv::build(&subgraph, &estimates, &mut rng)
    });
    let (jdm, _) = spans
        .time("core.target_jdm_s", || {
            target_jdm::build_with_stats(&subgraph, &estimates, &mut dv)
        })
        .map_err(|e| format!("target JDM: {e}"))?;
    let built = spans
        .time("core.construct_s", || {
            construct::extend_subgraph_with(
                &subgraph,
                &dv,
                &jdm,
                &mut rng,
                &mut ConstructScratch::new(),
            )
        })
        .map_err(|e| format!("construct: {e}"))?;
    let added_edges = built.added_edges.len();
    let total = (w.rc * added_edges as f64).ceil() as u64;
    let mut engine = spans.time("dk.rewire_init_s", || {
        let mut target_c = estimates.clustering.clone();
        target_c.resize(dv.k_max + 1, 0.0);
        RewireEngine::new(built.graph, built.added_edges, &target_c)
    });
    let (stats, graph) = spans.time("dk.rewire_run_s", || {
        let stats = engine.run_attempts(total, &mut rng);
        (stats, engine.into_graph())
    });
    let snapshot = spans.time("graph.freeze_s", || graph.freeze());

    let cfg = props_config();
    let lp = spans.time("props.local_s", || {
        local::LocalProperties::compute(&snapshot)
    });
    let (lcc, _) = spans.time("props.lcc_s", || largest_component_csr(&snapshot));
    let sp = spans.time("props.paths_s", || {
        paths::shortest_path_properties(&lcc, &cfg)
    });
    let btw = spans.time("props.betweenness_s", || {
        betweenness::betweenness_by_degree(&lcc, &cfg)
    });
    let lambda1 = spans.time("props.spectral_s", || {
        spectral::largest_eigenvalue(&snapshot, 1e-10, 1000)
    });
    let props = StructuralProperties {
        num_nodes: snapshot.num_nodes() as f64,
        avg_degree: snapshot.average_degree(),
        degree_dist: lp.degree_dist,
        knn: lp.knn,
        mean_clustering: lp.mean_clustering,
        clustering_by_degree: lp.clustering_by_degree,
        shared_partner_dist: lp.shared_partner_dist,
        avg_path_length: sp.average_length,
        path_length_dist: sp.length_dist,
        diameter: sp.diameter as f64,
        betweenness_by_degree: btw,
        lambda1,
    };
    Ok(Composed {
        edges: graph.edges().collect(),
        snapshot,
        props,
        queries: outcome.query_calls,
        walk_len: crawl.len(),
        added_edges,
        attempts: stats.attempts,
        accepted: stats.accepted,
        final_distance: stats.final_distance,
    })
}

/// The 12 properties as bit patterns, for exact comparison.
fn prop_bits(p: &StructuralProperties) -> Vec<Vec<u64>> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    vec![
        bits(&[p.num_nodes]),
        bits(&[p.avg_degree]),
        bits(&p.degree_dist),
        bits(&p.knn),
        bits(&[p.mean_clustering]),
        bits(&p.clustering_by_degree),
        bits(&p.shared_partner_dist),
        bits(&[p.avg_path_length]),
        bits(&p.path_length_dist),
        bits(&[p.diameter]),
        bits(&p.betweenness_by_degree),
        bits(&[p.lambda1]),
    ]
}

/// Runs the traced measurement of workload `w` and puts every per-layer
/// metric into `report`.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    let spec = inputs.specs[0];
    let hidden = &inputs.hidden[spec.hidden];
    let job_seed = spec.job_seed;
    let cfg = props_config();

    // Untraced reference: the real entry points, timed as a user sees them.
    let untraced = restore_once(w, hidden, job_seed)?;
    let t = Instant::now();
    let reference_props = StructuralProperties::compute(&untraced.restored.snapshot, &cfg);
    let untraced_wall = untraced.wall + t.elapsed().as_secs_f64();
    let stats: RestoreStats = untraced.restored.stats;

    let mut spans = Spans::default();
    let t = Instant::now();
    let composed = compose(w, &hidden.graph, job_seed, &mut spans)?;
    let traced_wall = t.elapsed().as_secs_f64();

    let restored = &untraced.restored;
    report.check(
        composed.edges == restored.graph.edges().collect::<Vec<_>>(),
        || "traced composition's edge sequence differs from restore_with's".into(),
    );
    report.check(
        encode_csr(&composed.snapshot) == encode_csr(&restored.snapshot),
        || "traced composition's snapshot differs from restore_with's".into(),
    );
    report.check(
        composed.accepted == stats.rewire_stats.accepted
            && composed.final_distance.to_bits() == stats.rewire_stats.final_distance.to_bits(),
        || "traced rewiring counters differ from restore_with's".into(),
    );
    let (a, b) = (prop_bits(&composed.props), prop_bits(&reference_props));
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        report.check(x == y, || {
            format!(
                "traced property {} differs from StructuralProperties::compute",
                sgr_props::PROPERTY_NAMES[i]
            )
        });
    }

    for name in [
        "sample.crawl_s",
        "estimate.estimate_s",
        "estimate.subgraph_s",
        "core.target_dv_s",
        "core.target_jdm_s",
        "core.construct_s",
        "dk.rewire_init_s",
        "dk.rewire_run_s",
        "graph.freeze_s",
        "props.local_s",
        "props.lcc_s",
        "props.paths_s",
        "props.betweenness_s",
        "props.spectral_s",
    ] {
        report.put(name, spans.get(name), "s");
    }
    report.put("sample.queries", composed.queries as f64, "count");
    report.put("sample.walk_len", composed.walk_len as f64, "count");
    report.put("core.added_edges", composed.added_edges as f64, "count");
    report.put(
        "core.stats_unattributed_s",
        untraced.wall - (spans.get("sample.crawl_s") + stats.total_secs()),
        "s",
    );
    let attempts = composed.attempts.max(1) as f64;
    report.put("dk.attempts", composed.attempts as f64, "count");
    report.put("dk.accepted", composed.accepted as f64, "count");
    report.put("dk.accept_ratio", composed.accepted as f64 / attempts, "1");
    report.put(
        "dk.attempt_ns",
        spans.get("dk.rewire_run_s") / attempts * 1e9,
        "ns",
    );
    report.put("dk.final_distance", composed.final_distance, "1");

    // The served path. A local workload submits its traced job once (the
    // serve layer's cost at that job size); served_mix replays its whole
    // open-loop schedule.
    let pool: Vec<PoolJob> = match w.arrivals {
        Arrivals::Local => vec![PoolJob {
            request: served::submit_request(w, &hidden.edges, job_seed),
            expected: result_bytes(restored),
            local_secs: untraced.wall,
        }],
        Arrivals::Served { .. } => pool_jobs(w, inputs),
    };
    drop(untraced);
    let out = served::open_loop(w, seed, seconds, &pool, report, &mut |_, _| Ok(()))?;
    let jobs = out.latencies.len().max(1) as f64;
    let (_, beyond_p90) = tail_percentile(&out.latencies);
    report.put("serve.submit_s", median(&out.submit_rtt), "s");
    report.put("serve.status_rtt_s", median(&out.status_rtt), "s");
    report.put("serve.fetch_s", median(&out.fetch_rtt), "s");
    report.put("serve.fetch_bytes", median(&out.fetch_bytes), "B");
    report.put("serve.queue_wait_s", median(&out.queue_wait), "s");
    report.put("serve.run_s", median(&out.run_secs), "s");
    report.put("serve.polls_per_job", out.polls as f64 / jobs, "count");
    report.put(
        "serve.checkpoints_per_job",
        median(&out.checkpoints),
        "count",
    );
    report.put("serve.overhead_ratio", median(&out.overhead_ratio), "1");

    report.put("bench.traced_wall_s", traced_wall, "s");
    report.put("bench.unattributed_s", traced_wall - spans.total(), "s");
    report.put("bench.tracing_overhead_s", traced_wall - untraced_wall, "s");
    report.put("bench.generator_lag_max_s", out.generator_lag_max, "s");
    report.put("bench.latency_samples", out.latencies.len() as f64, "count");
    report.put("bench.latency_beyond_p90", beyond_p90 as f64, "count");
    Ok(())
}
