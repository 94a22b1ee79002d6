//! Equivalence and invariant tests for the evaluate-then-commit rewiring
//! engine against the apply-rollback reference.
//!
//! The two implementations share swap picking (RNG-draw order) and the
//! decision fold (float-operation order), so for the same seed they must
//! agree **exactly**: same accept/reject sequence, same final edge
//! multiset, bitwise-identical final distance. These tests assert that,
//! plus the DV/JDM preservation invariant and the allocation-free /
//! mutation-free guarantees of the new engine's reject path.

use proptest::prelude::*;
use sgr_dk::extract::joint_degree_matrix;
use sgr_dk::rewire::reference::ApplyRollbackEngine;
use sgr_dk::rewire::RewireEngine;
use sgr_graph::{Graph, NodeId};
use sgr_props::local::LocalProperties;
use sgr_util::Xoshiro256pp;

mod common;
use common::count_allocs;

fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (30usize..150, 2usize..4, 0.0f64..0.8, 0u64..1_000).prop_map(|(n, m, pt, seed)| {
        sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    })
}

/// A graph with stub-matching artifacts (multi-edges and self-loops)
/// mixed in, as the construction phase produces.
fn messy_graph(seed: u64) -> Graph {
    let mut g = sgr_gen::holme_kim(200, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xabcd);
    for _ in 0..6 {
        let u = rng.gen_range(g.num_nodes()) as NodeId;
        g.add_edge(u, u);
    }
    for _ in 0..6 {
        let u = rng.gen_range(g.num_nodes()) as NodeId;
        let v = rng.gen_range(g.num_nodes()) as NodeId;
        g.add_edge(u, v);
    }
    g
}

/// Both engines, same seed: per-attempt decisions, final edges, final
/// distance must agree (distance bitwise).
fn assert_equivalent(g: Graph, target: &[f64], rng_seed: u64, attempts: u64) {
    let edges: Vec<_> = g.edges().collect();
    let mut fast = RewireEngine::new(g.clone(), edges.clone(), target);
    let mut slow = ApplyRollbackEngine::new(g, edges, target);

    let mut rng_f = Xoshiro256pp::seed_from_u64(rng_seed);
    let mut rng_s = Xoshiro256pp::seed_from_u64(rng_seed);
    for i in 0..attempts {
        let a = fast.attempt(&mut rng_f);
        let b = slow.attempt(&mut rng_s);
        assert_eq!(a, b, "decision diverged at attempt {i}");
        assert_eq!(
            fast.distance().to_bits(),
            slow.distance().to_bits(),
            "distance diverged at attempt {i}: {} vs {}",
            fast.distance(),
            slow.distance()
        );
    }
    fast.validate().unwrap();
    slow.validate().unwrap();
    let gf = fast.into_graph();
    let gs = slow.into_graph();
    assert_eq!(
        sorted_edges(&gf),
        sorted_edges(&gs),
        "edge multisets diverged"
    );
}

#[test]
fn engines_agree_toward_zero_clustering() {
    let g = messy_graph(1);
    let target = vec![0.0; g.max_degree() + 1];
    assert_equivalent(g, &target, 42, 8_000);
}

#[test]
fn engines_agree_toward_half_clustering() {
    let g = messy_graph(2);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    assert_equivalent(g, &target, 7, 8_000);
}

#[test]
fn engines_agree_toward_inflated_clustering() {
    // Triangle-building direction: most attempts reject, exercising the
    // hot path the optimization targets.
    let g = messy_graph(3);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| (c * 1.5).min(1.0))
        .collect();
    assert_equivalent(g, &target, 9, 8_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_arbitrary_graphs(
        g in arb_graph(),
        seed in 0u64..10_000,
        shrink in 0.0f64..1.0,
    ) {
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * shrink)
            .collect();
        assert_equivalent(g, &target, seed, 2_000);
    }

    #[test]
    fn dv_and_jdm_are_exactly_preserved_by_run(g in arb_graph(), seed in 0u64..10_000) {
        let dv = g.degree_vector();
        let jdm = joint_degree_matrix(&g);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        eng.run(4.0, &mut rng);
        eng.validate().unwrap();
        let g2 = eng.into_graph();
        prop_assert_eq!(g2.degree_vector(), dv);
        prop_assert_eq!(joint_degree_matrix(&g2), jdm);
    }
}

#[test]
fn rejected_attempts_perform_zero_heap_allocations() {
    // The acceptance-criterion guarantee: a rejected attempt touches no
    // shared state and performs zero heap allocations. (Accepted swaps
    // may rarely grow an index vec when they introduce a new distinct
    // neighbor — amortized, and irrelevant to the reject-dominated tail.)
    let g = messy_graph(4);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let (mut accepts, mut rejects) = (0u64, 0u64);
    for i in 0..20_000u64 {
        let (allocs, accepted) = count_allocs(|| eng.attempt(&mut rng));
        if accepted {
            accepts += 1;
        } else {
            rejects += 1;
            assert_eq!(allocs, 0, "rejected attempt {i} allocated {allocs} times");
        }
    }
    assert!(accepts > 0, "want a mix of accepts and rejects");
    assert!(rejects > 0, "want a mix of accepts and rejects");
    eng.validate().unwrap();
}

#[test]
fn reference_engine_does_allocate_per_attempt() {
    // Sanity-check the counter itself: the baseline must show the very
    // allocations the new engine eliminates.
    let g = messy_graph(5);
    let target = vec![0.0; g.max_degree() + 1];
    let edges: Vec<_> = g.edges().collect();
    let mut eng = ApplyRollbackEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let (allocs, _) = count_allocs(|| eng.run_attempts(1_000, &mut rng));
    assert!(allocs > 0, "baseline unexpectedly allocation-free");
}

#[test]
fn rejected_attempts_leave_graph_and_index_untouched() {
    let g = messy_graph(6);
    let props = LocalProperties::compute(&g);
    // Unreachable target far above current clustering: triangle-creating
    // swaps are rare, so nearly everything rejects.
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| (c * 3.0).min(1.0))
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g.clone(), edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let before = sorted_edges(&g);
    let mut rejected_streak = Vec::new();
    for _ in 0..500 {
        rejected_streak.push(eng.attempt(&mut rng));
    }
    if rejected_streak.iter().all(|&a| !a) {
        // Pure-reject run: the graph must be bit-for-bit unchanged.
        let after = sorted_edges(&eng.into_graph());
        assert_eq!(before, after);
    } else {
        // Some accepts happened; the engine must still validate.
        eng.validate().unwrap();
    }
}
