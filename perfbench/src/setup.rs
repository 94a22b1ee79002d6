//! Set-up: the hidden graphs a workload restores, as a user would hand
//! them to the program, plus their structural properties (the reference
//! the accuracy metric compares against).

use std::io::Cursor;

use sgr_graph::io::{read_edge_list, write_edge_list};
use sgr_graph::Graph;
use sgr_props::{PropsConfig, StructuralProperties};
use sgr_util::Xoshiro256pp;

/// Holme–Kim edges per new node.
const HK_M: usize = 4;
/// Holme–Kim triad-formation probability.
const HK_PT: f64 = 0.5;

/// One hidden graph: the edge-list bytes a client submits, the graph
/// read back from them (the exact `sgr restore --graph` input path), and
/// its 12 properties.
pub struct Hidden {
    pub edges: Vec<u8>,
    pub graph: Graph,
    pub props: StructuralProperties,
}

impl Hidden {
    /// Generates the Holme–Kim graph of `nodes` nodes from `seed`.
    pub fn generate(nodes: usize, seed: u64, props_cfg: &PropsConfig) -> Result<Self, String> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let generated = sgr_gen::holme_kim(nodes, HK_M, HK_PT, &mut rng)
            .map_err(|e| format!("generating hidden graph: {e}"))?;
        let mut edges = Vec::new();
        write_edge_list(&generated, &mut edges).map_err(|e| e.to_string())?;
        drop(generated);
        let (graph, _) =
            read_edge_list(Cursor::new(&edges[..])).map_err(|e| format!("edge list: {e}"))?;
        let props = StructuralProperties::compute(&graph, props_cfg);
        Ok(Hidden {
            edges,
            graph,
            props,
        })
    }
}

/// The property-computation settings every workload evaluates with: the
/// library defaults (exact below 4,000 nodes, 512 sampled pivots above)
/// on at most two threads.
pub fn props_config() -> PropsConfig {
    PropsConfig {
        threads: host_cpus().min(2),
        ..PropsConfig::default()
    }
}

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
