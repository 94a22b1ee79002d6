//! Declarative crawl specifications — one value that names a crawler and
//! its parameters, runnable against any hidden graph.
//!
//! The CLI (`sgr crawl` / `sgr restore`) and the `sgr serve` job server
//! both accept "crawl this fraction with that walk" requests; this module
//! is the single dispatch point so the two front ends cannot drift. The
//! RNG discipline is part of the contract: [`run_crawl`] consumes the
//! stream exactly as the original CLI path did — one draw for the seed
//! node via [`AccessModel::random_seed`], then whatever the chosen crawler
//! draws — so a job submitted over the wire reproduces `sgr restore`'s
//! crawl bit for bit given the same seed.

use crate::access::AccessModel;
use crate::crawl::{bfs, forest_fire, snowball, Crawl};
use crate::walks::{metropolis_hastings_walk, non_backtracking_walk, random_walk};
use sgr_graph::GraphView;
use sgr_util::Xoshiro256pp;

/// The crawler families the pipeline accepts (§II, §V-D of the paper plus
/// the Related-Work walks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkKind {
    /// Simple random walk — the proposed method's crawler.
    RandomWalk,
    /// Breadth-first search.
    Bfs,
    /// Snowball sampling with per-node fan-out cap `k`.
    Snowball,
    /// Forest-fire sampling with burn parameter `p_f`.
    ForestFire,
    /// Non-backtracking random walk.
    NonBacktracking,
    /// Metropolis-Hastings random walk.
    MetropolisHastings,
}

impl WalkKind {
    /// Parses the CLI/wire name (`rw`, `bfs`, `snowball`, `ff`, `nbrw`,
    /// `mhrw`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "rw" => WalkKind::RandomWalk,
            "bfs" => WalkKind::Bfs,
            "snowball" => WalkKind::Snowball,
            "ff" => WalkKind::ForestFire,
            "nbrw" => WalkKind::NonBacktracking,
            "mhrw" => WalkKind::MetropolisHastings,
            _ => return None,
        })
    }

    /// The canonical short name (inverse of [`WalkKind::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            WalkKind::RandomWalk => "rw",
            WalkKind::Bfs => "bfs",
            WalkKind::Snowball => "snowball",
            WalkKind::ForestFire => "ff",
            WalkKind::NonBacktracking => "nbrw",
            WalkKind::MetropolisHastings => "mhrw",
        }
    }

    /// Stable numeric code for wire/persistence encodings.
    pub fn code(&self) -> u32 {
        match self {
            WalkKind::RandomWalk => 1,
            WalkKind::Bfs => 2,
            WalkKind::Snowball => 3,
            WalkKind::ForestFire => 4,
            WalkKind::NonBacktracking => 5,
            WalkKind::MetropolisHastings => 6,
        }
    }

    /// Inverse of [`WalkKind::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        Some(match code {
            1 => WalkKind::RandomWalk,
            2 => WalkKind::Bfs,
            3 => WalkKind::Snowball,
            4 => WalkKind::ForestFire,
            5 => WalkKind::NonBacktracking,
            6 => WalkKind::MetropolisHastings,
            _ => return None,
        })
    }
}

/// A complete crawl request: which crawler, how much of the graph, and
/// the crawler-specific knobs (ignored by crawlers that don't use them).
#[derive(Clone, Copy, Debug)]
pub struct CrawlSpec {
    /// The crawler family.
    pub walk: WalkKind,
    /// Fraction of the hidden graph's nodes to query, in `[0, 1]`
    /// (rounded to a node count, minimum 1).
    pub fraction: f64,
    /// Snowball fan-out cap `k` (the paper uses 50).
    pub snowball_k: usize,
    /// Forest-fire burn parameter `p_f` in `[0, 1)`.
    pub burn_prob: f64,
}

impl Default for CrawlSpec {
    fn default() -> Self {
        Self {
            walk: WalkKind::RandomWalk,
            fraction: 0.1,
            snowball_k: 50,
            burn_prob: 0.7,
        }
    }
}

impl CrawlSpec {
    /// Validates the parameter ranges; consumes no RNG, so rejecting a
    /// spec never perturbs a stream.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.fraction) {
            return Err("--fraction must be in [0, 1]".into());
        }
        if self.walk == WalkKind::ForestFire && !(0.0..1.0).contains(&self.burn_prob) {
            return Err("--pf must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// A finished crawl plus the access-model telemetry front ends report.
#[derive(Debug)]
pub struct CrawlOutcome {
    /// The sampling list `L`.
    pub crawl: Crawl,
    /// Total queries issued against the hidden graph's API.
    pub query_calls: usize,
    /// Fraction of the hidden graph's nodes that was queried.
    pub queried_fraction: f64,
}

/// Runs `spec` against the hidden graph behind a fresh [`AccessModel`].
///
/// RNG contract: exactly one `random_seed` draw, then the crawler's own
/// draws — the stream the CLI has always consumed, pinned by the server
/// determinism suite. An invalid spec or a graph with no nodes is an
/// error returned before any draw.
pub fn run_crawl<G: GraphView>(
    g: &G,
    spec: &CrawlSpec,
    rng: &mut Xoshiro256pp,
) -> Result<CrawlOutcome, String> {
    spec.validate()?;
    if g.num_nodes() == 0 {
        return Err("empty hidden graph: no node to start the crawl from".into());
    }
    let target = ((g.num_nodes() as f64 * spec.fraction).round() as usize).max(1);
    let mut am = AccessModel::new(g);
    let seed_node = am.random_seed(rng);
    let crawl = match spec.walk {
        WalkKind::RandomWalk => random_walk(&mut am, seed_node, target, rng),
        WalkKind::Bfs => bfs(&mut am, seed_node, target),
        WalkKind::Snowball => snowball(&mut am, seed_node, spec.snowball_k, target, rng),
        WalkKind::ForestFire => forest_fire(&mut am, seed_node, spec.burn_prob, target, rng),
        WalkKind::NonBacktracking => non_backtracking_walk(&mut am, seed_node, target, rng),
        WalkKind::MetropolisHastings => metropolis_hastings_walk(&mut am, seed_node, target, rng),
    };
    Ok(CrawlOutcome {
        crawl,
        query_calls: am.query_calls(),
        queried_fraction: am.queried_fraction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_graph::Graph;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn names_and_codes_roundtrip() {
        for name in ["rw", "bfs", "snowball", "ff", "nbrw", "mhrw"] {
            let kind = WalkKind::from_name(name).unwrap();
            assert_eq!(kind.name(), name);
            assert_eq!(WalkKind::from_code(kind.code()), Some(kind));
        }
        assert!(WalkKind::from_name("dfs").is_none());
        assert!(WalkKind::from_code(0).is_none());
        assert!(WalkKind::from_code(7).is_none());
    }

    #[test]
    fn validation_rejects_bad_ranges_without_consuming_rng() {
        let bad = CrawlSpec {
            fraction: 1.5,
            ..CrawlSpec::default()
        };
        assert!(bad.validate().is_err());
        let bad_pf = CrawlSpec {
            walk: WalkKind::ForestFire,
            burn_prob: 1.0,
            ..CrawlSpec::default()
        };
        assert!(bad_pf.validate().is_err());
        // pf is ignored (and unvalidated) for non-forest-fire walks.
        let ok = CrawlSpec {
            walk: WalkKind::RandomWalk,
            burn_prob: 1.0,
            ..CrawlSpec::default()
        };
        assert!(ok.validate().is_ok());
    }

    /// The spec dispatch must consume the identical RNG stream as calling
    /// the crawler directly with a hand-rolled seed draw (the historic
    /// CLI path).
    #[test]
    fn spec_dispatch_matches_direct_call_stream() {
        let g = ring(60);
        let spec = CrawlSpec {
            fraction: 0.2,
            ..CrawlSpec::default()
        };
        let mut rng_a = Xoshiro256pp::seed_from_u64(99);
        let out = run_crawl(&g, &spec, &mut rng_a).unwrap();
        let mut rng_b = Xoshiro256pp::seed_from_u64(99);
        let mut am = AccessModel::new(&g);
        let seed_node = am.random_seed(&mut rng_b);
        let direct = random_walk(&mut am, seed_node, 12, &mut rng_b);
        assert_eq!(out.crawl.seq, direct.seq);
        assert_eq!(out.query_calls, am.query_calls());
        // Both streams end at the same position.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn empty_graph_is_an_error_without_consuming_rng() {
        let g = Graph::with_nodes(0);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let err = run_crawl(&g, &CrawlSpec::default(), &mut rng).unwrap_err();
        assert!(err.contains("empty hidden graph"), "{err}");
        assert_eq!(
            rng.next_u64(),
            Xoshiro256pp::seed_from_u64(5).next_u64(),
            "the RNG must be untouched"
        );
    }

    #[test]
    fn every_walk_kind_runs() {
        let g = ring(40);
        for code in 1..=6 {
            let spec = CrawlSpec {
                walk: WalkKind::from_code(code).unwrap(),
                fraction: 0.25,
                ..CrawlSpec::default()
            };
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let out = run_crawl(&g, &spec, &mut rng).unwrap();
            assert!(out.crawl.num_queried() > 0, "walk code {code}");
        }
    }
}
