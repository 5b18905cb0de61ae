//! The named workloads, the seeds derived from a workload seed, and the
//! snapshot files each run generates before timing.

use mpx_compress::{apply_permutation, reorder_permutation, write_compressed_snapshot, Reorder};
use mpx_graph::snapshot::{write_snapshot, write_weighted_snapshot};
use mpx_graph::{gen, CsrGraph, Vertex, WeightedCsrGraph};
use mpx_par::rng::hash_index;
use std::io;
use std::path::{Path, PathBuf};

/// Which public front door a workload's ops go through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A warm unweighted `Decomposer` session over a v1 snapshot.
    Session,
    /// A warm `WeightedDecomposer` session over a weighted v1 snapshot.
    Weighted,
    /// An in-process `mpx-serve` server over a reordered v2 snapshot.
    Serve,
}

impl Kind {
    /// The kinds a traced run of `self` also runs briefly, so that every
    /// layer is measured on every workload's graph. Serve's in-process
    /// checks already reach every layer a session op does.
    pub fn companions(self) -> &'static [Kind] {
        match self {
            Kind::Session => &[Kind::Weighted, Kind::Serve],
            Kind::Weighted => &[Kind::Session, Kind::Serve],
            Kind::Serve => &[Kind::Weighted],
        }
    }
}

/// Graph family of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// R-MAT with `2^scale` vertices, edge factor 8, (0.57, 0.19, 0.19).
    Rmat(u32),
    /// A `side × side` grid.
    Grid(usize),
}

/// One named workload.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Full-size graph.
    pub topology: Topology,
    /// Graph used by `--tiny` (smoke tests).
    pub tiny: Topology,
    /// How its ops reach the library.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "session-rmat16",
        topology: Topology::Rmat(16),
        tiny: Topology::Rmat(10),
        kind: Kind::Session,
    },
    Workload {
        name: "session-grid400",
        topology: Topology::Grid(400),
        tiny: Topology::Grid(40),
        kind: Kind::Session,
    },
    Workload {
        name: "serve-rmat16-v2",
        topology: Topology::Rmat(16),
        tiny: Topology::Rmat(10),
        kind: Kind::Serve,
    },
    Workload {
        name: "weighted-rmat14",
        topology: Topology::Rmat(14),
        tiny: Topology::Rmat(9),
        kind: Kind::Weighted,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every seed of a run, derived from the workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// The `--seed` argument.
    pub workload: u64,
}

impl Seeds {
    /// Seed of the graph generator.
    pub fn graph(self) -> u64 {
        hash_index(self.workload, 1)
    }

    /// Seed of the hashed edge lengths.
    pub fn weights(self) -> u64 {
        hash_index(self.workload, 2)
    }

    /// Shift seed of the `i`-th op of every timed loop.
    pub fn op(self, i: u64) -> u64 {
        hash_index(hash_index(self.workload, 3), i)
    }

    /// Shift seed of warm-up ops (outside the timed sequence).
    pub fn warmup(self) -> u64 {
        hash_index(self.workload, 4)
    }
}

/// The snapshot files of one run. All three are written for every
/// workload: the timed loop reads its own kind, a traced run reads all.
pub struct Inputs {
    /// Unweighted v1 snapshot.
    pub v1: PathBuf,
    /// Weighted v1 snapshot (hashed `U[0.25, 4]` lengths).
    pub weighted: PathBuf,
    /// BFS-reordered compressed v2 snapshot.
    pub v2: PathBuf,
}

impl Inputs {
    /// The file names inside `dir`.
    pub fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            v1: dir.join("graph.mpx"),
            weighted: dir.join("weighted.mpx"),
            v2: dir.join("graph-v2.mpx"),
        }
    }

    /// Sizes in bytes of the three files.
    pub fn sizes(&self) -> [(&'static str, u64); 3] {
        let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        [
            ("v1", len(&self.v1)),
            ("weighted", len(&self.weighted)),
            ("v2", len(&self.v2)),
        ]
    }
}

/// Builds the workload's graph and writes the three snapshots.
pub fn generate(topology: Topology, seeds: Seeds, inputs: &Inputs) -> io::Result<()> {
    let g = match topology {
        Topology::Rmat(scale) => gen::rmat(scale, 8 << scale, 0.57, 0.19, 0.19, seeds.graph()),
        Topology::Grid(side) => gen::grid2d(side, side),
    };
    write_snapshot(&g, &inputs.v1)?;
    write_weighted_snapshot(&hashed_lengths(&g, seeds.weights()), &inputs.weighted)?;
    let new_to_old =
        reorder_permutation(&g, Reorder::Bfs).expect("BFS reorder yields a permutation");
    write_compressed_snapshot(
        &apply_permutation(&g, &new_to_old),
        Some(&new_to_old),
        &inputs.v2,
    )
}

/// Deterministic `U[0.25, 4]` edge lengths, one hash per undirected edge
/// keyed by `(seed, u, v)` — the `mpx bench --weighted` convention.
fn hashed_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (hash_index(seed, (u64::from(u) << 32) | u64::from(v)) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}
