//! Sequential graph algorithms used as verification oracles.
//!
//! Everything here is deliberately simple and obviously-correct; the
//! parallel implementations elsewhere in the workspace are tested against
//! these.

mod bfs;
mod components;
mod diameter;
mod dijkstra;
mod union_find;

pub use bfs::{bfs, bfs_parents, multi_source_bfs};
pub use components::{connected_components, num_components};
pub use diameter::{eccentricity, estimate_diameter, exact_diameter};
pub use dijkstra::{dijkstra, multi_source_dijkstra};
pub use union_find::UnionFind;
