//! # ggrid — the G-Grid index
//!
//! Reproduction of *"A GPU Accelerated Update Efficient Index for kNN
//! Queries in Road Networks"* (Li, Gu, Qi, He, Deng, Yu — ICDE 2018).
//!
//! The index answers snapshot k-nearest-neighbour queries over objects that
//! move on a road network and report their locations as timestamped
//! messages. Its two ideas:
//!
//! 1. **Lazy updates** (§IV): a message is *cached* in the per-cell
//!    message list of the grid cell it lands in, instead of being applied
//!    to the index. Only when a query touches a cell are its cached messages
//!    *cleaned* — deduplicated down to the newest message per object — and
//!    that cleaning runs as a massively parallel GPU kernel built on the
//!    butterfly-shuffle [`xshuffle`] with the duplicate bound μ(η) of
//!    Theorem 1.
//! 2. **CPU–GPU collaboration** (§V): the GPU cleans messages, computes
//!    shortest-path distances over the candidate cells (a parallelised
//!    Bellman–Ford, Algorithm 5) and produces a candidate result set; the
//!    CPU refines it exactly by running bounded Dijkstra searches from the
//!    *unresolved vertices* on the candidate region's boundary
//!    (Algorithm 6).
//!
//! The entry point is [`server::GGridServer`]; the comparison interface
//! shared with the baseline indexes is [`api::MovingObjectIndex`].
//!
//! ```
//! use ggrid::prelude::*;
//! use roadnet::gen;
//!
//! let graph = gen::toy(42);
//! let mut server = GGridServer::new(graph, GGridConfig::default());
//! // An object reports its position on edge 0, 3 weight-units past its
//! // source vertex, at time 1000.
//! server.handle_update(ObjectId(7), EdgePosition::new(roadnet::EdgeId(0), 3), Timestamp(1000));
//! let answer = server.knn(EdgePosition::at_source(roadnet::EdgeId(5)), 1, Timestamp(1001));
//! assert_eq!(answer.len(), 1);
//! assert_eq!(answer[0].0, ObjectId(7));
//! ```

pub mod api;
mod batch;
mod busytime;
mod cleaning;
pub mod config;
mod fanout;
pub mod grid;
mod knn;
pub mod message;
mod message_list;
mod mu;
mod object_table;
mod residency;
mod scratch;
pub mod serve;
mod server;
mod shard;
pub mod stats;
pub mod subscription;
mod validate;
pub mod xshuffle;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::api::{IndexSize, MovingObjectIndex, SimCosts};
    pub use crate::config::GGridConfig;
    pub use crate::message::{ObjectId, Timestamp};
    pub use crate::serve::{serve, ServeClient, ServeConfig, ServeOutcome, ServeQueue};
    pub use crate::server::GGridServer;
    pub use crate::subscription::{SubscriptionId, SubscriptionTickReport};
    pub use roadnet::{Distance, EdgePosition};
}

pub use api::{IndexSize, MovingObjectIndex, SimCosts};
pub use config::GGridConfig;
pub use message::{CachedMessage, ObjectId, Timestamp};
pub use server::GGridServer;

/// The object-table shard an object's updates lock; the ingest tests count
/// shard locks against it.
#[doc(hidden)]
pub use object_table::shard_of;
