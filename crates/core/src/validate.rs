//! Index integrity checking.
//!
//! [`GGridServer::validate`](crate::server::GGridServer::validate) audits
//! the cross-structure invariants that Algorithms 1–2 maintain. Tests call
//! it after every interesting state transition; operators can call it in
//! production debug builds after incidents.
//!
//! Invariants checked:
//!
//! 1. **Grid**: every vertex lies in exactly one cell within capacity; the
//!    inverted edge index agrees with the vertex→cell map.
//! 2. **Object table ↔ message lists**: every live object-table entry has a
//!    cached message in the cell the table claims (unless it expired), and
//!    the newest non-tombstone message for the object across all lists
//!    matches the table's position.
//! 3. **Message lists**: bucket occupancy within δᵇ and bucket timestamps
//!    consistent with their contents.

use std::fmt;

use crate::grid::CellId;
use crate::message::{ObjectId, Timestamp};

/// A violated invariant found by [`crate::server::GGridServer::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    VertexCellMismatch {
        vertex: u32,
    },
    CellOverCapacity {
        cell: CellId,
        vertices: usize,
        capacity: usize,
    },
    InvertedIndexMismatch {
        edge: u32,
    },
    BucketOverCapacity {
        cell: CellId,
        len: usize,
        capacity: usize,
    },
    BucketTimestampWrong {
        cell: CellId,
    },
    ObjectMissingFromCell {
        object: ObjectId,
        cell: CellId,
    },
    ObjectPositionStale {
        object: ObjectId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl crate::server::GGridServer {
    /// Audit the index invariants; returns every violation found (empty =
    /// healthy). `now` is used for expiry reasoning.
    pub fn validate(&self, now: Timestamp) -> Vec<Violation> {
        let mut out = Vec::new();
        let grid = self.grid();
        let graph = self.graph();
        let capacity = self.config().cell_capacity;
        let horizon = now.saturating_sub_ms(self.config().t_delta_ms);

        // 1. Grid invariants.
        for c in grid.cell_ids() {
            let cell = grid.cell(c);
            if cell.num_vertices as usize > capacity {
                out.push(Violation::CellOverCapacity {
                    cell: c,
                    vertices: cell.num_vertices as usize,
                    capacity,
                });
            }
            for v in grid.vertices_in(c) {
                if grid.cell_of_vertex(v) != c {
                    out.push(Violation::VertexCellMismatch { vertex: v.0 });
                }
            }
        }
        for e in graph.edge_ids() {
            let src = graph.edge(e).source;
            if grid.cell_of_edge(e) != grid.cell_of_vertex(src) {
                out.push(Violation::InvertedIndexMismatch { edge: e.0 });
            }
        }

        // 2 & 3. Message lists and object table.
        let mut newest: std::collections::HashMap<ObjectId, (Timestamp, Option<CellId>)> =
            std::collections::HashMap::new();
        let lists = self.cell_lists();
        for idx in 0..lists.len() {
            let cell = CellId(idx as u32);
            let list = lists.lock(idx);
            for bucket in list.buckets() {
                if bucket.messages.len() > self.config().bucket_capacity {
                    out.push(Violation::BucketOverCapacity {
                        cell,
                        len: bucket.messages.len(),
                        capacity: self.config().bucket_capacity,
                    });
                }
                let max = bucket.messages.iter().map(|m| m.time).max();
                if max.is_some_and(|m| m > bucket.latest) {
                    out.push(Violation::BucketTimestampWrong { cell });
                }
                for m in &bucket.messages {
                    let e = newest.entry(m.object).or_insert((Timestamp(0), None));
                    // Same tie-break as the cleaning kernel: at equal times
                    // a real update beats the departure tombstone Algorithm
                    // 1 wrote alongside it.
                    let wins = m.time > e.0 || (m.time == e.0 && !m.is_tombstone());
                    if wins {
                        *e = (m.time, if m.is_tombstone() { None } else { Some(cell) });
                    }
                }
            }
        }
        for (o, entry) in self.object_table().snapshot() {
            if entry.time < horizon {
                continue; // expired by contract; lists may have dropped it
            }
            match newest.get(&o) {
                Some(&(t, Some(cell))) => {
                    if cell != entry.cell {
                        out.push(Violation::ObjectMissingFromCell {
                            object: o,
                            cell: entry.cell,
                        });
                    }
                    if t != entry.time {
                        out.push(Violation::ObjectPositionStale { object: o });
                    }
                }
                // Newest cached message is a tombstone or absent while the
                // table says the object is live somewhere.
                _ => out.push(Violation::ObjectMissingFromCell {
                    object: o,
                    cell: entry.cell,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GGridConfig;
    use crate::server::GGridServer;
    use roadnet::{gen, EdgeId, EdgePosition};

    fn server() -> GGridServer {
        GGridServer::new(
            gen::toy(33),
            GGridConfig {
                eta: 4,
                bucket_capacity: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn fresh_server_is_healthy() {
        let s = server();
        assert!(s.validate(Timestamp(0)).is_empty());
    }

    #[test]
    fn healthy_after_updates_and_moves() {
        let s = server();
        for round in 0..5u64 {
            for o in 0..25u64 {
                let e = EdgeId(((o * 7 + round * 31) % 160) as u32);
                s.handle_update(
                    ObjectId(o),
                    EdgePosition::at_source(e),
                    Timestamp(100 + round),
                );
            }
            let violations = s.validate(Timestamp(100 + round));
            assert!(violations.is_empty(), "round {round}: {violations:?}");
        }
    }

    #[test]
    fn healthy_after_queries_consolidate() {
        let mut s = server();
        for o in 0..25u64 {
            let e = EdgeId(((o * 11) % 160) as u32);
            s.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(100));
        }
        s.knn(EdgePosition::at_source(EdgeId(3)), 5, Timestamp(200));
        s.knn(EdgePosition::at_source(EdgeId(90)), 5, Timestamp(210));
        let violations = s.validate(Timestamp(210));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn expiry_does_not_false_positive() {
        let mut s = GGridServer::new(
            gen::toy(33),
            GGridConfig {
                eta: 4,
                t_delta_ms: 50,
                ..Default::default()
            },
        );
        s.handle_update(
            ObjectId(1),
            EdgePosition::at_source(EdgeId(0)),
            Timestamp(10),
        );
        // Long after expiry, a query may drop the cached message entirely;
        // the stale table entry must not be flagged.
        s.knn(EdgePosition::at_source(EdgeId(0)), 1, Timestamp(5_000));
        assert!(s.validate(Timestamp(5_000)).is_empty());
    }
}
