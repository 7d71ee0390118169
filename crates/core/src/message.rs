//! Object identifiers, timestamps, and location-update messages.

use roadnet::EdgePosition;
use std::fmt;

/// Identifier of a moving data object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A point in time, in milliseconds. All workload generators and servers in
/// the workspace share this clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Timestamp(pub u64);

impl Timestamp {
    pub fn saturating_sub_ms(self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(ms))
    }
}

/// A cached location-update message (paper §II: `m = ⟨o, e, d, t⟩`).
///
/// `position: None` is the *departure tombstone* Algorithm 1 appends to an
/// object's previous cell when it moves between cells
/// (`⟨m.o, null, null, m.t⟩`): during cleaning, an object whose newest
/// message in a cell is a tombstone is no longer in that cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedMessage {
    pub object: ObjectId,
    pub position: Option<EdgePosition>,
    pub time: Timestamp,
}

impl CachedMessage {
    pub fn update(object: ObjectId, position: EdgePosition, time: Timestamp) -> Self {
        Self {
            object,
            position: Some(position),
            time,
        }
    }

    pub(crate) fn tombstone(object: ObjectId, time: Timestamp) -> Self {
        Self {
            object,
            position: None,
            time,
        }
    }

    pub(crate) fn is_tombstone(&self) -> bool {
        self.position.is_none()
    }

    /// Wire size of a message when shipped to the GPU: the 5-tuple
    /// `⟨o, c, e, d, t⟩` of §IV-B1 — 8 + 4 + 4 + 4 + 8 bytes, padded to 32.
    pub(crate) const WIRE_BYTES: u64 = 32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::EdgeId;

    #[test]
    fn tombstones() {
        let t = CachedMessage::tombstone(ObjectId(4), Timestamp(9));
        assert!(t.is_tombstone());
        let u = CachedMessage::update(ObjectId(4), EdgePosition::new(EdgeId(0), 1), Timestamp(9));
        assert!(!u.is_tombstone());
    }

    #[test]
    fn timestamp_saturating_sub() {
        assert_eq!(Timestamp(100).saturating_sub_ms(30), Timestamp(70));
        assert_eq!(Timestamp(5).saturating_sub_ms(30), Timestamp(0));
    }
}
