//! Per-team segment descriptor tables.

use std::collections::HashMap;

use com_cache::FxBuildHasher;

use com_fpa::{Fpa, FpaFormat, NameAllocator, SegmentName};

use crate::{AbsAddr, ClassId};

/// Identifier of a team of processes; the machine's SN register holds the
/// current team (§3.2). Virtual space "is a name space local to a team of
/// processes" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TeamId(pub u16);

impl core::fmt::Display for TeamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "team#{}", self.0)
    }
}

/// One entry of a segment descriptor table: "base address, length and object
/// class" (§3.1), plus the forwarding pointer installed when an object
/// outgrows this name's exponent (§2.2 aliasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentDescriptor {
    /// Base of the segment in absolute space (aligned to its size).
    pub base: AbsAddr,
    /// Current object length in words (bounds checks use this, not the
    /// name's power-of-two capacity).
    pub length: u64,
    /// The object's class, cached here so a single table access yields the
    /// 16-bit class tag for the ITLB key.
    pub class: ClassId,
    /// When the object has been grown out of this name's range: the new,
    /// wider name. Accesses within the old bounds proceed normally; beyond
    /// them, the trap handler replaces the pointer's segment number.
    pub forward: Option<Fpa>,
}

impl SegmentDescriptor {
    /// Creates a descriptor with no forwarding.
    pub fn new(base: AbsAddr, length: u64, class: ClassId) -> Self {
        SegmentDescriptor {
            base,
            length,
            class,
            forward: None,
        }
    }
}

/// A team's segment descriptor table: segment name → descriptor.
#[derive(Debug, Clone, Default)]
pub struct SegmentTable {
    entries: HashMap<SegmentName, SegmentDescriptor, FxBuildHasher>,
}

impl SegmentTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a descriptor.
    pub fn get(&self, name: SegmentName) -> Option<&SegmentDescriptor> {
        self.entries.get(&name)
    }

    /// Looks up a descriptor mutably.
    pub fn get_mut(&mut self, name: SegmentName) -> Option<&mut SegmentDescriptor> {
        self.entries.get_mut(&name)
    }

    /// Installs (or replaces) a descriptor.
    pub fn insert(&mut self, name: SegmentName, desc: SegmentDescriptor) {
        self.entries.insert(name, desc);
    }

    /// Removes a descriptor, returning it.
    pub fn remove(&mut self, name: SegmentName) -> Option<SegmentDescriptor> {
        self.entries.remove(&name)
    }

    /// Number of descriptors ("segment table entries need only be kept for
    /// those segments actually allocated", §2.2).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, descriptor)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentName, &SegmentDescriptor)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

/// A team space: its id, segment descriptor table and virtual-name
/// allocator.
#[derive(Debug, Clone)]
pub struct TeamSpace {
    id: TeamId,
    /// The team's segment descriptor table.
    pub table: SegmentTable,
    /// Allocator of fresh virtual names for this team.
    pub names: NameAllocator,
}

impl TeamSpace {
    /// Creates a team space drawing names from `format`.
    pub fn new(id: TeamId, format: FpaFormat) -> Self {
        TeamSpace {
            id,
            table: SegmentTable::new(),
            names: NameAllocator::new(format),
        }
    }

    /// The team's identifier.
    pub fn id(&self) -> TeamId {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::FpaFormat;

    #[test]
    fn table_crud() {
        let mut t = SegmentTable::new();
        assert!(t.is_empty());
        let name = SegmentName::new(5, 1);
        t.insert(name, SegmentDescriptor::new(AbsAddr(64), 20, ClassId(9)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(name).unwrap().length, 20);
        t.get_mut(name).unwrap().length = 25;
        assert_eq!(t.get(name).unwrap().length, 25);
        let d = t.remove(name).unwrap();
        assert_eq!(d.base, AbsAddr(64));
        assert!(t.get(name).is_none());
    }

    #[test]
    fn team_space_allocates_names() {
        let mut ts = TeamSpace::new(TeamId(3), FpaFormat::COM);
        assert_eq!(ts.id(), TeamId(3));
        let a = ts.names.alloc_for_size(10).unwrap();
        assert_eq!(a.segment().exponent(), 4);
    }
}
