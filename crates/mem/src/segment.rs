//! Per-team segment descriptor tables.

use com_fpa::{Fpa, FpaFormat, NameAllocator, SegmentName};

use crate::gc::{GcBook, Mark};
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

/// One held name's record: its descriptor and its collector state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) desc: SegmentDescriptor,
    /// Allocated since the team's last collection (on the young list).
    pub(crate) young: bool,
    /// Tenured and on the remembered list: it may hold a pointer to a
    /// young segment.
    pub(crate) remembered: bool,
    pub(crate) mark: Mark,
}

/// A team's segment descriptor table: one slot per name, holding its
/// descriptor and collector state, in a row per exponent class indexed by
/// in-class index. The team's [`NameAllocator`] hands names out densely
/// from zero in each class, so a row reaches only as far as the highest
/// name inserted; a name read from a word is only looked up.
#[derive(Debug, Clone, Default)]
pub struct SegmentTable {
    rows: Vec<Vec<Option<Slot>>>,
    len: usize,
}

impl SegmentTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of a held name.
    pub(crate) fn slot(&self, name: SegmentName) -> Option<&Slot> {
        let row = self.rows.get(usize::from(name.exponent()))?;
        row.get(usize::try_from(name.index()).ok()?)?.as_ref()
    }

    /// The slot of a held name, mutably.
    pub(crate) fn slot_mut(&mut self, name: SegmentName) -> Option<&mut Slot> {
        let row = self.rows.get_mut(usize::from(name.exponent()))?;
        row.get_mut(usize::try_from(name.index()).ok()?)?.as_mut()
    }

    /// Every held slot, in (exponent, index) order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (SegmentName, &Slot)> {
        self.rows.iter().enumerate().flat_map(|(exponent, row)| {
            let name = move |index| SegmentName::new(exponent as u8, index as u64);
            let slots = row.iter().enumerate();
            slots.filter_map(move |(index, slot)| Some((name(index), slot.as_ref()?)))
        })
    }

    /// Looks up a descriptor.
    pub fn get(&self, name: SegmentName) -> Option<&SegmentDescriptor> {
        self.slot(name).map(|slot| &slot.desc)
    }

    /// Looks up a descriptor mutably.
    pub fn get_mut(&mut self, name: SegmentName) -> Option<&mut SegmentDescriptor> {
        self.slot_mut(name).map(|slot| &mut slot.desc)
    }

    /// Installs (or replaces) a descriptor. The row grows to reach `name`,
    /// so names come from the team's allocator.
    pub fn insert(&mut self, name: SegmentName, desc: SegmentDescriptor) {
        let class = usize::from(name.exponent());
        let index = usize::try_from(name.index()).expect("an allocated name's index fits the host");
        if self.rows.len() <= class {
            self.rows.resize_with(class + 1, Vec::new);
        }
        let row = &mut self.rows[class];
        if row.len() <= index {
            row.resize(index + 1, None);
        }
        self.len += usize::from(row[index].is_none());
        row[index].get_or_insert_with(Slot::default).desc = desc;
    }

    /// Removes a descriptor, returning it; the slot's collector state goes
    /// with it.
    pub fn remove(&mut self, name: SegmentName) -> Option<SegmentDescriptor> {
        let row = self.rows.get_mut(usize::from(name.exponent()))?;
        let slot = row.get_mut(usize::try_from(name.index()).ok()?)?.take()?;
        self.len -= 1;
        Some(slot.desc)
    }

    /// Number of descriptors ("segment table entries need only be kept for
    /// those segments actually allocated", §2.2).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(name, descriptor)` pairs in (exponent, index) order.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentName, &SegmentDescriptor)> {
        self.slots().map(|(name, slot)| (name, &slot.desc))
    }
}

/// A team space: its id, segment descriptor table and virtual-name
/// allocator, and what the collector keeps with the table.
#[derive(Debug, Clone)]
pub struct TeamSpace {
    id: TeamId,
    /// The team's segment descriptor table.
    pub table: SegmentTable,
    /// Allocator of fresh virtual names for this team.
    pub names: NameAllocator,
    /// The lists that drive the collector's iteration over the team's
    /// names, and its write-barrier counters.
    pub(crate) book: GcBook,
}

impl TeamSpace {
    /// Creates a team space drawing names from `format`.
    pub fn new(id: TeamId, format: FpaFormat) -> Self {
        TeamSpace {
            id,
            table: SegmentTable::new(),
            names: NameAllocator::new(format),
            book: GcBook::default(),
        }
    }

    /// The team's identifier.
    pub fn id(&self) -> TeamId {
        self.id
    }

    /// Puts a held name on the remembered list: it is tenured and may now
    /// hold a pointer to a young segment.
    pub(crate) fn remember(&mut self, name: SegmentName) {
        if let Some(slot) = self.table.slot_mut(name) {
            if !slot.remembered {
                slot.remembered = true;
                self.book.remembered_names.push(name);
                self.book.barrier_remembers += 1;
            }
        }
    }
}

#[cfg(test)]
impl SegmentTable {
    /// How far each exponent class's row reaches.
    pub(crate) fn row_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(Vec::len)
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
