//! High-level secure containers: the paper's §6.2 packaging idea.
//!
//! §6.2 proposes packing the whole of Algorithms 2 and 3 into
//! macro-operations so that the raw `CTLoad`/`CTStore` bitmaps are never
//! visible to user code. [`SecureArray`] is that boundary at the library
//! level: it owns an allocation, derives the dataflow linearization set
//! once, and exposes only `get`/`set` — every secret-indexed access is
//! linearized internally and no existence/dirtiness information escapes.
//!
//! ```
//! use ctbia_core::strategy::Strategy;
//! use ctbia_core::ctmem::Width;
//! use ctbia_machine::{BiaPlacement, Machine};
//! use ctbia_machine::secure::SecureArray;
//!
//! # fn main() -> Result<(), ctbia_machine::MachineError> {
//! let mut m = Machine::with_bia(BiaPlacement::L1d);
//! let table = SecureArray::from_fn(&mut m, Width::U32, 1000, Strategy::bia(), |i| i * 3)?;
//! let secret_index = 421;
//! assert_eq!(table.get(&mut m, secret_index), 421 * 3);
//! table.set(&mut m, secret_index, 7);
//! assert_eq!(table.get(&mut m, secret_index), 7);
//! # Ok(())
//! # }
//! ```

use crate::machine::{Machine, MachineError};
use ctbia_core::ctmem::{CtMemory, Width};
use ctbia_core::ds::DataflowSet;
use ctbia_core::strategy::Strategy;
use ctbia_sim::addr::PhysAddr;

/// A fixed-length array in simulated memory whose every indexed access is
/// protected by a [`Strategy`]. The dataflow linearization set of any
/// `get`/`set` is the whole array, matching the compiler-derived DS of an
/// arbitrary secret index.
#[derive(Debug, Clone)]
pub struct SecureArray {
    base: PhysAddr,
    len: u64,
    width: Width,
    ds: DataflowSet,
    strategy: Strategy,
}

impl SecureArray {
    /// Allocates a zeroed secure array of `len` elements of `width`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ram`] when simulated RAM is exhausted.
    pub fn new(
        m: &mut Machine,
        width: Width,
        len: u64,
        strategy: Strategy,
    ) -> Result<Self, MachineError> {
        let base = m.alloc(len * width.bytes(), 64)?;
        Ok(SecureArray {
            ds: DataflowSet::contiguous(base, len * width.bytes()),
            base,
            len,
            width,
            strategy,
        })
    }

    /// Allocates and fills a secure array from `f(i)` (setup-time
    /// initialization, not charged to the simulated program).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ram`] when simulated RAM is exhausted.
    pub fn from_fn(
        m: &mut Machine,
        width: Width,
        len: u64,
        strategy: Strategy,
        f: impl Fn(u64) -> u64,
    ) -> Result<Self, MachineError> {
        let arr = Self::new(m, width, len, strategy)?;
        for i in 0..len {
            m.poke(arr.addr_of(i), width, f(i));
        }
        Ok(arr)
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The strategy protecting indexed accesses.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Base address of the allocation (for building custom DSes over
    /// sub-ranges).
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    fn addr_of(&self, index: u64) -> PhysAddr {
        assert!(
            index < self.len,
            "index {index} out of bounds (len {})",
            self.len
        );
        self.base.offset(index * self.width.bytes())
    }

    /// A protected load at a possibly secret `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds, or if the strategy needs a BIA
    /// and the machine has none.
    pub fn get(&self, m: &mut Machine, index: u64) -> u64 {
        self.strategy
            .load(m, &self.ds, self.addr_of(index), self.width)
    }

    /// A protected store at a possibly secret `index`.
    ///
    /// # Panics
    ///
    /// See [`SecureArray::get`].
    pub fn set(&self, m: &mut Machine, index: u64, value: u64) {
        self.strategy
            .store(m, &self.ds, self.addr_of(index), self.width, value);
    }

    /// A protected read-modify-write at a possibly secret `index`.
    ///
    /// # Panics
    ///
    /// See [`SecureArray::get`].
    pub fn update(&self, m: &mut Machine, index: u64, f: impl FnOnce(u64) -> u64) {
        let old = self.get(m, index);
        self.set(m, index, f(old));
    }

    /// A direct load at a **public** index (sequential scans and other
    /// accesses whose addresses do not depend on secrets need no
    /// linearization).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get_public(&self, m: &mut Machine, index: u64) -> u64 {
        m.load(self.addr_of(index), self.width)
    }

    /// A direct store at a **public** index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_public(&self, m: &mut Machine, index: u64, value: u64) {
        m.store(self.addr_of(index), self.width, value);
    }

    /// Reads the whole array out of simulated RAM, free of charge (for
    /// checking results).
    pub fn snapshot(&self, m: &Machine) -> Vec<u64> {
        (0..self.len)
            .map(|i| m.peek(self.addr_of(i), self.width))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::BiaPlacement;

    #[test]
    fn get_set_round_trip_under_all_strategies() {
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let arr = SecureArray::from_fn(&mut m, Width::U32, 600, strategy, |i| i + 1).unwrap();
            assert_eq!(arr.len(), 600);
            assert!(!arr.is_empty());
            assert_eq!(arr.get(&mut m, 599), 600, "{strategy}");
            arr.set(&mut m, 300, 0xabcd);
            assert_eq!(arr.get(&mut m, 300), 0xabcd, "{strategy}");
            arr.update(&mut m, 300, |v| v + 1);
            assert_eq!(arr.get(&mut m, 300), 0xabce, "{strategy}");
            assert_eq!(arr.get_public(&mut m, 299), 300, "{strategy}");
        }
    }

    #[test]
    fn snapshot_reflects_all_mutations() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let arr = SecureArray::new(&mut m, Width::U64, 16, Strategy::bia()).unwrap();
        for i in 0..16 {
            arr.set(&mut m, i, i * i);
        }
        let snap = arr.snapshot(&m);
        assert_eq!(snap, (0..16).map(|i| i * i).collect::<Vec<u64>>());
    }

    #[test]
    fn secret_accesses_leave_identical_traces() {
        let trace_for = |secret: u64| {
            let mut m = Machine::with_bia(BiaPlacement::L1d);
            let arr =
                SecureArray::from_fn(&mut m, Width::U32, 512, Strategy::bia(), |i| i).unwrap();
            m.enable_observation();
            let v = arr.get(&mut m, secret);
            arr.set(&mut m, (v + 1) % 512, 9);
            m.take_observation().demand
        };
        assert_eq!(trace_for(0), trace_for(511));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let mut m = Machine::insecure();
        let arr = SecureArray::new(&mut m, Width::U32, 4, Strategy::Insecure).unwrap();
        let _ = arr.get(&mut m, 4);
    }

    #[test]
    fn public_accesses_are_cheap_secret_accesses_are_not() {
        let mut m = Machine::insecure();
        let arr =
            SecureArray::from_fn(&mut m, Width::U32, 1024, Strategy::software_ct(), |i| i).unwrap();
        let (_, public) = m.measure(|m| arr.get_public(m, 5));
        let (_, secret) = m.measure(|m| arr.get(m, 5));
        assert!(
            secret.cycles > 20 * public.cycles,
            "linearized access must sweep the DS"
        );
    }

    #[test]
    fn accessors() {
        let mut m = Machine::insecure();
        let arr = SecureArray::new(&mut m, Width::U16, 8, Strategy::Insecure).unwrap();
        assert_eq!(arr.width(), Width::U16);
        assert_eq!(arr.strategy(), Strategy::Insecure);
        assert!(arr.base().is_aligned(64));
    }
}
