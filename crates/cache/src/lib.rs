//! Set-associative cache simulation for the Caltech Object Machine.
//!
//! The COM uses caching "throughout … to achieve performance by accelerating
//! frequently used translations" (§3.1): the **ITLB** (opcode × operand
//! classes → method), the **ATLB** (virtual segment → absolute descriptor),
//! an **instruction cache** and a **context cache**.
//!
//! This crate provides the generic machinery the set-associative ones
//! share. Every cache replaces the least recently used line of a set, as
//! in the paper's simulations (§5), and records [`CacheStats`] with a
//! warmup-aware reset (the paper ran "a warmup trace … before the
//! measurement trace", §5).
//!
//! * [`SetAssocCache`] — a key/value cache with configurable entry count,
//!   associativity and indexing function (trace replay, the ITLB's second
//!   level).
//! * [`FlatCache`] — the same cache in one flat allocation, for structures
//!   probed on every memory reference (the ATLB).
//! * [`AddrSet`] — a presence-only flat cache over addresses (the
//!   instruction cache).
//! * [`CacheConfig`] — cache geometry.
//!
//! It also holds the two small utilities every layer shares: the
//! [`FxHasher`] for hot-path maps and the seeded [`Rng`] for reproducible
//! random streams.
//!
//! ```
//! use com_cache::{CacheConfig, SetAssocCache};
//!
//! # fn main() -> Result<(), com_cache::CacheError> {
//! let mut itlb: SetAssocCache<u32, &'static str> =
//!     SetAssocCache::new(CacheConfig::new(512, 2)?);
//! assert!(itlb.lookup(&7).is_none());      // compulsory miss
//! itlb.fill(7, "int+int -> add");
//! assert_eq!(itlb.lookup(&7), Some(&"int+int -> add"));
//! assert_eq!(itlb.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addrset;
mod cache;
mod config;
mod error;
mod flat;
mod fxhash;
mod rng;
mod stats;

pub use addrset::AddrSet;
pub use cache::SetAssocCache;
pub use config::CacheConfig;
pub use error::CacheError;
pub use flat::FlatCache;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use rng::Rng;
pub use stats::CacheStats;
