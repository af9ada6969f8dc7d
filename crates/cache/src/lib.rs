//! Set-associative cache simulation for the Caltech Object Machine.
//!
//! The COM uses caching "throughout … to achieve performance by accelerating
//! frequently used translations" (§3.1): the **ITLB** (opcode × operand
//! classes → method), the **ATLB** (virtual segment → absolute descriptor),
//! an **instruction cache** and a **context cache**.
//!
//! This crate provides the one set-associative cache the ITLB, the ATLB
//! and the instruction cache are built on (the context cache, a block
//! store with its own directory, lives in `com-core`). Every cache replaces the least recently used line of a set,
//! as in the paper's simulations (§5), and records [`CacheStats`] with a
//! warmup-aware reset (the paper ran "a warmup trace … before the
//! measurement trace", §5).
//!
//! * [`SetAssocCache`] — parallel tag, recency and value arrays probed in
//!   place; each probe passes the hash that selects its set, so the
//!   instruction cache indexes by address, the ITLB and ATLB by their own
//!   key hashes, and the Figure 10/11 trace replays by SipHash.
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
//! // An instruction cache: the address is both the set hash and the tag.
//! let mut icache: SetAssocCache<u64, ()> = SetAssocCache::new(CacheConfig::new(4096, 2)?);
//! assert!(icache.lookup(0x40, 0x40).is_none()); // compulsory miss
//! icache.fill(0x40, 0x40, ());
//! assert!(icache.lookup(0x40, 0x40).is_some());
//! assert_eq!(icache.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod error;
mod fxhash;
mod rng;
mod stats;

pub use cache::SetAssocCache;
pub use config::CacheConfig;
pub use error::CacheError;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use rng::Rng;
pub use stats::CacheStats;
