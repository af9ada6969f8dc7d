//! Cache construction errors.

/// Errors raised when building cache structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Entry count and associativity are inconsistent.
    BadGeometry {
        /// Requested total entries.
        entries: usize,
        /// Requested ways per set.
        ways: usize,
    },
}

impl core::fmt::Display for CacheError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            CacheError::BadGeometry { entries, ways } => write!(
                f,
                "invalid cache geometry: {entries} entries with {ways} ways (ways must divide entries, both nonzero)"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_mentions_fields() {
        let e = CacheError::BadGeometry {
            entries: 10,
            ways: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
    }
}
