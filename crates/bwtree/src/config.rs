//! Tree configuration.

/// Tuning knobs for a [`crate::BwTree`].
#[derive(Debug, Clone)]
pub struct BwTreeConfig {
    /// Consolidate a leaf once its delta chain reaches this length. Leaves
    /// only: an index page folds every SMO delta as soon as it is posted.
    pub consolidate_threshold: usize,
    /// Split a leaf whose consolidated payload exceeds this many bytes.
    ///
    /// The paper sets the maximum page size to 4 KB; with B-tree-style
    /// half-splits the *average* page comes out near 2.7 KB (§4.1).
    pub max_leaf_bytes: usize,
    /// Split an inner page once it routes more than this many children.
    pub max_inner_children: usize,
    /// Capacity of the mapping table (maximum number of pages).
    pub mapping_capacity: usize,
    /// Merge a leaf into its neighbor once its consolidated payload falls
    /// below this many bytes (0 disables merges).
    pub min_leaf_bytes: usize,
    /// Heal a flash-resident page once this many record deltas pile up
    /// above its base: the base is faulted in and the chain consolidated
    /// (and split if oversized). Keeps blind-update chains bounded.
    pub max_partial_deltas: usize,
}

impl Default for BwTreeConfig {
    fn default() -> Self {
        BwTreeConfig {
            consolidate_threshold: 8,
            max_leaf_bytes: 4096,
            min_leaf_bytes: 512,
            max_inner_children: 64,
            mapping_capacity: 1 << 20,
            max_partial_deltas: 32,
        }
    }
}

impl BwTreeConfig {
    /// A configuration with small pages, useful in tests to force deep trees
    /// and frequent structure modifications.
    pub fn small_pages() -> Self {
        BwTreeConfig {
            consolidate_threshold: 4,
            max_leaf_bytes: 256,
            min_leaf_bytes: 32,
            max_inner_children: 4,
            mapping_capacity: 1 << 16,
            max_partial_deltas: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_page_size() {
        assert_eq!(BwTreeConfig::default().max_leaf_bytes, 4096);
    }

    #[test]
    fn small_pages_are_small() {
        let c = BwTreeConfig::small_pages();
        assert!(c.max_leaf_bytes < 1024);
        assert!(c.max_inner_children <= 8);
    }
}
