//! Dense node identifiers and label interning.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A dense node identifier, valid within one [`LinkStream`](crate::LinkStream).
///
/// Identifiers are assigned contiguously from zero in order of first
/// appearance, so they can index flat arrays directly via [`NodeId::index`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as a `usize`, suitable for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Bidirectional mapping between external node labels and dense [`NodeId`]s.
///
/// ```
/// use saturn_linkstream::NodeInterner;
/// let mut interner = NodeInterner::new();
/// let a = interner.intern("alice");
/// let b = interner.intern("bob");
/// assert_ne!(a, b);
/// assert_eq!(interner.intern("alice"), a);
/// assert_eq!(interner.label(a), "alice");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodeInterner {
    by_label: HashMap<String, NodeId>,
    labels: Vec<String>,
}

impl NodeInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `label`, allocating a fresh one on first sight.
    pub fn intern(&mut self, label: &str) -> NodeId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.to_owned());
        self.by_label.insert(label.to_owned(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, label: &str) -> Option<NodeId> {
        self.by_label.get(label).copied()
    }

    /// Returns the label of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no node has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels, indexed by [`NodeId`].
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Consumes the interner, returning labels indexed by [`NodeId`].
    pub fn into_labels(self) -> Vec<String> {
        self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = NodeInterner::new();
        let a = i.intern("x");
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut i = NodeInterner::new();
        assert_eq!(i.intern("a").raw(), 0);
        assert_eq!(i.intern("b").raw(), 1);
        assert_eq!(i.intern("a").raw(), 0);
        assert_eq!(i.intern("c").raw(), 2);
    }

    #[test]
    fn get_does_not_allocate() {
        let mut i = NodeInterner::new();
        assert!(i.get("missing").is_none());
        let a = i.intern("a");
        assert_eq!(i.get("a"), Some(a));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn into_labels_preserves_order() {
        let mut i = NodeInterner::new();
        i.intern("u");
        i.intern("v");
        assert_eq!(i.into_labels(), vec!["u".to_string(), "v".to_string()]);
    }
}
