//! The page-store boundary between the Bw-tree and its cache/storage layer.
//!
//! In Deuteronomy, the Bw-tree sits on LLAMA: the tree asks the storage
//! subsystem to persist page images and to fetch flash-resident pages on a
//! cache miss. This trait is that interface; `dcs-llama` implements it over
//! the simulated flash device, and tests can substitute simple in-memory
//! stores.

use crate::mapping::PageId;
use crate::page::PageImage;

/// Errors from a page store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The token does not name a live page (GC bug or corruption).
    UnknownToken(u64),
    /// The device failed the I/O.
    Io(String),
    /// Storage is full and garbage collection could not free space.
    Full,
    /// This tree was built without secondary storage
    /// ([`crate::BwTree::in_memory`]); eviction and fetch are unavailable.
    NoStore,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownToken(t) => write!(f, "unknown page token {t}"),
            StoreError::Io(e) => write!(f, "page store I/O error: {e}"),
            StoreError::Full => write!(f, "page store full"),
            StoreError::NoStore => write!(f, "tree has no secondary storage attached"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Secondary storage for Bw-tree pages.
///
/// Tokens are opaque `u64`s minted by the store. A *full* write persists a
/// complete base image; an *incremental* write (`prev = Some(token)`)
/// persists only a delta image that extends the page state at `prev` —
/// the log-structuring write-shrink of §6.1.
pub trait PageStore: Send + Sync {
    /// Persist `image` for `pid`. Returns the token for the page's new
    /// durable state. `prev` chains an incremental flush to the page's
    /// previous durable state.
    fn write(&self, pid: PageId, image: &PageImage, prev: Option<u64>) -> Result<u64, StoreError>;

    /// Materialize the full up-to-date base image for `token`, reading and
    /// folding every part of the page's flash chain.
    fn fetch(&self, pid: PageId, token: u64) -> Result<PageImage, StoreError>;

    /// [`PageStore::fetch`] for a write that heals a partial page: the tree
    /// faults an evicted base in once the blind deltas above it reach
    /// `max_partial_deltas`. A store may sanction this stall on a thread
    /// that must not otherwise block. Default: `fetch`.
    fn fetch_to_heal(&self, pid: PageId, token: u64) -> Result<PageImage, StoreError> {
        self.fetch(pid, token)
    }

    /// Durably retire a page that no longer exists (merge SMOs): its parts
    /// become dead and recovery must not resurrect it. Default: no-op (for
    /// stores without durability semantics).
    fn retire_page(&self, _pid: PageId) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A store that refuses all traffic: used by pure main-memory trees, where
/// eviction is a configuration error.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStore;

impl PageStore for NullStore {
    fn write(
        &self,
        _pid: PageId,
        _image: &PageImage,
        _prev: Option<u64>,
    ) -> Result<u64, StoreError> {
        Err(StoreError::NoStore)
    }

    fn fetch(&self, _pid: PageId, _token: u64) -> Result<PageImage, StoreError> {
        Err(StoreError::NoStore)
    }
}

/// A trivial in-memory page store for tests: full fidelity (including
/// incremental flush chains) with no device underneath.
#[derive(Default)]
pub struct MemStore {
    parts: std::sync::Mutex<Vec<(PageImage, Option<u64>)>>,
}

impl MemStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parts written so far.
    pub fn parts_written(&self) -> usize {
        self.parts.lock().unwrap().len()
    }
}

impl PageStore for MemStore {
    fn write(&self, _pid: PageId, image: &PageImage, prev: Option<u64>) -> Result<u64, StoreError> {
        let mut parts = self.parts.lock().unwrap();
        parts.push((image.clone(), prev));
        Ok(parts.len() as u64 - 1)
    }

    fn fetch(&self, _pid: PageId, token: u64) -> Result<PageImage, StoreError> {
        let parts = self.parts.lock().unwrap();
        // Collect the chain newest → oldest, then fold oldest-up.
        let mut chain = Vec::new();
        let mut cur = Some(token);
        while let Some(t) = cur {
            let (img, prev) = parts.get(t as usize).ok_or(StoreError::UnknownToken(t))?;
            chain.push(img.clone());
            cur = *prev;
        }
        let mut base = chain.pop().ok_or(StoreError::UnknownToken(token))?;
        if base.is_delta {
            return Err(StoreError::Io("chain bottom is a delta part".into()));
        }
        for delta in chain.into_iter().rev() {
            base.apply_delta(&delta);
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DeltaOp;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    #[test]
    fn null_store_refuses() {
        let s = NullStore;
        assert_eq!(
            s.write(0, &PageImage::base(vec![], None, None), None),
            Err(StoreError::NoStore)
        );
        assert_eq!(s.fetch(0, 0), Err(StoreError::NoStore));
    }

    #[test]
    fn memstore_roundtrip() {
        let s = MemStore::new();
        let img = PageImage::base(vec![(b("a"), b("1"))], None, None);
        let t = s.write(1, &img, None).unwrap();
        assert_eq!(s.fetch(1, t).unwrap(), img);
    }

    #[test]
    fn memstore_incremental_chain_folds() {
        let s = MemStore::new();
        let base = PageImage::base(vec![(b("a"), b("1")), (b("b"), b("2"))], None, None);
        let t0 = s.write(1, &base, None).unwrap();
        let d1 = PageImage::delta(vec![DeltaOp::Put(b("c"), b("3"))], None, None);
        let t1 = s.write(1, &d1, Some(t0)).unwrap();
        let d2 = PageImage::delta(vec![DeltaOp::Del(b("a"))], None, None);
        let t2 = s.write(1, &d2, Some(t1)).unwrap();

        let img = s.fetch(1, t2).unwrap();
        assert_eq!(img.entries, vec![(b("b"), b("2")), (b("c"), b("3"))]);
        // Older tokens still fetch older states.
        assert_eq!(s.fetch(1, t0).unwrap().entries.len(), 2);
    }

    #[test]
    fn memstore_unknown_token() {
        let s = MemStore::new();
        assert_eq!(s.fetch(0, 99), Err(StoreError::UnknownToken(99)));
    }
}
