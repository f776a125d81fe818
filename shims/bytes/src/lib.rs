//! Vendored shim of the `bytes` crate: the [`Bytes`] type only, implemented
//! as a reference-counted slice with an offset window.
//!
//! The workspace uses `Bytes` as an immutable, cheaply-cloneable key/value
//! buffer; none of the `Buf`/`BufMut` machinery is needed. Clones share the
//! underlying allocation, and [`Bytes::slice`] produces zero-copy subviews,
//! matching the real crate's behaviour for everything this repo does.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates `Bytes` by copying the given slice.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(data);
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy subview of this buffer.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range inverted: {begin} > {end}");
        assert!(end <= len, "slice out of bounds: {end} > {len}");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The bytes as a plain slice.
    pub fn as_ref_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_ref_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v);
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref_slice() == other.as_ref_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref_slice() == other.as_slice()
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_ref_slice() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_ref_slice() == other.as_bytes()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref_slice().cmp(other.as_ref_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(Arc::strong_count(&a.data), 2);
    }

    #[test]
    fn slice_is_a_window() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = a.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn borrow_allows_map_lookup_by_slice() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(Bytes::from("hello"), 1);
        assert_eq!(m.get(b"hello".as_slice()), Some(&1));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let (a, ab, b) = (Bytes::from("a"), Bytes::from("ab"), Bytes::from("b"));
        assert!(a < b);
        assert!(ab > a);
    }
}
