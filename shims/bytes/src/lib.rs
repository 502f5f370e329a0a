//! Offline stand-in for the `bytes` crate.
//!
//! Provides [`Bytes`]: an immutable, cheaply-cloneable (`Arc`-backed)
//! byte buffer covering the subset of the real crate's API that this
//! workspace uses.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Arc::from(data))
    }

    /// Creates a buffer borrowing a `'static` slice (copied here; the
    /// real crate avoids the copy, which callers cannot observe).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Self::copy_from_slice(&v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0[..] == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    /// One allocation when the iterator reports an exact length (slices,
    /// arrays, `once`, and chains of them), as the standard library's
    /// `Arc<[T]>` collection does.
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_cheap_clone() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(Bytes::copy_from_slice(b"xy").to_vec(), b"xy".to_vec());
    }
}
