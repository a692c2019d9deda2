//! Minimal inline small-vector for `Copy` element types.
//!
//! The alignment store keeps a posting list for each predicate with several
//! templates; the common case is 2–4 rules, so giving every list its own
//! heap `Vec` would put a pointer chase on the lookup. This is a safe
//! stand-in for the `smallvec` crate (unavailable: no registry
//! access in the build container), restricted to `Copy + Default` elements
//! so the inline buffer needs no `MaybeUninit`.

/// A vector storing up to `N` elements inline before spilling to the heap.
#[derive(Clone, Debug)]
pub enum SmallVec<T: Copy + Default, const N: usize = 4> {
    Inline { len: u32, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    #[inline]
    fn default() -> Self {
        SmallVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn push(&mut self, value: T) {
        match self {
            SmallVec::Inline { len, buf } => {
                let l = *len as usize;
                if l < N {
                    buf[l] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(&buf[..l]);
                    v.push(value);
                    *self = SmallVec::Heap(v);
                }
            }
            SmallVec::Heap(v) => v.push(value),
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallVec::Inline { len, buf } => &buf[..*len as usize],
            SmallVec::Heap(v) => v.as_slice(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn spilled(&self) -> bool {
        matches!(self, SmallVec::Heap(_))
    }

    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_then_spills() {
        let mut sv: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            sv.push(i);
        }
        assert!(!sv.spilled());
        assert_eq!(sv.as_slice(), &[0, 1, 2, 3]);
        sv.push(4);
        assert!(sv.spilled());
        assert_eq!(sv.as_slice(), &[0, 1, 2, 3, 4]);
        for i in 5..100 {
            sv.push(i);
        }
        assert_eq!(sv.len(), 100);
        assert_eq!(sv.as_slice()[99], 99);
    }

    #[test]
    fn empty_by_default() {
        let sv: SmallVec<u32, 2> = SmallVec::default();
        assert!(sv.is_empty());
        assert_eq!(sv.iter().count(), 0);
    }
}
