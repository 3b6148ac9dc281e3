//! Basic runtime identifiers and the machine word.

use core::fmt;

/// A machine word: the unit of marshalling. Arguments, results, and live
/// frame variables are all measured and shipped in words.
pub type Word = u64;

/// Maximum number of words a [`WordVec`] stores inline.
const WORDVEC_INLINE: usize = 4;

/// A small-size-optimized word sequence for message envelopes: argument and
/// result lists of up to four words (the overwhelmingly common case — Table 5
/// itself costs a four-word message) live inline in the envelope with no heap
/// allocation; longer lists spill to a `Vec`.
///
/// Equality is by contents, not representation, so an inline list equals a
/// spilled one with the same words.
#[derive(Clone)]
pub struct WordVec(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [Word; WORDVEC_INLINE],
    },
    Heap(Vec<Word>),
}

impl WordVec {
    /// The empty list (inline, no allocation).
    pub const fn new() -> WordVec {
        WordVec(Repr::Inline {
            len: 0,
            buf: [0; WORDVEC_INLINE],
        })
    }

    /// The words as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Word] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Append one word, spilling to the heap on overflow of the inline
    /// buffer.
    pub fn push(&mut self, w: Word) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < WORDVEC_INLINE {
                    buf[n] = w;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(n + 1);
                    v.extend_from_slice(&buf[..n]);
                    v.push(w);
                    self.0 = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(w),
        }
    }

    /// Remove and return the last word, if any. A spilled list stays on the
    /// heap.
    pub fn pop(&mut self) -> Option<Word> {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                *len = len.checked_sub(1)?;
                Some(buf[*len as usize])
            }
            Repr::Heap(v) => v.pop(),
        }
    }
}

impl Default for WordVec {
    fn default() -> Self {
        WordVec::new()
    }
}

impl core::ops::Deref for WordVec {
    type Target = [Word];
    #[inline]
    fn deref(&self) -> &[Word] {
        self.as_slice()
    }
}

impl PartialEq for WordVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WordVec {}

impl fmt::Debug for WordVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<Word>> for WordVec {
    fn from(v: Vec<Word>) -> WordVec {
        if v.len() <= WORDVEC_INLINE {
            let mut buf = [0; WORDVEC_INLINE];
            buf[..v.len()].copy_from_slice(&v);
            WordVec(Repr::Inline {
                len: v.len() as u8,
                buf,
            })
        } else {
            WordVec(Repr::Heap(v))
        }
    }
}

impl From<&[Word]> for WordVec {
    /// A plain copy loop, not `copy_from_slice`: at most four words, and a
    /// `memcpy` call for them costs more than the copy.
    #[inline]
    fn from(s: &[Word]) -> WordVec {
        if s.len() <= WORDVEC_INLINE {
            let mut buf = [0; WORDVEC_INLINE];
            for (d, &w) in buf.iter_mut().zip(s) {
                *d = w;
            }
            WordVec(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            WordVec(Repr::Heap(s.to_vec()))
        }
    }
}

impl<const N: usize> From<[Word; N]> for WordVec {
    /// `N` is a constant, so the inline case compiles to `N` stores.
    #[inline]
    fn from(a: [Word; N]) -> WordVec {
        if N <= WORDVEC_INLINE {
            let mut buf = [0; WORDVEC_INLINE];
            for (d, w) in buf.iter_mut().zip(a) {
                *d = w;
            }
            WordVec(Repr::Inline { len: N as u8, buf })
        } else {
            WordVec(Repr::Heap(a.to_vec()))
        }
    }
}

impl FromIterator<Word> for WordVec {
    fn from_iter<I: IntoIterator<Item = Word>>(iter: I) -> WordVec {
        let mut wv = WordVec::new();
        for w in iter {
            wv.push(w);
        }
        wv
    }
}

/// Global object identifier (the paper's GOID). Translation from a GOID to a
/// local pointer costs cycles in software (Table 5) and is free with
/// J-Machine-style hardware support.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Goid(pub u64);

impl fmt::Debug for Goid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for Goid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a simulated lightweight thread.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Raw index into the thread table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Method selector on an object. Apps define their own method numbering; the
/// runtime only routes it.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(pub u32);

impl fmt::Debug for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Goid(3)), "g3");
        assert_eq!(format!("{:?}", ThreadId(2)), "t2");
        assert_eq!(format!("{:?}", MethodId(1)), "m1");
    }

    #[test]
    fn thread_index() {
        assert_eq!(ThreadId(9).index(), 9);
    }

    #[test]
    fn wordvec_inline_then_spills() {
        let mut wv = WordVec::new();
        assert!(wv.is_empty());
        for w in 0..4u64 {
            wv.push(w);
        }
        assert!(matches!(wv.0, Repr::Inline { .. }));
        assert_eq!(&wv[..], &[0, 1, 2, 3]);
        wv.push(4);
        assert!(matches!(wv.0, Repr::Heap(_)));
        assert_eq!(&wv[..], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn wordvec_pops_in_reverse_inline_and_spilled() {
        let mut inline: WordVec = [1u64, 2].into();
        assert_eq!(inline.pop(), Some(2));
        inline.push(3);
        assert_eq!(&inline[..], &[1, 3]);
        assert_eq!(
            (inline.pop(), inline.pop(), inline.pop()),
            (Some(3), Some(1), None)
        );
        let mut spilled: WordVec = (0..6u64).collect();
        for w in (0..6u64).rev() {
            assert_eq!(spilled.pop(), Some(w));
        }
        assert_eq!(spilled.pop(), None);
        assert!(matches!(spilled.0, Repr::Heap(_)));
    }

    #[test]
    fn wordvec_equality_ignores_representation() {
        let inline: WordVec = vec![1, 2].into();
        let spilled = WordVec(Repr::Heap(vec![1, 2]));
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert_eq!(inline, spilled);
        assert_ne!(inline, WordVec::from(vec![1, 2, 3]));
    }

    #[test]
    fn wordvec_conversions() {
        let small: WordVec = vec![7; 3].into();
        assert!(matches!(small.0, Repr::Inline { len: 3, .. }));
        let large: WordVec = vec![7; 9].into();
        assert!(matches!(large.0, Repr::Heap(_)));
        assert_eq!(large.len(), 9);
        let from_slice: WordVec = (&[1u64, 2, 3][..]).into();
        assert_eq!(&from_slice[..], &[1, 2, 3]);
        let from_array: WordVec = [4u64, 5].into();
        assert!(matches!(from_array.0, Repr::Inline { len: 2, .. }));
        let full_array: WordVec = [4u64, 5, 6, 7].into();
        assert!(matches!(full_array.0, Repr::Inline { len: 4, .. }));
        assert_eq!(&full_array[..], &[4, 5, 6, 7]);
        assert_eq!(WordVec::from([]), WordVec::new());
        let spilled_array: WordVec = [1u64; 5].into();
        assert!(matches!(spilled_array.0, Repr::Heap(_)));
        let collected: WordVec = (0..6u64).collect();
        assert_eq!(collected.len(), 6);
        assert_eq!(format!("{:?}", WordVec::from(vec![1, 2])), "[1, 2]");
    }
}
