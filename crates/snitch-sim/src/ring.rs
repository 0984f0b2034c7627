//! A fixed-capacity FIFO ring of `Copy` elements.
//!
//! Every queue the cycle loop touches — offload queue, stream data and
//! index FIFOs, launch queue — has a depth fixed by the
//! [`ClusterConfig`](crate::ClusterConfig), so the storage is allocated
//! once at construction and never grows, shrinks, or moves.

/// Fixed-capacity FIFO; pushing past the capacity is an owner bug.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    buf: Box<[T]>,
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// An empty ring holding up to `capacity` elements (`fill` only
    /// initializes the storage).
    pub(crate) fn new(capacity: usize, fill: T) -> Ring<T> {
        Ring {
            buf: vec![fill; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Empties the ring, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Free slots.
    pub(crate) fn space(&self) -> usize {
        self.buf.len() - self.len
    }

    fn slot(&self, offset: usize) -> usize {
        let i = self.head + offset;
        if i >= self.buf.len() {
            i - self.buf.len()
        } else {
            i
        }
    }

    pub(crate) fn push_back(&mut self, value: T) {
        assert!(!self.is_full(), "ring overflow");
        let tail = self.slot(self.len);
        self.buf[tail] = value;
        self.len += 1;
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let value = self.front()?;
        self.head = self.slot(1);
        self.len -= 1;
        Some(value)
    }

    pub(crate) fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.buf[self.head])
    }

    pub(crate) fn back_mut(&mut self) -> Option<&mut T> {
        if self.len == 0 {
            return None;
        }
        let back = self.slot(self.len - 1);
        Some(&mut self.buf[back])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_survives_wraparound() {
        let mut r = Ring::new(3, 0u32);
        let mut next = 0;
        let mut expect = 0;
        for _ in 0..10 {
            assert_eq!(r.space(), 3);
            while !r.is_full() {
                r.push_back(next);
                next += 1;
            }
            assert_eq!(r.front(), Some(expect));
            *r.back_mut().unwrap() += 100;
            assert_eq!(r.pop_front(), Some(expect));
            assert_eq!(r.pop_front(), Some(expect + 1));
            expect += 2;
            // Undo the marker on what is now the front.
            assert_eq!(r.pop_front(), Some(expect + 100));
            expect += 1;
            assert!(r.is_empty());
            assert_eq!(r.pop_front(), None);
        }
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_is_an_owner_bug() {
        let mut r = Ring::new(1, 0u8);
        r.push_back(1);
        r.push_back(2);
    }
}
