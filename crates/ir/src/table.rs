//! [`Table`]: a per-procedure product as a chunked copy-on-write array.
//!
//! Every per-procedure table the analysis keeps (procedures, CFGs, jump
//! functions, `VAL` rows, memo notes, keys) is indexed by a dense id and
//! replaced wholesale from one program version to the next, yet an edit
//! changes only a few entries. A `Table` holds its entries in `Arc`
//! chunks of [`CHUNK`] under an `Arc` spine: a clone copies one pointer,
//! [`Table::set`] copies the spine (one pointer per chunk) and the one
//! chunk it writes when they are shared, and dropping a table frees only
//! the chunks no other table shares. A derived table therefore costs its
//! edits, not the program.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Entries per chunk, and chunks per node of the spine.
pub const CHUNK: usize = 64;

/// Entries under one node of the spine.
const SPAN: usize = CHUNK * CHUNK;

/// One node of the spine: up to [`CHUNK`] chunks.
type Node<T> = Arc<[Arc<[T]>]>;

/// A chunked copy-on-write array. See the module docs. The spine has two
/// levels — a root of nodes, each holding up to [`CHUNK`] chunks — so a
/// write copies one root of `len / 4096` pointers, one node and one
/// chunk, and comparing two tables skips a whole shared node at once.
pub struct Table<T> {
    root: Arc<[Node<T>]>,
    len: usize,
}

impl<T> Table<T> {
    /// An empty table.
    pub fn new() -> Table<T> {
        Table {
            root: Arc::from(Vec::new()),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.root[i / SPAN][i / CHUNK % CHUNK][i % CHUNK])
    }

    /// The entries in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            nodes: self.root.iter(),
            chunks: [].iter(),
            entries: [].iter(),
            left: self.len,
        }
    }

    fn chunks(&self) -> impl Iterator<Item = &Arc<[T]>> + '_ {
        self.root.iter().flat_map(|node| node.iter())
    }

    fn chunk(&self, c: usize) -> Option<&Arc<[T]>> {
        self.root.get(c / CHUNK)?.get(c % CHUNK)
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.len.div_ceil(CHUNK)
    }

    /// Whether chunk `c` is the very same allocation in `self` and
    /// `other` — so every entry in it is shared, and equal.
    pub fn shares_chunk(&self, other: &Table<T>, c: usize) -> bool {
        match (self.chunk(c), other.chunk(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The chunks `self` and `other` do not share, ascending: a node the
    /// two share is skipped whole.
    fn unshared_chunks(&self, other: &Table<T>) -> Vec<usize> {
        let n_chunks = self.n_chunks().max(other.n_chunks());
        let mut out = Vec::new();
        for m in 0..n_chunks.div_ceil(CHUNK) {
            let shared_node = match (self.root.get(m), other.root.get(m)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if !shared_node {
                let chunks = m * CHUNK..((m + 1) * CHUNK).min(n_chunks);
                out.extend(chunks.filter(|&c| !self.shares_chunk(other, c)));
            }
        }
        out
    }

    /// The indices at which `self` and `other` may differ: every index of
    /// a chunk the two do not share (and every index past the shorter
    /// one). Visits one pointer per shared node, and one per shared chunk
    /// of the other nodes.
    pub fn unshared(&self, other: &Table<T>) -> impl Iterator<Item = usize> + '_ {
        let len = self.len.max(other.len);
        self.unshared_chunks(other)
            .into_iter()
            .flat_map(move |c| c * CHUNK..((c + 1) * CHUNK).min(len))
    }

    /// The address of every chunk, in order: two tables share chunk `c`
    /// while both are alive iff their addresses at `c` agree.
    pub fn chunk_addrs(&self) -> Vec<usize> {
        self.chunks()
            .map(|c| c.as_ptr() as *const u8 as usize)
            .collect()
    }
}

impl<T: Clone> Table<T> {
    /// A table of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Table<T> {
        (0..len).map(|_| value.clone()).collect()
    }

    /// A mutable reference to entry `i`, copying the root, the node and
    /// the chunk on the way when another table shares them.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "table index {i} out of range ({})", self.len);
        let node = &mut Arc::make_mut(&mut self.root)[i / SPAN];
        let chunk = &mut Arc::make_mut(node)[i / CHUNK % CHUNK];
        &mut Arc::make_mut(chunk)[i % CHUNK]
    }

    /// Sets entry `i` (see [`Table::get_mut`]).
    pub fn set(&mut self, i: usize, value: T) {
        *self.get_mut(i) = value;
    }

    /// Mutable references to every entry, in index order, copying every
    /// node and chunk another table shares.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        Arc::make_mut(&mut self.root)
            .iter_mut()
            .flat_map(|node| Arc::make_mut(node).iter_mut())
            .flat_map(|c| Arc::make_mut(c).iter_mut())
    }

    /// Appends an entry. Copies the root, the last node and the last
    /// chunk: meant for an occasional append; build a whole table with
    /// `collect`.
    pub fn push(&mut self, value: T) {
        let i = self.len;
        let mut root: Vec<Node<T>> = self.root.to_vec();
        if i.is_multiple_of(SPAN) {
            root.push(Arc::from(Vec::new()));
        }
        let Some(last) = root.last_mut() else {
            unreachable!("the root has a node for entry {i}");
        };
        let mut node: Vec<Arc<[T]>> = last.to_vec();
        match node.last_mut().filter(|_| !i.is_multiple_of(CHUNK)) {
            Some(chunk) => {
                let mut entries = chunk.to_vec();
                entries.push(value);
                *chunk = Arc::from(entries);
            }
            None => node.push(Arc::from(vec![value])),
        }
        *last = Arc::from(node);
        self.root = Arc::from(root);
        self.len += 1;
    }

    /// The entries as a vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T> Clone for Table<T> {
    fn clone(&self) -> Table<T> {
        Table {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<T> Default for Table<T> {
    fn default() -> Table<T> {
        Table::new()
    }
}

impl<T> FromIterator<T> for Table<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Table<T> {
        let mut chunks: Vec<Arc<[T]>> = Vec::new();
        let mut len = 0;
        let mut iter = iter.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<T> = iter.by_ref().take(CHUNK).collect();
            len += chunk.len();
            chunks.push(Arc::from(chunk));
        }
        let mut chunks = chunks.into_iter().peekable();
        let mut root: Vec<Node<T>> = Vec::new();
        while chunks.peek().is_some() {
            root.push(chunks.by_ref().take(CHUNK).collect());
        }
        Table {
            root: Arc::from(root),
            len,
        }
    }
}

impl<T> From<Vec<T>> for Table<T> {
    fn from(v: Vec<T>) -> Table<T> {
        v.into_iter().collect()
    }
}

impl<T> Index<usize> for Table<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("table index {i} out of range ({})", self.len),
        }
    }
}

impl<T: Clone> IndexMut<usize> for Table<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i)
    }
}

/// The entries of a [`Table`] in index order ([`Table::iter`]).
#[derive(Debug)]
pub struct Iter<'a, T> {
    nodes: std::slice::Iter<'a, Node<T>>,
    chunks: std::slice::Iter<'a, Arc<[T]>>,
    entries: std::slice::Iter<'a, T>,
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(entry) = self.entries.next() {
                self.left -= 1;
                return Some(entry);
            }
            match self.chunks.next() {
                Some(chunk) => self.entries = chunk.iter(),
                None => self.chunks = self.nodes.next()?.iter(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<'a, T> IntoIterator for &'a Table<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Table<T> {
    fn eq(&self, other: &Table<T>) -> bool {
        self.len == other.len
            && self
                .unshared_chunks(other)
                .into_iter()
                .all(|c| self.chunk(c) == other.chunk(c))
    }
}

impl<T: Eq> Eq for Table<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for Table<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_copies_one_chunk_and_shares_the_rest() {
        let a: Table<u32> = (0..200).collect();
        assert_eq!(a.len(), 200);
        assert_eq!(a.n_chunks(), 4);
        let mut b = a.clone();
        b.set(70, 7);
        assert_eq!(a[70], 70);
        assert_eq!(b[70], 7);
        for c in 0..4 {
            assert_eq!(a.shares_chunk(&b, c), c != 1, "chunk {c}");
        }
        assert_eq!(
            b.unshared(&a).collect::<Vec<_>>(),
            (64..128).collect::<Vec<_>>()
        );
        assert_ne!(a, b);
        b.set(70, 70);
        assert_eq!(a, b, "equal by value once restored");
    }

    #[test]
    fn tables_span_nodes_and_skip_shared_ones() {
        let a: Table<usize> = (0..10_000).collect();
        assert_eq!(a.len(), 10_000);
        assert_eq!(a.n_chunks(), 157);
        assert_eq!(a.to_vec(), (0..10_000).collect::<Vec<_>>());
        assert_eq!(a.iter().len(), 10_000);
        assert_eq!(a.iter().last(), Some(&9_999));
        assert_eq!(a.get(10_000), None);
        let mut b = a.clone();
        b.set(9_000, 0);
        b.set(9_001, 0);
        let unshared: Vec<usize> = b.unshared(&a).collect();
        assert_eq!(unshared, (8_960..9_024).collect::<Vec<_>>());
        assert!((0..157).all(|c| a.shares_chunk(&b, c) == (c != 140)));
        assert_ne!(a, b);
        *b.get_mut(9_000) = 9_000;
        b[9_001] = 9_001;
        assert_eq!(a, b, "equal by value once restored");
        assert!(b == (0..10_000).collect::<Vec<_>>());
        assert_eq!(format!("{:?}", Table::from(vec![1, 2])), "[1, 2]");
        let mut c = b.clone();
        for v in 10_000..12_500 {
            c.push(v);
        }
        assert_eq!(c.to_vec(), (0..12_500).collect::<Vec<_>>());
        assert_eq!(b.len(), 10_000, "a push leaves a sharing table alone");
        c.iter_mut().for_each(|v| *v += 1);
        assert_eq!(c[0], 1);
        assert_eq!(b[0], 0, "iter_mut leaves a sharing table alone");
    }
}
