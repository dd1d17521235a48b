//! Runtime values of interpreted Skil programs.

#![forbid(unsafe_code)]

use std::fmt;
use std::mem::take;
use std::sync::Arc;

use skil_runtime::{Wire, WireError, WireReader};

/// A persistent list: an unrolled spine of shared chunks.
///
/// A chunk holds its bottom element inline, the elements consed on top
/// of it in a `Vec` (head last), and the list below it. A handle is
/// `{front, n, len}`: it sees the bottom `n` elements of its front chunk,
/// then that chunk's `rest`, `len` elements in all. A tail taken inside
/// a chunk is the same chunk seen with a smaller `n`:
///
/// ```text
///  a      = [3, 2, 1, 0]   {n: 3, len: 4} ─┐
///  tail a = [2, 1, 0]      {n: 2, len: 3} ─┴─▶ bottom 1 | above [2, 3] | rest ─▶ [0]
/// ```
///
/// Ownership rule: the borrowing operations (`cons`, `rest`, `append`,
/// which the walker and [`Intr::eval_pure`](crate::bytecode::Intr::eval_pure)
/// use) never write a chunk; `cons` starts a one-element chunk over the
/// shared rest. The owned `push_front` and `pop_front` write the front
/// chunk only when `Arc::get_mut` says the handle is its sole owner *and*
/// the handle sees all of it; otherwise `push_front` starts a
/// one-element chunk and `pop_front` clones the head and narrows the
/// view. `into_vec` moves out of every chunk it solely owns. No handle
/// ever observes another's change.
///
/// Bounds: `cons`, `push_front` (amortized), `pop_front`, `first`,
/// `rest`, `len` and `clone` are O(1); `append` is O(|left|) and shares
/// the right list; `from_vec` is one allocation, reusing the `Vec`;
/// equality and drop are iterative, so a 200k-element list is safe.
#[derive(Clone, Default)]
pub struct ConsList {
    front: Option<Arc<Chunk>>,
    /// How many of the front chunk's elements this handle sees (0 iff
    /// `front` is `None`).
    n: usize,
    len: usize,
}

struct Chunk {
    bottom: Value,
    /// Elements consed on top of `bottom`, the newest last.
    above: Vec<Value>,
    rest: ConsList,
}

impl Chunk {
    /// The `i`-th element from the bottom (`0` is `bottom`).
    fn at(&self, i: usize) -> &Value {
        if i == 0 {
            &self.bottom
        } else {
            &self.above[i - 1]
        }
    }
}

impl ConsList {
    /// The empty list (`nil`).
    pub fn new() -> Self {
        ConsList::default()
    }

    /// Number of elements, O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `cons(elem, rest)` — a one-element chunk over the shared `rest`,
    /// O(1).
    pub fn cons(elem: Value, rest: &ConsList) -> ConsList {
        ConsList::chunk(elem, Vec::new(), rest.clone())
    }

    /// A new front chunk `bottom` + `above` (head last) over `rest`.
    fn chunk(bottom: Value, above: Vec<Value>, rest: ConsList) -> ConsList {
        let n = above.len() + 1;
        ConsList { n, len: rest.len + n, front: Some(Arc::new(Chunk { bottom, above, rest })) }
    }

    /// First element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.front.as_ref().map(|c| c.at(self.n - 1))
    }

    /// The list after the first element — shares the chunks, O(1).
    pub fn rest(&self) -> Option<ConsList> {
        let c = self.front.as_ref()?;
        Some(if self.n == 1 {
            c.rest.clone()
        } else {
            ConsList { front: Some(c.clone()), n: self.n - 1, len: self.len - 1 }
        })
    }

    /// Owned `cons`: push onto the front chunk in place when this handle
    /// owns it and sees all of it, else start a one-element chunk.
    pub fn push_front(&mut self, elem: Value) {
        let n = self.n;
        match self.front.as_mut().and_then(Arc::get_mut) {
            Some(c) if c.above.len() + 1 == n => {
                c.above.push(elem);
                self.n += 1;
                self.len += 1;
            }
            _ => *self = ConsList::chunk(elem, Vec::new(), take(self)),
        }
    }

    /// Owned `tail`, returning the head: pop the front chunk in place
    /// when this handle owns it and sees all of it, else clone the head
    /// and narrow the view.
    pub fn pop_front(&mut self) -> Option<Value> {
        let n = self.n;
        let c = self.front.as_mut()?;
        if n > 1 {
            self.n -= 1;
            self.len -= 1;
            return Some(match Arc::get_mut(c) {
                Some(c) if c.above.len() + 1 == n => c.above.pop().expect("n > 1"),
                _ => c.above[n - 2].clone(),
            });
        }
        // the head is the chunk's bottom: step into its rest
        let (head, rest) = match Arc::try_unwrap(self.front.take().expect("n == 1")) {
            Ok(Chunk { bottom, mut rest, .. }) => (bottom, take(&mut rest)),
            Err(c) => (c.bottom.clone(), c.rest.clone()),
        };
        *self = rest;
        Some(head)
    }

    /// `append(self, other)` — one chunk holding the left elements, over
    /// the shared right list.
    pub fn append(&self, other: &ConsList) -> ConsList {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        ConsList::over(self.to_vec(), other.clone())
    }

    /// Iterate front to back.
    pub fn iter(&self) -> ConsIter<'_> {
        ConsIter { chunk: self.front.as_deref(), i: self.n, len: self.len }
    }

    /// Collect into a `Vec` (used at the task-skeleton boundary, where
    /// `skil-core` farms out plain `Vec<Value>` task lists).
    pub fn to_vec(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }

    /// Move into a `Vec`, front to back: the elements of every chunk this
    /// handle solely owns are moved out (the first such chunk's `Vec`
    /// becomes the result), those of shared chunks cloned.
    pub fn into_vec(mut self) -> Vec<Value> {
        let mut out = Vec::new();
        while let Some(c) = self.front.take() {
            let n = self.n;
            self = match Arc::try_unwrap(c) {
                Ok(Chunk { bottom, mut above, mut rest }) => {
                    // what handles since dropped pushed past this view
                    above.truncate(n - 1);
                    if out.is_empty() {
                        above.reverse();
                        out = above;
                        out.reserve(rest.len + 1);
                    } else {
                        out.extend(above.into_iter().rev());
                    }
                    out.push(bottom);
                    take(&mut rest)
                }
                Err(c) => {
                    out.reserve(n + c.rest.len);
                    out.extend((0..n).rev().map(|i| c.at(i).clone()));
                    c.rest.clone()
                }
            };
        }
        out
    }

    /// Build from a `Vec`, preserving order: one allocation.
    pub fn from_vec(items: Vec<Value>) -> ConsList {
        ConsList::over(items, ConsList::new())
    }

    /// `items` (front to back) as one chunk over `rest`.
    fn over(mut items: Vec<Value>, rest: ConsList) -> ConsList {
        let Some(bottom) = items.pop() else {
            return rest;
        };
        items.reverse();
        ConsList::chunk(bottom, items, rest)
    }
}

impl From<Vec<Value>> for ConsList {
    fn from(items: Vec<Value>) -> Self {
        ConsList::from_vec(items)
    }
}

impl FromIterator<Value> for ConsList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        ConsList::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Debug for ConsList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for ConsList {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.iter(), other.iter());
        loop {
            if let (Some(x), Some(y)) = (a.chunk, b.chunk) {
                if std::ptr::eq(x, y) && a.i == b.i {
                    return true; // the same view of one chunk: one suffix
                }
            }
            match (a.next(), b.next()) {
                (Some(x), Some(y)) if x == y => {}
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl Drop for ConsList {
    fn drop(&mut self) {
        // Unlink iteratively: the derived recursive drop would overflow
        // the stack on a long spine of one-element chunks (the walker's
        // `cons` builds those). `into_inner` gives up a shared chunk's
        // reference in the one atomic decrement; it is then someone
        // else's job.
        let mut cur = self.front.take();
        while let Some(mut c) = cur.and_then(Arc::into_inner) {
            cur = c.rest.front.take();
        }
    }
}

/// Front-to-back iterator over a [`ConsList`].
pub struct ConsIter<'a> {
    chunk: Option<&'a Chunk>,
    /// Elements of `chunk` still to yield (its bottom `i`).
    i: usize,
    len: usize,
}

impl<'a> Iterator for ConsIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        let c = self.chunk?;
        self.i -= 1;
        self.len -= 1;
        let v = c.at(self.i);
        if self.i == 0 {
            self.chunk = c.rest.front.as_deref();
            self.i = c.rest.n;
        }
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

/// A dynamic Skil value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `int`.
    Int(i64),
    /// `float`.
    Float(f64),
    /// `void`.
    Unit,
    /// `Index` / `Size` (components may be negative in `array_create`'s
    /// "derive this bound" convention).
    Index([i64; 2]),
    /// Partition bounds: lower (inclusive), upper (exclusive).
    Bounds([i64; 2], [i64; 2]),
    /// A struct instance: index into `FoProgram::structs` plus fields.
    Struct(u32, Vec<Value>),
    /// A cons list.
    List(ConsList),
    /// A distributed array handle (index into the interpreter's local
    /// array table). Never crosses processors: the paper's pardata
    /// values are not flattenable.
    Array(usize),
}

// Frames, operand stacks and boxed arrays hold `Value`s by the million:
// a list handle must not make every one of them wider.
const _: () = assert!(std::mem::size_of::<Value>() == 40);

impl Value {
    /// Render for `print`.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// The `int` inside, or a descriptive panic (interpreter invariants
    /// guarantee the type after checking).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The `float` inside.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The `Index` inside.
    pub fn as_index(&self) -> [i64; 2] {
        match self {
            Value::Index(ix) => *ix,
            other => panic!("expected Index, got {other:?}"),
        }
    }

    /// The array handle inside.
    pub fn as_array(&self) -> usize {
        match self {
            Value::Array(h) => *h,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

/// What `print` writes: one `String`, however deep the value.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn seq<'a>(
            f: &mut fmt::Formatter<'_>,
            open: &str,
            items: impl Iterator<Item = &'a Value>,
            close: &str,
        ) -> fmt::Result {
            f.write_str(open)?;
            for (i, v) in items.enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{v}")?;
            }
            f.write_str(close)
        }
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Unit => f.write_str("()"),
            Value::Index(ix) => write!(f, "{{{}, {}}}", ix[0], ix[1]),
            Value::Bounds(lo, up) => {
                write!(f, "bounds{{[{}, {}] .. [{}, {}]}}", lo[0], lo[1], up[0], up[1])
            }
            Value::Struct(_, fields) => seq(f, "{", fields.iter(), "}"),
            Value::List(items) => seq(f, "[", items.iter(), "]"),
            Value::Array(h) => write!(f, "array#{h}"),
        }
    }
}

/// Wire tag of [`Value::Int`] — shared with the unboxed `int` array
/// element, whose encoding must stay byte-identical.
pub(crate) const WIRE_TAG_INT: u8 = 0;
/// Wire tag of [`Value::Float`] (and of the unboxed `float` element).
pub(crate) const WIRE_TAG_FLOAT: u8 = 1;
/// Wire tag of [`Value::Struct`] (and of the flat struct element).
pub(crate) const WIRE_TAG_STRUCT: u8 = 5;

impl Wire for Value {
    fn flatten(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(WIRE_TAG_INT);
                v.flatten(out);
            }
            Value::Float(v) => {
                out.push(WIRE_TAG_FLOAT);
                v.flatten(out);
            }
            Value::Unit => out.push(2),
            Value::Index(ix) => {
                out.push(3);
                ix[0].flatten(out);
                ix[1].flatten(out);
            }
            Value::Bounds(lo, up) => {
                out.push(4);
                lo[0].flatten(out);
                lo[1].flatten(out);
                up[0].flatten(out);
                up[1].flatten(out);
            }
            Value::Struct(id, fields) => {
                out.push(WIRE_TAG_STRUCT);
                id.flatten(out);
                fields.flatten(out);
            }
            Value::List(items) => {
                // Same bytes as the historical `Vec<Value>` encoding:
                // u64 element count followed by the elements in order.
                out.push(6);
                (items.len() as u64).flatten(out);
                for item in items.iter() {
                    item.flatten(out);
                }
            }
            Value::Array(_) => {
                // the paper's rule: distributed structures move only
                // through skeletons, never as flattened values
                panic!("a pardata value cannot be flattened into a message");
            }
        }
    }

    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take(1)?[0] {
            WIRE_TAG_INT => Value::Int(i64::unflatten(r)?),
            WIRE_TAG_FLOAT => Value::Float(f64::unflatten(r)?),
            2 => Value::Unit,
            3 => Value::Index([i64::unflatten(r)?, i64::unflatten(r)?]),
            4 => Value::Bounds(
                [i64::unflatten(r)?, i64::unflatten(r)?],
                [i64::unflatten(r)?, i64::unflatten(r)?],
            ),
            WIRE_TAG_STRUCT => Value::Struct(u32::unflatten(r)?, Vec::<Value>::unflatten(r)?),
            6 => Value::List(ConsList::from_vec(Vec::<Value>::unflatten(r)?)),
            _ => return Err(WireError::Invalid("bad Value tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ints(items: &[i64]) -> Vec<Value> {
        items.iter().copied().map(Value::Int).collect()
    }

    #[test]
    fn pushing_and_popping_never_shows_through_an_alias() {
        // push onto two clones of one list
        let mut a = ConsList::from_vec(ints(&[1, 2]));
        let mut b = a.clone();
        a.push_front(Value::Int(3));
        b.push_front(Value::Int(4));
        assert_eq!(a.to_vec(), ints(&[3, 1, 2]));
        assert_eq!(b.to_vec(), ints(&[4, 1, 2]));

        // push onto a narrowed view of a chunk grown in place
        let mut a = ConsList::new();
        for i in [3, 2, 1] {
            a.push_front(Value::Int(i));
        }
        let mut b = a.clone();
        assert_eq!(b.pop_front(), Some(Value::Int(1)));
        b.push_front(Value::Int(9));
        assert_eq!(a.to_vec(), ints(&[1, 2, 3]));
        assert_eq!(b.to_vec(), ints(&[9, 2, 3]));
        // ... and once the wider view is gone
        let mut c = b.rest().unwrap();
        drop((a, b));
        c.push_front(Value::Int(8));
        assert_eq!(c.to_vec(), ints(&[8, 2, 3]));

        // pop a shared chunk, then the same chunk once it is not shared
        let mut a = ConsList::from_vec(ints(&[1, 2, 3]));
        let b = a.clone();
        assert_eq!(a.pop_front(), Some(Value::Int(1)));
        assert_eq!(b.to_vec(), ints(&[1, 2, 3]));
        drop(b);
        assert_eq!(a.pop_front(), Some(Value::Int(2)));
        assert_eq!(a.to_vec(), ints(&[3]));

        // move out of a chunk another handle shares
        let a = ConsList::from_vec(ints(&[1, 2, 3]));
        let b = a.rest().unwrap();
        assert_eq!(b.into_vec(), ints(&[2, 3]));
        assert_eq!(a.into_vec(), ints(&[1, 2, 3]));
    }

    /// One step of the model test: aliased handles and, per handle, the
    /// `Vec` it must read as.
    fn step(word: u64, lists: &mut [ConsList], model: &mut [Vec<Value>]) -> Result<(), String> {
        let k = lists.len() as u64;
        let (h, g) = ((word / 16 % k) as usize, (word / 64 % k) as usize);
        let v = Value::Int((word >> 16) as i64 % 1_000);
        match word % 16 {
            0 | 1 => {
                lists[h] = ConsList::cons(v.clone(), &lists[g]);
                model[h] = [vec![v], model[g].clone()].concat();
            }
            2..=4 => {
                lists[h].push_front(v.clone());
                model[h].insert(0, v);
            }
            5..=7 => {
                let want = (!model[h].is_empty()).then(|| model[h].remove(0));
                if lists[h].pop_front() != want {
                    return Err(format!("pop_front of handle {h}"));
                }
            }
            8 => {
                if let Some(r) = lists[g].rest() {
                    lists[h] = r;
                    model[h] = model[g][1..].to_vec();
                }
            }
            9 => {
                lists[h] = lists[h].append(&lists[g]);
                model[h] = [model[h].clone(), model[g].clone()].concat();
            }
            10 => {
                let items: Vec<Value> =
                    (0..(word >> 8) % 5).map(|i| Value::Int(i as i64)).collect();
                lists[h] = ConsList::from_vec(items.clone());
                model[h] = items;
            }
            11 => {
                let moved = take(&mut lists[h]).into_vec();
                if moved != model[h] {
                    return Err(format!("into_vec of handle {h}: {moved:?}"));
                }
                lists[h] = ConsList::from_vec(moved);
            }
            12 | 13 => {
                lists[h] = lists[g].clone();
                model[h] = model[g].clone();
            }
            14 => {
                if (lists[h] == lists[g]) != (model[h] == model[g]) {
                    return Err(format!("handles {h} == {g}"));
                }
            }
            _ => {
                let back = Value::from_bytes(&Value::List(lists[h].clone()).to_bytes());
                if back != Ok(Value::List(ConsList::from_vec(model[h].clone()))) {
                    return Err(format!("wire round trip of handle {h}"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// Random borrowing and owned operations over four aliased
        /// handles: after every step, every handle reads as its model.
        #[test]
        fn every_handle_reads_as_its_vec_model(
            words in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let mut lists = vec![ConsList::new(); 4];
            let mut model = vec![Vec::new(); 4];
            for (at, &w) in words.iter().enumerate() {
                let stepped = step(w, &mut lists, &mut model);
                prop_assert!(stepped.is_ok(), "step {}: {:?}", at, stepped);
                for (l, m) in lists.iter().zip(&model) {
                    prop_assert_eq!(&l.iter().cloned().collect::<Vec<_>>(), m);
                    prop_assert_eq!(l.len(), m.len());
                    prop_assert_eq!(l.iter().size_hint(), (m.len(), Some(m.len())));
                    prop_assert_eq!(l.first(), m.first());
                }
            }
        }
    }

    fn list_of(items: Vec<Value>) -> Value {
        Value::List(ConsList::from_vec(items))
    }

    fn roundtrip(v: Value) {
        let b = v.to_bytes();
        assert_eq!(Value::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn values_roundtrip() {
        roundtrip(Value::Int(-42));
        roundtrip(Value::Float(2.5));
        roundtrip(Value::Unit);
        roundtrip(Value::Index([3, -1]));
        roundtrip(Value::Bounds([0, 0], [4, 5]));
        roundtrip(Value::Struct(2, vec![Value::Float(1.5), Value::Int(7)]));
        roundtrip(list_of(vec![Value::Int(1), list_of(vec![Value::Float(0.5)])]));
    }

    #[test]
    #[should_panic(expected = "pardata")]
    fn arrays_cannot_flatten() {
        let _ = Value::Array(0).to_bytes();
    }

    #[test]
    fn rendering() {
        assert_eq!(Value::Int(3).render(), "3");
        assert_eq!(Value::Index([1, 2]).render(), "{1, 2}");
        assert_eq!(Value::Struct(0, vec![Value::Int(1), Value::Float(0.5)]).render(), "{1, 0.5}");
        assert_eq!(list_of(vec![Value::Int(1), Value::Int(2)]).render(), "[1, 2]");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::Float(1.5).as_float(), 1.5);
        assert_eq!(Value::Index([1, 2]).as_index(), [1, 2]);
        assert_eq!(Value::Array(3).as_array(), 3);
    }

    #[test]
    fn cons_shares_the_tail() {
        let base = ConsList::from_vec(vec![Value::Int(1), Value::Int(2)]);
        let a = ConsList::cons(Value::Int(10), &base);
        let b = ConsList::cons(Value::Int(20), &base);
        // both extended lists see the shared tail unchanged
        assert_eq!(a.to_vec(), vec![Value::Int(10), Value::Int(1), Value::Int(2)]);
        assert_eq!(b.to_vec(), vec![Value::Int(20), Value::Int(1), Value::Int(2)]);
        assert_eq!(a.rest().unwrap(), base);
        assert_eq!(a.rest().unwrap(), b.rest().unwrap());
    }

    #[test]
    fn ten_thousand_element_build_is_cheap() {
        // The canonical Skil building loop `l = cons(i, l)`: with shared
        // tails each step is O(1), so 10k elements assemble (and drop)
        // without copying 10k spines. This also exercises the iterative
        // Drop (a recursive drop would blow the stack well before 100k).
        let n = 10_000;
        let mut l = ConsList::new();
        for i in 0..n {
            l = ConsList::cons(Value::Int(i), &l);
        }
        assert_eq!(l.len(), n as usize);
        assert_eq!(l.first(), Some(&Value::Int(n - 1)));
        assert_eq!(l.iter().count(), n as usize);
        // tail is O(1) and keeps the length bookkeeping consistent
        let t = l.rest().unwrap();
        assert_eq!(t.len(), n as usize - 1);
        assert_eq!(t.first(), Some(&Value::Int(n - 2)));
        // equality on long equal lists terminates via the pointer-eq
        // shortcut on the shared spine
        let l2 = ConsList::cons(Value::Int(n - 1), &t);
        assert_eq!(l, l2);
    }

    #[test]
    fn dropping_unlinks_a_long_spine_and_stops_at_a_shared_tail() {
        let long = (0..200_000).fold(ConsList::new(), |l, i| ConsList::cons(Value::Int(i), &l));
        drop(long);
        // one chunk, grown in place
        let mut pushed = ConsList::new();
        for i in 0..200_000 {
            pushed.push_front(Value::Int(i));
        }
        assert_eq!(pushed.first(), Some(&Value::Int(199_999)));
        drop(pushed);
        // a clone held across every push: 200k one-element chunks
        let mut shared = ConsList::new();
        for i in 0..200_000 {
            let held = shared.clone();
            shared.push_front(Value::Int(i));
            assert_eq!(shared.rest().unwrap(), held);
        }
        assert_eq!(shared.len(), 200_000);
        drop(shared);

        let tail = ConsList::from_vec((0..1_000).map(Value::Int).collect());
        let sibling = ConsList::cons(Value::Int(-1), &tail);
        let kept = ConsList::cons(Value::Int(-2), &tail);
        drop(tail);
        drop(sibling);
        assert_eq!(kept.len(), 1_001);
        assert_eq!(kept.iter().nth(1_000), Some(&Value::Int(999)));
        assert_eq!(kept.rest().unwrap().to_vec(), (0..1_000).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn append_shares_the_right_list() {
        let a = ConsList::from_vec(vec![Value::Int(1), Value::Int(2)]);
        let b = ConsList::from_vec(vec![Value::Int(3)]);
        let ab = a.append(&b);
        assert_eq!(ab.to_vec(), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(ab.len(), 3);
        assert!(a.append(&ConsList::new()) == a);
        assert!(ConsList::new().append(&b) == b);
    }
}
