//! Runtime values of interpreted Skil programs.

use std::sync::Arc;

use skil_runtime::{Wire, WireError, WireReader};

/// A persistent cons list with structural sharing.
///
/// The paper's `list<$t>` values are classic cons lists, and the
/// intrinsics (`cons`, `head`, `tail`) are the classic constructors and
/// selectors. Backing them with a `Vec` made the ubiquitous
/// `l = cons(x, l)` building loop quadratic: every `cons` copied the
/// whole tail, and every variable reference deep-cloned the spine. The
/// shared-node representation makes `cons`, `head`, `tail`, `len`, and
/// `clone` all O(1); only `append` and traversal (printing, flattening,
/// equality) walk the spine.
#[derive(Clone, Debug, Default)]
pub struct ConsList {
    head: Option<Arc<ListNode>>,
}

#[derive(Debug)]
struct ListNode {
    elem: Value,
    /// Length of the list starting at this node (memoized so `len` is
    /// O(1) despite sharing).
    len: usize,
    rest: Option<Arc<ListNode>>,
}

impl ConsList {
    /// The empty list (`nil`).
    pub fn new() -> Self {
        ConsList { head: None }
    }

    /// Number of elements, O(1).
    pub fn len(&self) -> usize {
        self.head.as_ref().map_or(0, |n| n.len)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// `cons(elem, rest)` — prepend without copying the tail, O(1).
    pub fn cons(elem: Value, rest: &ConsList) -> ConsList {
        ConsList {
            head: Some(Arc::new(ListNode { elem, len: rest.len() + 1, rest: rest.head.clone() })),
        }
    }

    /// First element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.head.as_ref().map(|n| &n.elem)
    }

    /// The list after the first element — shares the tail, O(1).
    pub fn rest(&self) -> Option<ConsList> {
        self.head.as_ref().map(|n| ConsList { head: n.rest.clone() })
    }

    /// `append(self, other)` — rebuilds only the left spine (with the
    /// exact capacity reserved up front) and shares the right list.
    pub fn append(&self, other: &ConsList) -> ConsList {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut left = Vec::with_capacity(self.len());
        left.extend(self.iter().cloned());
        let mut out = other.clone();
        while let Some(v) = left.pop() {
            out = ConsList::cons(v, &out);
        }
        out
    }

    /// Iterate front to back.
    pub fn iter(&self) -> ConsIter<'_> {
        ConsIter { node: self.head.as_deref() }
    }

    /// Collect into a `Vec` (used at the task-skeleton boundary, where
    /// `skil-core` farms out plain `Vec<Value>` task lists).
    pub fn to_vec(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }

    /// Build from a `Vec`, preserving order.
    pub fn from_vec(mut items: Vec<Value>) -> ConsList {
        let mut out = ConsList::new();
        while let Some(v) = items.pop() {
            out = ConsList::cons(v, &out);
        }
        out
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

impl PartialEq for ConsList {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (self.head.as_ref(), other.head.as_ref());
        while let (Some(x), Some(y)) = (a, b) {
            if Arc::ptr_eq(x, y) {
                return true; // shared tail — equal by construction
            }
            if x.elem != y.elem {
                return false;
            }
            a = x.rest.as_ref();
            b = y.rest.as_ref();
        }
        true
    }
}

impl Drop for ConsList {
    fn drop(&mut self) {
        // Unlink iteratively: the derived recursive drop would overflow
        // the stack on long uniquely-owned spines (the 10k+ builds this
        // representation exists for). `into_inner` gives up a shared
        // node's reference in the one atomic decrement; it is then
        // someone else's job.
        let mut cur = self.head.take();
        while let Some(mut n) = cur.and_then(Arc::into_inner) {
            cur = n.rest.take();
        }
    }
}

/// Front-to-back iterator over a [`ConsList`].
pub struct ConsIter<'a> {
    node: Option<&'a ListNode>,
}

impl<'a> Iterator for ConsIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        let n = self.node?;
        self.node = n.rest.as_deref();
        Some(&n.elem)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.node.map_or(0, |n| n.len);
        (n, Some(n))
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

impl Value {
    /// Render for `print`.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v}"),
            Value::Unit => "()".into(),
            Value::Index(ix) => format!("{{{}, {}}}", ix[0], ix[1]),
            Value::Bounds(lo, up) => {
                format!("bounds{{[{}, {}] .. [{}, {}]}}", lo[0], lo[1], up[0], up[1])
            }
            Value::Struct(_, fields) => {
                let inner: Vec<String> = fields.iter().map(|f| f.render()).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(|f| f.render()).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Array(h) => format!("array#{h}"),
        }
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

    /// Approximate wire size in bytes (for cost accounting).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 9,
            Value::Unit => 1,
            Value::Index(_) | Value::Bounds(_, _) => 17,
            Value::Struct(_, fields) => 5 + fields.iter().map(|f| f.wire_size()).sum::<usize>(),
            Value::List(items) => 9 + items.iter().map(|f| f.wire_size()).sum::<usize>(),
            Value::Array(_) => 9,
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
    use super::*;

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
