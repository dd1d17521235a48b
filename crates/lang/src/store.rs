//! The skeleton host's typed array store.
//!
//! Instantiation leaves every array with a static element type, so the
//! `vm` and `native` engines keep `array<int>` and `array<float>`
//! partitions unboxed — one `i64` / `f64` per element — and arrays of
//! flat structs (at most eight `int` / `float` fields) as the fields'
//! words ([`FlatElem`], `Copy`); only lists, `Index` and structs of more
//! than scalars fall back to a tagged [`Value`] per element.
//! `skil-core`'s skeletons are generic over the element type, so each
//! [`ArrayStore`] variant instantiates them at its own representation;
//! the [`Elem`] trait is the one interface the skeleton bodies in
//! [`crate::host`] are written against.
//!
//! The unboxed elements flatten to exactly the bytes of the `Value` they
//! stand for (tag + 8 bytes), so message lengths, the inline/heap
//! envelope split, transit charges and therefore virtual time cannot
//! tell the representations apart. The AST walker runs the same host
//! with every array [`ArrayStore::Boxed`]: that the typed variants agree
//! with it is what the differential tests check.

#![forbid(unsafe_code)]

use skil_array::{Bounds, DistArray, Index};
use skil_runtime::{Wire, WireError, WireReader};

use crate::bytecode::{ElemKind, Intr, KernelShape};
use crate::fo::BinOp;
use crate::kernel::{Flat, KArg, KTy};
use crate::scalar::{float_arith, int_bin, scalar_intr, Scalar};
use crate::value::{Value, WIRE_TAG_FLOAT, WIRE_TAG_INT, WIRE_TAG_STRUCT};
use crate::vm::Sl;

/// An `array<int>` element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IntElem(pub(crate) i64);

/// An `array<float>` element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FloatElem(pub(crate) f64);

/// `Value::Int` / `Value::Float`'s encoding — one tag byte, then the
/// scalar little-endian — without the enum around it.
macro_rules! wire_scalar_elem {
    ($elem:ident, $scalar:ty, $tag:expr) => {
        impl Wire for $elem {
            const WIRE_SIZE: Option<usize> = Some(9);

            fn flatten(&self, out: &mut Vec<u8>) {
                out.push($tag);
                out.extend_from_slice(&self.0.to_le_bytes());
            }

            fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(9)?;
                if bytes[0] != $tag {
                    return Err(WireError::Invalid("bad array element tag"));
                }
                let scalar = bytes[1..].try_into().expect("took 9 bytes");
                Ok($elem(<$scalar>::from_le_bytes(scalar)))
            }
        }
    };
}

wire_scalar_elem!(IntElem, i64, WIRE_TAG_INT);
wire_scalar_elem!(FloatElem, f64, WIRE_TAG_FLOAT);

/// A flat struct — at most [`Flat::MAX_FIELDS`] fields, each `int` or
/// `float` — as its fields' words: what an array of such structs stores
/// per element and what a fold over them passes around, with no
/// allocation anywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlatElem {
    flat: Flat,
    /// Field `k` in `w[k]`: an `int` as it is, a `float` by its bits.
    w: [u64; Flat::MAX_FIELDS],
}

impl FlatElem {
    pub(crate) fn new(flat: Flat, words: &[u64]) -> FlatElem {
        let mut w = [0; Flat::MAX_FIELDS];
        w[..flat.n as usize].copy_from_slice(words);
        FlatElem { flat, w }
    }

    /// The fields' words, in order.
    pub(crate) fn words(&self) -> &[u64] {
        &self.w[..self.flat.n as usize]
    }

    /// The struct as the `Value` it stands for.
    pub(crate) fn to_value(self) -> Value {
        Value::from_words(KTy::Struct(self.flat), self.words())
    }

    /// The flat struct inside `v`. The type checker guarantees the
    /// type; anything else is an engine bug and panics.
    pub(crate) fn from_value(v: &Value) -> FlatElem {
        let Value::Struct(sid, fields) = v else {
            panic!("expected a flat struct, got {v:?}");
        };
        let mut w = [0; Flat::MAX_FIELDS];
        let mut floats = 0;
        assert!(fields.len() <= Flat::MAX_FIELDS, "expected a flat struct, got {v:?}");
        for (k, field) in fields.iter().enumerate() {
            match field {
                Value::Int(i) => w[k] = *i as u64,
                Value::Float(f) => {
                    w[k] = f.to_bits();
                    floats |= 1 << k;
                }
                other => panic!("expected a scalar struct field, got {other:?}"),
            }
        }
        FlatElem { flat: Flat::new(*sid as u16, fields.len() as u8, floats), w }
    }
}

/// `Value::Struct`'s encoding of a struct of scalars — tag, struct id,
/// field count, then each field as a tagged scalar — without the
/// `Vec<Value>` behind it.
impl Wire for FlatElem {
    fn flatten(&self, out: &mut Vec<u8>) {
        out.push(WIRE_TAG_STRUCT);
        (self.flat.sid as u32).flatten(out);
        (self.flat.n as u64).flatten(out);
        for (k, w) in self.words().iter().enumerate() {
            let float = self.flat.field(k) == KTy::Float;
            out.push(if float { WIRE_TAG_FLOAT } else { WIRE_TAG_INT });
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.take(1)?[0] != WIRE_TAG_STRUCT {
            return Err(WireError::Invalid("bad array element tag"));
        }
        let sid = u16::try_from(u32::unflatten(r)?)
            .map_err(|_| WireError::Invalid("struct id out of range"))?;
        let n = u64::unflatten(r)?;
        if n > Flat::MAX_FIELDS as u64 {
            return Err(WireError::Invalid("too many fields for a flat struct"));
        }
        let mut w = [0; Flat::MAX_FIELDS];
        let mut floats = 0;
        for (k, w) in w.iter_mut().enumerate().take(n as usize) {
            let bytes = r.take(9)?;
            match bytes[0] {
                WIRE_TAG_INT => {}
                WIRE_TAG_FLOAT => floats |= 1 << k,
                _ => return Err(WireError::Invalid("bad struct field tag")),
            }
            *w = u64::from_le_bytes(bytes[1..].try_into().expect("took 9 bytes"));
        }
        Ok(FlatElem { flat: Flat::new(sid, n as u8, floats), w })
    }
}

/// What the skeleton bridge needs of an array element representation.
pub(crate) trait Elem: Wire + Clone + 'static {
    /// Take an element out of a VM slot. The type checker guarantees
    /// the slot's type; a mismatch is an engine bug and panics.
    fn from_sl(s: Sl) -> Self;

    /// Hand an element to the VM as a slot.
    fn into_sl(self) -> Sl;

    /// Hand an element to an argument function.
    fn arg(&self) -> KArg<'_>;

    /// Take a typed kernel's result, of type `ty`, out of its result
    /// registers (as many as the type has). The type checker guarantees
    /// the type; a mismatch is an engine bug and panics.
    fn from_words(ty: KTy, w: &[u64]) -> Self;

    /// Wrap a typed partition as a store.
    fn wrap(arr: DistArray<Self>) -> ArrayStore;

    /// The typed partition inside `store`. The type checker guarantees
    /// that arrays used together share an element type; a mismatch is
    /// an engine bug and panics.
    fn of(store: &ArrayStore) -> &DistArray<Self>;

    /// Apply a closed operator a site resolved over elements of this
    /// type ([`crate::bytecode::SkelSite::direct`]: scalars only). With
    /// a constant `op` the match folds away and what is left is the
    /// operation.
    fn apply(_op: Direct, _x: Self, _y: Self) -> Self {
        unreachable!("no direct operator resolves over this element type")
    }
}

/// A trivial `(T, T) -> T` argument function over scalar elements as a
/// closed operator: a binary operator section, or `min` / `max` (`fmin`
/// / `fmax` over floats). Which family applies is the element type's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direct {
    Bin(BinOp),
    Min,
    Max,
}

impl Direct {
    /// The operator of a trivial shape whose operands are exactly the
    /// two element parameters, in order (they follow the `n_lifted`
    /// lifted ones), over `float` or `int` elements. Float comparisons
    /// yield `int`, so they are not `(T, T) -> T`.
    pub(crate) fn of(shape: &KernelShape, n_lifted: usize, float_elems: bool) -> Option<Direct> {
        let elems = [n_lifted, n_lifted + 1];
        match shape {
            KernelShape::Bin { op, float, a, b }
                if [*a, *b] == elems && *float == float_elems && (!float || op.is_arithmetic()) =>
            {
                Some(Direct::Bin(*op))
            }
            KernelShape::Intrinsic { op, slots } if slots[..] == elems => match (op, float_elems) {
                (Intr::Min, false) | (Intr::Fmin, true) => Some(Direct::Min),
                (Intr::Max, false) | (Intr::Fmax, true) => Some(Direct::Max),
                _ => None,
            },
            _ => None,
        }
    }

    /// Listing spelling: the operator's lexeme, `min`, `max`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Direct::Bin(op) => op.lexeme(),
            Direct::Min => "min",
            Direct::Max => "max",
        }
    }
}

/// `wrap` and `of` for the element type stored in `ArrayStore::$variant`.
macro_rules! store_variant {
    ($variant:ident) => {
        fn wrap(arr: DistArray<Self>) -> ArrayStore {
            ArrayStore::$variant(arr)
        }

        fn of(store: &ArrayStore) -> &DistArray<Self> {
            match store {
                ArrayStore::$variant(a) => a,
                _ => panic!("expected a {} array", ElemKind::$variant.name()),
            }
        }
    };
}

impl Elem for IntElem {
    store_variant!(Int);

    fn from_sl(s: Sl) -> Self {
        IntElem(s.as_int())
    }

    fn into_sl(self) -> Sl {
        Sl::I(self.0)
    }

    fn arg(&self) -> KArg<'_> {
        KArg::I(self.0)
    }

    fn from_words(ty: KTy, w: &[u64]) -> Self {
        assert_eq!(ty, KTy::Int, "expected an int result");
        IntElem(w[0] as i64)
    }

    #[inline(always)]
    fn apply(op: Direct, x: Self, y: Self) -> Self {
        let intr = |op| match scalar_intr(op, |k| if k == 0 { x.0 } else { y.0 }, |_| 0.0) {
            Some(Scalar::I(v)) => v,
            _ => unreachable!("min and max over ints yield an int"),
        };
        IntElem(match op {
            Direct::Bin(op) => int_bin(op, x.0, y.0),
            Direct::Min => intr(Intr::Min),
            Direct::Max => intr(Intr::Max),
        })
    }
}

impl Elem for FloatElem {
    store_variant!(Float);

    fn from_sl(s: Sl) -> Self {
        FloatElem(s.as_float())
    }

    fn into_sl(self) -> Sl {
        Sl::F(self.0)
    }

    fn arg(&self) -> KArg<'_> {
        KArg::F(self.0)
    }

    fn from_words(ty: KTy, w: &[u64]) -> Self {
        assert_eq!(ty, KTy::Float, "expected a float result");
        FloatElem(f64::from_bits(w[0]))
    }

    #[inline(always)]
    fn apply(op: Direct, x: Self, y: Self) -> Self {
        let intr = |op| match scalar_intr(op, |_| 0, |k| if k == 0 { x.0 } else { y.0 }) {
            Some(Scalar::F(v)) => v,
            _ => unreachable!("fmin and fmax yield a float"),
        };
        FloatElem(match op {
            Direct::Bin(op) => float_arith(op, x.0, y.0),
            Direct::Min => intr(Intr::Fmin),
            Direct::Max => intr(Intr::Fmax),
        })
    }
}

impl Elem for FlatElem {
    store_variant!(Flat);

    fn from_sl(s: Sl) -> Self {
        match s {
            Sl::V(v) => FlatElem::from_value(&v),
            other => panic!("expected a flat struct, got {:?}", other.into_value()),
        }
    }

    fn into_sl(self) -> Sl {
        Sl::V(self.to_value())
    }

    fn arg(&self) -> KArg<'_> {
        KArg::W(self)
    }

    fn from_words(ty: KTy, w: &[u64]) -> Self {
        match ty {
            KTy::Struct(flat) => FlatElem::new(flat, w),
            other => panic!("expected a flat struct result, got {}", other.name()),
        }
    }
}

impl Elem for Value {
    store_variant!(Boxed);

    fn from_sl(s: Sl) -> Self {
        s.into_value()
    }

    fn into_sl(self) -> Sl {
        Sl::from_value(self)
    }

    fn arg(&self) -> KArg<'_> {
        KArg::V(self)
    }

    fn from_words(ty: KTy, w: &[u64]) -> Self {
        match ty {
            KTy::Unit => Value::Unit,
            KTy::Int => Value::Int(w[0] as i64),
            KTy::Float => Value::Float(f64::from_bits(w[0])),
            KTy::Index => Value::Index([w[0] as i64, w[1] as i64]),
            KTy::ArrInt | KTy::ArrFloat => Value::Array(w[0] as usize),
            KTy::Bounds => unreachable!("no argument function returns Bounds"),
            KTy::List(_) => unreachable!("a list result is taken from the side window"),
            KTy::Struct(flat) => {
                let field = |(k, w): (usize, &u64)| Value::from_words(flat.field(k), &[*w]);
                Value::Struct(flat.sid as u32, w.iter().enumerate().map(field).collect())
            }
        }
    }
}

/// One processor's partition of one array, in the representation its
/// static element type selects.
pub(crate) enum ArrayStore {
    Int(DistArray<IntElem>),
    Float(DistArray<FloatElem>),
    Flat(DistArray<FlatElem>),
    Boxed(DistArray<Value>),
}

/// Evaluate `$body` with `$arr` bound to the typed partition inside
/// `$store` (a `&ArrayStore` or `&mut ArrayStore`) — one instantiation
/// of a generic `$body` per representation. With a leading `$typed`
/// flag that is `false` — a constant of an engine that keeps every
/// array boxed — only the boxed instantiation is reachable, and only it
/// is compiled.
macro_rules! with_store {
    ($store:expr, $arr:ident => $body:expr) => {
        match $store {
            $crate::store::ArrayStore::Int($arr) => $body,
            $crate::store::ArrayStore::Float($arr) => $body,
            $crate::store::ArrayStore::Flat($arr) => $body,
            $crate::store::ArrayStore::Boxed($arr) => $body,
        }
    };
    ($typed:expr, $store:expr, $arr:ident => $body:expr) => {
        match $store {
            $crate::store::ArrayStore::Int($arr) if $typed => $body,
            $crate::store::ArrayStore::Float($arr) if $typed => $body,
            $crate::store::ArrayStore::Flat($arr) if $typed => $body,
            $crate::store::ArrayStore::Boxed($arr) => $body,
            _ => unreachable!("this engine keeps every array boxed"),
        }
    };
}

/// Evaluate `$body` with the type alias `$T` bound to the element type
/// an [`ElemKind`](crate::bytecode::ElemKind) selects; `$typed` as in
/// [`with_store`].
macro_rules! with_kind {
    ($typed:expr, $kind:expr, $T:ident => $body:expr) => {
        match $kind {
            $crate::bytecode::ElemKind::Int if $typed => {
                type $T = $crate::store::IntElem;
                $body
            }
            $crate::bytecode::ElemKind::Float if $typed => {
                type $T = $crate::store::FloatElem;
                $body
            }
            $crate::bytecode::ElemKind::Flat if $typed => {
                type $T = $crate::store::FlatElem;
                $body
            }
            $crate::bytecode::ElemKind::Boxed => {
                type $T = $crate::value::Value;
                $body
            }
            _ => unreachable!("this engine keeps every array boxed"),
        }
    };
}

pub(crate) use {with_kind, with_store};

impl ArrayStore {
    /// `array_get_elem`: read a local element.
    pub(crate) fn get(&self, ix: Index) -> skil_array::Result<Sl> {
        with_store!(self, a => a.get(ix).cloned().map(Elem::into_sl))
    }

    /// `array_put_elem`: overwrite a local element.
    pub(crate) fn put(&mut self, ix: Index, v: Sl) -> skil_array::Result<()> {
        with_store!(self, a => a.put(ix, Elem::from_sl(v)))
    }

    /// `array_part_bounds`.
    pub(crate) fn part_bounds(&self) -> skil_array::Result<Bounds> {
        with_store!(self, a => a.part_bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skil_runtime::mailbox::INLINE_PAYLOAD;

    /// Encode and decode `scalars` both ways; the unboxed encoding must
    /// be the boxed one, byte for byte, and decode to the same scalars.
    fn assert_wire_identical<E, S>(scalars: &[S], elem: fn(S) -> E, value: fn(S) -> Value)
    where
        E: Wire + PartialEq + std::fmt::Debug,
        S: Copy,
    {
        let unboxed: Vec<E> = scalars.iter().map(|&s| elem(s)).collect();
        let boxed: Vec<Value> = scalars.iter().map(|&s| value(s)).collect();
        let bytes = unboxed.to_bytes();
        assert_eq!(bytes, boxed.to_bytes());
        assert_eq!(Vec::<E>::from_bytes(&bytes).unwrap(), unboxed);
        // a single element and an `Option` of one, as scan and fold send
        for (u, b) in unboxed.iter().zip(&boxed) {
            assert_eq!(u.to_bytes(), b.to_bytes());
        }
        if let (Some(u), Some(b)) = (unboxed.into_iter().next(), boxed.into_iter().next()) {
            assert_eq!(Some(u).to_bytes(), Some(b).to_bytes());
        }
    }

    #[test]
    fn six_elements_fit_the_inline_envelope_and_seven_do_not() {
        for (n, len) in [(6usize, 62usize), (7, 71)] {
            let ints: Vec<IntElem> = (0..n as i64).map(IntElem).collect();
            let floats: Vec<FloatElem> = (0..n).map(|i| FloatElem(i as f64)).collect();
            assert_eq!(ints.to_bytes().len(), len);
            assert_eq!(floats.to_bytes().len(), len);
            assert_eq!(len <= INLINE_PAYLOAD, n == 6);
        }
    }

    #[test]
    fn a_foreign_tag_is_rejected() {
        let bytes = vec![Value::Float(1.0)].to_bytes();
        assert!(Vec::<IntElem>::from_bytes(&bytes).is_err());
        let bytes = vec![Value::Int(1)].to_bytes();
        assert!(Vec::<FloatElem>::from_bytes(&bytes).is_err());
        // truncated payload: the length prefix promises more than is there
        let mut bytes = vec![IntElem(1), IntElem(2)].to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Vec::<IntElem>::from_bytes(&bytes).is_err());
    }

    /// A flat element and the `Value` it stands for, from per-field
    /// `(is_float, bits)`.
    fn flat_and_boxed(sid: u16, fields: &[(bool, u64)]) -> (FlatElem, Value) {
        let floats = fields.iter().enumerate().fold(0, |m, (k, f)| m | (f.0 as u8) << k);
        let words: Vec<u64> = fields.iter().map(|f| f.1).collect();
        let boxed =
            fields
                .iter()
                .map(|&(float, bits)| {
                    if float {
                        Value::Float(f64::from_bits(bits))
                    } else {
                        Value::Int(bits as i64)
                    }
                })
                .collect();
        let flat = Flat::new(sid, fields.len() as u8, floats);
        (FlatElem::new(flat, &words), Value::Struct(sid as u32, boxed))
    }

    #[test]
    fn five_fields_fit_the_inline_envelope_in_an_option_and_six_do_not() {
        for (n, len) in [(3usize, 40usize), (5, 58), (6, 67)] {
            let (flat, boxed) = flat_and_boxed(2, &vec![(true, 1.5f64.to_bits()); n]);
            assert_eq!(flat.to_bytes().len(), len);
            assert_eq!(Some(flat).to_bytes(), Some(boxed).to_bytes());
            assert_eq!(len < INLINE_PAYLOAD, n <= 5);
        }
    }

    #[test]
    fn a_flat_element_rejects_what_is_not_a_flat_struct() {
        let nine = Value::Struct(0, vec![Value::Int(1); 9]).to_bytes();
        assert!(FlatElem::from_bytes(&nine).is_err());
        let nested = Value::Struct(0, vec![Value::Index([1, 2])]).to_bytes();
        assert!(FlatElem::from_bytes(&nested).is_err());
        assert!(FlatElem::from_bytes(&Value::Int(1).to_bytes()).is_err());
        let mut cut = flat_and_boxed(1, &[(false, 7), (true, 0)]).0.to_bytes();
        cut.pop();
        assert!(FlatElem::from_bytes(&cut).is_err());
    }

    proptest! {
        /// Every field bit pattern, NaNs included, every field count
        /// and mix: alone, in a `Vec` (which crosses the 64-byte
        /// envelope boundary at two elements) and inside the `Option` a
        /// fold sends, a flat element's bytes are `Value::Struct`'s, and
        /// they decode to the same words.
        #[test]
        fn flat_elements_flatten_like_struct_values(
            sid in any::<u16>(),
            // per element: field count in the low byte, which fields
            // are floats in the high one
            shapes in proptest::collection::vec(any::<u16>(), 0..6),
            words in proptest::collection::vec(any::<u64>(), 48..49),
        ) {
            let (flat, boxed): (Vec<FlatElem>, Vec<Value>) = shapes
                .iter()
                .enumerate()
                .map(|(e, shape)| {
                    let n = (shape & 0xff) as usize % (Flat::MAX_FIELDS + 1);
                    let fields: Vec<(bool, u64)> =
                        (0..n).map(|k| (shape >> (8 + k) & 1 == 1, words[e * 8 + k])).collect();
                    flat_and_boxed(sid, &fields)
                })
                .unzip();
            let bytes = flat.to_bytes();
            prop_assert_eq!(&bytes, &boxed.to_bytes());
            prop_assert_eq!(&Vec::<FlatElem>::from_bytes(&bytes).unwrap(), &flat);
            for (f, b) in flat.iter().zip(&boxed) {
                prop_assert_eq!(f.to_bytes(), b.to_bytes());
                prop_assert_eq!(Some(*f).to_bytes(), Some(b.clone()).to_bytes());
                prop_assert_eq!(FlatElem::from_bytes(&b.to_bytes()).unwrap(), *f);
                // and by way of the `Value`, as the generic loop sees it
                prop_assert_eq!(FlatElem::from_value(&f.to_value()), *f);
            }
        }

        #[test]
        fn int_elements_flatten_like_values(xs in proptest::collection::vec(any::<i64>(), 0..24)) {
            assert_wire_identical(&xs, IntElem, Value::Int);
        }

        #[test]
        fn float_elements_flatten_like_values(bits in proptest::collection::vec(any::<u64>(), 0..24)) {
            // every bit pattern, NaNs included: compare encodings, and
            // the decoded scalars by bits
            let unboxed: Vec<FloatElem> = bits.iter().map(|&b| FloatElem(f64::from_bits(b))).collect();
            let boxed: Vec<Value> = bits.iter().map(|&b| Value::Float(f64::from_bits(b))).collect();
            let bytes = unboxed.to_bytes();
            prop_assert_eq!(&bytes, &boxed.to_bytes());
            let back = Vec::<FloatElem>::from_bytes(&bytes).unwrap();
            let back_bits: Vec<u64> = back.iter().map(|v| v.0.to_bits()).collect();
            prop_assert_eq!(back_bits, bits);
        }
    }
}
