//! The skeleton host's typed array store.
//!
//! Instantiation leaves every array with a static element type, so the
//! `vm` and `native` engines keep `array<int>` and `array<float>`
//! partitions unboxed — one `i64` / `f64` per element — and fall back to
//! a tagged [`Value`] per element only for structs, lists and `Index`.
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

use skil_array::{Bounds, DistArray, Index};
use skil_runtime::{Wire, WireError, WireReader};

use crate::bytecode::{ElemKind, Intr, KernelShape};
use crate::fo::BinOp;
use crate::kernel::{KArg, KTy};
use crate::native::FfiCodec;
use crate::value::{Value, WIRE_TAG_FLOAT, WIRE_TAG_INT};
use crate::vm::{float_fn, int_fn, Sl};

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

/// What the skeleton bridge needs of an array element representation.
pub(crate) trait Elem: Wire + Clone + FfiCodec + 'static {
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

    /// A `(T, T) -> T` argument function as one direct operation, when
    /// its shape is an operator section or `min`/`max` over exactly the
    /// two element parameters (which follow `n_lifted` lifted ones).
    /// Resolved once per skeleton call, outside the element loop.
    fn direct2(_shape: &KernelShape, _n_lifted: usize) -> Option<fn(Self, Self) -> Self> {
        None
    }
}

/// The operation of a trivial argument function whose operands are
/// exactly the two element parameters, in order (they follow the
/// `n_lifted` lifted ones).
enum Direct {
    Bin(BinOp, bool),
    Intr(Intr),
}

fn direct_shape(shape: &KernelShape, n_lifted: usize) -> Option<Direct> {
    let elems = [n_lifted, n_lifted + 1];
    match shape {
        KernelShape::Bin { op, float, a, b } if [*a, *b] == elems => Some(Direct::Bin(*op, *float)),
        KernelShape::Intrinsic { op, slots } if slots[..] == elems => Some(Direct::Intr(*op)),
        _ => None,
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

    fn direct2(shape: &KernelShape, n_lifted: usize) -> Option<fn(Self, Self) -> Self> {
        match direct_shape(shape, n_lifted)? {
            Direct::Bin(op, false) => Some(int_fn(op)),
            Direct::Intr(Intr::Min) => Some(|x, y| IntElem(x.0.min(y.0))),
            Direct::Intr(Intr::Max) => Some(|x, y| IntElem(x.0.max(y.0))),
            _ => None,
        }
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

    fn direct2(shape: &KernelShape, n_lifted: usize) -> Option<fn(Self, Self) -> Self> {
        match direct_shape(shape, n_lifted)? {
            Direct::Bin(op, true) => float_fn(op),
            Direct::Intr(Intr::Fmin) => Some(|x, y| FloatElem(x.0.min(y.0))),
            Direct::Intr(Intr::Fmax) => Some(|x, y| FloatElem(x.0.max(y.0))),
            _ => None,
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
    Boxed(DistArray<Value>),
}

/// Evaluate `$body` with `$arr` bound to the typed partition inside
/// `$store` (a `&ArrayStore` or `&mut ArrayStore`) — one instantiation
/// of a generic `$body` per representation.
macro_rules! with_store {
    ($store:expr, $arr:ident => $body:expr) => {
        match $store {
            $crate::store::ArrayStore::Int($arr) => $body,
            $crate::store::ArrayStore::Float($arr) => $body,
            $crate::store::ArrayStore::Boxed($arr) => $body,
        }
    };
}

/// Evaluate `$body` with the type alias `$T` bound to the element type
/// an [`ElemKind`](crate::bytecode::ElemKind) selects.
macro_rules! with_kind {
    ($kind:expr, $T:ident => $body:expr) => {
        match $kind {
            $crate::bytecode::ElemKind::Int => {
                type $T = $crate::store::IntElem;
                $body
            }
            $crate::bytecode::ElemKind::Float => {
                type $T = $crate::store::FloatElem;
                $body
            }
            $crate::bytecode::ElemKind::Boxed => {
                type $T = $crate::value::Value;
                $body
            }
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

    proptest! {
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
