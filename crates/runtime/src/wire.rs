//! The wire format: *flattening* and *unflattening* of values.
//!
//! The paper (and its companion \[2\], "Using Algorithmic Skeletons with
//! Dynamic Data Structures") requires that skeletons which move elements of
//! a `pardata` between processors do not move pointers but the data pointed
//! to, via user-supplied flatten/unflatten functions. [`Wire`] is the Rust
//! rendering of that contract: a self-describing, pointer-free byte
//! encoding. All multi-byte integers are little-endian; containers are
//! length-prefixed with a `u64`.
//!
//! Flattened bytes are also the unit of *reliable delivery*: the fault
//! layer (DESIGN.md §12) drops, delays, or duplicates whole flattened
//! messages, never partial encodings, so a retransmitted or
//! duplicate-suppressed message unflattens exactly like the original.

use crate::error::WireError;

/// A cursor over received bytes.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader over a full message payload.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof { wanted: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
}

/// Cap on the claimed element count of a length-prefixed container whose
/// elements occupy **zero** wire bytes (`Vec<()>` and friends). Such a
/// prefix carries no evidence in the payload, so a hostile `u64::MAX`
/// would otherwise spin the decode loop for 2^64 iterations.
pub const MAX_ZERO_SIZE_ELEMS: usize = 1 << 24;

/// Types that can be flattened into a message and unflattened on the other
/// side. This is the mechanism the paper calls "'flattening'/'unflattening'
/// of data" for moving `pardata` elements between processors.
pub trait Wire: Sized {
    /// On-wire byte size, when every value of the type encodes to the
    /// same length (`None` for variable-size types such as `Vec`).
    /// Containers use it to validate hostile length prefixes up front and
    /// to size buffers exactly; the primitive fast paths rely on it.
    const WIRE_SIZE: Option<usize> = None;

    /// Append this value's encoding to `out`.
    fn flatten(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Bulk-encode a slice. The default loops per element; primitive
    /// (POD) types override it with a single block copy, which is what
    /// makes `Vec<f64>` partition moves cheap.
    fn flatten_slice(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.flatten(out);
        }
    }

    /// Bulk-decode exactly `n` values onto the end of `out`, growing it
    /// only past its capacity. The default loops per element; primitive
    /// (POD) types override it with a single block copy, which is what
    /// makes `Vec<f64>` partition moves cheap. Callers are expected to
    /// have validated `n` against [`Wire::WIRE_SIZE`] and the remaining
    /// input where possible.
    fn unflatten_extend(
        r: &mut WireReader<'_>,
        n: usize,
        out: &mut Vec<Self>,
    ) -> Result<(), WireError> {
        for _ in 0..n {
            out.push(Self::unflatten(r)?);
        }
        Ok(())
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.flatten(&mut v);
        v
    }

    /// Decode a complete buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::unflatten(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

/// `Some(a + b)` when both sides are fixed-size (const-evaluable Option
/// addition, used by the tuple/array `WIRE_SIZE` definitions).
pub const fn wire_size_sum(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const WIRE_SIZE: Option<usize> = Some(core::mem::size_of::<$t>());

            fn flatten(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }

            fn flatten_slice(items: &[Self], out: &mut Vec<u8>) {
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: primitives have no padding and the wire
                    // format is little-endian, so on a little-endian host
                    // the in-memory bytes ARE the encoding.
                    let bytes = unsafe {
                        core::slice::from_raw_parts(
                            items.as_ptr() as *const u8,
                            core::mem::size_of_val(items),
                        )
                    };
                    out.extend_from_slice(bytes);
                }
                #[cfg(not(target_endian = "little"))]
                for v in items {
                    v.flatten(out);
                }
            }

            fn unflatten_extend(
                r: &mut WireReader<'_>,
                n: usize,
                out: &mut Vec<Self>,
            ) -> Result<(), WireError> {
                const SIZE: usize = core::mem::size_of::<$t>();
                let total = n
                    .checked_mul(SIZE)
                    .ok_or(WireError::Invalid("container length prefix overflows"))?;
                let bytes = r.take(total)?;
                #[cfg(target_endian = "little")]
                {
                    out.reserve(n);
                    let len = out.len();
                    // SAFETY: `reserve` leaves room for `n` elements past
                    // `len`; every bit pattern is a valid $t; and the
                    // little-endian wire bytes are the host
                    // representation. One memcpy replaces the per-element
                    // decode loop.
                    unsafe {
                        core::ptr::copy_nonoverlapping(
                            bytes.as_ptr(),
                            out.as_mut_ptr().add(len) as *mut u8,
                            total,
                        );
                        out.set_len(len + n);
                    }
                }
                #[cfg(not(target_endian = "little"))]
                out.extend(
                    bytes
                        .chunks_exact(SIZE)
                        .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk size"))),
                );
                Ok(())
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    const WIRE_SIZE: Option<usize> = Some(8);

    fn flatten(&self, out: &mut Vec<u8>) {
        (*self as u64).flatten(out);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = u64::unflatten(r)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for isize {
    const WIRE_SIZE: Option<usize> = Some(8);

    fn flatten(&self, out: &mut Vec<u8>) {
        (*self as i64).flatten(out);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = i64::unflatten(r)?;
        isize::try_from(v).map_err(|_| WireError::Invalid("isize overflow"))
    }
}

impl Wire for bool {
    const WIRE_SIZE: Option<usize> = Some(1);

    fn flatten(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bad bool")),
        }
    }
}

impl Wire for char {
    const WIRE_SIZE: Option<usize> = Some(4);

    fn flatten(&self, out: &mut Vec<u8>) {
        (*self as u32).flatten(out);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        char::from_u32(u32::unflatten(r)?).ok_or(WireError::Invalid("bad char"))
    }
}

impl Wire for () {
    const WIRE_SIZE: Option<usize> = Some(0);

    fn flatten(&self, _out: &mut Vec<u8>) {}
    fn unflatten(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn flatten(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.flatten(out);
            }
        }
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::unflatten(r)?)),
            _ => Err(WireError::Invalid("bad Option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn flatten(&self, out: &mut Vec<u8>) {
        // fixed-size elements: grow the buffer once, not by doubling (a
        // recycled send buffer has the capacity of what it carried last)
        if let Some(size) = T::WIRE_SIZE {
            out.reserve(size.saturating_mul(self.len()).saturating_add(8));
        }
        (self.len() as u64).flatten(out);
        T::flatten_slice(self, out);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut v = Vec::new();
        unflatten_vec_onto(r, &mut v)?;
        Ok(v)
    }
}

/// Decode a `Vec<T>` onto the end of `out`: read its length prefix,
/// validate the claimed count against the actual input before any
/// allocation or decode work, then bulk-decode the elements.
fn unflatten_vec_onto<T: Wire>(r: &mut WireReader<'_>, out: &mut Vec<T>) -> Result<(), WireError> {
    let n64 = u64::unflatten(r)?;
    let n = usize::try_from(n64)
        .map_err(|_| WireError::Invalid("container length prefix overflows"))?;
    match T::WIRE_SIZE {
        // Zero-size elements leave no trace in the payload; cap the
        // count so a hostile prefix cannot spin the decoder.
        Some(0) if n > MAX_ZERO_SIZE_ELEMS => {
            return Err(WireError::Invalid("zero-size element count exceeds cap"));
        }
        Some(0) => {}
        Some(size) => {
            let total = n
                .checked_mul(size)
                .ok_or(WireError::Invalid("container length prefix overflows"))?;
            if total > r.remaining() {
                return Err(WireError::Eof { wanted: total, available: r.remaining() });
            }
        }
        // Variable-size elements: the capacity guard below applies, and
        // the per-element decode hits Eof naturally.
        None => {}
    }
    // Guard against hostile lengths for variable-size elements: never
    // pre-reserve more than the input could possibly hold.
    out.reserve_exact(n.min(r.remaining().max(16)));
    T::unflatten_extend(r, n, out)
}

/// `Vec::<T>::from_bytes` into `out`: its contents are replaced, its
/// allocation kept. Every check of `from_bytes` applies — the length
/// prefix against the input, end of input, trailing bytes; on an error
/// `out` holds whatever decoded before it.
pub(crate) fn vec_from_bytes_into<T: Wire>(buf: &[u8], out: &mut Vec<T>) -> Result<(), WireError> {
    let mut r = WireReader::new(buf);
    out.clear();
    unflatten_vec_onto(&mut r, out)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(())
}

impl Wire for String {
    fn flatten(&self, out: &mut Vec<u8>) {
        (self.len() as u64).flatten(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u64::unflatten(r)? as usize;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("bad utf8"))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    const WIRE_SIZE: Option<usize> = match T::WIRE_SIZE {
        Some(size) => Some(size * N),
        None => None,
    };

    fn flatten(&self, out: &mut Vec<u8>) {
        T::flatten_slice(self, out);
    }
    fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Decode straight into the array — no heap detour. `from_fn`
        // cannot early-return, so a decode error is parked in `err` and
        // the affected slots are left as `None`.
        let mut err = None;
        let parts: [Option<T>; N] = core::array::from_fn(|_| {
            if err.is_some() {
                return None;
            }
            match T::unflatten(r) {
                Ok(v) => Some(v),
                Err(e) => {
                    err = Some(e);
                    None
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(parts.map(|v| v.expect("filled when no error"))),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const WIRE_SIZE: Option<usize> = {
                let acc = Some(0usize);
                $(let acc = wire_size_sum(acc, $name::WIRE_SIZE);)+
                acc
            };

            fn flatten(&self, out: &mut Vec<u8>) {
                $(self.$idx.flatten(out);)+
            }
            fn unflatten(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::unflatten(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-5i8);
        roundtrip(0xBEEFu16);
        roundtrip(-1234i16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(i32::MIN);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(-9isize);
        roundtrip(1.5f32);
        roundtrip(-2.25e300f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip('ß');
        roundtrip(());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip("hällo wörld".to_string());
        roundtrip(String::new());
        roundtrip([1u32, 2, 3]);
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip(vec![(1u32, "a".to_string()), (2, "b".to_string())]);
        roundtrip(vec![vec![1.0f64], vec![], vec![2.0, 3.0]]);
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::Invalid("bad bool")));
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert!(Option::<u8>::from_bytes(&[9, 1]).is_err());
    }

    #[test]
    fn eof_detected() {
        let e = u64::from_bytes(&[1, 2, 3]);
        assert_eq!(e, Err(WireError::Eof { wanted: 8, available: 3 }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 7u8.to_bytes();
        bytes.push(0);
        assert_eq!(u8::from_bytes(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2u64.flatten(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_vec_rejected() {
        let mut bytes = Vec::new();
        3u64.flatten(&mut bytes); // claims 3 elements
        1u32.flatten(&mut bytes); // provides 1
        assert!(Vec::<u32>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn little_endian_layout() {
        assert_eq!(0x0102u16.to_bytes(), vec![0x02, 0x01]);
        assert_eq!(1u64.to_bytes(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn vec_length_prefix() {
        let bytes = vec![9u8].to_bytes();
        assert_eq!(bytes.len(), 8 + 1);
        assert_eq!(bytes[0], 1); // length 1, little-endian
        assert_eq!(bytes[8], 9);
    }

    #[test]
    fn hostile_zero_size_element_count_capped() {
        // A `Vec<()>` prefix claiming u64::MAX elements must be rejected
        // quickly, not spin the decode loop for 2^64 iterations.
        let bytes = u64::MAX.to_bytes();
        assert_eq!(
            Vec::<()>::from_bytes(&bytes),
            Err(WireError::Invalid("zero-size element count exceeds cap"))
        );
        // Same through a nested container element.
        let hostile = u64::MAX.to_bytes();
        assert!(Vec::<((), ())>::from_bytes(&hostile).is_err());
        // At or below the cap still works.
        let mut ok = Vec::new();
        3u64.flatten(&mut ok);
        assert_eq!(Vec::<()>::from_bytes(&ok), Ok(vec![(), (), ()]));
    }

    #[test]
    fn hostile_fixed_size_prefix_rejected_before_allocation() {
        // Claims 2^61 f64s with an 8-byte payload: must fail up front
        // (Eof) rather than attempt a huge reservation.
        let mut bytes = (1u64 << 61).to_bytes();
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        match Vec::<f64>::from_bytes(&bytes) {
            Err(WireError::Eof { .. }) | Err(WireError::Invalid(_)) => {}
            other => panic!("hostile prefix accepted: {other:?}"),
        }
        // And a count whose byte total overflows usize.
        let overflow = u64::MAX.to_bytes();
        assert!(Vec::<u64>::from_bytes(&overflow).is_err());
    }

    #[test]
    fn array_decode_needs_no_heap_and_errors_cleanly() {
        let v: [u64; 3] = [7, 8, 9];
        roundtrip(v);
        // Truncated input surfaces the element error.
        let mut bytes = v.to_bytes();
        bytes.truncate(20);
        assert!(<[u64; 3]>::from_bytes(&bytes).is_err());
        // Zero-length arrays are fine.
        roundtrip::<[u32; 0]>([]);
    }

    #[test]
    fn wire_size_consts() {
        assert_eq!(u8::WIRE_SIZE, Some(1));
        assert_eq!(f64::WIRE_SIZE, Some(8));
        assert_eq!(<()>::WIRE_SIZE, Some(0));
        assert_eq!(<(u8, u32)>::WIRE_SIZE, Some(5));
        assert_eq!(<[f32; 4]>::WIRE_SIZE, Some(16));
        assert_eq!(<Vec<u8>>::WIRE_SIZE, None);
        assert_eq!(<(u8, String)>::WIRE_SIZE, None);
        assert_eq!(<[Vec<u8>; 2]>::WIRE_SIZE, None);
    }

    #[test]
    fn bulk_and_generic_paths_agree() {
        // The POD override must emit exactly the bytes of the per-element
        // path (the proptest in tests/props.rs covers this broadly).
        let vals = vec![0.5f64, -1.25, f64::MAX, f64::MIN_POSITIVE, 0.0, -0.0];
        let mut generic = Vec::new();
        (vals.len() as u64).flatten(&mut generic);
        for v in &vals {
            v.flatten(&mut generic);
        }
        assert_eq!(vals.to_bytes(), generic);
        assert_eq!(Vec::<f64>::from_bytes(&generic).unwrap(), vals);
    }

    #[test]
    fn decoding_into_a_vec_keeps_its_allocation_and_every_check() {
        let mut out = Vec::with_capacity(8);
        let at = out.as_ptr();
        vec_from_bytes_into(&vec![3i64, -4, 5].to_bytes(), &mut out).unwrap();
        assert_eq!((out.as_slice(), out.as_ptr()), (&[3i64, -4, 5][..], at));
        let mut pairs = vec![(9u8, 9u16)];
        vec_from_bytes_into(&vec![(1u8, 2u16)].to_bytes(), &mut pairs).unwrap();
        assert_eq!(pairs, [(1, 2)]);

        // what `from_bytes` rejects, decoding into a vec rejects alike
        let mut trailing = vec![7u32].to_bytes();
        trailing.push(0);
        let mut truncated = 3u64.to_bytes();
        1u32.flatten(&mut truncated);
        let mut hostile = (1u64 << 61).to_bytes();
        hostile.extend_from_slice(&1.0f64.to_le_bytes());
        for bytes in [trailing, truncated, vec![1, 2, 3]] {
            let want = Vec::<u32>::from_bytes(&bytes).unwrap_err();
            assert_eq!(vec_from_bytes_into(&bytes, &mut Vec::<u32>::new()), Err(want));
        }
        let want = Vec::<f64>::from_bytes(&hostile).unwrap_err();
        assert_eq!(vec_from_bytes_into(&hostile, &mut Vec::<f64>::new()), Err(want));
        let zero_size = u64::MAX.to_bytes();
        let want = Vec::<()>::from_bytes(&zero_size).unwrap_err();
        assert_eq!(vec_from_bytes_into(&zero_size, &mut Vec::<()>::new()), Err(want));
    }
}
