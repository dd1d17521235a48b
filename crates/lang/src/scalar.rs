//! The scalar operations of the language, implemented once.
//!
//! Integer arithmetic wraps (`i64::MIN / -1` included), division and
//! remainder by zero are Skil runtime errors, comparisons and logic are
//! int-encoded. The AST walker, the VM's generic loop, the constant
//! folder and the typed kernel tier evaluate operators and scalar
//! intrinsics through the functions below, so they cannot drift; the
//! native module cannot call them and restates them in its prelude
//! ([`crate::emit_rust`]), which the differential tests hold to these.

#![forbid(unsafe_code)]

use crate::bytecode::Intr;
use crate::fo::BinOp;
use crate::value::Value;

/// `int_max`: headroom of two bits, so that `(min, +)` products of two
/// "infinite" weights stay representable.
pub(crate) const INT_MAX: i64 = i64::MAX / 4;
/// `flt_max`, with the same headroom.
pub(crate) const FLT_MAX: f64 = f64::MAX / 4.0;

/// Integer binary operators.
#[inline(always)]
pub(crate) fn int_bin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            assert!(y != 0, "skil runtime: integer division by zero");
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            assert!(y != 0, "skil runtime: integer remainder by zero");
            x.wrapping_rem(y)
        }
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::And => ((x != 0) && (y != 0)) as i64,
        BinOp::Or => ((x != 0) || (y != 0)) as i64,
    }
}

/// `x / 2^k` for `k < 63`, exactly `int_bin(Div, x, 1 << k)`: rounds
/// toward zero, so a negative `x` is biased by `2^k - 1` before the
/// arithmetic shift. What the typed tier runs for a division by a
/// positive power-of-two constant.
#[inline(always)]
pub(crate) fn div_pow2(x: i64, k: u32) -> i64 {
    let bias = (x >> 63) & ((1i64 << k) - 1);
    (x + bias) >> k
}

/// `x % 2^k` for `k < 63`, exactly `int_bin(Rem, x, 1 << k)`: the result
/// has the sign of `x`.
#[inline(always)]
pub(crate) fn rem_pow2(x: i64, k: u32) -> i64 {
    let mask = (1i64 << k) - 1;
    let bias = (x >> 63) & mask;
    ((x + bias) & mask) - bias
}

/// Float arithmetic (`+ - * / %`).
#[inline(always)]
pub(crate) fn float_arith(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => x % y,
        _ => unreachable!("{} is not float arithmetic", op.lexeme()),
    }
}

/// Float comparisons; logic on floats is a runtime type error.
#[inline(always)]
pub(crate) fn float_cmp(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        BinOp::And | BinOp::Or => panic!("skil runtime: logical op on float"),
        _ => unreachable!("{} is not a comparison", op.lexeme()),
    }
}

/// Integer negation: wraps on `i64::MIN`, like every other operator.
#[inline(always)]
pub(crate) fn neg_int(v: i64) -> i64 {
    v.wrapping_neg()
}

/// An `int` or `float` result of a scalar intrinsic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scalar {
    I(i64),
    F(f64),
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::I(i) => Value::Int(i),
            Scalar::F(f) => Value::Float(f),
        }
    }
}

/// Evaluate a scalar intrinsic — `abs`, `fabs`, `min`, `max`, `fmin`,
/// `fmax`, `sqrt`, `itof`, `ftoi`, `log2i`, `int_max`, `flt_max` — over
/// operands the caller hands out by position and type; `None` for every
/// other intrinsic. With a constant `op` the match folds away.
#[inline(always)]
pub(crate) fn scalar_intr(
    op: Intr,
    int: impl Fn(usize) -> i64,
    float: impl Fn(usize) -> f64,
) -> Option<Scalar> {
    use Scalar::{F, I};
    Some(match op {
        Intr::Abs => I(int(0).wrapping_abs()),
        Intr::Fabs => F(float(0).abs()),
        Intr::Min => I(int(0).min(int(1))),
        Intr::Max => I(int(0).max(int(1))),
        Intr::Fmin => F(float(0).min(float(1))),
        Intr::Fmax => F(float(0).max(float(1))),
        Intr::Sqrt => F(float(0).sqrt()),
        Intr::Itof => F(int(0) as f64),
        Intr::Ftoi => I(float(0) as i64),
        Intr::Log2i => {
            let n = int(0);
            assert!(n > 0, "skil runtime: log2i of non-positive value");
            I(64 - ((n - 1) as u64).leading_zeros() as i64)
        }
        Intr::IntMax => I(INT_MAX),
        Intr::FltMax => F(FLT_MAX),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int1(op: Intr, x: i64) -> Scalar {
        scalar_intr(op, |_| x, |_| unreachable!()).expect("scalar")
    }

    #[test]
    fn negate_and_abs_wrap_on_the_minimum() {
        assert_eq!(neg_int(i64::MIN), i64::MIN);
        assert_eq!(neg_int(5), -5);
        assert_eq!(int1(Intr::Abs, i64::MIN), Scalar::I(i64::MIN));
        assert_eq!(int1(Intr::Abs, -7), Scalar::I(7));
    }

    #[test]
    fn division_of_the_minimum_by_minus_one_wraps() {
        assert_eq!(int_bin(BinOp::Div, i64::MIN, -1), i64::MIN);
        assert_eq!(int_bin(BinOp::Rem, i64::MIN, -1), 0);
        assert_eq!(int_bin(BinOp::Div, -7, 2), -3);
        assert_eq!(int_bin(BinOp::Rem, -7, 2), -1);
    }

    #[test]
    fn power_of_two_division_and_remainder_are_the_general_ones() {
        let xs = [0, 1, -1, 2, -2, 3, -3, 7, -7, 8, -8, 1023, -1023, 1024, -1025, 1 << 40];
        let edge = [i64::MAX, i64::MIN, i64::MIN + 1, i64::MAX - 1, INT_MAX, -INT_MAX];
        for k in 0..63u32 {
            let near =
                [(1i64 << k) - 1, 1i64 << k, (1i64 << k) + 1, -(1i64 << k), -(1i64 << k) - 1];
            for x in xs.into_iter().chain(edge).chain(near) {
                assert_eq!(div_pow2(x, k), int_bin(BinOp::Div, x, 1 << k), "{x} / 2^{k}");
                assert_eq!(rem_pow2(x, k), int_bin(BinOp::Rem, x, 1 << k), "{x} % 2^{k}");
            }
        }
    }

    #[test]
    fn log2i_rounds_up() {
        for (n, want) in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (64, 6), (65, 7)] {
            assert_eq!(int1(Intr::Log2i, n), Scalar::I(want), "log2i({n})");
        }
    }

    #[test]
    #[should_panic(expected = "skil runtime: log2i of non-positive value")]
    fn log2i_rejects_zero() {
        int1(Intr::Log2i, 0);
    }

    #[test]
    fn stateful_and_aggregate_intrinsics_are_declined() {
        for op in [Intr::ProcId, Intr::Print, Intr::Cons, Intr::Error, Intr::DistrRing] {
            assert!(scalar_intr(op, |_| 0, |_| 0.0).is_none(), "{}", op.name());
        }
    }
}
