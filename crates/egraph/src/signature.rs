//! E-class operator signatures: the filter the matching VM uses to
//! skip an e-node whose child classes cannot hold what its pattern
//! needs.
//!
//! A [`Signature`] is two 64-bit bloom masks over one class's e-nodes:
//! `ops` sets the [`operator_bit`](crate::Language::operator_bit) of
//! each e-node, and `pairs` one hash-derived bit per (operator,
//! child-operator bit) pair present, that is, per e-node `n` of the
//! class, per child class `c` of `n` and per bit set in `c`'s `ops`.
//! These are the "approximate label sets" of Z3's e-matcher (de Moura
//! & Bjørner, *Efficient E-matching for SMT Solvers*, CADE 2007). Bits only over-approximate: a class that
//! holds an operator always has its bit, so a required bit that is
//! missing proves a branch cannot close, and a bit that is present
//! proves nothing.

use std::hash::BuildHasher;

use crate::hash::FxBuildHasher;

/// The operator bloom masks of one e-class (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Signature {
    /// One bit per operator present among the class's e-nodes.
    pub(crate) ops: u64,
    /// One bit per (operator, child-operator bit) pair present among
    /// the class's e-nodes.
    pub(crate) pairs: u64,
}

impl Signature {
    /// The `pairs` mask of an e-node whose operator has bit `op`, over
    /// a child class whose operators are `child_ops`.
    pub(crate) fn pair_mask(op: u32, child_ops: u64) -> u64 {
        let mut mask = 0;
        let mut rest = child_ops;
        while rest != 0 {
            let child = rest.trailing_zeros();
            rest &= rest - 1;
            let key = u64::from(op) << 6 | u64::from(child);
            mask |= 1 << top_six_bits(FxBuildHasher::default().hash_one(key));
        }
        mask
    }

    /// Whether every bit of `need` is set in `self`: `false` proves a
    /// class with signature `self` cannot hold a term that needs them.
    pub(crate) fn covers(self, need: Signature) -> bool {
        self.ops & need.ops == need.ops && self.pairs & need.pairs == need.pairs
    }
}

/// FxHash mixes upward, so the top bits of a hash are its best.
fn top_six_bits(hash: u64) -> u32 {
    (hash >> 58) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_a_subset_test() {
        let have = Signature {
            ops: 0b1011,
            pairs: 0b110,
        };
        assert!(have.covers(Signature::default()));
        assert!(have.covers(Signature {
            ops: 0b0011,
            pairs: 0b100,
        }));
        assert!(!have.covers(Signature {
            ops: 0b0100,
            pairs: 0,
        }));
        assert!(!have.covers(Signature { ops: 0, pairs: 1 }));
    }

    #[test]
    fn pair_mask_is_the_union_of_its_child_bits() {
        let (a, b) = (3, 41);
        let both = Signature::pair_mask(7, 1 << a | 1 << b);
        assert_eq!(
            both,
            Signature::pair_mask(7, 1 << a) | Signature::pair_mask(7, 1 << b)
        );
        assert_eq!(Signature::pair_mask(7, 0), 0);
        assert_eq!(Signature::pair_mask(7, 1 << a).count_ones(), 1);
    }
}
