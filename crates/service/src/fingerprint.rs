//! Structural fingerprints of netlists and parameters — the cache key.
//!
//! The fingerprint is a 128-bit topological hash over an [`Aig`]'s
//! gates and outputs. Each node's hash depends only on its *structure*
//! (input ordinal, or the unordered pair of child hashes for an AND),
//! never on its variable index, so two netlists that build the same
//! DAG in a different gate order — or with AND operands swapped —
//! collide, and a resubmitted/isomorphic netlist is answered from
//! cache without a saturation run. Input ordinals *are* hashed, so
//! relabeling which primary input feeds which cone changes the
//! fingerprint (a relabeled multiplier computes a different function
//! of its input vector).

use std::fmt;

use aig::{Aig, Lit, Node};
use boole::BooleParams;

/// A 128-bit structural netlist fingerprint (two independent 64-bit
/// lanes, so accidental collisions are ~2⁻¹²⁸).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The standard splitmix64 finalizer: a cheap full-avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mixes `v` into accumulator `h` non-commutatively.
fn mix(h: u64, v: u64) -> u64 {
    splitmix(h ^ v.rotate_left(32) ^ 0xA5A5_5A5A_C3C3_3C3C)
}

const LANE_SEEDS: [u64; 2] = [0xB001_E000_0000_0001, 0xB001_E000_0000_0002];
const TAG_CONST: u64 = 0x11;
const TAG_INPUT: u64 = 0x22;
const TAG_AND: u64 = 0x33;
const TAG_OUT: u64 = 0x44;

/// Computes the structural fingerprint of a netlist.
///
/// Output *order* and polarity are part of the fingerprint; output
/// names are not (renaming a port does not change the function).
pub fn fingerprint_aig(aig: &Aig) -> Fingerprint {
    let mut lanes = [0u64; 2];
    for (lane, out) in lanes.iter_mut().enumerate() {
        let seed = LANE_SEEDS[lane];
        // h[var] = structural hash of that node, independent of `var`.
        let mut h: Vec<u64> = Vec::with_capacity(aig.num_nodes());
        for var_idx in 0..aig.num_nodes() {
            let node = aig.node(aig::Var(var_idx as u32));
            let nh = match node {
                Node::Const => splitmix(seed ^ TAG_CONST),
                Node::Input(ordinal) => mix(splitmix(seed ^ TAG_INPUT), u64::from(ordinal)),
                Node::And(a, b) => {
                    let child =
                        |l: Lit| mix(h[l.var().index()], u64::from(l.is_complemented()) + 7);
                    let (lo, hi) = {
                        let (ca, cb) = (child(a), child(b));
                        if ca <= cb {
                            (ca, cb)
                        } else {
                            (cb, ca)
                        }
                    };
                    mix(mix(splitmix(seed ^ TAG_AND), lo), hi)
                }
            };
            h.push(nh);
        }
        let mut acc = mix(splitmix(seed), aig.num_inputs() as u64);
        for (_, lit) in aig.outputs() {
            let oh = mix(
                mix(splitmix(seed ^ TAG_OUT), h[lit.var().index()]),
                u64::from(lit.is_complemented()) + 13,
            );
            acc = mix(acc, oh);
        }
        *out = acc;
    }
    Fingerprint(lanes)
}

/// Hashes the result-relevant fields of [`BooleParams`].
///
/// The cancellation token is deliberately excluded: two submissions of
/// the same netlist with the same tuning must share a cache entry even
/// though each job carries its own token. `search_threads` is excluded
/// for the same reason — saturation results are byte-identical at any
/// thread count (the parallel search merges match sets in rule-index
/// order before applying), so a result computed at 8 threads must
/// answer a later 1-thread submission from cache.
pub fn fingerprint_params(params: &BooleParams) -> u64 {
    let s = &params.saturate;
    let mut h = splitmix(0xB001_E9A2_A115_5EED);
    for v in [
        s.r1_iters as u64,
        s.r2_iters as u64,
        s.node_limit as u64,
        s.r1_growth.to_bits(),
        s.time_limit.as_nanos() as u64,
        u64::from(s.lightweight),
        s.match_limit as u64,
        u64::from(s.prune),
    ] {
        h = mix(h, v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa_chain(input_order: &[usize; 3]) -> Aig {
        let mut a = Aig::new();
        let ins = a.add_inputs(3);
        let (x, y, z) = (
            ins[input_order[0]],
            ins[input_order[1]],
            ins[input_order[2]],
        );
        let (s, c) = aig::gen::full_adder(&mut a, x, y, z);
        a.add_output("s", s);
        a.add_output("c", c);
        a
    }

    #[test]
    fn identical_netlists_collide() {
        let a = fa_chain(&[0, 1, 2]);
        let b = fa_chain(&[0, 1, 2]);
        assert_eq!(fingerprint_aig(&a), fingerprint_aig(&b));
    }

    #[test]
    fn gate_order_isomorphism_collides() {
        // Build the same two-output DAG creating the cones in opposite
        // orders, so variable numbering differs but structure matches.
        let build = |flip: bool| {
            let mut a = Aig::new();
            let ins = a.add_inputs(4);
            let cone1 = |a: &mut Aig| {
                let t = a.and(ins[0], ins[1]);
                a.xor(t, ins[2])
            };
            let cone2 = |a: &mut Aig| {
                let t = a.or(ins[2], ins[3]);
                a.and(t, ins[0])
            };
            let (o1, o2) = if flip {
                let second = cone2(&mut a);
                let first = cone1(&mut a);
                (first, second)
            } else {
                let first = cone1(&mut a);
                let second = cone2(&mut a);
                (first, second)
            };
            a.add_output("o1", o1);
            a.add_output("o2", o2);
            a
        };
        let straight = build(false);
        let flipped = build(true);
        // Sanity: gate numbering really differs between the two.
        assert_eq!(fingerprint_aig(&straight), fingerprint_aig(&flipped));
    }

    #[test]
    fn swapped_and_operands_collide() {
        let mut a = Aig::new();
        let ia = a.add_inputs(2);
        let g = a.and(ia[0], ia[1]);
        a.add_output("o", g);

        let mut b = Aig::new();
        let ib = b.add_inputs(2);
        let g = b.and(ib[1], ib[0]);
        b.add_output("o", g);

        assert_eq!(fingerprint_aig(&a), fingerprint_aig(&b));
    }

    #[test]
    fn relabeled_inputs_do_not_collide() {
        // Same shape, but a different input feeds the XOR leg.
        let a = fa_chain(&[0, 1, 2]);
        let b = fa_chain(&[2, 1, 0]);
        assert_ne!(fingerprint_aig(&a), fingerprint_aig(&b));
    }

    #[test]
    fn output_polarity_and_order_matter() {
        let mut a = Aig::new();
        let ins = a.add_inputs(2);
        let g = a.and(ins[0], ins[1]);
        a.add_output("o", g);
        let mut b = Aig::new();
        let ins = b.add_inputs(2);
        let g = b.and(ins[0], ins[1]);
        b.add_output("o", !g);
        assert_ne!(fingerprint_aig(&a), fingerprint_aig(&b));
    }

    #[test]
    fn output_names_are_ignored() {
        let mut a = Aig::new();
        let ins = a.add_inputs(2);
        let g = a.and(ins[0], ins[1]);
        a.add_output("foo", g);
        let mut b = Aig::new();
        let ins = b.add_inputs(2);
        let g = b.and(ins[0], ins[1]);
        b.add_output("bar", g);
        assert_eq!(fingerprint_aig(&a), fingerprint_aig(&b));
    }

    #[test]
    fn multiplier_fingerprints_are_distinct_by_width() {
        let f3 = fingerprint_aig(&aig::gen::csa_multiplier(3));
        let f4 = fingerprint_aig(&aig::gen::csa_multiplier(4));
        assert_ne!(f3, f4);
    }

    #[test]
    fn fingerprint_display_is_32_lowercase_hex_digits() {
        let fp = fingerprint_aig(&aig::gen::csa_multiplier(3));
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert!(
            text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
            "{text}"
        );
    }

    #[test]
    fn params_fingerprint_ignores_cancel_token() {
        let base = BooleParams::small();
        let mut with_token = BooleParams::small();
        with_token = with_token.with_cancel_token(boole::CancelToken::new());
        assert_eq!(fingerprint_params(&base), fingerprint_params(&with_token));
        let light = BooleParams::lightweight();
        assert_ne!(fingerprint_params(&base), fingerprint_params(&light));
    }

    #[test]
    fn params_fingerprint_ignores_search_threads() {
        // Same netlist, same tuning, different core counts: results
        // are byte-identical, so the cache key must match too.
        let base = BooleParams::small();
        for threads in [0, 2, 8] {
            let parallel = BooleParams::small().with_search_threads(threads);
            assert_eq!(fingerprint_params(&base), fingerprint_params(&parallel));
        }
    }
}
