//! Property-based tests for the reversible simulator substrate.

use proptest::prelude::*;
use rft_revsim::permutation::Permutation;
use rft_revsim::prelude::*;

const N_WIRES: usize = 6;

/// Strategy producing an arbitrary valid gate on `N_WIRES` wires.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let wire = 0..N_WIRES as u32;
    let distinct3 = (wire.clone(), wire.clone(), wire.clone())
        .prop_filter("wires must be distinct", |(a, b, c)| {
            a != b && b != c && a != c
        });
    let distinct2 =
        (wire.clone(), wire.clone()).prop_filter("wires must be distinct", |(a, b)| a != b);
    prop_oneof![
        wire.clone().prop_map(|a| Gate::Not(w(a))),
        distinct2.clone().prop_map(|(a, b)| Gate::Cnot {
            control: w(a),
            target: w(b)
        }),
        distinct3.clone().prop_map(|(a, b, c)| Gate::Toffoli {
            controls: [w(a), w(b)],
            target: w(c)
        }),
        distinct2.prop_map(|(a, b)| Gate::Swap(w(a), w(b))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Gate::Swap3(w(a), w(b), w(c))),
        distinct3.clone().prop_map(|(a, b, c)| Gate::Fredkin {
            control: w(a),
            targets: [w(b), w(c)]
        }),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Gate::Maj(w(a), w(b), w(c))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Gate::MajInv(w(a), w(b), w(c))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Gate::F2g(w(a), w(b), w(c))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Gate::Nft(w(a), w(b), w(c))),
        distinct3.prop_map(|(a, b, c)| Gate::NftInv(w(a), w(b), w(c))),
        arb_distinct4().prop_map(|(a, b, c, d)| Gate::Ig(w(a), w(b), w(c), w(d))),
        arb_distinct4().prop_map(|(a, b, c, d)| Gate::IgInv(w(a), w(b), w(c), w(d))),
    ]
}

fn arb_distinct4() -> impl Strategy<Value = (u32, u32, u32, u32)> {
    let wire = 0..N_WIRES as u32;
    (wire.clone(), wire.clone(), wire.clone(), wire)
        .prop_filter("wires must be distinct", |(a, b, c, d)| {
            a != b && a != c && a != d && b != c && b != d && c != d
        })
}

fn arb_circuit(max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(), 0..max_len).prop_map(|gates| {
        let mut c = Circuit::new(N_WIRES);
        for g in gates {
            c.push(Op::Gate(g));
        }
        c
    })
}

proptest! {
    /// Any reversible circuit followed by its inverse is the identity.
    #[test]
    fn circuit_then_inverse_is_identity(c in arb_circuit(40), input in 0u64..(1 << N_WIRES)) {
        let inv = c.inverted().unwrap();
        let mut s = BitState::from_u64(input, N_WIRES);
        c.run(&mut s);
        inv.run(&mut s);
        prop_assert_eq!(s.to_u64(), input);
    }

    /// Every gate-only circuit computes a bijection.
    #[test]
    fn circuits_are_bijections(c in arb_circuit(25)) {
        let p = Permutation::of_circuit(&c).unwrap();
        // from_map re-validates bijectivity.
        let map: Vec<u64> = p.rows().map(|(_, o)| o).collect();
        prop_assert!(Permutation::from_map(N_WIRES, map).is_ok());
    }

    /// A gate commutes with state bits outside its support.
    #[test]
    fn gates_touch_only_their_support(g in arb_gate(), input in 0u64..(1 << N_WIRES)) {
        let mut s = BitState::from_u64(input, N_WIRES);
        g.apply(&mut s);
        let support = g.support();
        for i in 0..N_WIRES as u32 {
            if !support.contains(w(i)) {
                prop_assert_eq!(s.get(w(i)), (input >> i) & 1 == 1, "wire {} changed", i);
            }
        }
    }

    /// A planned fault with the pattern the ideal run would produce anyway
    /// is indistinguishable from no fault at all.
    #[test]
    fn consistent_fault_is_transparent(c in arb_circuit(15), input in 0u64..(1 << N_WIRES), idx in 0usize..15) {
        prop_assume!(idx < c.len());
        // Compute what the ideal run leaves on op idx's support right after it.
        let mut s = BitState::from_u64(input, N_WIRES);
        for op in &c.ops()[..=idx] {
            op.apply(&mut s);
        }
        let support = c.ops()[idx].support();
        let pattern = s.read_pattern(support.as_slice());
        // Planned "fault" writing exactly that pattern must match the ideal run.
        let mut ideal = BitState::from_u64(input, N_WIRES);
        c.run(&mut ideal);
        let mut faulted = BitState::from_u64(input, N_WIRES);
        FaultPlan::single(idx, pattern).run(&c, &mut faulted);
        prop_assert_eq!(ideal, faulted);
    }

    /// Depth never exceeds op count and is zero only for empty circuits.
    #[test]
    fn depth_bounds(c in arb_circuit(30)) {
        let d = c.depth();
        prop_assert!(d <= c.len());
        prop_assert_eq!(d == 0, c.is_empty());
    }

    /// Permutation compose/inverse laws.
    #[test]
    fn permutation_group_laws(a in arb_circuit(10), b in arb_circuit(10)) {
        let pa = Permutation::of_circuit(&a).unwrap();
        let pb = Permutation::of_circuit(&b).unwrap();
        let composed = pa.compose(&pb);
        prop_assert_eq!(composed.inverse(), pb.inverse().compose(&pa.inverse()));
    }

    /// A planned run with an empty plan equals the ideal run.
    #[test]
    fn empty_plan_is_ideal(c in arb_circuit(20), input in 0u64..(1 << N_WIRES)) {
        let mut a = BitState::from_u64(input, N_WIRES);
        let mut b = BitState::from_u64(input, N_WIRES);
        c.run(&mut a);
        FaultPlan::none().run(&c, &mut b);
        prop_assert_eq!(a, b);
    }

    /// Every gate is a bijection on its full register: applying it to all
    /// 2^n inputs hits all 2^n outputs (old and new gate kinds alike).
    #[test]
    fn every_gate_is_a_bijection(g in arb_gate()) {
        let mut seen = [false; 1 << N_WIRES];
        for input in 0..(1u64 << N_WIRES) {
            let mut s = BitState::from_u64(input, N_WIRES);
            g.apply(&mut s);
            let out = s.to_u64() as usize;
            prop_assert!(!seen[out], "{} maps two inputs to {}", g, out);
            seen[out] = true;
        }
    }

    /// Gates flagged parity-preserving (F2G, FRG/Fredkin, NFT, IG and the
    /// wire permutations) preserve input⊕output parity on ALL 2^n inputs.
    #[test]
    fn parity_preserving_gates_hold_their_invariant(g in arb_gate()) {
        prop_assume!(g.is_parity_preserving());
        for input in 0..(1u64 << N_WIRES) {
            let mut s = BitState::from_u64(input, N_WIRES);
            g.apply(&mut s);
            prop_assert_eq!(
                input.count_ones() % 2,
                s.to_u64().count_ones() % 2,
                "{} breaks parity on {:b}", g, input
            );
        }
    }

    /// Gate inversion is exact for every gate kind: g then g⁻¹ is the
    /// identity on all inputs, and (g⁻¹)⁻¹ = g.
    #[test]
    fn gate_inverses_are_exact(g in arb_gate(), input in 0u64..(1 << N_WIRES)) {
        let mut s = BitState::from_u64(input, N_WIRES);
        g.apply(&mut s);
        g.inverse().apply(&mut s);
        prop_assert_eq!(s.to_u64(), input);
        prop_assert_eq!(g.inverse().inverse(), g);
    }
}
