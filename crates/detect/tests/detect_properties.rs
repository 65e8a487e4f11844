//! Property tests for the detection subsystem: arbitrary widths,
//! operands and constructions.

use proptest::prelude::*;
use rft_detect::{exhaustive_coverage, with_parity_check, Adder, AdderKind, CheckedAdder};
use rft_revsim::prelude::*;

fn arb_kind() -> impl Strategy<Value = AdderKind> {
    (0usize..7).prop_map(|i| match i {
        0 => AdderKind::Ripple,
        1..=4 => AdderKind::CarrySkip { block: i },
        5 => AdderKind::Cla,
        _ => AdderKind::PlainRipple,
    })
}

proptest! {
    /// Every construction adds correctly at every width and operand.
    #[test]
    fn adders_add(kind in arb_kind(), width in 1usize..12, seed in any::<u64>()) {
        let adder = Adder::new(kind, width);
        let mask = (1u64 << width) - 1;
        let a = seed & mask;
        let b = (seed >> 16) & mask;
        let cin = (seed >> 63) & 1 == 1;
        let (sum, cout) = adder.compute(a, b, cin);
        prop_assert_eq!(sum | ((cout as u64) << width), a + b + cin as u64);
    }

    /// The wrap never alarms fault-free and preserves the sum, for every
    /// parity-preserving construction.
    #[test]
    fn wrap_is_transparent(
        kind in arb_kind().prop_filter("parity kinds only", |k| *k != AdderKind::PlainRipple),
        width in 1usize..8,
        seed in any::<u64>(),
    ) {
        let ca = CheckedAdder::new(kind, width);
        let mask = (1u64 << width) - 1;
        let (a, b) = (seed & mask, (seed >> 20) & mask);
        let mut state = BitState::zeros(ca.checked.circuit.n_wires());
        for i in 0..width {
            state.set(ca.adder.a[i], (a >> i) & 1 == 1);
            state.set(ca.adder.b[i], (b >> i) & 1 == 1);
        }
        ca.checked.circuit.run(&mut state);
        prop_assert!(!ca.checked.detected(&state));
        let sum: u64 = (0..width).map(|i| (state.get(ca.adder.sum[i]) as u64) << i).sum();
        prop_assert_eq!(sum | ((state.get(ca.adder.cout) as u64) << width), a + b);
    }

    /// Single bit-flip faults at body sites are always detected and a
    /// random planned single fault never produces harmful-undetected
    /// odd-weight deviations — the Islam et al. guarantee, sampled
    /// across constructions at width 2.
    #[test]
    fn body_bitflips_always_detected(
        kind in arb_kind().prop_filter("parity kinds only", |k| *k != AdderKind::PlainRipple),
    ) {
        let adder = Adder::new(kind, 2);
        let checked = with_parity_check(&adder.circuit, &adder.input_wires());
        let r = exhaustive_coverage(&checked, &adder.input_wires(), &adder.output_wires());
        prop_assert_eq!(r.body_weight1.detected, r.body_weight1.cases);
        prop_assert_eq!(r.body_odd.harmful_undetected, 0);
        prop_assert_eq!(r.body_even.detected, 0);
    }
}

/// A checked adder estimated at the same seed is bit-identical across
/// backend labels, word widths and thread counts.
#[test]
fn estimates_are_backend_and_width_invariant() {
    use rft_revsim::engine::{BackendKind, WordWidth};
    use rft_revsim::noise::UniformNoise;

    let ca = CheckedAdder::new(AdderKind::Ripple, 4);
    let noise = UniformNoise::new(2e-3);
    let engine = Engine::compile(&ca.checked.circuit, &noise);
    let trial = ca.trial(rft_detect::TrialMode::UndetectedWrong);
    let base = McOptions::new(8_000).seed(99);
    let reference = engine.estimate(&trial, &base);
    for backend in [BackendKind::Scalar, BackendKind::Batch] {
        for width in [WordWidth::W1, WordWidth::W2, WordWidth::W4] {
            for threads in [1usize, 4] {
                let opts = McOptions::new(8_000)
                    .seed(99)
                    .backend(backend)
                    .width(width)
                    .threads(threads);
                let out = engine.estimate(&trial, &opts);
                assert_eq!(
                    (out.failures, out.trials),
                    (reference.failures, reference.trials),
                    "{backend:?}/{width:?}/t{threads}"
                );
            }
        }
    }
}
