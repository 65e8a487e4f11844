//! Bit-plane kernels against the scalar semantics, **lane by lane**:
//! ideal runs against the scalar executor, every op kernel against
//! `Op::apply`, and the masked kernel — the one place a fault is applied —
//! against `Op::apply` on clean lanes and `BitState::write_pattern` on
//! faulted ones. Estimates are checked to be the same under every backend
//! label on identical seeds.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rft_revsim::batch::kernels;
use rft_revsim::prelude::*;

const N_WIRES: usize = 7;

/// Strategy producing an arbitrary valid op (gates and inits) on
/// `N_WIRES` wires.
fn arb_op() -> impl Strategy<Value = Op> {
    let wire = 0..N_WIRES as u32;
    let distinct3 = (wire.clone(), wire.clone(), wire.clone())
        .prop_filter("wires must be distinct", |(a, b, c)| {
            a != b && b != c && a != c
        });
    let distinct2 =
        (wire.clone(), wire.clone()).prop_filter("wires must be distinct", |(a, b)| a != b);
    prop_oneof![
        wire.clone().prop_map(|a| Op::Gate(Gate::Not(w(a)))),
        distinct2.clone().prop_map(|(a, b)| Op::Gate(Gate::Cnot {
            control: w(a),
            target: w(b)
        })),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Toffoli {
                controls: [w(a), w(b)],
                target: w(c)
            })),
        distinct2
            .clone()
            .prop_map(|(a, b)| Op::Gate(Gate::Swap(w(a), w(b)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Swap3(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Fredkin {
                control: w(a),
                targets: [w(b), w(c)]
            })),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Maj(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::MajInv(w(a), w(b), w(c)))),
        wire.clone().prop_map(|a| Op::init(&[w(a)])),
        distinct3.prop_map(|(a, b, c)| Op::init(&[w(a), w(b), w(c)])),
    ]
}

fn arb_circuit(max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_op(), 0..max_len).prop_map(|ops| {
        let mut c = Circuit::new(N_WIRES);
        for op in ops {
            c.push(op);
        }
        c
    })
}

/// A trial whose failure criterion is simply "wire 0 ended up set" —
/// enough to compare backend labels end to end.
struct Wire0Trial;

impl WordTrial for Wire0Trial {
    fn n_wires(&self) -> usize {
        N_WIRES
    }

    fn prepare(&self, batch: &mut BatchState, rng: &mut dyn rand::RngCore) -> Vec<u64> {
        let inputs: Vec<u64> = (0..N_WIRES).map(|_| rng.random()).collect();
        for (i, &bits) in inputs.iter().enumerate() {
            batch.set_word(w(i as u32), 0, bits);
        }
        inputs
    }

    fn judge(&self, batch: &BatchState, _inputs: &[u64]) -> u64 {
        batch.word(w(0), 0)
    }
}

proptest! {
    /// `Circuit::run` on every lane's `BitState` and one batch execution of
    /// the same circuit agree lane by lane, on arbitrary circuits
    /// (including inits) and arbitrary lane contents.
    #[test]
    fn ideal_batch_matches_scalar_lane_by_lane(c in arb_circuit(40), seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<BitState> = (0..64)
            .map(|_| BitState::from_u64(rng.random_range(0..(1u64 << N_WIRES)), N_WIRES))
            .collect();
        let mut batch = BatchState::from_states(&states);
        run_ideal_batch(&c, &mut batch);
        for (lane, state) in states.iter().enumerate() {
            let mut expect = state.clone();
            c.run(&mut expect);
            prop_assert_eq!(batch.lane(lane), expect, "lane {}", lane);
        }
    }

    /// Per-op kernels match the scalar `Op::apply` on arbitrary single ops
    /// across all 64 lanes.
    #[test]
    fn kernel_matches_scalar_op(op in arb_op(), seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<BitState> = (0..64)
            .map(|_| BitState::from_u64(rng.random_range(0..(1u64 << N_WIRES)), N_WIRES))
            .collect();
        let mut batch = BatchState::from_states(&states);
        kernels::apply(&mut batch, &op);
        for (lane, state) in states.iter().enumerate() {
            let mut expect = state.clone();
            op.apply(&mut expect);
            prop_assert_eq!(batch.lane(lane), expect, "lane {}", lane);
        }
    }

    /// The paper's fault semantics at the kernel: under an arbitrary
    /// fault mask, `apply_word_masked` leaves every clean lane exactly as
    /// `Op::apply` would, and overwrites every faulted lane's support with
    /// that lane's random-plane bits — plane `k` on support wire `k`,
    /// i.e. `BitState::write_pattern` of the bits in support order.
    #[test]
    fn masked_kernel_matches_scalar_fault_semantics(
        op in arb_op(),
        mask in any::<u64>(),
        shape in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        // Cover the kernel's no-fault and all-fault shortcuts, a single
        // faulted lane, and a dense arbitrary mask.
        let fault = match shape {
            0 => 0,
            1 => u64::MAX,
            2 => 1u64 << (mask % 64),
            _ => mask,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<BitState> = (0..64)
            .map(|_| BitState::from_u64(rng.random_range(0..(1u64 << N_WIRES)), N_WIRES))
            .collect();
        let planes: [u64; 4] = std::array::from_fn(|_| rng.random());
        let mut batch = BatchState::from_states(&states);
        kernels::apply_word_masked(&mut batch, &op, 0, fault, &planes);
        let support = op.support();
        let wires = support.as_slice();
        for (lane, state) in states.iter().enumerate() {
            let mut expect = state.clone();
            if (fault >> lane) & 1 == 1 {
                let pattern = (0..wires.len())
                    .fold(0u8, |p, k| p | ((((planes[k] >> lane) & 1) as u8) << k));
                expect.write_pattern(wires, pattern);
            } else {
                op.apply(&mut expect);
            }
            prop_assert_eq!(batch.lane(lane), expect, "lane {}", lane);
        }
    }

    /// `Engine::estimate` returns the same failure count whichever
    /// backend label `McOptions` names (and whatever `auto` resolves to),
    /// for the same seed.
    #[test]
    fn estimate_backends_agree_on_identical_seeds(
        c in arb_circuit(25),
        seed in 0u64..1_000_000,
        trials in 1u64..400,
    ) {
        let engine = Engine::compile(&c, &UniformNoise::new(0.1));
        let base = McOptions::new(trials).seed(seed);
        let scalar = engine.estimate(&Wire0Trial, &base.backend(BackendKind::Scalar));
        let batch = engine.estimate(&Wire0Trial, &base.backend(BackendKind::Batch));
        let auto = engine.estimate(&Wire0Trial, &base.backend(BackendKind::Auto));
        prop_assert_eq!(scalar.failures, batch.failures);
        prop_assert_eq!(batch.failures, auto.failures);
        prop_assert_eq!(scalar.trials, trials);
        prop_assert_eq!(batch.trials, trials);
    }

    /// In a noisy batch run, every lane the report declares fault-free
    /// must finish in exactly the ideal-run state.
    #[test]
    fn noisy_clean_lanes_equal_ideal(c in arb_circuit(25), seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<BitState> = (0..64)
            .map(|_| BitState::from_u64(rng.random_range(0..(1u64 << N_WIRES)), N_WIRES))
            .collect();
        let mut noisy = BatchState::from_states(&states);
        let mut ideal = BatchState::from_states(&states);
        run_ideal_batch(&c, &mut ideal);
        let engine = Engine::compile(&c, &UniformNoise::new(0.08));
        let report = engine.run_batch(&mut noisy, &mut rng);
        let clean = !report.faulted_lanes[0];
        for lane in 0..64 {
            if (clean >> lane) & 1 == 1 {
                prop_assert_eq!(noisy.lane(lane), ideal.lane(lane), "clean lane {}", lane);
            }
        }
    }
}

/// Batched fault injection follows the `NoiseModel` rates: the observed
/// per-(op, lane) fault frequency must sit inside a 5σ band of `g`, for
/// both uniform and split models.
#[test]
fn batched_fault_rates_match_noise_model() {
    let mut c = Circuit::new(9);
    c.init(&[w(3), w(4), w(5)])
        .init(&[w(6), w(7), w(8)])
        .maj_inv(w(0), w(3), w(6))
        .maj_inv(w(1), w(4), w(7))
        .maj_inv(w(2), w(5), w(8))
        .maj(w(0), w(1), w(2))
        .maj(w(3), w(4), w(5))
        .maj(w(6), w(7), w(8));
    let mut rng = SmallRng::seed_from_u64(2005);

    // Uniform model.
    let g = 1.0 / 108.0;
    let engine = Engine::compile(&c, &UniformNoise::new(g));
    let words = 2_000u64;
    let mut events = 0u64;
    for _ in 0..words {
        let mut batch = BatchState::zeros(9, 1);
        events += engine.run_batch(&mut batch, &mut rng).fault_events;
    }
    let n = (c.len() as u64 * 64 * words) as f64;
    let sd = (n * g * (1.0 - g)).sqrt();
    assert!(
        (events as f64 - n * g).abs() < 5.0 * sd,
        "uniform: {events} events vs {} ± {sd}",
        n * g
    );

    // Split model with perfect inits: only the 6 gates may fault.
    let engine = Engine::compile(&c, &SplitNoise::perfect_init(0.05));
    let mut events = 0u64;
    for _ in 0..words {
        let mut batch = BatchState::zeros(9, 1);
        events += engine.run_batch(&mut batch, &mut rng).fault_events;
    }
    let n = (6 * 64 * words) as f64;
    let sd = (n * 0.05 * 0.95).sqrt();
    assert!(
        (events as f64 - n * 0.05).abs() < 5.0 * sd,
        "split: {events} events vs {} ± {sd}",
        n * 0.05
    );
}

/// Multi-word batches behave identically to single-word batches: the same
/// circuit over 128 lanes split as 2 words matches per-lane scalar runs.
#[test]
fn multi_word_batches_cover_all_lanes() {
    let mut c = Circuit::new(3);
    c.maj_inv(w(0), w(1), w(2)).maj(w(0), w(1), w(2));
    let mut rng = SmallRng::seed_from_u64(77);
    let states: Vec<BitState> = (0..128)
        .map(|_| BitState::from_u64(rng.random_range(0..8u64), 3))
        .collect();
    let mut batch = BatchState::from_states(&states);
    assert_eq!(batch.words_per_wire(), 2);
    run_ideal_batch(&c, &mut batch);
    for (lane, state) in states.iter().enumerate() {
        let mut expect = state.clone();
        c.run(&mut expect);
        assert_eq!(batch.lane(lane), expect, "lane {lane}");
    }
}
