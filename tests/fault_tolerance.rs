//! The fault-tolerance theorems of the paper, verified by exhaustion
//! across all three architectures — including the reproduction finding
//! about 1D interleaving (see DESIGN.md).

use reversible_ft::core::prelude::*;
use reversible_ft::locality::prelude::*;
use reversible_ft::revsim::permutation::Permutation;
use reversible_ft::revsim::prelude::*;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

#[test]
fn recovery_circuits_tolerate_any_single_fault() {
    // Figure 2 (non-local) and Figure 7 (1D local): every possible single
    // fault leaves at most one error per output codeword.
    let fig2 = CycleSpec::new(
        recovery_circuit(),
        vec![DATA_IN],
        vec![DATA_OUT],
        Permutation::identity(1),
    );
    let sweep = fig2.sweep_single_faults();
    assert!(sweep.is_fault_tolerant());
    assert_eq!(sweep.plans, 64);

    let (c, _, tile) = build_recovery_1d();
    let fig7 = CycleSpec::new(
        c,
        vec![tile.data()],
        vec![tile.data()],
        Permutation::identity(1),
    );
    let sweep = fig7.sweep_single_faults();
    assert!(sweep.is_fault_tolerant());
    assert_eq!(sweep.first_order_worst, 0.0);
}

#[test]
fn two_faults_defeat_every_recovery() {
    // Distance-3 code: the single-fault guarantee is tight.
    let fig2 = CycleSpec::new(
        recovery_circuit(),
        vec![DATA_IN],
        vec![DATA_OUT],
        Permutation::identity(1),
    );
    assert!(fig2.find_double_fault_failure().is_some());
}

#[test]
fn full_cycles_nonlocal_and_2d_perpendicular_are_fault_tolerant() {
    for (name, spec) in [
        ("non-local", transversal_cycle(&toffoli())),
        (
            "2D perpendicular",
            build_cycle_2d(&toffoli(), InterleaveScheme::Perpendicular).to_cycle_spec(&toffoli()),
        ),
    ] {
        spec.verify_ideal()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let sweep = spec.sweep_single_faults();
        assert!(sweep.is_fault_tolerant(), "{name}: {:?}", sweep.worst);
        assert_eq!(sweep.first_order_worst, 0.0, "{name}");
    }
}

#[test]
fn finding_1d_and_parallel_2d_interleaves_are_not_fault_tolerant() {
    // REPRODUCTION FINDING: data bits of different codewords must cross
    // during 1D (and parallel-2D) interleaving; a single fault at a
    // crossing corrupts two codewords at misaligned positions, which the
    // transversal gate multiplies into two errors in one codeword.
    let d1 = build_cycle_1d(&toffoli()).to_cycle_spec(&toffoli());
    let sweep1 = d1.sweep_single_faults();
    assert!(!sweep1.is_fault_tolerant());
    assert!(sweep1.first_order_worst > 0.0 && sweep1.first_order_worst < 5.0);

    let par = build_cycle_2d(&toffoli(), InterleaveScheme::Parallel).to_cycle_spec(&toffoli());
    let sweep2 = par.sweep_single_faults();
    assert!(!sweep2.is_fault_tolerant());
}

#[test]
fn every_gate_kind_cycles_fault_tolerantly_nonlocal() {
    // The FT property is gate-independent for 3-bit gates in the
    // non-local scheme.
    let gates = [
        Gate::Maj(w(0), w(1), w(2)),
        Gate::MajInv(w(2), w(1), w(0)),
        Gate::Fredkin {
            control: w(1),
            targets: [w(0), w(2)],
        },
        Gate::Swap3(w(2), w(0), w(1)),
        toffoli(),
    ];
    for gate in gates {
        let spec = transversal_cycle(&gate);
        spec.verify_ideal()
            .unwrap_or_else(|e| panic!("{gate:?}: {e}"));
        let sweep = spec.sweep_single_faults();
        assert!(sweep.is_fault_tolerant(), "{gate:?}: {:?}", sweep.worst);
    }
}

#[test]
fn level_two_tolerates_any_single_physical_fault() {
    // Concatenation: a single physical fault anywhere in a full level-2
    // cycle must never flip the decoded logical value. Exhaustive over all
    // (op, pattern) pairs for two fixed inputs.
    use reversible_ft::revsim::fault::single_fault_plans;

    let mut b = FtBuilder::new(2, 3);
    b.apply(&toffoli());
    let program = b.finish();
    let mut logical = Circuit::new(3);
    logical.toffoli(w(0), w(1), w(2));
    let perm = Permutation::of_circuit(&logical).unwrap();

    for input in [0b011u64, 0b101] {
        let encoded = program.encode(&BitState::from_u64(input, 3));
        let expect = perm.apply(input);
        for plan in single_fault_plans(program.circuit()) {
            let mut s = encoded.clone();
            plan.run(program.circuit(), &mut s);
            assert_eq!(
                program.decode(&s).to_u64(),
                expect,
                "input {input:03b}, plan {plan:?}"
            );
        }
    }
}
