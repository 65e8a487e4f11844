//! The estimator's persistent helper threads: sharing a round across the
//! caller and the helpers must never change an outcome, concurrent
//! estimates must not interfere, and a panicking trial must surface in
//! its caller without wedging the pool.

use rand::Rng;
use rft_revsim::engine::{WordWidth, DEFAULT_STRATA_CAP};
use rft_revsim::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

const N_WIRES: usize = 5;

/// Wire 0 only ever acts as a control, so a lane fails exactly when a
/// fault leaves wire 0 different from its input.
fn circuit() -> Circuit {
    let mut c = Circuit::new(N_WIRES);
    c.cnot(w(0), w(1))
        .toffoli(w(0), w(1), w(2))
        .cnot(w(2), w(3))
        .toffoli(w(0), w(3), w(4))
        .cnot(w(4), w(1))
        .cnot(w(0), w(2));
    c
}

struct Wire0Kept {
    /// Panic in the preparation with this (1-based) index, if set.
    panic_at: Option<u64>,
    prepared: AtomicU64,
}

impl Wire0Kept {
    fn new(panic_at: Option<u64>) -> Self {
        Wire0Kept {
            panic_at,
            prepared: AtomicU64::new(0),
        }
    }
}

impl WordTrial for Wire0Kept {
    fn n_wires(&self) -> usize {
        N_WIRES
    }

    fn prepare(&self, batch: &mut BatchState, rng: &mut dyn rand::RngCore) -> Vec<u64> {
        let n = self.prepared.fetch_add(1, Ordering::Relaxed) + 1;
        assert!(self.panic_at != Some(n), "trial failed on purpose");
        let inputs: Vec<u64> = (0..N_WIRES).map(|_| rng.random()).collect();
        for (i, &bits) in inputs.iter().enumerate() {
            batch.set_word(w(i as u32), 0, bits);
        }
        inputs
    }

    fn judge(&self, batch: &BatchState, inputs: &[u64]) -> u64 {
        batch.word(w(0), 0) ^ inputs[0]
    }

    fn fault_free_can_fail(&self) -> bool {
        false
    }
}

/// Plain and stratified runs across every execution path, with trial
/// counts that are not a multiple of any claim size.
fn cases() -> Vec<McOptions> {
    let stratified = Estimator::Stratified {
        min_faults: 1,
        strata_cap: DEFAULT_STRATA_CAP,
    };
    let mut cases = vec![
        // Under the batch threshold: the scalar reference loops.
        McOptions::new(200).estimator(Estimator::Plain),
        McOptions::new(200).estimator(stratified),
    ];
    for width in [WordWidth::W1, WordWidth::W2, WordWidth::W4] {
        cases.push(
            McOptions::new(64 * 37 + 5)
                .width(width)
                .estimator(Estimator::Plain),
        );
        cases.push(
            McOptions::new(64 * 301 + 13)
                .width(width)
                .estimator(stratified),
        );
    }
    cases
        .into_iter()
        .enumerate()
        .map(|(i, opts)| opts.seed(0x5EED + i as u64))
        .collect()
}

fn run_all(engine: &Engine, threads: usize) -> Vec<McOutcome> {
    let trial = Wire0Kept::new(None);
    cases()
        .into_iter()
        .map(|opts| engine.estimate(&trial, &opts.threads(threads)))
        .collect()
}

#[test]
fn concurrent_threaded_estimates_match_serial_ones() {
    let engine = Engine::compile(&circuit(), &UniformNoise::new(0.01));
    let serial = run_all(&engine, 1);
    assert!(
        serial.iter().any(|o| o.failures > 0),
        "the cases must exercise failing lanes"
    );
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_all(&engine, 2));
        let b = s.spawn(|| run_all(&engine, 2));
        (
            a.join().expect("first caller"),
            b.join().expect("second caller"),
        )
    });
    assert_eq!(a, serial);
    assert_eq!(b, serial);
    assert_eq!(run_all(&engine, 8), serial, "more threads than helpers");
}

#[test]
fn a_panicking_trial_reaches_its_caller_and_the_pool_recovers() {
    let engine = Engine::compile(&circuit(), &UniformNoise::new(0.01));
    let opts = McOptions::new(64 * 64)
        .threads(2)
        .estimator(Estimator::Plain);
    let trial = Wire0Kept::new(Some(40));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| engine.estimate(&trial, &opts)));
    let payload = caught.expect_err("the trial's panic must reach the caller");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(message, Some("trial failed on purpose"));

    let healthy = Wire0Kept::new(None);
    let after = engine.estimate(&healthy, &opts);
    assert_eq!(after, engine.estimate(&healthy, &opts.threads(1)));
}
