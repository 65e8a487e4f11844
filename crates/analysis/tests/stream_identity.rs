//! Literal pins of level-2 estimates: the failures, trials, executed
//! words and stratum tallies of a stratified and a plain level-2
//! Toffoli estimate, at widths 1 and 4 and on 1 and 2 threads.
//!
//! Every word owns a seed-derived RNG stream, drawn in a fixed order
//! (prepare, fault schedule, fault planes in op order), so these numbers
//! move only when an executor changes what a word draws or computes.
//! Plain g = 5e-3 sees no failure in its budget, so a denser plain case
//! pins a nonzero count too.

use rft_analysis::prelude::*;
use rft_revsim::engine::WordWidth;
use rft_revsim::prelude::*;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

/// `(failures, trials, executed_words, per-stratum (failures, trials))`.
type Pin = (u64, u64, u64, Vec<(u64, u64)>);

fn outcome_pin(g: f64, opts: &McOptions) -> Vec<Pin> {
    let mc = ConcatMc::new(2, toffoli(), 1);
    let noise = UniformNoise::new(g);
    let mut pins = Vec::new();
    for width in [WordWidth::W1, WordWidth::W4] {
        for threads in [1, 2] {
            let out = mc.estimate_outcome(&noise, &opts.width(width).threads(threads));
            pins.push((
                out.failures,
                out.trials,
                out.executed_words,
                out.strata.iter().map(|s| (s.failures, s.trials)).collect(),
            ));
        }
    }
    pins
}

#[test]
fn level2_stratified_outcome_is_pinned() {
    let pins = outcome_pin(1e-3, &McOptions::new(131_072).seed(13).stratified(4, 12));
    let want: Pin = (
        2,
        131_072,
        2_048,
        vec![
            (0, 25_152),
            (0, 25_152),
            (0, 25_088),
            (0, 25_088),
            (1, 14_080),
            (0, 4_224),
            (0, 3_328),
            (0, 3_328),
            (0, 3_264),
            (0, 0),
            (0, 0),
            (1, 2_368),
        ],
    );
    for pin in &pins {
        assert_eq!(pin, &want);
    }
}

#[test]
fn level2_plain_outcome_is_pinned() {
    let opts = McOptions::new(131_072).seed(29).estimator(Estimator::Plain);
    let pins = outcome_pin(5e-3, &opts);
    let want: Pin = (0, 131_072, 2_048, vec![]);
    for pin in &pins {
        assert_eq!(pin, &want);
    }
}

#[test]
fn level2_dense_plain_outcome_is_pinned() {
    let opts = McOptions::new(65_536).seed(29).estimator(Estimator::Plain);
    let pins = outcome_pin(2e-2, &opts);
    let want: Pin = (9, 65_536, 1_024, vec![]);
    for pin in &pins {
        assert_eq!(pin, &want);
    }
}
