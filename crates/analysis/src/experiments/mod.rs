//! Reproductions of every table and figure of the paper.
//!
//! One module per experiment, named by the experiment IDs of `DESIGN.md`.
//! Each module registers a unit struct implementing
//! [`Experiment`](crate::experiment::Experiment) (see
//! [`registry`](crate::experiment::registry)) whose `run` returns a
//! schema-versioned [`Report`](crate::report::Report); each also keeps a
//! `run(...)` function returning a typed result so integration tests can
//! assert on the numbers directly. The `repro` binary drives everything
//! through the registry and the cross-point parallel runner.
//!
//! | ID | artifact | module |
//! |----|----------|--------|
//! | `table1`, `fig1`, `fig5` | Table 1, Figures 1 & 5 | [`table1`] |
//! | `fig2`, `fig3` | recovery circuit & concatenation structure | [`fig2`] |
//! | `threshold` | §2.2 thresholds (Eq. 1) | [`threshold`] |
//! | `suppression` | Eq. 2 | [`suppression`] |
//! | `blowup` | §2.3 (Γ_L, S_L, worked example) | [`blowup`] |
//! | `levelreq` | Eq. 3 + poly-log overhead | [`levelreq`] |
//! | `fig4`, `fig6`, `fig7`, `local2d`, `local1d` | §3 local schemes | [`local`] |
//! | `table2` | §3.3 mixed concatenation | [`table2`] |
//! | `entropy` | §4 bounds vs measured | [`entropy`] |
//! | `nand` | §4 footnote 4 (3/2-bit NAND) | [`nand`] |
//! | `advantage` | §1/§4 design space | [`advantage`] |
//! | `detectcov`, `detectoverhead`, `detectwidth`, `detecthybrid` | parity-preserving detection subsystem | [`detect`] |

pub mod ablation;
pub mod advantage;
pub mod blowup;
pub mod detect;
pub mod entropy;
pub mod fig2;
pub mod levelreq;
pub mod local;
pub mod nand;
pub mod suppression;
pub mod table1;
pub mod table2;
pub mod threshold;

use rft_revsim::engine::{BackendKind, Estimator, McOptions, WordWidth};
use serde::{Deserialize, Serialize};

/// Monte-Carlo budget shared by the experiments — the experiment-facing
/// face of [`McOptions`]: every Monte-Carlo call site derives its options
/// from a `RunConfig` via [`RunConfig::options`], so the `repro` binary's
/// `--backend`, `--estimator` and `--rel-error` flags reach all
/// experiments uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Trials per Monte-Carlo point.
    pub trials: u64,
    /// Base RNG seed (experiments derive sub-seeds deterministically).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Backend label policy (`auto` labels by trial count; results never
    /// depend on it).
    pub backend: BackendKind,
    /// Estimator selection policy (auto routes deep-sub-threshold points
    /// to the fault-count-stratified rare-event estimator).
    pub estimator: Estimator,
    /// Wide-word width of the batch word loops (pure throughput: results
    /// are bit-identical at any width).
    pub width: WordWidth,
    /// Optional adaptive early stopping once the pooled 95% interval's
    /// relative half-width reaches this target
    /// ([`McOptions::target_rel_error`]).
    pub target_rel_error: Option<f64>,
}

impl RunConfig {
    /// Full-fidelity budget for the `repro` binary.
    pub fn full() -> Self {
        RunConfig {
            trials: 200_000,
            seed: 2005,
            threads: default_threads(),
            backend: BackendKind::Auto,
            estimator: Estimator::Auto,
            width: WordWidth::Auto,
            target_rel_error: None,
        }
    }

    /// Reduced budget for integration tests and smoke runs.
    pub fn quick() -> Self {
        RunConfig {
            trials: 4_000,
            ..RunConfig::full()
        }
    }

    /// Lowers this budget into engine [`McOptions`]. Experiments salt the
    /// seed per point with [`McOptions::salt`].
    pub fn options(&self) -> McOptions {
        let opts = McOptions::new(self.trials)
            .seed(self.seed)
            .threads(self.threads)
            .backend(self.backend)
            .estimator(self.estimator)
            .width(self.width);
        match self.target_rel_error {
            Some(target) => opts.target_rel_error(target),
            None => opts,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::full()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_sane() {
        assert!(RunConfig::full().trials > RunConfig::quick().trials);
        assert!(RunConfig::default().threads >= 1);
    }
}
