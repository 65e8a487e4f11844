//! # rft-revsim — a noisy reversible-logic simulator
//!
//! This crate is the substrate for the reproduction of *“Reversible
//! Fault-Tolerant Logic”* (Boykin & Roychowdhury, DSN 2005): a gate-array
//! model of classical reversible computing in which bits sit at fixed
//! positions and reversible gates of up to three bits are applied in
//! sequence.
//!
//! It provides:
//!
//! - the paper's gate set ([`gate::Gate`]): NOT, CNOT, Toffoli, SWAP, the
//!   SWAP3 of Figure 5, Fredkin, and the reversible majority gate MAJ of
//!   Table 1 with its inverse;
//! - ancilla resets ([`op::Op::Init`]) — the one irreversible primitive,
//!   through which all of §4's entropy leaves the machine;
//! - validated circuits ([`circuit::Circuit`]) with composition, embedding,
//!   inversion, op statistics and depth;
//! - exhaustive permutation extraction ([`permutation::Permutation`]);
//! - the paper's error model ([`noise`]): each operation independently
//!   randomizes its support with probability *g*;
//! - **the unified execution engine ([`engine`])** — the single entry
//!   point for noisy simulation: [`engine::Engine`] compiles a circuit
//!   against a noise model once (flattened op stream + per-op fault
//!   probabilities + exact binomial fault-mask samplers) and runs every
//!   Monte-Carlo estimate on one executor, the compiled micro-op program
//!   ([`microop`]). Estimates take typed [`engine::McOptions`]
//!   (`trials`/`seed`/`threads`, a [`engine::BackendKind`] label, a
//!   word width, optional adaptive early stopping at a target relative
//!   half-width, and an [`engine::Estimator`] policy whose
//!   fault-count-stratified mode makes deep-sub-threshold rare-event
//!   rates tractable by eliding fault-free words analytically); a seed
//!   reproduces the same outcome at any width and thread count;
//! - **the round driver ([`estimate`])** — one resumable
//!   [`estimate::Estimation`] with one stopping rule behind both
//!   [`engine::Engine::estimate`] and served jobs, plus the interval
//!   math (Wilson and stratified 95% intervals);
//! - the per-trial noisy run's report ([`exec`]), plus the low-level
//!   batch substrate ([`batch`]): wire-major bit planes, the kernels the
//!   engine executes on, and the op-at-a-time reference executors;
//! - exhaustive fault enumeration and planned-fault runs ([`fault`]) used
//!   to *prove* (not sample) the single-fault tolerance of recovery
//!   circuits.
//!
//! # Examples
//!
//! Verify on all eight inputs that MAJ's first output bit is the majority:
//!
//! ```
//! use rft_revsim::prelude::*;
//!
//! let mut c = Circuit::new(3);
//! c.maj(w(0), w(1), w(2));
//!
//! for input in 0..8u64 {
//!     let mut s = BitState::from_u64(input, 3);
//!     c.run(&mut s);
//!     assert_eq!(s.get(w(0)), input.count_ones() >= 2);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod circuit;
pub mod diagram;
pub mod engine;
mod error;
pub mod estimate;
pub mod exec;
pub mod fault;
pub mod gate;
mod helpers;
pub mod microop;
pub mod noise;
pub mod op;
pub mod permutation;
mod schedule;
pub mod state;
pub mod wire;

pub use error::{Error, Result};

// The instrumentation layer, re-exported so downstream crates name the
// exact `Collector` the engine entry points accept.
pub use rft_obs as obs;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::batch::{run_ideal_batch, BatchExecReport, BatchState};
    pub use crate::circuit::{Circuit, CircuitStats};
    pub use crate::diagram::render;
    pub use crate::engine::{
        BackendKind, Engine, Estimator, McOptions, McOutcome, StratumOutcome, WordTrial, WordWidth,
        DEFAULT_BATCH_THRESHOLD, DEFAULT_STRATA_CAP, STRATIFIED_ROUTING_THRESHOLD,
    };
    pub use crate::exec::ExecReport;
    pub use crate::fault::{double_fault_plans, single_fault_plans, FaultPlan, PlannedFault};
    pub use crate::gate::{Gate, OpKind};
    pub use crate::microop::CompileStats;
    pub use crate::noise::{fault_free_probability, NoNoise, NoiseModel, SplitNoise, UniformNoise};
    pub use crate::op::Op;
    pub use crate::state::BitState;
    pub use crate::wire::{w, Support, Wire};
    pub use crate::{Error, Result};
}
