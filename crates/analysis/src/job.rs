//! Replayable estimation jobs: the unit of work the `rft-serve` daemon
//! accepts, streams, and that `repro replay` reproduces offline.
//!
//! A [`JobSpec`] names everything that determines an answer — the circuit
//! (a `(level, gate, cycles)` concatenation spec or a §2.2 transversal
//! cycle), the noise model, the base seed, the estimator/backend policy
//! and the per-round trial budget — and a [`JobRecord`] wraps it with a
//! schema version. A job is one resumable engine
//! [`Estimation`](rft_revsim::estimate::Estimation) — the same round
//! driver behind `Engine::estimate` — and runs as a sequence of
//! **rounds**: round `r` advances it by `trials_per_round` trials, which
//! pool with every earlier round's, and emits an [`IntervalUpdate`]
//! carrying the pooled 95% confidence interval. The job stops after
//! `max_rounds` rounds, or at the first round boundary where the pooled
//! interval meets `target_rel_half_width` under the engine's own
//! stopping rule ([`Interval::meets`](rft_revsim::estimate::Interval::meets)).
//! A streaming consumer (the daemon's chunked HTTP response) forwards
//! each update to the client and may cancel between rounds — which is
//! how an early client disconnect frees the job's budget.
//!
//! **Determinism contract.** A job's words are numbered across rounds
//! and word `i` draws from `(spec.seed ^ JOB_SALT, i)` — one constant
//! domain-separation salt, no per-round seeds — so a plain job of `R`
//! rounds of `64·k` trials runs exactly the words of one estimate of
//! `R·64·k` trials at that seed. A `trials_per_round` that is not a
//! multiple of 64 ends every round with a partial word. A stratified
//! job's Neyman sub-rounds continue across rounds on the pooled
//! tallies. None of this depends on the threads a round is granted, so
//! a job's updates are bit-identical for a fixed record at any thread
//! count, on any machine, served or replayed: the final streamed update
//! of a completed job is **byte-identical** to `repro replay job.json`
//! of its record (both serialize through [`FinalUpdate`]). Pinned by
//! tests here, in `crates/serve`, and by the `serve_smoke.py` CI script.

use crate::experiment::CompileCache;
use crate::stats::ErrorEstimate;
use rft_core::concat::FtBuilder;
use rft_core::ftcheck::transversal_cycle;
use rft_detect::{AdderKind, CheckedAdder, TrialMode};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Engine, Estimator, McOptions, WordTrial, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::noise::UniformNoise;
use serde::{Deserialize, Serialize};

/// Version of the job-record JSON schema (independent of the report
/// schema: records are long-lived client-side artifacts).
pub const JOB_SCHEMA_VERSION: u32 = 1;

/// Hard ceiling on `trials_per_round` (2³² lanes ≈ 67M words/round).
pub const MAX_TRIALS_PER_ROUND: u64 = 1 << 32;

/// Hard ceiling on `max_rounds`.
pub const MAX_ROUNDS: u32 = 4096;

/// Which circuit a job estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CircuitSpec {
    /// The paper's concatenated fault-tolerant program: `cycles`
    /// applications of `gate` (on logical wires) at concatenation
    /// `level`, with the full encode → run → decode trial.
    Concat {
        /// Concatenation level (1..=[`FtBuilder::MAX_LEVEL`]).
        level: u8,
        /// Logical gate (wires 0..=5).
        gate: Gate,
        /// Cycles per trial (1..=256).
        cycles: usize,
    },
    /// The §2.2 non-local transversal recovery cycle of `gate` (which
    /// must act on logical wires 0, 1, 2), one cycle per trial.
    Cycle {
        /// Logical gate on wires 0, 1, 2.
        gate: Gate,
    },
    /// A parity-checked adder from the detection subsystem
    /// (`rft-detect`): the `width`-bit construction `kind`, wrapped with
    /// the ancilla-parity invariant checker, judged per `mode`. A
    /// [`TrialMode::Detected`] job streams live detection-coverage
    /// intervals; [`TrialMode::UndetectedWrong`] streams the residual
    /// error a retry/discard policy cannot see.
    DetectAdder {
        /// Operand width in bits (1..=32).
        width: usize,
        /// Which synthesis; must be parity-preserving (every kind except
        /// [`AdderKind::PlainRipple`], which has no checker to wrap).
        kind: AdderKind,
        /// What counts as a failure for the streamed interval.
        mode: TrialMode,
    },
}

/// Which noise model a job runs under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// Uniform per-operation fault probability `g` (the paper's model).
    Uniform {
        /// Per-op fault probability, in `[0, 1]`.
        g: f64,
    },
}

impl NoiseSpec {
    /// Instantiates the noise model.
    fn model(&self) -> UniformNoise {
        match *self {
            NoiseSpec::Uniform { g } => UniformNoise::new(g),
        }
    }
}

/// Everything that determines a served answer. See the module docs for
/// the round/streaming semantics of the budget fields.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The circuit to estimate.
    pub circuit: CircuitSpec,
    /// The noise model.
    pub noise: NoiseSpec,
    /// Base RNG seed (the job salts it with one constant).
    pub seed: u64,
    /// Estimator policy (`Auto` routes deep-sub-threshold jobs to the
    /// fault-count-stratified rare-event estimator).
    pub estimator: Estimator,
    /// Backend policy.
    pub backend: BackendKind,
    /// Wide-word width (pure throughput; never changes results).
    pub width: WordWidth,
    /// Trials each round adds to the pooled estimate
    /// (1..=[`MAX_TRIALS_PER_ROUND`]).
    pub trials_per_round: u64,
    /// Round budget (1..=[`MAX_ROUNDS`]); the job stops earlier once the
    /// precision target is met.
    pub max_rounds: u32,
    /// Precision target: stop once the pooled interval's relative
    /// half-width `(high − low) / (2 · rate)` is at or below this — the
    /// engine's stopping rule, checked at round boundaries. `None`
    /// always runs `max_rounds` rounds.
    pub target_rel_half_width: Option<f64>,
    /// Wall-clock deadline in milliseconds for a *served* job. The
    /// daemon cancels a deadline-exceeded job at the next round boundary
    /// and streams a `cancelled` final line; offline replay ignores the
    /// field entirely (a completed record carries the rounds it actually
    /// ran, so its answer replays byte-identically regardless of how
    /// long the replay takes). `None` leaves only the server-side cap.
    pub deadline_ms: Option<u64>,
}

// An additive schema field: records written before `deadline_ms` existed
// must keep parsing, and a spec without a deadline must serialize
// byte-identically to what it produced before the field existed (served
// final lines embed the record). The derive can do neither — it emits
// every field and requires every key — so both impls are written out.
impl Serialize for JobSpec {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("circuit".to_string(), self.circuit.to_value()),
            ("noise".to_string(), self.noise.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("estimator".to_string(), self.estimator.to_value()),
            ("backend".to_string(), self.backend.to_value()),
            ("width".to_string(), self.width.to_value()),
            (
                "trials_per_round".to_string(),
                self.trials_per_round.to_value(),
            ),
            ("max_rounds".to_string(), self.max_rounds.to_value()),
            (
                "target_rel_half_width".to_string(),
                self.target_rel_half_width.to_value(),
            ),
        ];
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), d.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = serde::as_map(v, "JobSpec")?;
        let field = |key| serde::map_get(m, key, "JobSpec");
        Ok(JobSpec {
            circuit: Deserialize::from_value(field("circuit")?)?,
            noise: Deserialize::from_value(field("noise")?)?,
            seed: Deserialize::from_value(field("seed")?)?,
            estimator: Deserialize::from_value(field("estimator")?)?,
            backend: Deserialize::from_value(field("backend")?)?,
            width: Deserialize::from_value(field("width")?)?,
            trials_per_round: Deserialize::from_value(field("trials_per_round")?)?,
            max_rounds: Deserialize::from_value(field("max_rounds")?)?,
            target_rel_half_width: Deserialize::from_value(field("target_rel_half_width")?)?,
            deadline_ms: match m.iter().find(|(k, _)| k == "deadline_ms") {
                Some((_, v)) => Deserialize::from_value(v)?,
                None => None,
            },
        })
    }
}

impl JobSpec {
    /// A small deterministic smoke-test job: one round of 4096 trials of
    /// the level-1 Toffoli program at `g = 1/165`.
    pub fn quick() -> Self {
        use rft_revsim::wire::w;
        JobSpec {
            circuit: CircuitSpec::Concat {
                level: 1,
                gate: Gate::Toffoli {
                    controls: [w(0), w(1)],
                    target: w(2),
                },
                cycles: 1,
            },
            noise: NoiseSpec::Uniform { g: 1.0 / 165.0 },
            seed: 2005,
            estimator: Estimator::Plain,
            backend: BackendKind::Auto,
            width: WordWidth::Auto,
            trials_per_round: 4096,
            max_rounds: 1,
            target_rel_half_width: None,
            deadline_ms: None,
        }
    }

    /// Validates every bound the runner (and the daemon, pre-admission)
    /// relies on; the error string is client-facing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.trials_per_round == 0 || self.trials_per_round > MAX_TRIALS_PER_ROUND {
            return Err(format!(
                "trials_per_round must be in 1..={MAX_TRIALS_PER_ROUND}, got {}",
                self.trials_per_round
            ));
        }
        if self.max_rounds == 0 || self.max_rounds > MAX_ROUNDS {
            return Err(format!(
                "max_rounds must be in 1..={MAX_ROUNDS}, got {}",
                self.max_rounds
            ));
        }
        if let Some(t) = self.target_rel_half_width {
            if !(t > 0.0 && t.is_finite()) {
                return Err(format!(
                    "target_rel_half_width must be positive and finite, got {t}"
                ));
            }
        }
        if self.deadline_ms == Some(0) {
            return Err("deadline_ms must be >= 1 when present".into());
        }
        let NoiseSpec::Uniform { g } = self.noise;
        if !(0.0..=1.0).contains(&g) || !g.is_finite() {
            return Err(format!("noise g must be in [0, 1], got {g}"));
        }
        match &self.circuit {
            CircuitSpec::Concat {
                level,
                gate,
                cycles,
            } => {
                if *level == 0 || *level > FtBuilder::MAX_LEVEL {
                    return Err(format!(
                        "level must be in 1..={}, got {level}",
                        FtBuilder::MAX_LEVEL
                    ));
                }
                if *cycles == 0 || *cycles > 256 {
                    return Err(format!("cycles must be in 1..=256, got {cycles}"));
                }
                let support = gate.support();
                if !support.is_distinct() {
                    return Err("gate wires must be distinct".into());
                }
                if support.max_index() > 5 {
                    return Err(format!(
                        "gate wires must be <= 5, got {}",
                        support.max_index()
                    ));
                }
            }
            CircuitSpec::Cycle { gate } => {
                use rft_revsim::wire::w;
                let support = gate.support();
                if support.len() != 3
                    || !support.is_distinct()
                    || !(0..3).all(|i| support.contains(w(i)))
                {
                    return Err("cycle gate must act on distinct logical wires 0, 1, 2".into());
                }
            }
            CircuitSpec::DetectAdder { width, kind, .. } => {
                if *width == 0 || *width > 32 {
                    return Err(format!("adder width must be in 1..=32, got {width}"));
                }
                if *kind == AdderKind::PlainRipple {
                    return Err(
                        "detect adder kind must be parity-preserving; plain ripple has no checker"
                            .into(),
                    );
                }
                if let AdderKind::CarrySkip { block } = kind {
                    if *block == 0 {
                        return Err("carry-skip block size must be >= 1".into());
                    }
                }
            }
        }
        Ok(())
    }
}

/// A schema-versioned, self-describing [`JobSpec`] — the replayable
/// artifact every served answer carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job-record schema version ([`JOB_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The job itself.
    pub spec: JobSpec,
}

impl JobRecord {
    /// Wraps a spec at the current schema version.
    pub fn new(spec: JobSpec) -> Self {
        JobRecord {
            schema_version: JOB_SCHEMA_VERSION,
            spec,
        }
    }

    /// Validates the schema version and the spec.
    ///
    /// # Errors
    ///
    /// Returns a client-facing description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != JOB_SCHEMA_VERSION {
            return Err(format!(
                "unsupported job schema_version {} (this build speaks {JOB_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        self.spec.validate()
    }
}

/// One streamed line: the pooled interval after a completed round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalUpdate {
    /// Line discriminator, always `"interval"`.
    pub kind: String,
    /// 1-based round index this update pools up to.
    pub round: u32,
    /// The job's round budget.
    pub max_rounds: u32,
    /// Pooled estimate over every round so far (95% Wilson-style
    /// interval; exact stratum weights under the stratified estimator).
    pub estimate: ErrorEstimate,
    /// Pooled relative half-width `(high − low) / (2 · rate)`; `None`
    /// while the point estimate is still zero.
    pub rel_half_width: Option<f64>,
    /// 64-lane words executed so far (the cost metric).
    pub executed_words: u64,
    /// Whether the precision target has been met.
    pub converged: bool,
    /// Whether this is the job's last round (converged, budget
    /// exhausted, or the server is draining).
    pub done: bool,
}

/// The terminal line of a job the daemon cancelled instead of completed
/// — today only for a wall-clock deadline hit. The stream stays
/// well-formed (this line, then a clean chunked terminator), so a client
/// always learns *why* it got no final answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CancelledUpdate {
    /// Line discriminator, always `"cancelled"`.
    pub kind: String,
    /// Client-facing cause, e.g. `"deadline exceeded"`.
    pub reason: String,
    /// Rounds that completed (and streamed intervals) before the cancel.
    pub round: u32,
    /// The job's round budget, for context.
    pub max_rounds: u32,
}

impl CancelledUpdate {
    /// Builds a cancellation line.
    pub fn new(reason: impl Into<String>, round: u32, max_rounds: u32) -> Self {
        CancelledUpdate {
            kind: "cancelled".into(),
            reason: reason.into(),
            round,
            max_rounds,
        }
    }

    /// The canonical single-line JSON of this payload.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("cancelled update serialization is infallible")
    }
}

/// The final payload of a completed job: the replayable record plus the
/// pooled result. `repro replay` prints exactly this serialization, so a
/// streamed final line can be compared byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalUpdate {
    /// Line discriminator, always `"final"`.
    pub kind: String,
    /// Job-record schema version.
    pub schema_version: u32,
    /// The replayable job record.
    pub record: JobRecord,
    /// The pooled result.
    pub result: JobResult,
}

impl FinalUpdate {
    /// The canonical single-line JSON of this payload — what the daemon
    /// streams as the last chunk and `repro replay` prints.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("final update serialization is infallible")
    }
}

/// The pooled outcome of every executed round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Rounds actually executed.
    pub rounds: u32,
    /// Pooled estimate (95% interval).
    pub estimate: ErrorEstimate,
    /// Pooled relative half-width (`None` while the rate is zero).
    pub rel_half_width: Option<f64>,
    /// Whether the precision target was met within the round budget.
    pub converged: bool,
    /// Total 64-lane words executed.
    pub executed_words: u64,
    /// Name of the estimator that ran (`"plain"` or `"stratified"`).
    pub estimator: String,
    /// Name of the backend that ran.
    pub backend: String,
}

/// A streaming consumer's verdict between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobControl {
    /// Keep running rounds.
    Continue,
    /// Cancel the job (client disconnected); no final update is built.
    Cancel,
}

/// The job domain-separation salt ("RFT-SERVE"): a job estimates at
/// `spec.seed ^ JOB_SALT`, so its words never collide with the unsalted
/// streams experiments use at the same seed.
const JOB_SALT: u64 = 0x5246_5453_4552_5645;

/// Runs `record` round by round, invoking `on_update` after every round
/// with the pooled interval; compiled artifacts come from (and go into)
/// `cache`, observations into `obs`. `round_threads` is called at the
/// start of every round for the threads that round runs on; the answer
/// is the same at any count.
///
/// Returns `Ok(Some(final))` when the job completed, `Ok(None)` when
/// `on_update` cancelled it.
///
/// # Errors
///
/// Returns a client-facing message when the record fails validation.
pub fn run_job_streaming<T, F>(
    cache: &CompileCache,
    obs: &Collector,
    record: &JobRecord,
    round_threads: T,
    on_update: F,
) -> Result<Option<FinalUpdate>, String>
where
    T: FnMut() -> usize,
    F: FnMut(&IntervalUpdate) -> JobControl,
{
    record.validate()?;
    let spec = &record.spec;
    let noise = spec.noise.model();
    // Compile once (or hit the process-wide cache); rounds only execute.
    Ok(match &spec.circuit {
        CircuitSpec::Concat {
            level,
            gate,
            cycles,
        } => {
            let mc = cache.concat_with(obs, *level, *gate, *cycles);
            let engine = cache.engine_with(obs, mc.program().circuit(), &noise);
            drive(&engine, &mc.trial(), obs, record, round_threads, on_update)
        }
        CircuitSpec::Cycle { gate } => {
            let cycle = transversal_cycle(gate);
            let engine = cache.engine_with(obs, cycle.circuit(), &noise);
            drive(&engine, &cycle, obs, record, round_threads, on_update)
        }
        CircuitSpec::DetectAdder { width, kind, mode } => {
            obs.incr(rft_obs::Metric::DetectSyntheses);
            let adder = CheckedAdder::new(*kind, *width);
            let engine = cache.engine_with(obs, &adder.checked.circuit, &noise);
            obs.incr(rft_obs::Metric::DetectEstimates);
            let trial = adder.trial(*mode);
            drive(&engine, &trial, obs, record, round_threads, on_update)
        }
    })
}

/// The job's round loop: one [`Estimation`] at the salted seed, advanced
/// by `trials_per_round` per round, streaming its pooled interval and
/// stopping on the engine's rule. Generic so the word loop stays
/// monomorphized per trial type.
fn drive<W, T, F>(
    engine: &Engine,
    trial: &W,
    obs: &Collector,
    record: &JobRecord,
    mut round_threads: T,
    mut on_update: F,
) -> Option<FinalUpdate>
where
    W: WordTrial + ?Sized,
    T: FnMut() -> usize,
    F: FnMut(&IntervalUpdate) -> JobControl,
{
    let spec = &record.spec;
    // `trials_per_round` only resolves the `Auto` backend label here.
    let opts = McOptions::new(spec.trials_per_round)
        .seed(spec.seed ^ JOB_SALT)
        .backend(spec.backend)
        .estimator(spec.estimator)
        .width(spec.width);
    let mut est = engine.estimation(trial, &opts, obs);
    for round in 1..=spec.max_rounds {
        est.advance(spec.trials_per_round, round_threads());
        let interval = est.interval();
        let outcome = est.outcome();
        let (executed_words, estimator, backend) =
            (outcome.executed_words, outcome.estimator, outcome.backend);
        let converged = spec
            .target_rel_half_width
            .is_some_and(|t| interval.meets(t));
        let done = converged || round == spec.max_rounds;
        let update = IntervalUpdate {
            kind: "interval".into(),
            round,
            max_rounds: spec.max_rounds,
            estimate: ErrorEstimate::from(outcome),
            rel_half_width: interval.rel_half_width(),
            executed_words,
            converged,
            done,
        };
        if on_update(&update) == JobControl::Cancel {
            return None;
        }
        if done {
            return Some(FinalUpdate {
                kind: "final".into(),
                schema_version: JOB_SCHEMA_VERSION,
                record: record.clone(),
                result: JobResult {
                    rounds: round,
                    estimate: update.estimate,
                    rel_half_width: update.rel_half_width,
                    converged,
                    executed_words,
                    estimator: estimator.to_string(),
                    backend: backend.to_string(),
                },
            });
        }
    }
    unreachable!("the last round is done")
}

/// Runs `record` to completion (no streaming consumer) — the offline
/// `repro replay` entry point.
///
/// # Errors
///
/// Returns a client-facing message when the record fails validation.
pub fn run_job(
    cache: &CompileCache,
    obs: &Collector,
    record: &JobRecord,
    threads: usize,
) -> Result<FinalUpdate, String> {
    run_job_streaming(cache, obs, record, || threads, |_| JobControl::Continue)
        .map(|done| done.expect("uncancellable job ran to completion"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rft_revsim::wire::w;

    fn record(spec: JobSpec) -> JobRecord {
        JobRecord::new(spec)
    }

    #[test]
    fn job_record_round_trips_through_json() {
        let rec = record(JobSpec::quick());
        let json = serde_json::to_string(&rec).expect("serialize");
        let back: JobRecord = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, rec);
        back.validate().expect("valid record");
    }

    #[test]
    fn deadline_field_is_additive() {
        // A spec without a deadline serializes exactly as it did before
        // the field existed: no `deadline_ms` key at all.
        let rec = record(JobSpec::quick());
        let json = serde_json::to_string(&rec).expect("serialize");
        assert!(
            !json.contains("deadline_ms"),
            "no-deadline records must not mention the field: {json}"
        );

        // Old-shaped JSON (no deadline_ms key) still parses.
        let back: JobRecord = serde_json::from_str(&json).expect("old shape parses");
        assert_eq!(back, rec);

        // A spec with a deadline round-trips.
        let mut spec = JobSpec::quick();
        spec.deadline_ms = Some(2500);
        let rec = record(spec);
        rec.validate().expect("valid");
        let json = serde_json::to_string(&rec).expect("serialize");
        assert!(json.contains("\"deadline_ms\":2500"), "json: {json}");
        let back: JobRecord = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, rec);

        // A completed record with a deadline replays identically to the
        // same job without one: replay ignores wall-clock entirely.
        let mut with = JobSpec::quick();
        with.deadline_ms = Some(60_000);
        let mut without = JobSpec::quick();
        without.deadline_ms = None;
        let a = run_job(
            &CompileCache::new(),
            &Collector::disabled(),
            &record(with),
            1,
        )
        .expect("run");
        let b = run_job(
            &CompileCache::new(),
            &Collector::disabled(),
            &record(without),
            1,
        )
        .expect("run");
        assert_eq!(a.result, b.result, "deadline never changes the answer");
    }

    #[test]
    fn cancelled_update_serializes_with_reason() {
        let line = CancelledUpdate::new("deadline exceeded", 3, 8).to_line();
        assert!(line.contains("\"kind\":\"cancelled\""), "line: {line}");
        assert!(line.contains("\"reason\":\"deadline exceeded\""), "{line}");
        assert!(line.contains("\"round\":3"), "line: {line}");
        let back: CancelledUpdate = serde_json::from_str(&line).expect("round-trip");
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = JobSpec::quick();
        bad.trials_per_round = 0;
        assert!(bad.validate().is_err());

        let mut bad = JobSpec::quick();
        bad.max_rounds = MAX_ROUNDS + 1;
        assert!(bad.validate().is_err());

        let mut bad = JobSpec::quick();
        bad.noise = NoiseSpec::Uniform { g: 1.5 };
        assert!(bad.validate().is_err());

        let mut bad = JobSpec::quick();
        bad.circuit = CircuitSpec::Concat {
            level: 0,
            gate: Gate::Not(w(0)),
            cycles: 1,
        };
        assert!(bad.validate().is_err());

        let mut bad = JobSpec::quick();
        bad.circuit = CircuitSpec::Cycle {
            gate: Gate::Not(w(0)),
        };
        assert!(bad.validate().is_err(), "cycle gate must touch 0,1,2");

        let mut bad = JobSpec::quick();
        bad.target_rel_half_width = Some(0.0);
        assert!(bad.validate().is_err());

        let mut bad = JobSpec::quick();
        bad.deadline_ms = Some(0);
        assert!(bad.validate().is_err(), "zero deadline");

        let mut bad = JobSpec::quick();
        bad.circuit = CircuitSpec::DetectAdder {
            width: 0,
            kind: AdderKind::Ripple,
            mode: TrialMode::Detected,
        };
        assert!(bad.validate().is_err(), "zero-width adder");

        let mut bad = JobSpec::quick();
        bad.circuit = CircuitSpec::DetectAdder {
            width: 4,
            kind: AdderKind::PlainRipple,
            mode: TrialMode::Wrong,
        };
        assert!(bad.validate().is_err(), "plain ripple has no checker");

        let mut bad = JobSpec::quick();
        bad.circuit = CircuitSpec::DetectAdder {
            width: 4,
            kind: AdderKind::CarrySkip { block: 0 },
            mode: TrialMode::Detected,
        };
        assert!(bad.validate().is_err(), "zero carry-skip block");

        let mut rec = record(JobSpec::quick());
        rec.schema_version = 99;
        assert!(rec.validate().is_err());
    }

    #[test]
    fn replay_is_bit_identical_at_any_thread_count() {
        let mut spec = JobSpec::quick();
        spec.max_rounds = 3;
        let rec = record(spec);
        let a = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 1).expect("run");
        let b = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 4).expect("run");
        assert_eq!(a, b);
        assert_eq!(a.to_line(), b.to_line(), "canonical lines byte-identical");
    }

    #[test]
    fn streamed_final_round_equals_offline_replay() {
        let mut spec = JobSpec::quick();
        spec.max_rounds = 4;
        spec.target_rel_half_width = Some(0.05);
        let rec = record(spec);
        let cache = CompileCache::new();
        let obs = Collector::disabled();
        let mut updates = Vec::new();
        let streamed = run_job_streaming(
            &cache,
            &obs,
            &rec,
            || 2,
            |u| {
                updates.push(u.clone());
                JobControl::Continue
            },
        )
        .expect("run")
        .expect("completed");
        assert!(!updates.is_empty());
        assert!(updates.last().expect("nonempty").done);
        // Pooled trials grow monotonically round over round.
        for pair in updates.windows(2) {
            assert!(pair[1].estimate.trials > pair[0].estimate.trials);
            assert!(!pair[0].done);
        }
        let replayed = run_job(&CompileCache::new(), &obs, &rec, 1).expect("replay");
        assert_eq!(streamed.to_line(), replayed.to_line());
    }

    #[test]
    fn cancel_between_rounds_stops_the_job() {
        let mut spec = JobSpec::quick();
        spec.max_rounds = 8;
        let rec = record(spec);
        let mut seen = 0u32;
        let out = run_job_streaming(
            &CompileCache::new(),
            &Collector::disabled(),
            &rec,
            || 1,
            |_| {
                seen += 1;
                if seen == 2 {
                    JobControl::Cancel
                } else {
                    JobControl::Continue
                }
            },
        )
        .expect("valid record");
        assert!(out.is_none(), "cancelled jobs produce no final update");
        assert_eq!(seen, 2, "no rounds run after a cancel");
    }

    #[test]
    fn stratified_jobs_pool_strata_and_replay_identically() {
        let mut spec = JobSpec::quick();
        spec.noise = NoiseSpec::Uniform { g: 1e-3 };
        spec.estimator = Estimator::DEFAULT_STRATIFIED;
        spec.trials_per_round = 2048;
        spec.max_rounds = 3;
        let rec = record(spec);
        let a = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 1).expect("run");
        assert_eq!(a.result.estimator, "stratified");
        let b = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 3).expect("run");
        assert_eq!(a.to_line(), b.to_line());
    }

    #[test]
    fn detect_jobs_stream_coverage_and_replay_identically() {
        // A Detected-mode job streams the retry/coverage rate; an
        // UndetectedWrong-mode job at the same seed streams the residual.
        // Both replay bit-identically at any thread count, and the
        // residual never exceeds the raw wrong rate.
        let job = |mode| {
            let mut spec = JobSpec::quick();
            spec.circuit = CircuitSpec::DetectAdder {
                width: 4,
                kind: AdderKind::CarrySkip { block: 2 },
                mode,
            };
            spec.noise = NoiseSpec::Uniform { g: 2e-3 };
            spec.trials_per_round = 2048;
            spec.max_rounds = 2;
            record(spec)
        };
        let detected = job(TrialMode::Detected);
        let a = run_job(&CompileCache::new(), &Collector::disabled(), &detected, 1).expect("run");
        let b = run_job(&CompileCache::new(), &Collector::disabled(), &detected, 4).expect("run");
        assert_eq!(a.to_line(), b.to_line(), "replay is thread-invariant");
        assert!(a.result.estimate.failures > 0, "noise must trip the flag");

        let wrong = run_job(
            &CompileCache::new(),
            &Collector::disabled(),
            &job(TrialMode::Wrong),
            1,
        )
        .expect("run");
        let resid = run_job(
            &CompileCache::new(),
            &Collector::disabled(),
            &job(TrialMode::UndetectedWrong),
            1,
        )
        .expect("run");
        assert!(resid.result.estimate.failures <= wrong.result.estimate.failures);
    }

    #[test]
    fn rounds_at_alternating_thread_counts_replay_identically() {
        // A served job's rounds each run at the share of the thread budget
        // granted to them; the final line must not depend on the grants.
        let mut plain = JobSpec::quick();
        plain.max_rounds = 4;
        let mut level2 = JobSpec::quick();
        level2.circuit = CircuitSpec::Concat {
            level: 2,
            gate: Gate::Cnot {
                control: w(0),
                target: w(1),
            },
            cycles: 1,
        };
        level2.noise = NoiseSpec::Uniform { g: 2e-3 };
        level2.estimator = Estimator::DEFAULT_STRATIFIED;
        level2.trials_per_round = 2048;
        level2.max_rounds = 3;
        let mut cycle = JobSpec::quick();
        cycle.circuit = CircuitSpec::Cycle {
            gate: Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
        };
        cycle.trials_per_round = 1024;
        cycle.max_rounds = 3;
        // Rounds that end on a partial word.
        let mut partial = JobSpec::quick();
        partial.noise = NoiseSpec::Uniform { g: 0.02 };
        partial.trials_per_round = 100;
        partial.max_rounds = 4;
        // A stratified round of several sub-rounds, then rounds of one,
        // each ending on a partial word.
        let mut level2_partial = level2.clone();
        level2_partial.trials_per_round = 100 * 64 + 36;
        let mut detect = JobSpec::quick();
        detect.circuit = CircuitSpec::DetectAdder {
            width: 4,
            kind: AdderKind::Cla,
            mode: TrialMode::Detected,
        };
        detect.noise = NoiseSpec::Uniform { g: 2e-3 };
        detect.trials_per_round = 2048;
        detect.max_rounds = 3;

        for spec in [plain, level2, cycle, partial, level2_partial, detect] {
            let rec = record(spec);
            let mut round = 0usize;
            let alternating = run_job_streaming(
                &CompileCache::new(),
                &Collector::disabled(),
                &rec,
                || {
                    round += 1;
                    1 + round % 2
                },
                |_| JobControl::Continue,
            )
            .expect("run")
            .expect("completed");
            assert!(round >= 2, "every record runs several rounds");
            let inline =
                run_job(&CompileCache::new(), &Collector::disabled(), &rec, 1).expect("run");
            assert_eq!(
                alternating.to_line(),
                inline.to_line(),
                "{:?}",
                rec.spec.circuit
            );
        }
    }

    #[test]
    fn plain_job_rounds_are_one_estimate() {
        // Words are numbered across rounds: R rounds of 64·k trials run
        // exactly the words of one estimate of R·64·k trials.
        let mut spec = JobSpec::quick();
        spec.noise = NoiseSpec::Uniform { g: 0.02 };
        spec.trials_per_round = 64 * 24;
        spec.max_rounds = 5;
        let job = run_job(
            &CompileCache::new(),
            &Collector::disabled(),
            &record(spec.clone()),
            2,
        )
        .expect("run");
        let mc = crate::montecarlo::ConcatMc::new(
            1,
            Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
            1,
        );
        let engine = Engine::compile(mc.program().circuit(), &spec.noise.model());
        let opts = McOptions::new(5 * 64 * 24)
            .seed(spec.seed ^ JOB_SALT)
            .estimator(Estimator::Plain);
        let one = engine.estimate(&mc.trial(), &opts);
        assert!(one.failures > 0, "the pin needs failures: {one:?}");
        let result = &job.result;
        assert_eq!(
            (
                result.estimate.failures,
                result.estimate.trials,
                result.executed_words
            ),
            (one.failures, one.trials, one.executed_words)
        );
    }

    /// Final lines of three jobs whose backend reports `"scalar"`.
    const PLAIN_SCALAR: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Concat":{"level":1,"gate":{"Toffoli":{"controls":[0,1],"target":2}},"cycles":1}},"noise":{"Uniform":{"g":0.006060606060606061}},"seed":2005,"estimator":"Plain","backend":"Scalar","width":"Auto","trials_per_round":4096,"max_rounds":2,"target_rel_half_width":null}},"result":{"rounds":2,"estimate":{"failures":5,"trials":8192,"rate":0.0006103515625,"low":0.00026073299237942653,"high":0.0014281062745511116},"rel_half_width":0.9563121927550444,"converged":false,"executed_words":128,"estimator":"plain","backend":"scalar"}}"#;
    const AUTO_BELOW_THRESHOLD: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Concat":{"level":1,"gate":{"Toffoli":{"controls":[0,1],"target":2}},"cycles":1}},"noise":{"Uniform":{"g":0.02}},"seed":2005,"estimator":"Plain","backend":"Auto","width":"Auto","trials_per_round":100,"max_rounds":3,"target_rel_half_width":null}},"result":{"rounds":3,"estimate":{"failures":4,"trials":300,"rate":0.013333333333333334,"low":0.005196961703277307,"high":0.0337755304802933},"rel_half_width":1.0716963291380996,"converged":false,"executed_words":6,"estimator":"plain","backend":"scalar"}}"#;
    const STRATIFIED_SCALAR_CYCLE: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Cycle":{"gate":{"Toffoli":{"controls":[0,1],"target":2}}}},"noise":{"Uniform":{"g":0.006060606060606061}},"seed":2005,"estimator":{"Stratified":{"min_faults":1,"strata_cap":4}},"backend":"Scalar","width":"Auto","trials_per_round":1024,"max_rounds":2,"target_rel_half_width":null}},"result":{"rounds":2,"estimate":{"failures":122,"trials":2048,"rate":0.0004522194568071834,"low":0.0004469490077607134,"high":0.0011731968437366127},"rel_half_width":0.8029816331913774,"converged":false,"executed_words":32,"estimator":"stratified","backend":"scalar"}}"#;

    #[test]
    fn scalar_labelled_jobs_keep_their_final_lines() {
        // Jobs whose backend resolves to "scalar" (explicitly, or under
        // `auto` below the batch threshold) run on the same word loop as
        // every other job; their served bytes are pinned here.
        let mut plain = JobSpec::quick();
        plain.backend = BackendKind::Scalar;
        plain.max_rounds = 2;
        let mut small = JobSpec::quick();
        small.noise = NoiseSpec::Uniform { g: 0.02 };
        small.trials_per_round = 100;
        small.max_rounds = 3;
        let mut cycle = JobSpec::quick();
        cycle.circuit = CircuitSpec::Cycle {
            gate: Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
        };
        cycle.backend = BackendKind::Scalar;
        cycle.estimator = Estimator::DEFAULT_STRATIFIED;
        cycle.trials_per_round = 1024;
        cycle.max_rounds = 2;
        let pinned = [
            (plain, PLAIN_SCALAR),
            (small, AUTO_BELOW_THRESHOLD),
            (cycle, STRATIFIED_SCALAR_CYCLE),
        ];
        for (spec, expected) in pinned {
            let line = run_job(
                &CompileCache::new(),
                &Collector::disabled(),
                &record(spec),
                2,
            )
            .expect("run")
            .to_line();
            assert_eq!(line, expected);
        }
    }

    #[test]
    fn cycle_jobs_run_and_replay() {
        let mut spec = JobSpec::quick();
        spec.circuit = CircuitSpec::Cycle {
            gate: Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
        };
        spec.trials_per_round = 1024;
        spec.max_rounds = 2;
        let rec = record(spec);
        let a = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 1).expect("run");
        let b = run_job(&CompileCache::new(), &Collector::disabled(), &rec, 2).expect("run");
        assert_eq!(a.to_line(), b.to_line());
        assert!(a.result.estimate.trials >= 2048);
    }
}
