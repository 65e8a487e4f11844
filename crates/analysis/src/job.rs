//! Replayable estimation jobs: the unit of work the `rft-serve` daemon
//! accepts, streams, and that `repro replay` reproduces offline.
//!
//! A [`JobSpec`] names everything that determines an answer — the circuit
//! (a `(level, gate, cycles)` concatenation spec or a §2.2 transversal
//! cycle), the noise model, the base seed, the estimator/backend policy
//! and the per-round trial budget — and a [`JobRecord`] wraps it with a
//! schema version. The runner executes the job as a sequence of
//! **rounds**: each round runs `trials_per_round` fresh Monte-Carlo
//! trials under a per-round salted seed, pools the tallies with every
//! earlier round, and emits an [`IntervalUpdate`] carrying the pooled
//! 95% confidence interval. A streaming consumer (the daemon's chunked
//! HTTP response) forwards each update to the client and may cancel
//! between rounds — which is how an early client disconnect frees the
//! job's budget.
//!
//! **Determinism contract.** Round `r` derives its RNG streams from
//! `spec.seed ^ round_salt(r)` and the engine's per-word seeding, so a
//! job's updates are bit-identical for a fixed record at any thread
//! count, on any machine, served or replayed: the final streamed update
//! of a completed job is **byte-identical** to
//! `repro replay job.json` of its record (both serialize through
//! [`FinalUpdate`]). Pinned by tests here, in `crates/serve`, and by the
//! `serve_smoke.py` CI script.

use crate::experiment::CompileCache;
use crate::stats::ErrorEstimate;
use rft_core::concat::FtBuilder;
use rft_core::ftcheck::transversal_cycle;
use rft_detect::{AdderKind, CheckedAdder, TrialMode};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, McOptions, StratumOutcome, WordWidth};
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
    /// Base RNG seed (rounds salt it deterministically).
    pub seed: u64,
    /// Estimator policy (`Auto` routes deep-sub-threshold jobs to the
    /// fault-count-stratified rare-event estimator).
    pub estimator: Estimator,
    /// Backend policy.
    pub backend: BackendKind,
    /// Wide-word width (pure throughput; never changes results).
    pub width: WordWidth,
    /// Fresh trials per round (1..=[`MAX_TRIALS_PER_ROUND`]).
    pub trials_per_round: u64,
    /// Round budget (1..=[`MAX_ROUNDS`]); the job stops earlier once the
    /// precision target is met.
    pub max_rounds: u32,
    /// Precision target: stop once the pooled interval's relative
    /// half-width `(high − low) / (2 · rate)` is at or below this.
    /// `None` always runs `max_rounds` rounds.
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

/// `splitmix64` — the per-round seed salt generator. A pure function of
/// the round index, so replay derives the identical salt sequence.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed salt of 1-based round `round` (round 1 included: every round
/// runs on a salted stream, so a job's words never collide with the
/// unsalted streams experiments use at the same seed).
fn round_salt(round: u32) -> u64 {
    // "RFT-SERVE" domain separation constant.
    splitmix64(0x5246_5453_4552_5645 ^ u64::from(round))
}

/// Pools a round's per-stratum tallies into the running totals (strata
/// are keyed by `(k_lo, k_hi)`; their exact weights are identical every
/// round because the engine — and hence the fault-count PMF — is).
fn pool_strata(pooled: &mut Vec<StratumOutcome>, round: &[StratumOutcome]) {
    for s in round {
        match pooled
            .iter_mut()
            .find(|p| p.k_lo == s.k_lo && p.k_hi == s.k_hi)
        {
            Some(p) => {
                p.failures += s.failures;
                p.trials += s.trials;
            }
            None => pooled.push(s.clone()),
        }
    }
}

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
    mut round_threads: T,
    mut on_update: F,
) -> Result<Option<FinalUpdate>, String>
where
    T: FnMut() -> usize,
    F: FnMut(&IntervalUpdate) -> JobControl,
{
    record.validate()?;
    let spec = &record.spec;
    let noise = spec.noise.model();

    // Compile once (or hit the process-wide cache); rounds only execute.
    enum Compiled {
        Concat(std::sync::Arc<crate::montecarlo::ConcatMc>),
        Cycle(rft_core::ftcheck::CycleSpec),
        Detect(Box<CheckedAdder>, TrialMode),
    }
    let compiled = match &spec.circuit {
        CircuitSpec::Concat {
            level,
            gate,
            cycles,
        } => Compiled::Concat(cache.concat_with(obs, *level, *gate, *cycles)),
        CircuitSpec::Cycle { gate } => Compiled::Cycle(transversal_cycle(gate)),
        CircuitSpec::DetectAdder { width, kind, mode } => {
            obs.incr(rft_obs::Metric::DetectSyntheses);
            Compiled::Detect(Box::new(CheckedAdder::new(*kind, *width)), *mode)
        }
    };
    let engine = match &compiled {
        Compiled::Concat(mc) => cache.engine_with(obs, mc.program().circuit(), &noise),
        Compiled::Cycle(cycle) => cache.engine_with(obs, cycle.circuit(), &noise),
        Compiled::Detect(ca, _) => cache.engine_with(obs, &ca.checked.circuit, &noise),
    };

    let mut pooled_failures = 0u64;
    let mut pooled_trials = 0u64;
    let mut pooled_strata: Vec<StratumOutcome> = Vec::new();
    let mut executed_words = 0u64;
    let mut estimator_name = "";
    let mut backend_name = "";

    let mut last: Option<IntervalUpdate> = None;
    let mut rounds_run = 0u32;
    for round in 1..=spec.max_rounds {
        let opts = McOptions::new(spec.trials_per_round)
            .seed(spec.seed)
            .salt(round_salt(round))
            .threads(round_threads().max(1))
            .backend(spec.backend)
            .estimator(spec.estimator)
            .width(spec.width);
        let outcome = match &compiled {
            Compiled::Concat(mc) => engine.estimate_obs(&mc.trial(), &opts, obs),
            Compiled::Cycle(cycle) => engine.estimate_obs(cycle, &opts, obs),
            Compiled::Detect(ca, mode) => {
                obs.incr(rft_obs::Metric::DetectEstimates);
                engine.estimate_obs(&ca.trial(*mode), &opts, obs)
            }
        };
        rounds_run = round;
        executed_words += outcome.executed_words;
        estimator_name = outcome.estimator;
        backend_name = outcome.backend;
        if outcome.strata.is_empty() {
            pooled_failures += outcome.failures;
            pooled_trials += outcome.trials;
        } else {
            pool_strata(&mut pooled_strata, &outcome.strata);
        }

        let estimate = if pooled_strata.is_empty() {
            ErrorEstimate::from_counts(pooled_failures, pooled_trials.max(1))
        } else {
            ErrorEstimate::from_strata(&pooled_strata)
        };
        let rel_half_width =
            (estimate.rate > 0.0).then(|| (estimate.high - estimate.low) / (2.0 * estimate.rate));
        let converged = matches!(
            (rel_half_width, spec.target_rel_half_width),
            (Some(w), Some(t)) if w <= t
        );
        let update = IntervalUpdate {
            kind: "interval".into(),
            round,
            max_rounds: spec.max_rounds,
            estimate,
            rel_half_width,
            executed_words,
            converged,
            done: converged || round == spec.max_rounds,
        };
        let control = on_update(&update);
        let done = update.done;
        last = Some(update);
        if control == JobControl::Cancel {
            return Ok(None);
        }
        if done {
            break;
        }
    }

    let last = last.expect("max_rounds >= 1 ran at least one round");
    Ok(Some(FinalUpdate {
        kind: "final".into(),
        schema_version: JOB_SCHEMA_VERSION,
        record: record.clone(),
        result: JobResult {
            rounds: rounds_run,
            estimate: last.estimate,
            rel_half_width: last.rel_half_width,
            converged: last.converged,
            executed_words,
            estimator: estimator_name.to_string(),
            backend: backend_name.to_string(),
        },
    }))
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
        let mut detect = JobSpec::quick();
        detect.circuit = CircuitSpec::DetectAdder {
            width: 4,
            kind: AdderKind::Cla,
            mode: TrialMode::Detected,
        };
        detect.noise = NoiseSpec::Uniform { g: 2e-3 };
        detect.trials_per_round = 2048;
        detect.max_rounds = 3;

        for spec in [plain, level2, cycle, detect] {
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

    /// Final lines of three jobs whose backend reports `"scalar"`.
    const PLAIN_SCALAR: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Concat":{"level":1,"gate":{"Toffoli":{"controls":[0,1],"target":2}},"cycles":1}},"noise":{"Uniform":{"g":0.006060606060606061}},"seed":2005,"estimator":"Plain","backend":"Scalar","width":"Auto","trials_per_round":4096,"max_rounds":2,"target_rel_half_width":null}},"result":{"rounds":2,"estimate":{"failures":0,"trials":8192,"rate":0.0,"low":0.0,"high":0.0004687082956117048},"rel_half_width":null,"converged":false,"executed_words":128,"estimator":"plain","backend":"scalar"}}"#;
    const AUTO_BELOW_THRESHOLD: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Concat":{"level":1,"gate":{"Toffoli":{"controls":[0,1],"target":2}},"cycles":1}},"noise":{"Uniform":{"g":0.02}},"seed":2005,"estimator":"Plain","backend":"Auto","width":"Auto","trials_per_round":100,"max_rounds":3,"target_rel_half_width":null}},"result":{"rounds":3,"estimate":{"failures":0,"trials":300,"rate":0.0,"low":8.563957083229338e-19,"high":0.012642971421476657},"rel_half_width":null,"converged":false,"executed_words":6,"estimator":"plain","backend":"scalar"}}"#;
    const STRATIFIED_SCALAR_CYCLE: &str = r#"{"kind":"final","schema_version":1,"record":{"schema_version":1,"spec":{"circuit":{"Cycle":{"gate":{"Toffoli":{"controls":[0,1],"target":2}}}},"noise":{"Uniform":{"g":0.006060606060606061}},"seed":2005,"estimator":{"Stratified":{"min_faults":1,"strata_cap":4}},"backend":"Scalar","width":"Auto","trials_per_round":1024,"max_rounds":2,"target_rel_half_width":null}},"result":{"rounds":2,"estimate":{"failures":180,"trials":2048,"rate":0.0005363520733680323,"low":0.0005363520733680323,"high":0.0016526089448472767},"rel_half_width":1.040600872920738,"converged":false,"executed_words":32,"estimator":"stratified","backend":"scalar"}}"#;

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
