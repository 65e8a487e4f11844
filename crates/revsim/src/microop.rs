//! Compiled micro-op IR: linear-segment fusion with exact GF(2) fault
//! propagation, and the wide-word executor built on it.
//!
//! The engine's word loops used to execute the *raw* flattened [`Op`]
//! stream one gate at a time — one enum dispatch, one support lookup and
//! one plane read-modify-write bundle per operation per 64-lane word.
//! This module lowers the stream once, at compile time, into a micro-op
//! program:
//!
//! - **Native micro-ops** — nonlinear gates (Toffoli, Fredkin, MAJ,
//!   MAJ⁻¹) and unfused linear ops, executed by the branch-free plane
//!   kernels, now over *wide words* (`[u64; W]`, `W ∈ {1, 2, 4}`: `W`
//!   consecutive 64-lane logical words in the flat wire-major layout, so
//!   the element-wise logic autovectorizes).
//! - **Affine segments** — maximal runs of ops that act *affinely over
//!   GF(2)* fused into a single transform: per touched wire one
//!   XOR-of-inputs mask plus a constant bit, applied in one pass however
//!   many original ops the run covers. Two kinds of op qualify:
//!   - gates that are affine for **all** inputs — NOT, CNOT, SWAP, SWAP3
//!     (any wire permutation) and ancilla INIT (the constant-zero map);
//!   - gates that become affine **on the segment's ideal trajectory** —
//!     a MAJ⁻¹ whose `b`/`c` inputs are known constants at that point
//!     (e.g. freshly initialized ancillas, where `MAJ⁻¹(a,0,0)` is the
//!     repetition-code fan-out `b ← a, c ← a`), and the mirror-image
//!     constant-input MAJ. This is the invariant-preserving
//!     specialization of reversible-circuit transformation: the compile
//!     pass tracks each wire's symbolic affine value and specializes
//!     where it proves the inputs constant.
//!
//! # Schedule, then execute
//!
//! Every group of `W` words runs in two phases.
//!
//! 1. **Fill** (`ExecScratch`): a flat fault table holds, per
//!    `(op, word)`, the fault mask and the random planes a fault
//!    consumes. All of a word's randomness is drawn here, from its own
//!    RNG, lane-major: one routine places each chosen lane's faults
//!    (its count, then the exact conditional placement) straight into
//!    the table, and the word then draws the planes of its faulted ops
//!    in op order. A plain word chooses the lanes with any fault (one
//!    64-lane draw at `P(K ≥ 1)`) and draws each a count `K | K ≥ 1`; a
//!    stratified word takes every lane and its stratum's count. So the
//!    cost is O(64 + faults) per word, not O(ops). An external schedule
//!    is copied in and its planes drawn the same way. The table — and
//!    every estimate — is the same at any width.
//! 2. **Execute** (`execute`): the program runs against the table and
//!    draws nothing. A native op runs its wide kernel, then a blend that
//!    is branch-free across the `W` words (lanes under the mask take the
//!    table's planes); below 3 in 10 faulted ops, ops clean in every
//!    word skip it. A segment clean in every word takes the one-pass
//!    affine transform; a dirty one patches or replays, reading the
//!    table.
//!
//! # Exact fault semantics inside a fused segment
//!
//! Fusion must not change fault behaviour *bit for bit*: every original
//! op inside a segment keeps its fault site, its entry in the fault
//! table, and its action (the op does not execute; its support is
//! replaced by uniform random bits). Segments restore exactness under
//! faults in one of two ways, chosen at compile time:
//!
//! **Patch segments** (every op affine for all inputs). The segment
//! carries, per site, a precomputed propagation pair derived from the
//! suffix transform `Suf_t` (the composition of the segment ops after
//! `t`): a *gather row* per support wire — the row of `Suf_t⁻¹`,
//! expressing the would-be ideal post-op value as an XOR of **boundary**
//! values (+ constant) — and a *scatter mask* per support wire — the
//! column of `Suf_t`, i.e. which boundary wires an injected flip
//! reaches. Execution maintains the *projected boundary* `B`: the planes
//! the segment would end with given the faults processed so far. `B`
//! starts as the fused ideal transform of the inputs and is invariant
//! under ideal evolution, so it only changes at fault sites. At a site
//! with fault mask `f` and random planes `r`, the would-be ideal post-op
//! support values are `v = Suf_t⁻¹(B)` (gather — exact even under
//! earlier faults in the same word, because `B` already reflects them),
//! the injected XOR difference is `d = (r ⊕ v) & f`, and the update is
//! `B ⊕= Suf_t · d` (scatter). Replaying sites in op order lands every
//! fault at the segment boundary bit-identically to unfused execution.
//! Gather rows require an invertible suffix; INIT is not invertible, but
//! a fault *at* an INIT needs no gather (the would-be output is the
//! constant 0, so `d = r & f`), and a fault *before* an INIT whose
//! gather would need a destroyed value is detected at compile time,
//! truncating the segment there.
//!
//! **Replay segments** (at least one constant-specialized MAJ/MAJ⁻¹).
//! The specialization holds only on the ideal trajectory, which a fault
//! leaves — so a group with any fault in the segment re-executes the
//! original ops natively (wide kernel, then the blend) against the
//! table, which *is* unfused execution. Fault-free groups (the common
//! case deep below threshold) still take the one-pass affine transform.
//!
//! Both modes are pinned lane-for-lane against the raw loop by the
//! property tests in `tests/microop_fusion.rs`. Fusion also falls back
//! to native execution when the fused rows would cost more XORs than
//! the raw ops, so fusing never loses throughput.
//!
//! The compile pass reports what it did via [`CompileStats`] (op counts
//! before/after, fused-segment histogram), exposed as
//! [`Engine::compile_stats`](crate::engine::Engine::compile_stats) — CI
//! asserts on it so fusion cannot silently regress to the raw stream.

use crate::batch::{kernels, BatchExecReport, BatchState};
use crate::circuit::Circuit;
use crate::engine::{fill_fault_planes, FaultTable};
use crate::gate::Gate;
use crate::op::Op;
use crate::wire::{Support, Wire};
use rand::rngs::SmallRng;

/// Largest wire count a single affine segment may touch (row, gather and
/// scatter masks are single `u64` bit sets over the segment's wires).
const MAX_SEGMENT_WIRES: usize = 64;

/// A fused segment is kept only when its fast-path XOR/store cost does
/// not exceed `FUSE_COST_FACTOR ×` the raw per-op plane-op cost.
const FUSE_COST_FACTOR: usize = 2;

/// Constant-specialized (replay-mode) segments are only worth it when a
/// 64-lane word clears the whole segment fault-free often enough for the
/// one-pass affine fast path to pay for the occasional native replay.
/// Above this per-word fault probability the sampled path would replay
/// almost always, so the scan retries without specialization.
const REPLAY_MAX_WORD_FAULT: f64 = 0.5;

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

/// One step of the compiled program.
#[derive(Debug, Clone)]
pub(crate) enum MicroOp {
    /// An op executed by its native kernel (nonlinear in context, or not
    /// worth fusing).
    Native(NativeOp),
    /// A fused run of (contextually) affine ops, by index into the
    /// segment pool ([`CompiledOps::segments`] — contiguous storage, no
    /// per-segment pointer chase).
    Affine(u32),
}

/// A native micro-op: the original op plus its fault-table row.
#[derive(Debug, Clone)]
pub(crate) struct NativeOp {
    /// The original operation (drives the shared plane kernels).
    pub op: Op,
    /// Index of the op in the original stream (its fault site).
    pub op_index: u32,
    /// `op.support()`, resolved once for the blend.
    pub support: Support,
}

/// One output row of a fused segment: `out = XOR(inputs in mask) ⊕ konst`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// Bit set over the segment's wire positions (pre-segment values).
    pub mask: u64,
    /// Affine constant (NOT gates fold in here).
    pub konst: bool,
    /// Row is the identity on its own wire — the fast path skips it.
    pub identity: bool,
}

/// A gather row: a value expressed over the segment's *boundary* planes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gather {
    /// Bit set over the segment's wire positions (boundary values).
    pub mask: u64,
    /// Affine constant.
    pub konst: bool,
}

/// The fault bookkeeping of one original op inside a fused segment.
#[derive(Debug, Clone)]
pub(crate) struct FaultSite {
    /// Index of the op in the original stream.
    pub op_index: u32,
    /// Support size (how many random planes a fault consumes).
    pub arity: u8,
    /// Per support wire: the would-be ideal post-op value as a function
    /// of the boundary (`Suf_t⁻¹` rows; patch mode only).
    pub gathers: [Gather; 4],
    /// Per support wire: boundary wires an injected flip reaches
    /// (`Suf_t` columns; patch mode only).
    pub scatters: [u64; 4],
}

/// How a segment restores exact fault semantics (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum FaultMode {
    /// Every op is affine for all inputs: faults are pushed to the
    /// boundary through the per-site gather/scatter pairs.
    Patch,
    /// Contains constant-specialized MAJ/MAJ⁻¹ ops: a faulted word
    /// restores its input snapshot and replays these original ops
    /// natively.
    Replay(Vec<Op>),
}

/// A fused run of (contextually) affine ops.
#[derive(Debug, Clone)]
pub(crate) struct AffineSegment {
    /// First original op covered (the segment covers `start ..
    /// start + sites.len()` — fused runs are contiguous in the stream).
    pub start: u32,
    /// Wires the segment touches, in first-touch order (≤ 64).
    pub wires: Vec<u32>,
    /// One output row per touched wire (same order as `wires`).
    pub rows: Vec<Row>,
    /// Positions whose input planes the fast path must snapshot: the
    /// union of the non-identity row masks (everything else stays
    /// readable from the batch — identity rows are never written, and a
    /// faulted replay word never takes the fast path at all).
    pub snap_mask: u64,
    /// One fault site per original op in the run, in op order.
    pub sites: Vec<FaultSite>,
    /// Fault strategy.
    pub mode: FaultMode,
}

/// The compiled program: the micro-op stream plus its compile-pass stats.
#[derive(Debug, Clone)]
pub(crate) struct CompiledOps {
    pub micro: Vec<MicroOp>,
    /// Fused segments, in stream order ([`MicroOp::Affine`] indexes).
    pub segments: Vec<AffineSegment>,
    pub stats: CompileStats,
}

impl CompiledOps {
    /// Approximate heap footprint (size input of cache eviction).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<CompiledOps>() + self.micro.len() * size_of::<MicroOp>();
        for seg in &self.segments {
            bytes += size_of::<AffineSegment>()
                + seg.wires.len() * size_of::<u32>()
                + seg.rows.len() * size_of::<Row>()
                + seg.sites.len() * size_of::<FaultSite>();
        }
        bytes
    }
}

/// What the fusion pass did to one op stream — exposed on the compiled
/// artifact via
/// [`Engine::compile_stats`](crate::engine::Engine::compile_stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Operations in the original flattened stream.
    pub ops: usize,
    /// Micro-ops after fusion (native ops + fused segments).
    pub micro_ops: usize,
    /// Fused segments emitted (each covering ≥ 2 original ops).
    pub fused_segments: usize,
    /// Original ops covered by fused segments.
    pub fused_ops: usize,
    /// MAJ/MAJ⁻¹ ops specialized to affine form by the known-constant
    /// invariant (a subset of `fused_ops`).
    pub specialized_ops: usize,
    /// Length (in original ops) of the longest fused segment.
    pub max_segment_len: usize,
    /// Histogram of fused-segment lengths: `(length, count)`, ascending.
    pub segment_len_hist: Vec<(usize, usize)>,
}

impl CompileStats {
    fn record_segment(&mut self, len: usize, specialized: usize) {
        self.fused_segments += 1;
        self.fused_ops += len;
        self.specialized_ops += specialized;
        self.max_segment_len = self.max_segment_len.max(len);
        match self
            .segment_len_hist
            .binary_search_by_key(&len, |&(l, _)| l)
        {
            Ok(i) => self.segment_len_hist[i].1 += 1,
            Err(i) => self.segment_len_hist.insert(i, (len, 1)),
        }
    }
}

// ---------------------------------------------------------------------------
// Compile pass
// ---------------------------------------------------------------------------

/// Whether `op` is affine over GF(2) for **all** inputs.
fn is_always_affine(op: &Op) -> bool {
    match op {
        Op::Init(_) => true,
        Op::Gate(g) => matches!(
            g,
            Gate::Not(_) | Gate::Cnot { .. } | Gate::Swap(..) | Gate::Swap3(..) | Gate::F2g(..)
        ),
    }
}

/// Lowers the flattened op stream into the micro-op program.
pub(crate) fn compile(circuit: &Circuit, table: &FaultTable) -> CompiledOps {
    let ops = circuit.ops();
    let mut stats = CompileStats {
        ops: ops.len(),
        ..CompileStats::default()
    };
    let mut micro = Vec::with_capacity(ops.len());
    let mut segments = Vec::new();
    let mut pos_of = vec![u8::MAX; circuit.n_wires()];
    let mut i = 0usize;
    while i < ops.len() {
        match scan_segment(ops, table, i, &mut pos_of) {
            Some((seg, end, specialized)) => {
                stats.record_segment(end - i, specialized);
                micro.push(MicroOp::Affine(segments.len() as u32));
                segments.push(seg);
                i = end;
            }
            None => {
                micro.push(MicroOp::Native(NativeOp {
                    op: ops[i],
                    op_index: i as u32,
                    support: ops[i].support(),
                }));
                i += 1;
            }
        }
    }
    stats.micro_ops = micro.len();
    CompiledOps {
        micro,
        segments,
        stats,
    }
}

/// A symbolic affine value: XOR of wire positions plus a constant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Sym {
    mask: u64,
    konst: bool,
}

impl Sym {
    fn unit(pos: usize) -> Sym {
        Sym {
            mask: 1u64 << pos,
            konst: false,
        }
    }

    fn konst(value: bool) -> Sym {
        Sym {
            mask: 0,
            konst: value,
        }
    }

    fn is_const(&self) -> bool {
        self.mask == 0
    }

    fn xor_in(&mut self, other: Sym) {
        self.mask ^= other.mask;
        self.konst ^= other.konst;
    }
}

/// One forward symbolic scan: the segment state while growing a run.
struct Scan {
    wires: Vec<u32>,
    /// Symbolic value per position, over the pre-segment values.
    s: Vec<Sym>,
    /// Whether any op was constant-specialized (forces replay mode).
    specialized: usize,
    /// Whether MAJ/MAJ⁻¹ specialization is allowed on this attempt.
    allow_spec: bool,
}

impl Scan {
    fn new(allow_spec: bool) -> Scan {
        Scan {
            wires: Vec::new(),
            s: Vec::new(),
            specialized: 0,
            allow_spec,
        }
    }

    /// Position of `w`, allocating it if unseen. `None` when the segment
    /// is full.
    fn pos(&mut self, pos_of: &mut [u8], w: Wire) -> Option<usize> {
        let wi = w.index();
        if pos_of[wi] != u8::MAX {
            return Some(pos_of[wi] as usize);
        }
        if self.wires.len() == MAX_SEGMENT_WIRES {
            return None;
        }
        pos_of[wi] = self.wires.len() as u8;
        self.wires.push(wi as u32);
        self.s.push(Sym::unit(self.s.len()));
        Some(self.s.len() - 1)
    }

    /// Tries to absorb `op`; `false` leaves the scan state *possibly
    /// extended by fresh wire slots* but symbolically untouched, and the
    /// op outside the segment.
    fn absorb(&mut self, pos_of: &mut [u8], op: &Op) -> bool {
        match op {
            Op::Init(init) => {
                let mut ps = [0usize; 3];
                for (k, &w) in init.wires().iter().enumerate() {
                    match self.pos(pos_of, w) {
                        Some(p) => ps[k] = p,
                        None => return false,
                    }
                }
                for &p in ps.iter().take(init.wires().len()) {
                    self.s[p] = Sym::default();
                }
                true
            }
            Op::Gate(g) => match *g {
                Gate::Not(a) => {
                    let Some(pa) = self.pos(pos_of, a) else {
                        return false;
                    };
                    self.s[pa].konst = !self.s[pa].konst;
                    true
                }
                Gate::Cnot { control, target } => {
                    let (Some(pc), Some(pt)) =
                        (self.pos(pos_of, control), self.pos(pos_of, target))
                    else {
                        return false;
                    };
                    let c = self.s[pc];
                    self.s[pt].xor_in(c);
                    true
                }
                Gate::F2g(a, b, c) => {
                    // Two CNOTs sharing control `a`: b ^= a, c ^= a.
                    let (Some(pa), Some(pb), Some(pc)) = (
                        self.pos(pos_of, a),
                        self.pos(pos_of, b),
                        self.pos(pos_of, c),
                    ) else {
                        return false;
                    };
                    let va = self.s[pa];
                    self.s[pb].xor_in(va);
                    self.s[pc].xor_in(va);
                    true
                }
                Gate::Swap(a, b) => {
                    let (Some(pa), Some(pb)) = (self.pos(pos_of, a), self.pos(pos_of, b)) else {
                        return false;
                    };
                    self.s.swap(pa, pb);
                    true
                }
                Gate::Swap3(a, b, c) => {
                    let (Some(pa), Some(pb), Some(pc)) = (
                        self.pos(pos_of, a),
                        self.pos(pos_of, b),
                        self.pos(pos_of, c),
                    ) else {
                        return false;
                    };
                    // a ← b, b ← c, c ← a.
                    let va = self.s[pa];
                    self.s[pa] = self.s[pb];
                    self.s[pb] = self.s[pc];
                    self.s[pc] = va;
                    true
                }
                Gate::MajInv(a, b, c) => {
                    // MAJ⁻¹: a ^= b & c; b ^= a; c ^= a. Affine on the
                    // ideal trajectory iff b and c are known constants
                    // here (the fan-out `MAJ⁻¹(a, 0, 0) = (a, a, a)` of
                    // freshly initialized ancillas is the common case).
                    if !self.allow_spec {
                        return false;
                    }
                    let (Some(pa), Some(pb), Some(pc)) = (
                        self.pos(pos_of, a),
                        self.pos(pos_of, b),
                        self.pos(pos_of, c),
                    ) else {
                        return false;
                    };
                    if !(self.s[pb].is_const() && self.s[pc].is_const()) {
                        return false;
                    }
                    let and = self.s[pb].konst && self.s[pc].konst;
                    self.s[pa].xor_in(Sym::konst(and));
                    let va = self.s[pa];
                    self.s[pb].xor_in(va);
                    self.s[pc].xor_in(va);
                    self.specialized += 1;
                    true
                }
                Gate::Maj(a, b, c) => {
                    // MAJ: b ^= a; c ^= a; a ^= b & c. Affine on the
                    // ideal trajectory iff the post-XOR b and c are
                    // known constants, i.e. b and c equal a up to a
                    // constant (a clean repetition codeword).
                    if !self.allow_spec {
                        return false;
                    }
                    let (Some(pa), Some(pb), Some(pc)) = (
                        self.pos(pos_of, a),
                        self.pos(pos_of, b),
                        self.pos(pos_of, c),
                    ) else {
                        return false;
                    };
                    let va = self.s[pa];
                    let mut nb = self.s[pb];
                    nb.xor_in(va);
                    let mut nc = self.s[pc];
                    nc.xor_in(va);
                    if !(nb.is_const() && nc.is_const()) {
                        return false;
                    }
                    self.s[pb] = nb;
                    self.s[pc] = nc;
                    self.s[pa].xor_in(Sym::konst(nb.konst && nc.konst));
                    self.specialized += 1;
                    true
                }
                _ => false,
            },
        }
    }
}

/// Scans for a fused segment starting at `start`. Returns the segment,
/// its end (exclusive) and the number of specialized ops, or `None` when
/// no profitable segment of ≥ 2 ops starts here.
///
/// `pos_of` is caller-owned scratch (`u8::MAX`-filled, restored before
/// returning).
fn scan_segment(
    ops: &[Op],
    table: &FaultTable,
    start: usize,
    pos_of: &mut [u8],
) -> Option<(AffineSegment, usize, usize)> {
    // The first op must be a fusion candidate at all.
    if !is_always_affine(&ops[start])
        && !matches!(ops[start], Op::Gate(Gate::Maj(..) | Gate::MajInv(..)))
    {
        return None;
    }
    let mut end = ops.len();
    let mut allow_spec = true;
    // Every exit carries the scan's touched wires out so only those (at
    // most 64) scratch entries need restoring.
    let (touched, result) = loop {
        // Forward symbolic scan over [start, end), shrinking `end` to the
        // first op that cannot join.
        let mut scan = Scan::new(allow_spec);
        let mut k = start;
        while k < end {
            if !scan.absorb(pos_of, &ops[k]) {
                break;
            }
            k += 1;
        }
        end = k;
        if end - start < 2 {
            break (scan.wires, None);
        }
        if scan.specialized > 0 {
            // Specialization only pays when a word usually clears the
            // segment fault-free (the replay slow path is full native
            // re-execution); otherwise retry as a pure-affine scan.
            let p_clean: f64 = ops[start..end]
                .iter()
                .enumerate()
                .map(|(i, _)| (1.0 - table.probs[start + i]).powi(64))
                .product();
            if 1.0 - p_clean > REPLAY_MAX_WORD_FAULT {
                for &w in &scan.wires {
                    pos_of[w as usize] = u8::MAX;
                }
                allow_spec = false;
                end = ops.len();
                continue;
            }
        }
        let rows: Vec<Row> = scan
            .s
            .iter()
            .enumerate()
            .map(|(i, sym)| Row {
                mask: sym.mask,
                konst: sym.konst,
                identity: sym.mask == 1u64 << i && !sym.konst,
            })
            .collect();

        // Cost heuristic: the fused fast path must not out-cost the raw
        // kernels (dense parity rows can).
        let fused_cost: usize = rows
            .iter()
            .filter(|r| !r.identity)
            .map(|r| r.mask.count_ones() as usize + 1)
            .sum();
        let native_cost: usize = ops[start..end].iter().map(|op| 2 * op.arity()).sum();
        if fused_cost > FUSE_COST_FACTOR * native_cost {
            break (scan.wires, None);
        }

        let mut sites: Vec<FaultSite> = ops[start..end]
            .iter()
            .enumerate()
            .map(|(i, op)| FaultSite {
                op_index: (start + i) as u32,
                arity: op.arity() as u8,
                gathers: [Gather::default(); 4],
                scatters: [0u64; 4],
            })
            .collect();

        // The fast path reads exactly the union of the non-identity row
        // masks; everything else stays readable from the batch (identity
        // rows are never written, and replay words defer their writes).
        let snap_mask = rows
            .iter()
            .filter(|r| !r.identity)
            .fold(0u64, |m, r| m | r.mask);

        if scan.specialized > 0 {
            // Replay mode: faulted words re-execute the original ops.
            let seg = AffineSegment {
                start: start as u32,
                wires: scan.wires.clone(),
                rows,
                snap_mask,
                sites,
                mode: FaultMode::Replay(ops[start..end].to_vec()),
            };
            break (scan.wires, Some((seg, end, scan.specialized)));
        }

        // Patch mode: backward pass for the per-site gather rows
        // (`Suf_t⁻¹`) and scatter columns (`Suf_t`). `v[p] = None` marks
        // a value a later INIT destroyed; hitting one at a site
        // truncates the segment right before that INIT and rescans.
        match backward_pass(ops, start, end, scan.wires.len(), pos_of, &mut sites) {
            Ok(()) => {
                let seg = AffineSegment {
                    start: start as u32,
                    wires: scan.wires.clone(),
                    rows,
                    snap_mask,
                    sites,
                    mode: FaultMode::Patch,
                };
                break (scan.wires, Some((seg, end, 0)));
            }
            Err(truncate_at) => {
                debug_assert!(start < truncate_at && truncate_at < end);
                for &w in &scan.wires {
                    pos_of[w as usize] = u8::MAX;
                }
                end = truncate_at;
                continue;
            }
        }
    };
    // Restore exactly the scratch entries this scan allocated.
    for &w in &touched {
        pos_of[w as usize] = u8::MAX;
    }
    result
}

/// Fills the gather/scatter pairs of `sites` by walking `[start, end)`
/// backwards. Returns `Err(u)` when a fault site's gather row needs a
/// value the INIT at op `u` destroys (caller truncates the run at `u`).
fn backward_pass(
    ops: &[Op],
    start: usize,
    end: usize,
    npos: usize,
    pos_of: &mut [u8],
    sites: &mut [FaultSite],
) -> Result<(), usize> {
    let mut v: Vec<Option<Sym>> = (0..npos).map(|p| Some(Sym::unit(p))).collect();
    let mut c: Vec<u64> = (0..npos).map(|p| 1u64 << p).collect();
    let mut none_src: Vec<usize> = vec![usize::MAX; npos];
    let pos = |pos_of: &[u8], w: Wire| pos_of[w.index()] as usize;
    for t in (start..end).rev() {
        let op = &ops[t];
        let support = op.support();
        let sup = support.as_slice();
        let site = &mut sites[t - start];
        for (k, &w) in sup.iter().enumerate() {
            let p = pos(pos_of, w);
            site.scatters[k] = c[p];
            if matches!(op, Op::Init(_)) {
                // The would-be ideal output of a faulted INIT is the
                // constant 0 — no boundary dependence, no gather needed.
                site.gathers[k] = Gather::default();
            } else {
                match v[p] {
                    Some(sym) => {
                        site.gathers[k] = Gather {
                            mask: sym.mask,
                            konst: sym.konst,
                        }
                    }
                    None => return Err(none_src[p]),
                }
            }
        }
        // Un-apply op t: V ← A_t⁻¹ ∘ V, C ← C ∘ A_t.
        match op {
            Op::Init(init) => {
                for &w in init.wires() {
                    let p = pos(pos_of, w);
                    v[p] = None;
                    none_src[p] = t;
                    c[p] = 0;
                }
            }
            Op::Gate(g) => match *g {
                Gate::Not(a) => {
                    if let Some(sym) = v[pos(pos_of, a)].as_mut() {
                        sym.konst = !sym.konst;
                    }
                }
                Gate::Cnot { control, target } => {
                    let (pc, pt) = (pos(pos_of, control), pos(pos_of, target));
                    v[pt] = match (v[pt], v[pc]) {
                        (Some(mut vt), Some(vc)) => {
                            vt.xor_in(vc);
                            Some(vt)
                        }
                        _ => {
                            if v[pt].is_some() {
                                none_src[pt] = none_src[pc];
                            }
                            None
                        }
                    };
                    c[pc] ^= c[pt];
                }
                Gate::F2g(a, b, c3) => {
                    // Un-apply b ^= a and c ^= a (self-inverse): two CNOT
                    // inversions sharing the control column.
                    let pa = pos(pos_of, a);
                    for pt in [pos(pos_of, b), pos(pos_of, c3)] {
                        v[pt] = match (v[pt], v[pa]) {
                            (Some(mut vt), Some(vc)) => {
                                vt.xor_in(vc);
                                Some(vt)
                            }
                            _ => {
                                if v[pt].is_some() {
                                    none_src[pt] = none_src[pa];
                                }
                                None
                            }
                        };
                        c[pa] ^= c[pt];
                    }
                }
                Gate::Swap(a, b) => {
                    let (pa, pb) = (pos(pos_of, a), pos(pos_of, b));
                    v.swap(pa, pb);
                    c.swap(pa, pb);
                    none_src.swap(pa, pb);
                }
                Gate::Swap3(a, b, c3) => {
                    // Forward: a ← b, b ← c, c ← a. Inverse: old_a =
                    // new_c, old_b = new_a, old_c = new_b.
                    let (pa, pb, pc) = (pos(pos_of, a), pos(pos_of, b), pos(pos_of, c3));
                    let va = v[pa];
                    v[pa] = v[pc];
                    let vb = v[pb];
                    v[pb] = va;
                    v[pc] = vb;
                    let ca = c[pa];
                    c[pa] = c[pc];
                    let cb = c[pb];
                    c[pb] = ca;
                    c[pc] = cb;
                    let na = none_src[pa];
                    none_src[pa] = none_src[pc];
                    let nb = none_src[pb];
                    none_src[pb] = na;
                    none_src[pc] = nb;
                }
                _ => unreachable!("non-affine gate in patch-mode segment"),
            },
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schedule, then execute
// ---------------------------------------------------------------------------

/// Reusable buffers of one thread's word loop: the flat fault table of
/// the current group of `W` words (filled by phase 1, read by
/// [`execute`]) plus the segment buffers of phase 2.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    /// `W` of the current group.
    width: usize,
    /// Words per op bit set in `touched` (`n_ops / 64` rounded up).
    stride: usize,
    /// `masks[i * W + w]`: lanes in which op `i` faults in word `w`.
    masks: Vec<u64>,
    /// `planes[(i * 4 + k) * W + w]`: the random plane support wire `k`
    /// of op `i` takes in word `w`. Read only under its mask — a zero
    /// mask discards it — so it is written where a fault lands and never
    /// cleared.
    planes: Vec<u64>,
    /// Per word, a bit set over ops with a nonzero mask (`stride` words
    /// each): the op-order walk of the plane draws.
    touched: Vec<u64>,
    /// Bit set over ops with a nonzero mask in any word of the group:
    /// its density picks the blend (see [`execute`]).
    faulted_ops: Vec<u64>,
    /// Per word: lanes with at least one fault.
    faulted: [u64; 4],
    /// `(op, lane)` fault events over the group.
    pub(crate) fault_events: u64,
    /// Snapshot of the segment's input planes (flat: `position * W + w`).
    inp: Vec<u64>,
    /// Projected boundary planes (flat, same layout).
    boundary: Vec<u64>,
    /// Rejection-sampling buffer of the lane-major placement.
    pub(crate) picks: Vec<usize>,
}

impl ExecScratch {
    /// Sizes the table for `n_ops` ops of `width` words and clears it —
    /// the masks only if `zero_masks` (a copied-in schedule that writes
    /// every slot passes `false`).
    pub(crate) fn begin(&mut self, n_ops: usize, width: usize, zero_masks: bool) {
        self.width = width;
        self.stride = n_ops.div_ceil(64);
        if zero_masks {
            self.masks.clear();
        }
        self.masks.resize(n_ops * width, 0);
        self.planes.resize(n_ops * 4 * width, 0);
        self.touched.clear();
        self.touched.resize(self.stride * width, 0);
        self.faulted_ops.clear();
        self.faulted_ops.resize(self.stride, 0);
        self.faulted = [0; 4];
        self.fault_events = 0;
    }

    /// The fault masks, `masks[i * W + w]`.
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Schedules a fault of op `i` in `lane` of word `w`; `false` (and
    /// no change) when that `(op, lane)` already faults. The caller
    /// tallies its placements into [`ExecScratch::tally`].
    #[inline]
    pub(crate) fn place(&mut self, i: u32, w: usize, lane: u32) -> bool {
        let i = i as usize;
        let bit = 1u64 << lane;
        let mask = &mut self.masks[i * self.width + w];
        if *mask & bit != 0 {
            return false;
        }
        *mask |= bit;
        self.touched[w * self.stride + i / 64] |= 1u64 << (i % 64);
        self.faulted_ops[i / 64] |= 1u64 << (i % 64);
        true
    }

    /// Records that word `w` holds `events` placed faults in `faulted`.
    pub(crate) fn tally(&mut self, w: usize, events: u64, faulted: u64) {
        self.fault_events += events;
        self.faulted[w] |= faulted;
    }

    /// Phase 1 for a precomputed schedule in the flat wide layout
    /// `masks[i * W + w]`: copies it into the table, then draws word
    /// `w`'s planes in op order from `rngs[w]`.
    pub(crate) fn load_schedule(&mut self, masks: &[u64], arity: &[u8], rngs: &mut [SmallRng]) {
        self.begin(arity.len(), rngs.len(), false);
        self.masks.copy_from_slice(masks);
        for (i, row) in masks.chunks_exact(self.width).enumerate() {
            if row.iter().fold(0u64, |a, &m| a | m) == 0 {
                continue;
            }
            self.faulted_ops[i / 64] |= 1u64 << (i % 64);
            for (w, &mask) in row.iter().enumerate() {
                if mask != 0 {
                    self.touched[w * self.stride + i / 64] |= 1u64 << (i % 64);
                    self.tally(w, u64::from(mask.count_ones()), mask);
                }
            }
        }
        for (w, rng) in rngs.iter_mut().enumerate() {
            self.draw_planes(arity, w, rng);
        }
    }

    /// Draws word `w`'s random planes for its scheduled faults, in op
    /// order, via the shared sparse [`fill_fault_planes`] schedule.
    #[inline]
    pub(crate) fn draw_planes(&mut self, arity: &[u8], w: usize, rng: &mut SmallRng) {
        for chunk in 0..self.stride {
            let mut bits = self.touched[w * self.stride + chunk];
            while bits != 0 {
                let i = chunk * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (mask, mut planes) = (self.masks[i * self.width + w], [0u64; 4]);
                fill_fault_planes(arity[i] as usize, mask, rng, &mut planes);
                for (k, plane) in planes.into_iter().enumerate() {
                    self.planes[(i * 4 + k) * self.width + w] = plane;
                }
            }
        }
    }
}

impl<const W: usize> From<WideOutcome<W>> for BatchExecReport {
    fn from(out: WideOutcome<W>) -> Self {
        BatchExecReport {
            fault_events: out.fault_events,
            faulted_lanes: out.faulted.to_vec(),
        }
    }
}

/// Per-word outcome of a wide run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WideOutcome<const W: usize> {
    /// Per logical word: lanes that experienced at least one fault.
    pub faulted: [u64; W],
    /// Total `(op, lane)` fault events across all `W` words.
    pub fault_events: u64,
    /// Segment executions that stayed on the affine fast path (clean
    /// one-pass transform or exact-propagation patch). Plain tallies —
    /// the engine folds them into its instrumentation outside the loop.
    pub fused_segments: u64,
    /// Segment executions that fell back to native replay of the
    /// original ops.
    pub replayed_segments: u64,
}

/// Phase 2: runs the compiled program over a `W`-word wide batch against
/// the fault table phase 1 filled, drawing nothing. Native ops run the
/// wide kernel, then the unconditional masked blend; a clean segment
/// takes the one-pass affine transform; a dirty one patches its
/// boundary or replays its ops natively, reading the same table.
pub(crate) fn execute<const W: usize>(
    compiled: &CompiledOps,
    batch: &mut BatchState,
    scratch: &mut ExecScratch,
) -> WideOutcome<W> {
    debug_assert_eq!(scratch.width, W);
    let mut out = WideOutcome {
        faulted: std::array::from_fn(|w| scratch.faulted[w]),
        fault_events: scratch.fault_events,
        fused_segments: 0,
        replayed_segments: 0,
    };
    // Skipping ops clean in every word pays while few ops fault; from
    // about 3 in 10 the test mispredicts more than blending them all
    // costs (BENCH_NOTES: blend density sweep).
    let faulted_ops: u32 = scratch.faulted_ops.iter().map(|b| b.count_ones()).sum();
    let all = 10 * faulted_ops as usize >= 3 * scratch.masks.len() / W;
    for mop in &compiled.micro {
        match mop {
            MicroOp::Native(nat) => {
                kernels::apply_wide::<W>(batch, &nat.op);
                let i = nat.op_index as usize;
                blend::<W>(batch, &nat.support, i, all, &scratch.masks, &scratch.planes);
            }
            MicroOp::Affine(seg) => {
                let seg = &compiled.segments[*seg as usize];
                // Fused runs cover consecutive ops: one contiguous pass
                // over the table tells a clean segment.
                let lo = seg.start as usize * W;
                let hi = lo + seg.sites.len() * W;
                let dirty = scratch.masks[lo..hi].iter().fold(0u64, |a, &m| a | m) != 0;
                match &seg.mode {
                    FaultMode::Replay(ops) if dirty => {
                        // A faulted word left the ideal trajectory the
                        // specialization assumed: re-execute the original
                        // ops natively — that *is* unfused execution. The
                        // batch still holds the pre-segment planes.
                        out.replayed_segments += 1;
                        for (site, op) in seg.sites.iter().zip(ops) {
                            kernels::apply_wide::<W>(batch, op);
                            let i = site.op_index as usize;
                            blend::<W>(
                                batch,
                                &op.support(),
                                i,
                                all,
                                &scratch.masks,
                                &scratch.planes,
                            );
                        }
                    }
                    _ => {
                        out.fused_segments += 1;
                        apply_segment::<W>(seg, dirty, batch, scratch);
                    }
                }
            }
        }
    }
    out
}

/// The fault action of op `i` after its ideal wide kernel: lanes in the
/// table's mask take the table's random planes, the rest keep the
/// kernel output. Branch-free across the `W` words (a zero mask leaves
/// the planes as they are); unless `all`, an op clean in every word
/// skips it.
#[inline]
fn blend<const W: usize>(
    batch: &mut BatchState,
    support: &Support,
    i: usize,
    all: bool,
    masks: &[u64],
    planes: &[u64],
) {
    let masks = &masks[i * W..(i + 1) * W];
    if !all && masks.iter().fold(0u64, |a, &m| a | m) == 0 {
        return;
    }
    for (k, &wire) in support.as_slice().iter().enumerate() {
        let rand = &planes[(i * 4 + k) * W..(i * 4 + k + 1) * W];
        let mut v = batch.wide::<W>(wire);
        for ((x, &m), &r) in v.iter_mut().zip(masks).zip(rand) {
            *x = (*x & !m) | (r & m);
        }
        batch.set_wide(wire, v);
    }
}

/// Applies one patch segment, or the fast path of a clean replay
/// segment: the one-pass affine transform, then — when `dirty` — the
/// gather → inject → scatter patch of every faulted site in op order.
fn apply_segment<const W: usize>(
    seg: &AffineSegment,
    dirty: bool,
    batch: &mut BatchState,
    scratch: &mut ExecScratch,
) {
    let n = seg.wires.len();
    snapshot::<W>(seg, batch, scratch);
    if !dirty {
        // Fast path: emit the non-identity rows straight into the batch
        // (the snapshot keeps the planes they read).
        for (p, row) in seg.rows.iter().enumerate() {
            if row.identity {
                continue;
            }
            let acc = eval_row::<W>(row.mask, row.konst, &scratch.inp);
            batch.set_wide(Wire::new(seg.wires[p]), acc);
        }
        return;
    }
    // Materialize the projected boundary for every wire, patch it per
    // faulted site, then store it back. Identity rows read their (still
    // unwritten) planes directly.
    scratch.boundary.resize(n * W, 0);
    for (p, row) in seg.rows.iter().enumerate() {
        let acc = if row.identity {
            batch.wide::<W>(Wire::new(seg.wires[p]))
        } else {
            eval_row::<W>(row.mask, row.konst, &scratch.inp)
        };
        scratch.boundary[p * W..(p + 1) * W].copy_from_slice(&acc);
    }
    for site in &seg.sites {
        let i = site.op_index as usize;
        let masks = &scratch.masks[i * W..(i + 1) * W];
        if masks.iter().fold(0u64, |a, &m| a | m) == 0 {
            continue;
        }
        // Gather every would-be ideal value before scattering any
        // delta: within one site they are all defined pre-fault. Words
        // are independent columns, so a site patches all `W` at once.
        let mut d = [[0u64; W]; 4];
        for (k, dk) in d.iter_mut().enumerate().take(site.arity as usize) {
            let g = &site.gathers[k];
            let mut val = [if g.konst { u64::MAX } else { 0 }; W];
            let mut gm = g.mask;
            while gm != 0 {
                let p = gm.trailing_zeros() as usize;
                gm &= gm - 1;
                for (v, &b) in val.iter_mut().zip(&scratch.boundary[p * W..(p + 1) * W]) {
                    *v ^= b;
                }
            }
            let rand = &scratch.planes[(i * 4 + k) * W..(i * 4 + k + 1) * W];
            for (w, x) in dk.iter_mut().enumerate() {
                *x = (rand[w] ^ val[w]) & masks[w];
            }
        }
        for (k, dk) in d.iter().enumerate().take(site.arity as usize) {
            let mut sm = site.scatters[k];
            while sm != 0 {
                let p = sm.trailing_zeros() as usize;
                sm &= sm - 1;
                for (b, &x) in scratch.boundary[p * W..(p + 1) * W].iter_mut().zip(dk) {
                    *b ^= x;
                }
            }
        }
    }
    for (p, &wi) in seg.wires.iter().enumerate() {
        let mut v = [0u64; W];
        v.copy_from_slice(&scratch.boundary[p * W..(p + 1) * W]);
        batch.set_wide(Wire::new(wi), v);
    }
}

/// Snapshots the input planes in `seg.snap_mask` (the union of the
/// non-identity row masks) into `scratch.inp`.
#[inline]
fn snapshot<const W: usize>(seg: &AffineSegment, batch: &BatchState, scratch: &mut ExecScratch) {
    scratch.inp.resize(seg.wires.len() * W, 0);
    let mut m = seg.snap_mask;
    while m != 0 {
        let p = m.trailing_zeros() as usize;
        m &= m - 1;
        let v = batch.wide::<W>(Wire::new(seg.wires[p]));
        scratch.inp[p * W..(p + 1) * W].copy_from_slice(&v);
    }
}

/// Evaluates one affine row over the flat input snapshot.
#[inline]
fn eval_row<const W: usize>(mask: u64, konst: bool, inp: &[u64]) -> [u64; W] {
    let mut acc = if konst { [u64::MAX; W] } else { [0u64; W] };
    let mut m = mask;
    while m != 0 {
        let p = m.trailing_zeros() as usize;
        m &= m - 1;
        for (a, &x) in acc.iter_mut().zip(&inp[p * W..(p + 1) * W]) {
            *a ^= x;
        }
    }
    acc
}
