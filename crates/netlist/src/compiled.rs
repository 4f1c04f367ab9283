//! Compiled, bit-parallel simulation backend over K-word lane blocks.
//!
//! [`CompiledSim`] executes the flat op stream produced by
//! [`crate::level::Program`]: each net's value is a *lane block* of
//! `lane_words` contiguous `u64` words (word-major SoA, lane `l` lives in
//! word `l / 64`, bit `l % 64`), so AND/OR/XOR/NOT/MUX settle up to
//! [`MAX_TOTAL_LANES`] independent input vectors per eval as straight-line
//! loops over K contiguous words — loops the compiler autovectorizes. The
//! common K = 1 and K = 4 block widths dispatch to monomorphized fast
//! paths; other widths run the same kernel with a runtime word count.
//! Toggle counting stays exact — `popcount((old ^ new) & mask[w])` summed
//! over the words of the block accumulates per-net switching over the
//! active lanes, so [`SimBackend::average_activity`] feeds the `flexic`
//! power model the same α it would get from `lanes` interpreted runs.
//!
//! With `lanes == 1` the backend is a drop-in replacement for the
//! interpreted [`crate::sim::Sim`] (same values, same toggle counts, same
//! cycle semantics) that trades a one-time compile for a much tighter,
//! branch-predictable eval loop.
//!
//! # Event-driven evaluation
//!
//! By default ([`EvalMode::Auto`]) `eval` is *activity-gated*: the
//! simulator tracks whether any input/FF word was dirtied since the last
//! settle and keeps one dirty-op bitset over op indices. Level 0 runs
//! whole when inputs or FFs are dirty; every op whose destination word
//! changes (the `diff != 0` toggle test computes this for free) marks its
//! readers in the bitset, using the program's fanout map
//! ([`Fanout::readers`]). Ops are stored level-major and a reader always
//! sits at a higher index than the ops it reads, so one forward
//! pop-lowest-bit pass over the bitset runs every dirty op exactly once,
//! in a valid order, and leaves the bitset empty. Skipping is bit-exact:
//! an op none of whose operands changed would recompute exactly the value
//! it already holds (and accumulate zero toggles), so results and per-net
//! toggle counts are identical to a full sweep in every mode. When the
//! dirty fraction is high the evaluator falls back to plain full sweeps
//! for a while so dense stimuli never pay the worklist overhead; see
//! `docs/simulation.md` § "Event-driven evaluation".
//!
//! # Parallel level evaluation
//!
//! [`EvalPolicy`] adds a third, intra-netlist parallel axis on top of the
//! 64 stimulus lanes and the shard threads: with
//! [`CompiledSim::par_levels`]`(n)` each sufficiently wide level's op
//! range of a full sweep is split into contiguous chunks evaluated by `n`
//! worker threads, with barrier edges ordering cross-thread reads. Every
//! op writes a distinct destination net, so the per-chunk value/toggle
//! writes are disjoint and the merge is exact by construction — values
//! **and** per-net toggle counts stay bit-identical to the sequential
//! sweep. Event-driven settles always run the sequential worklist, so
//! they are bit-identical (stats included) for every thread count. See
//! `docs/simulation.md` § "Parallel level evaluation".
//!
//! Parallel settles run on the process-wide persistent
//! [`crate::pool::WorkerPool`] by default (acquired lazily by
//! [`CompiledSim::set_eval_policy`], shared with every other simulator,
//! released when the policy goes sequential or the simulator drops), so
//! consecutive settles reuse hot parked workers instead of paying a
//! `std::thread::scope` spawn each. Scoped threads remain as the fallback
//! ([`EvalPolicy::use_pool`] `= false`, `GATE_SIM_POOL=0`, or a settle
//! issued from inside another pool job) and produce bit-identical
//! results.

use crate::level::{par_chunk, Fanout, OpCode, Program};
use crate::pool::{self, SpinBarrier, WorkerPool};
use crate::sim::{port_bit, EvalStats, SimBackend};
use crate::{Gate, NetId, Netlist};
use std::sync::Arc;

/// Stimulus lanes per value word (bits of one `u64`). Historically also
/// the per-simulator lane ceiling, which K-word lane blocks removed.
#[deprecated(note = "64 is the per-word lane count, not a ceiling any more: \
            `CompiledSim` packs up to `MAX_TOTAL_LANES` lanes into K-word \
            lane blocks (`LANES_PER_WORD * MAX_LANE_WORDS`)")]
pub const MAX_LANES: usize = 64;

/// Stimulus lanes per `u64` value word (bit `l % 64` of word `l / 64`).
pub const LANES_PER_WORD: usize = 64;

/// Maximum words per lane block (K in the `[u64; K]`-strided layout).
pub const MAX_LANE_WORDS: usize = 8;

/// Maximum stimulus lanes per evaluation:
/// `LANES_PER_WORD * MAX_LANE_WORDS`.
pub const MAX_TOTAL_LANES: usize = LANES_PER_WORD * MAX_LANE_WORDS;

/// The active-lane mask for one value word carrying `lanes` lanes
/// (`lanes == 64` means all bits — the shift that would overflow a plain
/// `(1 << lanes) - 1` at a block boundary).
///
/// # Panics
///
/// Panics if `lanes > 64`.
pub fn word_lane_mask(lanes: usize) -> u64 {
    assert!(
        lanes <= LANES_PER_WORD,
        "a value word holds at most 64 lanes"
    );
    if lanes == LANES_PER_WORD {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Per-word active-lane masks for a `lanes`-lane block: full words are
/// all-ones, the final partial word (if any) masks to `lanes % 64` bits.
fn block_lane_masks(lanes: usize) -> Vec<u64> {
    let words = lanes.div_ceil(LANES_PER_WORD);
    (0..words)
        .map(|w| word_lane_mask((lanes - w * LANES_PER_WORD).min(LANES_PER_WORD)))
        .collect()
}

/// How [`CompiledSim::eval`] sweeps the op stream. Every mode produces
/// bit-identical values and toggle counts; the mode only changes how much
/// work a settle performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Event-driven with a dense-stimulus fallback: settles run the
    /// dirty-op worklist, but when a settle executes more than ⅞ of the
    /// scheduled ops the next [`AUTO_DENSE_BACKOFF`] settles use plain
    /// full sweeps before probing the event-driven path again.
    #[default]
    Auto,
    /// Always sweep every op (the pre-event-driven behavior).
    FullSweep,
    /// Always run the dirty-op worklist evaluator (no dense fallback).
    EventDriven,
    /// Full sweeps through natively emitted code ([`crate::jit`]) when
    /// codegen is available for this host, program, and lane width —
    /// otherwise interpreted full sweeps, bit-identically. Selected by
    /// default when `GATE_SIM_JIT=1`; `GATE_SIM_JIT=0` disables the
    /// native path even under an explicit `Jit` mode. Sequential only:
    /// an [`EvalPolicy`] with `threads > 1` takes precedence and runs
    /// the interpreted parallel sweep (see `docs/jit.md`).
    Jit,
}

/// Full-sweep settles an [`EvalMode::Auto`] simulator runs after a settle
/// that executed more than ⅞ of the scheduled ops anyway.
pub const AUTO_DENSE_BACKOFF: u32 = 32;

/// Dirty fraction (executed ops / scheduled ops) above which
/// [`EvalMode::Auto`] falls back to full sweeps, as a numerator over 8.
const AUTO_DENSE_THRESHOLD_EIGHTHS: usize = 7;

/// Default minimum scheduled ops a level needs before [`EvalPolicy`]
/// splits it across worker threads: below this the per-level barrier
/// handshake dominates and the level runs whole on worker 0.
pub const PAR_LEVEL_MIN_OPS: usize = 256;

/// Intra-settle parallelism policy for [`CompiledSim::eval`]: how many
/// scoped worker threads split each level's op range into contiguous
/// chunks, and how wide a level must be to be worth splitting. Only full
/// sweeps split; event-driven settles run the sequential worklist under
/// every policy.
///
/// Purely a performance knob — settled values, FF state, and exact
/// per-net toggle counts are bit-identical for every `threads` value in
/// every [`EvalMode`] (the property tests in
/// `crates/netlist/tests/properties.rs` enforce this; the mechanism is
/// described in `docs/simulation.md` § "Parallel level evaluation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalPolicy {
    /// Worker threads per settle (the calling thread is worker 0;
    /// `1` means fully sequential evaluation with zero threading cost).
    pub threads: usize,
    /// Minimum scheduled ops a level needs before it is split; smaller
    /// levels execute whole on worker 0 while the other workers wait at
    /// the level barrier.
    pub min_par_ops: usize,
    /// Run parallel settles on the persistent shared
    /// [`crate::pool::WorkerPool`] (the default) instead of spawning a
    /// fresh `std::thread::scope` per settle. Purely a performance knob —
    /// both paths are bit-identical — kept switchable so benches can
    /// measure the pool against its scoped predecessor and as an escape
    /// hatch (`GATE_SIM_POOL=0` forces it off globally).
    pub use_pool: bool,
}

impl EvalPolicy {
    /// Sequential evaluation on the calling thread (the default).
    pub fn seq() -> EvalPolicy {
        EvalPolicy {
            threads: 1,
            min_par_ops: PAR_LEVEL_MIN_OPS,
            use_pool: true,
        }
    }

    /// Splits each sufficiently wide level across `threads` workers on
    /// the persistent shared worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn par_levels(threads: usize) -> EvalPolicy {
        assert!(threads >= 1, "eval policy needs at least one thread");
        EvalPolicy {
            threads,
            ..EvalPolicy::seq()
        }
    }

    /// Like [`EvalPolicy::par_levels`] but on per-settle scoped threads —
    /// the pre-pool execution model, kept reachable so benches and the
    /// determinism property tests can pin the pool against it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn par_levels_scoped(threads: usize) -> EvalPolicy {
        EvalPolicy {
            use_pool: false,
            ..EvalPolicy::par_levels(threads)
        }
    }
}

impl Default for EvalPolicy {
    fn default() -> EvalPolicy {
        EvalPolicy::seq()
    }
}

/// Compiled bit-parallel simulator for one netlist.
///
/// The immutable structure (netlist + compiled program) is behind [`Arc`],
/// so cloning a `CompiledSim` — e.g. [`crate::sharded::ShardedSim`]
/// fanning out shards — shares it and only duplicates the per-lane
/// value/FF/toggle arrays.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    netlist: Arc<Netlist>,
    prog: Arc<Program>,
    /// Per-net lane blocks (`lane_words` contiguous words per net: net `n`
    /// occupies `values[n * lane_words .. (n + 1) * lane_words]`).
    values: Vec<u64>,
    /// Per-DFF stored lane blocks (indexed by net id; non-DFF blocks
    /// unused), same `lane_words` stride as `values`.
    ff_state: Vec<u64>,
    /// Per-primary-input-bit lane blocks, same stride.
    input_values: Vec<u64>,
    /// Per-net toggle counts over active lanes (one counter per net — the
    /// per-word popcounts of a block sum into it).
    toggles: Vec<u64>,
    cycles: u64,
    lanes: usize,
    /// Words per lane block (K): `lanes.div_ceil(64)`.
    lane_words: usize,
    /// Per-word active-lane masks (`lane_words` entries; full words are
    /// all-ones, the final partial word masks its active low bits).
    lane_masks: Vec<u64>,
    /// False until the first eval settles arbitrary reset state; that first
    /// pass's pseudo-toggles are discarded so activity numbers start clean.
    primed: bool,
    mode: EvalMode,
    /// True when a `set_bus*` call changed an input word since the last
    /// settle — level 0's `Input` ops may publish new values.
    inputs_dirty: bool,
    /// True when `step`/`set_ff*` left a stored FF word different from the
    /// published one — level 0's `DffOut` ops may publish new values.
    ffs_dirty: bool,
    /// The program's fanout map, built at construction and shared with
    /// clones; drives the event-driven worklist.
    fanout: Arc<Fanout>,
    /// Dirty-op bitset (bit `i % 64` of word `i / 64` = op `i`): ops an
    /// operand change has scheduled during the current event-driven
    /// settle. Empty between settles — the worklist pass drains it.
    dirty: Vec<u64>,
    /// Remaining full-sweep settles before [`EvalMode::Auto`] re-probes
    /// the event-driven path.
    dense_backoff: u32,
    /// Intra-settle parallelism knob ([`CompiledSim::set_eval_policy`]).
    policy: EvalPolicy,
    /// `policy.threads` capped by how many useful chunks the widest level
    /// can yield (spawning workers that could never receive a chunk is
    /// pure cost); cached by `set_eval_policy` — a pure function of the
    /// immutable program and the policy, so never computed per settle.
    par_threads: usize,
    /// Per-level split decisions under the current policy (`true` when a
    /// full sweep chunks the level across workers, `false` when worker 0
    /// runs it whole). Cached by `set_eval_policy` so the full-sweep
    /// worker can elide barriers around runs of unsplit levels instead of
    /// paying one per level; empty when `par_threads == 1`.
    par_split: Arc<Vec<bool>>,
    /// Handle on the persistent worker pool, held while the policy wants
    /// pooled threads. Dropping the last handle process-wide joins the
    /// pool's workers.
    pool: Option<Arc<WorkerPool>>,
    /// Native code for this program at this lane width, held while the
    /// mode is [`EvalMode::Jit`] and codegen succeeded; `None` is the
    /// interpreter-fallback state ([`CompiledSim::jit_active`]).
    jit: Option<Arc<crate::jit::JitProgram>>,
    /// Codegen options the `Jit` mode compiles under
    /// ([`CompiledSim::set_jit_options`]); defaults consult
    /// `GATE_SIM_JIT` and CPU feature detection.
    jit_options: crate::jit::JitOptions,
    stats: EvalStats,
}

/// Raw, `Sync` view of one simulator's per-net arrays, handed to the
/// per-level worker chunks of a parallel settle.
///
/// # Safety contract
///
/// Sharing these pointers across worker threads is sound because of three
/// structural facts, which every caller of the `exec_chunk_*` functions
/// must preserve:
///
/// 1. **Disjoint writes.** Each scheduled op writes exactly one
///    destination net (`values[dst]`, `toggles[dst]`), each net is
///    computed by exactly one op, and the chunks handed to the workers
///    partition a level's op range — so no two threads ever write the
///    same index during one level.
/// 2. **Reads see only earlier levels.** An op's operand nets live in
///    strictly earlier levels (ASAP levelization), so within a level no
///    chunk reads an index any chunk writes.
/// 3. **Barrier edges order levels.** A `Barrier::wait` separates
///    consecutive levels, so writes of level `l` happen-before reads of
///    level `l + 1`.
struct NetArrays {
    values: *mut u64,
    toggles: *mut u64,
}

// SAFETY: see the struct-level contract — all concurrent access through
// these pointers is index-disjoint or ordered by a barrier edge.
unsafe impl Sync for NetArrays {}

/// Expands to a `match` on the runtime lane-block word count that calls
/// `$body::<K>($args...)` with the matching const generic. Every legal
/// width (1..=[`MAX_LANE_WORDS`]) gets its own monomorphization: the
/// const `K` makes the per-op `[u64; K]` scratch buffer register-sized
/// and fully unrolls the word loops — a runtime `k` parameter would keep
/// the buffer on the stack and the loops rolled, costing ~30% at K = 1.
macro_rules! dispatch_lane_words {
    ($k:expr, $body:ident($($args:expr),* $(,)?)) => {
        match $k {
            1 => $body::<1>($($args),*),
            2 => $body::<2>($($args),*),
            3 => $body::<3>($($args),*),
            4 => $body::<4>($($args),*),
            5 => $body::<5>($($args),*),
            6 => $body::<6>($($args),*),
            7 => $body::<7>($($args),*),
            8 => $body::<8>($($args),*),
            k => unreachable!("lane-block word count {k} outside 1..={}", MAX_LANE_WORDS),
        }
    };
}

/// Executes ops `range` of the stream unconditionally. Dispatches to a body
/// monomorphized per lane-block word count (the `masks` slice length).
///
/// # Safety
///
/// `range` must lie within the op stream, and the caller must uphold the
/// [`NetArrays`] contract: no other thread may concurrently touch any net
/// index this chunk writes, and all operand nets must already hold their
/// settled values for this settle.
unsafe fn exec_chunk_full(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    range: std::ops::Range<usize>,
) {
    dispatch_lane_words!(
        masks.len(),
        exec_chunk_full_impl(prog, arrays, inputs, ffs, masks, range)
    )
}

/// The width-monomorphized body of [`exec_chunk_full`]; `K == masks.len()`
/// is the lane-block word count.
///
/// The operand arrays are sliced to the range up front so the hot loop's
/// stream indexing is bounds-check free.
///
/// # Safety
///
/// See [`exec_chunk_full`].
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn exec_chunk_full_impl<const K: usize>(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    range: std::ops::Range<usize>,
) {
    let n = range.len();
    let ops = &prog.opcodes[range.clone()][..n];
    let pa = &prog.a[range.clone()][..n];
    let pb = &prog.b[range.clone()][..n];
    let pc = &prog.c[range.clone()][..n];
    let pd = &prog.dst[range][..n];
    // A register-resident copy: the raw-pointer `values` stores could
    // alias the `masks` slice as far as LLVM knows (the noalias attribute
    // dies at inlining), which would force a reload per op.
    let masks: [u64; K] = masks[..K].try_into().unwrap();
    let values = arrays.values;
    for i in 0..n {
        let a = pa[i] as usize * K;
        let b = pb[i] as usize * K;
        let d = pd[i] as usize * K;
        let mut v = [0u64; K];
        match ops[i] {
            OpCode::Input => v.copy_from_slice(&inputs[a..a + K]),
            OpCode::Not => {
                for w in 0..K {
                    v[w] = !*values.add(a + w);
                }
            }
            OpCode::And => {
                for w in 0..K {
                    v[w] = *values.add(a + w) & *values.add(b + w);
                }
            }
            OpCode::Or => {
                for w in 0..K {
                    v[w] = *values.add(a + w) | *values.add(b + w);
                }
            }
            OpCode::Xor => {
                for w in 0..K {
                    v[w] = *values.add(a + w) ^ *values.add(b + w);
                }
            }
            OpCode::Nand => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) & *values.add(b + w));
                }
            }
            OpCode::Nor => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) | *values.add(b + w));
                }
            }
            OpCode::Xnor => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) ^ *values.add(b + w));
                }
            }
            OpCode::Mux => {
                let c = pc[i] as usize * K;
                for w in 0..K {
                    let sel = *values.add(c + w);
                    v[w] = (sel & *values.add(b + w)) | (!sel & *values.add(a + w));
                }
            }
            OpCode::DffOut => v.copy_from_slice(&ffs[d..d + K]),
        }
        let mut toggled = 0u64;
        let mut any = 0u64;
        for w in 0..K {
            let diff = (*values.add(d + w) ^ v[w]) & masks[w];
            toggled += diff.count_ones() as u64;
            any |= diff;
            *values.add(d + w) = v[w];
        }
        if any != 0 {
            *arrays.toggles.add(pd[i] as usize) += toggled;
        }
    }
}

/// Publishes `v` into op `i`'s destination block; on an active-lane
/// change, counts the toggles and marks the op's readers in `dirty`.
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline(always)]
fn publish<const K: usize>(
    prog: &Program,
    fanout: &Fanout,
    values: &mut [u64],
    toggles: &mut [u64],
    dirty: &mut [u64],
    masks: &[u64; K],
    i: usize,
    v: [u64; K],
) {
    let net = prog.dst[i] as usize;
    let dst = &mut values[net * K..net * K + K];
    let mut toggled = 0u64;
    let mut any = 0u64;
    for w in 0..K {
        let diff = (dst[w] ^ v[w]) & masks[w];
        toggled += diff.count_ones() as u64;
        any |= diff;
        dst[w] = v[w];
    }
    if any != 0 {
        toggles[net] += toggled;
        for &r in fanout.readers(net as NetId) {
            dirty[r as usize / 64] |= 1u64 << (r % 64);
        }
    }
}

/// One event-driven settle over the dirty-op bitset; returns `(ops
/// executed, levels in which some op executed)`. `K == masks.len()` is
/// the lane-block word count.
///
/// Level 0 runs whole when `level0` is set (an input or stored FF word
/// was dirtied). Every op whose destination word changes on an active
/// lane marks its readers ([`Fanout::readers`]) in `dirty`. Readers sit
/// at strictly higher op indices, so one forward pass that pops the
/// lowest set bit runs every scheduled op exactly once, after all of its
/// operands, and leaves `dirty` empty. A level cursor advances as the
/// popped indices cross `prog.bounds`, counting the levels that ran; it
/// also lets the pass pop a whole level's share of a bitset word at once.
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn settle_worklist<const K: usize>(
    prog: &Program,
    fanout: &Fanout,
    values: &mut [u64],
    toggles: &mut [u64],
    dirty: &mut [u64],
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    level0: bool,
) -> (u64, u64) {
    let masks: [u64; K] = masks.try_into().expect("one mask per lane-block word");
    let level0_end = prog.level_ops(0).end;
    let (mut executed, mut levels_run) = (0u64, 0u64);
    if level0 && level0_end > 0 {
        for i in 0..level0_end {
            let (words, at) = match prog.opcodes[i] {
                OpCode::Input => (inputs, prog.a[i] as usize * K),
                OpCode::DffOut => (ffs, prog.dst[i] as usize * K),
                op => unreachable!("level 0 holds only Input/DffOut ops, found {op:?}"),
            };
            let v = words[at..at + K].try_into().expect("a K-word block");
            publish(prog, fanout, values, toggles, dirty, &masks, i, v);
        }
        executed += level0_end as u64;
        levels_run += 1;
    }
    let (mut level, mut level_end) = (0usize, level0_end);
    for word in level0_end / 64..dirty.len() {
        while dirty[word] != 0 {
            let first = word * 64 + dirty[word].trailing_zeros() as usize;
            if first >= level_end {
                while prog.bounds[level + 1] as usize <= first {
                    level += 1;
                }
                level_end = prog.bounds[level + 1] as usize;
                levels_run += 1;
            }
            // Pop every bit of this word that belongs to `level` at once:
            // ops of one level never read each other, so running them
            // marks only later levels, and the batch needs no re-read of
            // the word between ops.
            let take = match level_end - word * 64 {
                n if n >= 64 => u64::MAX,
                n => (1u64 << n) - 1,
            };
            let mut batch = dirty[word] & take;
            dirty[word] &= !take;
            while batch != 0 {
                let i = word * 64 + batch.trailing_zeros() as usize;
                batch &= batch - 1;
                let block = |n: u32| -> [u64; K] {
                    let n = n as usize * K;
                    values[n..n + K].try_into().expect("a K-word block")
                };
                let x = block(prog.a[i]);
                let mut v = [0u64; K];
                match prog.opcodes[i] {
                    OpCode::Not => {
                        for w in 0..K {
                            v[w] = !x[w];
                        }
                    }
                    OpCode::Mux => {
                        let (y, sel) = (block(prog.b[i]), block(prog.c[i]));
                        for w in 0..K {
                            v[w] = (sel[w] & y[w]) | (!sel[w] & x[w]);
                        }
                    }
                    op => {
                        let y = block(prog.b[i]);
                        for w in 0..K {
                            v[w] = match op {
                                OpCode::And => x[w] & y[w],
                                OpCode::Or => x[w] | y[w],
                                OpCode::Xor => x[w] ^ y[w],
                                OpCode::Nand => !(x[w] & y[w]),
                                OpCode::Nor => !(x[w] | y[w]),
                                OpCode::Xnor => !(x[w] ^ y[w]),
                                _ => unreachable!("Input/DffOut ops live in level 0, found {op:?}"),
                            };
                        }
                    }
                }
                publish(prog, fanout, values, toggles, dirty, &masks, i, v);
                executed += 1;
            }
        }
    }
    (executed, levels_run)
}

fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of row `r`
/// holds what bit `r` of row `c` held. The 6-stage block swap of Hacker's
/// Delight §7-3: stage `j` exchanges the off-diagonal `j×j` blocks of
/// every `2j×2j` tile, so the whole transpose costs 6 × 32 masked swaps.
/// It is its own inverse. The lane-batched port I/O uses it to turn one
/// value per lane (rows) into one lane word per port bit (rows) and back.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        // Rows `k` with bit `j` clear pair with row `k + j`: the high `j`
        // bits of each block in row `k` swap with the low ones in `k + j`.
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl CompiledSim {
    /// Compiles `netlist` for single-lane (scalar-equivalent) execution.
    pub fn new(netlist: &Netlist) -> CompiledSim {
        CompiledSim::with_lanes(netlist, 1)
    }

    /// Like [`CompiledSim::new`], but shares an already-owned netlist
    /// instead of deep-cloning it.
    pub fn new_arc(netlist: Arc<Netlist>) -> CompiledSim {
        CompiledSim::with_lanes_arc(netlist, 1)
    }

    /// Compiles `netlist` for `lanes` parallel stimulus lanes. Thin
    /// wrapper over [`CompiledSim::with_lanes_arc`] that clones the
    /// netlist once; callers that already hold an [`Arc<Netlist>`] should
    /// use the `_arc` constructor to share it instead.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    pub fn with_lanes(netlist: &Netlist, lanes: usize) -> CompiledSim {
        CompiledSim::with_lanes_arc(Arc::new(netlist.clone()), lanes)
    }

    /// Compiles the shared `netlist` for `lanes` parallel stimulus lanes
    /// without copying the netlist structure: the [`Arc`] is stored as-is,
    /// so fanning out many simulators over one netlist (shards, repeated
    /// CPU constructions) pays for the gate arena once.
    ///
    /// The compile itself goes through the process-wide
    /// [`crate::cache::ProgramCache`]: a netlist whose *content* was
    /// compiled before (even behind a different `Arc`) reuses the cached
    /// [`Program`] instead of re-levelizing. `GATE_SIM_PROGRAM_CACHE=0`
    /// forces a fresh compile; results are bit-identical either way.
    ///
    /// Lane counts above 64 round the state arena up to whole 64-lane
    /// words: every net stores `lanes.div_ceil(64)` contiguous `u64`s
    /// (a *lane block*), and the kernels loop over the block.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    pub fn with_lanes_arc(netlist: Arc<Netlist>, lanes: usize) -> CompiledSim {
        let prog = crate::cache::ProgramCache::compile_via_global(&netlist);
        let fanout = Arc::new(Fanout::of(&prog));
        CompiledSim::from_parts(netlist, prog, fanout, lanes)
    }

    /// A fresh simulator (reset state, zero counters) over the same
    /// compiled program and netlist, with a possibly different lane
    /// count. No recompilation: the netlist, program and fanout [`Arc`]s
    /// are shared. The eval mode and policy are copied over. `ShardedSim`
    /// uses this to shape a partial trailing lane block without paying a
    /// second levelization.
    pub(crate) fn reshaped(&self, lanes: usize) -> CompiledSim {
        let mut sim = CompiledSim::from_parts(
            Arc::clone(&self.netlist),
            Arc::clone(&self.prog),
            Arc::clone(&self.fanout),
            lanes,
        );
        sim.jit_options = self.jit_options.clone();
        sim.set_eval_mode(self.mode);
        sim.set_eval_policy(self.policy);
        sim
    }

    /// Shared constructor body: allocates the K-word state arena for
    /// `lanes` over an already-compiled `prog`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    fn from_parts(
        netlist: Arc<Netlist>,
        prog: Arc<Program>,
        fanout: Arc<Fanout>,
        lanes: usize,
    ) -> CompiledSim {
        assert!(
            (1..=MAX_TOTAL_LANES).contains(&lanes),
            "lanes must be in 1..={MAX_TOTAL_LANES}, got {lanes}: a CompiledSim packs \
             up to {MAX_LANE_WORDS} 64-lane words into one lane block; for more \
             stimulus vectors, split the sweep into multiple lane blocks \
             (e.g. `ShardedSim`) or multiple settles"
        );
        let k = lanes.div_ceil(LANES_PER_WORD);
        let mut values = vec![0u64; prog.net_count * k];
        for &(net, v) in &prog.consts {
            values[net as usize * k..(net as usize + 1) * k].fill(broadcast(v));
        }
        let mut ff_state = vec![0u64; prog.net_count * k];
        for (id, gate) in netlist.gates().iter().enumerate() {
            if let Gate::Dff { init, .. } = gate {
                ff_state[id * k..(id + 1) * k].fill(broadcast(*init));
            }
        }
        let mut sim = CompiledSim {
            values,
            ff_state,
            input_values: vec![0u64; prog.input_count * k],
            toggles: vec![0u64; prog.net_count],
            cycles: 0,
            lanes,
            lane_words: k,
            lane_masks: block_lane_masks(lanes),
            primed: false,
            mode: EvalMode::Auto,
            inputs_dirty: true,
            ffs_dirty: true,
            fanout,
            dirty: vec![0u64; prog.len().div_ceil(64)],
            dense_backoff: 0,
            policy: EvalPolicy::seq(),
            par_threads: 1,
            par_split: Arc::new(Vec::new()),
            pool: None,
            jit: None,
            jit_options: crate::jit::JitOptions::default(),
            stats: EvalStats::default(),
            prog,
            netlist,
        };
        // `GATE_SIM_JIT=1` makes native full sweeps the default mode for
        // every construction (unsupported hosts fall back, bit-identically).
        if crate::env::jit() == Some(true) {
            sim.set_eval_mode(EvalMode::Jit);
        }
        sim
    }

    /// The compiled op stream (level-major, structure-of-arrays).
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The shared netlist handle (cloning it is free — see
    /// [`CompiledSim::with_lanes_arc`]).
    pub fn netlist_arc(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// How [`CompiledSim::eval`] sweeps the op stream (results are
    /// mode-independent; see [`EvalMode`]).
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Selects the evaluation strategy. Purely a performance knob: values
    /// and toggle counts are bit-identical in every mode.
    ///
    /// Entering [`EvalMode::Jit`] acquires (compiling and caching on
    /// first use) native code for this program at this lane width;
    /// when codegen is unavailable the mode still holds but settles run
    /// the interpreter ([`CompiledSim::jit_active`] reports which).
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
        self.dense_backoff = 0;
        self.jit = if mode == EvalMode::Jit {
            self.acquire_jit()
        } else {
            None
        };
    }

    /// Native code for the current (program, lane width) under the
    /// current [`crate::jit::JitOptions`] — `None` is the documented
    /// fallback signal. Default options hit the per-program cache
    /// ([`Program::jit`]); custom options compile privately.
    fn acquire_jit(&self) -> Option<Arc<crate::jit::JitProgram>> {
        if self.jit_options == crate::jit::JitOptions::default() {
            self.prog.jit(self.lane_words)
        } else {
            crate::jit::compile(&self.prog, self.lane_words, &self.jit_options)
                .ok()
                .map(Arc::new)
        }
    }

    /// Replaces the codegen options (a test/bench seam — e.g. forcing
    /// the portable non-BMI1 encodings or a tiny code-size cap to
    /// exercise fallback) and re-acquires code if the current mode is
    /// [`EvalMode::Jit`].
    pub fn set_jit_options(&mut self, options: crate::jit::JitOptions) {
        self.jit_options = options;
        if self.mode == EvalMode::Jit {
            self.jit = self.acquire_jit();
        }
    }

    /// True when settles in [`EvalMode::Jit`] actually execute emitted
    /// native code; false in every other mode and in the fallback state
    /// (unsupported host, codegen failure, or `GATE_SIM_JIT=0`).
    pub fn jit_active(&self) -> bool {
        self.jit.is_some()
    }

    /// The intra-settle parallelism policy ([`EvalPolicy`]).
    pub fn eval_policy(&self) -> EvalPolicy {
        self.policy
    }

    /// Selects the intra-settle parallelism policy. Purely a performance
    /// knob: values and exact per-net toggle counts are bit-identical for
    /// every thread count in every [`EvalMode`].
    ///
    /// # Panics
    ///
    /// Panics if `policy.threads == 0`.
    pub fn set_eval_policy(&mut self, policy: EvalPolicy) {
        assert!(policy.threads >= 1, "eval policy needs at least one thread");
        self.policy = policy;
        // The capped worker count is a pure function of the (immutable)
        // program and the policy: compute it once here, not per settle.
        self.par_threads = if policy.threads <= 1 {
            1
        } else {
            let useful = self
                .prog
                .max_level_ops()
                .div_ceil(policy.min_par_ops.max(1));
            policy.threads.min(useful.max(1))
        };
        // So are the per-level split decisions the full-sweep worker uses
        // to place its barrier edges.
        self.par_split = if self.par_threads > 1 {
            let min_ops = policy.min_par_ops.max(1);
            Arc::new(
                (0..self.prog.levels())
                    .map(|l| self.prog.level_ops(l).len() >= min_ops)
                    .collect(),
            )
        } else {
            Arc::new(Vec::new())
        };
        // Hold the shared pool for as long as the policy wants pooled
        // workers; releasing the last handle process-wide joins them.
        self.pool = if self.par_threads > 1 && policy.use_pool && pool::env_pool_enabled() {
            Some(WorkerPool::shared(self.par_threads - 1))
        } else {
            None
        };
    }

    /// Convenience for [`CompiledSim::set_eval_policy`]: split each
    /// sufficiently wide level across `threads` scoped worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn par_levels(&mut self, threads: usize) {
        self.set_eval_policy(EvalPolicy::par_levels(threads));
    }

    /// Worker threads a settle will actually use (cached by
    /// [`CompiledSim::set_eval_policy`]).
    fn par_threads(&self) -> usize {
        self.par_threads
    }

    /// Work counters for this simulator's settles (diagnostic only).
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// The first lane word of one net (bit `l` = lane `l`'s value for
    /// lanes 0..64). Shorthand for `lane_word_at(net, 0)`.
    pub fn lane_word(&self, net: NetId) -> u64 {
        self.values[net as usize * self.lane_words]
    }

    /// One word of a net's lane block: bit `b` = lane `word * 64 + b`'s
    /// value. Bits beyond the active lane count hold garbage.
    ///
    /// # Panics
    ///
    /// Panics if `word >= lane_words`.
    pub fn lane_word_at(&self, net: NetId, word: usize) -> u64 {
        assert!(
            word < self.lane_words,
            "word {word} out of range (lane_words = {})",
            self.lane_words
        );
        self.values[net as usize * self.lane_words + word]
    }

    /// Words per lane block (`lanes.div_ceil(64)`): the stride of the
    /// `values`/`ff_state`/`input_values` arrays.
    pub fn lane_words(&self) -> usize {
        self.lane_words
    }

    /// Per-word active-lane masks (`lane_words` entries; see
    /// [`word_lane_mask`]).
    pub fn lane_masks(&self) -> &[u64] {
        &self.lane_masks
    }

    /// Drives one lane of the named input port with `value`'s low bits.
    /// Port bits at and beyond 64 are driven to 0.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, a port net is not an input, or
    /// `lane >= lanes`.
    pub fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let port = self
            .netlist
            .input(port)
            .unwrap_or_else(|| panic!("no input port `{port}`"));
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let word = &mut self.input_values[idx as usize * self.lane_words + w];
                    let new = (*word & !(1u64 << bit)) | (port_bit(value, i) << bit);
                    if *word != new {
                        *word = new;
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Drives the named input port with one value per lane
    /// (`values[lane]`'s low bits), resolving the port once. Port bits at
    /// and beyond 64 are driven to 0.
    ///
    /// Lanes beyond `values.len()` keep their previous stimulus. This is
    /// the fast path for batched sweeps: per 64 lanes it costs one 64×64
    /// bit transpose and one word store per port bit, instead of a port
    /// lookup and a single-bit insert per lane and bit. A write that
    /// changes no input word leaves the simulator clean.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, a port net is not an input, or
    /// `values.len() > lanes`.
    pub fn set_bus_lanes(&mut self, port: &str, values: &[u64]) {
        assert!(
            values.len() <= self.lanes,
            "{} stimuli exceed {} lanes",
            values.len(),
            self.lanes
        );
        let port = self
            .netlist
            .input(port)
            .unwrap_or_else(|| panic!("no input port `{port}`"));
        let k = self.lane_words;
        for (w, lanes) in values.chunks(LANES_PER_WORD).enumerate() {
            // Rows in: one value per lane. Rows out: one lane word per
            // port bit, ready to store.
            let mut rows = [0u64; LANES_PER_WORD];
            rows[..lanes.len()].copy_from_slice(lanes);
            transpose64(&mut rows);
            let keep = !word_lane_mask(lanes.len());
            for (i, &net) in port.nets.iter().enumerate() {
                match self.netlist.gates()[net as usize] {
                    Gate::Input(idx) => {
                        let bits = rows.get(i).copied().unwrap_or(0);
                        let word = &mut self.input_values[idx as usize * k + w];
                        let new = (*word & keep) | bits;
                        if *word != new {
                            *word = new;
                            self.inputs_dirty = true;
                        }
                    }
                    ref g => panic!("net {net} is not an input: {g:?}"),
                }
            }
        }
    }

    /// Drives the named input port identically on every lane. Port bits at
    /// and beyond 64 are driven to 0.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_bus_u64(&mut self, port: &str, value: u64) {
        let port = self
            .netlist
            .input(port)
            .unwrap_or_else(|| panic!("no input port `{port}`"));
        let k = self.lane_words;
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let base = idx as usize * k;
                    let word = broadcast(port_bit(value, i) == 1);
                    if self.input_values[base..base + k].iter().any(|&w| w != word) {
                        self.input_values[base..base + k].fill(word);
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Drives the named input port with the low bits of `value` (all lanes).
    pub fn set_bus(&mut self, port: &str, value: u32) {
        self.set_bus_u64(port, value as u64);
    }

    /// Settles all combinational logic for the current inputs and FF state.
    ///
    /// Depending on [`CompiledSim::eval_mode`] this is either one full
    /// forward sweep of the op stream or an event-driven pass that runs
    /// only the ops whose operands changed; both produce bit-identical
    /// values and toggle counts. The very first settle is always a full
    /// sweep (the all-zero reset words must be replaced everywhere).
    pub fn eval(&mut self) {
        let event = self.primed
            && match self.mode {
                EvalMode::FullSweep | EvalMode::Jit => false,
                EvalMode::EventDriven => true,
                EvalMode::Auto => {
                    if self.dense_backoff > 0 {
                        self.dense_backoff -= 1;
                        false
                    } else {
                        true
                    }
                }
            };
        match (event, self.par_threads()) {
            (true, _) => self.eval_event(),
            (false, 1) => self.eval_full(),
            (false, threads) => self.eval_full_par(threads),
        }
        self.stats.settles += 1;
        // The settle consumed all external dirtiness: values now reflect
        // the current input words and stored FF state.
        self.inputs_dirty = false;
        self.ffs_dirty = false;
        if !self.primed {
            // The pre-first-eval state is arbitrary (all-zero words), so the
            // transitions of the first settle are not real switching.
            self.toggles.iter_mut().for_each(|t| *t = 0);
            self.primed = true;
        }
    }

    /// The raw array view the chunk executors operate on. The returned
    /// pointers alias `self`'s arrays; see [`NetArrays`] for the rules.
    fn net_arrays(&mut self) -> NetArrays {
        NetArrays {
            values: self.values.as_mut_ptr(),
            toggles: self.toggles.as_mut_ptr(),
        }
    }

    /// One unconditional forward sweep of the whole op stream — through
    /// the emitted native code when [`EvalMode::Jit`] holds some, else
    /// the interpreter. Both paths are bit-identical (values, exact
    /// popcount toggles) and report identical [`EvalStats`].
    fn eval_full(&mut self) {
        let n = self.prog.len();
        if let Some(jit) = &self.jit {
            // SAFETY: `&mut self` is exclusive, and the arrays are exactly
            // the layout the code was emitted for — same program, same
            // `lane_words` (acquire_jit pins both), array sizes fixed by
            // `from_parts`.
            unsafe {
                jit.run(
                    self.values.as_mut_ptr(),
                    self.input_values.as_ptr(),
                    self.ff_state.as_ptr(),
                    self.toggles.as_mut_ptr(),
                    self.lane_masks.as_ptr(),
                );
            }
            self.stats.full_sweeps += 1;
            self.stats.ops_executed += n as u64;
            return;
        }
        let arrays = self.net_arrays();
        // SAFETY: `&mut self` is exclusive — no other thread can touch the
        // arrays — and `0..n` is the whole (valid) op stream.
        unsafe {
            exec_chunk_full(
                &self.prog,
                &arrays,
                &self.input_values,
                &self.ff_state,
                &self.lane_masks,
                0..n,
            );
        }
        self.stats.full_sweeps += 1;
        self.stats.ops_executed += n as u64;
    }

    /// Event-driven settle: runs exactly level 0 (when an input or stored
    /// FF word was dirtied) plus the ops with an operand whose word
    /// changed during this settle ([`settle_worklist`]). Bit-exact: every
    /// skipped op would recompute the value it already holds and
    /// accumulate zero toggles. Sequential under every [`EvalPolicy`].
    fn eval_event(&mut self) {
        let level0 = self.inputs_dirty || self.ffs_dirty;
        let (ops_run, levels_run) = dispatch_lane_words!(
            self.lane_words,
            settle_worklist(
                &self.prog,
                &self.fanout,
                &mut self.values,
                &mut self.toggles,
                &mut self.dirty,
                &self.input_values,
                &self.ff_state,
                &self.lane_masks,
                level0,
            )
        );
        // Every level past 0 holds a gate at that depth, so only level 0
        // (constants only) can be empty.
        let scheduled_levels =
            (self.prog.levels() - usize::from(self.prog.level_ops(0).is_empty())) as u64;
        self.stats.ops_executed += ops_run;
        self.stats.levels_skipped += scheduled_levels - levels_run;
        // Dense stimulus: when nearly every op ran anyway, the worklist
        // bookkeeping is pure overhead — fall back to plain full sweeps
        // for a while before probing the event-driven path again.
        self.auto_dense_check(ops_run);
    }

    /// Applies [`EvalMode::Auto`]'s dense-stimulus fallback decision for a
    /// settle that executed `ops_run` ops.
    fn auto_dense_check(&mut self, ops_run: u64) {
        if self.mode == EvalMode::Auto
            && ops_run * 8 > self.prog.len() as u64 * AUTO_DENSE_THRESHOLD_EIGHTHS as u64
        {
            self.dense_backoff = AUTO_DENSE_BACKOFF;
        }
    }

    /// Parallel full sweep: every level wide enough to split
    /// (`par_split`, cached by [`CompiledSim::set_eval_policy`]) is
    /// chunked contiguously across `threads` workers; narrower levels run
    /// whole on worker 0. Barrier edges are placed only where values
    /// actually cross threads — before a split level whenever anything
    /// was written since the last edge, and before worker 0 reads chunk
    /// results — so a schedule dominated by narrow levels pays a handful
    /// of barriers per settle instead of one per level. Bit-identical to
    /// [`CompiledSim::eval_full`]: chunks partition the same op stream
    /// and every op writes its own destination net.
    fn eval_full_par(&mut self, threads: usize) {
        let arrays = self.net_arrays();
        let prog = &*self.prog;
        let (inputs, ffs) = (&self.input_values[..], &self.ff_state[..]);
        let masks = &self.lane_masks[..];
        let split = Arc::clone(&self.par_split);
        let worker = move |tid: usize, barrier: &SpinBarrier| {
            // The barrier bookkeeping is a pure function of the (shared)
            // split table, so every worker schedules the same edges.
            let mut pending_seq = false; // unsplit writes since last edge
            let mut pending_chunks = false; // chunk writes since last edge
            for level in 0..prog.levels() {
                let range = prog.level_ops(level);
                if range.is_empty() {
                    continue; // constants-only level: nothing scheduled
                }
                if split[level] {
                    if pending_seq || pending_chunks {
                        barrier.wait(threads); // seal writes chunks will read
                        pending_seq = false;
                    }
                    let chunk = par_chunk(range, tid, threads);
                    if !chunk.is_empty() {
                        // SAFETY: chunks partition the level (disjoint dst
                        // writes), operands live in earlier levels, and
                        // the barrier edges order cross-thread access.
                        unsafe { exec_chunk_full(prog, &arrays, inputs, ffs, masks, chunk) };
                    }
                    pending_chunks = true;
                } else {
                    if pending_chunks {
                        barrier.wait(threads); // seal chunks worker 0 reads
                        pending_chunks = false;
                    }
                    if tid == 0 {
                        // SAFETY: only worker 0 touches unsplit levels,
                        // and the edge above sealed any chunk operands.
                        unsafe { exec_chunk_full(prog, &arrays, inputs, ffs, masks, range) };
                    }
                    pending_seq = true;
                }
            }
            // Trailing writes are sealed by the job completion latch (or
            // the scope join): the caller reads only after every worker
            // has finished, so no closing barrier is needed.
        };
        pool::dispatch(self.pool.as_deref(), threads, worker);
        self.stats.full_sweeps += 1;
        self.stats.ops_executed += self.prog.len() as u64;
    }

    /// Clock edge: latches every DFF's `d` lane block into its state.
    pub fn step(&mut self) {
        let k = self.lane_words;
        for &(ff, d) in &self.prog.dffs {
            let (fb, db) = (ff as usize * k, d as usize * k);
            for w in 0..k {
                let next = self.values[db + w];
                // The FF output publishes the *stored* block on the next
                // settle, so level 0 only needs re-evaluation when a newly
                // latched word differs from the currently published one.
                if self.values[fb + w] != next {
                    self.ffs_dirty = true;
                }
                self.ff_state[fb + w] = next;
            }
        }
        self.cycles += 1;
    }

    /// Reads one net on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes` (inactive lane bits hold garbage).
    pub fn get_lane(&self, net: NetId, lane: usize) -> bool {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        (self.values[net as usize * self.lane_words + w] >> bit) & 1 == 1
    }

    /// Reads one net on lane 0.
    pub fn get(&self, net: NetId) -> bool {
        self.get_lane(net, 0)
    }

    /// Reads up to 64 bits of the named output port on one lane. Port bits
    /// at and beyond 64 do not fit in the result and read as 0 (they are
    /// simply not included).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= lanes`.
    pub fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let port = self
            .netlist
            .output(port)
            .unwrap_or_else(|| panic!("no output port `{port}`"));
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        port.nets
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, &n)| {
                acc | (((self.values[n as usize * self.lane_words + w] >> bit) & 1) << i)
            })
    }

    /// Reads the named output port on lanes `0..out.len()`: `out[l]` gets
    /// what `get_bus_lane(port, l)` returns. The read twin of
    /// [`CompiledSim::set_bus_lanes`]: per 64 lanes it costs one port
    /// lookup, one word load per port bit and one 64×64 bit transpose,
    /// instead of a lookup and a single-bit gather per lane and bit. Port
    /// bits at and beyond 64 read as absent.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `out.len() > lanes`.
    pub fn get_bus_lanes(&self, port: &str, out: &mut [u64]) {
        assert!(
            out.len() <= self.lanes,
            "{} reads exceed {} lanes",
            out.len(),
            self.lanes
        );
        let port = self
            .netlist
            .output(port)
            .unwrap_or_else(|| panic!("no output port `{port}`"));
        let k = self.lane_words;
        for (w, lanes) in out.chunks_mut(LANES_PER_WORD).enumerate() {
            // Rows in: one lane word per port bit. Rows out: one value
            // per lane.
            let mut rows = [0u64; LANES_PER_WORD];
            for (row, &net) in rows.iter_mut().zip(&port.nets) {
                *row = self.values[net as usize * k + w];
            }
            transpose64(&mut rows);
            lanes.copy_from_slice(&rows[..lanes.len()]);
        }
    }

    /// Reads the named output port on lane 0.
    pub fn get_bus_u64(&self, port: &str) -> u64 {
        self.get_bus_lane(port, 0)
    }

    /// Reads up to 32 bits of the named output port on lane 0.
    pub fn get_bus(&self, port: &str) -> u32 {
        self.get_bus_u64(port) as u32
    }

    /// Forces the stored state of a DFF on every lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF.
    pub fn set_ff(&mut self, net: NetId, value: bool) {
        assert!(
            self.netlist.gates()[net as usize].is_dff(),
            "net {net} is not a DFF"
        );
        let k = self.lane_words;
        let base = net as usize * k;
        let word = broadcast(value);
        if self.values[base..base + k].iter().any(|&w| w != word) {
            self.ffs_dirty = true;
        }
        self.ff_state[base..base + k].fill(word);
    }

    /// Forces the stored state of a DFF on one lane only (e.g. a per-lane
    /// reset PC when every lane runs a different program).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF or `lane >= lanes`.
    pub fn set_ff_lane(&mut self, net: NetId, lane: usize, value: bool) {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        assert!(
            self.netlist.gates()[net as usize].is_dff(),
            "net {net} is not a DFF"
        );
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        let idx = net as usize * self.lane_words + w;
        let word = &mut self.ff_state[idx];
        *word = (*word & !(1u64 << bit)) | ((value as u64) << bit);
        if *word != self.values[idx] {
            self.ffs_dirty = true;
        }
    }

    /// Total toggles per net since construction (summed over active lanes).
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Clock cycles stepped so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average switching activity: toggles per gate per cycle per lane.
    pub fn average_activity(&self) -> f64 {
        if self.cycles == 0 || self.toggles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.toggles.iter().sum();
        total as f64 / (self.toggles.len() as f64 * self.cycles as f64 * self.lanes as f64)
    }
}

impl SimBackend for CompiledSim {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn set_bus_u64(&mut self, port: &str, value: u64) {
        CompiledSim::set_bus_u64(self, port, value);
    }

    fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        CompiledSim::set_bus_lane(self, port, lane, value);
    }

    fn eval(&mut self) {
        CompiledSim::eval(self);
    }

    fn step(&mut self) {
        CompiledSim::step(self);
    }

    fn get_lane(&self, net: NetId, lane: usize) -> bool {
        CompiledSim::get_lane(self, net, lane)
    }

    fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        CompiledSim::get_bus_lane(self, port, lane)
    }

    fn set_ff(&mut self, net: NetId, value: bool) {
        CompiledSim::set_ff(self, net, value);
    }

    fn toggles(&self) -> &[u64] {
        CompiledSim::toggles(self)
    }

    fn cycles(&self) -> u64 {
        CompiledSim::cycles(self)
    }

    fn average_activity(&self) -> f64 {
        CompiledSim::average_activity(self)
    }

    fn eval_stats(&self) -> EvalStats {
        CompiledSim::eval_stats(self)
    }

    fn set_eval_policy(&mut self, policy: EvalPolicy) {
        CompiledSim::set_eval_policy(self, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::Builder;

    #[test]
    fn matches_interpreter_on_counter() {
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..4).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, 4);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        b.output_bus("count", &ffs);
        let nl = b.finish();
        let mut int = Sim::new(&nl);
        let mut comp = CompiledSim::new(&nl);
        for _ in 0..20 {
            int.eval();
            comp.eval();
            assert_eq!(comp.get_bus("count"), int.get_bus("count"));
            int.step();
            comp.step();
        }
        assert_eq!(comp.cycles(), 20);
        assert_eq!(
            comp.toggles(),
            int.toggles(),
            "toggle accounting must agree"
        );
        assert!((comp.average_activity() - int.average_activity()).abs() < 1e-12);
    }

    #[test]
    fn lanes_evaluate_independent_stimuli() {
        // 8-bit adder driven with 64 different (x, y) pairs in one eval.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        for lane in 0..64u64 {
            sim.set_bus_lane("x", lane as usize, lane * 3);
            sim.set_bus_lane("y", lane as usize, lane * 5 + 1);
        }
        sim.eval();
        for lane in 0..64u64 {
            assert_eq!(
                sim.get_bus_lane("sum", lane as usize),
                (lane * 3 + lane * 5 + 1) & 0xff,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn wide_lane_blocks_evaluate_independent_stimuli() {
        // Same adder, but the stimuli span multiple words of a lane block
        // (including the deliberately awkward 65- and 512-lane shapes).
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        for lanes in [65usize, 128, 256, 512] {
            let mut sim = CompiledSim::with_lanes(&nl, lanes);
            assert_eq!(sim.lane_words(), lanes.div_ceil(64), "lanes = {lanes}");
            for lane in 0..lanes as u64 {
                sim.set_bus_lane("x", lane as usize, lane * 3);
                sim.set_bus_lane("y", lane as usize, lane * 5 + 1);
            }
            sim.eval();
            for lane in 0..lanes as u64 {
                assert_eq!(
                    sim.get_bus_lane("sum", lane as usize),
                    (lane * 3 + lane * 5 + 1) & 0xff,
                    "lanes = {lanes}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn wide_block_matches_chunked_64_lane_runs() {
        // A 256-lane sequential run must be bit-identical — values and
        // exact per-net toggle counts — to the same stimuli run as four
        // chunked 64-lane sims. (The property tests sweep this across the
        // full mode x threads x pool matrix; this is the fast pin.)
        let nl = {
            let mut b = Builder::new();
            let ffs: Vec<NetId> = (0..6).map(|_| b.dff(false)).collect();
            let x = b.input_bus("x", 6);
            let (next, _) = crate::bus::add(&mut b, &ffs, &x);
            for (ff, d) in ffs.iter().zip(&next) {
                b.connect_dff(*ff, *d);
            }
            b.output_bus("count", &ffs);
            b.finish()
        };
        let stim = |lane: u64, cycle: u64| (lane * 7 + cycle * 13 + 1) & 0x3f;
        let mut wide = CompiledSim::with_lanes(&nl, 256);
        let mut chunks: Vec<CompiledSim> =
            (0..4).map(|_| CompiledSim::with_lanes(&nl, 64)).collect();
        for cycle in 0..11 {
            for lane in 0..256u64 {
                wide.set_bus_lane("x", lane as usize, stim(lane, cycle));
                chunks[lane as usize / 64].set_bus_lane("x", lane as usize % 64, stim(lane, cycle));
            }
            wide.eval();
            chunks.iter_mut().for_each(|c| c.eval());
            for lane in 0..256usize {
                assert_eq!(
                    wide.get_bus_lane("count", lane),
                    chunks[lane / 64].get_bus_lane("count", lane % 64),
                    "cycle {cycle}, lane {lane}"
                );
            }
            wide.step();
            chunks.iter_mut().for_each(|c| c.step());
        }
        let merged: Vec<u64> = (0..nl.len())
            .map(|n| chunks.iter().map(|c| c.toggles()[n]).sum())
            .collect();
        assert_eq!(wide.toggles(), &merged[..], "exact toggle accounting");
    }

    #[test]
    fn broadcast_set_bus_drives_all_lanes() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        sim.set_bus("x", 0b1010);
        sim.eval();
        for lane in [0, 17, 63] {
            assert_eq!(sim.get_bus_lane("y", lane), 0b1010);
        }
    }

    #[test]
    fn first_eval_does_not_count_reset_transients() {
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.output("y", nx);
        let nl = b.finish();
        let mut sim = CompiledSim::new(&nl);
        // Constant stimulus: nothing ever switches after the reset settle.
        for _ in 0..10 {
            sim.set_bus("x", 0);
            sim.eval();
            sim.step();
        }
        assert_eq!(sim.toggles().iter().sum::<u64>(), 0);
        assert_eq!(sim.average_activity(), 0.0);
    }

    #[test]
    fn event_driven_skips_settled_levels_and_stays_exact() {
        // 4-bit counter with an 8-bit adder bolted on: plenty of levels.
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..4).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, 4);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        b.output_bus("count", &ffs);
        let nl = b.finish();

        let mut full = CompiledSim::new(&nl);
        full.set_eval_mode(EvalMode::FullSweep);
        let mut event = CompiledSim::new(&nl);
        event.set_eval_mode(EvalMode::EventDriven);
        for cycle in 0..30u32 {
            // The adder inputs only change every 10th settle: the cone
            // between changes is quiescent and must be skipped.
            let (a, c) = ((cycle / 10) * 37, (cycle / 10) * 11 + 1);
            for sim in [&mut full, &mut event] {
                sim.set_bus("x", a);
                sim.set_bus("y", c);
                sim.eval();
                sim.step();
            }
            assert_eq!(event.get_bus("sum"), full.get_bus("sum"), "cycle {cycle}");
            assert_eq!(
                event.get_bus("count"),
                full.get_bus("count"),
                "cycle {cycle}"
            );
        }
        assert_eq!(event.toggles(), full.toggles(), "exact toggle counts");
        let (fs, es) = (full.eval_stats(), event.eval_stats());
        assert_eq!(fs.settles, 30);
        assert_eq!(fs.full_sweeps, 30);
        assert_eq!(fs.levels_skipped, 0);
        assert_eq!(es.settles, 30);
        assert_eq!(es.full_sweeps, 1, "only the priming settle sweeps");
        // The adder cone is quiescent between the every-10th-settle input
        // changes, so per-op gating must strip most of its work even
        // though the counter keeps its levels nominally dirty.
        assert!(
            es.ops_executed * 2 < fs.ops_executed,
            "event-driven must execute far fewer ops ({} vs {})",
            es.ops_executed,
            fs.ops_executed
        );
    }

    #[test]
    fn idempotent_evals_skip_everything() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        sim.set_eval_mode(EvalMode::EventDriven);
        sim.set_bus("x", 170);
        sim.set_bus("y", 85);
        sim.eval(); // priming full sweep
        let after_first = sim.eval_stats();
        sim.set_bus("x", 170); // identical stimulus: no input word changes
        sim.eval();
        sim.eval();
        let stats = sim.eval_stats();
        assert_eq!(sim.get_bus("sum"), 255);
        assert_eq!(
            stats.ops_executed, after_first.ops_executed,
            "settled netlist must execute zero ops"
        );
        assert_eq!(stats.settles, 3);
        assert!(
            stats.levels_skipped > 0,
            "idempotent settles must skip whole levels: {stats:?}"
        );
        assert_eq!(sim.toggles().iter().sum::<u64>(), 0);
    }

    #[test]
    fn auto_mode_falls_back_to_full_sweeps_on_dense_stimulus() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        // Pinned explicitly: GATE_SIM_JIT=1 changes the construction
        // default, and this test is about Auto's dense fallback.
        sim.set_eval_mode(EvalMode::Auto);
        for i in 0..8u64 {
            // Every lane changes every settle: maximally dense stimulus.
            for lane in 0..64 {
                sim.set_bus_lane("x", lane, i * 67 + lane as u64);
                sim.set_bus_lane("y", lane, i * 31 + lane as u64 * 3);
            }
            sim.eval();
        }
        let stats = sim.eval_stats();
        // Settle 0 primes (full); settle 1 probes event-driven, detects the
        // dense stimulus, and the remaining settles fall back to full.
        assert!(
            stats.full_sweeps >= 7,
            "dense stimulus must fall back to full sweeps: {stats:?}"
        );
    }

    #[test]
    fn wide_ports_drive_and_read_without_shift_overflow() {
        // Regression: ports wider than 64 bits used to compute
        // `value >> i` / `<< i` with `i >= 64` — a panic in debug and a
        // silently wrapped shift in release. Bits at and beyond 64 now
        // drive as 0 and are not included in `u64` reads.
        let mut b = Builder::new();
        let x = b.input_bus("x", 70);
        let notx: Vec<NetId> = x.iter().map(|&n| b.not(n)).collect();
        b.output_bus("y", &x);
        b.output_bus("ny", &notx);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 2);
        sim.set_bus_u64("x", u64::MAX);
        sim.eval();
        // All 64 driveable bits read back; bits 64..70 were driven to 0.
        assert_eq!(sim.get_bus_lane("y", 0), u64::MAX);
        for (i, &n) in x.iter().enumerate() {
            assert_eq!(sim.get_lane(n, 0), i < 64, "bit {i}");
        }
        // The inverted port's low 64 bits are 0; bits 64+ are 1 but do not
        // fit in (and must not corrupt) the u64 read.
        assert_eq!(sim.get_bus_lane("ny", 0), 0);
        // The per-lane and batched writers follow the same rule.
        sim.set_bus_lane("x", 1, 0xdead_beef);
        sim.set_bus_lanes("x", &[0x1234]);
        sim.eval();
        assert_eq!(sim.get_bus_lane("y", 0), 0x1234);
        assert_eq!(sim.get_bus_lane("y", 1), 0xdead_beef);
    }

    #[test]
    fn transpose64_is_an_involution_matching_a_naive_gather() {
        // splitmix64: deterministic random matrices without a dependency.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..32 {
            let m: [u64; 64] = std::array::from_fn(|_| next());
            let mut t = m;
            transpose64(&mut t);
            for (r, &row) in t.iter().enumerate() {
                let naive = (0..64).fold(0u64, |acc, c| acc | (((m[c] >> r) & 1) << c));
                assert_eq!(row, naive, "row {r}");
            }
            transpose64(&mut t);
            assert_eq!(t, m);
        }
    }

    #[test]
    fn arc_constructors_share_one_netlist() {
        let mut b = Builder::new();
        let x = b.input("x");
        b.output("y", x);
        let nl = std::sync::Arc::new(b.finish());
        // Regression: `with_lanes` used to deep-clone the netlist into a
        // fresh Arc on every construction; the `_arc` constructors share
        // the caller's allocation.
        let a = CompiledSim::with_lanes_arc(nl.clone(), 2);
        let c = CompiledSim::new_arc(nl.clone());
        assert!(std::sync::Arc::ptr_eq(a.netlist_arc(), &nl));
        assert!(std::sync::Arc::ptr_eq(c.netlist_arc(), &nl));
        let sharded = crate::sharded::ShardedSim::with_policy_arc(
            nl.clone(),
            crate::sharded::ShardPolicy {
                shards: 3,
                lanes_per_shard: 4,
                threads: 1,
                ..crate::sharded::ShardPolicy::single()
            },
        );
        for shard in sharded.shards() {
            assert!(std::sync::Arc::ptr_eq(shard.netlist_arc(), &nl));
        }
    }

    /// A mixed sequential/combinational circuit wide enough that several
    /// levels hold multiple ops, so par-level chunking genuinely splits.
    fn par_test_circuit() -> Netlist {
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..6).map(|i| b.dff(i % 2 == 0)).collect();
        let one = crate::bus::constant(&mut b, 1, 6);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        let x = b.input_bus("x", 16);
        let y = b.input_bus("y", 16);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        let xo = crate::bus::xor(&mut b, &sum, &x);
        b.output_bus("sum", &xo);
        b.output_bus("count", &ffs);
        b.finish()
    }

    /// Runs one stimulus schedule (sparse-ish: inputs change every 3rd
    /// settle) and returns (per-settle output reads, toggles, stats).
    fn run_schedule(mut sim: CompiledSim) -> (Vec<(u64, u64)>, Vec<u64>, EvalStats) {
        let mut outs = Vec::new();
        for cycle in 0..40u64 {
            if cycle % 3 == 0 {
                sim.set_bus_u64("x", cycle.wrapping_mul(0x9e37) & 0xffff);
                sim.set_bus_u64("y", cycle.wrapping_mul(0x79b9) & 0xffff);
            }
            sim.eval();
            outs.push((sim.get_bus_u64("sum"), sim.get_bus_u64("count")));
            sim.step();
        }
        let toggles = sim.toggles().to_vec();
        let stats = sim.eval_stats();
        (outs, toggles, stats)
    }

    /// Jit-mode settles (native code where supported, interpreted
    /// fallback elsewhere) are bit-identical to pinned full sweeps —
    /// outputs, FF state, exact toggle counts, *and* EvalStats — at
    /// one-word, partial-word, and multi-word lane widths.
    #[test]
    fn jit_mode_matches_full_sweep_bit_identically() {
        let nl = par_test_circuit();
        for lanes in [1usize, 2, 64, 100, 256] {
            let mut full = CompiledSim::with_lanes(&nl, lanes);
            full.set_eval_mode(EvalMode::FullSweep);
            let reference = run_schedule(full);
            let mut jit = CompiledSim::with_lanes(&nl, lanes);
            jit.set_eval_mode(EvalMode::Jit);
            if crate::jit::host_supported() && crate::env::jit() != Some(false) {
                assert!(jit.jit_active(), "codegen must engage on a supported host");
            }
            let native = run_schedule(jit);
            assert_eq!(native.0, reference.0, "outputs, {lanes} lanes");
            assert_eq!(native.1, reference.1, "toggles, {lanes} lanes");
            assert_eq!(native.2, reference.2, "stats, {lanes} lanes");
        }
    }

    /// Forcing the portable (non-BMI1) encodings must not change a bit.
    #[test]
    fn jit_without_bmi1_matches() {
        let nl = par_test_circuit();
        let mut full = CompiledSim::with_lanes(&nl, 64);
        full.set_eval_mode(EvalMode::FullSweep);
        let reference = run_schedule(full);
        let mut jit = CompiledSim::with_lanes(&nl, 64);
        jit.set_eval_mode(EvalMode::Jit);
        jit.set_jit_options(crate::jit::JitOptions {
            use_bmi1: false,
            ..crate::jit::JitOptions::default()
        });
        let portable = run_schedule(jit);
        assert_eq!(portable.0, reference.0);
        assert_eq!(portable.1, reference.1);
        assert_eq!(portable.2, reference.2);
    }

    /// A code-size cap the program cannot fit under must downgrade to
    /// the interpreter — same results, `jit_active()` reporting false.
    #[test]
    fn jit_code_cap_falls_back_to_interpreter() {
        let nl = par_test_circuit();
        let mut full = CompiledSim::with_lanes(&nl, 64);
        full.set_eval_mode(EvalMode::FullSweep);
        let reference = run_schedule(full);
        let mut capped = CompiledSim::with_lanes(&nl, 64);
        capped.set_eval_mode(EvalMode::Jit);
        capped.set_jit_options(crate::jit::JitOptions {
            max_code_bytes: 8,
            ..crate::jit::JitOptions::default()
        });
        assert!(
            !capped.jit_active(),
            "an 8-byte cap cannot hold the program"
        );
        let fallback = run_schedule(capped);
        assert_eq!(fallback.0, reference.0);
        assert_eq!(fallback.1, reference.1);
        assert_eq!(fallback.2, reference.2);
    }

    #[test]
    fn parallel_levels_are_bit_identical_in_every_mode() {
        let nl = par_test_circuit();
        for mode in [
            EvalMode::FullSweep,
            EvalMode::EventDriven,
            EvalMode::Auto,
            EvalMode::Jit,
        ] {
            let mut seq = CompiledSim::with_lanes(&nl, 64);
            seq.set_eval_mode(mode);
            let reference = run_schedule(seq);
            for threads in [2usize, 3, 4] {
                let mut par = CompiledSim::with_lanes(&nl, 64);
                par.set_eval_mode(mode);
                // min_par_ops: 1 forces real chunk splits on this small
                // netlist (the default threshold would run it sequentially).
                par.set_eval_policy(EvalPolicy {
                    threads,
                    min_par_ops: 1,
                    ..EvalPolicy::seq()
                });
                let parallel = run_schedule(par);
                assert_eq!(parallel.0, reference.0, "outputs {mode:?} x{threads}");
                assert_eq!(parallel.1, reference.1, "toggles {mode:?} x{threads}");
                // EvalStats coherence: the aggregated per-thread work
                // counters equal the sequential evaluator's exactly.
                assert_eq!(parallel.2, reference.2, "stats {mode:?} x{threads}");
            }
        }
    }

    #[test]
    fn parallel_auto_dense_fallback_aggregates_across_threads() {
        // Adder-only circuit (no quiescent FF cone): fresh per-lane values
        // every settle keep nearly every op dirty, as in
        // `auto_mode_falls_back_to_full_sweeps_on_dense_stimulus`.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let run_dense = |threads: usize| {
            let mut sim = CompiledSim::with_lanes(&nl, 64);
            if threads > 1 {
                sim.set_eval_policy(EvalPolicy {
                    threads,
                    min_par_ops: 1,
                    ..EvalPolicy::seq()
                });
            }
            for i in 0..8u64 {
                for lane in 0..64 {
                    sim.set_bus_lane("x", lane, i * 67 + lane as u64);
                    sim.set_bus_lane("y", lane, i * 31 + lane as u64 * 3);
                }
                sim.eval();
                sim.step();
            }
            sim.eval_stats()
        };
        let seq = run_dense(1);
        assert!(
            seq.full_sweeps >= 7,
            "dense stimulus must fall back: {seq:?}"
        );
        for threads in [2, 4] {
            assert_eq!(
                run_dense(threads),
                seq,
                "the dense-fallback decision must aggregate ops across threads"
            );
        }
    }

    #[test]
    fn par_threads_cap_spawns_no_useless_workers() {
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.output("y", nx);
        let nl = b.finish();
        let mut sim = CompiledSim::new(&nl);
        // 64 requested threads on a 2-op netlist: the widest level bounds
        // the useful worker count, so the settle runs sequentially.
        sim.par_levels(64);
        assert_eq!(sim.par_threads(), 1);
        sim.set_bus("x", 1);
        sim.eval();
        assert_eq!(sim.get_bus("y"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_eval_policy_rejected() {
        let nl = par_test_circuit();
        let mut sim = CompiledSim::new(&nl);
        sim.par_levels(0);
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=512")]
    fn zero_lanes_rejected() {
        let mut b = Builder::new();
        let x = b.input("x");
        b.output("y", x);
        let nl = b.finish();
        let _ = CompiledSim::with_lanes(&nl, 0);
    }
}
