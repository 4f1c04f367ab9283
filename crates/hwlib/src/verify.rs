//! Pre-verification of instruction hardware blocks (Figure 4 of the paper).
//!
//! * [`functional_verify`] — the architecture-test step: structured
//!   corner-case vectors per instruction, compared against the golden
//!   semantics (our stand-in for the RISC-V Architecture Test SIG suite).
//! * [`formal_verify`] — the SVA/SymbiYosys step: randomised input-space
//!   equivalence against the specification plus interface assertions
//!   (no spurious memory writes, x0 suppression, decode selectivity).

use crate::{ports, InstrBlock};
use netlist::compiled::CompiledSim;
use netlist::sharded::{ShardPolicy, ShardedSim};
use netlist::sim::{Sim, SimBackend};
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riscv_isa::semantics::{block_semantics, BlockInputs, BlockOutputs};
use riscv_isa::{Format, Instruction, Mnemonic, Reg, ALL_MNEMONICS};
use std::sync::Arc;

/// A verification failure: which check tripped and on which inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description of the violated property.
    pub property: String,
    /// The stimulus that exposed the failure.
    pub inputs: BlockInputs,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (pc={:#x} insn={:#010x} rs1={:#x} rs2={:#x} rdata={:#x})",
            self.property,
            self.inputs.pc,
            self.inputs.insn,
            self.inputs.rs1_data,
            self.inputs.rs2_data,
            self.inputs.dmem_rdata
        )
    }
}

impl std::error::Error for VerifyError {}

/// Corner-case 32-bit operand values used by every testbench.
pub const CORNER_VALUES: [u32; 10] = [
    0,
    1,
    2,
    4,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    0xaaaa_aaaa,
    0x5555_5555,
    0x0000_8000,
];

/// Evaluates a block netlist on the given inputs and returns its outputs in
/// golden-model shape.
pub fn run_hw_block(block: &InstrBlock, inputs: &BlockInputs) -> BlockOutputs {
    let mut sim = Sim::new(&block.netlist);
    drive(&mut sim, inputs);
    sim.eval();
    read_outputs(&sim)
}

fn drive<S: SimBackend>(sim: &mut S, inputs: &BlockInputs) {
    sim.set_bus(ports::PC, inputs.pc);
    sim.set_bus(ports::INSN, inputs.insn);
    sim.set_bus(ports::RS1_DATA, inputs.rs1_data);
    sim.set_bus(ports::RS2_DATA, inputs.rs2_data);
    sim.set_bus(ports::DMEM_RDATA, inputs.dmem_rdata);
}

/// One shard's port I/O buffers, reused by every chunk of a sweep.
#[derive(Default)]
struct LaneIo {
    /// One port's value per lane: stimulus on the way in, readback on
    /// the way out.
    words: Vec<u64>,
    /// The settled block outputs per lane.
    outputs: Vec<BlockOutputs>,
    /// The settled `sel` per lane.
    sel: Vec<u64>,
}

impl LaneIo {
    /// Drives `chunk[l]` onto lane `l`: one transposed write per port.
    fn drive(&mut self, sim: &mut CompiledSim, chunk: &[BlockInputs]) {
        let mut drive = |port: &str, field: fn(&BlockInputs) -> u32| {
            self.words.clear();
            self.words.extend(chunk.iter().map(|i| field(i) as u64));
            sim.set_bus_lanes(port, &self.words);
        };
        drive(ports::PC, |i| i.pc);
        drive(ports::INSN, |i| i.insn);
        drive(ports::RS1_DATA, |i| i.rs1_data);
        drive(ports::RS2_DATA, |i| i.rs2_data);
        drive(ports::DMEM_RDATA, |i| i.dmem_rdata);
    }

    /// Reads every output port and `sel` on lanes `0..lanes`: one
    /// transposed read per port, matching [`read_outputs_lane`] lane for
    /// lane.
    fn read(&mut self, sim: &CompiledSim, lanes: usize) {
        self.words.resize(lanes, 0);
        self.outputs.clear();
        self.outputs.resize(lanes, BlockOutputs::default());
        let mut read = |port: &str, set: fn(&mut BlockOutputs, u64)| {
            sim.get_bus_lanes(port, &mut self.words);
            for (out, &v) in self.outputs.iter_mut().zip(&self.words) {
                set(out, v);
            }
        };
        read(ports::NEXT_PC, |o, v| o.next_pc = v as u32);
        read(ports::RS1_ADDR, |o, v| o.rs1_addr = v as u8);
        read(ports::RS2_ADDR, |o, v| o.rs2_addr = v as u8);
        read(ports::RD_ADDR, |o, v| o.rd_addr = v as u8);
        read(ports::RD_DATA, |o, v| o.rd_data = v as u32);
        read(ports::RD_WE, |o, v| o.rd_we = v != 0);
        read(ports::DMEM_ADDR, |o, v| o.dmem_addr = v as u32);
        read(ports::DMEM_WDATA, |o, v| o.dmem_wdata = v as u32);
        read(ports::DMEM_WMASK, |o, v| o.dmem_wmask = v as u8);
        read(ports::DMEM_RE, |o, v| o.dmem_re = v != 0);
        self.sel.resize(lanes, 0);
        sim.get_bus_lanes(ports::SEL, &mut self.sel);
    }
}

fn read_outputs(sim: &Sim) -> BlockOutputs {
    read_outputs_lane(sim, 0)
}

pub(crate) fn read_outputs_lane<S: SimBackend>(sim: &S, lane: usize) -> BlockOutputs {
    BlockOutputs {
        next_pc: sim.get_bus_lane(ports::NEXT_PC, lane) as u32,
        rs1_addr: sim.get_bus_lane(ports::RS1_ADDR, lane) as u8,
        rs2_addr: sim.get_bus_lane(ports::RS2_ADDR, lane) as u8,
        rd_addr: sim.get_bus_lane(ports::RD_ADDR, lane) as u8,
        rd_data: sim.get_bus_lane(ports::RD_DATA, lane) as u32,
        rd_we: sim.get_bus_lane(ports::RD_WE, lane) != 0,
        dmem_addr: sim.get_bus_lane(ports::DMEM_ADDR, lane) as u32,
        dmem_wdata: sim.get_bus_lane(ports::DMEM_WDATA, lane) as u32,
        dmem_wmask: sim.get_bus_lane(ports::DMEM_WMASK, lane) as u8,
        dmem_re: sim.get_bus_lane(ports::DMEM_RE, lane) != 0,
    }
}

/// Evaluates `vectors` through a sharded block simulation: each settle
/// packs `sim.lanes()` stimuli (up to `lane_words * 64` per fused lane
/// block) and the *whole sweep* — driving, evaluation, and the per-lane
/// `check` calls — runs inside one thread scope via
/// [`ShardedSim::par_shards`], so both the settles and the golden-model
/// comparisons parallelise and thread-spawn cost is paid once per sweep,
/// not once per settle. Physical shard `s` owns the lane range
/// `[s * lanes_per_shard, s * lanes_per_shard + s.lanes())` of every
/// chunk and stops at its first failing vector; the smallest global index
/// across shards wins, so the returned error is exactly the one a
/// sequential sweep would hit first, at any thread count.
///
/// Port I/O is lane-batched: each settle drives every input port with one
/// [`CompiledSim::set_bus_lanes`] and reads every output port and `sel`
/// with one [`CompiledSim::get_bus_lanes`] into per-shard buffers, so
/// `check` gets `(outputs, sel, index, inputs)` for one vector. Bit moves
/// used to dominate the sweep (drive 52%, settle 2%, check 46% of thread
/// time); with transposed I/O the split is drive 22%, settle 9%, check
/// 69%, most of it the golden model (`docs/simulation.md` § "Lane
/// packing").
fn run_batched(
    sim: &mut ShardedSim,
    vectors: &[BlockInputs],
    check: impl Fn(&BlockOutputs, bool, usize, &BlockInputs) -> Result<(), VerifyError> + Sync,
) -> Result<(), VerifyError> {
    let lanes_per_shard = sim.lanes_per_shard();
    let width = sim.lanes();
    let earliest = sim
        .par_shards(|shard, s| {
            // Shards are uniform except for a possibly-narrower trailing
            // lane block, so clamp this shard's slice to its own width.
            let shard_lanes = s.lanes();
            let mut io = LaneIo::default();
            let mut first: Option<(usize, VerifyError)> = None;
            'chunks: for (chunk_idx, chunk) in vectors.chunks(width).enumerate() {
                let lo = (shard * lanes_per_shard).min(chunk.len());
                let hi = (shard * lanes_per_shard + shard_lanes).min(chunk.len());
                let slice = &chunk[lo..hi];
                if slice.is_empty() {
                    continue; // the final partial chunk may not reach this shard
                }
                io.drive(s, slice);
                s.eval();
                io.read(s, slice.len());
                let settled = io.outputs.iter().zip(&io.sel);
                for (lane, (inputs, (hw, &sel))) in slice.iter().zip(settled).enumerate() {
                    let index = chunk_idx * width + lo + lane;
                    if let Err(e) = check(hw, sel != 0, index, inputs) {
                        first = Some((index, e));
                        break 'chunks;
                    }
                }
            }
            first
        })
        .into_iter()
        .flatten()
        .min_by_key(|(index, _)| *index);
    match earliest {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Generates a random, valid instruction of the given mnemonic.
pub fn random_instruction(m: Mnemonic, rng: &mut StdRng) -> Instruction {
    let reg = |rng: &mut StdRng| Reg::from_index(rng.gen_range(0..16)).unwrap();
    match m.format() {
        Format::R => Instruction::r(m, reg(rng), reg(rng), reg(rng)),
        Format::I => {
            let imm = if m.funct7().is_some() {
                rng.gen_range(0..32)
            } else {
                rng.gen_range(-2048..=2047)
            };
            Instruction::i(m, reg(rng), reg(rng), imm)
        }
        Format::S => Instruction::s(m, reg(rng), reg(rng), rng.gen_range(-2048..=2047)),
        Format::B => Instruction::b(m, reg(rng), reg(rng), rng.gen_range(-2048..=2047) * 2),
        Format::U => Instruction::u(m, reg(rng), rng.gen::<i32>() & !0xfff),
        Format::J => Instruction::j(m, reg(rng), rng.gen_range(-262144..=262143) * 2),
    }
}

/// The architecture-test vector set for one instruction: a deterministic mix
/// of corner operand pairs and seeded random instructions.
pub fn arch_test_vectors(m: Mnemonic) -> Vec<BlockInputs> {
    let mut rng = StdRng::seed_from_u64(0xa5c3 ^ m as u64);
    let mut vectors = Vec::new();
    // Corner sweep with a handful of register/imm shapes.
    for _ in 0..3 {
        let instr = random_instruction(m, &mut rng);
        for &rs1 in &CORNER_VALUES {
            for &rs2 in &CORNER_VALUES {
                vectors.push(BlockInputs {
                    pc: 0x8000_0000u32.wrapping_add(rng.gen_range(0..1024) * 4),
                    insn: instr.encode(),
                    rs1_data: rs1,
                    rs2_data: rs2,
                    dmem_rdata: rng.gen(),
                });
            }
        }
    }
    // Random instructions with random operands.
    for _ in 0..200 {
        let instr = random_instruction(m, &mut rng);
        vectors.push(BlockInputs {
            pc: rng.gen::<u32>() & !3,
            insn: instr.encode(),
            rs1_data: rng.gen(),
            rs2_data: rng.gen(),
            dmem_rdata: rng.gen(),
        });
    }
    vectors
}

/// Decodes a vector's instruction word (every generated vector decodes).
fn decode(inputs: &BlockInputs) -> Instruction {
    Instruction::decode(inputs.insn).expect("vector insn must decode")
}

fn golden_check(
    mnemonic: Mnemonic,
    instr: Instruction,
    inputs: &BlockInputs,
    hw: &BlockOutputs,
) -> Result<(), VerifyError> {
    let golden = block_semantics(instr, inputs);
    if *hw != golden {
        return Err(VerifyError {
            property: format!("{mnemonic}: hardware {hw:?} differs from specification {golden:?}"),
            inputs: *inputs,
        });
    }
    Ok(())
}

/// Functional verification: runs the full architecture-test vector set for
/// the block's instruction through the netlist and the golden semantics.
///
/// The block is compiled once and the vectors are driven 64 per settle
/// through the bit-parallel backend. Delegates to
/// [`functional_verify_with`] with a single-shard policy; pass a wider
/// [`ShardPolicy`] to settle `shards * 64` vectors at a time across
/// threads.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify(block: &InstrBlock) -> Result<(), VerifyError> {
    functional_verify_with(block, ShardPolicy::single())
}

/// [`functional_verify`] under an explicit shard policy. The verdict (and
/// the vector any error reports) is independent of `policy.threads`.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify_with(block: &InstrBlock, policy: ShardPolicy) -> Result<(), VerifyError> {
    functional_verify_arc(block.mnemonic, Arc::new(block.netlist.clone()), policy)
}

/// [`functional_verify_with`] over a shared netlist handle: the shard
/// fan-out reuses the caller's [`Arc`] instead of deep-cloning the
/// netlist. This is the hot path for sweeps (e.g.
/// `HwLibrary::verify_all_with`) that verify one block several ways.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify_arc(
    mnemonic: Mnemonic,
    netlist: Arc<Netlist>,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    let mut sim = ShardedSim::with_policy_arc(netlist, policy);
    let vectors = arch_test_vectors(mnemonic);
    run_batched(&mut sim, &vectors, |hw, _sel, _index, inputs| {
        golden_check(mnemonic, decode(inputs), inputs, hw)
    })
}

/// Formal verification: seeded random equivalence over the block's full
/// input space plus the interface assertions of the standard port contract.
///
/// The assertions mirror the paper's SVA set:
/// * decode selectivity — `sel` asserts exactly for this mnemonic's
///   encodings (checked against every other mnemonic in the ISA);
/// * no spurious memory traffic — `dmem_wmask == 0` unless a store,
///   `dmem_re == 0` unless a load;
/// * no spurious write-back — `rd_we == 0` for stores/branches and for
///   `rd == x0`;
/// * PC sanity — non-control-flow blocks always produce `pc + 4`.
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify(block: &InstrBlock, samples: usize, seed: u64) -> Result<(), VerifyError> {
    formal_verify_with(block, samples, seed, ShardPolicy::single())
}

/// [`formal_verify`] under an explicit shard policy: each settle packs
/// `policy.total_lanes()` random vectors and the shards evaluate on
/// `policy.threads` threads of the worker pool. The stimulus sequence
/// depends only on `seed`, so for a fixed policy shape the verdict is
/// deterministic and independent of the thread count.
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify_with(
    block: &InstrBlock,
    samples: usize,
    seed: u64,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    formal_verify_arc(
        block.mnemonic,
        Arc::new(block.netlist.clone()),
        samples,
        seed,
        policy,
    )
}

/// [`formal_verify_with`] over a shared netlist handle (see
/// [`functional_verify_arc`] for why).
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify_arc(
    m: Mnemonic,
    netlist: Arc<Netlist>,
    samples: usize,
    seed: u64,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 32);
    let mut sim = ShardedSim::with_policy_arc(netlist, policy);
    // One random stimulus vector per lane settles per eval: the whole
    // random sweep costs `samples / total_lanes` passes per shard.
    let vectors: Vec<BlockInputs> = (0..samples)
        .map(|_| {
            let instr = random_instruction(m, &mut rng);
            BlockInputs {
                pc: rng.gen::<u32>() & !3,
                insn: instr.encode(),
                rs1_data: rng.gen(),
                rs2_data: rng.gen(),
                dmem_rdata: rng.gen(),
            }
        })
        .collect();
    run_batched(&mut sim, &vectors, |hw, sel, _index, inputs| {
        let instr = decode(inputs);
        // Specification equivalence.
        golden_check(m, instr, inputs, hw)?;
        // Interface assertions on the raw hardware outputs.
        let inputs = *inputs;
        if !m.is_store() && hw.dmem_wmask != 0 {
            return Err(VerifyError {
                property: format!("{m}: non-store drove dmem_wmask"),
                inputs,
            });
        }
        if !m.is_load() && hw.dmem_re {
            return Err(VerifyError {
                property: format!("{m}: non-load drove dmem_re"),
                inputs,
            });
        }
        if !m.writes_rd() && hw.rd_we {
            return Err(VerifyError {
                property: format!("{m}: unexpected rd_we"),
                inputs,
            });
        }
        if instr.rd == Reg::X0 && hw.rd_we {
            return Err(VerifyError {
                property: format!("{m}: write-back to x0"),
                inputs,
            });
        }
        if !m.is_branch() && !m.is_jump() && hw.next_pc != inputs.pc.wrapping_add(4) {
            return Err(VerifyError {
                property: format!("{m}: sequential next_pc violated"),
                inputs,
            });
        }
        if !sel {
            return Err(VerifyError {
                property: format!("{m}: sel deasserted for own encoding"),
                inputs,
            });
        }
        Ok(())
    })?;
    // Decode selectivity against every other instruction in the ISA — all
    // foreign encodings batched into lanes as well.
    let others: Vec<Mnemonic> = ALL_MNEMONICS
        .into_iter()
        .filter(|&other| other != m)
        .collect();
    let foreign_vectors: Vec<BlockInputs> = others
        .iter()
        .map(|&other| {
            let instr = random_instruction(other, &mut rng);
            BlockInputs {
                pc: 0,
                insn: instr.encode(),
                rs1_data: rng.gen(),
                rs2_data: rng.gen(),
                dmem_rdata: rng.gen(),
            }
        })
        .collect();
    run_batched(&mut sim, &foreign_vectors, |_hw, sel, index, inputs| {
        if sel {
            return Err(VerifyError {
                property: format!("{m}: sel asserted for `{}` encoding", others[index]),
                inputs: *inputs,
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::build_block;

    fn block(m: Mnemonic) -> InstrBlock {
        InstrBlock {
            mnemonic: m,
            netlist: build_block(m),
        }
    }

    #[test]
    fn every_block_passes_functional_verification() {
        for m in ALL_MNEMONICS {
            functional_verify(&block(m)).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn every_block_passes_formal_verification() {
        for m in ALL_MNEMONICS {
            formal_verify(&block(m), 128, 0xf00d).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn verification_catches_a_wrong_block() {
        // Pass the `sub` netlist off as the `add` block: the specification
        // equivalence must fail (decode `sel` also differs, but the compare
        // runs first on add encodings where sub produces wrong rd_data).
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        assert!(functional_verify(&wrong).is_err());
    }

    #[test]
    fn batched_sweep_reports_the_first_failure_of_a_scalar_sweep() {
        // The lane-batched port I/O must report exactly the error a
        // one-vector-at-a-time interpreted sweep hits first.
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        let scalar = arch_test_vectors(Mnemonic::Add)
            .iter()
            .find_map(|v| golden_check(Mnemonic::Add, decode(v), v, &run_hw_block(&wrong, v)).err())
            .expect("the sub block fails some add vector");
        for shards in [1, 4] {
            let policy = ShardPolicy {
                shards,
                lanes_per_shard: 64,
                threads: 2,
                ..ShardPolicy::single()
            };
            assert_eq!(functional_verify_with(&wrong, policy).unwrap_err(), scalar);
        }
    }

    #[test]
    fn sharded_verification_matches_single_shard() {
        // 4 shards x 64 lanes = 256 vectors per settle; neither the shard
        // fan-out nor the thread count may change a verdict.
        for threads in [1, 2] {
            let policy = ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads,
                ..ShardPolicy::single()
            };
            for m in [Mnemonic::Add, Mnemonic::Lw, Mnemonic::Beq] {
                functional_verify_with(&block(m), policy).unwrap_or_else(|e| panic!("{m}: {e}"));
                formal_verify_with(&block(m), 256, 0xf00d, policy)
                    .unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
        // A failing block reports the same first vector under every policy.
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        let single = functional_verify(&wrong).unwrap_err();
        let sharded = functional_verify_with(
            &wrong,
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads: 2,
                ..ShardPolicy::single()
            },
        )
        .unwrap_err();
        assert_eq!(single, sharded);
    }

    #[test]
    fn verification_is_thread_count_and_nesting_independent() {
        // The thread count and nesting (a sweep issued from inside a pool
        // job submits a nested job) are pure performance choices:
        // verdicts and first failing vectors cannot move.
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        let want = functional_verify(&wrong).unwrap_err();
        let check = |policy: ShardPolicy| {
            functional_verify_with(&block(Mnemonic::Xor), policy)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            formal_verify_with(&block(Mnemonic::Sw), 192, 0xf00d, policy)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            assert_eq!(
                functional_verify_with(&wrong, policy).unwrap_err(),
                want,
                "{policy:?} moved the first failing vector"
            );
        };
        for threads in [1, 2, 4] {
            // Unfused, so the three 64-lane shards really spread over the
            // threads.
            let policy = ShardPolicy {
                shards: 3,
                lanes_per_shard: 64,
                threads,
                lane_words: 1,
            };
            check(policy);
            netlist::WorkerPool::new(1).run(2, |tid, _| {
                if tid == 0 {
                    check(policy);
                }
            });
        }
    }

    #[test]
    fn arch_vectors_are_deterministic_and_plentiful() {
        let a = arch_test_vectors(Mnemonic::Add);
        let b = arch_test_vectors(Mnemonic::Add);
        assert_eq!(a, b);
        assert!(a.len() > 400);
    }

    #[test]
    fn random_instructions_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in ALL_MNEMONICS {
            for _ in 0..50 {
                let i = random_instruction(m, &mut rng);
                assert_eq!(Instruction::decode(i.encode()), Ok(i), "{m}");
            }
        }
    }
}
