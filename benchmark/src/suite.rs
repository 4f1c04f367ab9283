//! The four workloads: set-up, one op, and the checks on its outputs.
//!
//! Each op runs the repository's own entry point. When the recorder in
//! [`crate::trace`] is on, ops whose library entry point is a plain
//! composition of public calls (`characterise`, a `fuzz` wave) run that
//! same composition from here with a span around every call; the others
//! (`mutation`, `verify`) run their entry points inside spans and add
//! probe spans — direct calls into the layers beneath, on the op's own
//! inputs, recorded outside the op's span.

use crate::pinned;
use crate::trace::{self, count, span};
use bench::{CharacterisedDesign, ACTIVITY_CYCLES};
use flexic::sweep::{energy_per_instruction_nj, frequency_sweep, SweepResult};
use flexic::tech::Tech;
use flexic::DesignMetrics;
use hwlib::campaign::{instrument, lane_mutation_coverage};
use hwlib::mutate::{mutants_of, CoverageReport, Mutant};
use hwlib::verify::{arch_test_vectors, formal_verify_arc, functional_verify_arc};
use hwlib::HwLibrary;
use netlist::jit::JitOptions;
use netlist::level::Program;
use netlist::{CompiledSim, Netlist, ProgramCache, ShardPolicy};
use riscv_emu::{Emulator, HaltReason};
use rissp::campaign::{differential_fuzz, random_program, FuzzConfig};
use rissp::processor::{BatchedGateLevelCpu, GateLevelCpu};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use std::sync::Arc;
use xcc::{CompiledProgram, OptLevel, CODE_BASE, DATA_BASE};

/// Programs per `fuzz` wave: one 64-lane batched core.
pub const FUZZ_LANES: usize = 64;
/// Mutants sampled per block in `mutation`: at 255 mutants per chunk a
/// block spans up to three chunks.
pub const MUTANT_LIMIT: usize = 600;
/// Lanes per `mutation` settle: four 64-lane words (K=4).
pub const MUTATION_LANES: usize = 256;
/// Random formal-verification vectors per block in `verify`.
pub const VERIFY_SAMPLES: usize = 16384;
/// Worker threads of the `verify` shard policy.
pub const VERIFY_THREADS: usize = 2;
/// `mutation` ops re-run at another lane width after the measured window.
const MUTATION_RECHECKS: usize = 16;

/// The named workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figs 6–9 characterisation pipeline.
    Characterise,
    /// Differential fuzzing of the gate-level core against the emulator.
    Fuzz,
    /// Lane-parallel mutation coverage of library blocks.
    Mutation,
    /// Library admission: functional plus formal verification per block.
    Verify,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [Kind::Characterise, Kind::Fuzz, Kind::Mutation, Kind::Verify];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Characterise => "characterise",
            Kind::Fuzz => "fuzz",
            Kind::Mutation => "mutation",
            Kind::Verify => "verify",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stimulus lanes of the workload's simulations (for the JIT probe).
    pub fn lanes(self) -> usize {
        match self {
            Kind::Characterise => 1,
            Kind::Fuzz => FUZZ_LANES,
            Kind::Mutation | Kind::Verify => MUTATION_LANES,
        }
    }
}

/// What one op did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Items completed: designs, programs, mutants or vectors.
    pub items: u64,
    /// Whether every simulated output matched its pinned value or oracle.
    pub ok: bool,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs op `index`. Op inputs depend only on the seed and `index`, so
    /// running an index again repeats the same work.
    fn op(&mut self, index: usize) -> Outcome;
    /// Ops in one pass over the workload's inputs.
    fn pass_len(&self) -> usize;
    /// Simulated work of op `index`: committed lane-cycles where a core
    /// runs, otherwise the op's items. Called after the measured window.
    fn lane_cycles(&self, index: usize) -> u64;
    /// Checks made after the measured window; returns failed op indices.
    fn recheck(&mut self, ops: usize) -> Vec<usize>;
    /// Extra report lines.
    fn report(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Builds a workload from its seed.
pub fn setup(kind: Kind, seed: u64) -> Box<dyn Workload> {
    match kind {
        Kind::Characterise => Box::new(Characterise::new()),
        Kind::Fuzz => Box::new(Fuzz::new(seed)),
        Kind::Mutation => Box::new(Mutation::new(seed)),
        Kind::Verify => Box::new(Verify::new(seed)),
    }
}

/// SplitMix64 finaliser: derives independent input seeds from the run
/// seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        ^ index
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x6a09_e667);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a canonical text rendering of simulated outputs.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of one characterised design: gate counts, critical path, α,
/// CPI and fmax, with floats compared bit for bit.
pub fn design_digest(d: &CharacterisedDesign) -> u64 {
    let m = &d.metrics;
    digest(&format!(
        "{}|{}|{:?}|{:x}|{:x}|{:x}|{}",
        d.name,
        d.distinct,
        m.counts,
        m.critical_path_ns.to_bits(),
        m.activity.to_bits(),
        m.cpi.to_bits(),
        frequency_sweep(m).fmax_khz
    ))
}

/// Adds a simulator's work counters to the trace.
fn count_sim(sim: &CompiledSim, lanes: usize) {
    let s = sim.eval_stats();
    count("netlist.compiled.settles", s.settles as f64);
    count("netlist.compiled.ops_executed", s.ops_executed as f64);
    count("netlist.compiled.levels_skipped", s.levels_skipped as f64);
    count("netlist.compiled.full_sweeps", s.full_sweeps as f64);
    count("netlist.compiled.sims", 1.0);
    count(
        "netlist.compiled.jit_sims",
        f64::from(u8::from(sim.jit_active())),
    );
    // Each CPU cycle settles the core four times (PC, fetch, RF, DMEM).
    count(
        "rissp.cpu.lane_slots",
        (s.settles / 4 * lanes as u64) as f64,
    );
}

/// Runs `f` in a `probe` span: work outside the op, on the op's inputs.
/// Cache traffic the probe causes is counted so it can be taken out of
/// the op's cache statistics.
fn probe(f: impl FnOnce()) {
    let before = ProgramCache::global().stats();
    span("probe", f);
    let after = ProgramCache::global().stats();
    count("probe.cache.hits", (after.hits - before.hits) as f64);
    count("probe.cache.misses", (after.misses - before.misses) as f64);
    count(
        "probe.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// Probe: levelize/compile `netlist` and emit native code at `lanes`.
fn probe_compile(netlist: &Netlist, lanes: usize) {
    probe(|| compile_layers(netlist, lanes));
}

fn compile_layers(netlist: &Netlist, lanes: usize) {
    let prog = span("netlist.level.compile", || Program::compile(netlist));
    let code = span("netlist.jit.compile", || {
        netlist::jit::compile(&prog, lanes.div_ceil(64), &JitOptions::default())
    });
    if let Ok(code) = code {
        count("netlist.jit.code_bytes", code.code_bytes() as f64);
    }
}

// ---------------------------------------------------------------------
// characterise
// ---------------------------------------------------------------------

struct Characterise {
    lib: HwLibrary,
    tech: Tech,
    apps: Vec<workloads::Workload>,
    crc32: workloads::Workload,
    /// The latest result of each design, for the paper-accuracy row.
    last: Vec<Option<(CharacterisedDesign, SweepResult)>>,
}

impl Characterise {
    fn new() -> Characterise {
        let apps = workloads::all();
        let designs = apps.len() + 2;
        assert_eq!(
            designs,
            pinned::CHARACTERISE.len(),
            "pinned table covers every design"
        );
        Characterise {
            lib: HwLibrary::build_full(),
            tech: Tech::flexic_gen(),
            apps,
            crc32: workloads::by_name("crc32").expect("crc32 is in the suite"),
            last: (0..designs).map(|_| None).collect(),
        }
    }

    /// Design `j` of a pass, as `fig6_7_8_9` runs it single-threaded.
    fn design(&self, j: usize) -> CharacterisedDesign {
        let (lib, t) = (&self.lib, &self.tech);
        match j.checked_sub(self.apps.len()) {
            None => bench::characterise_workload(lib, &self.apps[j], t),
            Some(0) => bench::characterise_rv32e(lib, t, 1),
            Some(_) => bench::characterise_serv(&self.crc32),
        }
    }

    /// [`Characterise::design`] as the same calls, one span each.
    fn design_traced(&self, j: usize) -> CharacterisedDesign {
        let (lib, t) = (&self.lib, &self.tech);
        match j.checked_sub(self.apps.len()) {
            None => traced_workload(lib, &self.apps[j], t),
            Some(0) => traced_rv32e(lib, t),
            Some(_) => {
                let image = span("xcc.compile", || {
                    self.crc32.compile(OptLevel::O2).expect("compiles")
                });
                let cpi = span("serv.cpi", || {
                    serv_model::ServTiming.measure_cpi(&image.words, &image.data_segments)
                });
                CharacterisedDesign {
                    name: "Serv".into(),
                    distinct: riscv_isa::ALL_MNEMONICS.len(),
                    metrics: DesignMetrics {
                        name: "Serv".into(),
                        counts: serv_model::serv_gate_counts(),
                        critical_path_ns: serv_model::SERV_CRITICAL_PATH_NS,
                        activity: serv_model::SERV_ACTIVITY,
                        cpi,
                    },
                }
            }
        }
    }
}

/// `bench::characterise_workload`, call for call.
fn traced_workload(lib: &HwLibrary, w: &workloads::Workload, t: &Tech) -> CharacterisedDesign {
    let image = span("xcc.compile", || w.compile(OptLevel::O2).expect("compiles"));
    let subset = InstructionSubset::from_words(&image.words);
    let rissp = span("rissp.generate", || Rissp::generate(lib, &subset));
    let mut cpu = span("netlist.compiled.new", || GateLevelCpu::new(&rissp, 0));
    cpu.load_words(0, &image.words);
    for (base, words) in &image.data_segments {
        cpu.load_words(*base, words);
    }
    span("rissp.cpu.run", || {
        let _ = cpu.run(ACTIVITY_CYCLES);
    });
    count_sim(cpu.sim(), 1);
    count("rissp.cpu.lane_cycles", cpu.cycles() as f64);
    // The reference emulator over the same instruction window.
    probe(|| {
        let mut emu = Emulator::new();
        emu.load_words(0, &image.words);
        for (base, words) in &image.data_segments {
            emu.load_words(*base, words);
        }
        if let Ok(run) = span("emu.run", || emu.run(ACTIVITY_CYCLES)) {
            count("emu.retired", run.retired as f64);
        }
    });
    let activity = flexic::power::measured_activity(cpu.sim());
    let name = format!("RISSP-{}", w.name);
    let metrics = span("flexic", || {
        DesignMetrics::of_netlist(name.clone(), &rissp.core, t, activity)
    });
    probe_compile(&rissp.core, 1);
    CharacterisedDesign {
        name,
        distinct: subset.len(),
        metrics,
    }
}

/// `bench::characterise_rv32e(.., 1)`, call for call.
fn traced_rv32e(lib: &HwLibrary, t: &Tech) -> CharacterisedDesign {
    let rissp = span("rissp.generate", || Rissp::generate_full_isa(lib));
    let images: Vec<_> = span("xcc.compile", || {
        workloads::all()
            .iter()
            .map(|w| w.compile(OptLevel::O2).expect("compiles"))
            .collect()
    });
    let entries = vec![0u32; images.len()];
    let mut cpu = span("netlist.compiled.new", || {
        BatchedGateLevelCpu::new(&rissp, &entries)
    });
    for (lane, image) in images.iter().enumerate() {
        cpu.load_words(lane, 0, &image.words);
        for (base, words) in &image.data_segments {
            cpu.load_words(lane, *base, words);
        }
    }
    span("rissp.cpu.run", || {
        let _ = cpu.run(ACTIVITY_CYCLES);
    });
    count_sim(cpu.sim(), images.len());
    count("rissp.cpu.lane_cycles", cpu.committed_cycles() as f64);
    let activity = flexic::power::activity_from_counts(
        cpu.sim().toggles().iter().sum(),
        cpu.sim().toggles().len(),
        cpu.committed_cycles(),
        1,
    );
    let metrics = span("flexic", || {
        DesignMetrics::of_netlist("RISSP-RV32E", &rissp.core, t, activity)
    });
    probe_compile(&rissp.core, images.len());
    CharacterisedDesign {
        name: "RISSP-RV32E".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics,
    }
}

impl Workload for Characterise {
    fn op(&mut self, index: usize) -> Outcome {
        let j = index % self.pass_len();
        if j == 0 {
            // Each pass starts cold, as a fresh `fig6_7_8_9` process does.
            ProgramCache::global().clear();
        }
        let d = if trace::enabled() {
            self.design_traced(j)
        } else {
            self.design(j)
        };
        let (name, pin, _) = pinned::CHARACTERISE[j];
        let ok = d.name == name && design_digest(&d) == pin;
        let sweep = span("flexic", || frequency_sweep(&d.metrics));
        self.last[j] = Some((d, sweep));
        Outcome { items: 1, ok }
    }

    fn pass_len(&self) -> usize {
        self.apps.len() + 2
    }

    fn lane_cycles(&self, index: usize) -> u64 {
        pinned::CHARACTERISE[index % self.pass_len()].2
    }

    fn recheck(&mut self, _ops: usize) -> Vec<usize> {
        Vec::new()
    }

    fn report(&self) -> Vec<String> {
        paper_rows(&self.last)
    }
}

/// The modelled designs beside the paper's published ranges.
fn paper_rows(last: &[Option<(CharacterisedDesign, SweepResult)>]) -> Vec<String> {
    let Some(all): Option<Vec<_>> = last.iter().map(Option::as_ref).collect() else {
        return vec!["paper: no complete pass in this run".into()];
    };
    let (serv, rv32e, rissps) = (
        all[all.len() - 1],
        all[all.len() - 2],
        &all[..all.len() - 2],
    );
    let epi =
        |(d, s): &(CharacterisedDesign, SweepResult)| energy_per_instruction_nj(&d.metrics, s);
    let range = |f: fn(&SweepResult) -> f64| {
        let base = f(&rv32e.1);
        let vals: Vec<f64> = rissps
            .iter()
            .map(|(_, s)| 100.0 * (1.0 - f(s) / base))
            .collect();
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        format!("{lo:.0}%-{hi:.0}%")
    };
    let mean_epi = rissps.iter().map(|d| epi(d)).sum::<f64>() / rissps.len() as f64;
    vec![
        "paper accuracy (information only, not gated; the model is validated only against these published numbers):".into(),
        format!(
            "  Fig 7 area reduction vs RV32E:  model {}  paper 8%-43%",
            range(|s| s.avg_area_nand2)
        ),
        format!(
            "  Fig 8 power reduction vs RV32E: model {}  paper 3%-30%",
            range(|s| s.avg_power_mw)
        ),
        format!(
            "  Fig 9 Serv EPI / mean RISSP EPI: model {:.1}x  paper ~40x",
            epi(serv) / mean_epi
        ),
    ]
}

// ---------------------------------------------------------------------
// fuzz
// ---------------------------------------------------------------------

struct Fuzz {
    lib: HwLibrary,
    /// Program seed of wave 0, lane 0; wave `i` takes the next 64 seeds.
    /// Kept below 2^63 so `seed + i` never overflows in the campaign.
    base: u64,
}

impl Fuzz {
    fn new(seed: u64) -> Fuzz {
        Fuzz {
            lib: HwLibrary::build_full(),
            base: mix(seed, 0xf022) >> 1,
        }
    }

    fn config(&self, index: usize) -> FuzzConfig {
        FuzzConfig {
            iterations: FUZZ_LANES as u64,
            seed: self.base + (index * FUZZ_LANES) as u64,
            lanes: FUZZ_LANES,
            ..FuzzConfig::default()
        }
    }
}

/// Runs one program on the reference emulator, as the campaign does.
fn reference(image: &CompiledProgram, max_cycles: u64) -> (Emulator, u64) {
    let mut emu = Emulator::with_entry(CODE_BASE);
    image.load(&mut emu);
    let summary = emu.run(max_cycles).expect("generated programs never fault");
    assert_eq!(
        summary.halt,
        HaltReason::SelfLoop,
        "program halts in budget"
    );
    (emu, summary.retired)
}

/// One `differential_fuzz` wave, call for call, returning how many lanes
/// diverged from the reference.
fn traced_wave(lib: &HwLibrary, cfg: &FuzzConfig) -> usize {
    let seeds: Vec<u64> = (0..cfg.iterations).map(|i| cfg.seed + i).collect();
    let programs: Vec<_> = span("rissp.campaign.programs", || {
        seeds.iter().map(|&s| random_program(s)).collect()
    });
    let images: Vec<CompiledProgram> = span("xcc.compile", || {
        programs
            .iter()
            .map(|p| xcc::compile(p, cfg.opt_level).expect("generated programs compile"))
            .collect()
    });
    let subset = images
        .iter()
        .map(|i| InstructionSubset::from_words(&i.words))
        .fold(InstructionSubset::new(), |a, b| a.union(&b));
    let rissp = span("rissp.generate", || Rissp::generate(lib, &subset));
    let entries = vec![CODE_BASE; seeds.len()];
    let mut cpu = span("netlist.compiled.new", || {
        BatchedGateLevelCpu::new(&rissp, &entries)
    });
    for (lane, image) in images.iter().enumerate() {
        for (base, words) in image.segments() {
            cpu.load_words(lane, base, words);
        }
    }
    let refs: Vec<(Emulator, u64)> = span("emu.run", || {
        images
            .iter()
            .map(|i| reference(i, cfg.max_cycles))
            .collect()
    });
    count(
        "emu.retired",
        refs.iter().map(|&(_, r)| r).sum::<u64>() as f64,
    );
    let slowest = refs.iter().map(|&(_, r)| r).max().unwrap_or(0);
    let results = span("rissp.cpu.run", || cpu.run(cfg.max_cycles.min(slowest + 2)));
    count_sim(cpu.sim(), seeds.len());
    count("rissp.cpu.lane_cycles", cpu.committed_cycles() as f64);
    probe_compile(&rissp.core, seeds.len());
    span("rissp.campaign.compare", || {
        images
            .iter()
            .enumerate()
            .filter(|&(lane, image)| {
                let (emu, retired) = &refs[lane];
                let buf = image.global("buf").unwrap_or(DATA_BASE);
                results[lane] != Ok(retired + 1)
                    || (1..riscv_isa::REG_COUNT).any(|r| cpu.reg(lane, r) != emu.state().regs[r])
                    || (0..rissp::campaign::BUF_WORDS as u32).any(|w| {
                        let a = buf + 4 * w;
                        cpu.memory(lane).load_word(a) != emu.memory().load_word(a)
                    })
            })
            .count()
    })
}

impl Workload for Fuzz {
    fn op(&mut self, index: usize) -> Outcome {
        let cfg = self.config(index);
        let ok = if trace::enabled() {
            span("rissp.campaign.wave", || traced_wave(&self.lib, &cfg)) == 0
        } else {
            let report = differential_fuzz(&self.lib, &cfg);
            report.reproducers.is_empty() && report.waves == 1
        };
        Outcome {
            items: cfg.iterations,
            ok,
        }
    }

    fn pass_len(&self) -> usize {
        1
    }

    fn lane_cycles(&self, index: usize) -> u64 {
        // A lane that agrees with the reference commits its retired
        // instructions plus the halting jump.
        let cfg = self.config(index);
        (0..cfg.iterations)
            .map(|i| {
                let image = xcc::compile(&random_program(cfg.seed + i), cfg.opt_level)
                    .expect("generated programs compile");
                reference(&image, cfg.max_cycles).1 + 1
            })
            .sum()
    }

    fn recheck(&mut self, _ops: usize) -> Vec<usize> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// mutation
// ---------------------------------------------------------------------

struct Mutation {
    lib: HwLibrary,
    seed: u64,
    results: Vec<CoverageReport>,
}

impl Mutation {
    fn new(seed: u64) -> Mutation {
        Mutation {
            lib: HwLibrary::build_full(),
            seed,
            results: Vec::new(),
        }
    }

    fn block(&self, index: usize) -> &hwlib::InstrBlock {
        self.lib
            .iter()
            .nth(index % self.lib.len())
            .expect("index reduced mod len")
    }

    fn mutant_seed(&self, index: usize) -> u64 {
        mix(self.seed, index as u64)
    }
}

/// One block's lane-parallel mutation campaign, in a span, with its
/// verdict counts added to the trace.
fn campaign_block(block: &hwlib::InstrBlock, seed: u64) -> CoverageReport {
    let r = span("hwlib.campaign.block", || {
        lane_mutation_coverage(block, MUTANT_LIMIT, seed, MUTATION_LANES)
    });
    count("hwlib.campaign.generated", r.generated as f64);
    count("hwlib.campaign.observable", r.observable as f64);
    count("hwlib.campaign.killed", r.killed as f64);
    r
}

/// Probes the layers under one mutation op: sampling, instrumentation,
/// compile, JIT and the K-lane settle over the block's test vectors.
fn probe_mutation(block: &hwlib::InstrBlock, seed: u64) {
    let mutants = span("hwlib.mutate.mutants_of", || {
        mutants_of(block, MUTANT_LIMIT, seed)
    });
    let vectors = arch_test_vectors(block.mnemonic);
    for chunk in mutants.chunks(MUTATION_LANES - 1) {
        let refs: Vec<&Mutant> = chunk.iter().collect();
        let inst = span("hwlib.campaign.instrument", || {
            instrument(&block.netlist, &refs)
        });
        let lanes = refs.len() + 1;
        compile_layers(&inst, lanes);
        let mut sim = CompiledSim::with_lanes_arc(Arc::new(inst), lanes);
        span("netlist.compiled.settle", || {
            for v in &vectors {
                sim.set_bus(hwlib::ports::PC, v.pc);
                sim.set_bus(hwlib::ports::INSN, v.insn);
                sim.set_bus(hwlib::ports::RS1_DATA, v.rs1_data);
                sim.set_bus(hwlib::ports::RS2_DATA, v.rs2_data);
                sim.set_bus(hwlib::ports::DMEM_RDATA, v.dmem_rdata);
                sim.eval();
            }
        });
        count_sim(&sim, 0);
    }
}

impl Workload for Mutation {
    fn op(&mut self, index: usize) -> Outcome {
        let seed = self.mutant_seed(index);
        let block = self.block(index);
        let r = campaign_block(block, seed);
        if trace::enabled() {
            probe(|| probe_mutation(block, seed));
        }
        let ok = r.generated > 0 && r.killed <= r.observable && r.observable <= r.generated;
        if self.results.len() <= index {
            let empty = CoverageReport {
                generated: 0,
                observable: 0,
                killed: 0,
            };
            self.results.resize(index + 1, empty);
        }
        self.results[index] = r;
        Outcome {
            items: r.generated as u64,
            ok,
        }
    }

    fn pass_len(&self) -> usize {
        self.lib.len()
    }

    fn lane_cycles(&self, index: usize) -> u64 {
        self.results[index].generated as u64
    }

    /// Re-runs evenly spread ops at one lane word (63 mutants per chunk
    /// instead of 255) and compares the verdicts exactly.
    fn recheck(&mut self, ops: usize) -> Vec<usize> {
        let step = ops.div_ceil(MUTATION_RECHECKS).max(1);
        (0..ops)
            .step_by(step)
            .filter(|&i| {
                let r =
                    lane_mutation_coverage(self.block(i), MUTANT_LIMIT, self.mutant_seed(i), 64);
                r != self.results[i]
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------

struct Verify {
    lib: HwLibrary,
    seed: u64,
    policy: ShardPolicy,
    /// Vectors checked per sweep: functional plus formal, all blocks.
    vectors: u64,
    /// Per-block verdicts of the latest sweep.
    verdicts: Vec<bool>,
}

impl Verify {
    fn new(seed: u64) -> Verify {
        let lib = HwLibrary::build_full();
        let policy = ShardPolicy {
            shards: 8,
            lanes_per_shard: 64,
            threads: VERIFY_THREADS,
            ..ShardPolicy::single()
        };
        // Warm the program cache: one miss per block, then only hits.
        let cache = ProgramCache::global();
        cache.clear();
        for block in lib.iter() {
            cache.get_or_compile(&Arc::new(block.netlist.clone()));
        }
        let vectors = lib
            .iter()
            .map(|b| (arch_test_vectors(b.mnemonic).len() + VERIFY_SAMPLES) as u64)
            .sum();
        Verify {
            lib,
            seed,
            policy,
            vectors,
            verdicts: Vec::new(),
        }
    }
}

impl Workload for Verify {
    /// One `HwLibrary::verify_all_with` sweep: functional and formal
    /// verification of every block, with a fresh formal seed per sweep.
    fn op(&mut self, index: usize) -> Outcome {
        let seed = mix(self.seed, index as u64);
        self.verdicts.clear();
        for block in self.lib.iter() {
            let netlist = Arc::new(block.netlist.clone());
            let functional = span("hwlib.verify.functional", || {
                functional_verify_arc(block.mnemonic, netlist.clone(), self.policy)
            });
            let formal = span("hwlib.verify.formal", || {
                formal_verify_arc(block.mnemonic, netlist, VERIFY_SAMPLES, seed, self.policy)
            });
            self.verdicts.push(functional.is_ok() && formal.is_ok());
        }
        if trace::enabled() {
            probe(probe_pool);
            // Mutation coverage, the library's other verification step,
            // of one block per sweep: it reaches the campaign layers and
            // the K=4 compile and settle from this workload too.
            let block = self.lib.iter().nth(index % self.lib.len());
            let block = block.expect("index reduced mod len");
            probe(|| {
                campaign_block(block, seed);
                probe_mutation(block, seed);
            });
        }
        Outcome {
            items: self.vectors,
            ok: self.verdicts.iter().all(|&v| v),
        }
    }

    fn pass_len(&self) -> usize {
        1
    }

    fn lane_cycles(&self, _index: usize) -> u64 {
        self.vectors
    }

    fn recheck(&mut self, _ops: usize) -> Vec<usize> {
        Vec::new()
    }
}

/// Probe: round trips of an empty two-participant job on the shared pool.
fn probe_pool() {
    const TRIPS: usize = 32;
    let pool = netlist::WorkerPool::shared(1);
    span("netlist.pool.roundtrip", || {
        for _ in 0..TRIPS {
            pool.run(2, |_, _| {});
        }
    });
    count("netlist.pool.roundtrips", TRIPS as f64);
}

// ---------------------------------------------------------------------
// pinned digests
// ---------------------------------------------------------------------

/// Digests of every workload's simulated outputs at `seed`, one line per
/// item: each characterised design, the divergences of two fuzz waves,
/// the verdicts of one mutation pass and of two verify sweeps.
pub fn digests(seed: u64) -> String {
    let mut out = String::new();
    let c = Characterise::new();
    for j in 0..c.pass_len() {
        let d = c.design(j);
        // The traced composition must give the same design; it also
        // counts the committed lane-cycles the pinned table records.
        trace::enable();
        let same = design_digest(&c.design_traced(j)) == design_digest(&d);
        let (_, counts) = trace::take();
        let cycles = counts.get("rissp.cpu.lane_cycles").copied().unwrap_or(0.0);
        out += &format!(
            "characterise {} {:016x} {cycles} {}\n",
            d.name,
            design_digest(&d),
            if same {
                "traced-same"
            } else {
                "traced-DIFFERS"
            }
        );
    }
    let f = Fuzz::new(seed);
    for i in 0..2 {
        let r = differential_fuzz(&f.lib, &f.config(i));
        let seeds: Vec<u64> = r.reproducers.iter().map(|r| r.seed).collect();
        out += &format!("fuzz wave{i} divergences {seeds:?}\n");
    }
    let mut m = Mutation::new(seed);
    let mut text = String::new();
    for i in 0..m.pass_len() {
        m.op(i);
        text += &format!("{:?};", m.results[i]);
    }
    out += &format!("mutation pass {:016x}\n", digest(&text));
    out += &format!(
        "verify pass {:016x}\n",
        verify_pass_digest(seed, VERIFY_THREADS)
    );
    out
}

/// Digest of the per-block verdicts of two `verify` sweeps at `seed`,
/// run with `threads` shard threads.
pub fn verify_pass_digest(seed: u64, threads: usize) -> u64 {
    let mut v = Verify::new(seed);
    v.policy.threads = threads;
    let mut text = String::new();
    for i in 0..2 {
        v.op(i);
        text += &format!("{:?};", v.verdicts);
    }
    digest(&text)
}
