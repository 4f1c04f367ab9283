//! Runs one benchmark workload and prints its report; the last line of
//! standard output is the JSON result. See `README.md` beside this crate.
//!
//! ```text
//! rissp-benchmark --workload <characterise|fuzz|mutation|verify> --seed <n> --seconds <s> --trace <0|1>
//! rissp-benchmark --print-digests --seed <n>
//! ```

use rissp_benchmark::suite::{self, Kind, Workload};
use rissp_benchmark::trace;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rissp-benchmark --workload <characterise|fuzz|mutation|verify> \
--seed <n> --seconds <s> --trace <0|1>\n       rissp-benchmark --print-digests --seed <n>";

/// Set-up is timed in this many bursts spread over the untraced window
/// (at its start, at each quarter mark and after it), so that `setup_s`
/// samples the host at several moments of the run.
const SETUP_BURSTS: usize = 5;
/// Set-ups per burst.
const SETUP_BURST_LEN: usize = 3;

/// Per-layer metrics of the traced run, with units, as `BENCHMARK.json`
/// lists them.
const LAYER_METRICS: [(&str, &str); 34] = [
    ("netlist.compiled.settles", "count"),
    ("netlist.compiled.ops_executed", "count"),
    ("netlist.compiled.levels_skipped", "count"),
    ("netlist.compiled.full_sweeps", "count"),
    ("netlist.compiled.jit_active_ratio", "ratio"),
    ("netlist.compiled.new_s", "s"),
    ("netlist.compiled.settle_s", "s"),
    ("rissp.cpu.run_s", "s"),
    ("rissp.cpu.lane_cycles", "count"),
    ("rissp.cpu.lane_utilization", "ratio"),
    ("netlist.level.compile_s", "s"),
    ("netlist.jit.compile_s", "s"),
    ("netlist.jit.code_bytes", "bytes"),
    ("netlist.cache.hits", "count"),
    ("netlist.cache.misses", "count"),
    ("netlist.cache.evictions", "count"),
    ("netlist.cache.hit_ratio", "ratio"),
    ("netlist.pool.roundtrip_us", "us"),
    ("netlist.pool.alive_workers", "count"),
    ("hwlib.verify.functional_s", "s"),
    ("hwlib.verify.formal_s", "s"),
    ("hwlib.mutate.mutants_of_s", "s"),
    ("hwlib.campaign.instrument_s", "s"),
    ("hwlib.campaign.block_s", "s"),
    ("hwlib.campaign.observable_ratio", "ratio"),
    ("hwlib.campaign.kill_ratio", "ratio"),
    ("rissp.generate_s", "s"),
    ("xcc.compile_s", "s"),
    ("emu.run_s", "s"),
    ("emu.retired", "count"),
    ("flexic_s", "s"),
    ("serv.cpi_s", "s"),
    ("benchmark.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    print_digests: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        print_digests: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            a.print_digests = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => a.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                a.seconds = Some(value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?)
            }
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Ops run in one measured phase.
#[derive(Default)]
struct Phase {
    ops: usize,
    items: Vec<u64>,
    latencies_s: Vec<f64>,
    failed: Vec<usize>,
    alive_workers: usize,
    /// Program-cache traffic of the ops alone.
    cache: netlist::CacheStats,
}

/// Runs ops from index 0 in a closed loop with one client until `more`
/// says stop, calling `between` with the elapsed time before each pass
/// after the first. A panic fails the op and the loop goes on.
fn run_phase(
    wl: &mut dyn Workload,
    more: impl Fn(usize, Duration) -> bool,
    mut between: impl FnMut(Duration),
) -> Phase {
    let mut p = Phase::default();
    let pass_len = wl.pass_len();
    let start = Instant::now();
    while more(p.ops, start.elapsed()) {
        if p.ops > 0 && p.ops % pass_len == 0 {
            between(start.elapsed());
        }
        let before = netlist::ProgramCache::global().stats();
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| trace::span("op", || wl.op(p.ops))));
        p.latencies_s.push(t.elapsed().as_secs_f64());
        p.cache = cache_sum(
            p.cache,
            cache_delta(before, netlist::ProgramCache::global().stats()),
        );
        match out {
            Ok(o) => {
                p.items.push(o.items);
                if !o.ok {
                    p.failed.push(p.ops);
                }
            }
            Err(_) => {
                p.items.push(0);
                p.failed.push(p.ops);
            }
        }
        p.alive_workers = p.alive_workers.max(netlist::pool::alive_workers());
        p.ops += 1;
    }
    p
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The upper quartile. On a shared host single-threaded code runs in two
/// speed modes ~1.6x apart that come and go over seconds; a set-up takes
/// milliseconds, so its samples split between the modes and their median
/// jumps between them from run to run, while the upper quartile stays in
/// the slow mode the host spends most of its time in.
fn upper_quartile(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[(3 * v.len()) / 4]
}

/// Work per second over the complete passes, where `work[i]` is op
/// `i`'s work; over every op when no pass completed. Whole passes keep
/// the mix of large and small ops the same in every run.
fn pass_rate(work: &[u64], latencies_s: &[f64], pass_len: usize) -> f64 {
    let n = match work.len() / pass_len * pass_len {
        0 => work.len(),
        n => n,
    };
    work[..n].iter().sum::<u64>() as f64 / latencies_s[..n].iter().sum::<f64>()
}

/// The highest percentile with at least ten samples above it (the
/// maximum when there are ten samples or fewer): (value, percentile).
fn tail(v: &[f64]) -> (f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = if n > 10 { n - 11 } else { n - 1 };
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Which code path produced the numbers: knobs, host, JIT, pool, cache.
fn path_report(kind: Kind, alive_workers: usize, cache: netlist::CacheStats) {
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("GATE_SIM_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // A fresh simulator at the workload's lane width shows whether the
    // default eval mode runs native code here.
    let lib = hwlib::HwLibrary::build_full();
    let block = lib.iter().next().expect("library has blocks");
    let sim = netlist::CompiledSim::with_lanes(&block.netlist, kind.lanes());
    println!(
        "env: {} nproc={nproc} jit.host_supported={}",
        if knobs.is_empty() {
            "GATE_SIM_* unset".to_string()
        } else {
            knobs.join(" ")
        },
        netlist::jit::host_supported()
    );
    println!(
        "path: jit_active(K={})={} pool.alive_workers(max after an op)={alive_workers} \
         cache: hits={} misses={} evictions={} hit_rate={:.3}",
        sim.lane_words(),
        sim.jit_active(),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.hit_rate()
    );
}

fn cache_delta(a: netlist::CacheStats, b: netlist::CacheStats) -> netlist::CacheStats {
    netlist::CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        bypasses: b.bypasses - a.bypasses,
        entries: b.entries,
    }
}

fn cache_sum(a: netlist::CacheStats, b: netlist::CacheStats) -> netlist::CacheStats {
    netlist::CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        bypasses: a.bypasses + b.bypasses,
        entries: b.entries,
    }
}

/// Times [`SETUP_BURST_LEN`] set-ups into `times`; returns the last.
fn setup_burst(kind: Kind, seed: u64, times: &mut Vec<f64>) -> Box<dyn Workload> {
    let mut wl = None;
    for _ in 0..SETUP_BURST_LEN {
        drop(wl.take());
        let t = Instant::now();
        wl = Some(suite::setup(kind, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    wl.expect("set up at least once")
}

/// Per-layer metrics from the traced phase.
fn layer_metrics(
    spans: &[trace::Span],
    counts: &BTreeMap<&'static str, f64>,
    cache: netlist::CacheStats,
    alive_workers: usize,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let selfs = trace::self_times(spans);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = cache.hits as f64 - c("probe.cache.hits");
    let misses = cache.misses as f64 - c("probe.cache.misses");
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "netlist.compiled.jit_active_ratio" => {
                    ratio(c("netlist.compiled.jit_sims"), c("netlist.compiled.sims"))
                }
                "rissp.cpu.lane_utilization" => {
                    ratio(c("rissp.cpu.lane_cycles"), c("rissp.cpu.lane_slots"))
                }
                "netlist.cache.hits" => hits,
                "netlist.cache.misses" => misses,
                "netlist.cache.evictions" => cache.evictions as f64 - c("probe.cache.evictions"),
                "netlist.cache.hit_ratio" => ratio(hits, hits + misses),
                "netlist.pool.roundtrip_us" => ratio(
                    1e6 * selfs.get("netlist.pool.roundtrip").copied().unwrap_or(0.0),
                    c("netlist.pool.roundtrips"),
                ),
                "netlist.pool.alive_workers" => alive_workers as f64,
                "hwlib.campaign.observable_ratio" => ratio(
                    c("hwlib.campaign.observable"),
                    c("hwlib.campaign.generated"),
                ),
                "hwlib.campaign.kill_ratio" => {
                    ratio(c("hwlib.campaign.killed"), c("hwlib.campaign.observable"))
                }
                "benchmark.op_s" => selfs.get("op").copied().unwrap_or(0.0),
                "trace.overhead_ratio" => overhead,
                _ => match name.strip_suffix("_s") {
                    Some(span) => selfs.get(span).copied().unwrap_or(0.0),
                    None => c(name),
                },
            };
            (name, value, unit)
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(seed) = args.seed else {
        eprintln!("error: --seed is required\n{USAGE}");
        std::process::exit(2);
    };
    if args.print_digests {
        print!("{}", suite::digests(seed));
        return;
    }
    let (Some(kind), Some(seconds), Some(traced)) = (args.workload, args.seconds, args.trace)
    else {
        eprintln!("error: --workload, --seconds and --trace are required\n{USAGE}");
        std::process::exit(2);
    };

    // Set-up: library build, workload inputs, cache warm-up.
    let mut setups = Vec::with_capacity(SETUP_BURSTS * SETUP_BURST_LEN);
    let mut wl = setup_burst(kind, seed, &mut setups);
    let window = Duration::from_secs(seconds);

    println!(
        "benchmark workload={} seed={seed} seconds={seconds} trace={} \
         (closed loop, one client)",
        kind.name(),
        u8::from(traced)
    );
    // The traced run measures half the window untraced, then repeats the
    // same ops traced, so the overhead ratio compares identical work.
    let untraced_window = if traced { window / 2 } else { window };
    let gaps = SETUP_BURSTS as u32 - 1;
    let mut marks = (1..gaps).map(|k| untraced_window * k / gaps).peekable();
    let untraced = run_phase(
        &mut *wl,
        |_, t| t < untraced_window,
        |t| {
            if marks.next_if(|&m| t >= m).is_some() {
                setup_burst(kind, seed, &mut setups);
            }
        },
    );
    while setups.len() < SETUP_BURSTS * SETUP_BURST_LEN {
        setup_burst(kind, seed, &mut setups);
    }
    let mut phases = vec![untraced];
    let mut trace_data = None;
    if traced {
        let n = phases[0].ops;
        trace::enable();
        let p = run_phase(&mut *wl, |i, _| i < n, |_| {});
        let (spans, counts) = trace::take();
        trace_data = Some((spans, counts, p.cache, p.alive_workers));
        phases.push(p);
    }
    let ops = phases[0].ops;
    // A recheck failure fails an op of the first phase that had passed.
    let rechecked = wl
        .recheck(ops)
        .into_iter()
        .filter(|i| !phases[0].failed.contains(i))
        .count();
    let attempted: usize = phases.iter().map(|p| p.ops).sum();
    let failed_ops = rechecked + phases.iter().map(|p| p.failed.len()).sum::<usize>();
    let alive = phases.iter().map(|p| p.alive_workers).max().unwrap_or(0);
    path_report(kind, alive, phases[0].cache);
    println!(
        "ops: attempted={attempted} failed={failed_ops} fail_ratio={:.6}",
        failed_ops as f64 / attempted.max(1) as f64
    );

    let metrics: Vec<(&str, f64, &str)> = if let Some((spans, counts, cache, alive)) = trace_data {
        let traced_wall: f64 = spans
            .iter()
            .filter(|s| s.name == "op" || s.name == "probe")
            .map(|s| (s.end_s - s.start_s) * if s.name == "op" { 1.0 } else { -1.0 })
            .sum();
        let overhead = traced_wall / phases[0].latencies_s.iter().sum::<f64>();
        let mut selfs: Vec<(&str, f64)> = trace::self_times(&spans)
            .into_iter()
            .filter(|(n, _)| *n != "probe")
            .collect();
        selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("self time per layer over {ops} traced ops (probe spans run outside the ops):");
        for (name, t) in &selfs {
            println!("  {name:<32} {t:>10.4} s");
        }
        if let Some((name, _)) = selfs.iter().find(|(n, _)| *n != "op") {
            println!("largest self time: {name}");
        }
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-{seed}.jsonl", kind.name()));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        layer_metrics(&spans, &counts, cache, alive, overhead)
    } else {
        let p = &phases[0];
        let lane_cycles: Vec<u64> = (0..p.ops).map(|i| wl.lane_cycles(i)).collect();
        let (tail_s, pct) = tail(&p.latencies_s);
        let pass_len = wl.pass_len();
        println!(
            "op latency: p50 over {} ops; tail = p{pct:.1} (the highest percentile with ten samples \
             above it); rates are over {} whole passes of {pass_len} op(s)",
            p.ops,
            p.ops / pass_len
        );
        vec![
            (
                "items_per_s",
                pass_rate(&p.items, &p.latencies_s, pass_len),
                "1/s",
            ),
            ("op_p50_ms", 1e3 * median(&p.latencies_s), "ms"),
            ("op_tail_ms", 1e3 * tail_s, "ms"),
            (
                "sim_instr_per_s",
                pass_rate(&lane_cycles, &p.latencies_s, pass_len),
                "1/s",
            ),
            ("setup_s", upper_quartile(&setups), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "pass_ratio",
                1.0 - failed_ops as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for line in wl.report() {
        println!("{line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed_ops}, \"metrics\": {}}}",
        failed_ops == 0,
        json_metrics(&metrics)
    );
}
