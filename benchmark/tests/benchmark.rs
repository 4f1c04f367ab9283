//! The benchmark's own checks: pinned digests hold under every JIT
//! setting and thread count, a held-out seed runs clean, and every
//! metric the binary prints is declared in `BENCHMARK.json`.

use rissp_benchmark::pinned;
use rissp_benchmark::suite::{design_digest, verify_pass_digest, MUTANT_LIMIT, MUTATION_LANES};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rissp-benchmark");

/// A seed no pin or tuning run used.
const HELD_OUT_SEED: u64 = 0x00c0_ffee_d15c;

/// Runs the benchmark binary with every `GATE_SIM_*` knob cleared, then
/// `env` applied; returns standard output.
fn run(args: &[&str], env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(BIN);
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("GATE_SIM_")) {
        cmd.env_remove(k);
    }
    let out = cmd
        .args(args)
        .envs(env.iter().copied())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn pinned_digests() -> String {
    let mut s = String::new();
    for (name, digest, cycles) in pinned::CHARACTERISE {
        s += &format!("characterise {name} {digest:016x} {cycles} traced-same\n");
    }
    s += "fuzz wave0 divergences []\nfuzz wave1 divergences []\n";
    s += &format!("mutation pass {:016x}\n", pinned::MUTATION_PASS);
    s += &format!("verify pass {:016x}\n", pinned::VERIFY_PASS);
    s
}

#[test]
fn digests_match_pins_under_every_jit_setting() {
    let seed = pinned::SEED.to_string();
    let args = ["--print-digests", "--seed", seed.as_str()];
    let expected = pinned_digests();
    for env in [&[][..], &[("GATE_SIM_JIT", "0")], &[("GATE_SIM_JIT", "1")]] {
        assert_eq!(run(&args, env), expected, "GATE_SIM_JIT setting {env:?}");
    }
}

#[test]
fn digests_match_pins_on_one_and_two_threads() {
    let lib = hwlib::HwLibrary::build_full();
    let t = flexic::tech::Tech::flexic_gen();
    let apps = workloads::all();
    let mut designs = bench::characterise_workloads(&lib, &apps, &t, 2);
    designs.push(bench::characterise_rv32e(&lib, &t, 2));
    for (d, (name, digest, _)) in designs.iter().zip(pinned::CHARACTERISE) {
        assert_eq!((d.name.as_str(), design_digest(d)), (name, digest));
    }
    for threads in [1, 2] {
        assert_eq!(
            verify_pass_digest(pinned::SEED, threads),
            pinned::VERIFY_PASS,
            "verify on {threads} thread(s)"
        );
    }
    let cfg = hwlib::campaign::CampaignConfig {
        limit: MUTANT_LIMIT,
        seed: pinned::SEED,
        lanes: MUTATION_LANES,
        threads: 2,
    };
    let pooled = hwlib::campaign::library_mutation_coverage(&lib, &cfg);
    for (b, c) in lib.iter().zip(&pooled) {
        let one =
            hwlib::campaign::lane_mutation_coverage(b, MUTANT_LIMIT, pinned::SEED, MUTATION_LANES);
        assert_eq!(one, c.report, "{} on 1 vs 2 threads", b.mnemonic);
    }
}

/// The `"name"` values of one array in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// Metric names of the JSON result on the last line of `out`.
fn metric_names(out: &str) -> Vec<String> {
    let last = out.lines().last().expect("result line");
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{last}"
    );
    let metrics = &last[last.find("\"metrics\"").expect("metrics")..];
    let pieces: Vec<&str> = metrics.split("{\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn held_out_seed_runs_clean_and_reports_declared_metrics() {
    let seed = HELD_OUT_SEED.to_string();
    assert_eq!(declared("workloads"), ["characterise", "verify"]);
    // `fuzz` and `mutation` run by hand only (see README.md) but report
    // the same metrics.
    for w in ["characterise", "fuzz", "mutation", "verify"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                w,
                "--seed",
                &seed,
                "--seconds",
                "2",
                "--trace",
                trace,
            ];
            let out = run(&args, &[]);
            assert_eq!(metric_names(&out), declared(key), "{w} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "fuzz",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fuzz",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "fuzz", "--seconds", "1", "--trace", "0"],
    ] {
        let status = Command::new(BIN).args(args).output().expect("runs").status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
