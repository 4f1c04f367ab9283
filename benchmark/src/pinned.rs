//! Simulated outputs pinned at the commit that defined the benchmark.
//!
//! `--print-digests --seed {n}` prints the current values. Regenerate
//! this table only in a change that moves the paper's numbers on
//! purpose, and say so in that change.

/// Each `characterise` design in pass order: name,
/// [`crate::suite::design_digest`], and committed lane-cycles of its
/// gate-level run (0 for Serv, which runs on a cycle model).
pub const CHARACTERISE: [(&str, u64, u64); 27] = [
    ("RISSP-aha-mont64", 0x51814cae79937de0, 1500),
    ("RISSP-crc32", 0x521fda8dce3c8b2f, 1500),
    ("RISSP-cubic", 0x4ce69a174ce23f58, 1500),
    ("RISSP-edn", 0xc9299a3a7305e3df, 1500),
    ("RISSP-huffbench", 0x1404a69fff59a39a, 1500),
    ("RISSP-matmult-int", 0xf7b1c7a367a37727, 1500),
    ("RISSP-md5sum", 0xcf1a54a10d446e07, 1500),
    ("RISSP-minver", 0x8fd17ea7029d6d0a, 1500),
    ("RISSP-nbody", 0x78d41d8dd1c6b712, 1500),
    ("RISSP-nettle-aes", 0xb9f3fb26f002f6ff, 1500),
    ("RISSP-nettle-sha256", 0xdb819b5d641afb9f, 1500),
    ("RISSP-nsichneu", 0x704e91942045f123, 1500),
    ("RISSP-picojpeg", 0x3b811e7cac72269c, 1425),
    ("RISSP-primecount", 0xb4552ea80c936d94, 1500),
    ("RISSP-qrduino", 0xeed3142b25ff32ba, 1500),
    ("RISSP-sglib-combined", 0x68fd20271034559c, 1500),
    ("RISSP-slre", 0x33b8332f66d8d7d7, 859),
    ("RISSP-st", 0x3c48def3a4e3a883, 1500),
    ("RISSP-statemate", 0xbba10766675dd6b1, 1057),
    ("RISSP-tarfind", 0x0872648dd2d91fe4, 168),
    ("RISSP-ud", 0xd506dca0a7e18dcf, 1500),
    ("RISSP-wikisort", 0x99b54285a3537f2a, 1500),
    ("RISSP-armpit", 0xe255ac2b3531da66, 1500),
    ("RISSP-xgboost", 0x0ebf9bafd6e7413e, 1500),
    ("RISSP-af_detect", 0xaece9f5dfcc7be59, 1500),
    ("RISSP-RV32E", 0x9dfa9e96ae6c1055, 35009),
    ("Serv", 0xade97ffb521f7303, 0),
];

/// The seed the pass digests below were taken at.
pub const SEED: u64 = 1;

/// Digest of one `mutation` pass (every block's generated, observable
/// and killed counts) at [`SEED`].
pub const MUTATION_PASS: u64 = 0x24e65722688d5c20;

/// Digest of two `verify` sweeps (every block's verdict) at [`SEED`].
pub const VERIFY_PASS: u64 = 0xf51271d082150d13;
