//! End-to-end and per-layer benchmark of the RISSP reproduction; see
//! `README.md` in this directory.

pub mod pinned;
pub mod suite;
pub mod trace;
