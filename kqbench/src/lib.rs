//! The KumQuat benchmark: one command that runs a named workload from a
//! seed, checks every output against the serial oracle, and prints every
//! metric by name with its unit. See README.md for the workloads, the
//! metrics and how to run it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod measure;
pub mod replay;
pub mod workload;

use std::path::PathBuf;

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.parent().map(PathBuf::from).unwrap_or(here)
}

/// Scratch space for generated inputs and spill files, inside the
/// benchmark's own directory (ignored by git).
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}
