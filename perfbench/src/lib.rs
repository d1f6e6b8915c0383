//! End-to-end and per-layer benchmark of the SDE engine.
//!
//! The `sde-perfbench` binary runs one workload in a closed loop for a
//! fixed number of seconds and prints every metric by name with its unit;
//! see `README.md` in this directory for the workloads, the metrics and
//! how to run it. This library holds the parts the tests pin: the
//! workload builders with their expected outputs, the layer instruments,
//! the clock and the statistics helpers.

pub mod clock;
pub mod layers;
pub mod stats;
pub mod workload;
