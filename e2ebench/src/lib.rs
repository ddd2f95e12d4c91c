//! End-to-end and per-layer benchmark of the loopback TCP cluster: see
//! `LAYERS.md` for what each workload and metric is for, and
//! `src/main.rs` for the command line.

pub mod drive;
pub mod layers;
pub mod report;
pub mod spec;
