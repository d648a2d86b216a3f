//! Experiment harness for the `hdc` reproduction.
//!
//! Every quantitative claim, table and figure of the paper maps to one
//! experiment function here (see `DESIGN.md` for the index). The
//! `run_experiments` binary prints them; `EXPERIMENTS.md` archives a run.
//!
//! Timings are committed by the `bench_*` binaries, each row as
//! median/min/max over repeats: the paper's one timing claim (Figure 4,
//! E4) is [`throughput::run_fig4`], committed by `bench_recognize`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod frames;
pub mod kernels;
pub mod report;
pub mod serve;
pub mod streams;
pub mod throughput;

pub use experiments::{all_experiments, run_experiment, ExperimentId};
