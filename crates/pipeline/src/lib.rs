//! # ltp-pipeline
//!
//! A cycle-level, trace-driven out-of-order core model with Long Term Parking
//! (LTP) integration — the simulation substrate of the LTP reproduction.
//!
//! The model implements the structures whose sizes the paper studies
//! (Table 1): an 8-wide front end, rename with a register allocation table
//! and per-class free lists, a 256-entry ROB, an issue queue with
//! wakeup/select, load and store queues, a functional unit pool, a gshare
//! branch predictor and a three-level cache hierarchy with a stride
//! prefetcher and a DDR3-like DRAM model (from [`ltp_mem`]). The LTP unit
//! ([`ltp_core::LtpUnit`]) is driven from the rename, execute and commit
//! stages exactly as described in §5 of the paper.
//!
//! The main entry points are [`PipelineConfig`] (the machine description) and
//! [`Processor`] (the simulator). A run consumes an
//! [`ltp_isa::InstStream`] and produces a [`RunResult`] with CPI, MLP,
//! occupancy and LTP statistics.
//!
//! # Example
//!
//! ```
//! use ltp_pipeline::{PipelineConfig, Processor};
//! use ltp_isa::{ArchReg, DynInst, OpClass, Pc, StaticInst, VecStream};
//!
//! let insts: Vec<DynInst> = (0..100)
//!     .map(|s| {
//!         DynInst::new(
//!             s,
//!             StaticInst::new(Pc(0x400 + 4 * (s % 8)), OpClass::IntAlu)
//!                 .with_dst(ArchReg::int((s % 8 + 1) as usize)),
//!         )
//!     })
//!     .collect();
//! let mut cpu = Processor::new(PipelineConfig::micro2015_baseline());
//! let result = cpu.run(VecStream::new("quick", insts), 1_000).expect("no deadlock");
//! assert_eq!(result.instructions, 100);
//! assert!(result.ipc() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
mod config;
mod core;
mod free_list;
mod frontend;
mod fu;
mod iq;
mod lsq;
mod rat;
mod result;
mod rob;
mod sampling;
mod snapshot;
mod stages;
mod state;
#[cfg(test)]
mod tests;

pub use branch::{BranchPredictor, PredictorGeometry};
pub use config::{
    ClassifierTraining, FuCounts, PipelineConfig, SharePolicy, SmtConfig, WarmupConfig,
};
pub use core::{CycleView, Processor, RegFileSnapshot};
pub use free_list::FreeList;
pub use frontend::{FrontEnd, FrontEndState};
pub use fu::FuPool;
pub use iq::{IqEntry, IssueQueue};
pub use lsq::{LoadQueue, MemDepPredictor, StoreQueue};
pub use rat::{Rat, RegSource};
pub use result::{
    ActivityCounters, DeadlockSnapshot, OccupancyReport, RunError, RunResult, SmtRunResult,
};
pub use rob::{Rob, RobEntry, RobState};
pub use sampling::{FunctionalFastForward, FunctionalWarmState};
pub use snapshot::{Snapshot, SnapshotError};
pub use stages::{CommitSlot, StageBus, TimingWheel};
