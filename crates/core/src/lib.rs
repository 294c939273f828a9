//! # ltp-core
//!
//! The paper's contribution: **Long Term Parking (LTP)** — criticality-aware
//! allocation of out-of-order pipeline resources (Sembrant et al., MICRO 2015).
//!
//! LTP classifies every instruction at rename time along two axes:
//!
//! * **Urgency** — is the instruction an *ancestor* of a long-latency
//!   instruction (an LLC-missing load, a divide, a square root)? Urgent
//!   instructions must execute quickly because a long-latency instruction is
//!   waiting on their result; Non-Urgent instructions feed nothing critical.
//! * **Readiness** — is the instruction a *descendant* of an in-flight
//!   long-latency instruction? Non-Ready instructions cannot execute for a
//!   long time no matter how early they are given resources.
//!
//! Instructions that are Non-Urgent (and, in the extended design of the
//! appendix, Non-Ready) are *parked* in a cheap FIFO queue — the LTP — without
//! allocating an IQ entry or a physical register. They are woken either in
//! program order when they approach the head of the ROB (Non-Urgent), or out
//! of order when the long-latency instruction they wait on signals completion
//! through a *ticket* (Non-Ready).
//!
//! The main entry point is [`LtpUnit`], which a pipeline model drives with a
//! handful of calls (`at_rename`, `on_long_latency_load`, `release_in_order`,
//! …). The individual hardware structures of Figure 8/9 of the paper are also
//! exposed for unit testing and reuse:
//!
//! * [`Uit`] — the Urgent Instruction Table,
//! * [`RatExtension`] — the producer-PC / Parked-bit / ticket extension of the
//!   register allocation table,
//! * [`LtpQueue`] — the parking FIFO itself,
//! * [`TicketFile`] — tickets for waking Non-Ready instructions,
//! * [`DramTimerMonitor`] — the timer that power-gates LTP when there are no
//!   long-latency loads,
//! * [`Classifier`] — the criticality classifier the unit consults at rename,
//!   one of a closed set selected by [`ClassifierKind`]: the realistic UIT
//!   with its LLC hit/miss predictor, the limit study's perfect
//!   [`OracleClassifier`], or one of three controls.
//!
//! # Example
//!
//! ```
//! use ltp_core::{LtpConfig, LtpMode, LtpUnit, RenamedInst};
//! use ltp_isa::{ArchReg, OpClass, Pc, StaticInst, DynInst};
//!
//! let mut ltp = LtpUnit::new(LtpConfig::nu_only_128x4(), 200);
//! // A store with no consumers: Non-Urgent, parked while LTP is enabled.
//! let store = StaticInst::new(Pc(0x40), OpClass::Store).with_src(ArchReg::int(1));
//! ltp.note_long_latency_activity(0);            // pretend a DRAM miss armed the monitor
//! let decision = ltp.at_rename(&RenamedInst::from_dyn(&DynInst::new(0, store)), 0);
//! assert!(decision.parked());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod class;
mod classifier;
mod config;
mod monitor;
mod oracle;
mod queue;
mod rat_ext;
mod snap;
mod tickets;
mod uit;
mod unit;

pub use class::{Criticality, InstClass};
pub use classifier::{
    Classification, Classifier, ClassifierKind, LoadOutcome, RandomClassifier, UitClassifier,
};
pub use config::{LtpConfig, LtpMode};
pub use monitor::DramTimerMonitor;
pub use oracle::{OracleAnalysis, OracleClassifier};
pub use queue::{LtpQueue, ParkedInst};
pub use rat_ext::RatExtension;
pub use tickets::{Ticket, TicketFile, TicketSet};
pub use uit::Uit;
pub use unit::{LtpStats, LtpUnit, ParkDecision, RenamedInst};

/// Cycle timestamps, re-exported from the memory model for convenience.
pub type Cycle = ltp_mem::Cycle;
