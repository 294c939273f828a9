//! The integrated LTP unit driven by the pipeline's rename / execute / commit
//! stages (Figure 8 of the paper).

use crate::class::{Criticality, InstClass};
use crate::classifier::CriticalityClassifier;
use crate::config::LtpConfig;
use crate::monitor::DramTimerMonitor;
use crate::oracle::OracleClassifier;
use crate::queue::{LtpQueue, ParkedInst};
use crate::rat_ext::RatExtension;
use crate::tickets::{Ticket, TicketFile, TicketSet};
use crate::Cycle;
use inlinevec::InlineVec;
use ltp_isa::{ArchReg, DynInst, OpClass, Pc, SeqNum};
use std::collections::HashMap;

/// The information about an instruction that the LTP unit needs at rename.
///
/// This is a flattened view of a [`DynInst`] plus the one piece of
/// information only the pipeline knows: whether the memory dependence
/// predictor says the instruction depends on a *parked* store (§5.3).
#[derive(Debug, Clone)]
pub struct RenamedInst {
    /// Dynamic sequence number.
    pub seq: SeqNum,
    /// Program counter.
    pub pc: Pc,
    /// Operation class.
    pub op: OpClass,
    /// Destination architectural register, if any (zero register excluded).
    pub dst: Option<ArchReg>,
    /// Dataflow source registers (zero register and zero-idiom sources
    /// already removed). Inline storage: resolving a rename must not
    /// allocate.
    pub srcs: InlineVec<ArchReg, 4>,
    /// Whether the memory dependence predictor marked this (load) as
    /// dependent on a store that was parked.
    pub mem_dep_parked: bool,
}

impl RenamedInst {
    /// Builds the rename view of a dynamic instruction.
    #[must_use]
    pub fn from_dyn(inst: &DynInst) -> RenamedInst {
        let sinst = inst.static_inst();
        RenamedInst {
            seq: inst.seq(),
            pc: inst.pc(),
            op: inst.op(),
            dst: sinst.dst().filter(|d| !d.is_zero()),
            srcs: sinst.dataflow_srcs().collect(),
            mem_dep_parked: false,
        }
    }

    /// Marks the instruction as predicted dependent on a parked store.
    #[must_use]
    pub fn with_mem_dep_parked(mut self, parked: bool) -> RenamedInst {
        self.mem_dep_parked = parked;
        self
    }
}

/// The outcome of presenting an instruction to the LTP unit at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkDecision {
    /// The criticality assigned to the instruction.
    pub class: Criticality,
    /// Whether the instruction was parked in LTP (if `false` it must be
    /// dispatched to the IQ and allocated resources as usual).
    pub park: bool,
    /// The ticket allocated to this instruction if it was identified as a
    /// long-latency producer (Non-Ready tracking only).
    pub ticket: Option<Ticket>,
    /// Whether the instruction is predicted (or known, with the oracle) to be
    /// long-latency. The pipeline marks the ROB entry with this so that the
    /// Non-Urgent wakeup boundary (§3.2) sees long-latency instructions
    /// before they execute.
    pub long_latency_hint: bool,
}

impl ParkDecision {
    /// Whether the instruction was parked.
    #[must_use]
    pub fn parked(&self) -> bool {
        self.park
    }
}

/// Counters exported by the LTP unit.
#[derive(Debug, Clone, Default)]
pub struct LtpStats {
    /// Instructions classified, per class (`InstClass::ALL` order).
    pub classified: [u64; 4],
    /// Instructions parked, per class.
    pub parked: [u64; 4],
    /// Parked loads / stores (Figure 7, rows 3 and 4).
    pub parked_loads: u64,
    /// Parked stores.
    pub parked_stores: u64,
    /// Instructions that should have been parked but were dispatched because
    /// the LTP was full or out of ports.
    pub park_overflows: u64,
    /// Instructions released by the in-order (ROB proximity) path.
    pub released_in_order: u64,
    /// Instructions released by the out-of-order (ticket) path.
    pub released_out_of_order: u64,
    /// Instructions force-released for deadlock avoidance.
    pub force_released: u64,
    /// Total parked-residency cycles (for mean residency).
    pub residency_cycles: u64,
    /// Number of released instructions contributing to `residency_cycles`.
    pub residency_count: u64,
}

impl LtpStats {
    /// Total instructions classified.
    #[must_use]
    pub fn total_classified(&self) -> u64 {
        self.classified.iter().sum()
    }

    /// Total instructions parked.
    #[must_use]
    pub fn total_parked(&self) -> u64 {
        self.parked.iter().sum()
    }

    /// Fraction of classified instructions that were parked.
    #[must_use]
    pub fn park_fraction(&self) -> f64 {
        let total = self.total_classified();
        if total == 0 {
            0.0
        } else {
            self.total_parked() as f64 / total as f64
        }
    }

    /// Mean number of cycles a parked instruction spent in LTP.
    #[must_use]
    pub fn mean_residency(&self) -> f64 {
        if self.residency_count == 0 {
            0.0
        } else {
            self.residency_cycles as f64 / self.residency_count as f64
        }
    }

    fn class_index(class: InstClass) -> usize {
        InstClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class is a member of ALL")
    }
}

/// The Long Term Parking unit: classification, parking and wakeup.
#[derive(Debug, Clone)]
pub struct LtpUnit {
    pub(crate) cfg: LtpConfig,
    pub(crate) classifier: Box<dyn CriticalityClassifier>,
    pub(crate) rat_ext: RatExtension,
    pub(crate) queue: LtpQueue,
    pub(crate) tickets: TicketFile,
    pub(crate) monitor: DramTimerMonitor,
    /// Whether the default classifier built from the configuration was
    /// replaced through [`LtpUnit::set_oracle`] / [`LtpUnit::set_classifier`]
    /// (the pipeline refuses to run an Oracle-configured machine that never
    /// had anything attached).
    pub(crate) classifier_attached: bool,
    /// seq -> ticket owned by that (predicted long-latency) instruction.
    pub(crate) ticket_owner: HashMap<u64, Ticket>,
    pub(crate) stats: LtpStats,
}

impl LtpUnit {
    /// Creates an LTP unit. `monitor_timeout` is the DRAM latency used to arm
    /// the on/off timer (§5.2); pass the hierarchy's
    /// [`typical_dram_latency`](ltp_mem::MemoryHierarchy::typical_dram_latency).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`LtpConfig::validate`]).
    #[must_use]
    pub fn new(cfg: LtpConfig, monitor_timeout: u64) -> LtpUnit {
        cfg.validate();
        let queue = if cfg.mode.is_enabled() {
            LtpQueue::new(cfg.entries, cfg.ports.min(64))
        } else {
            LtpQueue::new(1, 1)
        };
        LtpUnit {
            classifier: cfg.classifier.build(cfg.uit_entries),
            rat_ext: RatExtension::new(),
            queue,
            tickets: TicketFile::new(cfg.num_tickets.max(1)),
            monitor: DramTimerMonitor::new(monitor_timeout.max(1)),
            classifier_attached: false,
            // One key per ticket in use; twice that room keeps the map at
            // most half full, so clearing tombstones never grows it
            // (unlimited tickets take the same 1024-entry cap as the IQ).
            ticket_owner: HashMap::with_capacity(2 * cfg.num_tickets.clamp(1, 1024)),
            stats: LtpStats::default(),
            cfg,
        }
    }

    /// Attaches an oracle classifier (perfect classification, used in the
    /// limit study). When present, urgency/readiness and long-latency
    /// identification come from the oracle instead of the UIT and the
    /// hit/miss predictor.
    pub fn set_oracle(&mut self, oracle: OracleClassifier) {
        self.classifier = Box::new(oracle);
        self.classifier_attached = true;
    }

    /// Replaces the criticality classifier. Classification state learned so
    /// far (UIT contents, predictor counters) is discarded with the old
    /// classifier.
    pub fn set_classifier(&mut self, classifier: Box<dyn CriticalityClassifier>) {
        self.classifier = classifier;
        self.classifier_attached = true;
    }

    /// Whether a classifier was explicitly attached (via
    /// [`LtpUnit::set_oracle`] or [`LtpUnit::set_classifier`]) rather than
    /// built from the configuration's default.
    #[must_use]
    pub fn classifier_attached(&self) -> bool {
        self.classifier_attached
    }

    /// Exports the serialisable state of the current classifier, or `None`
    /// when the classifier does not support snapshotting. Used (with
    /// [`LtpUnit::monitor_state`]) to capture the warm half of a functional
    /// fast-forward: everything warm-up trains inside this unit.
    #[must_use]
    pub fn classifier_state(&self) -> Option<crate::ClassifierState> {
        self.classifier.snapshot_state()
    }

    /// Restores previously captured classifier state *without* marking the
    /// classifier as externally attached (unlike [`LtpUnit::set_classifier`]).
    /// The restored unit is indistinguishable from one whose
    /// configuration-built classifier observed the same outcome stream, so
    /// an Oracle-configured unit still demands
    /// [`LtpUnit::set_oracle`] before a detailed run.
    pub fn restore_classifier_state(&mut self, state: crate::ClassifierState) {
        self.classifier = state.into_classifier();
    }

    /// The on/off monitor's current state (timer arm, accumulated enabled
    /// cycles) — the other half of what functional warm-up trains here.
    #[must_use]
    pub fn monitor_state(&self) -> DramTimerMonitor {
        self.monitor.clone()
    }

    /// Restores previously captured monitor state. The monitor's timeout is
    /// derived from the DRAM latency of the memory geometry, so restoring
    /// across configurations is only exact when the memory configuration
    /// matches the one the state was captured under.
    pub fn restore_monitor_state(&mut self, monitor: DramTimerMonitor) {
        self.monitor = monitor;
    }

    /// The configuration of this unit.
    #[must_use]
    pub fn config(&self) -> &LtpConfig {
        &self.cfg
    }

    /// Whether LTP is currently enabled (mode on and, if the monitor is used,
    /// long-latency activity observed recently).
    pub fn enabled(&mut self, now: Cycle) -> bool {
        self.cfg.mode.is_enabled() && (!self.cfg.use_monitor || self.monitor.enabled(now))
    }

    /// Arms the monitor as if an LLC miss had just been observed. Exposed for
    /// examples and tests; the pipeline normally calls
    /// [`LtpUnit::on_load_outcome`].
    pub fn note_long_latency_activity(&mut self, now: Cycle) {
        self.monitor.note_llc_miss(now);
    }

    /// Number of instructions currently parked.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.queue.occupancy()
    }

    /// Number of parked instructions that will need a destination register
    /// when released (the "Regs. in LTP" row of Figure 7).
    #[must_use]
    pub fn parked_writers(&self) -> usize {
        self.queue.parked_writers()
    }

    /// Number of parked loads.
    #[must_use]
    pub fn parked_loads(&self) -> usize {
        self.queue.parked_loads()
    }

    /// Number of parked stores.
    #[must_use]
    pub fn parked_stores(&self) -> usize {
        self.queue.parked_stores()
    }

    /// Sequence number of the oldest parked instruction, if any.
    #[must_use]
    pub fn oldest_parked(&self) -> Option<SeqNum> {
        self.queue.oldest()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &LtpStats {
        &self.stats
    }

    /// Fraction of `total_cycles` during which LTP was enabled (Figure 7,
    /// bottom row).
    #[must_use]
    pub fn enabled_fraction(&self, total_cycles: u64) -> f64 {
        if !self.cfg.mode.is_enabled() {
            return 0.0;
        }
        if !self.cfg.use_monitor {
            return 1.0;
        }
        self.monitor.enabled_fraction(total_cycles)
    }

    /// Classifies an instruction and decides whether to park it. Must be
    /// called for **every** instruction in program order at rename, even when
    /// LTP is disabled, so that the producer-PC tracking and ticket
    /// inheritance stay coherent.
    pub fn at_rename(&mut self, inst: &RenamedInst, now: Cycle) -> ParkDecision {
        let enabled = self.enabled(now);

        // --- classification -------------------------------------------------
        // The classifier decides urgency and long-latency production; the
        // unit itself tracks readiness by inheriting tickets from the RAT
        // extension (which only ever holds tickets when Non-Ready parking
        // allocates them). Producer PCs are resolved lazily so only the
        // classifiers (and instructions) that need them pay for the lookups.
        let rat_ext = &self.rat_ext;
        let assessment = self
            .classifier
            .assess(inst, &|src| rat_ext.producer_pc(src));
        let urgent = assessment.urgent;
        let is_long_latency_producer = assessment.long_latency;
        let mut inherited_tickets = TicketSet::new();
        for &s in &inst.srcs {
            inherited_tickets.union_with(self.rat_ext.tickets(s));
        }
        if assessment.force_ready {
            inherited_tickets = TicketSet::new();
        }
        let ready = inherited_tickets.is_empty();
        let class = Criticality { urgent, ready };
        self.stats.classified[LtpStats::class_index(class.class())] += 1;

        // --- ticket allocation for long-latency producers --------------------
        let own_ticket = if self.cfg.mode.parks_non_ready() && is_long_latency_producer {
            let t = self.tickets.allocate();
            if let Some(t) = t {
                self.ticket_owner.insert(inst.seq.0, t);
            }
            t
        } else {
            None
        };

        // Tickets carried by this instruction's result: everything it waits
        // on, plus its own ticket if it is itself long latency.
        let mut dest_tickets = inherited_tickets.clone();
        if let Some(t) = own_ticket {
            dest_tickets.insert(t);
        }

        // --- parking decision -------------------------------------------------
        let src_parked =
            inst.mem_dep_parked || inst.srcs.iter().any(|&s| self.rat_ext.is_parked(s));

        let wants_park = enabled
            && ((self.cfg.mode.parks_non_urgent() && !urgent)
                || (self.cfg.mode.parks_non_ready() && !ready)
                || src_parked);

        let parked = if wants_park {
            let entry = ParkedInst {
                seq: inst.seq,
                class,
                tickets: if self.cfg.mode.parks_non_ready() {
                    inherited_tickets
                } else {
                    TicketSet::new()
                },
                parked_at: now,
                writes_reg: inst.dst.is_some(),
                is_load: inst.op.is_load(),
                is_store: inst.op.is_store(),
            };
            if self.queue.can_park(now) && self.queue.park(entry, now) {
                self.stats.parked[LtpStats::class_index(class.class())] += 1;
                if inst.op.is_load() {
                    self.stats.parked_loads += 1;
                }
                if inst.op.is_store() {
                    self.stats.parked_stores += 1;
                }
                true
            } else {
                self.stats.park_overflows += 1;
                false
            }
        } else {
            false
        };

        // --- update the RAT extension for the destination --------------------
        if let Some(dst) = inst.dst {
            self.rat_ext
                .write(dst, inst.pc, inst.seq, parked, dest_tickets);
        }

        ParkDecision {
            class,
            park: parked,
            ticket: own_ticket,
            long_latency_hint: is_long_latency_producer,
        }
    }

    /// Reports the outcome of an executed load: whether it missed the LLC
    /// (making it a long-latency load). Feeds the classifier (hit/miss
    /// predictor and UIT learning in the realistic design) and arms the
    /// on/off monitor.
    pub fn on_load_outcome(&mut self, pc: Pc, was_llc_miss: bool, now: Cycle) {
        self.classifier.on_load_outcome(pc, was_llc_miss);
        if was_llc_miss {
            self.monitor.note_llc_miss(now);
        }
    }

    /// Batched [`LtpUnit::on_load_outcome`]: feeds a whole run of observed
    /// load outcomes (in order) with one classifier dispatch. Classifier
    /// state and monitor state are disjoint, so updating the classifier for
    /// the whole batch before replaying the monitor arms leaves the unit in
    /// exactly the state the per-load calls would have produced. This is the
    /// functional fast-forward hot path: one call per sample interval.
    pub fn on_load_outcomes(&mut self, outcomes: &[crate::LoadOutcome]) {
        self.classifier.on_load_outcomes(outcomes);
        for o in outcomes {
            if o.missed_llc {
                self.monitor.note_llc_miss(o.now);
            }
        }
    }

    /// Marks the instruction at `pc` as long-latency (ancestor seed). Useful
    /// when the caller identifies long-latency work that is not a load, e.g.
    /// a divide whose consumers should be treated as Non-Ready.
    pub fn mark_urgent(&mut self, pc: Pc) {
        self.classifier.note_urgent(pc);
    }

    /// Signals that the (predicted) long-latency instruction `seq` is about
    /// to complete: its ticket, if any, is broadcast-cleared from the RAT
    /// extension and from every parked instruction, and returned to the
    /// ticket pool. Returns the number of parked instructions that became
    /// fully ready.
    pub fn on_long_latency_completing(&mut self, seq: SeqNum, _now: Cycle) -> usize {
        let Some(ticket) = self.ticket_owner.remove(&seq.0) else {
            return 0;
        };
        self.rat_ext.clear_ticket_everywhere(ticket);
        let became_ready = self.queue.clear_ticket(ticket);
        self.tickets.release(ticket);
        became_ready
    }

    /// Releases parked instructions in program order whose sequence number is
    /// older than `wake_before` (the next long-latency instruction in the
    /// ROB, or the ROB tail). At most `max` instructions are released, subject
    /// to the LTP port limit.
    pub fn release_in_order(
        &mut self,
        wake_before: SeqNum,
        max: usize,
        now: Cycle,
    ) -> Vec<ParkedInst> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop_release_in_order(wake_before, now) {
                Some(inst) => out.push(inst),
                None => break,
            }
        }
        out
    }

    /// Releases the next in-order (ROB proximity) instruction, or `None`
    /// when the head does not qualify. Allocation-free building block of
    /// [`LtpUnit::release_in_order`], used by the pipeline's per-cycle
    /// release loop.
    pub fn pop_release_in_order(&mut self, wake_before: SeqNum, now: Cycle) -> Option<ParkedInst> {
        let released = self.queue.pop_release_in_order(wake_before, now)?;
        self.finish_release(std::slice::from_ref(&released), now, false);
        self.stats.released_in_order += 1;
        Some(released)
    }

    /// Releases up to `max` Urgent instructions whose tickets have all
    /// cleared, out of order (appendix A).
    pub fn release_ready_out_of_order(&mut self, max: usize, now: Cycle) -> Vec<ParkedInst> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop_release_ready_out_of_order(now) {
                Some(inst) => out.push(inst),
                None => break,
            }
        }
        out
    }

    /// Releases the oldest ticket-clear Urgent instruction out of order, or
    /// `None` when no candidate exists. Allocation-free building block of
    /// [`LtpUnit::release_ready_out_of_order`].
    pub fn pop_release_ready_out_of_order(&mut self, now: Cycle) -> Option<ParkedInst> {
        let released = self.queue.pop_release_ready_out_of_order(now)?;
        self.finish_release(std::slice::from_ref(&released), now, false);
        self.stats.released_out_of_order += 1;
        Some(released)
    }

    /// Force-releases the oldest parked instruction regardless of wakeup
    /// conditions (deadlock avoidance, §5.4).
    pub fn force_release_oldest(&mut self, now: Cycle) -> Option<ParkedInst> {
        let released = self.queue.force_release_oldest(now);
        if let Some(inst) = &released {
            self.finish_release(std::slice::from_ref(inst), now, true);
        }
        released
    }

    fn finish_release(&mut self, released: &[ParkedInst], now: Cycle, forced: bool) {
        for inst in released {
            self.rat_ext.unpark_producer(inst.seq);
            self.stats.residency_cycles += now.saturating_sub(inst.parked_at);
            self.stats.residency_count += 1;
            if forced {
                self.stats.force_released += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::StaticInst;

    fn unit(mode: crate::LtpMode) -> LtpUnit {
        use crate::LtpMode;
        let cfg = match mode {
            LtpMode::Off => LtpConfig::disabled(),
            m => LtpConfig::ideal(m).with_monitor(false),
        };
        LtpUnit::new(cfg, 200)
    }

    fn alu(seq: u64, pc: u64, dst: usize, srcs: &[usize]) -> RenamedInst {
        let mut s = StaticInst::new(Pc(pc), OpClass::IntAlu).with_dst(ArchReg::int(dst));
        for &r in srcs {
            s = s.with_src(ArchReg::int(r));
        }
        RenamedInst::from_dyn(&DynInst::new(seq, s))
    }

    fn load(seq: u64, pc: u64, dst: usize, addr_reg: usize) -> RenamedInst {
        let s = StaticInst::new(Pc(pc), OpClass::Load)
            .with_dst(ArchReg::int(dst))
            .with_src(ArchReg::int(addr_reg));
        RenamedInst::from_dyn(&DynInst::new(seq, s))
    }

    fn store(seq: u64, pc: u64, data_reg: usize) -> RenamedInst {
        let s = StaticInst::new(Pc(pc), OpClass::Store)
            .with_src(ArchReg::int(data_reg))
            .with_src(ArchReg::int(31));
        RenamedInst::from_dyn(&DynInst::new(seq, s))
    }

    use crate::LtpMode;

    #[test]
    fn disabled_unit_never_parks() {
        let mut ltp = unit(LtpMode::Off);
        let d = ltp.at_rename(&store(0, 0x10, 1), 0);
        assert!(!d.parked());
        assert_eq!(ltp.occupancy(), 0);
    }

    #[test]
    fn unknown_instructions_are_non_urgent_and_parked() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        let d = ltp.at_rename(&alu(0, 0x10, 1, &[2]), 0);
        assert!(d.class.non_urgent());
        assert!(d.parked());
        assert_eq!(ltp.stats().total_parked(), 1);
    }

    #[test]
    fn uit_learning_makes_ancestors_urgent() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        // Loop body: A (addr gen) -> B (load that misses).
        // Iteration 1: nothing is known, both park.
        let a1 = ltp.at_rename(&alu(0, 0x100, 1, &[2]), 0);
        let b1 = ltp.at_rename(&load(1, 0x104, 3, 1), 0);
        assert!(a1.class.non_urgent() && b1.class.non_urgent());
        // The load turns out to be an LLC miss.
        ltp.on_load_outcome(Pc(0x104), true, 10);
        // Iteration 2: the load is now Urgent; its address producer is
        // inserted into the UIT while renaming the load.
        let _a2 = ltp.at_rename(&alu(2, 0x100, 1, &[2]), 20);
        let b2 = ltp.at_rename(&load(3, 0x104, 3, 1), 20);
        assert!(b2.class.urgent, "missing load must be urgent");
        // Iteration 3: the address generator is now known urgent too.
        let a3 = ltp.at_rename(&alu(4, 0x100, 1, &[2]), 40);
        assert!(
            a3.class.urgent,
            "address generator becomes urgent after backward propagation"
        );
        assert!(!a3.parked());
    }

    #[test]
    fn parked_bit_propagates_to_consumers() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        // Make PC 0x200 urgent so it would normally not park.
        ltp.mark_urgent(Pc(0x200));
        // Producer parks (non-urgent).
        let p = ltp.at_rename(&alu(0, 0x100, 5, &[6]), 0);
        assert!(p.parked());
        // Consumer is urgent but reads the parked value: it must park too to
        // avoid waiting in the IQ for a parked producer.
        let c = ltp.at_rename(&alu(1, 0x200, 7, &[5]), 0);
        assert!(c.class.urgent);
        assert!(c.parked());
    }

    #[test]
    fn release_clears_parked_bit() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        ltp.mark_urgent(Pc(0x200));
        let _ = ltp.at_rename(&alu(0, 0x100, 5, &[6]), 0);
        let released = ltp.release_in_order(SeqNum(100), 16, 1);
        assert_eq!(released.len(), 1);
        // Now the consumer of r5 no longer inherits a parked bit.
        let c = ltp.at_rename(&alu(1, 0x200, 7, &[5]), 2);
        assert!(!c.parked());
        assert!(ltp.stats().released_in_order >= 1);
        assert!(ltp.stats().mean_residency() >= 0.0);
    }

    #[test]
    fn monitor_gates_parking() {
        let cfg = LtpConfig::nu_only_128x4();
        let mut ltp = LtpUnit::new(cfg, 200);
        // No long-latency activity yet: nothing parks.
        let d = ltp.at_rename(&store(0, 0x10, 1), 0);
        assert!(!d.parked());
        // After an LLC miss the monitor enables LTP.
        ltp.on_load_outcome(Pc(0x40), true, 10);
        let d = ltp.at_rename(&store(1, 0x10, 1), 11);
        assert!(d.parked());
        // Long after the timer expires, parking stops again.
        let d = ltp.at_rename(&store(2, 0x10, 1), 10_000);
        assert!(!d.parked());
        assert!(ltp.enabled_fraction(10_000) > 0.0);
    }

    #[test]
    fn finite_queue_overflows_to_dispatch() {
        let cfg = LtpConfig::nu_only_128x4()
            .with_entries(2)
            .with_ports(8)
            .with_monitor(false);
        let mut ltp = LtpUnit::new(cfg, 200);
        assert!(ltp.at_rename(&store(0, 0x10, 1), 0).parked());
        assert!(ltp.at_rename(&store(1, 0x14, 1), 0).parked());
        let d = ltp.at_rename(&store(2, 0x18, 1), 0);
        assert!(!d.parked(), "full LTP must fall back to normal dispatch");
        assert_eq!(ltp.stats().park_overflows, 1);
    }

    #[test]
    fn non_ready_tracking_with_tickets() {
        let mut ltp = unit(LtpMode::Both);
        // Teach the predictor that the load at 0x104 misses (enough updates
        // to saturate the counters for every history pattern).
        for _ in 0..12 {
            ltp.on_load_outcome(Pc(0x104), true, 0);
        }
        // The load itself: urgent (it is in the UIT after missing) and a
        // long-latency producer, so it gets a ticket.
        let b = ltp.at_rename(&load(0, 0x104, 3, 1), 10);
        assert!(b.ticket.is_some());
        assert!(!b.parked(), "an urgent+ready load is dispatched");
        // A consumer of the load's result is Non-Ready and parks.
        let f = ltp.at_rename(&alu(1, 0x108, 4, &[3]), 10);
        assert!(f.class.non_ready());
        assert!(f.parked());
        // Nothing wakes before the ticket clears, even past the ROB boundary.
        assert!(ltp.release_in_order(SeqNum(100), 16, 11).is_empty());
        // When the load signals completion, the consumer becomes releasable.
        let woke = ltp.on_long_latency_completing(SeqNum(0), 300);
        assert_eq!(woke, 1);
        let released = ltp.release_in_order(SeqNum(100), 16, 301);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].seq, SeqNum(1));
    }

    #[test]
    fn mem_dep_parked_forces_parking() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        ltp.mark_urgent(Pc(0x300));
        let inst = load(0, 0x300, 2, 1).with_mem_dep_parked(true);
        let d = ltp.at_rename(&inst, 0);
        assert!(d.class.urgent);
        assert!(
            d.parked(),
            "predicted dependence on a parked store parks the load"
        );
    }

    #[test]
    fn force_release_breaks_deadlock() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        let _ = ltp.at_rename(&store(0, 0x10, 1), 0);
        let inst = ltp
            .force_release_oldest(1)
            .expect("one instruction is parked");
        assert_eq!(inst.seq, SeqNum(0));
        assert_eq!(ltp.stats().force_released, 1);
    }

    #[test]
    fn stats_track_loads_and_stores() {
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        let _ = ltp.at_rename(&store(0, 0x10, 1), 0);
        let _ = ltp.at_rename(&load(1, 0x20, 2, 3), 0);
        assert_eq!(ltp.stats().parked_stores, 1);
        assert_eq!(ltp.stats().parked_loads, 1);
        assert_eq!(ltp.parked_loads(), 1);
        assert_eq!(ltp.parked_stores(), 1);
        assert_eq!(ltp.parked_writers(), 1);
        assert!(ltp.stats().park_fraction() > 0.99);
    }

    #[test]
    fn oracle_classification_is_used_when_attached() {
        use crate::oracle::OracleAnalysis;
        let mut ltp = unit(LtpMode::NonUrgentOnly);
        // Build a trivial oracle: seq 0 urgent+ready, seq 1 non-urgent.
        let oracle = OracleClassifier::from_parts(
            vec![Criticality::URGENT_READY, Criticality::NON_URGENT_READY],
            vec![false, false],
        );
        ltp.set_oracle(oracle);
        let d0 = ltp.at_rename(&alu(0, 0x500, 1, &[2]), 0);
        let d1 = ltp.at_rename(&alu(1, 0x504, 3, &[4]), 0);
        assert!(d0.class.urgent && !d0.parked());
        assert!(d1.class.non_urgent() && d1.parked());
        // silence unused import warning for OracleAnalysis
        let _ = std::any::type_name::<OracleAnalysis>();
    }
}
