//! The RAT extension of Figure 9b: per-architectural-register producer PC,
//! Parked bit and ticket vector.
//!
//! The baseline Register Allocation Table maps architectural to physical
//! registers; LTP extends each entry with:
//!
//! * the **PC of the producing instruction**, so that when an Urgent
//!   instruction renames, the PCs of its producers can be inserted into the
//!   UIT (backward urgency propagation);
//! * a **Parked bit**, set when the producing instruction was sent to LTP, so
//!   that consumers of a parked value are parked as well (avoiding the
//!   deadlock where the IQ fills with instructions waiting on parked
//!   producers, §5.2);
//! * the **ticket set** of the producing instruction, so descendants of
//!   predicted long-latency instructions inherit the tickets they must wait
//!   for (Non-Ready tracking, appendix A).
//!
//! This structure tracks *architectural* registers only — it is the shadow
//! state the LTP unit keeps for classification, independent of the pipeline's
//! actual physical-register RAT.

use crate::tickets::TicketSet;
use ltp_isa::{ArchReg, Pc, SeqNum, NUM_ARCH_REGS};

/// Per-register extension entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entry {
    pub(crate) producer_pc: Option<Pc>,
    pub(crate) producer_seq: Option<SeqNum>,
    pub(crate) parked: bool,
    pub(crate) tickets: TicketSet,
}

/// The LTP extension of the register allocation table.
#[derive(Debug, Clone)]
pub struct RatExtension {
    pub(crate) entries: Vec<Entry>,
}

impl Default for RatExtension {
    fn default() -> Self {
        RatExtension::new()
    }
}

impl RatExtension {
    /// Creates an extension with all registers unparked, producer-less and
    /// ticket-free.
    #[must_use]
    pub fn new() -> RatExtension {
        RatExtension {
            entries: (0..NUM_ARCH_REGS).map(|_| Entry::default()).collect(),
        }
    }

    /// Records that the instruction at `pc` (dynamic instance `seq`) is the
    /// current producer of `dst`, whether it was parked, and which tickets it
    /// carries. Writes to the zero register are ignored.
    pub fn write(&mut self, dst: ArchReg, pc: Pc, seq: SeqNum, parked: bool, tickets: TicketSet) {
        if dst.is_zero() {
            return;
        }
        self.entries[dst.index()] = Entry {
            producer_pc: Some(pc),
            producer_seq: Some(seq),
            parked,
            tickets,
        };
    }

    /// PC of the instruction that currently produces `src`, if any.
    /// The zero register has no producer.
    #[must_use]
    pub fn producer_pc(&self, src: ArchReg) -> Option<Pc> {
        if src.is_zero() {
            None
        } else {
            self.entries[src.index()].producer_pc
        }
    }

    /// Sequence number of the current producer of `src`, if any.
    #[must_use]
    pub fn producer_seq(&self, src: ArchReg) -> Option<SeqNum> {
        if src.is_zero() {
            None
        } else {
            self.entries[src.index()].producer_seq
        }
    }

    /// Whether the current producer of `src` is parked in LTP.
    #[must_use]
    pub fn is_parked(&self, src: ArchReg) -> bool {
        !src.is_zero() && self.entries[src.index()].parked
    }

    /// The tickets the current value of `src` is waiting on.
    #[must_use]
    pub fn tickets(&self, src: ArchReg) -> &TicketSet {
        static EMPTY: TicketSet = TicketSet::new();
        if src.is_zero() {
            &EMPTY
        } else {
            &self.entries[src.index()].tickets
        }
    }

    /// Clears the Parked bit of every register whose producer is `seq`
    /// (called when that instruction is released from LTP and renamed for
    /// real). Returns how many registers were unparked.
    pub fn unpark_producer(&mut self, seq: SeqNum) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            if e.parked && e.producer_seq == Some(seq) {
                e.parked = false;
                n += 1;
            }
        }
        n
    }

    /// Removes `ticket` from every register's ticket set (broadcast clear
    /// when a long-latency instruction completes).
    pub fn clear_ticket_everywhere(&mut self, ticket: crate::Ticket) {
        for e in &mut self.entries {
            e.tickets.clear_ticket(ticket);
        }
    }

    /// Number of registers whose Parked bit is currently set.
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.entries.iter().filter(|e| e.parked).count()
    }

    /// Resets all entries (used across simulation phases).
    pub fn reset(&mut self) {
        for e in &mut self.entries {
            *e = Entry::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ticket;

    #[test]
    fn write_then_read_producer() {
        let mut rat = RatExtension::new();
        rat.write(
            ArchReg::int(5),
            Pc(0x40),
            SeqNum(7),
            false,
            TicketSet::new(),
        );
        assert_eq!(rat.producer_pc(ArchReg::int(5)), Some(Pc(0x40)));
        assert_eq!(rat.producer_seq(ArchReg::int(5)), Some(SeqNum(7)));
        assert!(!rat.is_parked(ArchReg::int(5)));
        assert_eq!(rat.producer_pc(ArchReg::int(6)), None);
    }

    #[test]
    fn zero_register_is_never_tracked() {
        let mut rat = RatExtension::new();
        rat.write(ArchReg::ZERO, Pc(0x40), SeqNum(7), true, TicketSet::new());
        assert_eq!(rat.producer_pc(ArchReg::ZERO), None);
        assert!(!rat.is_parked(ArchReg::ZERO));
        assert!(rat.tickets(ArchReg::ZERO).is_empty());
    }

    #[test]
    fn parked_bit_propagation_state() {
        let mut rat = RatExtension::new();
        rat.write(ArchReg::int(3), Pc(0x10), SeqNum(1), true, TicketSet::new());
        assert!(rat.is_parked(ArchReg::int(3)));
        assert_eq!(rat.parked_count(), 1);
        let cleared = rat.unpark_producer(SeqNum(1));
        assert_eq!(cleared, 1);
        assert!(!rat.is_parked(ArchReg::int(3)));
    }

    #[test]
    fn unpark_does_not_clear_newer_producer() {
        let mut rat = RatExtension::new();
        rat.write(ArchReg::int(3), Pc(0x10), SeqNum(1), true, TicketSet::new());
        // A newer parked instruction renames the same register.
        rat.write(ArchReg::int(3), Pc(0x20), SeqNum(5), true, TicketSet::new());
        // Releasing the older producer must not unpark the register.
        assert_eq!(rat.unpark_producer(SeqNum(1)), 0);
        assert!(rat.is_parked(ArchReg::int(3)));
        assert_eq!(rat.unpark_producer(SeqNum(5)), 1);
        assert!(!rat.is_parked(ArchReg::int(3)));
    }

    #[test]
    fn ticket_inheritance_and_broadcast_clear() {
        let mut rat = RatExtension::new();
        let tickets: TicketSet = [Ticket(1), Ticket(2)].into_iter().collect();
        rat.write(ArchReg::int(4), Pc(0x10), SeqNum(1), false, tickets);
        assert_eq!(rat.tickets(ArchReg::int(4)).len(), 2);
        rat.clear_ticket_everywhere(Ticket(1));
        assert_eq!(rat.tickets(ArchReg::int(4)).len(), 1);
        assert!(rat.tickets(ArchReg::int(4)).contains(Ticket(2)));
    }

    #[test]
    fn newer_write_replaces_tickets() {
        let mut rat = RatExtension::new();
        let tickets: TicketSet = [Ticket(1)].into_iter().collect();
        rat.write(ArchReg::int(4), Pc(0x10), SeqNum(1), false, tickets);
        rat.write(
            ArchReg::int(4),
            Pc(0x14),
            SeqNum(2),
            false,
            TicketSet::new(),
        );
        assert!(rat.tickets(ArchReg::int(4)).is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut rat = RatExtension::new();
        rat.write(ArchReg::int(4), Pc(0x10), SeqNum(1), true, TicketSet::new());
        rat.reset();
        assert_eq!(rat.parked_count(), 0);
        assert_eq!(rat.producer_pc(ArchReg::int(4)), None);
    }

    #[test]
    fn fp_registers_tracked_separately() {
        let mut rat = RatExtension::new();
        rat.write(ArchReg::fp(2), Pc(0x30), SeqNum(9), true, TicketSet::new());
        assert!(rat.is_parked(ArchReg::fp(2)));
        assert!(!rat.is_parked(ArchReg::int(2)));
    }
}
