//! Snapshot codec implementations for the LTP mechanism.
//!
//! The serialised [`LtpUnit`] includes everything the unit has *learned* —
//! UIT contents, hit/miss predictor counters, monitor timer, in-flight
//! tickets, RAT-extension shadow state and the parked queue with its
//! incremental indexes — so a restored machine continues classification and
//! wakeup bit-for-bit. Ordered containers (the parking FIFO, ticket free
//! list, per-set UIT LRU order, ticket-holder lists) are encoded verbatim;
//! only hash containers are canonicalised.

use crate::class::Criticality;
use crate::classifier::{ClassifierState, RandomClassifier, UitClassifier};
use crate::config::{LtpConfig, LtpMode};
use crate::monitor::DramTimerMonitor;
use crate::oracle::OracleClassifier;
use crate::queue::{LtpQueue, ParkedInst};
use crate::rat_ext::{Entry, RatExtension};
use crate::tickets::{Ticket, TicketFile, TicketSet};
use crate::uit::Uit;
use crate::unit::{LtpStats, LtpUnit};
use crate::ClassifierKind;
use ltp_snapshot::{impl_codec, Codec, Reader, SnapError, Writer};

impl Codec for Ticket {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Ticket(u32::read(r)?))
    }
}

/// Writes ascending ids in the ordered-set layout: a count, then the ids.
fn write_id_set(len: usize, ids: impl Iterator<Item = u32>, w: &mut Writer) {
    w.varint(len as u64);
    for id in ids {
        id.write(w);
    }
}

/// Reads the ids of an ordered-set layout, as written. The count is checked
/// against the input left, so the vector is bounded by the input.
fn read_ids(r: &mut Reader<'_>) -> Result<Vec<u32>, SnapError> {
    let n = usize::read(r)?;
    if n > r.remaining() {
        return Err(SnapError::Truncated);
    }
    (0..n).map(|_| u32::read(r)).collect()
}

impl Codec for TicketSet {
    fn write(&self, w: &mut Writer) {
        write_id_set(self.len(), self.iter().map(|t| t.0), w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(TicketSet::from_ids(read_ids(r)?))
    }
}

impl Codec for TicketFile {
    fn write(&self, w: &mut Writer) {
        self.capacity.write(w);
        self.free.write(w);
        self.next_unallocated.write(w);
        write_id_set(self.in_flight_len, self.in_flight_ids(), w);
        self.exhausted_allocations.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let capacity = usize::read(r)?;
        let free = Vec::<Ticket>::read(r)?;
        let next_unallocated = u32::read(r)?;
        let in_flight = read_ids(r)?;
        let exhausted_allocations = u64::read(r)?;
        TicketFile::from_parts(
            capacity,
            free,
            next_unallocated,
            &in_flight,
            exhausted_allocations,
        )
        .ok_or(SnapError::Invalid("ticket ids are not the minted ones"))
    }
}

impl Codec for Criticality {
    fn write(&self, w: &mut Writer) {
        self.urgent.write(w);
        self.ready.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Criticality {
            urgent: bool::read(r)?,
            ready: bool::read(r)?,
        })
    }
}

impl_codec!(ParkedInst {
    seq,
    class,
    tickets,
    parked_at,
    writes_reg,
    is_load,
    is_store,
});

impl_codec!(LtpQueue {
    capacity,
    ports,
    entries,
    enqueued_this_cycle,
    dequeued_this_cycle,
    current_cycle,
    total_parked,
    total_released,
    full_rejections,
    port_rejections,
    writers,
    loads,
    stores,
    ticket_holders,
    ready_urgent,
});

impl_codec!(Entry {
    producer_pc,
    producer_seq,
    parked,
    tickets,
});
impl_codec!(RatExtension { entries });

impl_codec!(DramTimerMonitor {
    timeout,
    enabled_until,
    enabled_cycles,
    last_observed,
    was_enabled,
    activations,
});

impl_codec!(Uit {
    capacity,
    ways,
    sets,
    unlimited,
    insertions,
    hits,
    lookups,
});

impl_codec!(UitClassifier { uit, predictor });
impl_codec!(RandomClassifier {
    non_urgent_percent,
    state,
});

/// The oracle's shared vectors are written in the `Vec` layout.
impl Codec for OracleClassifier {
    fn write(&self, w: &mut Writer) {
        w.varint(self.classes.len() as u64);
        Criticality::write_run(&self.classes, w);
        w.varint(self.long_latency.len() as u64);
        bool::write_run(&self.long_latency, w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let classes = Vec::<Criticality>::read(r)?;
        let long_latency = Vec::<bool>::read(r)?;
        if classes.len() != long_latency.len() {
            return Err(SnapError::Invalid("oracle vector lengths differ"));
        }
        Ok(OracleClassifier::from_parts(classes, long_latency))
    }
}

impl Codec for ClassifierState {
    fn write(&self, w: &mut Writer) {
        match self {
            ClassifierState::Uit(c) => {
                w.byte(0);
                c.write(w);
            }
            ClassifierState::Oracle(c) => {
                w.byte(1);
                c.write(w);
            }
            ClassifierState::Random(c) => {
                w.byte(2);
                c.write(w);
            }
            ClassifierState::AlwaysReady => w.byte(3),
            ClassifierState::ParkEverything => w.byte(4),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.byte()? {
            0 => ClassifierState::Uit(UitClassifier::read(r)?),
            1 => ClassifierState::Oracle(OracleClassifier::read(r)?),
            2 => ClassifierState::Random(RandomClassifier::read(r)?),
            3 => ClassifierState::AlwaysReady,
            4 => ClassifierState::ParkEverything,
            t => return Err(SnapError::BadTag(u32::from(t))),
        })
    }
}

ltp_snapshot::impl_codec_enum!(LtpMode {
    LtpMode::Off = 0,
    LtpMode::NonUrgentOnly = 1,
    LtpMode::NonReadyOnly = 2,
    LtpMode::Both = 3,
});

impl Codec for ClassifierKind {
    fn write(&self, w: &mut Writer) {
        match self {
            ClassifierKind::Uit => w.byte(0),
            ClassifierKind::Oracle => w.byte(1),
            ClassifierKind::Random {
                non_urgent_percent,
                seed,
            } => {
                w.byte(2);
                non_urgent_percent.write(w);
                seed.write(w);
            }
            ClassifierKind::AlwaysReady => w.byte(3),
            ClassifierKind::ParkEverything => w.byte(4),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.byte()? {
            0 => ClassifierKind::Uit,
            1 => ClassifierKind::Oracle,
            2 => ClassifierKind::Random {
                non_urgent_percent: u8::read(r)?,
                seed: u64::read(r)?,
            },
            3 => ClassifierKind::AlwaysReady,
            4 => ClassifierKind::ParkEverything,
            t => return Err(SnapError::BadTag(u32::from(t))),
        })
    }
}

impl_codec!(LtpConfig {
    mode,
    entries,
    ports,
    uit_entries,
    num_tickets,
    use_monitor,
    classifier,
});

impl_codec!(LtpStats {
    classified,
    parked,
    parked_loads,
    parked_stores,
    park_overflows,
    released_in_order,
    released_out_of_order,
    force_released,
    residency_cycles,
    residency_count,
});

impl Codec for LtpUnit {
    fn write(&self, w: &mut Writer) {
        self.cfg.write(w);
        // Capture paths check `snapshot_supported` before encoding, so this
        // expect only fires on a bug in that contract.
        self.classifier
            .snapshot_state()
            .expect("classifier does not support snapshots (checked at capture)")
            .write(w);
        self.classifier_attached.write(w);
        self.rat_ext.write(w);
        self.queue.write(w);
        self.tickets.write(w);
        self.monitor.write(w);
        self.ticket_owner.write(w);
        self.stats.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = LtpConfig::read(r)?;
        let classifier = ClassifierState::read(r)?.into_classifier();
        let classifier_attached = bool::read(r)?;
        let unit = LtpUnit {
            cfg,
            classifier,
            classifier_attached,
            rat_ext: RatExtension::read(r)?,
            queue: LtpQueue::read(r)?,
            tickets: TicketFile::read(r)?,
            monitor: DramTimerMonitor::read(r)?,
            ticket_owner: Codec::read(r)?,
            stats: LtpStats::read(r)?,
        };
        // The queue's holder index grows to the largest id a parked
        // instruction waits on, so an id that was never minted would size
        // an allocation once the machine runs.
        let minted = unit.tickets.next_unallocated;
        let rat_sets = unit.rat_ext.entries.iter().map(|e| &e.tickets);
        let parked_sets = unit.queue.entries.iter().map(|p| &p.tickets);
        if rat_sets
            .chain(parked_sets)
            .flat_map(TicketSet::iter)
            .any(|t| t.0 >= minted)
        {
            return Err(SnapError::Invalid("a ticket set holds an id never minted"));
        }
        Ok(unit)
    }
}

impl LtpUnit {
    /// Whether this unit's classifier can be checkpointed (all built-in
    /// classifiers can; a custom [`crate::CriticalityClassifier`] that does
    /// not implement `snapshot_state` cannot).
    #[must_use]
    pub fn snapshot_supported(&self) -> bool {
        self.classifier.supports_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::RenamedInst;
    use ltp_isa::{ArchReg, DynInst, OpClass, Pc, SeqNum, StaticInst};
    use ltp_snapshot::encode_value;

    fn inst(seq: u64, pc: u64, dst: usize, srcs: &[usize], op: OpClass) -> RenamedInst {
        let mut s = StaticInst::new(Pc(pc), op).with_dst(ArchReg::int(dst));
        for &r in srcs {
            s = s.with_src(ArchReg::int(r));
        }
        RenamedInst::from_dyn(&DynInst::new(seq, s))
    }

    /// Builds an LtpUnit with learned UIT state, parked instructions,
    /// in-flight tickets and an armed monitor; round-trips it; and drives the
    /// original and the restored copy through the same subsequent operations,
    /// asserting identical observable behaviour.
    #[test]
    fn ltp_unit_roundtrip_is_behaviourally_identical() {
        let cfg = LtpConfig {
            mode: LtpMode::Both,
            entries: 64,
            ports: 4,
            uit_entries: 64,
            num_tickets: 8,
            use_monitor: true,
            classifier: ClassifierKind::Uit,
        };
        let mut unit = LtpUnit::new(cfg, 200);
        // Teach the predictor and UIT, arm the monitor.
        for i in 0..20u64 {
            unit.on_load_outcome(Pc(0x104), i % 2 == 0, i);
        }
        // Rename a mix so the queue, RAT extension and tickets fill up.
        for s in 0..12u64 {
            let op = if s % 3 == 0 {
                OpClass::Load
            } else {
                OpClass::IntAlu
            };
            let _ = unit.at_rename(
                &inst(
                    s,
                    0x100 + (s % 4) * 4,
                    (s % 8 + 1) as usize,
                    &[(s % 5 + 1) as usize],
                    op,
                ),
                20 + s,
            );
        }
        assert!(unit.snapshot_supported());

        let bytes = encode_value(&unit);
        let mut r = Reader::new(&bytes);
        let mut restored = LtpUnit::read(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0);
        assert_eq!(encode_value(&restored), bytes, "canonical bytes");

        assert_eq!(unit.occupancy(), restored.occupancy());
        assert_eq!(unit.parked_writers(), restored.parked_writers());
        assert_eq!(unit.oldest_parked(), restored.oldest_parked());

        // Drive both forward identically: new renames, ticket clears,
        // releases — every decision must match.
        for s in 12..24u64 {
            let a = unit.at_rename(&inst(s, 0x200 + s * 4, 9, &[2], OpClass::IntAlu), 40 + s);
            let b = restored.at_rename(&inst(s, 0x200 + s * 4, 9, &[2], OpClass::IntAlu), 40 + s);
            assert_eq!(a, b, "divergent decision at seq {s}");
        }
        for s in 0..24u64 {
            assert_eq!(
                unit.on_long_latency_completing(SeqNum(s), 100),
                restored.on_long_latency_completing(SeqNum(s), 100)
            );
        }
        let ra: Vec<_> = unit
            .release_in_order(SeqNum(1_000), 64, 200)
            .iter()
            .map(|p| p.seq)
            .collect();
        let rb: Vec<_> = restored
            .release_in_order(SeqNum(1_000), 64, 200)
            .iter()
            .map(|p| p.seq)
            .collect();
        assert_eq!(ra, rb);
        assert_eq!(unit.stats().total_parked(), restored.stats().total_parked());
    }

    /// Ids at the edges of each bitset word and of the inline words.
    const EDGE_IDS: [u32; 6] = [0, 63, 64, 127, 128, 4_095];

    /// What an ordered set of `ids` encodes to: the layout both ticket
    /// bitsets keep.
    fn ordered_set_bytes(ids: &[u32]) -> Vec<u8> {
        let set: std::collections::BTreeSet<Ticket> = ids.iter().map(|&id| Ticket(id)).collect();
        encode_value(&set)
    }

    /// A ticket set encodes as the ordered set it replaced, byte for byte,
    /// and decodes back to itself.
    #[test]
    fn ticket_set_bytes_are_the_ordered_set_layout() {
        let set: TicketSet = EDGE_IDS.iter().rev().map(|&id| Ticket(id)).collect();
        let bytes = encode_value(&set);
        assert_eq!(
            bytes,
            [0x06, 0x00, 0x3f, 0x40, 0x7f, 0x80, 0x01, 0xff, 0x1f],
            "count, then the ids ascending as varints"
        );
        assert_eq!(bytes, ordered_set_bytes(&EDGE_IDS));
        assert_eq!(ltp_snapshot::decode_value::<TicketSet>(&bytes), Ok(set));
        assert_eq!(encode_value(&TicketSet::new()), ordered_set_bytes(&[]));
    }

    /// A ticket file with those ids in flight, after minting 4,096 and
    /// freeing the rest out of order, encodes its in-flight bitset as the
    /// ordered set it replaced, and the free list verbatim.
    #[test]
    fn ticket_file_bytes_are_the_ordered_set_layout() {
        let mut file = TicketFile::new(usize::MAX);
        let minted: Vec<Ticket> = (0..4_096)
            .map(|_| file.allocate().expect("unlimited"))
            .collect();
        for t in minted
            .iter()
            .rev()
            .step_by(2)
            .chain(minted.iter().step_by(2))
        {
            if !EDGE_IDS.contains(&t.0) {
                file.release(*t);
            }
        }
        let bytes = encode_value(&file);
        let mut expected = Writer::new();
        usize::MAX.write(&mut expected);
        file.free.write(&mut expected);
        4_096u32.write(&mut expected);
        expected.bytes(&ordered_set_bytes(&EDGE_IDS));
        0u64.write(&mut expected);
        assert_eq!(bytes, expected.into_bytes());
        assert_eq!(
            ltp_snapshot::fnv1a64(&bytes),
            0x10bc_7cee_e604_fe0c,
            "pinned bytes"
        );
        let back: TicketFile = ltp_snapshot::decode_value(&bytes).expect("decode");
        assert_eq!(encode_value(&back), bytes);
        assert!(back.in_flight_ids().eq(EDGE_IDS));
        assert_eq!(back.in_flight(), EDGE_IDS.len());
    }

    /// A ticket file decodes only when its in-flight and free ids are
    /// exactly the minted ids; otherwise it is invalid, whatever the ids.
    #[test]
    fn ticket_files_with_unminted_ids_are_invalid() {
        let file = |free: &[u32], next: u32, in_flight: &[u32]| {
            let mut w = Writer::new();
            8usize.write(&mut w);
            free.iter()
                .map(|&id| Ticket(id))
                .collect::<Vec<_>>()
                .write(&mut w);
            next.write(&mut w);
            w.bytes(&ordered_set_bytes(in_flight));
            0u64.write(&mut w);
            ltp_snapshot::decode_value::<TicketFile>(&w.into_bytes()).map(|f| f.in_flight())
        };
        assert_eq!(file(&[1], 3, &[0, 2]), Ok(2));
        let invalid = Err(SnapError::Invalid("ticket ids are not the minted ones"));
        for (free, next, in_flight) in [
            (&[][..], u32::MAX, &[u32::MAX - 1][..]),
            (&[], 1, &[u32::MAX]),
            (&[u32::MAX], 1, &[]),
            (&[0], 2, &[0]),
            (&[1, 1], 3, &[0]),
            (&[], 2, &[0]),
        ] {
            assert_eq!(
                file(free, next, in_flight),
                invalid,
                "{free:?} {next} {in_flight:?}"
            );
        }
    }

    #[test]
    fn oracle_and_random_classifiers_roundtrip() {
        let oracle = OracleClassifier::from_parts(
            vec![Criticality::URGENT_READY, Criticality::NON_URGENT_NON_READY],
            vec![true, false],
        );
        let bytes = encode_value(&ClassifierState::Oracle(oracle));
        let mut r = Reader::new(&bytes);
        let back = ClassifierState::read(&mut r).expect("decode");
        let mut c = back.into_classifier();
        assert_eq!(c.name(), "oracle");
        let i = inst(0, 0x10, 1, &[], OpClass::IntAlu);
        let cls = c.assess(&i, &|_| None);
        assert!(cls.urgent);

        // A random classifier must resume its stream exactly where it left off.
        let mut rand = RandomClassifier::new(50, 99);
        for s in 0..10u64 {
            let _ = crate::CriticalityClassifier::assess(
                &mut rand,
                &inst(s, 0x10, 1, &[], OpClass::IntAlu),
                &|_| None,
            );
        }
        let bytes = encode_value(&rand);
        let mut r = Reader::new(&bytes);
        let mut restored = RandomClassifier::read(&mut r).unwrap();
        for s in 10..30u64 {
            let i = inst(s, 0x10, 1, &[], OpClass::IntAlu);
            let a = crate::CriticalityClassifier::assess(&mut rand, &i, &|_| None);
            let b = crate::CriticalityClassifier::assess(&mut restored, &i, &|_| None);
            assert_eq!(a, b);
        }
    }
}
