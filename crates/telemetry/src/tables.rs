//! Per-epoch telemetry tables: hash-indexed flow slots, per-port counters,
//! and the port-pair causality meter (§3.3, Figs. 3–4).

use hawkeye_sim::FlowKey;
use serde::{Deserialize, Serialize};

/// Telemetry accumulated for one flow within one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Packets enqueued.
    pub pkt_count: u32,
    /// Packets enqueued while the egress port's PFC register said "paused".
    pub paused_count: u32,
    /// Sum over packets of the egress queue depth (in packets) seen at
    /// enqueue; divide by `pkt_count` for the average.
    pub qdepth_sum: u64,
    /// Egress port the flow used (first observed; one per switch since
    /// routing is deterministic per 5-tuple).
    pub out_port: u8,
}

impl FlowRecord {
    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_count == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_count as f64
        }
    }
}

/// A flow entry evicted from the data-plane table by a hash collision
/// ("the existing entry will be evicted and stored at the controller").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedFlow {
    pub key: FlowKey,
    pub record: FlowRecord,
    /// Epoch ID the entry belonged to when evicted.
    pub epoch_id: u8,
    /// Ring slot it occupied.
    pub slot: usize,
}

/// The per-epoch hash-indexed flow table.
///
/// A slot holds one flow; the incoming packet's 5-tuple is XOR-compared
/// against the stored one (result 0 = same flow, update; otherwise evict
/// and install). Evictions go to `evicted`, emulating the controller-side
/// store.
///
/// The table behaves like the switch's fixed array of `size` slots (slot
/// index, eviction on collision, full-dump size), but stores only the
/// occupied slots: a dense list of `(slot, key, record)` plus a `u16`
/// slot → position index that is allocated on first use. An epoch that
/// sees no traffic costs no heap, and `reset` touches only the occupied
/// slots.
#[derive(Debug, Clone)]
pub struct FlowTable {
    size: usize,
    /// Slot → position in `entries` plus one (0 = empty); empty until the
    /// first update.
    index: Vec<u16>,
    entries: Vec<FlowEntry>,
}

#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    slot: u16,
    key: FlowKey,
    record: FlowRecord,
}

/// Largest table the `u16` index can address.
const MAX_FLOW_TABLE_SIZE: usize = 1 << 15;

impl FlowTable {
    pub fn new(size: usize) -> Self {
        assert!(
            size.is_power_of_two(),
            "flow table size must be a power of two"
        );
        assert!(
            size <= MAX_FLOW_TABLE_SIZE,
            "flow table size must be at most {MAX_FLOW_TABLE_SIZE}"
        );
        FlowTable {
            size,
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn reset(&mut self) {
        for e in &self.entries {
            self.index[e.slot as usize] = 0;
        }
        self.entries.clear();
    }

    fn slot(&self, key: &FlowKey) -> usize {
        (key.hash32() as usize) & (self.size - 1)
    }

    /// Position in `entries` of the flow occupying `slot`, if any.
    fn position(&self, slot: usize) -> Option<usize> {
        match self.index.get(slot) {
            Some(&p) if p != 0 => Some(p as usize - 1),
            _ => None,
        }
    }

    /// Record one enqueued packet for `key`; returns the evicted occupant
    /// on hash collision.
    pub fn update(
        &mut self,
        key: &FlowKey,
        paused: bool,
        qdepth_pkts: u32,
        out_port: u8,
    ) -> Option<(FlowKey, FlowRecord)> {
        let slot = self.slot(key);
        let fresh = FlowRecord {
            pkt_count: 1,
            paused_count: paused as u32,
            qdepth_sum: qdepth_pkts as u64,
            out_port,
        };
        let Some(pos) = self.position(slot) else {
            if self.index.is_empty() {
                self.index = vec![0; self.size];
            }
            self.entries.push(FlowEntry {
                slot: slot as u16,
                key: *key,
                record: fresh,
            });
            self.index[slot] = self.entries.len() as u16;
            return None;
        };
        let e = &mut self.entries[pos];
        if e.key == *key {
            e.record.pkt_count += 1;
            e.record.paused_count += paused as u32;
            e.record.qdepth_sum += qdepth_pkts as u64;
            return None;
        }
        let evicted = (e.key, e.record);
        e.key = *key;
        e.record = fresh;
        Some(evicted)
    }

    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        let e = &self.entries[self.position(self.slot(key))?];
        (e.key == *key).then_some(&e.record)
    }

    /// All occupied slots, in slot order.
    pub fn entries(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
        let mut by_slot: Vec<&FlowEntry> = self.entries.iter().collect();
        by_slot.sort_unstable_by_key(|e| e.slot);
        by_slot.into_iter().map(|e| (&e.key, &e.record))
    }

    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes held (index plus occupied entries).
    pub fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u16>()
            + self.entries.capacity() * std::mem::size_of::<FlowEntry>()
    }
}

/// Per-epoch per-port counters (paused packets + queue depth), kept at port
/// granularity in the data plane so diagnosis does not have to aggregate
/// flow telemetry (§3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortRecord {
    pub pkt_count: u32,
    pub paused_count: u32,
    pub qdepth_sum: u64,
}

impl PortRecord {
    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_count == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_count as f64
        }
    }
}

/// Per-epoch port table, indexed by egress port number.
#[derive(Debug, Clone)]
pub struct PortTable {
    ports: Vec<PortRecord>,
}

impl PortTable {
    pub fn new(nports: usize) -> Self {
        PortTable {
            ports: vec![PortRecord::default(); nports],
        }
    }

    pub fn reset(&mut self) {
        self.ports.fill(PortRecord::default());
    }

    pub fn update(&mut self, out_port: u8, paused: bool, qdepth_pkts: u32) {
        let r = &mut self.ports[out_port as usize];
        r.pkt_count += 1;
        r.paused_count += paused as u32;
        r.qdepth_sum += qdepth_pkts as u64;
    }

    pub fn get(&self, port: u8) -> &PortRecord {
        &self.ports[port as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = (u8, &PortRecord)> {
        self.ports.iter().enumerate().map(|(i, r)| (i as u8, r))
    }

    pub fn heap_bytes(&self) -> usize {
        self.ports.capacity() * std::mem::size_of::<PortRecord>()
    }
}

/// The PFC causality structure (Fig. 3): a traffic meter per (ingress,
/// egress) port pair, recording how many bytes entering on `in_port` left
/// via `out_port` during the epoch. When the upstream switch behind
/// `in_port` complains about PFC backpressure, the causally relevant
/// egresses are exactly those with non-zero meters — far finer-grained than
/// ITSY's single presence bit.
#[derive(Debug, Clone)]
pub struct CausalityMeter {
    nports: usize,
    bytes: Vec<u64>, // row-major [in_port][out_port]
}

impl CausalityMeter {
    pub fn new(nports: usize) -> Self {
        CausalityMeter {
            nports,
            bytes: vec![0; nports * nports],
        }
    }

    pub fn reset(&mut self) {
        self.bytes.fill(0);
    }

    pub fn add(&mut self, in_port: u8, out_port: u8, bytes: u32) {
        self.bytes[in_port as usize * self.nports + out_port as usize] += bytes as u64;
    }

    pub fn get(&self, in_port: u8, out_port: u8) -> u64 {
        self.bytes[in_port as usize * self.nports + out_port as usize]
    }

    /// Total bytes that entered via `in_port` (the denominator of the
    /// port-level edge weight in Algorithm 1).
    pub fn ingress_total(&self, in_port: u8) -> u64 {
        let base = in_port as usize * self.nports;
        self.bytes[base..base + self.nports].iter().sum()
    }

    /// Egress ports that carried traffic from `in_port`.
    pub fn causal_out_ports(&self, in_port: u8) -> impl Iterator<Item = (u8, u64)> + '_ {
        let base = in_port as usize * self.nports;
        self.bytes[base..base + self.nports]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (i as u8, b))
    }

    pub fn nports(&self) -> usize {
        self.nports
    }

    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() * std::mem::size_of::<u64>()
    }
}

/// The flow table as the switch stores it: one `Option` per slot, all
/// `size` of them allocated up front. The sparse [`FlowTable`] must behave
/// exactly like it.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct DenseFlowTable {
    slots: Vec<Option<(FlowKey, FlowRecord)>>,
}

#[cfg(test)]
impl DenseFlowTable {
    pub(crate) fn new(size: usize) -> Self {
        DenseFlowTable {
            slots: vec![None; size],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.slots.fill(None);
    }

    fn index(&self, key: &FlowKey) -> usize {
        (key.hash32() as usize) & (self.slots.len() - 1)
    }

    pub(crate) fn update(
        &mut self,
        key: &FlowKey,
        paused: bool,
        qdepth_pkts: u32,
        out_port: u8,
    ) -> Option<(FlowKey, FlowRecord)> {
        let i = self.index(key);
        match &mut self.slots[i] {
            Some((k, rec)) if k == key => {
                rec.pkt_count += 1;
                rec.paused_count += paused as u32;
                rec.qdepth_sum += qdepth_pkts as u64;
                None
            }
            occ => occ.replace((
                *key,
                FlowRecord {
                    pkt_count: 1,
                    paused_count: paused as u32,
                    qdepth_sum: qdepth_pkts as u64,
                    out_port,
                },
            )),
        }
    }

    pub(crate) fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        match &self.slots[self.index(key)] {
            Some((k, rec)) if k == key => Some(rec),
            _ => None,
        }
    }

    pub(crate) fn entries(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
        self.slots.iter().flatten().map(|(k, r)| (k, r))
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::NodeId;
    use proptest::prelude::*;

    fn key(sp: u16) -> FlowKey {
        FlowKey::roce(NodeId(1), NodeId(2), sp)
    }

    #[test]
    fn flow_table_updates_in_place() {
        let mut t = FlowTable::new(16);
        assert!(t.update(&key(1), false, 3, 2).is_none());
        assert!(t.update(&key(1), true, 5, 2).is_none());
        let r = t.get(&key(1)).unwrap();
        assert_eq!(r.pkt_count, 2);
        assert_eq!(r.paused_count, 1);
        assert_eq!(r.qdepth_sum, 8);
        assert_eq!(r.avg_qdepth(), 4.0);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flow_table_evicts_on_collision() {
        // Size-1 table forces every distinct flow to collide.
        let mut t = FlowTable::new(1);
        assert!(t.update(&key(1), false, 0, 0).is_none());
        let ev = t.update(&key(2), false, 0, 0).expect("collision evicts");
        assert_eq!(ev.0, key(1));
        assert_eq!(ev.1.pkt_count, 1);
        assert!(t.get(&key(1)).is_none());
        assert!(t.get(&key(2)).is_some());
    }

    #[test]
    fn flow_table_reset_clears() {
        let mut t = FlowTable::new(8);
        t.update(&key(1), false, 0, 0);
        t.reset();
        assert_eq!(t.occupancy(), 0);
        assert!(t.get(&key(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "power of")]
    fn flow_table_requires_power_of_two() {
        FlowTable::new(10);
    }

    #[test]
    fn flow_table_allocates_on_first_use() {
        let mut t = FlowTable::new(4096);
        assert_eq!(t.size(), 4096);
        assert_eq!(t.heap_bytes(), 0, "an idle table holds no heap");
        t.update(&key(1), false, 0, 0);
        let used = t.heap_bytes();
        assert!(used > 0);
        t.reset();
        assert_eq!(t.heap_bytes(), used, "reset keeps the index for reuse");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sparse table and the dense reference agree step by step:
        /// eviction returns, lookups, occupancy and the slot-ordered dump.
        /// Each op is (kind, src, sport, paused, qdepth, out_port); kind 0
        /// resets the table, anything else is an update.
        #[test]
        fn sparse_table_matches_dense_reference(
            size in (0usize..4).prop_map(|i| [1, 2, 16, 4096][i]),
            ops in proptest::collection::vec(
                (0u8..24, 0u32..4, 0u16..48, 0u8..2, 0u32..64, 0u8..8),
                1..400,
            ),
        ) {
            let mut sparse = FlowTable::new(size);
            let mut dense = DenseFlowTable::new(size);
            let mut seen = Vec::new();
            for &(kind, src, sport, paused, qdepth, out_port) in &ops {
                if kind == 0 {
                    sparse.reset();
                    dense.reset();
                } else {
                    let k = FlowKey::roce(NodeId(src), NodeId(9), sport);
                    let paused = paused == 1;
                    prop_assert_eq!(
                        sparse.update(&k, paused, qdepth, out_port),
                        dense.update(&k, paused, qdepth, out_port)
                    );
                    prop_assert_eq!(sparse.get(&k), dense.get(&k));
                    seen.push(k);
                }
                prop_assert_eq!(sparse.occupancy(), dense.occupancy());
                prop_assert!(sparse.entries().eq(dense.entries()));
            }
            for k in &seen {
                prop_assert_eq!(sparse.get(k), dense.get(k));
            }
        }
    }

    #[test]
    fn port_table_counts() {
        let mut t = PortTable::new(4);
        t.update(2, true, 7);
        t.update(2, false, 3);
        t.update(0, false, 0);
        assert_eq!(t.get(2).pkt_count, 2);
        assert_eq!(t.get(2).paused_count, 1);
        assert_eq!(t.get(2).avg_qdepth(), 5.0);
        assert_eq!(t.get(1).pkt_count, 0);
        assert_eq!(t.iter().filter(|(_, r)| r.pkt_count > 0).count(), 2);
    }

    #[test]
    fn meter_tracks_port_pairs() {
        let mut m = CausalityMeter::new(4);
        m.add(1, 3, 1000);
        m.add(1, 3, 500);
        m.add(1, 2, 100);
        m.add(0, 3, 700);
        assert_eq!(m.get(1, 3), 1500);
        assert_eq!(m.ingress_total(1), 1600);
        let causal: Vec<_> = m.causal_out_ports(1).collect();
        assert_eq!(causal, vec![(2, 100), (3, 1500)]);
        // Fig. 3's point: an egress with no traffic from this ingress is
        // not causal, even if it is PFC-congested.
        assert!(m.causal_out_ports(1).all(|(p, _)| p != 0));
        m.reset();
        assert_eq!(m.ingress_total(1), 0);
    }
}
