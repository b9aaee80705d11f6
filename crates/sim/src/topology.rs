//! Network topologies: nodes, links, and routing.
//!
//! Builders are provided for the paper's evaluation topology (fat-tree K=4,
//! 20 switches, 100 Gbps links, 2 µs delay), plus the small chain and ring
//! topologies of Fig. 1 used for case studies, and a dumbbell for unit
//! tests. Routing is shortest-path with ECMP; scenarios may install
//! per-(switch, destination) route overrides to emulate the routing
//! misconfigurations that create cyclic buffer dependencies (§2.1).

use crate::ids::{FlowKey, NodeId, PortId};
use crate::time::Nanos;
use crate::units::Bandwidth;
use std::collections::{HashMap, VecDeque};
use std::mem::size_of;

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Host,
    Switch,
}

/// One direction-independent attachment point: the peer it connects to and
/// the link's properties (identical in both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortInfo {
    pub peer: PortId,
    pub bandwidth: Bandwidth,
    pub delay: Nanos,
}

/// Marks a node that is not of the kind an ordinal table indexes, and a
/// (switch, host) cell with no route.
const NONE: u32 = u32::MAX;

/// Shortest-path ECMP candidates from every switch to every host, stored
/// flat: one `u32` cell per (switch ordinal, host ordinal) naming an
/// interned candidate set. A fabric has few distinct sets (a K=16 fat-tree
/// fills its 327,680 cells from 17), so the table is one contiguous array
/// plus a small pool, and cloning it is a copy.
#[derive(Debug, Clone, Default)]
struct RouteTable {
    /// Per node: its index among the switches, or `NONE` for a host.
    switch_ord: Vec<u32>,
    /// Per node: its index among the hosts, or `NONE` for a switch.
    host_ord: Vec<u32>,
    hosts: usize,
    /// `[switch ordinal * hosts + host ordinal]` → set id, or `NONE`.
    cells: Vec<u32>,
    /// Set `i` is `set_ports[set_bounds[i]..set_bounds[i + 1]]`, sorted.
    set_bounds: Vec<u32>,
    set_ports: Vec<u8>,
}

impl RouteTable {
    fn candidates(&self, sw: NodeId, dst: NodeId) -> Option<&[u8]> {
        let s = *self.switch_ord.get(sw.index())?;
        let h = *self.host_ord.get(dst.index())?;
        if s == NONE || h == NONE {
            return None;
        }
        let set = self.cells[s as usize * self.hosts + h as usize];
        if set == NONE {
            return None;
        }
        let (lo, hi) = (
            self.set_bounds[set as usize],
            self.set_bounds[set as usize + 1],
        );
        Some(&self.set_ports[lo as usize..hi as usize])
    }

    /// The id of candidate set `ports`, adding it to the pool if new. An
    /// empty set is no route.
    fn intern(&mut self, pool: &mut HashMap<Vec<u8>, u32>, ports: &[u8]) -> u32 {
        if ports.is_empty() {
            return NONE;
        }
        if let Some(&id) = pool.get(ports) {
            return id;
        }
        let id = (self.set_bounds.len() - 1) as u32;
        self.set_ports.extend_from_slice(ports);
        self.set_bounds.push(self.set_ports.len() as u32);
        pool.insert(ports.to_vec(), id);
        id
    }

    fn heap_bytes(&self) -> usize {
        (self.switch_ord.capacity()
            + self.host_ord.capacity()
            + self.cells.capacity()
            + self.set_bounds.capacity())
            * size_of::<u32>()
            + self.set_ports.capacity()
    }
}

/// An immutable network graph plus routing state.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    ports: Vec<Vec<PortInfo>>,
    routes: RouteTable,
    /// Scenario-installed forced next hops: (switch, dst host) -> port.
    overrides: HashMap<(NodeId, NodeId), u8>,
}

impl Topology {
    /// Create an empty topology; use `add_host`/`add_switch`/`connect`.
    pub fn new() -> Self {
        Topology {
            kinds: Vec::new(),
            names: Vec::new(),
            ports: Vec::new(),
            routes: RouteTable::default(),
            overrides: HashMap::new(),
        }
    }

    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name.into())
    }

    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name.into())
    }

    fn add_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name);
        self.ports.push(Vec::new());
        id
    }

    /// Connect two nodes with a full-duplex link; returns the (a-side,
    /// b-side) port numbers allocated.
    pub fn connect(&mut self, a: NodeId, b: NodeId, bw: Bandwidth, delay: Nanos) -> (u8, u8) {
        let pa = self.ports[a.index()].len() as u8;
        let pb = self.ports[b.index()].len() as u8;
        self.ports[a.index()].push(PortInfo {
            peer: PortId::new(b, pb),
            bandwidth: bw,
            delay,
        });
        self.ports[b.index()].push(PortInfo {
            peer: PortId::new(a, pa),
            bandwidth: bw,
            delay,
        });
        (pa, pb)
    }

    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    pub fn is_host(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Host
    }

    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32)
            .map(NodeId)
            .filter(|n| self.is_host(*n))
    }

    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32)
            .map(NodeId)
            .filter(|n| !self.is_host(*n))
    }

    pub fn ports(&self, n: NodeId) -> &[PortInfo] {
        &self.ports[n.index()]
    }

    pub fn port(&self, p: PortId) -> &PortInfo {
        &self.ports[p.node.index()][p.port as usize]
    }

    /// The port on the far end of `p`'s link.
    pub fn peer(&self, p: PortId) -> PortId {
        self.port(p).peer
    }

    /// Whether the given port attaches directly to a host.
    pub fn is_host_facing(&self, p: PortId) -> bool {
        self.is_host(self.peer(p).node)
    }

    /// Compute shortest-path ECMP routes from every switch to every host.
    /// Must be called after the graph is final and before `route_port`.
    ///
    /// A switch's candidates for host `h` are its neighbors one BFS step
    /// closer to `h`. A host with a single link to a switch `a` is one hop
    /// beyond `a`, so its distances are `a`'s plus one everywhere but at
    /// `a` itself: every host behind `a` shares one BFS from `a` and the
    /// same candidates at every other switch, and at `a` its only
    /// candidate is its own port. Any other host gets its own BFS.
    pub fn compute_routes(&mut self) {
        let hosts: Vec<NodeId> = self.hosts().collect();
        let switches: Vec<NodeId> = self.switches().collect();
        let mut rt = RouteTable {
            switch_ord: vec![NONE; self.node_count()],
            host_ord: vec![NONE; self.node_count()],
            hosts: hosts.len(),
            cells: vec![NONE; switches.len() * hosts.len()],
            set_bounds: vec![0],
            set_ports: Vec::new(),
        };
        for (i, &sw) in switches.iter().enumerate() {
            rt.switch_ord[sw.index()] = i as u32;
        }
        for (i, &h) in hosts.iter().enumerate() {
            rt.host_ord[h.index()] = i as u32;
        }
        // Single-homed hosts grouped by attachment switch; every other
        // host gets its own BFS.
        let mut behind: Vec<Vec<usize>> = vec![Vec::new(); self.node_count()];
        let mut own_bfs = Vec::new();
        for (hi, &h) in hosts.iter().enumerate() {
            match self.ports(h) {
                [only] if !self.is_host(only.peer.node) => behind[only.peer.node.index()].push(hi),
                _ => own_bfs.push(hi),
            }
        }
        let mut pool = HashMap::new();
        let mut cands = Vec::new();
        let nh = hosts.len();
        for (si, &attach) in switches.iter().enumerate() {
            let group = &behind[attach.index()];
            if group.is_empty() {
                continue;
            }
            let dist = self.bfs_dist(attach);
            for (s, &sw) in switches.iter().enumerate() {
                if s == si || dist[sw.index()] == u32::MAX {
                    continue;
                }
                self.closer_ports(sw, &dist, &mut cands);
                let set = rt.intern(&mut pool, &cands);
                for &hi in group {
                    rt.cells[s * nh + hi] = set;
                }
            }
            for &hi in group {
                let port = self.ports(hosts[hi])[0].peer.port;
                rt.cells[si * nh + hi] = rt.intern(&mut pool, &[port]);
            }
        }
        for hi in own_bfs {
            let dist = self.bfs_dist(hosts[hi]);
            for (s, &sw) in switches.iter().enumerate() {
                if dist[sw.index()] != u32::MAX {
                    self.closer_ports(sw, &dist, &mut cands);
                    rt.cells[s * nh + hi] = rt.intern(&mut pool, &cands);
                }
            }
        }
        self.routes = rt;
    }

    /// The ports of `sw` whose peer is strictly closer than `sw` under
    /// `dist`, in port order.
    fn closer_ports(&self, sw: NodeId, dist: &[u32], out: &mut Vec<u8>) {
        let d = dist[sw.index()];
        out.clear();
        out.extend(
            self.ports[sw.index()]
                .iter()
                .enumerate()
                .filter(|(_, info)| dist[info.peer.node.index()] < d)
                .map(|(pi, _)| pi as u8),
        );
    }

    fn bfs_dist(&self, from: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        dist[from.index()] = 0;
        let mut q = VecDeque::from([from]);
        while let Some(n) = q.pop_front() {
            // Hosts other than the origin do not forward traffic.
            if n != from && self.is_host(n) {
                continue;
            }
            for info in &self.ports[n.index()] {
                let m = info.peer.node;
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = dist[n.index()] + 1;
                    q.push_back(m);
                }
            }
        }
        dist
    }

    /// Force traffic for `dst` at `sw` out of `port`, regardless of the
    /// computed shortest path. Used by deadlock scenarios to emulate routing
    /// misconfiguration; intentionally allowed to create loops.
    pub fn add_route_override(&mut self, sw: NodeId, dst: NodeId, port: u8) {
        assert!(!self.is_host(sw), "overrides apply to switches");
        self.overrides.insert((sw, dst), port);
    }

    pub fn clear_route_overrides(&mut self) {
        self.overrides.clear();
    }

    /// The egress port switch `sw` uses for `flow` (ECMP-hashed among
    /// equal-cost candidates, unless overridden).
    pub fn route_port(&self, sw: NodeId, flow: &FlowKey) -> Option<u8> {
        if !self.overrides.is_empty() {
            if let Some(&p) = self.overrides.get(&(sw, flow.dst)) {
                return Some(p);
            }
        }
        let cands = self.routes.candidates(sw, flow.dst)?;
        Some(cands[(flow.hash32() as usize) % cands.len()])
    }

    /// The full switch path a flow takes, as (switch, ingress port, egress
    /// port) triples from source ToR to destination ToR. Returns `None` if
    /// routing fails or loops beyond `max_hops`.
    pub fn flow_path(&self, flow: &FlowKey) -> Option<Vec<(NodeId, u8, u8)>> {
        let mut path = Vec::new();
        let src_port = PortId::new(flow.src, 0);
        let mut at = self.peer(src_port); // ingress port on the first switch
        let max_hops = 64;
        for _ in 0..max_hops {
            if self.is_host(at.node) {
                return Some(path);
            }
            let out = self.route_port(at.node, flow)?;
            path.push((at.node, at.port, out));
            at = self.peer(PortId::new(at.node, out));
        }
        None // routing loop
    }

    /// Heap bytes held: the graph, the route table and the overrides (the
    /// map's share estimated from its capacity).
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self.names.iter().map(String::capacity).sum();
        let ports: usize = self
            .ports
            .iter()
            .map(|p| p.capacity() * size_of::<PortInfo>())
            .sum();
        self.kinds.capacity() * size_of::<NodeKind>()
            + self.names.capacity() * size_of::<String>()
            + names
            + self.ports.capacity() * size_of::<Vec<PortInfo>>()
            + ports
            + self.routes.heap_bytes()
            + self.overrides.capacity() * (size_of::<((NodeId, NodeId), u8)>() + 1)
    }

    /// All (switch, egress port) pairs on the flow's path.
    pub fn flow_egress_ports(&self, flow: &FlowKey) -> Vec<PortId> {
        self.flow_path(flow)
            .map(|p| {
                p.into_iter()
                    .map(|(sw, _, out)| PortId::new(sw, out))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

/// Default link parameters used across the evaluation (paper §4.1).
pub const EVAL_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(100);
pub const EVAL_DELAY: Nanos = Nanos::from_micros(2);

/// Parameters for the generalized three-tier Clos family.
///
/// A classic fat-tree is the symmetric point of this family
/// (`ClosConfig::fat_tree(k)`); the extra knobs cover the corpus variants:
/// asymmetric capacity (slowed agg↔core uplinks on trailing pods) and
/// link-failure topologies (trailing agg↔core links never built). Node
/// naming follows the `fat_tree` scheme (`h{i}`, `edge{p}_{e}`,
/// `agg{p}_{a}`, `core{c}`) so navigation by name works across the family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosConfig {
    pub pods: usize,
    pub edges_per_pod: usize,
    pub aggs_per_pod: usize,
    pub hosts_per_edge: usize,
    /// Agg index `a` of every pod connects to cores
    /// `[a*cores_per_group, (a+1)*cores_per_group)`.
    pub cores_per_group: usize,
    pub bw: Bandwidth,
    pub delay: Nanos,
    /// Agg↔core uplinks of the last `slow_pods` pods run at
    /// `bw / slow_divisor` (asymmetric-capacity Clos). 0 = symmetric.
    pub slow_pods: usize,
    pub slow_divisor: u64,
    /// Skip this many agg↔core links, counted backward from the last one
    /// the symmetric build would create (link-failure variant).
    pub failed_core_links: usize,
}

impl ClosConfig {
    /// The symmetric fat-tree with parameter `k`.
    pub fn fat_tree(k: usize, bw: Bandwidth, delay: Nanos) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
        let half = k / 2;
        ClosConfig {
            pods: k,
            edges_per_pod: half,
            aggs_per_pod: half,
            hosts_per_edge: half,
            cores_per_group: half,
            bw,
            delay,
            slow_pods: 0,
            slow_divisor: 1,
            failed_core_links: 0,
        }
    }

    pub fn host_count(&self) -> usize {
        self.pods * self.edges_per_pod * self.hosts_per_edge
    }
}

/// Build a member of the generalized Clos family described by `cfg`.
///
/// Construction order (hosts, then per-pod edge+agg switches, then cores;
/// links host↔edge, edge↔agg, agg↔core) matches the historical `fat_tree`
/// builder exactly, so `clos(&ClosConfig::fat_tree(k, ..))` produces
/// byte-identical node ids, port numbers, and therefore ECMP hashes.
pub fn clos(cfg: &ClosConfig) -> Topology {
    assert!(cfg.pods >= 1 && cfg.edges_per_pod >= 1 && cfg.hosts_per_edge >= 1);
    assert!(cfg.aggs_per_pod >= 1 && cfg.cores_per_group >= 1);
    assert!(cfg.slow_divisor >= 1, "slow_divisor must be >= 1");
    assert!(cfg.slow_pods <= cfg.pods);
    let mut t = Topology::new();
    let (epp, app, hpe) = (cfg.edges_per_pod, cfg.aggs_per_pod, cfg.hosts_per_edge);

    let mut hosts = Vec::new();
    for pod in 0..cfg.pods {
        for e in 0..epp {
            for h in 0..hpe {
                hosts.push(t.add_host(format!("h{}", pod * epp * hpe + e * hpe + h)));
            }
        }
    }
    let mut edges = Vec::new();
    let mut aggs = Vec::new();
    for pod in 0..cfg.pods {
        for e in 0..epp {
            edges.push(t.add_switch(format!("edge{}_{}", pod, e)));
        }
        for a in 0..app {
            aggs.push(t.add_switch(format!("agg{}_{}", pod, a)));
        }
    }
    let mut cores = Vec::new();
    for c in 0..app * cfg.cores_per_group {
        cores.push(t.add_switch(format!("core{}", c)));
    }

    // Host <-> edge links.
    for pod in 0..cfg.pods {
        for e in 0..epp {
            let edge = edges[pod * epp + e];
            for h in 0..hpe {
                let host = hosts[pod * epp * hpe + e * hpe + h];
                t.connect(host, edge, cfg.bw, cfg.delay);
            }
        }
    }
    // Edge <-> agg links (full bipartite within a pod).
    for pod in 0..cfg.pods {
        for e in 0..epp {
            for a in 0..app {
                t.connect(edges[pod * epp + e], aggs[pod * app + a], cfg.bw, cfg.delay);
            }
        }
    }
    // Agg <-> core links: agg `a` of each pod connects to cores
    // [a*cores_per_group, (a+1)*cores_per_group). The last
    // `failed_core_links` links in enumeration order are not built; the
    // last `slow_pods` pods uplink at reduced bandwidth.
    let total_core_links = cfg.pods * app * cfg.cores_per_group;
    let first_failed = total_core_links.saturating_sub(cfg.failed_core_links);
    let slow_bw = Bandwidth::from_bps(cfg.bw.bits_per_sec() / cfg.slow_divisor);
    let mut link_idx = 0;
    for pod in 0..cfg.pods {
        let uplink_bw = if pod >= cfg.pods - cfg.slow_pods {
            slow_bw
        } else {
            cfg.bw
        };
        for a in 0..app {
            for c in 0..cfg.cores_per_group {
                if link_idx < first_failed {
                    t.connect(
                        aggs[pod * app + a],
                        cores[a * cfg.cores_per_group + c],
                        uplink_bw,
                        cfg.delay,
                    );
                }
                link_idx += 1;
            }
        }
    }

    t.compute_routes();
    t
}

/// Build the paper's evaluation topology: a fat-tree with parameter `k`
/// (k=4: 16 hosts, 20 switches — 8 edge, 8 aggregation, 4 core).
pub fn fat_tree(k: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    clos(&ClosConfig::fat_tree(k, bw, delay))
}

/// A linear chain of `n` switches, each with `hosts_per_switch` hosts —
/// the Fig. 1(a)/1(b) style topology for case studies.
pub fn chain(n: usize, hosts_per_switch: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    assert!(n >= 1);
    let mut t = Topology::new();
    let mut hosts = Vec::new();
    for s in 0..n {
        for h in 0..hosts_per_switch {
            hosts.push(t.add_host(format!("h{}_{}", s, h)));
        }
    }
    let mut sws = Vec::new();
    for s in 0..n {
        sws.push(t.add_switch(format!("sw{}", s)));
    }
    for s in 0..n {
        for h in 0..hosts_per_switch {
            t.connect(hosts[s * hosts_per_switch + h], sws[s], bw, delay);
        }
    }
    for s in 0..n - 1 {
        t.connect(sws[s], sws[s + 1], bw, delay);
    }
    t.compute_routes();
    t
}

/// A ring of `n` switches with hosts, for cyclic-buffer-dependency
/// (deadlock) case studies; shortest-path routing is still loop-free, so
/// scenarios install overrides to push flows around the cycle.
pub fn ring(n: usize, hosts_per_switch: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    assert!(n >= 3);
    let mut t = Topology::new();
    let mut hosts = Vec::new();
    for s in 0..n {
        for h in 0..hosts_per_switch {
            hosts.push(t.add_host(format!("h{}_{}", s, h)));
        }
    }
    let mut sws = Vec::new();
    for s in 0..n {
        sws.push(t.add_switch(format!("sw{}", s)));
    }
    for s in 0..n {
        for h in 0..hosts_per_switch {
            t.connect(hosts[s * hosts_per_switch + h], sws[s], bw, delay);
        }
    }
    for s in 0..n {
        t.connect(sws[s], sws[(s + 1) % n], bw, delay);
    }
    t.compute_routes();
    t
}

/// A two-tier leaf-spine fabric: `leaves` ToR switches with
/// `hosts_per_leaf` hosts each, fully meshed to `spines` spine switches —
/// the other common data-center fabric besides the fat-tree.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    bw: Bandwidth,
    delay: Nanos,
) -> Topology {
    assert!(leaves >= 1 && spines >= 1);
    let mut t = Topology::new();
    let mut hosts = Vec::new();
    for l in 0..leaves {
        for h in 0..hosts_per_leaf {
            hosts.push(t.add_host(format!("h{}", l * hosts_per_leaf + h)));
        }
    }
    let leaf_ids: Vec<_> = (0..leaves)
        .map(|l| t.add_switch(format!("leaf{l}")))
        .collect();
    let spine_ids: Vec<_> = (0..spines)
        .map(|s| t.add_switch(format!("spine{s}")))
        .collect();
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        for h in 0..hosts_per_leaf {
            t.connect(hosts[l * hosts_per_leaf + h], leaf, bw, delay);
        }
    }
    for &leaf in &leaf_ids {
        for &spine in &spine_ids {
            t.connect(leaf, spine, bw, delay);
        }
    }
    t.compute_routes();
    t
}

/// Two switches, `left`/`right` hosts on each side; the smallest topology
/// that exhibits cross-switch PFC backpressure. For unit tests.
pub fn dumbbell(left: usize, right: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    let mut t = Topology::new();
    let lhosts: Vec<_> = (0..left).map(|i| t.add_host(format!("l{i}"))).collect();
    let rhosts: Vec<_> = (0..right).map(|i| t.add_host(format!("r{i}"))).collect();
    let sl = t.add_switch("swL");
    let sr = t.add_switch("swR");
    for h in lhosts {
        t.connect(h, sl, bw, delay);
    }
    for h in rhosts {
        t.connect(h, sr, bw, delay);
    }
    t.connect(sl, sr, bw, delay);
    t.compute_routes();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-destination builder the flat table replaced: one BFS per
    /// host, and a map from (switch, host) to the sorted candidates.
    fn reference_routes(t: &Topology) -> HashMap<(NodeId, NodeId), Vec<u8>> {
        let mut routes = HashMap::new();
        for dst in t.hosts() {
            let dist = t.bfs_dist(dst);
            for sw in t.switches() {
                let d = dist[sw.index()];
                if d == u32::MAX {
                    continue;
                }
                let mut cands: Vec<u8> = Vec::new();
                for (pi, info) in t.ports(sw).iter().enumerate() {
                    if dist[info.peer.node.index()] < d {
                        cands.push(pi as u8);
                    }
                }
                cands.sort_unstable();
                routes.insert((sw, dst), cands);
            }
        }
        routes
    }

    type Routes = HashMap<(NodeId, NodeId), Vec<u8>>;

    fn reference_route_port(t: &Topology, routes: &Routes, sw: NodeId, f: &FlowKey) -> Option<u8> {
        if let Some(&p) = t.overrides.get(&(sw, f.dst)) {
            return Some(p);
        }
        let cands = routes.get(&(sw, f.dst))?;
        if cands.is_empty() {
            return None;
        }
        Some(cands[(f.hash32() as usize) % cands.len()])
    }

    fn reference_flow_path(
        t: &Topology,
        routes: &Routes,
        f: &FlowKey,
    ) -> Option<Vec<(NodeId, u8, u8)>> {
        let mut path = Vec::new();
        let mut at = t.peer(PortId::new(f.src, 0));
        for _ in 0..64 {
            if t.is_host(at.node) {
                return Some(path);
            }
            let out = reference_route_port(t, routes, at.node, f)?;
            path.push((at.node, at.port, out));
            at = t.peer(PortId::new(at.node, out));
        }
        None
    }

    /// `route_port` agrees with the reference for every switch and every
    /// destination node (hosts and switches) under several source ports,
    /// and `flow_path` agrees for host pairs `src_stride` apart.
    fn assert_matches_reference(t: &Topology, src_stride: usize) {
        let routes = reference_routes(t);
        let hosts: Vec<_> = t.hosts().collect();
        let nodes: Vec<_> = (0..t.node_count() as u32).map(NodeId).collect();
        for sw in t.switches() {
            for &dst in &nodes {
                for sp in [0u16, 7, 4242] {
                    let f = FlowKey::roce(hosts[sp as usize % hosts.len()], dst, sp);
                    assert_eq!(
                        t.route_port(sw, &f),
                        reference_route_port(t, &routes, sw, &f),
                        "switch {} -> node {} sport {sp}",
                        t.name(sw),
                        t.name(dst)
                    );
                }
            }
        }
        for &src in hosts.iter().step_by(src_stride) {
            for &dst in &hosts {
                for sp in [1u16, 99] {
                    let f = FlowKey::roce(src, dst, sp);
                    assert_eq!(t.flow_path(&f), reference_flow_path(t, &routes, &f));
                }
            }
        }
    }

    #[test]
    fn flat_routes_match_the_reference_builder() {
        for k in [4, 8] {
            assert_matches_reference(&fat_tree(k, EVAL_BANDWIDTH, EVAL_DELAY), 1);
        }
        let ft16 = fat_tree(16, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_matches_reference(&ft16, 97);
        // Interned: 16 single egress ports plus the 8-way uplink set.
        assert_eq!(ft16.routes.set_bounds.len() - 1, 17);
        let mut failed = ClosConfig::fat_tree(8, EVAL_BANDWIDTH, EVAL_DELAY);
        failed.failed_core_links = 5;
        assert_matches_reference(&clos(&failed), 1);
        let mut slow = ClosConfig::fat_tree(8, EVAL_BANDWIDTH, EVAL_DELAY);
        slow.slow_pods = 2;
        slow.slow_divisor = 4;
        assert_matches_reference(&clos(&slow), 1);
        assert_matches_reference(&leaf_spine(8, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY), 1);
        assert_matches_reference(&chain(4, 2, EVAL_BANDWIDTH, EVAL_DELAY), 1);
        assert_matches_reference(&ring(5, 2, EVAL_BANDWIDTH, EVAL_DELAY), 1);
        assert_matches_reference(&dumbbell(3, 2, EVAL_BANDWIDTH, EVAL_DELAY), 1);
    }

    #[test]
    fn dual_homed_host_takes_its_own_bfs() {
        // s0 - s1 - s2 in a line; `dual` links to s0 and s2, so it is two
        // hops from s1 either way and one from both ends. `a`, `b` and `c`
        // are single-homed on s0, s1 and s2.
        let mut t = Topology::new();
        let dual = t.add_host("dual");
        let a = t.add_host("a");
        let b = t.add_host("b");
        let c = t.add_host("c");
        let s: Vec<_> = (0..3).map(|i| t.add_switch(format!("s{i}"))).collect();
        t.connect(dual, s[0], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(dual, s[2], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(a, s[0], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(b, s[1], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(c, s[2], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(s[0], s[1], EVAL_BANDWIDTH, EVAL_DELAY);
        t.connect(s[1], s[2], EVAL_BANDWIDTH, EVAL_DELAY);
        t.compute_routes();
        assert_matches_reference(&t, 1);
        // s1 reaches `dual` over both neighbors: ECMP over ports 1 and 2.
        let picks: std::collections::BTreeSet<_> = (0..32)
            .map(|sp| t.route_port(s[1], &FlowKey::roce(b, dual, sp)).unwrap())
            .collect();
        assert_eq!(picks, [1u8, 2].into());
    }

    #[test]
    fn overrides_win_and_unroutable_destinations_have_no_port() {
        let mut t = ring(4, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        // A clockwise loop for dst host0 plus one detour for host2.
        for i in 0..4 {
            let next = sws[(i + 1) % 4];
            let port = (0..t.ports(sws[i]).len() as u8)
                .find(|&p| t.peer(PortId::new(sws[i], p)).node == next)
                .unwrap();
            t.add_route_override(sws[i], hosts[0], port);
        }
        t.add_route_override(sws[1], hosts[2], 0);
        assert_matches_reference(&t, 1);
        let f = FlowKey::roce(hosts[1], hosts[2], 3);
        assert_eq!(t.route_port(sws[1], &f), Some(0), "override wins");
        assert!(t.flow_path(&FlowKey::roce(hosts[2], hosts[0], 5)).is_none());

        // A switch is not a destination; an island is unreachable.
        let mut t = dumbbell(1, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let island = t.add_host("island");
        let lone = t.add_switch("lone");
        t.connect(island, lone, EVAL_BANDWIDTH, EVAL_DELAY);
        t.compute_routes();
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        let port = |sw, src, dst| t.route_port(sw, &FlowKey::roce(src, dst, 1));
        assert_eq!(port(sws[0], hosts[0], sws[1]), None);
        assert_eq!(port(sws[0], hosts[0], island), None);
        assert_eq!(port(lone, island, hosts[0]), None);
        assert!(port(lone, hosts[0], island).is_some());
        assert_matches_reference(&t, 1);
    }

    #[test]
    fn fat_tree_k4_matches_paper_scale() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(t.switches().count(), 20);
        // Every edge switch has 2 hosts + 2 aggs = 4 ports; aggs 2+2; cores 4.
        for sw in t.switches() {
            assert_eq!(t.ports(sw).len(), 4, "switch {} radix", t.name(sw));
        }
    }

    #[test]
    fn clos_fat_tree_identical_to_legacy_shape() {
        // The k=8 fat-tree through the generalized builder keeps the
        // expected scale and uniform radix.
        let t = fat_tree(8, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 128);
        assert_eq!(t.switches().count(), 80);
        for sw in t.switches() {
            assert_eq!(t.ports(sw).len(), 8, "switch {} radix", t.name(sw));
        }
    }

    #[test]
    fn clos_failed_core_links_drop_trailing_uplinks() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.failed_core_links = 2;
        let t = clos(&cfg);
        // The last pod's last agg lost both its core uplinks: 2 ports left.
        let agg_last = t
            .switches()
            .find(|&s| t.name(s) == "agg3_1")
            .expect("agg3_1 exists");
        assert_eq!(t.ports(agg_last).len(), 2);
        // All host pairs still route (BFS recomputed on the real graph).
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[15], 7);
        assert!(t.flow_path(&f).is_some());
    }

    #[test]
    fn clos_slow_pods_reduce_uplink_bandwidth() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.slow_pods = 2;
        cfg.slow_divisor = 4;
        let t = clos(&cfg);
        let agg0 = t.switches().find(|&s| t.name(s) == "agg0_0").unwrap();
        let agg3 = t.switches().find(|&s| t.name(s) == "agg3_0").unwrap();
        // Ports 0..2 on an agg face edges; 2..4 face cores.
        assert_eq!(t.ports(agg0)[2].bandwidth, EVAL_BANDWIDTH);
        assert_eq!(
            t.ports(agg3)[2].bandwidth,
            Bandwidth::from_bps(EVAL_BANDWIDTH.bits_per_sec() / 4)
        );
        // Fast pods keep full-rate uplinks.
        assert_eq!(t.ports(agg0)[3].bandwidth, EVAL_BANDWIDTH);
    }

    #[test]
    fn fat_tree_routes_all_pairs() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let f = FlowKey::roce(a, b, 99);
                let path = t.flow_path(&f).expect("path exists");
                assert!(!path.is_empty());
                // Intra-rack: 1 switch; intra-pod: 3; inter-pod: 5.
                assert!(
                    matches!(path.len(), 1 | 3 | 5),
                    "unexpected path length {} for {}->{}",
                    path.len(),
                    a.0,
                    b.0
                );
                // Path ends adjacent to the destination.
                let (last_sw, _, out) = *path.last().unwrap();
                assert_eq!(t.peer(PortId::new(last_sw, out)).node, b);
            }
        }
    }

    #[test]
    fn ecmp_spreads_flows_across_candidates() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        // Inter-pod pair: first and last host.
        let (a, b) = (hosts[0], hosts[15]);
        let mut seen = std::collections::HashSet::new();
        for sp in 0..64 {
            let f = FlowKey::roce(a, b, sp);
            seen.insert(t.flow_path(&f).unwrap());
        }
        assert!(seen.len() >= 2, "ECMP should yield multiple paths");
    }

    #[test]
    fn chain_routes_along_the_line() {
        let t = chain(4, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[7], 5);
        let path = t.flow_path(&f).unwrap();
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn dumbbell_crosses_the_middle_link() {
        let t = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[2], 5);
        let path = t.flow_path(&f).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn route_override_changes_path_and_can_loop() {
        let mut t = ring(4, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        let f = FlowKey::roce(hosts[0], hosts[1], 5);
        let normal = t.flow_path(&f).unwrap();
        assert_eq!(normal.len(), 2);
        // Force sw0 to route the "long way" for dst host1.
        // sw0 ports: 0 = host, 1 = to sw1, 2 = to sw3 (ring closure gives
        // the last switch the back-link).
        let back_port = (t.ports(sws[0]).len() - 1) as u8;
        t.add_route_override(sws[0], hosts[1], back_port);
        // Pin the rest of the long way round so ECMP cannot bounce back.
        for i in [3usize, 2] {
            let next = sws[(i + 3) % 4]; // 3 -> 2, 2 -> 1
            let port = (0..t.ports(sws[i]).len() as u8)
                .find(|&p| t.peer(PortId::new(sws[i], p)).node == next)
                .unwrap();
            t.add_route_override(sws[i], hosts[1], port);
        }
        let long = t.flow_path(&f).unwrap();
        assert!(long.len() > normal.len());
        t.clear_route_overrides();
        assert_eq!(t.flow_path(&f).unwrap(), normal);
    }

    #[test]
    fn full_loop_override_detected() {
        let mut t = ring(4, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        // Route dst=host0 clockwise forever.
        for i in 0..4 {
            // Each switch's port to the next switch: ports are [host,
            // prev?, next?] — find the port whose peer is sws[(i+1)%4].
            let next = sws[(i + 1) % 4];
            let port = (0..t.ports(sws[i]).len() as u8)
                .find(|&p| t.peer(PortId::new(sws[i], p)).node == next)
                .unwrap();
            t.add_route_override(sws[i], hosts[0], port);
        }
        let f = FlowKey::roce(hosts[2], hosts[0], 5);
        assert!(t.flow_path(&f).is_none(), "loop must be detected");
    }

    #[test]
    fn leaf_spine_routes_and_ecmp() {
        let t = leaf_spine(4, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(t.switches().count(), 6);
        let hosts: Vec<_> = t.hosts().collect();
        // Intra-leaf: 1 switch; inter-leaf: leaf-spine-leaf.
        let intra = t.flow_path(&FlowKey::roce(hosts[0], hosts[1], 5)).unwrap();
        assert_eq!(intra.len(), 1);
        let inter = t.flow_path(&FlowKey::roce(hosts[0], hosts[5], 5)).unwrap();
        assert_eq!(inter.len(), 3);
        // ECMP spreads inter-leaf flows over both spines.
        let mut spines = std::collections::HashSet::new();
        for sp in 0..32 {
            let p = t.flow_path(&FlowKey::roce(hosts[0], hosts[5], sp)).unwrap();
            spines.insert(p[1].0);
        }
        assert_eq!(spines.len(), 2);
    }

    #[test]
    fn host_facing_detection() {
        let t = dumbbell(1, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let sws: Vec<_> = t.switches().collect();
        assert!(t.is_host_facing(PortId::new(sws[0], 0)));
        // Port 1 of swL is the inter-switch link.
        assert!(!t.is_host_facing(PortId::new(sws[0], 1)));
    }
}
