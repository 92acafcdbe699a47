//! The assembled two-tier network: intra-GPU crossbar ports per GPM and
//! inter-GPU switch ports per GPU, with per-class byte accounting.

use hmg_sim::{Cycle, FaultPlan, Rng};

use crate::ids::{GpmId, Topology};
use crate::link::Link;
use crate::routing::{Liveness, RouteKind};

/// Seed perturbation for the transport's drop stream, so it is
/// decorrelated from the engine's fault stream while still being a pure
/// function of the plan seed (golden-ratio constant, as in SplitMix64).
const DROP_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed perturbation for the transport's wire-corruption stream
/// ([`hmg_sim::fault::MsgFlip`]), decorrelated from both the engine
/// stream and the drop stream (SplitMix64 finalizer constant).
const FLIP_STREAM_SALT: u64 = 0xBF58_476D_1CE4_E5B9;

/// Classification of protocol traffic, used for the bandwidth breakdowns
/// in the evaluation (Fig. 11 charges only `Inv` bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Load/atomic request headers.
    Request,
    /// Load/atomic responses carrying a cache line.
    Data,
    /// Store write-through traffic (header + sector payload).
    StoreData,
    /// Coherence invalidation messages.
    Inv,
    /// Control traffic: release fences and their acknowledgments.
    Ctrl,
}

impl MsgClass {
    /// All classes, in index order.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::Request,
        MsgClass::Data,
        MsgClass::StoreData,
        MsgClass::Inv,
        MsgClass::Ctrl,
    ];

    #[inline]
    fn idx(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Data => 1,
            MsgClass::StoreData => 2,
            MsgClass::Inv => 3,
            MsgClass::Ctrl => 4,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Request => "request",
            MsgClass::Data => "data",
            MsgClass::StoreData => "store",
            MsgClass::Inv => "inv",
            MsgClass::Ctrl => "ctrl",
        }
    }
}

/// Bandwidth and latency parameters for the two network tiers.
///
/// Bandwidths are specified the way Table II does: an aggregate
/// bidirectional intra-GPU figure per GPU (2 TB/s) and a per-direction
/// inter-GPU link figure (200 GB/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Core clock in GHz; converts GB/s into bytes per cycle.
    pub freq_ghz: f64,
    /// Aggregate intra-GPU (inter-GPM) bandwidth per GPU, GB/s,
    /// bidirectional. Each GPM gets `intra / gpms_per_gpu` per direction.
    pub intra_gpu_gbps: f64,
    /// Inter-GPU bandwidth per GPU, GB/s, each direction.
    pub inter_gpu_gbps: f64,
    /// One-way latency between two GPMs of the same GPU.
    pub intra_latency: Cycle,
    /// One-way latency between two GPMs of different GPUs.
    pub inter_latency: Cycle,
}

impl FabricConfig {
    /// Table II defaults: 1.3 GHz, 2 TB/s intra-GPU, 200 GB/s inter-GPU.
    pub fn paper_default() -> Self {
        FabricConfig {
            freq_ghz: 1.3,
            intra_gpu_gbps: 2000.0,
            inter_gpu_gbps: 200.0,
            intra_latency: Cycle(90),
            inter_latency: Cycle(360),
        }
    }

    fn bytes_per_cycle(&self, gbps: f64) -> f64 {
        gbps / self.freq_ghz
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::paper_default()
    }
}

/// Parameters of the reliable-delivery (retransmission) layer.
///
/// Every message carries a per-channel sequence number; a lost delivery
/// attempt is noticed after `timeout` cycles and replayed, with the
/// timeout doubling on every consecutive loss of the same message
/// (capped at `2^MAX_BACKOFF_SHIFT`). After `max_retries` losses the
/// transport stops charging further timeouts and the final attempt is
/// delivered — the layer guarantees delivery, the cap only bounds the
/// modeled cost. All of this is deterministic: drops are drawn from a
/// dedicated SplitMix64 stream seeded by the fault-plan seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Cycles before a lost attempt is detected and replayed.
    pub timeout: Cycle,
    /// Maximum charged retransmissions per message.
    pub max_retries: u32,
    /// Retransmissions exhausted before a delivery-timeout escalation
    /// declares the destination *permanently* failed and hands the
    /// problem to the engine's fail-in-place reconfiguration. The
    /// charged detection downtime is the sum of the backed-off timeouts
    /// ([`TransportConfig::escalation_cycles`]).
    pub fail_escalation_attempts: u32,
    /// Per-message checksum verification at delivery (on by default).
    /// A corrupt delivery ([`hmg_sim::fault::MsgFlip`]) is detected at
    /// the receiver and charged like a lost delivery — replayed through
    /// the same timeout/backoff path. Disabling this lets corrupt
    /// messages through *silently*; the engine surfaces them in
    /// `IntegrityStats::silent_corruptions`.
    pub checksums: bool,
}

impl TransportConfig {
    /// Largest exponent used by the exponential backoff (`timeout * 2^6`).
    pub const MAX_BACKOFF_SHIFT: u32 = 6;

    /// Modeled cost of declaring a component dead: the delivery-timeout
    /// escalation of `fail_escalation_attempts` unacknowledged
    /// retransmissions, each backed off like a lost attempt.
    pub fn escalation_cycles(&self) -> u64 {
        (0..self.fail_escalation_attempts)
            .map(|i| self.timeout.0 << i.min(Self::MAX_BACKOFF_SHIFT))
            .sum()
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            timeout: Cycle(500),
            max_retries: 16,
            fail_escalation_attempts: 4,
            checksums: true,
        }
    }
}

/// Counters of the reliable-delivery layer, for degradation reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages routed through the network (both tiers).
    pub messages: u64,
    /// Lost delivery attempts that were replayed.
    pub retransmissions: u64,
    /// Messages that lost at least one attempt but were recovered.
    pub recovered: u64,
    /// Total cycles of timeout backoff charged to replayed messages.
    pub retry_cycles: u64,
    /// Messages routed around a permanently down direct link via the
    /// second-tier switch path (fail-in-place reconfiguration).
    pub reroutes: u64,
    /// Wire corruptions injected by a `flip-msg` plan (delivery
    /// attempts whose payload/header bits were flipped in flight).
    pub flips_injected: u64,
    /// Corrupt deliveries caught by the per-message checksum and
    /// replayed like a lost delivery.
    pub checksum_retransmits: u64,
    /// Corrupt deliveries that sailed through because checksum
    /// verification was disabled — silent wrong data on the wire.
    pub silent_flips: u64,
}

/// Byte totals observed by the fabric, split by tier and message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    intra_bytes: [u64; 5],
    inter_bytes: [u64; 5],
    intra_msgs: [u64; 5],
    inter_msgs: [u64; 5],
    transport: TransportStats,
}

impl FabricStats {
    /// Bytes of class `class` that crossed intra-GPU ports.
    pub fn intra_bytes(&self, class: MsgClass) -> u64 {
        self.intra_bytes[class.idx()]
    }

    /// Bytes of class `class` that crossed inter-GPU ports.
    pub fn inter_bytes(&self, class: MsgClass) -> u64 {
        self.inter_bytes[class.idx()]
    }

    /// Messages of class `class` on intra-GPU ports.
    pub fn intra_msgs(&self, class: MsgClass) -> u64 {
        self.intra_msgs[class.idx()]
    }

    /// Messages of class `class` on inter-GPU ports.
    pub fn inter_msgs(&self, class: MsgClass) -> u64 {
        self.inter_msgs[class.idx()]
    }

    /// Total bytes of a class over both tiers.
    pub fn total_bytes(&self, class: MsgClass) -> u64 {
        self.intra_bytes(class) + self.inter_bytes(class)
    }

    /// Reliable-delivery layer counters (retransmissions, backoff cost).
    pub fn transport(&self) -> TransportStats {
        self.transport
    }

    /// Converts a byte total into GB/s given elapsed cycles and frequency;
    /// this is the unit Fig. 11 reports.
    pub fn gbps(bytes: u64, elapsed: Cycle, freq_ghz: f64) -> f64 {
        if elapsed == Cycle::ZERO {
            return 0.0;
        }
        let seconds = elapsed.to_seconds(freq_ghz);
        bytes as f64 / 1e9 / seconds
    }
}

/// The two-tier interconnect: per-GPM intra-GPU ports and per-GPU
/// inter-GPU ports, with store-and-forward routing between them.
///
/// # Example
///
/// ```
/// use hmg_interconnect::{Fabric, FabricConfig, MsgClass, Topology, GpmId};
/// use hmg_sim::Cycle;
///
/// let topo = Topology::new(2, 2);
/// let mut fabric = Fabric::new(topo, FabricConfig::paper_default());
/// // GPM0 -> GPM3 crosses the inter-GPU tier.
/// let arrival = fabric.send(Cycle(0), GpmId(0), GpmId(3), 128, MsgClass::Data);
/// assert!(arrival > Cycle(0));
/// assert!(fabric.stats().inter_bytes(MsgClass::Data) >= 128);
/// ```
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
    config: FabricConfig,
    intra_egress: Vec<Link>,
    intra_ingress: Vec<Link>,
    inter_egress: Vec<Link>,
    inter_ingress: Vec<Link>,
    stats: FabricStats,
    /// Injected link faults (bandwidth degradation / stall windows,
    /// on-wire loss). Empty by default; installed via
    /// [`Fabric::apply_faults`].
    faults: FaultPlan,
    /// Reliable-delivery parameters (timeouts, retry cap).
    transport: TransportConfig,
    /// Per-channel (src, dst) message sequence numbers; the transport
    /// tags every routed message so replays are identifiable and
    /// delivery per channel stays in order. Dense: GPM ids are compact
    /// indices, so channel (src, dst) lives at `src * num_gpms + dst`.
    seq: Vec<u64>,
    /// Drop stream, armed only when the plan injects [`hmg_sim::fault::MsgDrop`].
    /// `None` means no draws happen at all, so fault-free runs are
    /// bit-identical to a build without the transport layer.
    drop_rng: Option<Rng>,
    /// Wire-corruption stream, armed only when the plan injects
    /// [`hmg_sim::fault::MsgFlip`]; same no-draw guarantee as the drop
    /// stream when unarmed.
    flip_rng: Option<Rng>,
    /// Which components are alive and which direct link (if any) is
    /// permanently down; consulted by `send` for alternate-path routing
    /// and shared with the engine's reconfiguration logic.
    liveness: Liveness,
}

impl Fabric {
    /// Builds the fabric for `topo` with the given tier parameters.
    pub fn new(topo: Topology, config: FabricConfig) -> Self {
        let intra_bpc = config.bytes_per_cycle(config.intra_gpu_gbps / topo.gpms_per_gpu() as f64);
        let inter_bpc = config.bytes_per_cycle(config.inter_gpu_gbps);
        // Propagation latency is split between the egress and ingress hop.
        let intra_half = Cycle(config.intra_latency.0 / 2);
        let intra_rest = config.intra_latency - intra_half;
        let inter_half = Cycle(config.inter_latency.0 / 2);
        let _ = inter_half;
        // Inter-GPU messages also cross the intra fabric at both ends, so
        // the inter ports carry only the remaining latency.
        let inter_port_lat = Cycle(
            config
                .inter_latency
                .0
                .saturating_sub(config.intra_latency.0)
                / 2,
        );
        Fabric {
            topo,
            config,
            intra_egress: (0..topo.num_gpms())
                .map(|_| Link::new(intra_bpc, intra_half))
                .collect(),
            intra_ingress: (0..topo.num_gpms())
                .map(|_| Link::new(intra_bpc, intra_rest))
                .collect(),
            inter_egress: (0..topo.num_gpus())
                .map(|_| Link::new(inter_bpc, inter_port_lat))
                .collect(),
            inter_ingress: (0..topo.num_gpus())
                .map(|_| Link::new(inter_bpc, inter_port_lat))
                .collect(),
            stats: FabricStats::default(),
            faults: FaultPlan::default(),
            transport: TransportConfig::default(),
            seq: vec![0; topo.num_gpms() as usize * topo.num_gpms() as usize],
            drop_rng: None,
            flip_rng: None,
            liveness: Liveness::new(topo),
        }
    }

    /// Installs the link-fault portion of `plan` (degrade/stall windows
    /// and on-wire loss). Engine-side faults in the plan are ignored
    /// here. Arming a drop plan seeds the transport's dedicated drop
    /// stream from the plan seed, so the retransmission schedule is a
    /// pure function of (plan, traffic).
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        self.faults = plan.clone();
        self.drop_rng = plan.drop.map(|_| Rng::new(plan.seed ^ DROP_STREAM_SALT));
        self.flip_rng = plan
            .flip_msg
            .map(|_| Rng::new(plan.seed ^ FLIP_STREAM_SALT));
        if let Some(l) = plan.link_down {
            self.liveness
                .mark_link_down(GpmId(l.a), GpmId(l.b), l.at_cycle);
        }
    }

    /// Overrides the reliable-delivery parameters.
    pub fn set_transport(&mut self, transport: TransportConfig) {
        self.transport = transport;
    }

    /// Enables or disables per-message checksum verification. With
    /// checksums off, injected in-flight flips deliver corrupt payloads
    /// silently instead of triggering retransmission.
    pub fn set_checksums(&mut self, on: bool) {
        self.transport.checksums = on;
    }

    /// The reliable-delivery parameters in effect.
    pub fn transport_config(&self) -> TransportConfig {
        self.transport
    }

    /// The liveness/routing map (read-only; mutate through
    /// [`Fabric::mark_gpm_down`] and [`Fabric::apply_faults`]).
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Marks one GPM permanently offline. Called by the engine when a
    /// reconfiguration epoch activates a `gpm-offline`/`gpu-offline`
    /// fault; the engine stops routing to dead GPMs, so the fabric only
    /// records the fact for liveness queries and diagnostics.
    pub fn mark_gpm_down(&mut self, gpm: GpmId) {
        self.liveness.mark_gpm_down(gpm);
    }

    /// Next sequence number the transport will assign on the `src → dst`
    /// channel (equals the number of messages routed on it so far).
    pub fn channel_seq(&self, src: GpmId, dst: GpmId) -> u64 {
        self.seq[self.chan(src, dst)]
    }

    /// Dense index of the `src -> dst` transport channel.
    #[inline]
    fn chan(&self, src: GpmId, dst: GpmId) -> usize {
        src.index() * self.topo.num_gpms() as usize + dst.index()
    }

    /// Plays out the loss/retransmission episode for one message:
    /// returns how many attempts were lost and the total timeout backoff
    /// charged. Deterministic: draws come from the dedicated drop
    /// stream, one per delivery attempt, only when a drop plan is armed.
    fn drop_episode(&mut self) -> (u32, Cycle) {
        let (Some(d), Some(rng)) = (self.faults.drop, self.drop_rng.as_mut()) else {
            return (0, Cycle::ZERO);
        };
        let mut retries = 0u32;
        let mut backoff = 0u64;
        while retries < self.transport.max_retries && rng.gen_bool(d.prob) {
            backoff += self.transport.timeout.0 << retries.min(TransportConfig::MAX_BACKOFF_SHIFT);
            retries += 1;
        }
        (retries, Cycle(backoff))
    }

    /// Plays out the wire-corruption episode for one message: each
    /// delivery attempt flips with the plan probability. With checksums
    /// on, a corrupt attempt is detected at the receiver and charged
    /// like a lost delivery (replay + timeout backoff), the
    /// retransmission itself subject to further corruption; with
    /// checksums off the corruption is counted as silent and delivered.
    /// Returns the extra retransmissions and backoff to charge.
    /// Deterministic: draws come from the dedicated flip stream, armed
    /// only when the plan injects `flip-msg`.
    fn flip_episode(&mut self) -> (u32, Cycle) {
        let (Some(m), Some(rng)) = (self.faults.flip_msg, self.flip_rng.as_mut()) else {
            return (0, Cycle::ZERO);
        };
        if !self.transport.checksums {
            // One draw for the single (unverified) delivery attempt.
            if rng.gen_bool(m.prob) {
                self.stats.transport.flips_injected += 1;
                self.stats.transport.silent_flips += 1;
            }
            return (0, Cycle::ZERO);
        }
        let mut retries = 0u32;
        let mut backoff = 0u64;
        while retries < self.transport.max_retries && rng.gen_bool(m.prob) {
            self.stats.transport.flips_injected += 1;
            self.stats.transport.checksum_retransmits += 1;
            backoff += self.transport.timeout.0 << retries.min(TransportConfig::MAX_BACKOFF_SHIFT);
            retries += 1;
        }
        (retries, Cycle(backoff))
    }

    /// The topology this fabric was built for.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Routes `bytes` from `src` to `dst` starting at `now`; returns the
    /// arrival time. Same-GPM traffic does not touch the network.
    pub fn send(
        &mut self,
        now: Cycle,
        src: GpmId,
        dst: GpmId,
        bytes: u32,
        class: MsgClass,
    ) -> Cycle {
        if src == dst {
            return now;
        }
        // Injected link faults: degrade/stall windows are keyed off the
        // time the message is *offered*, applied uniformly to every hop
        // it crosses. Slowing serialization keeps per-port FIFO order,
        // so these faults are tolerated, not protocol-breaking.
        let slow = self.faults.link_slowdown(now.0);
        let extra = Cycle(self.faults.link_stall_extra(now.0));
        // Reliable delivery: tag the message with its channel sequence
        // number and play out any on-wire loss at the egress hop. The
        // replay episode (extra serializations + timeout backoff) holds
        // the egress port, so everything behind it queues up and the
        // channel stays FIFO — loss is recovered, never reordered.
        let chan = self.chan(src, dst);
        self.seq[chan] += 1;
        let (drop_retries, drop_backoff) = self.drop_episode();
        // Checksum-detected corruptions replay through the same retry
        // machinery as losses; the episodes compose additively.
        let (flip_retries, flip_backoff) = self.flip_episode();
        let retries = drop_retries + flip_retries;
        let backoff = drop_backoff + flip_backoff;
        self.stats.transport.messages += 1;
        self.stats.transport.retransmissions += retries as u64;
        self.stats.transport.recovered += u64::from(retries > 0);
        self.stats.transport.retry_cycles += backoff.0;
        if self.topo.same_gpu(src, dst) {
            self.stats.intra_bytes[class.idx()] += bytes as u64;
            self.stats.intra_msgs[class.idx()] += 1;
            let t1 = self.intra_egress[src.index()]
                .send_retried(now, bytes, slow, extra, retries, backoff);
            match self.liveness.route(src, dst, now.0) {
                RouteKind::Direct => {
                    self.intra_ingress[dst.index()].send_degraded(t1, bytes, slow, extra)
                }
                RouteKind::SecondTier => {
                    // Fail-in-place: the direct first-tier link is gone,
                    // so hop up through the GPU's second-tier switch
                    // port and back down. Strictly longer than the
                    // direct path and serialized behind everything
                    // already queued on the shared ports, so the
                    // src → dst channel stays FIFO across the failure.
                    self.stats.transport.reroutes += 1;
                    self.stats.inter_bytes[class.idx()] += bytes as u64;
                    self.stats.inter_msgs[class.idx()] += 1;
                    let gpu = self.topo.gpu_of(src).0 as usize;
                    let t2 = self.inter_egress[gpu].send_degraded(t1, bytes, slow, extra);
                    let t3 = self.inter_ingress[gpu].send_degraded(t2, bytes, slow, extra);
                    self.intra_ingress[dst.index()].send_degraded(t3, bytes, slow, extra)
                }
            }
        } else {
            self.stats.intra_bytes[class.idx()] += bytes as u64;
            self.stats.intra_msgs[class.idx()] += 1;
            self.stats.inter_bytes[class.idx()] += bytes as u64;
            self.stats.inter_msgs[class.idx()] += 1;
            let src_gpu = self.topo.gpu_of(src);
            let dst_gpu = self.topo.gpu_of(dst);
            let t1 = self.intra_egress[src.index()]
                .send_retried(now, bytes, slow, extra, retries, backoff);
            let t2 = self.inter_egress[src_gpu.0 as usize].send_degraded(t1, bytes, slow, extra);
            let t3 = self.inter_ingress[dst_gpu.0 as usize].send_degraded(t2, bytes, slow, extra);
            self.intra_ingress[dst.index()].send_degraded(t3, bytes, slow, extra)
        }
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Utilization of a GPU's inter-GPU egress port over `elapsed` cycles.
    pub fn inter_egress_utilization(&self, gpu: crate::GpuId, elapsed: Cycle) -> f64 {
        self.inter_egress[gpu.0 as usize].utilization(elapsed)
    }

    /// Utilization of a GPM's intra-GPU egress port over `elapsed` cycles.
    pub fn intra_egress_utilization(&self, gpm: GpmId, elapsed: Cycle) -> f64 {
        self.intra_egress[gpm.index()].utilization(elapsed)
    }

    /// Utilization of a GPM's intra-GPU ingress port over `elapsed` cycles.
    pub fn intra_ingress_utilization(&self, gpm: GpmId, elapsed: Cycle) -> f64 {
        self.intra_ingress[gpm.index()].utilization(elapsed)
    }

    /// Backlog of a GPM's intra-GPU ports relative to `now`: cycles of
    /// queued serialization on (egress, ingress). Used by the deadlock
    /// diagnostic to show whether a stuck address sits behind a full
    /// link queue.
    pub fn intra_backlog(&self, gpm: GpmId, now: Cycle) -> (u64, u64) {
        (
            self.intra_egress[gpm.index()]
                .next_free()
                .0
                .saturating_sub(now.0),
            self.intra_ingress[gpm.index()]
                .next_free()
                .0
                .saturating_sub(now.0),
        )
    }

    /// Backlog of a GPU's inter-GPU ports relative to `now`: cycles of
    /// queued serialization on (egress, ingress).
    pub fn inter_backlog(&self, gpu: crate::GpuId, now: Cycle) -> (u64, u64) {
        (
            self.inter_egress[gpu.0 as usize]
                .next_free()
                .0
                .saturating_sub(now.0),
            self.inter_ingress[gpu.0 as usize]
                .next_free()
                .0
                .saturating_sub(now.0),
        )
    }
}

hmg_sim::snapshot_codec!(TransportStats {
    messages,
    retransmissions,
    recovered,
    retry_cycles,
    reroutes,
    flips_injected,
    checksum_retransmits,
    silent_flips,
});

hmg_sim::snapshot_codec!(FabricStats {
    intra_bytes,
    inter_bytes,
    intra_msgs,
    inter_msgs,
    transport,
});

// The fabric's snapshot covers only state that traffic mutates: the
// four port groups, traffic stats, per-channel sequence numbers, the
// two armed fault streams, and the liveness map. Configuration (topo,
// tier parameters, fault plan, transport knobs) is rebuilt by the
// owning engine from the run configuration before `restore_snap_state`
// is called, which lets the restore path validate shape mismatches as
// stale-identity-style corruption instead of trusting the file.
impl hmg_sim::SnapshotWrite for Fabric {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        self.intra_egress.write_snap(w);
        self.intra_ingress.write_snap(w);
        self.inter_egress.write_snap(w);
        self.inter_ingress.write_snap(w);
        self.stats.write_snap(w);
        self.seq.write_snap(w);
        self.drop_rng.write_snap(w);
        self.flip_rng.write_snap(w);
        self.liveness.write_snap(w);
    }
}

impl Fabric {
    /// Restores the traffic-mutable state serialized by this fabric's
    /// `SnapshotWrite` into a freshly constructed fabric of the same
    /// topology and configuration. Refuses (typed, no panic) snapshots
    /// whose port counts or channel table don't match this fabric.
    pub fn restore_snap_state(
        &mut self,
        r: &mut hmg_sim::SnapReader<'_>,
    ) -> Result<(), hmg_sim::SnapError> {
        use hmg_sim::SnapshotRead;
        let intra_egress: Vec<Link> = Vec::read_snap(r)?;
        let intra_ingress: Vec<Link> = Vec::read_snap(r)?;
        let inter_egress: Vec<Link> = Vec::read_snap(r)?;
        let inter_ingress: Vec<Link> = Vec::read_snap(r)?;
        let stats = FabricStats::read_snap(r)?;
        let seq: Vec<u64> = Vec::read_snap(r)?;
        let drop_rng: Option<Rng> = Option::read_snap(r)?;
        let flip_rng: Option<Rng> = Option::read_snap(r)?;
        let liveness = Liveness::read_snap(r)?;
        let gpms = self.topo.num_gpms() as usize;
        let gpus = self.topo.num_gpus() as usize;
        if intra_egress.len() != gpms
            || intra_ingress.len() != gpms
            || inter_egress.len() != gpus
            || inter_ingress.len() != gpus
            || seq.len() != gpms * gpms
            || liveness.topology() != self.topo
        {
            return Err(hmg_sim::SnapError::Malformed(
                "fabric snapshot shape does not match this topology".into(),
            ));
        }
        if drop_rng.is_some() != self.drop_rng.is_some()
            || flip_rng.is_some() != self.flip_rng.is_some()
        {
            return Err(hmg_sim::SnapError::Malformed(
                "fabric snapshot fault streams do not match the armed plan".into(),
            ));
        }
        self.intra_egress = intra_egress;
        self.intra_ingress = intra_ingress;
        self.inter_egress = inter_egress;
        self.inter_ingress = inter_ingress;
        self.stats = stats;
        self.seq = seq;
        self.drop_rng = drop_rng;
        self.flip_rng = flip_rng;
        self.liveness = liveness;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuId;

    fn small_fabric() -> Fabric {
        let topo = Topology::new(2, 2);
        Fabric::new(
            topo,
            FabricConfig {
                freq_ghz: 1.0,
                intra_gpu_gbps: 128.0, // 64 B/cyc per GPM
                inter_gpu_gbps: 16.0,  // 16 B/cyc per GPU
                intra_latency: Cycle(10),
                inter_latency: Cycle(50),
            },
        )
    }

    #[test]
    fn escalation_cycles_sum_backed_off_timeouts() {
        let t = TransportConfig::default();
        // 4 attempts at 500 cycles: 500 + 1000 + 2000 + 4000.
        assert_eq!(t.escalation_cycles(), 7500);
        let none = TransportConfig {
            fail_escalation_attempts: 0,
            ..t
        };
        assert_eq!(none.escalation_cycles(), 0);
    }

    #[test]
    fn link_down_reroutes_second_tier_from_its_cycle() {
        let mut f = small_fabric();
        let plan = FaultPlan::parse("link-down=0-1@1000").unwrap();
        f.apply_faults(&plan);
        // Before the failure the direct path is in use: latency is the
        // intra hop plus serialization.
        let direct = f.send(Cycle(0), GpmId(0), GpmId(1), 64, MsgClass::Data);
        assert_eq!(f.stats().transport().reroutes, 0);
        // After the failure the same send takes the second-tier path:
        // strictly slower, counted, and charged on the inter ports.
        let inter_before = f.stats().inter_bytes(MsgClass::Data);
        let rerouted = f.send(Cycle(5000), GpmId(0), GpmId(1), 64, MsgClass::Data);
        assert_eq!(f.stats().transport().reroutes, 1);
        assert!(
            rerouted.0 - 5000 > direct.0,
            "alternate path must be slower: {rerouted:?} vs {direct:?}"
        );
        assert_eq!(f.stats().inter_bytes(MsgClass::Data), inter_before + 64);
        // The unrelated same-GPU pair still routes directly.
        f.send(Cycle(5000), GpmId(2), GpmId(3), 64, MsgClass::Data);
        assert_eq!(f.stats().transport().reroutes, 1);
    }

    #[test]
    fn rerouted_channel_stays_fifo_across_the_failure() {
        let mut f = small_fabric();
        f.apply_faults(&FaultPlan::parse("link-down=0-1@100").unwrap());
        // A message offered just before the failure and one just after:
        // the later (rerouted) one must still arrive later.
        let before = f.send(Cycle(99), GpmId(0), GpmId(1), 64, MsgClass::Data);
        let after = f.send(Cycle(100), GpmId(0), GpmId(1), 64, MsgClass::Data);
        assert!(after > before, "{after:?} vs {before:?}");
    }

    #[test]
    fn liveness_map_reflects_marked_deaths() {
        let mut f = small_fabric();
        assert!(f.liveness().gpm_alive(GpmId(1)));
        f.mark_gpm_down(GpmId(1));
        assert!(!f.liveness().gpm_alive(GpmId(1)));
        assert!(f.liveness().gpu_alive(GpuId(0)), "GPM0 survives");
    }

    #[test]
    fn same_gpm_is_free() {
        let mut f = small_fabric();
        assert_eq!(
            f.send(Cycle(5), GpmId(0), GpmId(0), 128, MsgClass::Data),
            Cycle(5)
        );
        assert_eq!(f.stats().total_bytes(MsgClass::Data), 0);
    }

    #[test]
    fn intra_gpu_crosses_only_intra_tier() {
        let mut f = small_fabric();
        let a = f.send(Cycle(0), GpmId(0), GpmId(1), 128, MsgClass::Request);
        // 2 ports x 2 cycles serialization + 10 total latency = 14.
        assert_eq!(a, Cycle(14));
        assert_eq!(f.stats().intra_bytes(MsgClass::Request), 128);
        assert_eq!(f.stats().inter_bytes(MsgClass::Request), 0);
    }

    #[test]
    fn inter_gpu_crosses_both_tiers() {
        let mut f = small_fabric();
        let a = f.send(Cycle(0), GpmId(0), GpmId(2), 128, MsgClass::Data);
        assert!(a > Cycle(14), "inter-GPU must be slower than intra");
        assert_eq!(f.stats().intra_bytes(MsgClass::Data), 128);
        assert_eq!(f.stats().inter_bytes(MsgClass::Data), 128);
    }

    #[test]
    fn inter_gpu_bandwidth_throttles() {
        let mut f = small_fabric();
        // Saturate the 16 B/cyc inter link with 128 B messages.
        let mut last = Cycle::ZERO;
        for _ in 0..100 {
            last = f.send(Cycle(0), GpmId(0), GpmId(2), 128, MsgClass::Data);
        }
        // 100 * 128 B at 16 B/cyc is at least 800 cycles of serialization.
        assert!(last >= Cycle(800), "last arrival {last}");
    }

    #[test]
    fn per_class_accounting_is_separate() {
        let mut f = small_fabric();
        f.send(Cycle(0), GpmId(0), GpmId(2), 16, MsgClass::Inv);
        f.send(Cycle(0), GpmId(0), GpmId(2), 144, MsgClass::StoreData);
        assert_eq!(f.stats().inter_bytes(MsgClass::Inv), 16);
        assert_eq!(f.stats().inter_bytes(MsgClass::StoreData), 144);
        assert_eq!(f.stats().inter_msgs(MsgClass::Inv), 1);
    }

    #[test]
    fn fifo_per_directed_pair() {
        let mut f = small_fabric();
        let mut prev = Cycle::ZERO;
        for i in 0..50 {
            let a = f.send(Cycle(i), GpmId(1), GpmId(3), 64, MsgClass::Inv);
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn gbps_conversion() {
        // 1e9 bytes over 1e9 cycles at 1 GHz = 1 second -> 1 GB/s.
        let g = FabricStats::gbps(1_000_000_000, Cycle(1_000_000_000), 1.0);
        assert!((g - 1.0).abs() < 1e-9);
        assert_eq!(FabricStats::gbps(100, Cycle::ZERO, 1.0), 0.0);
    }

    #[test]
    fn utilization_reported() {
        let mut f = small_fabric();
        for _ in 0..10 {
            f.send(Cycle(0), GpmId(0), GpmId(2), 128, MsgClass::Data);
        }
        let u = f.inter_egress_utilization(GpuId(0), Cycle(100));
        assert!(u > 0.5, "u={u}");
    }

    #[test]
    fn fault_windows_slow_only_in_window_sends() {
        let mut clean = small_fabric();
        let mut faulty = small_fabric();
        faulty.apply_faults(&FaultPlan::parse("degrade=100..200/4,stall=100..200/33").unwrap());
        // Outside the window, identical timing.
        assert_eq!(
            clean.send(Cycle(0), GpmId(0), GpmId(1), 128, MsgClass::Data),
            faulty.send(Cycle(0), GpmId(0), GpmId(1), 128, MsgClass::Data),
        );
        // Inside the window, strictly later delivery (both hops pay the
        // 33-cycle stall and 4x serialization).
        let c = clean.send(Cycle(150), GpmId(0), GpmId(1), 128, MsgClass::Data);
        let f = faulty.send(Cycle(150), GpmId(0), GpmId(1), 128, MsgClass::Data);
        assert!(f >= c + Cycle(66), "clean {c:?} faulty {f:?}");
        // After the window, new sends only queue behind the backlog.
        let c2 = clean.send(Cycle(300), GpmId(0), GpmId(1), 128, MsgClass::Data);
        let f2 = faulty.send(Cycle(300), GpmId(0), GpmId(1), 128, MsgClass::Data);
        assert!(f2 >= c2 && f2 < f + Cycle(200), "c2 {c2:?} f2 {f2:?}");
    }

    #[test]
    fn sequence_numbers_count_per_channel() {
        let mut f = small_fabric();
        assert_eq!(f.channel_seq(GpmId(0), GpmId(1)), 0);
        f.send(Cycle(0), GpmId(0), GpmId(1), 64, MsgClass::Request);
        f.send(Cycle(0), GpmId(0), GpmId(1), 64, MsgClass::Request);
        f.send(Cycle(0), GpmId(1), GpmId(0), 64, MsgClass::Data);
        assert_eq!(f.channel_seq(GpmId(0), GpmId(1)), 2);
        assert_eq!(f.channel_seq(GpmId(1), GpmId(0)), 1);
        // Same-GPM traffic never touches the network or the transport.
        f.send(Cycle(0), GpmId(2), GpmId(2), 64, MsgClass::Data);
        assert_eq!(f.channel_seq(GpmId(2), GpmId(2)), 0);
        assert_eq!(f.stats().transport().messages, 3);
    }

    #[test]
    fn drop_free_runs_do_not_touch_the_drop_stream() {
        let mut clean = small_fabric();
        let mut stalled = small_fabric();
        // A plan without `drop` must leave timing identical even though
        // the transport layer sits on the path.
        stalled.apply_faults(&FaultPlan::parse("seed=9").unwrap());
        for i in 0..20 {
            assert_eq!(
                clean.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
                stalled.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
            );
        }
        assert_eq!(clean.stats().transport().retransmissions, 0);
        assert_eq!(stalled.stats().transport().retransmissions, 0);
    }

    #[test]
    fn dropped_messages_are_recovered_deterministically() {
        let plan = FaultPlan::parse("drop=0.3,seed=42").unwrap();
        let run = |plan: &FaultPlan| {
            let mut f = small_fabric();
            f.apply_faults(plan);
            let arrivals: Vec<Cycle> = (0..200)
                .map(|i| f.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::StoreData))
                .collect();
            (arrivals, f.stats().transport())
        };
        let (a1, t1) = run(&plan);
        let (a2, t2) = run(&plan);
        // Same plan -> bit-identical retransmission schedule.
        assert_eq!(a1, a2);
        assert_eq!(t1, t2);
        assert!(
            t1.retransmissions > 0,
            "0.3 over 200 messages must drop some"
        );
        assert!(t1.recovered > 0 && t1.recovered <= t1.retransmissions);
        assert!(t1.retry_cycles >= t1.retransmissions * 500);
        // A different seed reshuffles the schedule.
        let (a3, _) = run(&FaultPlan::parse("drop=0.3,seed=43").unwrap());
        assert_ne!(a1, a3);
        // Every message still arrives, FIFO per channel.
        let mut prev = Cycle::ZERO;
        for &a in &a1 {
            assert!(a >= prev, "recovered channel must stay FIFO");
            prev = a;
        }
    }

    #[test]
    fn flip_free_runs_do_not_touch_the_flip_stream() {
        let mut clean = small_fabric();
        let mut seeded = small_fabric();
        // A plan without `flip-msg` must leave timing identical even
        // though the checksum layer sits on the path.
        seeded.apply_faults(&FaultPlan::parse("seed=11").unwrap());
        for i in 0..20 {
            assert_eq!(
                clean.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
                seeded.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
            );
        }
        assert_eq!(seeded.stats().transport().flips_injected, 0);
        assert_eq!(seeded.stats().transport().checksum_retransmits, 0);
        assert_eq!(seeded.stats().transport().silent_flips, 0);
    }

    #[test]
    fn flipped_messages_are_recovered_deterministically() {
        let plan = FaultPlan::parse("flip-msg=0.3,seed=42").unwrap();
        let run = |plan: &FaultPlan| {
            let mut f = small_fabric();
            f.apply_faults(plan);
            let arrivals: Vec<Cycle> = (0..200)
                .map(|i| f.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::StoreData))
                .collect();
            (arrivals, f.stats().transport())
        };
        let (a1, t1) = run(&plan);
        let (a2, t2) = run(&plan);
        // Same plan -> bit-identical retransmission schedule.
        assert_eq!(a1, a2);
        assert_eq!(t1, t2);
        assert!(t1.flips_injected > 0, "0.3 over 200 messages must flip");
        // Every corruption is detected and replayed, never delivered.
        assert_eq!(t1.checksum_retransmits, t1.flips_injected);
        assert_eq!(t1.silent_flips, 0);
        assert_eq!(t1.retransmissions, t1.checksum_retransmits);
        assert!(t1.retry_cycles >= t1.checksum_retransmits * 500);
        // A different seed reshuffles the schedule.
        let (a3, _) = run(&FaultPlan::parse("flip-msg=0.3,seed=43").unwrap());
        assert_ne!(a1, a3);
        // Every message still arrives, FIFO per channel.
        let mut prev = Cycle::ZERO;
        for &a in &a1 {
            assert!(a >= prev, "recovered channel must stay FIFO");
            prev = a;
        }
    }

    #[test]
    fn checksums_off_delivers_flips_silently() {
        let mut f = small_fabric();
        f.transport.checksums = false;
        f.apply_faults(&FaultPlan::parse("flip-msg=0.5,seed=3").unwrap());
        let mut clean = small_fabric();
        for i in 0..100 {
            // Without checksums there is nothing to detect: timing is
            // identical to the fault-free fabric...
            assert_eq!(
                f.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
                clean.send(Cycle(i), GpmId(0), GpmId(2), 128, MsgClass::Data),
            );
        }
        let t = f.stats().transport();
        // ...but the corruption went through undetected.
        assert!(t.flips_injected > 0);
        assert_eq!(t.silent_flips, t.flips_injected);
        assert_eq!(t.checksum_retransmits, 0);
        assert_eq!(t.retransmissions, 0);
    }

    #[test]
    fn flip_recovery_is_slower_than_fault_free() {
        let mut clean = small_fabric();
        let mut noisy = small_fabric();
        noisy.apply_faults(&FaultPlan::parse("flip-msg=0.25,seed=7").unwrap());
        let mut last_clean = Cycle::ZERO;
        let mut last_noisy = Cycle::ZERO;
        for i in 0..100 {
            last_clean = clean.send(Cycle(i), GpmId(0), GpmId(1), 128, MsgClass::Data);
            last_noisy = noisy.send(Cycle(i), GpmId(0), GpmId(1), 128, MsgClass::Data);
        }
        assert!(
            last_noisy > last_clean,
            "noisy {last_noisy} must trail clean {last_clean}"
        );
    }

    #[test]
    fn drop_recovery_is_slower_than_fault_free() {
        let mut clean = small_fabric();
        let mut lossy = small_fabric();
        lossy.apply_faults(&FaultPlan::parse("drop=0.25,seed=7").unwrap());
        let mut last_clean = Cycle::ZERO;
        let mut last_lossy = Cycle::ZERO;
        for i in 0..100 {
            last_clean = clean.send(Cycle(i), GpmId(0), GpmId(1), 128, MsgClass::Data);
            last_lossy = lossy.send(Cycle(i), GpmId(0), GpmId(1), 128, MsgClass::Data);
        }
        assert!(
            last_lossy > last_clean,
            "lossy {last_lossy} must trail clean {last_clean}"
        );
    }

    #[test]
    fn snapshot_round_trip_resumes_timing_bit_identically() {
        use hmg_sim::{SnapReader, SnapWriter, SnapshotWrite as _};
        let plan = FaultPlan::parse("drop=0.2,flip-msg=0.1,link-down=0-1@50,seed=21").unwrap();
        let mut a = small_fabric();
        a.apply_faults(&plan);
        let mut b = small_fabric();
        b.apply_faults(&plan);
        // Warm both up identically, snapshot A, restore into a *fresh*
        // fabric, then drive the pair onward: every arrival and every
        // stat must stay bit-identical.
        for i in 0..120u64 {
            let (s, d) = (GpmId((i % 4) as u16), GpmId(((i + 1) % 4) as u16));
            assert_eq!(
                a.send(Cycle(i), s, d, 96, MsgClass::Data),
                b.send(Cycle(i), s, d, 96, MsgClass::Data)
            );
        }
        let mut w = SnapWriter::new();
        a.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut c = small_fabric();
        c.apply_faults(&plan);
        c.restore_snap_state(&mut SnapReader::new(&bytes)).unwrap();
        for i in 120..240u64 {
            let (s, d) = (GpmId((i % 4) as u16), GpmId(((i + 3) % 4) as u16));
            assert_eq!(
                b.send(Cycle(i), s, d, 128, MsgClass::StoreData),
                c.send(Cycle(i), s, d, 128, MsgClass::StoreData)
            );
        }
        assert_eq!(*b.stats(), *c.stats());
        assert_eq!(
            b.channel_seq(GpmId(0), GpmId(1)),
            c.channel_seq(GpmId(0), GpmId(1))
        );
    }

    #[test]
    fn snapshot_restore_refuses_wrong_topology() {
        use hmg_sim::{SnapError, SnapReader, SnapWriter, SnapshotWrite as _};
        let mut a = small_fabric(); // 2x2
        a.send(Cycle(0), GpmId(0), GpmId(1), 64, MsgClass::Data);
        let mut w = SnapWriter::new();
        a.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut other = Fabric::new(Topology::new(4, 4), FabricConfig::paper_default());
        assert!(matches!(
            other.restore_snap_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
        // Mismatched armed fault streams are refused too.
        let mut lossy = small_fabric();
        lossy.apply_faults(&FaultPlan::parse("drop=0.5,seed=1").unwrap());
        assert!(matches!(
            lossy.restore_snap_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn backlogs_report_queued_serialization() {
        let mut f = small_fabric();
        assert_eq!(f.intra_backlog(GpmId(0), Cycle(0)), (0, 0));
        for _ in 0..100 {
            f.send(Cycle(0), GpmId(0), GpmId(2), 128, MsgClass::StoreData);
        }
        // 100 x 128 B at 16 B/cyc on the inter tier: deep egress queue.
        let (eg, _in) = f.inter_backlog(GpuId(0), Cycle(0));
        assert!(eg > 500, "egress backlog {eg}");
        // Relative to a later `now` the backlog shrinks to zero.
        assert_eq!(f.inter_backlog(GpuId(0), Cycle(1_000_000)), (0, 0));
    }
}
