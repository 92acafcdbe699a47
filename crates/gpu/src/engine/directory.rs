//! The directory interpreter: every Table I transition a home node
//! executes runs through [`Sim::apply_row`], which selects the spec row
//! for the entry's state, performs its actions from the closed
//! vocabulary, reports the effect it performed to the conformance
//! tracker, and sends the resulting invalidations. Callers only name
//! the event, the entry and the sender.

use hmg_interconnect::GpmId;
use hmg_mem::{BlockAddr, LineAddr, Sharer, SharerSet};
use hmg_protocol::DirState::{Invalid, Valid};
use hmg_protocol::{
    AccessKind, DirEvent, GuardCtx, Observed, ProtocolKind, ProtocolSpec, Sharers, Targets,
};
use hmg_sim::Cycle;

use super::{InvCause, InvMsg, Sim};

/// A directory entry as the spec rows see it.
fn sharers(set: SharerSet) -> Sharers {
    Sharers {
        bits: set.bits(),
        broadcast: set.is_broadcast(),
    }
}

/// What a row's invalidations are charged to: their cause, the GPM
/// whose pending counters they hold, and the store version they carry.
#[derive(Debug, Clone, Copy)]
struct Charge(InvCause, GpmId, u64);

impl<'t> Sim<'t> {
    /// The guarded-action spec variant this run executes: the base
    /// protocol (HMG's hierarchical `Invalidation` column or flat NHCC)
    /// crossed with the configured arbitration discipline — the same
    /// rows the audit model checker proves safe.
    pub(super) fn spec(&self) -> ProtocolSpec {
        ProtocolSpec::of(self.cfg.protocol == ProtocolKind::Hmg, self.cfg.arbitration)
    }

    pub(super) fn node_is_dir_home(&self, node: GpmId, sys_home: GpmId, gpu_home: GpmId) -> bool {
        match self.cfg.protocol {
            ProtocolKind::Nhcc => node == sys_home,
            ProtocolKind::Hmg => node == sys_home || node == gpu_home,
            _ => false,
        }
    }

    /// How the sender is identified in `node`'s directory.
    fn dir_sharer_for(&self, node: GpmId, req_gpm: GpmId, sys_home: GpmId) -> Sharer {
        let topo = self.cfg.topo;
        if self.cfg.protocol == ProtocolKind::Hmg
            && node == sys_home
            && topo.gpu_of(req_gpm) != topo.gpu_of(node)
        {
            Sharer::Gpu(topo.gpu_of(req_gpm))
        } else {
            Sharer::Gpm(req_gpm)
        }
    }

    /// Whether a congested home defers (rather than NACKs) a remote
    /// `kind` request for `block`, per the spec's `HomeBusy` rows. Every
    /// remote-request cell carries one; if a spec edit ever dropped one,
    /// falling through to the NACK discipline keeps the engine total.
    pub(super) fn home_defers(&self, node: GpmId, block: BlockAddr, kind: AccessKind) -> bool {
        let resident = self.gpms[node.index()].dir.lookup(block).is_some();
        let state = if resident { Valid } else { Invalid };
        let event = DirEvent::access(kind != AccessKind::Load, true);
        self.spec()
            .row(state, event, GuardCtx::BUSY)
            .is_some_and(|row| row.effect(Sharers::default(), None).defer)
    }

    /// Table I at a directory home: the transition a load, store or
    /// atomic (a store to the directory) from `origin` makes at `node`.
    /// A no-op at nodes that are not a directory home of `line`, and for
    /// degraded lines, which have no cached peers to protect.
    #[allow(clippy::too_many_arguments)] // a directory transition, not a config
    pub(super) fn dir_access(
        &mut self,
        t: Cycle,
        node: GpmId,
        line: LineAddr,
        kind: AccessKind,
        origin: GpmId,
        version: u64,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) {
        if self.line_degraded(line) || !self.node_is_dir_home(node, sys_home, gpu_home) {
            return;
        }
        let sender = (origin != node).then(|| self.dir_sharer_for(node, origin, sys_home));
        let block = self.cfg.geometry.block_of(line);
        let event = DirEvent::access(kind != AccessKind::Load, sender.is_some());
        let charge = Charge(InvCause::Store, origin, version);
        self.apply_row(t, node, block, event, None, sender, charge);
    }

    /// Hierarchical forward: a GPU home node receiving a system-home
    /// invalidation executes the spec's `Invalidation` column. The
    /// column only exists in HMG variants, so its legality *is* the
    /// protocol test. The `skip-hier-fwd` fault plan deliberately omits
    /// the forward — the injected protocol bug the coherence checker
    /// must catch.
    pub(super) fn forward_inv(&mut self, now: Cycle, inv: &InvMsg) {
        let event = DirEvent::Invalidation;
        if self.spec().legal(Valid, event) && !self.cfg.faults.skip_hier_inv_forward {
            let charge = Charge(inv.cause, inv.causer, inv.version);
            self.apply_row(now, inv.target, inv.block, event, None, None, charge);
        }
    }

    /// The `Replace` row for an entry `node`'s directory evicted.
    pub(super) fn replace_entry(
        &mut self,
        t: Cycle,
        node: GpmId,
        block: BlockAddr,
        set: SharerSet,
    ) {
        let charge = Charge(InvCause::Eviction, node, 0);
        self.apply_row(t, node, block, DirEvent::Replace, Some(set), None, charge);
    }

    /// Executes the unconditional spec row for `event` on `node`'s entry
    /// for `block`, or on `evicted`, an entry the directory already gave
    /// up inside `allocate`. `sender` is the requester as the directory
    /// names it (`None` for local accesses, replacements and
    /// invalidations). The row's [`SpecRow::effect`] decides everything;
    /// this only performs it: allocate or remove the entry (the sharer
    /// cap applies here), send the invalidations, which go out before an
    /// entry this row's allocation evicted is replaced, and count.
    /// Panics on a cell the spec leaves undefined: a simulator bug.
    #[allow(clippy::too_many_arguments)] // a directory transition, not a config
    fn apply_row(
        &mut self,
        t: Cycle,
        node: GpmId,
        block: BlockAddr,
        event: DirEvent,
        evicted: Option<SharerSet>,
        sender: Option<Sharer>,
        charge: Charge,
    ) {
        let (spec, topo, cap) = (self.spec(), self.cfg.topo, self.cfg.dir.max_sharers);
        let dir = &mut self.gpms[node.index()].dir;
        let before = evicted.or_else(|| dir.lookup(block).copied());
        let state = if before.is_some() { Valid } else { Invalid };
        let row = spec.row(state, event, GuardCtx::FREE).unwrap_or_else(|| {
            // audit:allow(panic-path): reaching an undefined cell is a simulator bug.
            panic!("spec leaves ({state:?}, {event:?}) undefined")
        });
        let before = before.unwrap_or_default();
        let prior = sharers(before);
        let sender_bit = sender.map(|s| SharerSet::bit(&topo, s));
        let effect = row.effect(prior, sender_bit);
        let (mut resident, mut added, mut newly_broadcast, mut victim) =
            (state == Valid, false, false, None);
        if let (true, Some(s)) = (effect.add_sender, sender) {
            let (set, v) = dir.allocate(block);
            newly_broadcast = set.insert_capped(&topo, s, cap).1;
            (resident, added, victim) = (true, true, v);
        }
        // A no-op on an evicted entry: its way already holds another
        // block.
        if effect.clear {
            dir.remove(block);
            resident = false;
        }
        // Most rows invalidate nobody; they allocate no target list.
        let (mut targets, spared) = match effect.targets {
            Targets::Exact(0) => (Vec::new(), 0),
            Targets::Exact(bits) => (before.iter(&topo), !bits),
            Targets::AllBut(spared) => {
                self.m.broadcast_invs += 1;
                (self.broadcast_targets(node, block), spared)
            }
        };
        targets.retain(|&s| SharerSet::bit(&topo, s) & spared == 0);
        let sent = targets.iter().fold(0, |m, &s| m | SharerSet::bit(&topo, s));
        let observed = Observed {
            prior,
            sender: sender_bit,
            next: if resident { Valid } else { Invalid },
            added_sharer: added,
            invalidated: matches!(effect.targets, Targets::Exact(_)).then_some(sent),
        };
        // The run's conformance tracker (`RunMetrics::table`) checks the
        // effect against the static table; release builds count a
        // mismatch instead of aborting.
        if let Err(why) = self
            .m
            .table
            .observe(state, event, spec.variant.hmg(), observed)
        {
            debug_assert!(false, "directory conformance violation: {why}");
            let _ = why;
        }
        if newly_broadcast {
            self.note_broadcast_fallback(node);
        }
        if !targets.is_empty() {
            let Charge(cause, causer, version) = charge;
            match (effect.forwarded, cause) {
                (true, _) => {}
                (false, InvCause::Store) => self.m.stores_triggering_invs += 1,
                (false, InvCause::Eviction) => self.m.evictions_triggering_invs += 1,
            }
            self.send_invs(t, node, block, &targets, cause, causer, version);
        }
        if let Some((vblock, set)) = victim {
            self.replace_entry(t, node, vblock, set);
        }
    }

    /// Records one directory entry degrading from precise sharer
    /// tracking to conservative broadcast mode.
    pub(super) fn note_broadcast_fallback(&mut self, node: GpmId) {
        self.gpms[node.index()].dir.note_broadcast_fallback();
        self.m.dir_broadcast_fallbacks += 1;
    }

    /// The conservative target list a broadcast-mode directory entry
    /// stands for: every sharer `node`'s directory could possibly be
    /// tracking for `block`. Mirrors `dir_sharer_for`: a hierarchical
    /// system home tracks its own GPU's modules plus whole remote GPUs;
    /// a GPU home tracks only its own modules; a flat directory tracks
    /// every GPM directly.
    fn broadcast_targets(&self, node: GpmId, block: BlockAddr) -> Vec<Sharer> {
        let topo = self.cfg.topo;
        let node_gpu = topo.gpu_of(node);
        if !self.cfg.protocol.hierarchical_routing() {
            return topo
                .all_gpms()
                .filter(|g| *g != node)
                .map(Sharer::Gpm)
                .collect();
        }
        let mut targets: Vec<Sharer> = topo
            .gpms_of(node_gpu)
            .filter(|g| *g != node)
            .map(Sharer::Gpm)
            .collect();
        // Only the block's system home tracks remote GPUs; a page with a
        // directory entry has necessarily been homed already.
        let line = self.cfg.geometry.first_line_of_block(block);
        let at_sys_home = self.pages.peek_home(self.cfg.geometry.page_of_line(line)) == Some(node);
        if at_sys_home {
            targets.extend(topo.all_gpus().filter(|g| *g != node_gpu).map(Sharer::Gpu));
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::super::Ev;
    use super::*;
    use crate::config::EngineConfig;
    use hmg_interconnect::Topology;
    use hmg_protocol::{row_index, DirState, Guard, SpecVariant, WorkloadTrace};

    const HOME: GpmId = GpmId(0);
    const BLOCK: BlockAddr = BlockAddr(7);
    const SENDER: Sharer = Sharer::Gpm(GpmId(5));
    const OTHERS: [Sharer; 3] = [
        Sharer::Gpm(GpmId(1)),
        Sharer::Gpm(GpmId(2)),
        Sharer::Gpm(GpmId(3)),
    ];
    const STORE: Charge = Charge(InvCause::Store, GpmId(5), 1);

    /// Runs `f` on a fresh 8-module machine under `v`, whose directory
    /// caps an entry at three precise sharers, with `set` resident for
    /// `BLOCK` at `HOME`.
    fn with_sim(v: SpecVariant, set: Option<SharerSet>, f: impl FnOnce(&mut Sim<'_>)) {
        let mut cfg = EngineConfig::small_test(if v.hmg() {
            ProtocolKind::Hmg
        } else {
            ProtocolKind::Nhcc
        });
        cfg.topo = Topology::new(2, 4);
        cfg.dir = cfg.dir.with_max_sharers(3);
        cfg.arbitration = v.arbitration();
        let trace = WorkloadTrace::new("dir", vec![]);
        let mut sim = Sim::new(&cfg, &trace);
        if let Some(set) = set {
            *sim.gpms[HOME.index()].dir.allocate(BLOCK).0 = set;
        }
        f(&mut sim);
    }

    /// Precise with the sender already a sharer, precise without it,
    /// degraded to broadcast, and exactly at the cap.
    fn entries() -> [SharerSet; 4] {
        let topo = Topology::new(2, 4);
        let set = |members: &[Sharer]| {
            let mut s = SharerSet::new();
            for m in members {
                s.insert(&topo, *m);
            }
            s
        };
        let mut broadcast = set(&OTHERS[..2]);
        broadcast.force_broadcast();
        [
            set(&[OTHERS[0], OTHERS[1], SENDER]),
            set(&OTHERS[..2]),
            broadcast,
            set(&OTHERS),
        ]
    }

    /// The sharers whose invalidations `sim` has enqueued.
    fn enqueued_invs(sim: &mut Sim<'_>) -> Vec<Sharer> {
        let mut targets = Vec::new();
        while let Some((_, ev)) = sim.q.pop() {
            if let Ev::Inv(inv) = ev {
                targets.push(Sharer::Gpm(inv.target));
            }
        }
        targets.sort();
        targets
    }

    #[test]
    fn every_unconditional_row_conforms_on_every_entry_kind() {
        let topo = Topology::new(2, 4);
        for v in SpecVariant::ALL {
            let spec = ProtocolSpec::for_variant(v);
            for r in spec.rows().filter(|r| r.guard == Guard::Always) {
                let remote = matches!(r.event, DirEvent::RemoteLoad | DirEvent::RemoteStore);
                let sender = remote.then_some(SENDER);
                for set in entries() {
                    let resident = r.state == Valid && r.event != DirEvent::Replace;
                    let prior = sharers(if r.state == Valid {
                        set
                    } else {
                        SharerSet::new()
                    });
                    let effect = r.effect(prior, sender.map(|s| SharerSet::bit(&topo, s)));
                    with_sim(v, resident.then_some(set), |sim| {
                        if r.event == DirEvent::Replace {
                            sim.replace_entry(Cycle(1), HOME, BLOCK, set);
                        } else {
                            sim.apply_row(Cycle(1), HOME, BLOCK, r.event, None, sender, STORE);
                        }
                        let t = &sim.m.table;
                        let ran = (t.rows[row_index(r.state, r.event)], t.mismatches);
                        assert_eq!(ran, (1, 0), "{v:?} {r:?} {set:?}");
                        let left = sim.gpms[HOME.index()].dir.lookup(BLOCK).copied();
                        assert_eq!(left.is_some(), r.next == Valid, "{r:?}");
                        // The entry the engine left is the effect's,
                        // unless the insert overflowed the sharer cap.
                        let left = sharers(left.unwrap_or_default());
                        if sim.m.dir_broadcast_fallbacks == 0 {
                            assert_eq!(left, effect.sharers, "{v:?} {r:?} {set:?}");
                        } else {
                            assert!(left.broadcast && set.len() == 3, "{r:?} {set:?}");
                        }
                        // ... and so are the invalidations it enqueued.
                        let (mut want, spared) = match effect.targets {
                            Targets::Exact(bits) => (set.iter(&topo), !bits),
                            Targets::AllBut(spared) => (sim.broadcast_targets(HOME, BLOCK), spared),
                        };
                        want.retain(|&s| SharerSet::bit(&topo, s) & spared == 0);
                        want.sort();
                        assert_eq!(enqueued_invs(sim), want, "{v:?} {r:?} {set:?}");
                    });
                }
            }
        }
    }

    #[test]
    fn at_cap_remote_store_names_the_pre_insert_others() {
        with_sim(SpecVariant::Hmg, Some(entries()[3]), |sim| {
            let store = DirEvent::RemoteStore;
            sim.apply_row(Cycle(1), HOME, BLOCK, store, None, Some(SENDER), STORE);
            assert_eq!(
                sim.m.dir_broadcast_fallbacks, 1,
                "the insert overflows the cap"
            );
            assert_eq!(enqueued_invs(sim), OTHERS);
            assert_eq!(sim.m.broadcast_invs, 0, "exact targets, not a broadcast");
        });
    }

    #[test]
    fn busy_home_query_agrees_with_the_busy_rows() {
        for v in SpecVariant::ALL {
            for state in DirState::ALL {
                let resident = (state == Valid).then(SharerSet::new);
                with_sim(v, resident, |sim| {
                    for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Atomic] {
                        let event = DirEvent::access(kind != AccessKind::Load, true);
                        let row = sim.spec().row(state, event, GuardCtx::BUSY).unwrap();
                        assert_eq!(row.guard, Guard::HomeBusy, "{v:?} {state:?} {event:?}");
                        let defers = row.effect(Sharers::default(), None).defer;
                        assert_eq!(sim.home_defers(HOME, BLOCK, kind), defers);
                    }
                });
            }
        }
    }
}
