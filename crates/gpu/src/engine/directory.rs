//! The directory interpreter: every Table I transition a home node
//! executes runs through [`Sim::apply_row`], which selects the spec row
//! for the entry's state, performs its actions from the closed
//! vocabulary, reports the effect it performed to the conformance
//! tracker, and sends the resulting invalidations. Callers only name
//! the event, the entry and the sender.

use hmg_interconnect::GpmId;
use hmg_mem::{BlockAddr, LineAddr, Sharer, SharerSet};
use hmg_protocol::DirState::{Invalid, Valid};
use hmg_protocol::{AccessKind, Action, DirEvent, GuardCtx, Observed, ProtocolKind, ProtocolSpec};
use hmg_sim::Cycle;

use super::{InvCause, InvMsg, Sim};

/// The Table I column an access falls in at a directory home.
fn access_event(kind: AccessKind, remote: bool) -> DirEvent {
    match (kind == AccessKind::Load, remote) {
        (true, false) => DirEvent::LocalLoad,
        (true, true) => DirEvent::RemoteLoad,
        (false, false) => DirEvent::LocalStore,
        (false, true) => DirEvent::RemoteStore,
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
        self.spec()
            .row(state, access_event(kind, true), GuardCtx::BUSY)
            .is_some_and(|row| row.has(Action::Defer))
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
        let event = access_event(kind, sender.is_some());
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
    /// invalidations). Invalidation targets come from the entry as it
    /// stood before any action ran, so a precise entry names the others
    /// exactly even when this very insert overflows the sharer cap; they
    /// go out before an entry this row's allocation evicted is replaced.
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
        let mut resident = state == Valid;
        let (mut added, mut newly_broadcast, mut victim, mut forwarded) =
            (false, false, None, false);
        // `Some(except)` once an invalidating action ran.
        let mut inv: Option<Option<Sharer>> = None;
        for &action in row.actions {
            match action {
                Action::AddSharer => {
                    if let Some(s) = sender {
                        let (set, v) = dir.allocate(block);
                        newly_broadcast = set.insert_capped(&topo, s, cap).1;
                        (added, resident, victim) = (true, true, v);
                    }
                }
                // A no-op on an evicted entry: its way already holds
                // another block.
                Action::RemoveAllSharers => {
                    dir.remove(block);
                    resident = false;
                }
                Action::InvAllSharers => inv = Some(None),
                Action::ForwardInv => (inv, forwarded) = (Some(None), true),
                Action::InvOtherSharers => inv = Some(sender),
                // Write-through: dirty copies flush at the invalidated
                // caches. Arbitration rows are guarded `HomeBusy` and
                // never selected here.
                Action::Writeback | Action::Nack | Action::Defer => {}
            }
        }
        let targets: Vec<Sharer> = match inv {
            None => Vec::new(),
            Some(except) => {
                let all = if before.is_broadcast() {
                    self.m.broadcast_invs += 1;
                    self.broadcast_targets(node, block)
                } else {
                    before.iter(&topo)
                };
                all.into_iter().filter(|s| Some(*s) != except).collect()
            }
        };
        let observed = Observed {
            next: if resident { Valid } else { Invalid },
            added_sharer: added,
            prior_sharers: (!before.is_broadcast()).then(|| before.len()),
            sender_was_sharer: sender.is_some_and(|s| before.contains(&topo, s)),
            invalidated: (inv.is_none() || !before.is_broadcast()).then_some(targets.len() as u32),
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
            match (forwarded, cause) {
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

    #[test]
    fn every_unconditional_row_conforms_on_every_entry_kind() {
        for v in SpecVariant::ALL {
            let spec = ProtocolSpec::for_variant(v);
            for r in spec.rows().filter(|r| r.guard == Guard::Always) {
                let remote = matches!(r.event, DirEvent::RemoteLoad | DirEvent::RemoteStore);
                for set in entries() {
                    let resident = r.state == Valid && r.event != DirEvent::Replace;
                    with_sim(v, resident.then_some(set), |sim| {
                        if r.event == DirEvent::Replace {
                            sim.replace_entry(Cycle(1), HOME, BLOCK, set);
                        } else {
                            let sender = remote.then_some(SENDER);
                            sim.apply_row(Cycle(1), HOME, BLOCK, r.event, None, sender, STORE);
                        }
                        let t = &sim.m.table;
                        let ran = (t.rows[row_index(r.state, r.event)], t.mismatches);
                        assert_eq!(ran, (1, 0), "{v:?} {r:?} {set:?}");
                        let resident = sim.gpms[HOME.index()].dir.lookup(BLOCK).is_some();
                        assert_eq!(resident, r.next == Valid, "{r:?}");
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
            let mut targets = Vec::new();
            while let Some((_, ev)) = sim.q.pop() {
                if let Ev::Inv(inv) = ev {
                    targets.push(Sharer::Gpm(inv.target));
                }
            }
            targets.sort();
            assert_eq!(targets, OTHERS);
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
                        let event = access_event(kind, true);
                        let row = sim.spec().row(state, event, GuardCtx::BUSY).unwrap();
                        assert_eq!(row.guard, Guard::HomeBusy, "{v:?} {state:?} {event:?}");
                        assert_eq!(sim.home_defers(HOME, BLOCK, kind), row.has(Action::Defer));
                    }
                });
            }
        }
    }
}
