//! Fault recovery: fail-in-place reconfiguration when links or
//! modules die permanently, and soft-error repair (scrubbing, ECC
//! classification, directory-entry rebuild, poison containment).
//!
//! The hot loop reaches this module only behind the cheap guards kept
//! in `engine.rs` (`gpm_is_dead`, `line_degraded`, `take_line_fault`
//! and the permanent-fault cursor). On a fault-free run the only call
//! in here is the end-of-run `scrub_sweep`, which returns at once.

use hmg_interconnect::{GpmId, GpuId};
use hmg_mem::{BlockAddr, LineAddr, Sharer};
use hmg_protocol::TraceOp;
use hmg_sim::{Cycle, SimError};

use super::{Ev, FlipSeverity, MemMsg, PermFault, Sim, SmRef, SmState};
use crate::config::EccMode;

impl<'t> Sim<'t> {
    // ---------- fail-in-place reconfiguration ----------

    /// Enters a reconfiguration epoch for one permanent fault. Failure
    /// detection is modeled as the reliable transport's full escalated
    /// retry window ([`hmg_interconnect::TransportConfig::escalation_cycles`]):
    /// the epoch charges it as downtime and grants the livelock
    /// watchdog the same grace so the detection window is never
    /// misread as a stall.
    pub(super) fn reconfigure(&mut self, now: Cycle, fault: PermFault) {
        self.m.reconfig.epochs += 1;
        let detect = self.fabric.transport_config().escalation_cycles();
        self.m.reconfig.downtime_cycles += detect;
        self.watchdog.suspend(now.0, detect);
        match fault {
            // The fabric reroutes around the dead link at send time
            // (second-tier path); nothing to drain engine-side.
            PermFault::LinkDown => {}
            PermFault::Offline(dead) => self.take_offline(now, &dead),
        }
    }

    /// Takes a set of GPMs permanently offline: aborts their CTAs
    /// (salvaging flag publications so surviving waiters don't wedge),
    /// drains transactions parked at the dead nodes, re-homes pages
    /// whose DRAM partition died, and conservatively rebuilds the
    /// directory state the dead modules were tracking.
    fn take_offline(&mut self, now: Cycle, dead: &[GpmId]) {
        let topo = self.cfg.topo;
        for &d in dead {
            self.dead_gpms |= 1u64 << d.index();
            self.fabric.mark_gpm_down(d);
        }
        self.reconfigured = true;
        if (0..topo.num_gpms()).all(|i| self.dead_gpms & (1u64 << i) != 0) {
            self.fatal = Some(
                SimError::config("every GPM is offline; no survivors to reconfigure onto")
                    .at_cycle(now.0),
            );
            return;
        }

        // Quiesce: abort the dead modules' CTAs. Queued CTAs never
        // started (salvage from op 0); running CTAs salvage from their
        // current pc.
        let in_kernel = !self.finished && !self.trace.kernels.is_empty();
        for &d in dead {
            let queued: Vec<usize> = self.gpms[d.index()].cta_queue.drain(..).collect();
            for cta in queued {
                if in_kernel {
                    self.m.reconfig.aborted_ctas += 1;
                    self.abandon_cta(now, cta, 0);
                }
            }
            for sm in 0..self.cfg.sms_per_gpm {
                let idx = self.sm_index(SmRef { gpm: d, sm });
                let s = &mut self.sms[idx];
                let cta = s.cta.take();
                let pc = s.pc;
                s.pc = 0;
                s.outstanding = 0;
                s.state = SmState::Idle;
                s.l1.invalidate_all();
                if let Some(c) = cta {
                    if in_kernel {
                        self.m.reconfig.aborted_ctas += 1;
                        self.abandon_cta(now, c, pc);
                    }
                }
            }
            let g = &mut self.gpms[d.index()];
            // No survivor fences on the dead module's stores: its
            // pending counters are voided, and in-flight deliveries
            // that would decrement them are skipped (see the
            // `gpm_is_dead(origin)` guards in the store/inv paths).
            g.st_pending_gpu = 0;
            g.st_pending_sys = 0;
            g.inv_pending_gpu = 0;
            g.inv_pending_sys = 0;
            g.carve.clear();
            g.inv_floor.clear();
            // Dirty lines on a dead module are lost, not flushed.
            g.l2.invalidate_all();
        }

        // Drain transactions merged behind fills at the dead nodes:
        // dead requesters abort, surviving requesters re-issue against
        // the reconfigured homes. The attempt bump keeps the re-issue
        // out of MSHR merges (the entry it would ride is gone).
        let mut keys: Vec<(u16, LineAddr)> = self
            .mshr
            .keys()
            .filter(|&&(n, _)| self.dead_gpms & (1u64 << n) != 0)
            .copied()
            .collect();
        keys.sort_unstable_by_key(|&(n, l)| (n, l.0));
        for key in keys {
            for w in self.mshr.remove(&key).into_iter().flatten() {
                if self.gpm_is_dead(w.sm.gpm) {
                    self.loads_inflight -= 1;
                } else {
                    self.m.reconfig.drained_txns += 1;
                    self.reissue_req(now + Cycle(1), w);
                }
            }
        }

        // Re-home pages whose DRAM partition died; they drop into the
        // degraded no-peer-caching mode from here on. (Interleaved
        // placement re-homes lazily inside the page map, so the counts
        // stay zero there while `is_rehomed` still answers correctly.)
        let rehomed = self.pages.take_offline(dead);
        self.m.reconfig.rehomed_pages += rehomed.len() as u64;
        self.m.reconfig.degraded_pages += rehomed.len() as u64;

        // Rebuild directory state. The dead directories' sharer lists
        // are unrecoverable, so every block they tracked is
        // conservatively scrubbed from all surviving caches; blocks
        // that stay directory-tracked are re-created at their surviving
        // tracker as sticky-broadcast entries (the conservative mode
        // the sharer-cap overflow path already exercises).
        for &d in dead {
            let resident = self.gpms[d.index()].dir.resident_blocks();
            for (block, _sharers) in resident {
                self.m.reconfig.rehomed_blocks += 1;
                self.gpms[d.index()].dir.remove(block);
                let line = self.cfg.geometry.first_line_of_block(block);
                let page = self.cfg.geometry.page_of_line(line);
                // Degraded lines leave directory coherence entirely.
                let tracker = self
                    .pages
                    .peek_home(page)
                    .filter(|_| !self.line_degraded(line))
                    .map(|sys| {
                        if topo.gpu_of(d) == topo.gpu_of(sys) {
                            sys
                        } else {
                            self.pages.gpu_home(topo.gpu_of(d), block, sys)
                        }
                    })
                    .filter(|&t| !self.gpm_is_dead(t));
                self.m.reconfig.scrubbed_lines +=
                    self.scrub_to_broadcast(now, block, None, tracker);
            }
        }

        // Purge dead sharers from every surviving directory.
        let dead_gpus: Vec<GpuId> = topo
            .all_gpus()
            .filter(|&gpu| topo.gpms_of(gpu).all(|g| self.gpm_is_dead(g)))
            .collect();
        for g in topo.all_gpms() {
            if self.gpm_is_dead(g) {
                continue;
            }
            for &d in dead {
                self.gpms[g.index()].dir.purge_sharer(Sharer::Gpm(d));
            }
            for &gpu in &dead_gpus {
                self.gpms[g.index()].dir.purge_sharer(Sharer::Gpu(gpu));
            }
        }

        // Fences ordered against the dead modules can complete now, and
        // the kernel may have lost its last unfinished CTA.
        self.check_fences(now);
        self.maybe_kernel_end(now);
    }

    /// Retires CTA `cta` of the current kernel without running it past
    /// op `pc`. Its remaining `SetFlag` ops are published at once, so
    /// surviving `WaitFlag` consumers do not deadlock on a producer
    /// that no longer runs.
    fn abandon_cta(&mut self, now: Cycle, cta: usize, pc: usize) {
        self.ctas_unfinished -= 1;
        let trace = self.trace;
        for op in trace.kernels[self.kernel].ctas[cta].ops.iter().skip(pc) {
            if let TraceOp::SetFlag(f) = op {
                self.set_flag(now, f, Cycle::ZERO);
            }
        }
    }

    /// Re-issues (or aborts) a request that was delivered to a dead
    /// node. Surviving requesters retry from their own GPM, where the
    /// home lookups recompute against the reconfigured page map.
    pub(super) fn reroute_req(&mut self, now: Cycle, msg: MemMsg) {
        self.m.reconfig.drained_txns += 1;
        if self.gpm_is_dead(msg.sm.gpm) {
            // Requester and server both died: the transaction aborts.
            self.loads_inflight -= 1;
            self.maybe_kernel_end(now);
            return;
        }
        self.reissue_req(now + Cycle(1), msg);
    }

    /// Recovers from a lost sharer list for `block`: invalidates the
    /// block's lines at every survivor except `spare` (dirty lines
    /// write back toward their home), then forces `tracker`'s entry for
    /// the block into sticky broadcast mode — the conservative state
    /// the sharer-cap overflow path also uses — allocating the entry if
    /// it is absent. Returns the lines invalidated; each caller counts
    /// them in its own statistic.
    fn scrub_to_broadcast(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        spare: Option<GpmId>,
        tracker: Option<GpmId>,
    ) -> u64 {
        let mut scrubbed = 0;
        for g in self.cfg.topo.all_gpms() {
            if Some(g) == spare || self.gpm_is_dead(g) {
                continue;
            }
            for line in self.cfg.geometry.lines_of_block(block) {
                if let Some(meta) = self.gpms[g.index()].l2.invalidate(line) {
                    scrubbed += 1;
                    if meta.dirty() {
                        self.write_back(now, g, line, meta.version());
                    }
                }
            }
        }
        let Some(tracker) = tracker else {
            return scrubbed;
        };
        let (newly, evicted) = {
            let (set, evicted) = self.gpms[tracker.index()].dir.allocate(block);
            let newly = !set.is_broadcast();
            set.force_broadcast();
            (newly, evicted)
        };
        if newly {
            self.note_broadcast_fallback(tracker);
        }
        if let Some((vb, vs)) = evicted {
            self.replace_entry(now, tracker, vb, vs);
        }
        scrubbed
    }

    // ---------- soft errors: injection, scrubbing, poison ----------

    /// One scrubber period: resolve last period's latent faults, then
    /// draw this period's flips.
    pub(super) fn handle_scrub(&mut self, now: Cycle) {
        self.scrub_sweep();
        self.plant_flips(now);
        // Reschedule only while the run is still making progress: an
        // otherwise-drained queue must stay drained so the queue-empty
        // deadlock check keeps firing.
        if !self.finished && !self.q.is_empty() {
            self.q.push(now + self.cfg.scrub_interval, Ev::Scrub);
        }
    }

    /// The background scrubber pass: resolves every outstanding latent
    /// fault against the line's current residency. Correctable faults
    /// are repaired in place; uncorrectable faults invalidate the copy —
    /// clean (or departed) lines refetch on their next miss, while a
    /// dirty copy was the only one and is unrecoverable poison.
    pub(super) fn scrub_sweep(&mut self) {
        if self.line_faults.is_empty() {
            return;
        }
        let mut entries: Vec<((u16, LineAddr), FlipSeverity)> =
            self.line_faults.iter().map(|(&k, &v)| (k, v)).collect();
        // The flat map iterates in storage order; restore the ordered
        // map's key order so the sweep's observable side effects
        // (invalidations, poison, counters) land identically.
        entries.sort_unstable_by_key(|&((g, l), _)| (g, l.0));
        self.line_faults.clear();
        for ((gpm, line), sev) in entries {
            self.m.integrity.scrubbed += 1;
            let node = GpmId(gpm);
            match sev {
                FlipSeverity::Correctable => {
                    if self.gpms[node.index()].l2.get(line).is_some() {
                        self.m.integrity.corrected += 1;
                    } else {
                        // The line left the cache before the scrubber
                        // reached it; the flip died with the stale copy.
                        self.m.integrity.refetched_lines += 1;
                    }
                }
                FlipSeverity::Uncorrectable => {
                    match self.gpms[node.index()].l2.invalidate(line) {
                        Some(meta) if meta.dirty() => {
                            // The only copy of committed-but-unflushed
                            // data was corrupt: contained, not consumed.
                            self.m.integrity.poisoned += 1;
                        }
                        _ => self.m.integrity.refetched_lines += 1,
                    }
                }
            }
        }
    }

    /// Draws this scrub period's soft errors from the dedicated flip
    /// stream. Line flips plant latent faults resolved at the next
    /// access, overwrite, or sweep; directory flips resolve immediately
    /// (the entry is probed in place at detection).
    fn plant_flips(&mut self, now: Cycle) {
        let line_prob = self.cfg.faults.flip_line.map(|f| f.prob);
        let dir_prob = self.cfg.faults.flip_dir.map(|f| f.prob);
        for node in self.cfg.topo.all_gpms() {
            if self.gpm_is_dead(node) {
                continue;
            }
            if let Some(p) = line_prob {
                let len = self.gpms[node.index()].l2.len();
                if let Some((n, sev)) = self.draw_flip(p, len) {
                    let picked = self.gpms[node.index()].l2.nth_resident(n).map(|(l, _)| l);
                    if let Some(line) = picked {
                        self.m.integrity.flips_line += 1;
                        match sev {
                            Some(sev) => {
                                self.line_faults.insert((node.0, line), sev);
                            }
                            None => {
                                // No detection: the resident copy is
                                // silently wrong from here on. The flip
                                // hits the lane's top version bit.
                                if let Some(meta) = self.gpms[node.index()].l2.get_mut(line) {
                                    meta.set_version(meta.version() ^ (1 << 30));
                                }
                                self.m.integrity.silent_corruptions += 1;
                            }
                        }
                    }
                }
            }
            if let Some(p) = dir_prob {
                let len = self.gpms[node.index()].dir.len();
                if let Some((n, sev)) = self.draw_flip(p, len) {
                    if let Some(block) = self.gpms[node.index()].dir.nth_resident_block(n) {
                        self.m.integrity.flips_dir += 1;
                        match sev {
                            Some(FlipSeverity::Uncorrectable) => {
                                self.m.integrity.rebuilt_dir_entries += 1;
                                self.m.integrity.scrubbed +=
                                    self.scrub_to_broadcast(now, block, Some(node), Some(node));
                            }
                            Some(FlipSeverity::Correctable) => self.m.integrity.corrected += 1,
                            None => {
                                // An undetected sharer-bit flip: the
                                // directory silently forgets sharers and
                                // later invalidation rounds under-send.
                                if let Some(set) = self.gpms[node.index()].dir.lookup_mut(block) {
                                    set.clear();
                                }
                                self.m.integrity.silent_corruptions += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Draws one flip from the soft-error stream against a structure
    /// holding `len` resident entries: whether this period flips one
    /// (probability `prob`), which entry, and its severity as the
    /// configured ECC classifies it — `None` when ECC is off and the
    /// flip goes undetected. Parity detects but cannot correct; under
    /// SEC-DED a further draw makes the flip double-bit. Each draw
    /// happens only when the previous one lands, so the stream
    /// advances identically for line and directory flips.
    fn draw_flip(&mut self, prob: f64, len: usize) -> Option<(usize, Option<FlipSeverity>)> {
        let rng = self.flip_rng.as_mut()?;
        if !rng.gen_bool(prob) || len == 0 {
            return None;
        }
        let n = rng.gen_range(0, len as u64) as usize;
        let sev = match self.cfg.ecc {
            EccMode::None => None,
            EccMode::Parity => Some(FlipSeverity::Uncorrectable),
            EccMode::SecDed if rng.gen_bool(self.cfg.ecc_double_bit_fraction) => {
                Some(FlipSeverity::Uncorrectable)
            }
            EccMode::SecDed => Some(FlipSeverity::Correctable),
        };
        Some((n, sev))
    }

    /// Aborts the CTA running on `r` after it consumed a poisoned
    /// response, as fail-in-place aborts a dead GPM's CTAs, and lets
    /// the SM pick up the next queued CTA. A no-op if the CTA already
    /// aborted through another poisoned response merged behind the
    /// same fill.
    pub(super) fn abort_poisoned_cta(&mut self, now: Cycle, r: SmRef) {
        let idx = self.sm_index(r);
        let Some(cta) = self.sms[idx].cta.take() else {
            return;
        };
        let pc = self.sms[idx].pc;
        self.m.integrity.aborted_ctas += 1;
        self.abandon_cta(now, cta, pc);
        let next = self.gpms[r.gpm.index()].cta_queue.pop_front();
        let s = &mut self.sms[idx];
        s.cta = next;
        s.pc = 0;
        if next.is_some() {
            s.state = SmState::Runnable;
            self.q.push(now, Ev::SmResume(r));
        } else {
            s.state = SmState::Idle;
        }
        self.maybe_kernel_end(now);
    }
}
