//! Explicit-state model checking of the guarded-action protocol spec.
//!
//! A Murphi-style reachability checker: it enumerates every
//! configuration a small abstract system can reach under the rows of
//! [`hmg_protocol::spec`] and proves four invariants on the full
//! reachable set — *before a single cycle is simulated*: the rows,
//! composed over an unbounded interleaving of loads, stores, evictions,
//! and in-flight invalidations, never lose a copy.
//!
//! The checker only steps rows that exist, so a cell missing from the
//! spec would go unreported. [`check_cells`] closes that gap: a cheap
//! static pre-pass, run on every audit, that proves every cell of every
//! variant is defined exactly when the paper defines it.
//!
//! # The abstraction
//!
//! One block, five protocol participants:
//!
//! * `S` — the system home GPM. Its own L2 is coherent by construction
//!   (it is the serialization point), so it carries no cached/stale bit.
//! * `P1`, `P2` — peer GPMs on the home GPU, tracked directly by `S`.
//!   They are fully symmetric; states are canonicalized under the
//!   `P1 ↔ P2` swap (symmetry reduction).
//! * `R` — a GPM on a remote GPU. Flat NHCC tracks it directly at `S`;
//!   hierarchical HMG tracks its GPU home node `G` at `S`, and `R` at
//!   `G` — the two-level structure whose `Invalidation` column the
//!   model exists to exercise.
//! * `G` — the remote GPU's home node (HMG variants only): a directory
//!   with one possible sharer (`R`) that must *forward* system-home
//!   invalidations downward.
//!
//! Messages are invalidations in flight, at most
//! [`MAX_INFLIGHT`] per target (the bounded-channel abstraction);
//! requests and fills apply atomically. Arbitration is modeled with a
//! nondeterministic home-busy bit plus a one-deep deferred-request slot,
//! so the guarded `HomeBusy` rows (NACK vs phase-priority defer) are
//! reached too.
//!
//! # The invariants
//!
//! 1. **SWMR-analog single-writer safety** — in every *quiescent*
//!    configuration (no messages in flight, no deferred request), no
//!    cache holds a stale copy: every store's invalidations eventually
//!    reach every prior sharer. This is the observable content of the
//!    paper's single-writer guarantee under a non-multi-copy-atomic
//!    memory model (stores never wait, but staleness must drain).
//! 2. **Sharer conservation** — in *every* configuration, each cached
//!    copy is either still tracked by the directory hierarchy or has an
//!    invalidation (chain) in flight toward it. A violated conservation
//!    is a leaked copy the protocol can never find again.
//! 3. **No stuck states** — every non-quiescent configuration has at
//!    least one enabled transition, and every deliverable message has a
//!    defined handler row (an invalidation arriving at a directory with
//!    no `Invalidation` row is a stuck message).
//! 4. **Waits-for acyclicity** — the message-emission graph derived
//!    from the spec's actions (who sends what while handling what) has
//!    no unbounded cycle. Bounded cycles (NACK retry capped by the
//!    attempt cap, phase-priority replay bounded by backlog drain) are
//!    reported, not failed.
//!
//! On violation the checker rebuilds the shortest event sequence from
//! the BFS parent pointers and reports it as a counterexample trace.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::Path;

use hmg_protocol::spec::{Action, Guard, GuardCtx, ProtocolSpec, SpecVariant, ROWS};
use hmg_protocol::{DirEvent, DirState};

use crate::findings::{locate, Finding};

/// Maximum in-flight invalidations per target (bounded channel).
pub const MAX_INFLIGHT: u8 = 2;

/// Caching agents, in bit order. `S` and `G` are directories, not
/// caching agents, so they do not appear here.
const AGENTS: [Agent; 3] = [Agent::P1, Agent::P2, Agent::R];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agent {
    P1,
    P2,
    R,
}

impl Agent {
    fn bit(self) -> u32 {
        match self {
            Agent::P1 => 0,
            Agent::P2 => 1,
            Agent::R => 2,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Agent::P1 => "P1",
            Agent::P2 => "P2",
            Agent::R => "R",
        }
    }
    fn swapped(self) -> Agent {
        match self {
            Agent::P1 => Agent::P2,
            Agent::P2 => Agent::P1,
            Agent::R => Agent::R,
        }
    }
}

/// Invalidation targets: the three caching agents plus the GPU home
/// node `G` (whose handler is the spec's `Invalidation` column).
const INV_TARGETS: usize = 4;
const G_TARGET: usize = 3;

/// One abstract configuration, decoded from its [`Cfg::encode`] image.
///
/// Field packing (u64): see `encode`. Everything is tiny on purpose —
/// the whole reachable space for any variant is a few thousand states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cfg {
    /// System-home directory: entry present?
    sys_valid: bool,
    /// Sys sharers: bit 0 = P1, bit 1 = P2, bit 2 = R (flat) or G (HMG).
    sys_sharers: u8,
    /// GPU home node directory (HMG only): entry present?
    gpu_valid: bool,
    /// GPU home sharers: bit 0 = R.
    gpu_sharers: u8,
    /// Cached-copy bits, indexed by [`Agent::bit`].
    cached: u8,
    /// Stale-copy bits (cached and known out of date).
    stale: u8,
    /// In-flight invalidations per target (P1, P2, R, G), each 0..=2.
    inv: [u8; INV_TARGETS],
    /// Home-busy arbitration bit (nondeterministic).
    busy: bool,
    /// Deferred request slot: `None` or `(agent, is_store)`.
    deferred: Option<(Agent, bool)>,
}

impl Cfg {
    const INITIAL: Cfg = Cfg {
        sys_valid: false,
        sys_sharers: 0,
        gpu_valid: false,
        gpu_sharers: 0,
        cached: 0,
        stale: 0,
        inv: [0; INV_TARGETS],
        busy: false,
        deferred: None,
    };

    fn encode(self) -> u64 {
        let mut x = 0u64;
        x |= self.sys_valid as u64;
        x |= (self.sys_sharers as u64) << 1;
        x |= (self.gpu_valid as u64) << 4;
        x |= (self.gpu_sharers as u64) << 5;
        x |= (self.cached as u64) << 6;
        x |= (self.stale as u64) << 9;
        for (i, &n) in self.inv.iter().enumerate() {
            x |= (n as u64) << (12 + 2 * i);
        }
        x |= (self.busy as u64) << 20;
        let d = match self.deferred {
            None => 0u64,
            Some((a, st)) => 1 + (a.bit() as u64) * 2 + st as u64,
        };
        x |= d << 21;
        x
    }

    fn decode(x: u64) -> Cfg {
        let mut inv = [0u8; INV_TARGETS];
        for (i, n) in inv.iter_mut().enumerate() {
            *n = ((x >> (12 + 2 * i)) & 0b11) as u8;
        }
        let d = (x >> 21) & 0b111;
        let deferred = if d == 0 {
            None
        } else {
            let a = AGENTS[((d - 1) / 2) as usize];
            Some((a, (d - 1) % 2 == 1))
        };
        Cfg {
            sys_valid: x & 1 != 0,
            sys_sharers: ((x >> 1) & 0b111) as u8,
            gpu_valid: (x >> 4) & 1 != 0,
            gpu_sharers: ((x >> 5) & 1) as u8,
            cached: ((x >> 6) & 0b111) as u8,
            stale: ((x >> 9) & 0b111) as u8,
            inv,
            busy: (x >> 20) & 1 != 0,
            deferred,
        }
    }

    /// The configuration with `P1` and `P2` exchanged.
    fn swapped(self) -> Cfg {
        let swap_bits = |b: u8| (b & !0b11) | ((b & 0b01) << 1) | ((b & 0b10) >> 1);
        Cfg {
            sys_sharers: swap_bits(self.sys_sharers),
            cached: swap_bits(self.cached),
            stale: swap_bits(self.stale),
            inv: [self.inv[1], self.inv[0], self.inv[2], self.inv[3]],
            deferred: self.deferred.map(|(a, st)| (a.swapped(), st)),
            ..self
        }
    }

    /// Symmetry reduction: the lexicographically smaller of the two
    /// `P1 ↔ P2` images represents the orbit.
    fn canonical(self) -> u64 {
        self.encode().min(self.swapped().encode())
    }

    /// No messages in flight and nothing deferred.
    fn quiescent(self) -> bool {
        self.inv.iter().all(|&n| n == 0) && self.deferred.is_none()
    }

    fn cached(self, a: Agent) -> bool {
        self.cached & (1 << a.bit()) != 0
    }
    fn stale(self, a: Agent) -> bool {
        self.stale & (1 << a.bit()) != 0
    }

    /// Human-readable one-line rendering for counterexample traces.
    fn show(self, hmg: bool) -> String {
        let set = |bits: u8, third: &str| {
            let mut s = String::new();
            for (i, n) in ["P1", "P2", third].iter().enumerate() {
                if bits & (1 << i) != 0 {
                    if !s.is_empty() {
                        s.push(',');
                    }
                    s.push_str(n);
                }
            }
            if s.is_empty() {
                s.push('-');
            }
            s
        };
        let mut out = format!(
            "sys={}{{{}}}",
            if self.sys_valid { "V" } else { "I" },
            set(self.sys_sharers, if hmg { "G" } else { "R" }),
        );
        if hmg {
            let _ = write!(
                out,
                " gpu={}{{{}}}",
                if self.gpu_valid { "V" } else { "I" },
                if self.gpu_sharers & 1 != 0 { "R" } else { "-" },
            );
        }
        let _ = write!(
            out,
            " cached={{{}}} stale={{{}}}",
            set(self.cached, "R"),
            set(self.stale, "R")
        );
        let inflight: Vec<String> = ["P1", "P2", "R", "G"]
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.inv[i] > 0)
            .map(|(i, n)| format!("{}x{}", n, self.inv[i]))
            .collect();
        let _ = write!(
            out,
            " inv={{{}}}",
            if inflight.is_empty() {
                "-".into()
            } else {
                inflight.join(",")
            }
        );
        if self.busy {
            out.push_str(" busy");
        }
        if let Some((a, st)) = self.deferred {
            let _ = write!(
                out,
                " deferred={}:{}",
                a.name(),
                if st { "St" } else { "Ld" }
            );
        }
        out
    }
}

/// One invariant violation, with the shortest counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke: `swmr`, `conservation`, `stuck`,
    /// or `waitsfor`.
    pub invariant: &'static str,
    /// What exactly is wrong in the violating configuration.
    pub detail: String,
    /// Event sequence from the initial configuration to the violation,
    /// one `rule -> configuration` line per step.
    pub trace: Vec<String>,
}

/// The result of model-checking one protocol variant.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// The variant checked.
    pub variant: SpecVariant,
    /// Reachable configurations after symmetry reduction.
    pub reachable: u64,
    /// Deepest BFS level reached.
    pub depth_reached: u32,
    /// Whether a `--depth` bound truncated the exploration (the
    /// invariants then hold only for the explored prefix).
    pub truncated: bool,
    /// Spec rows the exploration exercised (of the variant's total).
    pub rows_exercised: usize,
    /// Total rows the variant defines.
    pub rows_total: usize,
    /// Bounded waits-for edges (reported, not failed).
    pub bounded_edges: Vec<String>,
    /// Invariant violations, each with a counterexample trace.
    pub violations: Vec<Violation>,
}

impl ModelRun {
    /// `true` when every invariant held on the explored space.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The greppable `[model]` report: one summary line, plus
    /// counterexample traces for any violation.
    pub fn report(&self) -> String {
        let status = |inv: &str| {
            if self.violations.iter().any(|v| v.invariant == inv) {
                "VIOLATED"
            } else {
                "ok"
            }
        };
        let mut out = format!(
            "[model] variant={} reachable={} depth={}{} rows={}/{} \
             swmr={} conservation={} stuck={} waitsfor={}",
            self.variant.name(),
            self.reachable,
            self.depth_reached,
            if self.truncated { " (truncated)" } else { "" },
            self.rows_exercised,
            self.rows_total,
            status("swmr"),
            status("conservation"),
            status("stuck"),
            status("waitsfor"),
        );
        for e in &self.bounded_edges {
            let _ = write!(out, "\n[model]   bounded waits-for edge: {e}");
        }
        for v in &self.violations {
            let _ = write!(
                out,
                "\n[model] counterexample ({}: {}):",
                v.invariant, v.detail
            );
            for line in &v.trace {
                let _ = write!(out, "\n[model]   {line}");
            }
        }
        out
    }
}

/// The transition relation: everything one rule application needs.
struct Model {
    spec: ProtocolSpec,
    hmg: bool,
}

/// A successor configuration plus the rule that produced it, and the
/// spec rows the rule executed (for coverage accounting).
struct Step {
    rule: String,
    next: Cfg,
    rows: Vec<usize>,
    /// A message was deliverable but had no handler row (stuck).
    stuck: Option<String>,
}

impl Model {
    fn new(spec: ProtocolSpec) -> Model {
        Model {
            spec,
            hmg: spec.variant.hmg(),
        }
    }

    /// Index of a row within the variant's row list, for coverage.
    fn row_idx(&self, state: DirState, event: DirEvent, guard: Guard) -> Option<usize> {
        self.spec
            .rows()
            .position(|r| r.state == state && r.event == event && r.guard == guard)
    }

    fn sys_state(&self, c: Cfg) -> DirState {
        if c.sys_valid {
            DirState::Valid
        } else {
            DirState::Invalid
        }
    }
    fn gpu_state(&self, c: Cfg) -> DirState {
        if c.gpu_valid {
            DirState::Valid
        } else {
            DirState::Invalid
        }
    }

    /// Enqueues one invalidation; `None` when the channel is full
    /// (the generating rule is then disabled — bounded channels).
    fn enqueue(c: &mut Cfg, target: usize) -> Option<()> {
        if c.inv[target] >= MAX_INFLIGHT {
            return None;
        }
        c.inv[target] += 1;
        Some(())
    }

    /// Sends invalidations to every sys-tracked sharer except `keep`,
    /// untracking them; marks victims' cached copies stale.
    fn sys_invalidate(&self, c: &mut Cfg, keep: Option<u8>) -> Option<()> {
        for bit in 0..3u8 {
            if c.sys_sharers & (1 << bit) == 0 || Some(bit) == keep {
                continue;
            }
            // Bit 2 is R under flat NHCC and G under HMG.
            let target = if bit == 2 && self.hmg {
                G_TARGET
            } else {
                bit as usize
            };
            Self::enqueue(c, target)?;
            c.sys_sharers &= !(1 << bit);
        }
        Some(())
    }

    /// Marks every cached copy other than `writer` stale: a store just
    /// made their data old. The writer's own copy is fresh.
    fn mark_stale(c: &mut Cfg, writer: Option<Agent>) {
        for a in AGENTS {
            if Some(a) != writer && c.cached(a) {
                c.stale |= 1 << a.bit();
            }
        }
        if let Some(w) = writer {
            c.cached |= 1 << w.bit();
            c.stale &= !(1 << w.bit());
        }
    }

    /// Applies a load or store by `a` to the directories, assuming the
    /// home accepted it (the busy/defer decision already happened).
    /// Returns the executed row indices, or `None` when a bounded
    /// channel disables the rule.
    fn apply_request(&self, c: &mut Cfg, a: Agent, is_store: bool) -> Option<Vec<usize>> {
        let mut rows = Vec::new();
        let remote_ev = if is_store {
            DirEvent::RemoteStore
        } else {
            DirEvent::RemoteLoad
        };
        // The sys-home sharer identity: P1/P2 directly; R directly under
        // flat NHCC, via G under HMG.
        let sys_bit = match a {
            Agent::P1 => 0u8,
            Agent::P2 => 1,
            Agent::R => 2,
        };
        // HMG: R's request passes its GPU home node first.
        if a == Agent::R && self.hmg {
            let gs = self.gpu_state(*c);
            let row = self.spec.row(gs, remote_ev, GuardCtx::FREE)?;
            rows.push(self.row_idx(gs, remote_ev, Guard::Always)?);
            if row.has(Action::AddSharer) {
                c.gpu_sharers |= 1;
            }
            if row.has(Action::InvOtherSharers) {
                // G tracks only R; there are no others to invalidate.
            }
            c.gpu_valid = row.next == DirState::Valid;
        }
        let ss = self.sys_state(*c);
        let row = self.spec.row(ss, remote_ev, GuardCtx::FREE)?;
        rows.push(self.row_idx(ss, remote_ev, Guard::Always)?);
        if row.has(Action::InvOtherSharers) {
            self.sys_invalidate(c, Some(sys_bit))?;
        }
        if row.has(Action::InvAllSharers) {
            self.sys_invalidate(c, None)?;
        }
        if row.has(Action::AddSharer) {
            c.sys_sharers |= 1 << sys_bit;
        }
        c.sys_valid = row.next == DirState::Valid;
        c.cached |= 1 << a.bit();
        c.stale &= !(1 << a.bit());
        if is_store {
            Self::mark_stale(c, Some(a));
        }
        Some(rows)
    }

    /// All successors of `c`, each tagged with its rule name.
    fn successors(&self, c: Cfg) -> Vec<Step> {
        let mut out = Vec::new();
        let mut stuck_steps = Vec::new();
        let mut push = |rule: String, next: Cfg, rows: Vec<usize>| {
            out.push(Step {
                rule,
                next,
                rows,
                stuck: None,
            });
        };

        // Requests from the caching agents. The home's own accesses
        // (LocalLoad/LocalStore) are modeled separately below.
        for a in AGENTS {
            for is_store in [false, true] {
                let ev = if is_store {
                    DirEvent::RemoteStore
                } else {
                    DirEvent::RemoteLoad
                };
                let op = if is_store { "St" } else { "Ld" };
                if c.busy {
                    // Busy home: the guarded row decides. NACK bounces
                    // the request (a stutter at this abstraction);
                    // Defer parks it in the slot.
                    let ss = self.sys_state(c);
                    if let Some(row) = self.spec.row(ss, ev, GuardCtx::BUSY) {
                        if row.guard == Guard::HomeBusy && row.has(Action::Defer) {
                            if c.deferred.is_none() {
                                let mut n = c;
                                n.deferred = Some((a, is_store));
                                let rows =
                                    self.row_idx(ss, ev, Guard::HomeBusy).into_iter().collect();
                                push(format!("defer({}:{op})", a.name()), n, rows);
                            }
                            continue;
                        }
                        if row.guard == Guard::HomeBusy && row.has(Action::Nack) {
                            // Rejected and re-issued later: a stutter
                            // (no new configuration), recorded only so
                            // row coverage sees the Nack rows fire.
                            let rows = self.row_idx(ss, ev, Guard::HomeBusy).into_iter().collect();
                            push(format!("nack({}:{op})", a.name()), c, rows);
                            continue;
                        }
                    }
                }
                let mut n = c;
                if let Some(rows) = self.apply_request(&mut n, a, is_store) {
                    push(format!("{op}({})", a.name()), n, rows);
                }
            }
        }

        // The home GPM's own accesses: LocalLoad is quiet; LocalStore
        // invalidates every tracked sharer.
        {
            let ss = self.sys_state(c);
            if let Some(row) = self.spec.row(ss, DirEvent::LocalLoad, GuardCtx::FREE) {
                let mut n = c;
                n.sys_valid = row.next == DirState::Valid;
                let rows = self
                    .row_idx(ss, DirEvent::LocalLoad, Guard::Always)
                    .into_iter()
                    .collect();
                push("Ld(S)".into(), n, rows);
            }
            if let Some(row) = self.spec.row(ss, DirEvent::LocalStore, GuardCtx::FREE) {
                let mut n = c;
                let ok = if row.has(Action::InvAllSharers) {
                    self.sys_invalidate(&mut n, None).is_some()
                } else {
                    true
                };
                if ok {
                    if row.has(Action::RemoveAllSharers) {
                        n.sys_sharers = 0;
                    }
                    n.sys_valid = row.next == DirState::Valid;
                    Self::mark_stale(&mut n, None);
                    let rows = self
                        .row_idx(ss, DirEvent::LocalStore, Guard::Always)
                        .into_iter()
                        .collect();
                    push("St(S)".into(), n, rows);
                }
            }
        }

        // Directory replacements (capacity evictions).
        if c.sys_valid {
            if let Some(row) = self
                .spec
                .row(DirState::Valid, DirEvent::Replace, GuardCtx::FREE)
            {
                let mut n = c;
                let ok = if row.has(Action::InvAllSharers) {
                    self.sys_invalidate(&mut n, None).is_some()
                } else {
                    true
                };
                if ok {
                    if row.has(Action::RemoveAllSharers) {
                        n.sys_sharers = 0;
                    }
                    n.sys_valid = row.next == DirState::Valid;
                    let rows = self
                        .row_idx(DirState::Valid, DirEvent::Replace, Guard::Always)
                        .into_iter()
                        .collect();
                    push("Replace(S)".into(), n, rows);
                }
            }
        }
        if self.hmg && c.gpu_valid {
            if let Some(row) = self
                .spec
                .row(DirState::Valid, DirEvent::Replace, GuardCtx::FREE)
            {
                let mut n = c;
                let ok = if row.has(Action::InvAllSharers) && n.gpu_sharers & 1 != 0 {
                    Self::enqueue(&mut n, Agent::R.bit() as usize).is_some()
                } else {
                    true
                };
                if ok {
                    if row.has(Action::RemoveAllSharers) {
                        n.gpu_sharers = 0;
                    }
                    n.gpu_valid = row.next == DirState::Valid;
                    let rows = self
                        .row_idx(DirState::Valid, DirEvent::Replace, Guard::Always)
                        .into_iter()
                        .collect();
                    push("Replace(G)".into(), n, rows);
                }
            }
        }

        // Invalidation deliveries at caching agents.
        for a in AGENTS {
            let t = a.bit() as usize;
            if c.inv[t] > 0 {
                let mut n = c;
                n.inv[t] -= 1;
                n.cached &= !(1 << a.bit());
                n.stale &= !(1 << a.bit());
                push(format!("inv({})", a.name()), n, Vec::new());
            }
        }

        // Invalidation delivery at the GPU home node: the spec's
        // `Invalidation` column. A variant without the column that
        // still has such a message in flight is stuck.
        if c.inv[G_TARGET] > 0 {
            let gs = self.gpu_state(c);
            match self.spec.row(gs, DirEvent::Invalidation, GuardCtx::FREE) {
                Some(row) => {
                    let mut n = c;
                    n.inv[G_TARGET] -= 1;
                    let ok = if row.has(Action::ForwardInv) && n.gpu_sharers & 1 != 0 {
                        Self::enqueue(&mut n, Agent::R.bit() as usize).is_some()
                    } else {
                        true
                    };
                    if ok {
                        if row.has(Action::RemoveAllSharers) {
                            n.gpu_sharers = 0;
                        }
                        n.gpu_valid = row.next == DirState::Valid;
                        let rows = self
                            .row_idx(gs, DirEvent::Invalidation, Guard::Always)
                            .into_iter()
                            .collect();
                        push("inv(G)".into(), n, rows);
                    }
                }
                None => stuck_steps.push(Step {
                    rule: "inv(G)".into(),
                    next: c,
                    rows: Vec::new(),
                    stuck: Some(format!(
                        "invalidation in flight to a directory whose spec has no \
                         ({:?}, Invalidation) row",
                        gs
                    )),
                }),
            }
        }

        // Clean cache evictions: a copy may silently leave its cache.
        for a in AGENTS {
            if c.cached(a) {
                let mut n = c;
                n.cached &= !(1 << a.bit());
                n.stale &= !(1 << a.bit());
                push(format!("evict({})", a.name()), n, Vec::new());
            }
        }

        // Arbitration nondeterminism: the home's backlog crosses the
        // flow-control threshold in either direction.
        {
            let mut n = c;
            n.busy = !c.busy;
            push(
                if c.busy { "drain" } else { "congest" }.into(),
                n,
                Vec::new(),
            );
        }
        // A parked request replays once the home drains.
        if !c.busy {
            if let Some((a, is_store)) = c.deferred {
                let mut n = c;
                n.deferred = None;
                if let Some(rows) = self.apply_request(&mut n, a, is_store) {
                    let op = if is_store { "St" } else { "Ld" };
                    push(format!("replay({}:{op})", a.name()), n, rows);
                }
            }
        }

        out.extend(stuck_steps);
        out
    }

    /// Whether each cached copy is still reachable by the protocol:
    /// tracked by the directory hierarchy or owed an invalidation
    /// (possibly via the GPU home's pending forward).
    fn covered(&self, c: Cfg, a: Agent) -> bool {
        match a {
            Agent::P1 | Agent::P2 => {
                c.sys_sharers & (1 << a.bit()) != 0 || c.inv[a.bit() as usize] > 0
            }
            Agent::R => {
                let direct_inv = c.inv[Agent::R.bit() as usize] > 0;
                if !self.hmg {
                    return c.sys_sharers & 0b100 != 0 || direct_inv;
                }
                let tracked = c.gpu_sharers & 1 != 0 && c.sys_sharers & 0b100 != 0;
                let via_g = c.inv[G_TARGET] > 0 && c.gpu_sharers & 1 != 0;
                tracked || direct_inv || via_g
            }
        }
    }

    /// Invariant checks on one configuration. Returns
    /// `(invariant, detail)` for the first violation found.
    fn check(&self, c: Cfg) -> Option<(&'static str, String)> {
        // Sharer conservation, every configuration.
        for a in AGENTS {
            if c.cached(a) && !self.covered(c, a) {
                return Some((
                    "conservation",
                    format!(
                        "{}'s cached copy is neither tracked nor owed an invalidation",
                        a.name()
                    ),
                ));
            }
        }
        // Tracked sharers imply a Valid entry.
        if c.sys_sharers != 0 && !c.sys_valid {
            return Some((
                "conservation",
                "sys directory tracks sharers while Invalid".into(),
            ));
        }
        if self.hmg && c.gpu_sharers != 0 && !c.gpu_valid {
            return Some((
                "conservation",
                "gpu directory tracks sharers while Invalid".into(),
            ));
        }
        // SWMR-analog: staleness must have drained at quiescence.
        if c.quiescent() {
            for a in AGENTS {
                if c.stale(a) {
                    return Some((
                        "swmr",
                        format!("quiescent configuration with a stale copy at {}", a.name()),
                    ));
                }
            }
        }
        None
    }
}

/// Builds the waits-for edges the spec's actions imply and returns
/// `(bounded_edges, violations)` — an unbounded cycle is a violation.
fn waits_for(spec: ProtocolSpec) -> (Vec<String>, Vec<Violation>) {
    // Nodes are message classes at hierarchy levels; edges mean
    // "handling X can emit Y". Unbounded cycles deadlock.
    let mut unbounded: Vec<(&str, &str)> = Vec::new();
    let mut bounded: Vec<String> = Vec::new();
    for r in spec.rows() {
        let src = match r.event {
            DirEvent::Invalidation => "Inv@gpu",
            _ => "Req",
        };
        if r.has(Action::InvAllSharers) || r.has(Action::InvOtherSharers) {
            unbounded.push((src, "Inv@sys"));
        }
        if r.has(Action::ForwardInv) {
            unbounded.push((src, "Inv@cache"));
        }
        if r.has(Action::Nack) {
            // Req -> Nack -> Req(retry): bounded by the attempt cap.
            bounded.push("Req -> Nack -> Req (bounded: nack_attempt_cap)".into());
        }
        if r.has(Action::Defer) {
            // Req -> Req(replay): bounded by backlog drain + watchdog.
            bounded.push("Req -> Req replay (bounded: backlog drain)".into());
        }
    }
    // Sys-emitted invalidations land either at caches (terminal) or at
    // the GPU home, which may forward (Inv@gpu edge above).
    if spec.legal(DirState::Valid, DirEvent::Invalidation) {
        unbounded.push(("Inv@sys", "Inv@gpu"));
    }
    unbounded.sort_unstable();
    unbounded.dedup();
    bounded.sort_unstable();
    bounded.dedup();

    // Cycle detection over the unbounded edges (tiny graph: DFS).
    let nodes: Vec<&str> = {
        let mut v: Vec<&str> = unbounded.iter().flat_map(|&(a, b)| [a, b]).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut violations = Vec::new();
    let mut state: HashMap<&str, u8> = HashMap::new(); // 1 = on stack, 2 = done
    fn dfs(
        n: &'static str,
        edges: &[(&'static str, &'static str)],
        state: &mut HashMap<&'static str, u8>,
        path: &mut Vec<&'static str>,
    ) -> Option<Vec<&'static str>> {
        state.insert(n, 1);
        path.push(n);
        for &(a, b) in edges {
            if a != n {
                continue;
            }
            match state.get(b) {
                Some(1) => {
                    let start = path.iter().position(|&x| x == b).unwrap_or(0);
                    let mut cycle = path[start..].to_vec();
                    cycle.push(b);
                    return Some(cycle);
                }
                Some(_) => {}
                None => {
                    if let Some(cyc) = dfs(b, edges, state, path) {
                        return Some(cyc);
                    }
                }
            }
        }
        path.pop();
        state.insert(n, 2);
        None
    }
    // The edge labels are 'static string literals, so the graph borrows
    // nothing; leak-free because no allocation is involved.
    let edges: Vec<(&'static str, &'static str)> = unbounded;
    for &n in &nodes {
        if !state.contains_key(n) {
            let mut path = Vec::new();
            if let Some(cycle) = dfs(n, &edges, &mut state, &mut path) {
                violations.push(Violation {
                    invariant: "waitsfor",
                    detail: format!("unbounded emission cycle: {}", cycle.join(" -> ")),
                    trace: Vec::new(),
                });
                break;
            }
        }
    }
    (bounded, violations)
}

/// Model-checks one variant: BFS over the abstract state space with
/// symmetry reduction, invariants checked on every reachable
/// configuration, shortest counterexamples on violation.
pub fn check_variant(spec: ProtocolSpec, depth: Option<u32>) -> ModelRun {
    let m = Model::new(spec);
    let rows_total = spec.rows().count();
    let mut rows_hit = vec![false; rows_total];

    // canonical -> (parent canonical, rule); the root is its own parent.
    let mut seen: HashMap<u64, (u64, String)> = HashMap::new();
    let mut frontier = VecDeque::new();
    let root = Cfg::INITIAL.canonical();
    seen.insert(root, (root, String::new()));
    frontier.push_back((root, 0u32));

    let mut violations: Vec<Violation> = Vec::new();
    let mut seen_invariants: Vec<&'static str> = Vec::new();
    let mut depth_reached = 0u32;
    let mut truncated = false;

    let trace_to = |seen: &HashMap<u64, (u64, String)>, mut at: u64, hmg: bool| {
        let mut lines = VecDeque::new();
        loop {
            let (parent, rule) = &seen[&at];
            if rule.is_empty() {
                lines.push_front(format!("init            {}", Cfg::decode(at).show(hmg)));
                break;
            }
            lines.push_front(format!("{:<15} {}", rule, Cfg::decode(at).show(hmg)));
            at = *parent;
        }
        lines.into()
    };

    while let Some((enc, d)) = frontier.pop_front() {
        depth_reached = depth_reached.max(d);
        if let Some(bound) = depth {
            if d >= bound {
                truncated = true;
                continue;
            }
        }
        let cfg = Cfg::decode(enc);
        for step in m.successors(cfg) {
            for &ri in &step.rows {
                rows_hit[ri] = true;
            }
            if let Some(what) = step.stuck {
                if !seen_invariants.contains(&"stuck") {
                    seen_invariants.push("stuck");
                    let mut trace = trace_to(&seen, enc, m.hmg);
                    let tv: &mut Vec<String> = &mut trace;
                    tv.push(format!("{:<15} (no handler)", step.rule));
                    violations.push(Violation {
                        invariant: "stuck",
                        detail: what,
                        trace,
                    });
                }
                continue;
            }
            let canon = step.next.canonical();
            if seen.contains_key(&canon) {
                continue;
            }
            seen.insert(canon, (enc, step.rule));
            // Check invariants on the canonical representative; both
            // orbit members violate iff one does (the checks are
            // symmetric in P1/P2).
            if let Some((invariant, detail)) = m.check(Cfg::decode(canon)) {
                if !seen_invariants.contains(&invariant) {
                    seen_invariants.push(invariant);
                    violations.push(Violation {
                        invariant,
                        detail,
                        trace: trace_to(&seen, canon, m.hmg),
                    });
                }
            }
            frontier.push_back((canon, d + 1));
        }
    }

    let (bounded_edges, wf_violations) = waits_for(spec);
    violations.extend(wf_violations);

    ModelRun {
        variant: spec.variant,
        reachable: seen.len() as u64,
        depth_reached,
        truncated,
        rows_exercised: rows_hit.iter().filter(|&&h| h).count(),
        rows_total,
        bounded_edges,
        violations,
    }
}

/// Model-checks every variant (or just `only`, when given).
pub fn check_all(only: Option<SpecVariant>, depth: Option<u32>) -> Vec<ModelRun> {
    SpecVariant::ALL
        .into_iter()
        .filter(|v| only.is_none_or(|o| o == *v))
        .map(|v| check_variant(ProtocolSpec::for_variant(v), depth))
        .collect()
}

/// The spec source, where table-level findings anchor.
pub(crate) const SPEC_RS: &str = "crates/protocol/src/spec.rs";

/// Message classes the spec rows can emit, with their declared
/// consumers. The table is ack-free: invalidations are the only
/// protocol-visible emission, consumed by the engine's invalidation
/// handler (which never generates a reply).
const EMITTED_CONSUMERS: &[(&str, &str, &str)] =
    &[("Inv", "crates/gpu/src/engine.rs", "fn handle_inv")];

/// Whether the paper's Table I declares the cell undefined: an absent
/// entry cannot be evicted, and flat NHCC homes never receive
/// hierarchical invalidations.
fn declared_na(state: DirState, event: DirEvent, hmg: bool) -> bool {
    (state, event) == (DirState::Invalid, DirEvent::Replace)
        || (event == DirEvent::Invalidation && !hmg)
}

/// Static completeness pre-pass: every `(state, event)` cell of every
/// [`SpecVariant`] is defined XOR declared N/A (`incomplete-row`), and
/// every message class the rows can emit has a declared consumer in the
/// engine (`undeclared-consumer`).
///
/// `defined` says whether a variant defines a cell; the audit passes
/// [`ProtocolSpec::legal`], and its `incomplete-row` self-test passes a
/// copy with one cell forgotten. Returns the number of cells checked
/// (2 states × 6 events × 4 variants) and the findings.
pub fn check_cells(
    root: &Path,
    defined: impl Fn(SpecVariant, DirState, DirEvent) -> bool,
) -> (usize, Vec<Finding>) {
    let mut out = Vec::new();
    let mut cells = 0;
    let anchor = locate(root, Path::new(SPEC_RS), "pub static ROWS");
    for variant in SpecVariant::ALL {
        for state in DirState::ALL {
            for event in DirEvent::ALL {
                cells += 1;
                let name = variant.name();
                let msg = match (
                    defined(variant, state, event),
                    declared_na(state, event, variant.hmg()),
                ) {
                    (false, false) => format!(
                        "({state:?}, {event:?}) has no row under `{name}` and is not a \
                         declared-N/A cell — the directory would take an unspecified action"
                    ),
                    (true, true) => format!(
                        "({state:?}, {event:?}) is declared N/A under `{name}` but the spec \
                         defines a row for it"
                    ),
                    _ => continue,
                };
                out.push(Finding::new("incomplete-row", SPEC_RS, anchor, msg));
            }
        }
    }

    let emits_inv = ROWS.iter().any(|r| {
        r.has(Action::InvAllSharers) || r.has(Action::InvOtherSharers) || r.has(Action::ForwardInv)
    });
    if emits_inv {
        for &(class, file, symbol) in EMITTED_CONSUMERS {
            let found = std::fs::read_to_string(root.join(file)).is_ok_and(|t| t.contains(symbol));
            if !found {
                out.push(Finding::new(
                    "undeclared-consumer",
                    file,
                    locate(root, Path::new(file), symbol),
                    format!(
                        "the spec emits {class} messages but the declared consumer `{symbol}` \
                         was not found in {file}"
                    ),
                ));
            }
        }
    }
    (cells, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    fn spec_defines(v: SpecVariant, s: DirState, e: DirEvent) -> bool {
        ProtocolSpec::for_variant(v).legal(s, e)
    }

    #[test]
    fn clean_table_verifies() {
        let (cells, findings) = check_cells(&root(), spec_defines);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(cells, 48);
    }

    #[test]
    fn every_variant_of_every_cell_is_checked() {
        // A cell defined where the paper says N/A is caught too, in
        // each of the four variants.
        for variant in SpecVariant::ALL {
            let (_, findings) = check_cells(&root(), |v, s, e| {
                spec_defines(v, s, e)
                    || (v, s, e) == (variant, DirState::Invalid, DirEvent::Replace)
            });
            assert_eq!(findings.len(), 1, "{variant:?}: {findings:?}");
            assert!(findings[0].msg.contains(variant.name()), "{findings:?}");
        }
    }

    #[test]
    fn injected_incomplete_row_is_reported_with_location() {
        let (_, findings) = check_cells(&root(), |v, s, e| {
            spec_defines(v, s, e)
                && (v, s, e) != (SpecVariant::Nhcc, DirState::Valid, DirEvent::Replace)
        });
        assert!(
            findings.iter().any(|f| f.rule == "incomplete-row"
                && f.file == Path::new(SPEC_RS)
                && f.line > 1
                && f.msg.contains("Replace")
                && f.msg.contains("`nhcc`")),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_inv_consumer_is_reported() {
        let (_, findings) = check_cells(Path::new("no-such-workspace"), spec_defines);
        assert!(
            findings.iter().any(|f| f.rule == "undeclared-consumer"),
            "{findings:?}"
        );
    }

    #[test]
    fn na_cells_are_exactly_the_papers() {
        let na = SpecVariant::ALL
            .iter()
            .flat_map(|v| DirState::ALL.map(|s| (v, s)))
            .flat_map(|(v, s)| DirEvent::ALL.map(|e| declared_na(s, e, v.hmg())))
            .filter(|&na| na)
            .count();
        // (I, Replace) x 4 variants + Invalidation column (2 states)
        // under the 2 flat variants.
        assert_eq!(na, 8);
    }

    #[test]
    fn every_variant_is_safe_and_exhaustively_explored() {
        for run in check_all(None, None) {
            assert!(
                run.passed(),
                "{}: {:#?}",
                run.variant.name(),
                run.violations
            );
            assert!(!run.truncated, "unbounded run must exhaust the space");
            assert!(
                run.reachable > 100,
                "{}: suspiciously small space ({})",
                run.variant.name(),
                run.reachable
            );
            assert_eq!(
                run.rows_exercised,
                run.rows_total,
                "{}: rows uncovered by the model",
                run.variant.name()
            );
            let r = run.report();
            assert!(r.contains("[model]"), "{r}");
            assert!(r.contains(&format!("variant={}", run.variant.name())));
        }
    }

    #[test]
    fn phase_variants_have_no_nack_edge_and_larger_spaces() {
        let nack = check_variant(ProtocolSpec::for_variant(SpecVariant::Hmg), None);
        let phase = check_variant(ProtocolSpec::for_variant(SpecVariant::HmgPhase), None);
        assert!(nack.bounded_edges.iter().any(|e| e.contains("Nack")));
        assert!(phase.bounded_edges.iter().all(|e| !e.contains("Nack")));
        assert!(
            phase.reachable > nack.reachable,
            "the defer slot adds configurations ({} vs {})",
            phase.reachable,
            nack.reachable
        );
    }

    #[test]
    fn dropped_forward_yields_a_counterexample() {
        let broken = ProtocolSpec::for_variant(SpecVariant::Hmg).with_forward_dropped();
        let run = check_variant(broken, None);
        assert!(!run.passed(), "dropping ForwardInv must be caught");
        let v = &run.violations[0];
        assert!(
            v.invariant == "conservation" || v.invariant == "swmr",
            "{v:?}"
        );
        assert!(!v.trace.is_empty(), "violations carry a trace");
        assert!(run.report().contains("counterexample"), "{}", run.report());
        // The flat variants never exercise the forward, so the same
        // injection is invisible there — the bug is HMG-specific.
        let flat = ProtocolSpec::for_variant(SpecVariant::Nhcc).with_forward_dropped();
        assert!(check_variant(flat, None).passed());
    }

    #[test]
    fn depth_bound_truncates_and_reports_it() {
        let run = check_variant(ProtocolSpec::for_variant(SpecVariant::Hmg), Some(2));
        assert!(run.truncated);
        assert!(run.depth_reached <= 2);
        assert!(run.report().contains("(truncated)"));
    }

    #[test]
    fn symmetry_reduction_at_least_halves_the_asymmetric_space() {
        // Counting without canonicalization must reach more states:
        // the P1/P2 orbit collapse is real.
        let spec = ProtocolSpec::for_variant(SpecVariant::Nhcc);
        let m = Model::new(spec);
        let mut seen = std::collections::HashSet::new();
        let mut frontier = VecDeque::new();
        seen.insert(Cfg::INITIAL.encode());
        frontier.push_back(Cfg::INITIAL.encode());
        while let Some(enc) = frontier.pop_front() {
            for step in m.successors(Cfg::decode(enc)) {
                if step.stuck.is_none() && seen.insert(step.next.encode()) {
                    frontier.push_back(step.next.encode());
                }
            }
        }
        let reduced = check_variant(spec, None).reachable;
        assert!(
            (seen.len() as u64) > reduced,
            "raw {} vs reduced {reduced}",
            seen.len()
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut c = Cfg::INITIAL;
        c.sys_valid = true;
        c.sys_sharers = 0b101;
        c.gpu_valid = true;
        c.gpu_sharers = 1;
        c.cached = 0b011;
        c.stale = 0b010;
        c.inv = [2, 0, 1, 2];
        c.busy = true;
        c.deferred = Some((Agent::P2, true));
        assert_eq!(Cfg::decode(c.encode()), c);
        assert_eq!(c.swapped().swapped(), c);
        assert_eq!(c.canonical(), c.swapped().canonical());
    }
}
