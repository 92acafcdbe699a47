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

use hmg_protocol::spec::{
    Effect, GuardCtx, ProtocolSpec, Sharers, SpecRow, SpecVariant, Targets, ROWS,
};
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

/// The two abstract directories, indexing [`Cfg::valid`] and
/// [`Cfg::sharers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// The system home GPM.
    S,
    /// The remote GPU's home node (HMG variants only).
    G,
}

/// One abstract configuration, decoded from its [`Cfg::encode`] image.
///
/// Field packing (u64): see `encode`. Everything is tiny on purpose —
/// the whole reachable space for any variant is a few thousand states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cfg {
    /// Directory entry present, per [`Home`].
    valid: [bool; 2],
    /// Tracked sharers, per [`Home`]. At `S`: bit 0 = P1, bit 1 = P2,
    /// bit 2 = R (flat) or G (HMG). At `G`: bit 0 = R.
    sharers: [u8; 2],
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
        valid: [false; 2],
        sharers: [0; 2],
        cached: 0,
        stale: 0,
        inv: [0; INV_TARGETS],
        busy: false,
        deferred: None,
    };

    fn encode(self) -> u64 {
        let mut x = 0u64;
        x |= self.valid[0] as u64;
        x |= (self.sharers[0] as u64) << 1;
        x |= (self.valid[1] as u64) << 4;
        x |= (self.sharers[1] as u64) << 5;
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
            valid: [x & 1 != 0, (x >> 4) & 1 != 0],
            sharers: [((x >> 1) & 0b111) as u8, ((x >> 5) & 1) as u8],
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
            sharers: [swap_bits(self.sharers[0]), self.sharers[1]],
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

    /// The Table I state of `home`'s entry.
    fn state(self, home: Home) -> DirState {
        if self.valid[home as usize] {
            DirState::Valid
        } else {
            DirState::Invalid
        }
    }

    fn cached(self, a: Agent) -> bool {
        self.cached & (1 << a.bit()) != 0
    }
    fn stale(self, a: Agent) -> bool {
        self.stale & (1 << a.bit()) != 0
    }

    /// Human-readable one-line rendering for counterexample traces.
    fn show(self, hmg: bool) -> String {
        let list = |items: Vec<String>| {
            if items.is_empty() {
                "-".to_string()
            } else {
                items.join(",")
            }
        };
        let set = |bits: u8, names: [&str; 3]| {
            let members = (0..3).filter(|i| bits & (1 << i) != 0);
            list(members.map(|i| names[i].to_string()).collect())
        };
        let mut out = format!(
            "sys={}{{{}}}",
            self.state(Home::S).letter(),
            set(self.sharers[0], ["P1", "P2", if hmg { "G" } else { "R" }]),
        );
        if hmg {
            let gpu = set(self.sharers[1], ["R", "", ""]);
            let _ = write!(out, " gpu={}{{{gpu}}}", self.state(Home::G).letter());
        }
        let inflight = (0..4).filter(|&i| self.inv[i] > 0);
        let inflight = inflight.map(|i| format!("{}x{}", ["P1", "P2", "R", "G"][i], self.inv[i]));
        let _ = write!(
            out,
            " cached={{{}}} stale={{{}}} inv={{{}}}",
            set(self.cached, ["P1", "P2", "R"]),
            set(self.stale, ["P1", "P2", "R"]),
            list(inflight.collect()),
        );
        if self.busy {
            out.push_str(" busy");
        }
        if let Some((a, st)) = self.deferred {
            let op = if st { "St" } else { "Ld" };
            let _ = write!(out, " deferred={}:{op}", a.name());
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
    /// Executes `event` at `home` through the variant's row for the
    /// entry's state under `ctx`: the one place the model gives Table I
    /// meaning, by [`SpecRow::effect`](hmg_protocol::SpecRow::effect),
    /// the function the engine runs. Updates the entry and enqueues the
    /// row's invalidations; returns the row's coverage index and its
    /// effect. `None` when the cell is undefined or a full bounded
    /// channel disables the rule.
    fn exec(
        &self,
        c: &mut Cfg,
        home: Home,
        event: DirEvent,
        ctx: GuardCtx,
        sender: Option<Agent>,
    ) -> Option<(usize, Effect)> {
        let row = self.spec.row(c.state(home), event, ctx)?;
        let h = home as usize;
        // `S` tracks an agent at its own bit (`R`'s is `G`'s under
        // HMG); `G` tracks only `R`, at bit 0.
        let sender = sender.map(|a| if home == Home::S { 1 << a.bit() } else { 1 });
        let e = row.effect(Sharers::exact(u64::from(c.sharers[h])), sender);
        let Targets::Exact(targets) = e.targets else {
            unreachable!("model entries never degrade to broadcast")
        };
        for bit in (0..3).filter(|b| targets & (1 << b) != 0) {
            let target = match (home, bit) {
                (Home::G, _) => Agent::R.bit() as usize,
                (Home::S, 2) if self.hmg => G_TARGET,
                (Home::S, _) => bit,
            };
            if c.inv[target] >= MAX_INFLIGHT {
                return None;
            }
            c.inv[target] += 1;
        }
        c.sharers[h] = e.sharers.bits as u8;
        c.valid[h] = e.next == DirState::Valid;
        let idx = self.spec.rows().position(|r| r == row)?;
        Some((idx, e))
    }

    /// Completes an access by `a` (`None`: the home GPM itself): a store
    /// makes every cached copy stale, and `a` ends with a fresh one.
    fn touch(c: &mut Cfg, a: Option<Agent>, is_store: bool) {
        if is_store {
            c.stale |= c.cached;
        }
        if let Some(a) = a {
            c.cached |= 1 << a.bit();
            c.stale &= !(1 << a.bit());
        }
    }

    /// Applies a load or store by `a` that the home accepted (the
    /// busy/defer decision already happened): under HMG, `R`'s request
    /// passes its GPU home node first. Returns the executed row indices,
    /// or `None` when a bounded channel disables the rule.
    fn request(&self, c: &mut Cfg, a: Agent, is_store: bool) -> Option<Vec<usize>> {
        let event = DirEvent::access(is_store, true);
        let mut rows = Vec::new();
        if a == Agent::R && self.hmg {
            rows.push(self.exec(c, Home::G, event, GuardCtx::FREE, Some(a))?.0);
        }
        rows.push(self.exec(c, Home::S, event, GuardCtx::FREE, Some(a))?.0);
        Self::touch(c, Some(a), is_store);
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

        // Requests from the caching agents.
        for a in AGENTS {
            for is_store in [false, true] {
                let op = if is_store { "St" } else { "Ld" };
                if c.busy {
                    // Busy home: the guarded row decides. NACK bounces
                    // the request (a stutter at this abstraction, recorded
                    // only so row coverage sees the Nack rows fire);
                    // Defer parks it in the slot.
                    let (mut n, event) = (c, DirEvent::access(is_store, true));
                    if let Some((row, e)) =
                        self.exec(&mut n, Home::S, event, GuardCtx::BUSY, Some(a))
                    {
                        if e.defer {
                            if c.deferred.is_none() {
                                n.deferred = Some((a, is_store));
                                push(format!("defer({}:{op})", a.name()), n, vec![row]);
                            }
                            continue;
                        }
                        if e.nack {
                            push(format!("nack({}:{op})", a.name()), c, vec![row]);
                            continue;
                        }
                    }
                }
                let mut n = c;
                if let Some(rows) = self.request(&mut n, a, is_store) {
                    push(format!("{op}({})", a.name()), n, rows);
                }
            }
        }

        // The home GPM's own accesses, and directory replacements
        // (capacity evictions) at either home.
        for (home, event, rule) in [
            (Home::S, DirEvent::LocalLoad, "Ld(S)"),
            (Home::S, DirEvent::LocalStore, "St(S)"),
            (Home::S, DirEvent::Replace, "Replace(S)"),
            (Home::G, DirEvent::Replace, "Replace(G)"),
        ] {
            let mut n = c;
            if let Some((row, _)) = self.exec(&mut n, home, event, GuardCtx::FREE, None) {
                Self::touch(&mut n, None, event == DirEvent::LocalStore);
                push(rule.into(), n, vec![row]);
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
            let (gs, event) = (c.state(Home::G), DirEvent::Invalidation);
            let mut n = c;
            n.inv[G_TARGET] -= 1;
            if !self.spec.legal(gs, event) {
                stuck_steps.push(Step {
                    rule: "inv(G)".into(),
                    next: c,
                    rows: Vec::new(),
                    stuck: Some(format!(
                        "invalidation in flight to a directory whose spec has no \
                         ({gs:?}, Invalidation) row"
                    )),
                });
            } else if let Some((row, _)) = self.exec(&mut n, Home::G, event, GuardCtx::FREE, None) {
                push("inv(G)".into(), n, vec![row]);
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
                if let Some(rows) = self.request(&mut n, a, is_store) {
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
        let [sys, gpu] = c.sharers;
        match a {
            Agent::P1 | Agent::P2 => sys & (1 << a.bit()) != 0 || c.inv[a.bit() as usize] > 0,
            Agent::R => {
                let direct_inv = c.inv[Agent::R.bit() as usize] > 0;
                if !self.hmg {
                    return sys & 0b100 != 0 || direct_inv;
                }
                let tracked = gpu & 1 != 0 && sys & 0b100 != 0;
                let via_g = c.inv[G_TARGET] > 0 && gpu & 1 != 0;
                tracked || direct_inv || via_g
            }
        }
    }

    /// Invariant checks on one configuration. Returns
    /// `(invariant, detail)` for the first violation found.
    fn check(&self, c: Cfg) -> Option<(&'static str, String)> {
        // Sharer conservation, every configuration.
        if let Some(a) = AGENTS
            .into_iter()
            .find(|&a| c.cached(a) && !self.covered(c, a))
        {
            let what = "cached copy is neither tracked nor owed an invalidation";
            return Some(("conservation", format!("{}'s {what}", a.name())));
        }
        // Tracked sharers imply a Valid entry.
        for (h, name) in [(Home::S, "sys"), (Home::G, "gpu")] {
            if c.sharers[h as usize] != 0 && c.state(h) == DirState::Invalid {
                let what = format!("{name} directory tracks sharers while Invalid");
                return Some(("conservation", what));
            }
        }
        // SWMR-analog: staleness must have drained at quiescence.
        let stale = AGENTS.into_iter().find(|&a| c.quiescent() && c.stale(a))?;
        let what = format!(
            "quiescent configuration with a stale copy at {}",
            stale.name()
        );
        Some(("swmr", what))
    }
}

/// What a row emits: its [`Effect`] on an entry tracking two sharers,
/// one of them the sender.
fn emissions(r: &SpecRow) -> Effect {
    r.effect(Sharers::exact(0b11), Some(0b01))
}

/// Builds the waits-for edges the spec's actions imply and returns
/// `(bounded_edges, violations)` — an unbounded cycle is a violation.
fn waits_for(spec: ProtocolSpec) -> (Vec<String>, Vec<Violation>) {
    // Nodes are message classes at hierarchy levels; edges mean
    // "handling X can emit Y". Unbounded cycles deadlock.
    let mut unbounded: Vec<(&str, &str)> = Vec::new();
    let mut bounded: Vec<String> = Vec::new();
    for r in spec.rows() {
        let src = if r.event == DirEvent::Invalidation {
            "Inv@gpu"
        } else {
            "Req"
        };
        let e = emissions(r);
        if e.targets != Targets::Exact(0) {
            unbounded.push((src, if e.forwarded { "Inv@cache" } else { "Inv@sys" }));
        }
        if e.nack {
            // Req -> Nack -> Req(retry): bounded by the attempt cap.
            bounded.push("Req -> Nack -> Req (bounded: nack_attempt_cap)".into());
        }
        if e.defer {
            // Req -> Req(replay): bounded by backlog drain + watchdog.
            bounded.push("Req -> Req replay (bounded: backlog drain)".into());
        }
    }
    // Sys-emitted invalidations land either at caches (terminal) or at
    // the GPU home, which may forward (Inv@gpu edge above).
    if spec.legal(DirState::Valid, DirEvent::Invalidation) {
        unbounded.push(("Inv@sys", "Inv@gpu"));
    }
    bounded.sort_unstable();
    bounded.dedup();
    let violations = unbounded_cycle(unbounded).map(|edges| Violation {
        invariant: "waitsfor",
        detail: format!("unbounded emission cycle through {edges}"),
        trace: Vec::new(),
    });
    (bounded, violations.into_iter().collect())
}

/// The edges of `edges` on, or leading into, a cycle, or `None` when
/// the graph is acyclic. Peels off edges into nodes that emit nothing
/// until none is left to peel.
fn unbounded_cycle(mut edges: Vec<(&str, &str)>) -> Option<String> {
    let sink = |edges: &[(&str, &str)], node: &str| edges.iter().all(|&(from, _)| from != node);
    while let Some(i) = edges.iter().position(|&(_, to)| sink(&edges, to)) {
        edges.remove(i);
    }
    let live: Vec<String> = edges.iter().map(|(a, b)| format!("{a} -> {b}")).collect();
    (!live.is_empty()).then(|| live.join(", "))
}

/// Model-checks one variant: BFS over the abstract state space with
/// symmetry reduction, invariants checked on every reachable
/// configuration, shortest counterexamples on violation.
pub fn check_variant(spec: ProtocolSpec, depth: Option<u32>) -> ModelRun {
    explore(spec, depth, Cfg::canonical)
}

/// [`check_variant`] with configurations identified by `canonical`.
fn explore(spec: ProtocolSpec, depth: Option<u32>, canonical: fn(Cfg) -> u64) -> ModelRun {
    let hmg = spec.variant.hmg();
    let m = Model { spec, hmg };
    let rows_total = spec.rows().count();
    let mut rows_hit = vec![false; rows_total];

    // canonical -> (parent canonical, rule); the root is its own parent.
    let mut seen: HashMap<u64, (u64, String)> = HashMap::new();
    let mut frontier = VecDeque::new();
    let root = canonical(Cfg::INITIAL);
    seen.insert(root, (root, String::new()));
    frontier.push_back((root, 0u32));

    let mut violations: Vec<Violation> = Vec::new();
    let mut seen_invariants: Vec<&'static str> = Vec::new();
    let mut depth_reached = 0u32;
    let mut truncated = false;

    // The rules from the initial configuration to `at`, each with the
    // configuration it produced.
    let trace_to = |seen: &HashMap<u64, (u64, String)>, mut at: u64| {
        let mut lines = VecDeque::new();
        loop {
            let (parent, rule) = &seen[&at];
            let label = if rule.is_empty() { "init" } else { rule };
            lines.push_front(format!("{label:<15} {}", Cfg::decode(at).show(m.hmg)));
            if rule.is_empty() {
                return Vec::from(lines);
            }
            at = *parent;
        }
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
                    let mut trace = trace_to(&seen, enc);
                    trace.push(format!("{:<15} (no handler)", step.rule));
                    violations.push(Violation {
                        invariant: "stuck",
                        detail: what,
                        trace,
                    });
                }
                continue;
            }
            let canon = canonical(step.next);
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
                        trace: trace_to(&seen, canon),
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

    let emits_inv = |r| emissions(r).targets != Targets::Exact(0);
    if ROWS.iter().any(emits_inv) {
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
    fn reachable_space_is_pinned_per_variant() {
        // The model steps the rows through the engine's own executor,
        // so these counts move only when the proved semantics does:
        // after a remote store the entry keeps the sharers it just
        // invalidated, as the engine's does.
        let got: Vec<_> = check_all(None, None)
            .iter()
            .map(|r| (r.variant.name(), r.reachable, r.depth_reached))
            .collect();
        let want = [
            ("nhcc", 3_038, 10),
            ("hmg", 16_914, 14),
            ("nhcc-phase", 20_494, 12),
            ("hmg-phase", 114_102, 16),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn an_unbounded_emission_cycle_is_found() {
        let acyclic = vec![
            ("Req", "Inv@sys"),
            ("Inv@sys", "Inv@gpu"),
            ("Inv@gpu", "Inv@cache"),
        ];
        assert_eq!(unbounded_cycle(acyclic), None);
        let cyclic = vec![
            ("Req", "Inv@sys"),
            ("Inv@sys", "Inv@gpu"),
            ("Inv@gpu", "Req"),
        ];
        let cycle = unbounded_cycle([("Req", "Inv@cache")].into_iter().chain(cyclic).collect());
        assert_eq!(
            cycle.as_deref(),
            Some("Req -> Inv@sys, Inv@sys -> Inv@gpu, Inv@gpu -> Req")
        );
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
        let raw = explore(spec, None, Cfg::encode).reachable;
        let reduced = check_variant(spec, None).reachable;
        assert!(raw > reduced, "raw {raw} vs reduced {reduced}");
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut c = Cfg::INITIAL;
        c.valid = [true, true];
        c.sharers = [0b101, 1];
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
