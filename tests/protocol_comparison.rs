//! End-to-end performance-relation sanity across the suite at test
//! scale: the qualitative orderings the paper's figures rest on.

use hmg::experiments::{figure, run_cell, CellCtx, ExpOptions, Table};
use hmg::prelude::*;

fn opts(workloads: &[&str]) -> ExpOptions {
    ExpOptions {
        scale: Scale::Tiny,
        seed: 17,
        filter: Some(workloads.iter().map(|s| s.to_string()).collect()),
        ..ExpOptions::default()
    }
}

/// The speedup table of the registry figure `name`.
fn speedups(name: &str, opts: &ExpOptions) -> Table {
    let report = figure(name).expect("registered").run(opts).expect(name);
    report.tables.into_iter().next().expect("one table")
}

/// A speedup table's `GeoMean` for the protocol column `p`.
fn geomean(t: &Table, p: &str) -> f64 {
    t.value("GeoMean", p).expect("workloads completed")
}

#[test]
fn fig8_structure_and_orderings() {
    let t = speedups("fig8", &opts(&["RNN_FW", "bfs", "CoMD", "lstm"]));
    assert_eq!(t.rows.len(), 4);
    assert_eq!(t.columns.len(), 5);
    // All speedups within sane bounds.
    for (w, row) in &t.rows {
        for ((p, _), v) in t.columns.iter().zip(row) {
            let v = v.unwrap_or_else(|| panic!("{w}/{p}: cell completed"));
            assert!(v > 0.2 && v < 50.0, "{w}/{p}: speedup {v}");
        }
    }
    // The caching upper bound leads the geomean (small tolerance for
    // tiny-scale noise).
    let ideal = geomean(&t, ProtocolKind::Ideal.name());
    for (p, _) in &t.columns {
        assert!(
            ideal >= geomean(&t, p) * 0.9,
            "{p} geomean exceeds ideal's meaningfully"
        );
    }
}

#[test]
fn hmg_coalesces_broadcasts_that_flat_tracking_cannot() {
    // The paper's core claim, isolated: both GPMs of GPU1 read the same
    // GPU0-homed region. Flat NHCC crosses the inter-GPU link once per
    // GPM; HMG's GPU home serves the second GPM inside GPU1, so HMG must
    // move strictly fewer data bytes between GPUs.
    use hmg_mem::Addr;
    use hmg_protocol::{Access, Cta, Kernel, TraceOp, WorkloadTrace};

    let lines = 64u64;
    let homing: Vec<TraceOp> = (0..lines)
        .map(|i| TraceOp::Access(Access::load(Addr(i * 128))))
        .collect();
    // Spread each reader's accesses with delays so fills land between
    // reads rather than all merging in flight.
    let reader = |offset: u64| -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for round in 0..3u64 {
            for i in 0..lines {
                let line = (i + offset + round * 7) % lines;
                ops.push(TraceOp::Access(Access::load(Addr(line * 128))));
                ops.push(TraceOp::Delay(20));
            }
        }
        ops
    };
    let trace = WorkloadTrace::new(
        "broadcast-iso",
        vec![
            Kernel::new(vec![
                Cta::new(homing),
                Cta::new(vec![]),
                Cta::new(vec![]),
                Cta::new(vec![]),
            ]),
            Kernel::new(vec![
                Cta::new(vec![]),
                Cta::new(vec![]),
                Cta::new(reader(0)),
                Cta::new(reader(13)),
            ]),
        ],
    );
    let data = |p: ProtocolKind| {
        let m = Engine::new(EngineConfig::small_test(p)).run(&trace);
        m.fabric.inter_bytes(hmg::interconnect::MsgClass::Data)
    };
    let nhcc = data(ProtocolKind::Nhcc);
    let hmg = data(ProtocolKind::Hmg);
    assert!(
        hmg < nhcc,
        "GPU-home coalescing must cut inter-GPU data: hmg={hmg} nhcc={nhcc}"
    );
}

#[test]
fn hw_coherence_beats_sw_on_fine_grained_sharing() {
    let t = speedups("fig8", &opts(&["bfs"]));
    let hmg = geomean(&t, ProtocolKind::Hmg.name());
    let sw = geomean(&t, ProtocolKind::SwNonHier.name());
    assert!(
        hmg > sw,
        "cross-kernel reuse must reward hardware coherence: hmg={hmg} sw={sw}"
    );
}

#[test]
fn fig2_is_the_motivating_subset() {
    let t = speedups("fig2", &opts(&["bfs", "CoMD"]));
    let columns: Vec<&str> = t.columns.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        columns,
        [
            ProtocolKind::SwNonHier.name(),
            ProtocolKind::Nhcc.name(),
            ProtocolKind::Ideal.name()
        ]
    );
    assert_eq!(t.rows.len(), 2);
}

#[test]
fn whole_suite_runs_at_tiny_scale() {
    // Smoke: every Table III workload executes under every protocol.
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 4,
        ..ExpOptions::default()
    };
    for spec in hmg::workloads::suite::table3() {
        for p in ProtocolKind::ALL {
            let m = run_cell(&opts.plain_cell(spec.abbrev, p)).expect("clean cell");
            assert!(
                m.total_cycles.as_u64() > 0,
                "{}/{p} produced an empty run",
                spec.abbrev
            );
        }
    }
}

/// The untweaked, fault-free Fig. 8 cell for `workload` under `p` at
/// tiny scale, seed 17 — the cell both golden tests pin.
fn tiny_cell(workload: &str, p: ProtocolKind) -> CellCtx {
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 17,
        ..ExpOptions::default()
    };
    opts.plain_cell(workload, p)
}

/// Pre-refactor golden `(state_digest, total_cycles)` for every
/// protocol configuration on the Fig. 8 tiny cells, recorded from the
/// seed tree **before** the DES hot-path rewrite (calendar event queue,
/// flat-map state, dense fabric sequence table) landed. The digest pins
/// the committed memory state; the cycle count pins the full event
/// schedule, so even an ordering drift that happens to converge to the
/// same memory state fails loudly here.
#[test]
fn fig8_cells_match_pre_refactor_goldens() {
    // Cycle counts in `ProtocolKind::ALL` order: no-peer-caching,
    // sw-nonhier, nhcc, sw-hier, hmg, carve-like, ideal.
    const GOLDEN: [(&str, u64, [u64; 7]); 4] = [
        (
            "RNN_FW",
            0x68d06f1939e60da5,
            [7185, 7185, 7188, 7737, 7665, 7172, 7668],
        ),
        (
            "bfs",
            0xe1d7f3f0ef5b3e4e,
            [7011, 7011, 5877, 7554, 6060, 5472, 5954],
        ),
        (
            "CoMD",
            0x072e02bf5e2a01a5,
            [7209, 7209, 7051, 7764, 7435, 6990, 6362],
        ),
        (
            "lstm",
            0x68d06f1939e60da5,
            [7284, 7284, 7287, 7839, 8469, 7232, 7735],
        ),
    ];
    for (workload, digest, cycles) in GOLDEN {
        for (&p, &golden_cycles) in ProtocolKind::ALL.iter().zip(&cycles) {
            let m = run_cell(&tiny_cell(workload, p)).expect("golden cell runs clean");
            assert_eq!(
                m.state_digest, digest,
                "{workload}/{p}: committed state diverged from the pre-refactor golden"
            );
            assert_eq!(
                m.total_cycles.as_u64(),
                golden_cycles,
                "{workload}/{p}: event schedule drifted from the pre-refactor golden"
            );
        }
    }
}

/// Golden [`RunMetrics::fingerprint`] for the same 28 tiny cells. The
/// fingerprint hashes every deterministic output — cycles, events,
/// every counter, fabric traffic, table coverage, the miss-latency
/// histogram, kernel end cycles, and the digest — so a change that
/// moves any timing or traffic number fails here even when the final
/// memory state and total cycles survive. A refactor or speedup that
/// claims "same behaviour" must leave these untouched.
#[test]
fn fig8_cells_match_fingerprint_goldens() {
    // Fingerprints in `ProtocolKind::ALL` order, as above.
    const GOLDEN: [(&str, [u64; 7]); 4] = [
        (
            "RNN_FW",
            [
                0xb2f16858584251eb,
                0x01dc45afd856ba59,
                0x22fae1094186913b,
                0x443f8cbad72c2ea1,
                0x24b86e3cd2fd5589,
                0x28933ea74f8c34fe,
                0xed2e3e4fcf86618a,
            ],
        ),
        (
            "bfs",
            [
                0xd2c587c2bbedad50,
                0xd9d1f804ce3a895b,
                0x8060e2ef49f07225,
                0x802cd66dfd225ca5,
                0x3d57b5ae09ee42f8,
                0x4f17d4d08dc4bafb,
                0xe0ee847089e01a47,
            ],
        ),
        (
            "CoMD",
            [
                0xefdf7ee9cdba1b23,
                0x100376106f9cd524,
                0x785a53def2f58cbc,
                0xf21c5648f26ddc0a,
                0xfbfa3279879bfeaa,
                0x395a5da70db8a5a9,
                0x243ffd3aec9d6fa7,
            ],
        ),
        (
            "lstm",
            [
                0x6085f75326043f5d,
                0xb3645f64dfd3d4ff,
                0xe6c2cadfe343d488,
                0x5654e7da8ef22caa,
                0x7e8970eb359f9c69,
                0x3a68629620efa691,
                0x331b294ef715d8b2,
            ],
        ),
    ];
    // Every cell runs before the verdict, so a drift names all the
    // cells it touches rather than only the first.
    let mut drifted = Vec::new();
    for (workload, fingerprints) in GOLDEN {
        for (&p, &golden) in ProtocolKind::ALL.iter().zip(&fingerprints) {
            let m = run_cell(&tiny_cell(workload, p)).expect("golden cell runs clean");
            let got = m.fingerprint();
            if got != golden {
                drifted.push(format!(
                    "{workload}/{p}: {got:#018x} != golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "behaviour fingerprint drifted:\n{}",
        drifted.join("\n")
    );
}

/// Golden final-memory-state digest, one cell per protocol. The digest
/// folds every committed `(line, version)` pair, so it pins two things
/// at once: the exact memory state this workload/seed must produce
/// (catching silent generator or commit-path drift), and the invariant
/// that the coherence protocol choice affects *timing only* — every
/// protocol, including the idealized upper bound, must commit the
/// identical state.
#[test]
fn state_digest_is_golden_and_protocol_independent() {
    const GOLDEN: u64 = 0xe1d7f3f0ef5b3e4e;
    for p in ProtocolKind::ALL {
        let m = run_cell(&tiny_cell("bfs", p)).expect("clean cell");
        assert_eq!(
            m.state_digest, GOLDEN,
            "{p}: committed memory state diverged from the golden digest"
        );
    }
}
