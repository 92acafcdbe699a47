//! Microbenchmarks of the simulator's hot components: the event queue,
//! the set-associative cache, the coherence directory, the Table I spec
//! row lookup, the link model, and the PRNG. These track the simulator's own
//! performance (the Fig. 7 "simulation runtime" axis).
//!
//! Plain `std::time` harness (`harness = false`): the workspace builds
//! offline, so there is no external benchmark framework. Run with
//! `cargo bench --bench components`.

use std::hint::black_box;
use std::time::Instant;

use hmg::interconnect::{Link, Topology};
use hmg::mem::addr::{BlockAddr, LineAddr};
use hmg::mem::{Cache, CacheConfig, Directory, DirectoryConfig, Sharer};
use hmg::protocol::{Action, Arbitration, DirEvent, DirState, GuardCtx, ProtocolSpec};
use hmg::sim::{Cycle, EventQueue, Rng};

/// Times `f` over enough iterations to fill ~0.2 s after warmup and
/// prints mean time per iteration.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Warmup + calibration.
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_millis() < 50 {
        black_box(f());
        calib_iters += 1;
    }
    let iters = (calib_iters * 4).max(10);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<40} {:>12.3} us/iter  ({iters} iters)",
        per_iter * 1e6
    );
}

fn bench_event_queue() {
    bench("event_queue push+pop 1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Cycle(i * 3 % 997), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });
}

fn bench_cache() {
    let cfg = CacheConfig::new(24_576, 16); // a 3 MB slice
    bench("l2_cache insert+get 4k lines", || {
        let mut cache: Cache<u64> = Cache::new(cfg);
        for i in 0..4096u64 {
            cache.insert(LineAddr(i * 7), i);
        }
        let mut hits = 0;
        for i in 0..4096u64 {
            if cache.get(LineAddr(i * 7)).is_some() {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_directory() {
    let topo = Topology::new(4, 4);
    bench("directory allocate+insert 4k blocks", || {
        let mut dir = Directory::new(DirectoryConfig::paper_default(), topo);
        for i in 0..4096u64 {
            let (set, _evicted) = dir.allocate(BlockAddr(i * 13));
            set.insert(
                &topo,
                Sharer::Gpm(hmg::interconnect::GpmId((i % 16) as u16)),
            );
        }
        dir.len()
    });
}

fn bench_fsm() {
    let spec = ProtocolSpec::of(true, Arbitration::NackRetry);
    bench("table1 spec row x1k", || {
        let mut acc = 0u32;
        for i in 0..1000u32 {
            let ev = match i % 4 {
                0 => DirEvent::LocalLoad,
                1 => DirEvent::RemoteLoad,
                2 => DirEvent::RemoteStore,
                _ => DirEvent::LocalStore,
            };
            let r = spec.row(black_box(DirState::Valid), ev, GuardCtx::FREE);
            acc += r.is_some_and(|r| r.has(Action::AddSharer)) as u32;
        }
        acc
    });
}

fn bench_link() {
    bench("link send x1k", || {
        let mut l = Link::new(153.8, Cycle(135));
        let mut last = Cycle::ZERO;
        for i in 0..1000u64 {
            last = l.send(Cycle(i), 144);
        }
        last
    });
}

fn bench_rng() {
    bench("splitmix64 zipf x1k", || {
        let mut r = Rng::new(42);
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(r.gen_zipf(100_000, 0.9));
        }
        acc
    });
}

fn main() {
    bench_event_queue();
    bench_cache();
    bench_directory();
    bench_fsm();
    bench_link();
    bench_rng();
}
