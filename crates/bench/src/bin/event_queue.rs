//! Event-queue head-to-head: replay the soak's event mix on the timer
//! wheel and on the binary-heap oracle, verify the popped `(time, seq)`
//! streams are identical, and write `BENCH_event_queue.json` with both
//! throughputs and the speedup.
//!
//! `cargo run -p pdagent-bench --release --bin event_queue [events] [depth] [seed]`

use pdagent_bench::event_queue;
use pdagent_bench::report::{write_bench_report, Json};

fn main() {
    let mut args = std::env::args().skip(1);
    let events: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000_000);
    let depth: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let r = event_queue::run(events, depth, seed);

    println!(
        "event queue head-to-head: {events} pops at depth {depth}, {:.0}% tombstones, seed {seed}",
        r.cancel_pct * 100.0
    );
    println!(
        "  heap : {:>8.3}s  {:>12.0} events/s",
        r.heap.wall_secs, r.heap.events_per_sec
    );
    println!(
        "  wheel: {:>8.3}s  {:>12.0} events/s",
        r.wheel.wall_secs, r.wheel.events_per_sec
    );
    println!(
        "  speedup {:.2}x, checksums {}",
        r.speedup,
        if r.checksum_match { "match" } else { "DIVERGED" }
    );

    let results = Json::obj(vec![
        ("events", r.events.into()),
        ("depth", r.depth.into()),
        ("cancel_pct", r.cancel_pct.into()),
        ("seed", seed.into()),
        ("heap_wall_secs", r.heap.wall_secs.into()),
        ("heap_events_per_sec", r.heap.events_per_sec.into()),
        ("wheel_wall_secs", r.wheel.wall_secs.into()),
        ("wheel_events_per_sec", r.wheel.events_per_sec.into()),
        ("queue_speedup", r.speedup.into()),
        ("checksum_match", r.checksum_match.into()),
    ]);
    match write_bench_report("event_queue", r.wheel.wall_secs, r.events, results) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_event_queue.json: {e}"),
    }

    if !r.checksum_match {
        println!("\nshape check FAILED: wheel and heap popped different (time, seq) streams");
        std::process::exit(1);
    }
    println!("\nshape check: OK (identical pop streams, speedup {:.2}x)", r.speedup);
}
