//! Shard scaling — contended publishers on the in-process bus.
//!
//! Four OS threads publish concurrently, each on its own
//! first-segment-distinct subject, to one subscriber per subject drained
//! by its own consumer thread. `publish` returns after delivery, so the
//! rate at which the last publisher finishes is the end-to-end rate.
//!
//! Two configurations:
//!
//! 1. `1 shard` — every publish serializes the full
//!    marshal → sequence → loopback → deliver chain on one engine
//!    mutex;
//! 2. `4 shards` — per-shard locks: each subject's chain runs under its
//!    own mutex, so publishers on subjects owned by different shards
//!    stop contending. Whether that buys parallelism depends on the
//!    host's cores and on how the four subjects hash (the routing line).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use infobus_bench::emit_table;
use infobus_core::inproc::InprocBus;
use infobus_core::{shard_of_subject, BusConfig, QoS};
use infobus_types::Value;

const SUBJECTS: [&str; 4] = ["alpha.bench", "bravo.bench", "charlie.bench", "delta.bench"];
const MSGS_PER_THREAD: usize = 50_000;
const ITERATIONS: usize = 3;

/// Throughput of one configuration in total messages per second, best
/// of [`ITERATIONS`].
fn run_contended(shards: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..ITERATIONS {
        let bus = InprocBus::with_config(BusConfig::default().with_shards(shards));
        // One subscriber per subject, drained by a consumer thread, so
        // each message traverses the full path including the wake of a
        // blocked receiver.
        let consumers: Vec<_> = SUBJECTS
            .iter()
            .map(|s| {
                let (_sub, rx) = bus.subscribe(s).unwrap();
                std::thread::spawn(move || while rx.recv().is_ok() {})
            })
            .collect();
        let barrier = Arc::new(Barrier::new(SUBJECTS.len() + 1));
        let handles: Vec<_> = SUBJECTS
            .iter()
            .map(|subject| {
                let bus = bus.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..MSGS_PER_THREAD {
                        bus.publish(subject, &Value::I64(i as i64), QoS::Reliable)
                            .unwrap();
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let total = (SUBJECTS.len() * MSGS_PER_THREAD) as u64;
        let delivered = bus.stats().delivered;
        assert_eq!(delivered, total, "bench lost messages");
        // Dropping the last bus handle drops the queue senders, which
        // closes the consumer channels and lets the drains exit.
        drop(bus);
        for c in consumers {
            c.join().unwrap();
        }
        best = best.max(total as f64 / elapsed);
    }
    best
}

fn main() {
    let spread: Vec<String> = SUBJECTS
        .iter()
        .map(|s| format!("{s}→{}", shard_of_subject(s, 4)))
        .collect();
    let configs = [1, 4];
    let results: Vec<f64> = configs.iter().map(|&s| run_contended(s)).collect();
    let baseline = results[0];

    let header = format!(
        "{:>7} {:>8} {:>14} {:>9}",
        "shards", "threads", "msgs/sec", "speedup"
    );
    let mut rows: Vec<String> = configs
        .iter()
        .zip(&results)
        .map(|(&shards, &rate)| {
            format!(
                "{:>7} {:>8} {:>14.0} {:>8.2}x",
                shards,
                SUBJECTS.len(),
                rate,
                rate / baseline
            )
        })
        .collect();
    rows.push(format!("routing: {}", spread.join(" ")));
    println!(
        "SHARD SCALING: {} contended publishers, distinct first segments, \
         {} msgs each, publish→deliver end to end\n",
        SUBJECTS.len(),
        MSGS_PER_THREAD
    );
    emit_table("shard_scaling", &header, &rows);
}
