//! Wall-clock benchmark of the Information Bus.
//!
//! ```text
//! perfbench --workload <udp_quotes|udp_lossy_gd|inproc_filtered>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics: it repeats
//! (set up a fresh bus; one open-loop phase at the workload's offered
//! rate; one closed-loop phase) as many times as `--seconds` allows,
//! each phase one announce-refresh period long. With `--trace 1` it
//! measures the per-layer metrics instead: spans around every call into
//! the bus, counter deltas from `stats()`, and the layer-isolation pass.
//! Every delivery is checked in both modes. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--smoke` shortens every phase for a quick check.

mod alloc;
mod check;
mod inproc;
mod layers;
mod trace;
mod udp;
mod util;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Trace;
use util::{median, percentile, quantile, ratio, Hist};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics (untraced runs), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("msgs_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with their units. A metric of a
/// layer the workload does not use reads 0 and prints as `n/a`.
const PER_LAYER: [(&str, &str); 39] = [
    ("net.publish_call_us.p50", "us"),
    ("net.publish_call_us.p99", "us"),
    ("net.deliver_us.p50", "us"),
    ("net.deliver_us.p99", "us"),
    ("net.datagrams_per_msg", "count"),
    ("net.bytes_per_msg", "B"),
    ("net.rx_lost", "count"),
    ("net.sendto_us", "us"),
    ("subject.intern_ns", "ns"),
    ("subject.trie_match_ns", "ns"),
    ("subject.remote_filter_scan_us", "us"),
    ("semantic.canonicalize_ns", "ns"),
    ("filter.eval_ns", "ns"),
    ("filter.evals_per_msg", "count"),
    ("filter.suppressed_ratio", "ratio"),
    ("wire.marshal_ns", "ns"),
    ("wire.unmarshal_ns", "ns"),
    ("wire.payload_bytes", "B"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("engine.publish_ns", "ns"),
    ("engine.ingest_ns", "ns"),
    ("engine.naks_per_kmsg", "count"),
    ("engine.retrans_per_kmsg", "count"),
    ("engine.dups_dropped", "count"),
    ("engine.gd_redelivery_ratio", "ratio"),
    ("engine.gd_pending_max", "count"),
    ("engine.batch_fill", "count"),
    ("inproc.publish_call_us.p50", "us"),
    ("inproc.publish_call_us.p99", "us"),
    ("queue.depth_max", "count"),
    ("queue.dropped", "count"),
    ("alloc.per_msg", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("isolation.stage_sum_us", "us"),
    ("isolation.composed_us", "us"),
    ("isolation.stage_sum_ratio", "ratio"),
    ("isolation.within_bound", "count"),
];

/// Measurement plan derived from `--seconds`.
pub struct Plan {
    /// Repetitions (fresh bus each) of an untraced run.
    pub reps: usize,
    /// Length of one open- or closed-loop phase.
    pub phase: Duration,
    /// Length of each of a traced run's three phases: a quarter of the
    /// run in whole phases, leaving the rest to the isolation pass.
    pub traced_phase: Duration,
}

impl Plan {
    fn new(w: &Workload, seconds: u64, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                reps: 1,
                phase: Duration::from_millis(250),
                traced_phase: Duration::from_millis(250),
            };
        }
        // Each repetition runs one open-loop and one closed-loop phase.
        let phase = w.phase();
        let quarter = (seconds as f64 / 4.0 / phase.as_secs_f64())
            .floor()
            .max(1.0);
        Plan {
            reps: ((seconds as f64 / (2.0 * phase.as_secs_f64())) as usize).max(1),
            phase,
            traced_phase: phase.mul_f64(quarter),
        }
    }
}

/// What untraced repetitions accumulate.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Publish→deliver latency of open-loop publications, from due time.
    pub lat: Hist,
    /// p50 and p99 of each open-loop phase, µs.
    pub phase_p50: Vec<f64>,
    pub phase_p99: Vec<f64>,
    /// How late the open-loop generator published.
    pub late: Hist,
    /// Closed-loop publications per second of each phase.
    pub phase_msgs_s: Vec<f64>,
    pub closed_msgs: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// What one run reports.
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// A check other than delivery that the run failed; the run is then
    /// not correct.
    broken: Option<String>,
}

/// What a traced run produces.
pub struct Traced {
    pub trace: Trace,
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    pub fn new(base: Instant) -> Traced {
        Traced {
            trace: Trace::new(base),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The p50 and p99 of spans named `span`, in µs.
    pub fn call_metrics(&mut self, span: &str, p50: &'static str, p99: &'static str) {
        let mut d: Vec<f64> = self
            .trace
            .durations(span)
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        self.set(p50, percentile(&mut d, 0.5));
        self.set(p99, percentile(&mut d, 0.99));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10, false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Human-readable provenance, so a later run can tell a regression from
/// a different host or revision.
fn stamp(a: &Args) {
    println!("# perfbench");
    println!("# revision   {}", util::git_revision());
    println!("# nproc      {}", util::nproc());
    println!("# cpu        {}", util::cpu_model());
    println!(
        "# workload   {}  seed {}  seconds {}  trace {}{}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.smoke { "  smoke" } else { "" }
    );
}

fn end_to_end(w: &Workload, plan: &Plan) -> Result<Outcome, String> {
    let m = if w.is_udp() {
        udp::run(w, plan)?
    } else {
        inproc::run(w, plan)?
    };
    let samples = m.lat.len();
    let mut out = BTreeMap::new();
    // Figures over phases, so a host stall (a vCPU taken away for a few
    // ms, which alone lifts its phase's p99) moves only its own phase.
    // The p50 is the median over phases. The p99 is the lower quartile
    // of the phases' p99s (the 3rd of 10 UDP phases, the 50th of 200
    // in-process ones): a slower tail in more than three quarters of the
    // phases moves it. On a shared 2-vCPU host such stalls hit a quarter
    // to over half of the 100 ms in-process phases, depending on the
    // neighbours, which moved the median of the phases' p99s by a third
    // between two sets of runs; the p99 over all of a run's samples,
    // printed below, swung 20x between two runs.
    out.insert("lat_p50_us", median(&m.phase_p50));
    out.insert("lat_p99_us", quantile(&m.phase_p99, 0.25));
    out.insert("msgs_s", median(&m.phase_msgs_s));
    out.insert("setup_s", median(&m.setup_s));
    out.insert("peak_rss_mb", util::peak_rss_mb());
    println!(
        "# latency samples {samples} (open loop at {} msgs/s, {} reps x {:?})",
        w.open_rate, plan.reps, plan.phase
    );
    println!(
        "# closed loop {} publications; setups (s) {:?}",
        m.closed_msgs, m.setup_s
    );
    println!("# generator late p99 {:.1} us", m.late.percentile_us(0.99));
    let tail: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|&q| format!("p{}={:.0}", q * 100.0, m.lat.percentile_us(q)))
        .collect();
    println!("# latency tail (us): {}", tail.join(" "));
    for (name, v) in [
        ("lat p50 (us)", &m.phase_p50),
        ("lat p99 (us)", &m.phase_p99),
        ("msgs/s", &m.phase_msgs_s),
    ] {
        let q = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0].map(|q| quantile(v, q));
        println!(
            "# per-phase {name}: {} phases, min/p10/q1/median/q3/p90/max {q:.1?}",
            v.len()
        );
    }
    Ok(Outcome {
        values: out,
        attempted: m.attempted,
        failed: m.failed,
        broken: None,
    })
}

fn per_layer(w: &Workload, plan: &Plan) -> Result<Outcome, String> {
    let base = Instant::now();
    let mut t = if w.is_udp() {
        udp::run_traced(w, plan, base)?
    } else {
        inproc::run_traced(w, plan, base)?
    };
    let iso = layers::isolate(w, layers::ISOLATION_MESSAGES, base)?;
    // Mean time per call of each stage the workload's replay ran, net of
    // the clock read; stages it did not run stay n/a.
    for (metric, stage, per_us) in [
        ("subject.intern_ns", "subject.intern", false),
        ("subject.trie_match_ns", "subject.trie_match", false),
        ("subject.remote_filter_scan_us", "subject.scan", true),
        ("semantic.canonicalize_ns", "semantic.canonicalize", false),
        ("wire.marshal_ns", "wire.marshal", false),
        ("wire.unmarshal_ns", "wire.unmarshal", false),
        ("frame.encode_ns", "frame.encode", false),
        ("frame.decode_ns", "frame.decode", false),
        ("engine.publish_ns", "engine.publish", false),
        ("engine.ingest_ns", "engine.ingest", false),
        ("net.sendto_us", "net.sendto", true),
    ] {
        if let Some(ns) = iso.per_call_ns(stage) {
            t.set(metric, if per_us { ns / 1e3 } else { ns });
        }
    }
    t.set("wire.payload_bytes", iso.payload_bytes);
    if iso.evals > 0 {
        // Both filter gates evaluate predicates back to back.
        let d: f64 = ["filter.gate", "filter.deliver_gate"]
            .iter()
            .map(|s| iso.trace.durations(s).iter().sum::<f64>())
            .sum();
        t.set("filter.eval_ns", d / iso.evals as f64);
    }

    let sum_ns = iso.stage_sum_ns();
    let composed_ns = iso.composed_ns();
    let r = ratio(sum_ns, composed_ns);
    let within = (r - 1.0).abs() <= layers::ISOLATION_BOUND;
    t.set("isolation.stage_sum_us", sum_ns / 1e3);
    t.set("isolation.composed_us", composed_ns / 1e3);
    t.set("isolation.stage_sum_ratio", r);
    t.set("isolation.within_bound", f64::from(u8::from(within)));
    println!(
        "# isolation: median stage sum {:.2} us vs composed publish {:.2} us (ratio {:.3}, bound +-{})",
        sum_ns / 1e3,
        composed_ns / 1e3,
        r,
        layers::ISOLATION_BOUND
    );

    t.trace.merge(iso.trace);
    println!("# self time per span (count, mean ns, mean self ns):");
    for (name, (n, dur, own)) in t.trace.self_times() {
        println!("#   {name:<24} {n:>8} {dur:>12.1} {own:>12.1}");
    }
    let path = std::path::Path::new("perfbench/out").join(format!("spans-{}.csv", w.name));
    match t.trace.write_csv(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
    Ok(Outcome {
        values: t.metrics,
        attempted: t.attempted,
        failed: t.failed,
        broken: (!within).then(|| {
            format!(
                "layer isolation: stage sum / composed publish = {r:.3}, outside 1 +- {}",
                layers::ISOLATION_BOUND
            )
        }),
    })
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, spec: &[(&str, &str)]) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::new(&a.workload, a.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {WORKLOADS:?})",
            a.workload
        );
        std::process::exit(2);
    };
    stamp(&a);
    let plan = Plan::new(&w, a.seconds, a.smoke);
    let spec: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let result = if a.trace {
        per_layer(&w, &plan)
    } else {
        end_to_end(&w, &plan)
    };
    let Outcome {
        values,
        attempted,
        failed,
        broken,
    } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            std::process::exit(1);
        }
    };
    let failed_ratio = ratio(failed as f64, attempted as f64);
    for (name, unit) in spec {
        match values.get(name) {
            Some(v) => println!("{name:<32} {v:>16.4} {unit}"),
            None => println!("{name:<32} {:>16} {unit}", "n/a"),
        }
    }
    println!("{:<32} {failed_ratio:>16.6} ratio", "failed_ratio");
    println!("{:<32} {attempted:>16} count", "attempted");
    if let Some(why) = &broken {
        eprintln!("perfbench: {}: {why}", w.name);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0 && attempted > 0 && broken.is_none(),
        attempted.max(1),
        failed,
        json_metrics(&values, spec)
    );
}
