//! `inproc_filtered`: one `InprocBus`, no sockets. Delivery is
//! synchronous, so one thread publishes and then drains the 64
//! predicated subscribers' queues, checking every delivery against a
//! reference evaluation of the predicates made by the generator.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use infobus_core::inproc::{InprocBus, InprocReceiver};
use infobus_core::{BusStats, Delivery, SubscriptionHandle};

use crate::trace::Trace;
use crate::util::{ratio, wait_until, Hist};
use crate::workload::{seq_of, Msg, Workload};
use crate::{alloc, Measured, Plan, Traced};

pub struct Bus {
    pub bus: InprocBus,
    /// One queue per predicated interest, in threshold order.
    pub rxs: Vec<InprocReceiver>,
    _others: Vec<(SubscriptionHandle, InprocReceiver)>,
}

fn err<T>(r: Result<T, infobus_core::BusError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

pub fn setup(w: &Workload) -> Result<(Bus, f64), String> {
    let t0 = Instant::now();
    let bus = InprocBus::with_config(w.cfg.clone());
    err(bus.register_type(w.descriptor.clone()))?;
    let mut rxs = Vec::with_capacity(w.thresholds.len());
    for k in 0..w.thresholds.len() {
        rxs.push(err(bus.subscribe_filtered(&w.matching[0], &w.predicate(k)))?.1);
    }
    let mut others = Vec::with_capacity(w.others.len());
    for f in &w.others {
        others.push(err(bus.subscribe(f))?);
    }
    Ok((
        Bus {
            bus,
            rxs,
            _others: others,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

/// Verification state for one bus.
#[derive(Default)]
struct Verify {
    attempted: u64,
    failed: u64,
    depth_max: usize,
    /// What [`Verify::dequeue`] took from each predicated queue, with the
    /// dequeue time; kept between drains so dequeueing does not allocate.
    got: Vec<Vec<(Delivery, Instant)>>,
}

/// One publication awaiting its deliveries.
struct Pending {
    seq: u64,
    mask: u64,
    due: Option<Instant>,
}

impl Verify {
    /// Dequeues everything from every queue. Each delivery is stamped
    /// with its own dequeue time when `stamp` is set, else with the time
    /// the drain began.
    fn dequeue(&mut self, b: &Bus, stamp: bool) {
        self.got.resize_with(b.rxs.len(), Vec::new);
        let began = Instant::now();
        for (rx, q) in b.rxs.iter().zip(&mut self.got) {
            self.depth_max = self.depth_max.max(rx.len());
            while let Ok(d) = rx.try_recv() {
                q.push((d, if stamp { Instant::now() } else { began }));
            }
        }
    }

    /// Checks that every queue received exactly the pending publications
    /// its predicate accepts, in publication order, with the published
    /// content under the canonical subject, then empties what was
    /// dequeued. Records the latency of each delivery whose publication
    /// had a due time.
    fn check(&mut self, w: &Workload, pending: &[Pending], lat: &mut Hist) {
        let mut bad: Vec<bool> = vec![false; pending.len()];
        let index: HashMap<u64, usize> = pending
            .iter()
            .enumerate()
            .map(|(i, p)| (p.seq, i))
            .collect();
        // Deliveries of one publication share its payload buffer, so it
        // is unmarshalled and compared once, then known by address.
        let mut by_addr: HashMap<usize, Option<usize>> = HashMap::new();
        for (k, q) in self.got.iter_mut().enumerate() {
            let mut expect = pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.mask & 1 << k != 0)
                .map(|(i, _)| i);
            for (d, at) in q.drain(..) {
                let slot = *by_addr
                    .entry(d.payload.as_ptr() as usize)
                    .or_insert_with(|| {
                        let v = d.value().ok()?;
                        let i = *index.get(&seq_of(&v)?)?;
                        let m = w.message(pending[i].seq);
                        let ok = v == m.value && d.subject.as_str() == w.canonical[m.subject];
                        ok.then_some(i)
                    });
                let want = expect.next();
                match (slot, want) {
                    (Some(i), Some(j)) if i == j && !d.redelivery => {
                        if let Some(due) = pending[i].due {
                            lat.record_us(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                        }
                    }
                    (got, want) => {
                        for i in [got, want].into_iter().flatten() {
                            bad[i] = true;
                        }
                        if got.is_none() {
                            self.failed += 1;
                        }
                    }
                }
            }
            for i in expect {
                bad[i] = true;
            }
        }
        self.attempted += pending.len() as u64;
        self.failed += bad.iter().filter(|&&b| b).count() as u64;
    }
}

#[derive(Default)]
struct PhaseOut {
    published: u64,
    /// Seconds: the whole phase (open loop), or only the time spent
    /// publishing and dequeueing (closed loop).
    elapsed: f64,
    lat: Hist,
    late: Hist,
}

/// Publication `seq` with its reference evaluation, made by the
/// harness.
fn generate(w: &Workload, seq: u64) -> (Msg, u64) {
    alloc::harness(|| {
        let m = w.message(seq);
        let mask = w.expected_mask(&m);
        (m, mask)
    })
}

/// Publishes one generated message, checking the synchronous delivery
/// count against the reference evaluation.
fn publish(
    w: &Workload,
    b: &Bus,
    v: &mut Verify,
    seq: u64,
    (m, mask): &(Msg, u64),
    trace: &mut Option<(&mut Trace, &'static str)>,
    due: Option<Instant>,
) -> Result<Pending, String> {
    let start = Instant::now();
    let n = err(b.bus.publish(&w.subjects[m.subject], &m.value, m.qos))?;
    let end = Instant::now();
    if let Some((t, name)) = trace {
        alloc::harness(|| t.record(name, seq, start, end, None));
    }
    if n != mask.count_ones() as usize {
        v.failed += 1;
    }
    Ok(Pending {
        seq,
        mask: *mask,
        due,
    })
}

fn open_phase(
    w: &Workload,
    b: &Bus,
    v: &mut Verify,
    seq: &mut u64,
    n: u64,
    mut trace: Option<(&mut Trace, &'static str)>,
) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    let t0 = Instant::now() + Duration::from_millis(5);
    for j in 0..n {
        let msg = generate(w, *seq);
        let due = t0 + Duration::from_secs_f64(j as f64 / w.open_rate);
        wait_until(due);
        out.late
            .record_us(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let p = publish(w, b, v, *seq, &msg, &mut trace, Some(due))?;
        *seq += 1;
        v.dequeue(b, true);
        alloc::harness(|| v.check(w, &[p], &mut out.lat));
    }
    out.published = n;
    out.elapsed = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Publishes one window of messages back to back, then drains every
/// queue; returns the time that took. Generating the messages before and
/// checking the deliveries after are the harness's work, outside it.
fn batch(
    w: &Workload,
    b: &Bus,
    v: &mut Verify,
    seq: &mut u64,
    trace: &mut Option<(&mut Trace, &'static str)>,
    lat: &mut Hist,
) -> Result<Duration, String> {
    let (msgs, mut pending) = alloc::harness(|| {
        let msgs: Vec<(Msg, u64)> = (*seq..*seq + w.window).map(|s| generate(w, s)).collect();
        let pending = Vec::with_capacity(msgs.len());
        (msgs, pending)
    });
    let t0 = Instant::now();
    for msg in &msgs {
        pending.push(publish(w, b, v, *seq, msg, trace, None)?);
        *seq += 1;
    }
    v.dequeue(b, false);
    let took = t0.elapsed();
    alloc::harness(|| v.check(w, &pending, lat));
    Ok(took)
}

fn closed_phase(
    w: &Workload,
    b: &Bus,
    v: &mut Verify,
    seq: &mut u64,
    dur: Duration,
    mut trace: Option<(&mut Trace, &'static str)>,
) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    let t0 = Instant::now();
    let mut busy = Duration::ZERO;
    while t0.elapsed() < dur {
        busy += batch(w, b, v, seq, &mut trace, &mut out.lat)?;
        out.published += w.window;
    }
    out.elapsed = busy.as_secs_f64();
    Ok(out)
}

/// Publishes four times as many messages as there are subjects, so the
/// fan-out cache and the intern table are warm before anything is timed.
fn warmup(w: &Workload, b: &Bus, v: &mut Verify, seq: &mut u64) -> Result<(), String> {
    let mut lat = Hist::new();
    for _ in 0..(4 * w.subjects.len() as u64).div_ceil(w.window) {
        batch(w, b, v, seq, &mut None, &mut lat)?;
    }
    Ok(())
}

pub fn run(w: &Workload, plan: &Plan) -> Result<Measured, String> {
    let mut m = Measured::default();
    for _ in 0..plan.reps {
        let (b, setup_s) = setup(w)?;
        m.setup_s.push(setup_s);
        let mut v = Verify::default();
        let mut seq = 0u64;
        warmup(w, &b, &mut v, &mut seq)?;
        let n = (w.open_rate * plan.phase.as_secs_f64()).round() as u64;
        let open = open_phase(w, &b, &mut v, &mut seq, n, None)?;
        m.phase_p50.push(open.lat.percentile_us(0.5));
        m.phase_p99.push(open.lat.percentile_us(0.99));
        m.lat.merge(&open.lat);
        m.late.merge(&open.late);
        let closed = closed_phase(w, &b, &mut v, &mut seq, plan.phase, None)?;
        m.phase_msgs_s
            .push(ratio(closed.published as f64, closed.elapsed));
        m.closed_msgs += closed.published;
        m.attempted += v.attempted;
        m.failed += v.failed;
    }
    Ok(m)
}

fn delta(after: &BusStats, before: &BusStats, f: impl Fn(&BusStats) -> u64) -> f64 {
    f(after) as f64 - f(before) as f64
}

pub fn run_traced(w: &Workload, plan: &Plan, base: Instant) -> Result<Traced, String> {
    let (b, _) = setup(w)?;
    let mut v = Verify::default();
    let mut seq = 0u64;
    warmup(w, &b, &mut v, &mut seq)?;
    let plain = closed_phase(w, &b, &mut v, &mut seq, plan.traced_phase, None)?;
    let mut t = Traced::new(base);
    let s0 = b.bus.stats();
    let first = seq;
    let allocs0 = alloc::arm();
    let mut tr = Trace::new(base);
    let traced = closed_phase(
        w,
        &b,
        &mut v,
        &mut seq,
        plan.traced_phase,
        Some((&mut tr, "inproc.publish")),
    )?;
    let allocs = alloc::disarm() - allocs0;
    let s1 = b.bus.stats();
    let n = (w.open_rate * plan.traced_phase.as_secs_f64()).round() as u64;
    let open = open_phase(
        w,
        &b,
        &mut v,
        &mut seq,
        n,
        Some((&mut tr, "inproc.publish.paced")),
    )?;
    t.trace.merge(tr);

    let msgs = (seq - first - n) as f64;
    t.attempted = v.attempted;
    t.failed = v.failed;
    t.set(
        "filter.evals_per_msg",
        ratio(delta(&s1, &s0, |s| s.filt_evals), msgs),
    );
    t.set(
        "filter.suppressed_ratio",
        ratio(delta(&s1, &s0, |s| s.filt_pub_suppressed), msgs),
    );
    t.set("queue.depth_max", v.depth_max as f64);
    t.set("queue.dropped", delta(&s1, &s0, |s| s.sub_queue_dropped));
    t.set("alloc.per_msg", ratio(allocs as f64, msgs));
    t.set("gen.late_p99_us", open.late.percentile_us(0.99));
    t.set(
        "trace.overhead_ratio",
        ratio(
            ratio(traced.published as f64, traced.elapsed),
            ratio(plain.published as f64, plain.elapsed),
        ),
    );
    t.call_metrics(
        "inproc.publish",
        "inproc.publish_call_us.p50",
        "inproc.publish_call_us.p99",
    );
    Ok(t)
}
