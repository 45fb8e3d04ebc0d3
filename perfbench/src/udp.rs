//! `udp_quotes` and `udp_lossy_gd`: two `UdpBus` daemons in this
//! process over loopback, on default protocol timers. One thread
//! publishes at the publisher daemon; one thread receives and verifies
//! at the subscriber daemon.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use infobus_core::{BusStats, QoS, SubscriptionHandle};
use infobus_net::{NetReceiver, UdpBus, UdpConfig};

use crate::check::{Checker, Seen};
use crate::trace::Trace;
use crate::util::{ratio, wait_until, Hist};
use crate::workload::Workload;
use crate::{alloc, Measured, Plan, Traced};

/// How long the receiver waits for stragglers (NAK repair, idle-stream
/// digests) after the publisher stops, before counting the rest missing.
const GRACE: Duration = Duration::from_secs(10);
/// How long set-up may wait for the publisher to learn every filter.
const SETUP_LIMIT: Duration = Duration::from_secs(60);

struct Pair {
    publisher: UdpBus,
    subscriber: UdpBus,
    rx: NetReceiver,
    /// Keeps the non-matching subscriptions (and their queues) alive.
    _others: Vec<(SubscriptionHandle, NetReceiver)>,
}

fn net<T>(r: Result<T, infobus_core::BusError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Binds both daemons, introduces them, populates the subscriber, and
/// waits until the publisher's daemon has learned every announced
/// filter.
fn setup(w: &Workload, rep: u64) -> Result<(Pair, f64), String> {
    let t0 = Instant::now();
    let publisher = net(UdpBus::bind(
        UdpConfig::new(1)
            .with_bus(w.cfg.clone())
            .with_app("perfbench-pub"),
    ))?;
    let mut cfg = UdpConfig::new(2)
        .with_bus(w.cfg.clone())
        .with_app("perfbench-sub");
    if w.sub_loss > 0.0 {
        cfg = cfg.with_recv_loss(w.sub_loss, w.seed.wrapping_mul(31).wrapping_add(rep));
    }
    let subscriber = net(UdpBus::bind(cfg))?;
    net(publisher.add_peer(2, subscriber.local_addr()))?;
    net(subscriber.add_peer(1, publisher.local_addr()))?;
    net(publisher.register_type(w.descriptor.clone()))?;
    let (_, rx) = net(subscriber.subscribe(&w.matching[0]))?;
    let mut others = Vec::with_capacity(w.others.len());
    for f in &w.others {
        others.push(net(subscriber.subscribe(f))?);
    }
    let want = w.matching.len() + w.others.len();
    while publisher.peer_filters().len() < want {
        if t0.elapsed() > SETUP_LIMIT {
            return Err(format!(
                "publisher learned {} of {want} filters in {SETUP_LIMIT:?}",
                publisher.peer_filters().len()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Pair {
            publisher,
            subscriber,
            rx,
            _others: others,
        },
        secs,
    ))
}

#[derive(Clone, Copy)]
enum Mode {
    /// Publish `n` messages at `rate`/s, each timed from when it was due.
    Open { rate: f64, n: u64 },
    /// Publish for `dur`, at most `window` undelivered in flight.
    Closed { window: u64, dur: Duration },
}

#[derive(Default)]
struct PhaseOut {
    published: u64,
    /// From the first publish to the first delivery of the last
    /// publication.
    elapsed: f64,
    lat: Hist,
    late: Hist,
    depth_max: usize,
    gd_published: u64,
    gd_pending_max: u64,
    publish_trace: Option<Trace>,
    deliver_trace: Option<Trace>,
}

/// One phase: a publishing thread (this one) and a receiving thread.
/// `next_seq` continues across the phases of one daemon pair, so the
/// checker sees one publication stream per pair.
fn phase(
    w: &Workload,
    pair: &Pair,
    chk: &mut Checker,
    next_seq: &mut u64,
    mode: Mode,
    trace: Option<(Instant, &'static str)>,
) -> Result<PhaseOut, String> {
    let first = *next_seq;
    let published = AtomicU64::new(first);
    let delivered = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let ret_ns: Vec<AtomicU64> = match (trace, mode) {
        (Some(_), Mode::Open { n, .. }) => (0..n).map(|_| AtomicU64::new(0)).collect(),
        _ => Vec::new(),
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut out = PhaseOut::default();
    let mut ptrace = trace.map(|(base, _)| Trace::new(base));

    let recv_out = std::thread::scope(|sc| {
        let receiver = sc.spawn(|| {
            let mut lat = Hist::new();
            let mut depth_max = 0usize;
            let mut dtrace = trace.map(|(base, _)| Trace::new(base));
            let mut last_first = t0;
            let mut phase_distinct = 0u64;
            let mut done_at: Option<Instant> = None;
            loop {
                match pair.rx.recv_timeout(Duration::from_millis(2)) {
                    Ok(d) => {
                        let now = Instant::now();
                        depth_max = depth_max.max(pair.rx.len() + 1);
                        if let Seen::First(seq) = alloc::harness(|| chk.on_delivery(w, &d)) {
                            if seq >= first {
                                phase_distinct += 1;
                                delivered.store(phase_distinct, Ordering::Release);
                                last_first = now;
                                if let Mode::Open { rate, .. } = mode {
                                    let j = seq - first;
                                    let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                                    lat.record_us(
                                        now.saturating_duration_since(due).as_secs_f64() * 1e6,
                                    );
                                    // `net.deliver` runs from the publish call's
                                    // return to this dequeue.
                                    let ret = ret_ns
                                        .get(j as usize)
                                        .map_or(0, |r| r.load(Ordering::Acquire));
                                    if let (Some(t), true) = (dtrace.as_mut(), ret > 0) {
                                        let end_ns = t.ns(now);
                                        alloc::harness(|| {
                                            t.spans.push(crate::trace::Span {
                                                name: "net.deliver",
                                                seq,
                                                start_ns: ret.min(end_ns),
                                                end_ns,
                                                parent: None,
                                            })
                                        });
                                    }
                                }
                            }
                        }
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                }
                if done.load(Ordering::Acquire) {
                    let at = *done_at.get_or_insert_with(Instant::now);
                    let target = published.load(Ordering::Acquire) - first;
                    if phase_distinct >= target || at.elapsed() > GRACE {
                        break;
                    }
                }
            }
            (lat, depth_max, last_first, dtrace)
        });

        let p = &pair.publisher;
        let mut seq = first;
        let mut next_sample = t0;
        let result: Result<(), String> = (|| {
            match mode {
                Mode::Open { rate, n } => {
                    for j in 0..n {
                        let m = alloc::harness(|| w.message(seq));
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        wait_until(due);
                        let start = Instant::now();
                        out.late
                            .record_us(start.saturating_duration_since(due).as_secs_f64() * 1e6);
                        net(p.publish(&w.subjects[m.subject], &m.value, m.qos))?;
                        let end = Instant::now();
                        if let (Some(t), Some((_, name))) = (ptrace.as_mut(), trace) {
                            alloc::harness(|| t.record(name, seq, start, end, None));
                            ret_ns[j as usize].store(t.ns(end).max(1), Ordering::Release);
                        }
                        out.gd_published += u64::from(m.qos == QoS::Guaranteed);
                        seq += 1;
                        published.store(seq, Ordering::Release);
                        if trace.is_some() && end >= next_sample {
                            out.gd_pending_max = out.gd_pending_max.max(p.stats().gd_pending);
                            next_sample = end + Duration::from_millis(50);
                        }
                    }
                }
                Mode::Closed { window, dur } => {
                    wait_until(t0);
                    let stop = t0 + dur;
                    'publish: while Instant::now() < stop {
                        let m = alloc::harness(|| w.message(seq));
                        let blocked = Instant::now();
                        while (seq - first) - delivered.load(Ordering::Acquire) >= window {
                            // A window that never drains means lost
                            // publications: stop, and let the checker
                            // count them.
                            if blocked.elapsed() > GRACE {
                                break 'publish;
                            }
                            std::thread::yield_now();
                        }
                        let start = Instant::now();
                        net(p.publish(&w.subjects[m.subject], &m.value, m.qos))?;
                        let end = Instant::now();
                        if let (Some(t), Some((_, name))) = (ptrace.as_mut(), trace) {
                            alloc::harness(|| t.record(name, seq, start, end, None));
                        }
                        out.gd_published += u64::from(m.qos == QoS::Guaranteed);
                        seq += 1;
                        published.store(seq, Ordering::Release);
                        if trace.is_some() && end >= next_sample {
                            out.gd_pending_max = out.gd_pending_max.max(p.stats().gd_pending);
                            next_sample = end + Duration::from_millis(50);
                        }
                    }
                }
            }
            Ok(())
        })();
        done.store(true, Ordering::Release);
        let recv = receiver.join().expect("receiver thread panicked");
        result.map(|()| (recv, seq))
    })?;
    let ((lat, depth_max, last_first, dtrace), seq) = recv_out;
    *next_seq = seq;
    out.published = seq - first;
    out.elapsed = last_first.saturating_duration_since(t0).as_secs_f64();
    out.lat = lat;
    out.depth_max = depth_max;
    out.publish_trace = ptrace;
    out.deliver_trace = dtrace;
    Ok(out)
}

fn warmup(w: &Workload, pair: &Pair, chk: &mut Checker, seq: &mut u64) -> Result<(), String> {
    phase(
        w,
        pair,
        chk,
        seq,
        Mode::Closed {
            window: w.window,
            dur: w.phase() / 10,
        },
        None,
    )
    .map(|_| ())
}

/// Untraced repetitions: each sets up a fresh daemon pair, then runs one
/// open-loop and one closed-loop phase of one announce period each.
pub fn run(w: &Workload, plan: &Plan) -> Result<Measured, String> {
    let mut m = Measured::default();
    for rep in 0..plan.reps as u64 {
        let (pair, setup_s) = setup(w, rep)?;
        m.setup_s.push(setup_s);
        let mut chk = Checker::new(w.subjects.len());
        let mut seq = 0u64;
        warmup(w, &pair, &mut chk, &mut seq)?;
        let n = (w.open_rate * plan.phase.as_secs_f64()).round() as u64;
        let open = phase(
            w,
            &pair,
            &mut chk,
            &mut seq,
            Mode::Open {
                rate: w.open_rate,
                n,
            },
            None,
        )?;
        m.phase_p50.push(open.lat.percentile_us(0.5));
        m.phase_p99.push(open.lat.percentile_us(0.99));
        m.lat.merge(&open.lat);
        m.late.merge(&open.late);
        let closed = phase(
            w,
            &pair,
            &mut chk,
            &mut seq,
            Mode::Closed {
                window: w.window,
                dur: plan.phase,
            },
            None,
        )?;
        m.phase_msgs_s
            .push(ratio(closed.published as f64, closed.elapsed));
        m.closed_msgs += closed.published;
        m.attempted += seq;
        m.failed += chk.failed(seq);
    }
    Ok(m)
}

fn delta(after: &BusStats, before: &BusStats, f: impl Fn(&BusStats) -> u64) -> f64 {
    f(after) as f64 - f(before) as f64
}

/// The traced run: one daemon pair; an untraced closed-loop phase (the
/// overhead baseline), then traced closed- and open-loop phases with
/// spans around every publish and delivery, counter deltas across them,
/// and the layer-isolation pass.
pub fn run_traced(w: &Workload, plan: &Plan, base: Instant) -> Result<Traced, String> {
    let (pair, _) = setup(w, 0)?;
    let mut chk = Checker::new(w.subjects.len());
    let mut seq = 0u64;
    warmup(w, &pair, &mut chk, &mut seq)?;
    let closed = Mode::Closed {
        window: w.window,
        dur: plan.traced_phase,
    };
    let plain = phase(w, &pair, &mut chk, &mut seq, closed, None)?;

    let p0 = pair.publisher.stats();
    let s0 = pair.subscriber.stats();
    let redeliveries0 = chk.redeliveries;
    let allocs0 = alloc::arm();
    let traced = phase(
        w,
        &pair,
        &mut chk,
        &mut seq,
        closed,
        Some((base, "net.publish")),
    )?;
    let allocs = alloc::disarm() - allocs0;
    let n = (w.open_rate * plan.traced_phase.as_secs_f64()).round() as u64;
    let open = phase(
        w,
        &pair,
        &mut chk,
        &mut seq,
        Mode::Open {
            rate: w.open_rate,
            n,
        },
        Some((base, "net.publish.paced")),
    )?;
    let p1 = pair.publisher.stats();
    let s1 = pair.subscriber.stats();

    let mut t = Traced::new(base);
    let msgs = (traced.published + open.published) as f64;
    let gd = (traced.gd_published + open.gd_published) as f64;
    t.attempted = seq;
    t.failed = chk.failed(seq);
    let tx = delta(&p1, &p0, |s| s.net_tx_packets);
    t.set("net.datagrams_per_msg", ratio(tx, msgs));
    t.set(
        "net.bytes_per_msg",
        ratio(delta(&p1, &p0, |s| s.net_tx_bytes), msgs),
    );
    t.set(
        "net.rx_lost",
        tx - delta(&s1, &s0, |s| s.net_rx_packets) - delta(&s1, &s0, |s| s.net_recv_dropped),
    );
    t.set(
        "engine.naks_per_kmsg",
        1e3 * ratio(delta(&s1, &s0, |s| s.naks_sent), msgs),
    );
    t.set(
        "engine.retrans_per_kmsg",
        1e3 * ratio(delta(&p1, &p0, |s| s.retransmitted), msgs),
    );
    t.set("engine.dups_dropped", delta(&s1, &s0, |s| s.dups_dropped));
    t.set(
        "engine.gd_redelivery_ratio",
        ratio((chk.redeliveries - redeliveries0) as f64, gd),
    );
    t.set(
        "engine.gd_pending_max",
        traced.gd_pending_max.max(open.gd_pending_max) as f64,
    );
    t.set(
        "engine.batch_fill",
        ratio(
            delta(&p1, &p0, |s| s.batch_envelopes),
            delta(&p1, &p0, |s| s.batch_flushes),
        ),
    );
    t.set(
        "queue.depth_max",
        traced.depth_max.max(open.depth_max) as f64,
    );
    t.set("queue.dropped", delta(&s1, &s0, |s| s.sub_queue_dropped));
    t.set(
        "filter.evals_per_msg",
        ratio(
            delta(&p1, &p0, |s| s.filt_evals) + delta(&s1, &s0, |s| s.filt_evals),
            msgs,
        ),
    );
    t.set(
        "filter.suppressed_ratio",
        ratio(delta(&p1, &p0, |s| s.filt_pub_suppressed), msgs),
    );
    t.set(
        "alloc.per_msg",
        ratio(allocs as f64, traced.published as f64),
    );
    t.set("gen.late_p99_us", open.late.percentile_us(0.99));
    t.set(
        "trace.overhead_ratio",
        ratio(
            ratio(traced.published as f64, traced.elapsed),
            ratio(plain.published as f64, plain.elapsed),
        ),
    );
    for tr in [traced.publish_trace, open.publish_trace, open.deliver_trace]
        .into_iter()
        .flatten()
    {
        t.trace.merge(tr);
    }
    t.call_metrics(
        "net.publish",
        "net.publish_call_us.p50",
        "net.publish_call_us.p99",
    );
    t.call_metrics("net.deliver", "net.deliver_us.p50", "net.deliver_us.p99");
    Ok(t)
}
