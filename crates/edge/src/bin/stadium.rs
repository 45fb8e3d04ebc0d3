//! The stadium bench: one edge daemon's session plane carrying 100k+
//! thin-client sessions.
//!
//! Drives the sans-I/O [`SessionBroker`] and an [`InterestTable`]
//! directly — the composition a session-serving `UdpBus` runs, minus
//! the socket: session subscriptions are table entries, and a delivery
//! is one memoized match in the table, then one broker delivery per
//! accepting session. So the numbers measure the session plane itself:
//! join rate, fan-out rate, heartbeat scan and eviction cost at
//! six-figure session counts. Per-session state is a map entry, a
//! cursor, and a table entry; no threads, no buffers per client.
//!
//! Phases:
//!
//! 1. **join** — every session hellos and subscribes to one of
//!    `SECTIONS` subject groups;
//! 2. **fan-out** — rounds of publishes across every section; acking
//!    sessions keep their windows open, a deliberate 2% of slow
//!    consumers never ack and take the backpressure path instead
//!    (pause → bounded backlog → drop-with-stat);
//! 3. **fan-in** — a sample of sessions publish through the broker;
//! 4. **churn** — 5% of sessions go silent and are evicted by the
//!    freshness scan; the same number of new clients join.
//!
//! Scale with `STADIUM_SESSIONS` (default 100 000). Results go to
//! stdout; `bench_results/stadium.txt` holds a checked-in run.

use std::time::Instant;

use infobus_core::engine::BusStats;
use infobus_core::{BusConfig, InterestTable, QoS};
use infobus_net::{ConnId, SessOut, SessionBroker, SessionFrame, SESSION_PROTO};
use infobus_subject::{InternedSubject, SubjectTable};

/// Subject groups ("sections" of the stadium).
const SECTIONS: usize = 128;
/// Fan-out rounds over every section. Each session sees one delivery
/// per round, so this must clear the slow consumers' lag ceiling plus
/// their backlog cap for the drop path to fire.
const ROUNDS: usize = 16;
/// One in this many sessions never acks (slow consumer).
const SLOW_EVERY: u64 = 50;
/// One in this many sessions goes silent during churn.
const SILENT_EVERY: u64 = 20;
/// One in this many sessions publishes during fan-in.
const PUB_EVERY: usize = 500;
const TOKEN: u64 = 7;

fn hello(i: u64) -> SessionFrame {
    SessionFrame::Hello {
        proto: SESSION_PROTO.into(),
        token: TOKEN,
        client: format!("seat-{i}"),
    }
}

/// The session plane: the broker and the interest table it files
/// session subscriptions in.
struct Plane {
    broker: SessionBroker,
    interest: InterestTable<ConnId>,
}

impl Plane {
    fn frame(&mut self, now: u64, conn: ConnId, frame: SessionFrame) -> Vec<SessOut> {
        self.broker
            .handle_frame(now, conn, frame, &mut self.interest)
            .0
    }

    fn join(&mut self, now: u64, conn: ConnId, section: usize) {
        self.frame(now, conn, hello(conn.0));
        let subscribe = SessionFrame::Subscribe {
            sub: 1,
            filter: format!("stadium.s{section}.>"),
            pred: vec![],
        };
        self.frame(now, conn, subscribe);
    }

    /// One delivery, as `UdpBus` fans it out: the table matches and
    /// gates, each accepting session gets one copy from the broker.
    /// Returns the frames to send.
    fn deliver(
        &mut self,
        subject: &InternedSubject,
        payload: &[u8],
    ) -> Vec<(ConnId, SessionFrame)> {
        let mut conns = Vec::new();
        self.interest.deliver(
            subject,
            payload.len(),
            &mut None,
            || None,
            |&conn| {
                conns.push(conn);
                false
            },
        );
        conns.sort_unstable();
        conns.dedup();
        let text = subject.as_str();
        let broker = &mut self.broker;
        conns
            .into_iter()
            .filter_map(|c| Some((c, broker.deliver(c, text, payload, false)?)))
            .collect()
    }
}

fn main() {
    let n: usize = std::env::var("STADIUM_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let cfg = BusConfig::default()
        .with_session_timeout_us(3_000_000)
        .with_heartbeat_period_us(1_000_000)
        // Lag ceiling 2 → backlog cap 8: sixteen rounds give the slow
        // cohort 2 sent, 8 buffered, 6 dropped.
        .with_session_cursor_lag(2);
    let mut plane = Plane {
        broker: SessionBroker::new(&cfg, TOKEN),
        interest: InterestTable::new(None),
    };
    let subjects = SubjectTable::new();
    let mut now: u64 = 0;
    let wall = Instant::now();

    // Phase 1: join.
    let t = Instant::now();
    for i in 0..n {
        plane.join(now, ConnId(i as u64 + 1), i % SECTIONS);
    }
    let join_s = t.elapsed().as_secs_f64();
    assert_eq!(plane.broker.active(), n);

    // Phase 2: fan-out. Sessions ack every delivery except the slow
    // ones, which stop acking and ride the backpressure path.
    let t = Instant::now();
    let mut published = 0u64;
    for _ in 0..ROUNDS {
        for sec in 0..SECTIONS {
            let subject = subjects
                .intern(&format!("stadium.s{sec}.px"))
                .expect("static subject");
            published += 1;
            for (conn, frame) in plane.deliver(&subject, b"tick") {
                if let SessionFrame::Deliver { cursor, .. } = frame {
                    if conn.0 % SLOW_EVERY != 0 {
                        plane.frame(now, conn, SessionFrame::Ack { cursor });
                    }
                }
            }
        }
        now += 10_000;
    }
    let fanout_s = t.elapsed().as_secs_f64();

    // Phase 3: fan-in. A sample of sessions publish; the broker hands
    // each up as a SessOut::Publish, which the hosting daemon would put
    // on the bus — here it loops straight back into section fan-out.
    let t = Instant::now();
    for i in (0..n).step_by(PUB_EVERY) {
        let subject_text = format!("stadium.s{}.fan", i % SECTIONS);
        let outs = plane.frame(
            now,
            ConnId(i as u64 + 1),
            SessionFrame::Publish {
                subject: subject_text,
                qos: QoS::Reliable,
                payload: b"roar".to_vec(),
            },
        );
        for out in outs {
            if let SessOut::Publish { subject, .. } = out {
                let subject = subjects.intern(&subject).expect("session subject");
                published += 1;
                plane.deliver(&subject, b"roar");
            }
        }
    }
    let fanin_s = t.elapsed().as_secs_f64();

    // Phase 4: churn. Everyone but the silent cohort heartbeats, time
    // jumps past the session timeout, the freshness scan evicts the
    // silent, and the same number of new clients take their seats.
    let t = Instant::now();
    let survivors: Vec<ConnId> = (0..n as u64)
        .map(|i| ConnId(i + 1))
        .filter(|c| c.0 % SILENT_EVERY != 0)
        .collect();
    // Heartbeat the survivors just before the silent cohort's deadline,
    // then scan just after it: the silent are stale, the survivors fresh.
    now += cfg.session_timeout_us - 1_000;
    for &conn in &survivors {
        plane.frame(now, conn, SessionFrame::Heartbeat);
    }
    now += 2_000;
    let (evict_outs, _) = plane.broker.on_tick(now, &mut plane.interest);
    let evicted = evict_outs
        .iter()
        .filter(|o| matches!(o, SessOut::Closed { .. }))
        .count();
    let rejoined = n - survivors.len();
    for i in 0..rejoined {
        let conn = ConnId((n + i) as u64 + 1);
        plane.join(now, conn, i % SECTIONS);
    }
    let churn_s = t.elapsed().as_secs_f64();
    assert_eq!(plane.broker.active(), n, "churn must be conservative");
    assert_eq!(plane.interest.len(), n, "evictions must leave the table");

    let wall_s = wall.elapsed().as_secs_f64();
    let mut s = BusStats::default();
    plane.broker.stats_into(&mut s);
    let ratio = s.sess_delivered as f64 / published as f64;

    println!("stadium: one daemon's session plane, driven at memory speed");
    println!("{:-<62}", "");
    println!("{:>28} {:>14}", "sessions", n);
    println!("{:>28} {:>14}", "sections", SECTIONS);
    println!("{:>28} {:>14}", "publishes", published);
    println!("{:>28} {:>14}", "sess_opened", s.sess_opened);
    println!("{:>28} {:>14}", "sess_active", s.sess_active);
    println!("{:>28} {:>14}", "sess_delivered", s.sess_delivered);
    println!("{:>28} {:>14.1}", "fan-out ratio (deliv/pub)", ratio);
    println!("{:>28} {:>14}", "sess_published (fan-in)", s.sess_published);
    println!("{:>28} {:>14}", "sess_heartbeats", s.sess_heartbeats);
    println!("{:>28} {:>14}", "sess_evicted", s.sess_evicted);
    println!("{:>28} {:>14}", "rejoined", rejoined);
    println!("{:>28} {:>14}", "sess_paused (slow)", s.sess_paused);
    println!("{:>28} {:>14}", "sess_dropped (slow)", s.sess_dropped);
    println!("{:-<62}", "");
    println!("{:>28} {:>14.0}", "joins/sec", n as f64 / join_s.max(1e-9));
    println!(
        "{:>28} {:>14.0}",
        "deliveries/sec (fan-out)",
        s.sess_delivered as f64 / (fanout_s + fanin_s).max(1e-9)
    );
    println!(
        "{:>28} {:>14.0}",
        "heartbeats+scan/sec (churn)",
        (survivors.len() + n) as f64 / churn_s.max(1e-9)
    );
    println!("{:>28} {:>14.2}", "wall time (s)", wall_s);

    assert_eq!(evicted, rejoined, "every silent session must be evicted");
    assert_eq!(s.sess_evicted as usize, rejoined);
    assert!(s.sess_paused > 0, "slow consumers must hit backpressure");
    assert!(s.sess_dropped > 0, "slow consumers must overflow backlog");
}
