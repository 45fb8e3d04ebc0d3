//! End-to-end session lifecycle against a live session-serving
//! [`UdpBus`]: a thin client speaking raw `IBSS` datagrams from a plain
//! [`UdpSocket`] — no bus library on the client side at all, which is
//! the point of the edge tier.

use std::net::UdpSocket;
use std::time::Duration;

use infobus_core::{BusConfig, CompiledPredicate, Predicate, QoS};
use infobus_net::{
    decode_session_frame, encode_session_frame, SessionFrame, UdpBus, UdpConfig, SESSION_PROTO,
};
use infobus_types::{wire, TypeRegistry, Value};

const TOKEN: u64 = 0xCAFE;

fn fast() -> BusConfig {
    BusConfig::default()
        .with_batch_enabled(false)
        .with_nak_delay_us(2_000)
        .with_nak_check_us(1_000)
        .with_sync_period_us(10_000)
        .with_gd_retry_us(10_000)
}

/// A thin client: one UDP socket and the session frame codec.
struct Client {
    sock: UdpSocket,
}

impl Client {
    fn connect(daemon: std::net::SocketAddr) -> Client {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.connect(daemon).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        Client { sock }
    }

    fn send(&self, frame: &SessionFrame) {
        self.sock.send(&encode_session_frame(frame)).unwrap();
    }

    /// Receives one frame, waiting up to ~10s.
    fn recv(&self) -> SessionFrame {
        self.try_recv().expect("no frame within deadline")
    }

    fn try_recv(&self) -> Option<SessionFrame> {
        self.recv_within(50)
    }

    /// Receives one frame, giving up after `attempts` read timeouts
    /// (200 ms each).
    fn recv_within(&self, attempts: usize) -> Option<SessionFrame> {
        let mut buf = [0u8; 64 * 1024];
        for _ in 0..attempts {
            match self.sock.recv(&mut buf) {
                Ok(n) => return Some(decode_session_frame(&buf[..n]).unwrap()),
                Err(_) => continue,
            }
        }
        None
    }

    /// Drains every queued `Deliver` cursor, stopping after ~600 ms of
    /// silence. Panics on any other frame (an `Evict` here would mean
    /// the session died mid-test).
    fn drain_delivers(&self) -> Vec<u64> {
        let mut cursors = Vec::new();
        while let Some(frame) = self.recv_within(3) {
            match frame {
                SessionFrame::Deliver { cursor, .. } => cursors.push(cursor),
                other => panic!("unexpected frame while draining: {other:?}"),
            }
        }
        cursors
    }

    fn hello(&self) {
        self.send(&SessionFrame::Hello {
            proto: SESSION_PROTO.into(),
            token: TOKEN,
            client: "thin".into(),
        });
        match self.recv() {
            SessionFrame::Welcome { .. } => {}
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
}

#[test]
fn handshake_subscribe_deliver_ack_and_fan_in() {
    let edge = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_session_token(TOKEN)).unwrap();
    let client = Client::connect(edge.local_addr());
    client.hello();

    client.send(&SessionFrame::Subscribe {
        sub: 1,
        filter: "live.>".into(),
        pred: vec![],
    });
    std::thread::sleep(Duration::from_millis(50));

    // Daemon-side publish fans out to the session, cursor-stamped from 1.
    let n = edge
        .publish("live.tick", &Value::I64(7), QoS::Reliable)
        .unwrap();
    assert_eq!(n, 1, "the session is the only local match");
    match client.recv() {
        SessionFrame::Deliver {
            cursor,
            subject,
            redelivery,
            ..
        } => {
            assert_eq!((cursor, redelivery), (1, false));
            assert_eq!(subject, "live.tick");
        }
        other => panic!("expected Deliver, got {other:?}"),
    }
    client.send(&SessionFrame::Ack { cursor: 1 });

    edge.publish("live.tick", &Value::I64(8), QoS::Reliable)
        .unwrap();
    match client.recv() {
        SessionFrame::Deliver { cursor, .. } => assert_eq!(cursor, 2),
        other => panic!("expected Deliver, got {other:?}"),
    }
    client.send(&SessionFrame::Ack { cursor: 2 });

    // Fan-in: a session publish enters the bus like a local publish and
    // reaches API subscribers on the daemon.
    let (_sub, rx) = edge.subscribe("orders.>").unwrap();
    let payload = {
        let reg = TypeRegistry::with_fundamentals();
        wire::marshal_self_describing(&Value::str("buy"), &reg).unwrap()
    };
    client.send(&SessionFrame::Publish {
        subject: "orders.new".into(),
        qos: QoS::Reliable,
        payload,
    });
    let msg = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(msg.subject, "orders.new");
    assert_eq!(msg.value().unwrap(), Value::str("buy"));

    client.send(&SessionFrame::Bye);
    std::thread::sleep(Duration::from_millis(100));
    let stats = edge.stats();
    assert_eq!(stats.sess_opened, 1);
    assert_eq!(stats.sess_closed, 1);
    assert_eq!(stats.sess_active, 0);
    assert_eq!(stats.sess_published, 1);
    assert_eq!(stats.sess_delivered, 2);
}

#[test]
fn capability_gate_rejects_and_unknown_sessions_get_evict() {
    let edge = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_session_token(TOKEN)).unwrap();

    // Wrong token → Reject.
    let bad = Client::connect(edge.local_addr());
    bad.send(&SessionFrame::Hello {
        proto: SESSION_PROTO.into(),
        token: TOKEN + 1,
        client: "mallory".into(),
    });
    match bad.recv() {
        SessionFrame::Reject { reason } => assert!(reason.contains("token"), "{reason}"),
        other => panic!("expected Reject, got {other:?}"),
    }

    // Frames without a handshake → Evict notice, so a restarted client
    // knows to re-hello.
    let lost = Client::connect(edge.local_addr());
    lost.send(&SessionFrame::Heartbeat);
    match lost.recv() {
        SessionFrame::Evict { reason } => assert!(reason.contains("unknown"), "{reason}"),
        other => panic!("expected Evict, got {other:?}"),
    }

    let stats = edge.stats();
    assert_eq!(stats.sess_rejected, 1);
    assert_eq!(stats.sess_active, 0);
}

#[test]
fn missed_heartbeats_evict_the_session() {
    let edge = UdpBus::bind(
        UdpConfig::new(1)
            .with_bus(
                fast()
                    .with_session_timeout_us(300_000)
                    .with_heartbeat_period_us(100_000),
            )
            .with_session_token(TOKEN),
    )
    .unwrap();
    let client = Client::connect(edge.local_addr());
    client.hello();
    assert_eq!(edge.stats().sess_active, 1);

    // Go silent: past the timeout, the freshness scan evicts and says so.
    match client.recv() {
        SessionFrame::Evict { reason } => assert!(reason.contains("heartbeat"), "{reason}"),
        other => panic!("expected Evict, got {other:?}"),
    }
    let stats = edge.stats();
    assert_eq!(stats.sess_evicted, 1);
    assert_eq!(stats.sess_active, 0);

    // A heartbeating client stays: reopen and keep the session fresh.
    let keeper = Client::connect(edge.local_addr());
    keeper.hello();
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(100));
        keeper.send(&SessionFrame::Heartbeat);
    }
    let stats = edge.stats();
    assert_eq!(stats.sess_evicted, 1, "fresh session must not be evicted");
    assert_eq!(stats.sess_active, 1);
    assert!(stats.sess_heartbeats >= 5);
}

#[test]
fn backpressure_pauses_then_drops_with_stats() {
    let edge = UdpBus::bind(
        UdpConfig::new(1)
            // A long session timeout: this client is deliberately
            // silent between bursts and must not be evicted mid-test.
            .with_bus(
                fast()
                    .with_session_cursor_lag(4)
                    .with_session_timeout_us(60_000_000),
            )
            .with_session_token(TOKEN),
    )
    .unwrap();
    let client = Client::connect(edge.local_addr());
    client.hello();
    client.send(&SessionFrame::Subscribe {
        sub: 1,
        filter: "burst.>".into(),
        pred: vec![],
    });
    std::thread::sleep(Duration::from_millis(50));

    // 40 publications into a never-acking session with lag ceiling 4 and
    // backlog cap 16: exactly 4 sent, 16 buffered, 20 dropped.
    for i in 0..40i64 {
        edge.publish("burst.k", &Value::I64(i), QoS::Reliable)
            .unwrap();
    }
    let got = client.drain_delivers();
    assert_eq!(got, vec![1, 2, 3, 4], "lag ceiling must pause the stream");
    let stats = edge.stats();
    assert_eq!(stats.sess_paused, 1);
    assert_eq!(stats.sess_dropped, 20);

    // Acking reopens the window: the backlog flushes gaplessly (the
    // drops above never consumed cursors).
    client.send(&SessionFrame::Ack { cursor: 4 });
    assert_eq!(client.drain_delivers(), vec![5, 6, 7, 8]);
}

#[test]
fn session_interest_draws_cross_daemon_traffic() {
    // The session's filter is announced to peers like any API
    // subscription: a publish on a *remote* daemon reaches the thin
    // client through the edge daemon.
    let remote = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_app("remote")).unwrap();
    let edge = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(fast())
            .with_app("edge")
            .with_session_token(TOKEN),
    )
    .unwrap();
    remote.add_peer(2, edge.local_addr()).unwrap();
    edge.add_peer(1, remote.local_addr()).unwrap();

    let client = Client::connect(edge.local_addr());
    client.hello();
    client.send(&SessionFrame::Subscribe {
        sub: 1,
        filter: "wan.>".into(),
        pred: vec![],
    });
    std::thread::sleep(Duration::from_millis(100));

    remote
        .publish("wan.quote", &Value::I64(99), QoS::Reliable)
        .unwrap();
    match client.recv() {
        SessionFrame::Deliver {
            cursor, subject, ..
        } => {
            assert_eq!(cursor, 1);
            assert_eq!(subject, "wan.quote");
        }
        other => panic!("expected Deliver, got {other:?}"),
    }
}

#[test]
fn lost_announcement_heals_through_the_periodic_refresh() {
    // Reserve an address for the publisher, then free it: the edge's
    // only announcement of the session's filter goes to a peer that is
    // not bound yet and is lost.
    let pub_addr = UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let period_us = 100_000u64;
    let edge = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(fast().with_announce_period_us(period_us))
            .with_peer(1, pub_addr)
            .with_session_token(TOKEN),
    )
    .unwrap();
    let client = Client::connect(edge.local_addr());
    client.hello();
    client.send(&SessionFrame::Subscribe {
        sub: 1,
        filter: "gd.>".into(),
        pred: vec![],
    });
    std::thread::sleep(Duration::from_millis(50));

    // The publisher binds afterwards and knows no peers: it can learn
    // of the session's interest only from the edge's periodic refresh.
    let publisher = UdpBus::bind(
        UdpConfig::new(1)
            .with_bus(fast().with_announce_period_us(period_us))
            .with_bind(pub_addr),
    )
    .unwrap();
    publisher
        .publish("gd.order", &Value::I64(1), QoS::Guaranteed)
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_micros(10 * period_us);
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        assert!(
            !left.is_zero(),
            "guaranteed publication never reached the session"
        );
        if let Some(SessionFrame::Deliver { subject, .. }) = client.recv_within(1) {
            assert_eq!(subject, "gd.order");
            break;
        }
    }
}

#[test]
fn overlapping_session_filters_deliver_once() {
    let edge = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_session_token(TOKEN)).unwrap();
    let client = Client::connect(edge.local_addr());
    client.hello();
    for (sub, filter) in [(1, "m.>"), (2, "m.x")] {
        client.send(&SessionFrame::Subscribe {
            sub,
            filter: filter.into(),
            pred: vec![],
        });
    }
    std::thread::sleep(Duration::from_millis(50));

    for i in 0..3i64 {
        let n = edge.publish("m.x", &Value::I64(i), QoS::Reliable).unwrap();
        assert_eq!(n, 1, "one session, one copy");
    }
    edge.publish("m.y", &Value::I64(3), QoS::Reliable).unwrap();
    assert_eq!(client.drain_delivers(), vec![1, 2, 3, 4]);
    assert_eq!(edge.stats().sess_delivered, 4);
}

/// The value a session `Deliver` carries.
fn delivered_value(frame: SessionFrame) -> Value {
    match frame {
        SessionFrame::Deliver { payload, .. } => {
            wire::unmarshal(&payload, &mut TypeRegistry::with_fundamentals()).unwrap()
        }
        other => panic!("expected Deliver, got {other:?}"),
    }
}

#[test]
fn session_predicates_gate_at_the_daemon_and_travel_in_the_announcement() {
    let remote = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_app("remote")).unwrap();
    let edge = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(fast())
            .with_app("edge")
            .with_session_token(TOKEN),
    )
    .unwrap();
    remote.add_peer(2, edge.local_addr()).unwrap();
    edge.add_peer(1, remote.local_addr()).unwrap();

    let client = Client::connect(edge.local_addr());
    client.hello();
    let pred = CompiledPredicate::compile(&Predicate::ge("", Value::I64(10))).unwrap();
    client.send(&SessionFrame::Subscribe {
        sub: 1,
        filter: "p.>".into(),
        pred: pred.to_bytes(),
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !remote.peer_filters().contains(&"p.>".to_owned()) {
        assert!(std::time::Instant::now() < deadline, "never announced");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The session's predicate is the only interest in `p.>`, so the
    // publishing daemon suppresses what it rejects before sending.
    let n = remote
        .publish("p.x", &Value::I64(5), QoS::Reliable)
        .unwrap();
    assert_eq!(n, 0);
    assert_eq!(remote.stats().filt_pub_suppressed, 1);
    remote
        .publish("p.x", &Value::I64(20), QoS::Reliable)
        .unwrap();
    assert_eq!(delivered_value(client.recv()), Value::I64(20));

    // An unfiltered API subscriber on the edge defeats the publish gate;
    // the delivery gate then keeps the rejected value from the session.
    let (_sub, rx) = edge.subscribe("p.>").unwrap();
    edge.publish("p.x", &Value::I64(6), QoS::Reliable).unwrap();
    edge.publish("p.x", &Value::I64(30), QoS::Reliable).unwrap();
    assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(6));
    assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(30));
    assert_eq!(delivered_value(client.recv()), Value::I64(30));
    let stats = edge.stats();
    assert_eq!(stats.filt_delivery_suppressed, 1);
    assert_eq!(stats.sess_delivered, 2);
}
