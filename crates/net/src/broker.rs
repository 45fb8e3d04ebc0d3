//! The session broker: a sans-I/O state machine over thin-client
//! sessions.
//!
//! Like the protocol [`engine`](infobus_core::engine), the broker never
//! touches a socket or a clock: every entry point takes `now` and an
//! input, and returns a list of [`SessOut`] actions for the driver to
//! perform. That keeps the session rules — capability-gated hello,
//! cursor-stamped fan-out, cumulative acks, heartbeat eviction, bounded
//! backpressure — testable at memory speed and shared between
//! [`UdpBus`](crate::UdpBus) and the stadium bench.
//!
//! A session is identified by an opaque [`ConnId`] the *driver* assigns
//! (`UdpBus` keys it off the client's socket address; a bench keys it
//! off a loop index). The broker never sees addresses.
//!
//! **Interest.** Session subscriptions live in the hosting daemon's
//! [`InterestTable`], one entry per subscription, targeting the
//! session's [`ConnId`] and carrying its predicate. So one memoized
//! match serves API subscribers and sessions alike, the table's delivery
//! gate evaluates session predicates, and its announce deltas tell peers
//! what sessions want. The broker keeps only each session's map from
//! client subscription id to table entry. The driver matches a delivery
//! in the table and hands each accepted session, once, to
//! [`SessionBroker::deliver`].
//!
//! **Backpressure.** Each session has a delivery cursor; the client acks
//! cumulatively. When `cursor_next - 1 - cursor_acked` reaches the
//! configured lag ceiling the session *pauses*: further matches are
//! buffered, not sent (`sess_paused` counts transitions). The buffer is
//! itself bounded at 4× the lag ceiling; beyond that the oldest buffered
//! delivery is dropped and counted in `sess_dropped`. A slow consumer
//! costs itself, never the bus — queue growth is capped per session, as
//! the paper's daemon caps per-subscriber queues.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use infobus_core::engine::{BusStats, Micros};
use infobus_core::{BusConfig, CompiledPredicate, InterestTable, QoS};
use infobus_subject::{SubjectFilter, SubscriptionId};

use crate::session::{SessionFrame, SESSION_PROTO};

/// An interest-table announce delta: the filters to re-announce and
/// those to withdraw (see [`InterestTable::unsubscribe`]).
type Delta = (Vec<String>, Vec<String>);

/// Opaque session/connection key, assigned by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// One action the driver must perform for the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessOut {
    /// Send `frame` to the session's transport endpoint.
    Send {
        /// Which session to send to.
        conn: ConnId,
        /// The frame to encode onto its connection.
        frame: SessionFrame,
    },
    /// Publish fan-in traffic onto the bus proper (the payload is
    /// already-marshalled self-describing bytes), as the hosting
    /// daemon's own publication.
    Publish {
        /// Subject to publish under.
        subject: String,
        /// Requested delivery quality of service.
        qos: QoS,
        /// Marshalled self-describing payload.
        payload: Vec<u8>,
    },
    /// The session is gone (bye, eviction, rejected hello), or never
    /// existed (a frame without one); the driver should forget its
    /// transport mapping.
    Closed {
        /// The session that ended.
        conn: ConnId,
    },
}

struct Session {
    id: u64,
    last_heard: Micros,
    /// Next delivery cursor to stamp (cursors start at 1).
    cursor_next: u64,
    /// Highest cumulative ack from the client.
    cursor_acked: u64,
    paused: bool,
    /// Deliveries withheld while paused, oldest first. Bounded at
    /// 4 × `cursor_lag`; overflow drops the oldest (counted).
    backlog: VecDeque<SessionFrame>,
    /// Client subscription id → its interest-table entry.
    subs: HashMap<u64, SubscriptionId>,
}

/// The sans-I/O session broker. See the [module docs](self).
pub struct SessionBroker {
    token: u64,
    session_timeout_us: Micros,
    heartbeat_period_us: Micros,
    cursor_lag: u64,
    sessions: HashMap<ConnId, Session>,
    next_session_id: u64,
    opened: u64,
    rejected: u64,
    closed: u64,
    evicted: u64,
    heartbeats: u64,
    published: u64,
    delivered: u64,
    paused: u64,
    dropped: u64,
}

impl SessionBroker {
    /// Builds a broker from the session knobs of `cfg`, gating hellos on
    /// `token`.
    pub fn new(cfg: &BusConfig, token: u64) -> SessionBroker {
        SessionBroker {
            token,
            session_timeout_us: cfg.session_timeout_us,
            heartbeat_period_us: cfg.heartbeat_period_us,
            cursor_lag: cfg.session_cursor_lag.max(1),
            sessions: HashMap::new(),
            next_session_id: 1,
            opened: 0,
            rejected: 0,
            closed: 0,
            evicted: 0,
            heartbeats: 0,
            delivered: 0,
            published: 0,
            paused: 0,
            dropped: 0,
        }
    }

    /// Number of open sessions.
    pub fn active(&self) -> usize {
        self.sessions.len()
    }

    /// The heartbeat period advertised in welcomes — the driver should
    /// call [`SessionBroker::on_tick`] at least this often.
    pub fn scan_period_us(&self) -> Micros {
        self.heartbeat_period_us
    }

    /// Handles one inbound frame from `conn`. Session subscriptions are
    /// filed in `interest`, the hosting daemon's interest table, as
    /// entries targeting `T::from(conn)`. Returns the actions and the
    /// table's announce delta, for the driver to send.
    pub fn handle_frame<T: Clone + From<ConnId>>(
        &mut self,
        now: Micros,
        conn: ConnId,
        frame: SessionFrame,
        interest: &mut InterestTable<T>,
    ) -> (Vec<SessOut>, Delta) {
        let mut out = Vec::new();
        let mut delta = Delta::default();
        if let Some(sess) = self.sessions.get_mut(&conn) {
            sess.last_heard = now;
        } else if !matches!(frame, SessionFrame::Hello { .. }) {
            // No session: anything but a hello earns an eviction notice
            // so a restarted client learns to re-handshake, and the
            // driver forgets the sender again.
            out.push(SessOut::Send {
                conn,
                frame: SessionFrame::Evict {
                    reason: "unknown session".into(),
                },
            });
            out.push(SessOut::Closed { conn });
            return (out, delta);
        }
        match frame {
            SessionFrame::Hello { proto, token, .. } => {
                if proto != SESSION_PROTO || token != self.token {
                    self.rejected += 1;
                    let reason = if proto != SESSION_PROTO {
                        format!("unsupported protocol {proto:?}")
                    } else {
                        "bad capability token".to_owned()
                    };
                    out.push(SessOut::Send {
                        conn,
                        frame: SessionFrame::Reject { reason },
                    });
                    out.push(SessOut::Closed { conn });
                    return (out, delta);
                }
                let id = match self.sessions.get(&conn) {
                    // Duplicate hello (client retry): re-welcome, same
                    // session.
                    Some(sess) => sess.id,
                    None => {
                        let id = self.next_session_id;
                        self.next_session_id += 1;
                        self.opened += 1;
                        self.sessions.insert(
                            conn,
                            Session {
                                id,
                                last_heard: now,
                                cursor_next: 1,
                                cursor_acked: 0,
                                paused: false,
                                backlog: VecDeque::new(),
                                subs: HashMap::new(),
                            },
                        );
                        id
                    }
                };
                out.push(SessOut::Send {
                    conn,
                    frame: SessionFrame::Welcome {
                        session: id,
                        heartbeat_period_us: self.heartbeat_period_us,
                        session_timeout_us: self.session_timeout_us,
                        cursor_lag: self.cursor_lag,
                    },
                });
            }
            SessionFrame::Subscribe { sub, filter, pred } => match SubjectFilter::new(&filter) {
                Ok(f) => {
                    // Malformed predicate bytes degrade to unfiltered —
                    // over-delivery, never a lost message.
                    let pred = if pred.is_empty() {
                        None
                    } else {
                        CompiledPredicate::from_bytes(&pred).ok().map(Arc::new)
                    };
                    let (id, added) = interest.insert(&f, T::from(conn), now, pred);
                    merge(&mut delta, added);
                    let sess = self.sessions.get_mut(&conn).expect("checked above");
                    // Client reused a sub id: the old subscription is
                    // replaced.
                    if let Some(old) = sess.subs.insert(sub, id) {
                        merge(&mut delta, interest.unsubscribe(old));
                    }
                }
                Err(e) => out.push(SessOut::Send {
                    conn,
                    frame: SessionFrame::Reject {
                        reason: format!("bad filter {filter:?}: {e}"),
                    },
                }),
            },
            SessionFrame::Unsubscribe { sub } => {
                let sess = self.sessions.get_mut(&conn).expect("checked above");
                if let Some(id) = sess.subs.remove(&sub) {
                    merge(&mut delta, interest.unsubscribe(id));
                }
            }
            SessionFrame::Publish {
                subject,
                qos,
                payload,
            } => {
                self.published += 1;
                out.push(SessOut::Publish {
                    subject,
                    qos,
                    payload,
                });
            }
            SessionFrame::Ack { cursor } => {
                let lag_cap = self.cursor_lag;
                let sess = self.sessions.get_mut(&conn).expect("checked above");
                sess.cursor_acked = sess.cursor_acked.max(cursor);
                // Resume: flush backlog while the lag window has room.
                while sess.paused {
                    let lag = (sess.cursor_next - 1).saturating_sub(sess.cursor_acked);
                    if lag >= lag_cap {
                        break;
                    }
                    match sess.backlog.pop_front() {
                        Some(frame) => {
                            let frame = sess.stamp(frame);
                            out.push(SessOut::Send { conn, frame });
                        }
                        None => sess.paused = false,
                    }
                }
            }
            SessionFrame::Heartbeat => self.heartbeats += 1,
            SessionFrame::Bye => {
                self.closed += 1;
                self.close_session(conn, interest, &mut out, &mut delta);
            }
            // Daemon-originated frames arriving inbound are client bugs;
            // drop them (the session stays fresh — any frame is life).
            SessionFrame::Welcome { .. }
            | SessionFrame::Reject { .. }
            | SessionFrame::Deliver { .. }
            | SessionFrame::Evict { .. } => {}
        }
        (out, delta)
    }

    /// Delivers one publication to `conn`, a session whose subscription
    /// the interest table matched and accepted. The driver calls this
    /// once per session, however many of its subscriptions matched.
    /// Returns the cursor-stamped frame to send now, or `None` when the
    /// session is gone or paused (the delivery is buffered, bounded,
    /// drop-oldest).
    pub fn deliver(
        &mut self,
        conn: ConnId,
        subject: &str,
        payload: &[u8],
        redelivery: bool,
    ) -> Option<SessionFrame> {
        let lag_cap = self.cursor_lag;
        let sess = self.sessions.get_mut(&conn)?;
        self.delivered += 1;
        // Cursor assigned on send, so the stream stays gapless after
        // drops.
        let frame = SessionFrame::Deliver {
            cursor: 0,
            subject: subject.to_owned(),
            redelivery,
            payload: payload.to_vec(),
        };
        if sess.paused {
            if sess.backlog.len() >= (lag_cap as usize) * 4 {
                sess.backlog.pop_front();
                self.dropped += 1;
            }
            sess.backlog.push_back(frame);
            return None;
        }
        let frame = sess.stamp(frame);
        let lag = (sess.cursor_next - 1).saturating_sub(sess.cursor_acked);
        if lag >= lag_cap {
            sess.paused = true;
            self.paused += 1;
        }
        Some(frame)
    }

    /// Freshness scan: evicts every session silent for longer than the
    /// session timeout. Call at least every
    /// [`scan_period_us`](SessionBroker::scan_period_us). The evicted
    /// sessions' subscriptions leave `interest`; the table's announce
    /// delta is returned alongside the actions.
    pub fn on_tick<T: Clone>(
        &mut self,
        now: Micros,
        interest: &mut InterestTable<T>,
    ) -> (Vec<SessOut>, Delta) {
        let mut out = Vec::new();
        let mut delta = Delta::default();
        let stale: Vec<ConnId> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.last_heard) > self.session_timeout_us)
            .map(|(&c, _)| c)
            .collect();
        for conn in stale {
            self.evicted += 1;
            out.push(SessOut::Send {
                conn,
                frame: SessionFrame::Evict {
                    reason: "heartbeat timeout".into(),
                },
            });
            self.close_session(conn, interest, &mut out, &mut delta);
        }
        (out, delta)
    }

    /// Writes the session counters into `stats` (the `sess_*` family).
    pub fn stats_into(&self, stats: &mut BusStats) {
        stats.sess_active = self.sessions.len() as u64;
        stats.sess_opened = self.opened;
        stats.sess_rejected = self.rejected;
        stats.sess_closed = self.closed;
        stats.sess_evicted = self.evicted;
        stats.sess_heartbeats = self.heartbeats;
        stats.sess_published = self.published;
        stats.sess_delivered = self.delivered;
        stats.sess_paused = self.paused;
        stats.sess_dropped = self.dropped;
    }

    fn close_session<T: Clone>(
        &mut self,
        conn: ConnId,
        interest: &mut InterestTable<T>,
        out: &mut Vec<SessOut>,
        delta: &mut Delta,
    ) {
        let Some(sess) = self.sessions.remove(&conn) else {
            return;
        };
        for (_, id) in sess.subs {
            merge(delta, interest.unsubscribe(id));
        }
        out.push(SessOut::Closed { conn });
    }
}

impl Session {
    /// Stamps a deliver frame with the next cursor.
    fn stamp(&mut self, mut frame: SessionFrame) -> SessionFrame {
        if let SessionFrame::Deliver { cursor, .. } = &mut frame {
            *cursor = self.cursor_next;
        }
        self.cursor_next += 1;
        frame
    }
}

fn merge(into: &mut Delta, (add, remove): Delta) {
    into.0.extend(add);
    into.1.extend(remove);
}

#[cfg(test)]
mod tests {
    use super::*;
    use infobus_core::Predicate;
    use infobus_subject::SubjectTable;
    use infobus_types::Value;

    fn cfg() -> BusConfig {
        BusConfig::default()
            .with_session_timeout_us(3_000)
            .with_heartbeat_period_us(1_000)
            .with_session_cursor_lag(4)
    }

    fn hello(token: u64) -> SessionFrame {
        SessionFrame::Hello {
            proto: SESSION_PROTO.into(),
            token,
            client: "t".into(),
        }
    }

    fn subscribe(sub: u64, filter: &str) -> SessionFrame {
        SessionFrame::Subscribe {
            sub,
            filter: filter.into(),
            pred: vec![],
        }
    }

    /// A broker and the interest table it files subscriptions in: the
    /// composition a session-serving `UdpBus` runs.
    struct Plane {
        broker: SessionBroker,
        interest: InterestTable<ConnId>,
        subjects: SubjectTable,
    }

    impl Plane {
        fn new() -> Plane {
            Plane {
                broker: SessionBroker::new(&cfg(), 9),
                interest: InterestTable::new(None),
                subjects: SubjectTable::new(),
            }
        }

        fn frame(
            &mut self,
            now: Micros,
            conn: ConnId,
            frame: SessionFrame,
        ) -> (Vec<SessOut>, Delta) {
            self.broker
                .handle_frame(now, conn, frame, &mut self.interest)
        }

        fn open(&mut self, conn: ConnId, now: Micros) {
            let out = self.frame(now, conn, hello(9)).0;
            assert!(matches!(
                out[0],
                SessOut::Send {
                    frame: SessionFrame::Welcome { .. },
                    ..
                }
            ));
        }

        /// Matches `subject` in the table and hands each accepting
        /// subscription's session the delivery (every session here has
        /// one subscription per subject). Returns the frames sent.
        fn publish(&mut self, subject: &str, value: Value) -> Vec<(ConnId, SessionFrame)> {
            let subject = self.subjects.intern(subject).unwrap();
            let mut conns = Vec::new();
            self.interest.deliver(
                &subject,
                1,
                &mut None,
                || Some(value.clone()),
                |&c| {
                    conns.push(c);
                    false
                },
            );
            let broker = &mut self.broker;
            conns
                .into_iter()
                .filter_map(|c| Some((c, broker.deliver(c, subject.as_str(), b"p", false)?)))
                .collect()
        }

        fn stats(&self) -> BusStats {
            let mut s = BusStats::default();
            self.broker.stats_into(&mut s);
            self.interest.fold_into(&mut s);
            s
        }
    }

    fn cursor(frame: &SessionFrame) -> u64 {
        match frame {
            SessionFrame::Deliver { cursor, .. } => *cursor,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn capability_gate() {
        let mut p = Plane::new();
        let out = p.frame(0, ConnId(1), hello(8)).0;
        assert!(matches!(
            out[0],
            SessOut::Send {
                frame: SessionFrame::Reject { .. },
                ..
            }
        ));
        assert!(matches!(out[1], SessOut::Closed { .. }));
        assert_eq!(p.broker.active(), 0);
        assert_eq!(p.stats().sess_rejected, 1);
    }

    #[test]
    fn deliveries_are_cursor_stamped_per_session() {
        let mut p = Plane::new();
        p.open(ConnId(1), 0);
        let (out, delta) = p.frame(0, ConnId(1), subscribe(1, "m.>"));
        assert!(out.is_empty());
        assert_eq!(delta, (vec!["m.>".to_owned()], vec![]));
        for want in 1..=3u64 {
            let sent = p.publish("m.x", Value::Nil);
            assert_eq!(sent.len(), 1);
            assert_eq!(cursor(&sent[0].1), want);
            // Keep the window open.
            p.frame(0, ConnId(1), SessionFrame::Ack { cursor: want });
        }
    }

    #[test]
    fn session_predicates_gate_in_the_table() {
        let mut p = Plane::new();
        p.open(ConnId(1), 0);
        let pred = CompiledPredicate::compile(&Predicate::ge("", Value::I64(10))).unwrap();
        let (_, delta) = p.frame(
            0,
            ConnId(1),
            SessionFrame::Subscribe {
                sub: 1,
                filter: "q.>".into(),
                pred: pred.to_bytes(),
            },
        );
        // The session's predicate is what the table announces.
        assert_eq!(delta.0, vec!["q.>".to_owned()]);
        let entry = p.interest.announce_entry("q.>").unwrap();
        assert_eq!(entry.pred, pred.to_bytes());
        assert!(p.publish("q.x", Value::I64(3)).is_empty());
        assert_eq!(p.publish("q.x", Value::I64(30)).len(), 1);
        let s = p.stats();
        assert_eq!((s.filt_delivery_suppressed, s.sess_delivered), (1, 1));
    }

    #[test]
    fn backpressure_pauses_then_drops_oldest() {
        let mut p = Plane::new(); // lag 4, backlog cap 16
        p.open(ConnId(1), 0);
        p.frame(0, ConnId(1), subscribe(1, "m.x"));
        let mut sent = 0;
        for _ in 0..40 {
            sent += p.publish("m.x", Value::Nil).len();
        }
        // Lag ceiling 4: exactly 4 sent, the rest buffered/dropped.
        assert_eq!(sent, 4);
        let s = p.stats();
        assert_eq!(s.sess_paused, 1);
        // 36 buffered candidates into a 16-slot backlog → 20 dropped.
        assert_eq!(s.sess_dropped, 20);
        // Ack everything sent: backlog flushes 4 more (window size).
        let out = p.frame(0, ConnId(1), SessionFrame::Ack { cursor: 4 }).0;
        let cursors: Vec<u64> = out
            .iter()
            .map(|o| match o {
                SessOut::Send { frame, .. } => cursor(frame),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(cursors, vec![5, 6, 7, 8]);
    }

    #[test]
    fn heartbeat_timeout_evicts() {
        let mut p = Plane::new();
        p.open(ConnId(1), 0);
        p.open(ConnId(2), 0);
        p.frame(0, ConnId(1), subscribe(1, "m.>"));
        // Session 2 stays fresh; session 1 goes silent.
        p.frame(2_500, ConnId(2), SessionFrame::Heartbeat);
        let (out, delta) = p.broker.on_tick(3_500, &mut p.interest);
        assert!(matches!(
            out[0],
            SessOut::Send {
                conn: ConnId(1),
                frame: SessionFrame::Evict { .. },
            }
        ));
        assert!(matches!(out[1], SessOut::Closed { conn: ConnId(1) }));
        assert_eq!(delta, (vec![], vec!["m.>".to_owned()]));
        assert_eq!(p.broker.active(), 1);
        let s = p.stats();
        assert_eq!((s.sess_evicted, s.sess_active), (1, 1));
    }

    #[test]
    fn bye_releases_filters() {
        let mut p = Plane::new();
        p.open(ConnId(1), 0);
        p.open(ConnId(2), 0);
        p.frame(0, ConnId(1), subscribe(1, "m.>"));
        // A second holder of the filter changes no announcement.
        let (_, delta) = p.frame(0, ConnId(2), subscribe(1, "m.>"));
        assert_eq!(delta, (vec![], vec![]));
        let (out, delta) = p.frame(1, ConnId(1), SessionFrame::Bye);
        assert_eq!(delta, (vec![], vec![]));
        assert!(out.contains(&SessOut::Closed { conn: ConnId(1) }));
        // The last holder leaving withdraws it.
        let (_, delta) = p.frame(1, ConnId(2), SessionFrame::Bye);
        assert_eq!(delta, (vec![], vec!["m.>".to_owned()]));
        assert!(p.interest.is_empty());
    }

    #[test]
    fn reused_sub_id_replaces_the_subscription() {
        let mut p = Plane::new();
        p.open(ConnId(1), 0);
        p.frame(0, ConnId(1), subscribe(1, "a.>"));
        let (_, delta) = p.frame(0, ConnId(1), subscribe(1, "b.>"));
        assert_eq!(delta, (vec!["b.>".to_owned()], vec!["a.>".to_owned()]));
        assert_eq!(p.interest.len(), 1);
        let (_, delta) = p.frame(0, ConnId(1), SessionFrame::Unsubscribe { sub: 1 });
        assert_eq!(delta, (vec![], vec!["b.>".to_owned()]));
    }

    #[test]
    fn frames_without_session_get_evict_notice() {
        let mut p = Plane::new();
        let out = p.frame(0, ConnId(5), SessionFrame::Heartbeat).0;
        assert!(matches!(
            out[0],
            SessOut::Send {
                frame: SessionFrame::Evict { .. },
                ..
            }
        ));
        // The driver is told to forget the sender.
        assert_eq!(out[1], SessOut::Closed { conn: ConnId(5) });
    }
}
