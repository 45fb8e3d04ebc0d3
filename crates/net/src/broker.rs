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
//! **Backpressure.** Each session has a delivery cursor; the client acks
//! cumulatively. When `cursor_next - 1 - cursor_acked` reaches the
//! configured lag ceiling the session *pauses*: further matches are
//! buffered, not sent (`sess_paused` counts transitions). The buffer is
//! itself bounded at 4× the lag ceiling; beyond that the oldest buffered
//! delivery is dropped and counted in `sess_dropped`. A slow consumer
//! costs itself, never the bus — queue growth is capped per session, as
//! the paper's daemon caps per-subscriber queues.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use infobus_core::engine::{BusStats, Micros};
use infobus_core::{BusConfig, CompiledPredicate, QoS};
use infobus_subject::{Subject, SubjectFilter, SubjectTrie, SubscriptionId};
use infobus_types::Value;

use crate::session::{SessionFrame, SESSION_PROTO};

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
    /// The aggregate session interest gained its first instance of
    /// `filter` — the hosting daemon should announce it to peers.
    FilterAdded(String),
    /// The last session subscription on `filter` went away — the
    /// hosting daemon should announce the removal.
    FilterRemoved(String),
    /// The session is gone (bye, eviction, or rejected hello); the
    /// driver should forget its transport mapping.
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
    /// Client subscription id → trie id.
    subs: HashMap<u64, SubscriptionId>,
}

/// The sans-I/O session broker. See the [module docs](self).
pub struct SessionBroker {
    token: u64,
    session_timeout_us: Micros,
    heartbeat_period_us: Micros,
    cursor_lag: u64,
    sessions: HashMap<ConnId, Session>,
    /// Matches subjects to sessions.
    trie: SubjectTrie<ConnId>,
    /// Aggregate filter refcounts, for `FilterAdded`/`FilterRemoved`.
    filter_refs: HashMap<String, usize>,
    /// Trie id → canonical filter text (drives the refcounts above).
    sub_texts: HashMap<SubscriptionId, String>,
    /// Trie id → content predicate, for predicated session subs only.
    sub_preds: HashMap<SubscriptionId, Arc<CompiledPredicate>>,
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
    filt_evals: u64,
    filt_suppressed: u64,
    filt_suppressed_bytes: u64,
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
            trie: SubjectTrie::new(),
            filter_refs: HashMap::new(),
            sub_texts: HashMap::new(),
            sub_preds: HashMap::new(),
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
            filt_evals: 0,
            filt_suppressed: 0,
            filt_suppressed_bytes: 0,
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

    /// Handles one inbound frame from `conn`.
    pub fn handle_frame(&mut self, now: Micros, conn: ConnId, frame: SessionFrame) -> Vec<SessOut> {
        let mut out = Vec::new();
        if let Some(sess) = self.sessions.get_mut(&conn) {
            sess.last_heard = now;
        } else if !matches!(frame, SessionFrame::Hello { .. }) {
            // No session: anything but a hello earns an eviction notice
            // so a restarted client learns to re-handshake.
            out.push(SessOut::Send {
                conn,
                frame: SessionFrame::Evict {
                    reason: "unknown session".into(),
                },
            });
            return out;
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
                    return out;
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
                    let text = f.as_str().to_owned();
                    let trie_id = self.trie.insert(&f, conn);
                    self.sub_texts.insert(trie_id, text.clone());
                    // Malformed predicate bytes degrade to unfiltered —
                    // over-delivery, never a lost message.
                    if !pred.is_empty() {
                        if let Ok(p) = CompiledPredicate::from_bytes(&pred) {
                            self.sub_preds.insert(trie_id, Arc::new(p));
                        }
                    }
                    let refs = self.filter_refs.entry(text.clone()).or_insert(0);
                    *refs += 1;
                    if *refs == 1 {
                        out.push(SessOut::FilterAdded(text));
                    }
                    let replaced = {
                        let sess = self.sessions.get_mut(&conn).expect("checked above");
                        sess.subs.insert(sub, trie_id)
                    };
                    // Client reused a sub id: the old subscription is
                    // replaced.
                    if let Some(old) = replaced {
                        self.drop_trie_sub(old, &mut out);
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
                if let Some(trie_id) = sess.subs.remove(&sub) {
                    self.drop_trie_sub(trie_id, &mut out);
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
                        Some(mut frame) => {
                            if let SessionFrame::Deliver { cursor, .. } = &mut frame {
                                *cursor = sess.cursor_next;
                            }
                            sess.cursor_next += 1;
                            out.push(SessOut::Send { conn, frame });
                        }
                        None => sess.paused = false,
                    }
                }
            }
            SessionFrame::Heartbeat => self.heartbeats += 1,
            SessionFrame::Bye => {
                self.closed += 1;
                self.close_session(conn, &mut out);
            }
            // Daemon-originated frames arriving inbound are client bugs;
            // drop them (the session stays fresh — any frame is life).
            SessionFrame::Welcome { .. }
            | SessionFrame::Reject { .. }
            | SessionFrame::Deliver { .. }
            | SessionFrame::Evict { .. } => {}
        }
        out
    }

    /// Fans one bus delivery out to every matching session.
    ///
    /// `subject` must be the parsed form of `text`. Sessions with
    /// multiple matching filters get one copy. Paused sessions buffer
    /// (bounded, drop-oldest) instead of sending.
    ///
    /// `value_of` unmarshals `payload` on demand; it is called at most
    /// once, and only when some matching subscription carries a content
    /// predicate. A session gets the copy if *any* of its matching
    /// subscriptions accepts (predicate-free subscriptions always
    /// accept); if the payload does not unmarshal, everyone does.
    ///
    /// Returns the actions plus the number of sessions whose every
    /// matching predicate rejected the payload — for guaranteed QoS a
    /// rejection still counts as consumption.
    pub fn on_deliver(
        &mut self,
        subject: &Subject,
        text: &str,
        payload: &[u8],
        redelivery: bool,
        value_of: &mut dyn FnMut() -> Option<Value>,
    ) -> (Vec<SessOut>, usize) {
        let mut out = Vec::new();
        let mut rejected = 0usize;
        let mut value: Option<Option<Value>> = None;
        let mut accepts: BTreeMap<ConnId, bool> = BTreeMap::new();
        for (trie_id, conn) in self.trie.matches(subject) {
            let entry = accepts.entry(*conn).or_insert(false);
            if *entry {
                continue;
            }
            *entry = match self.sub_preds.get(&trie_id) {
                None => true,
                Some(p) => {
                    self.filt_evals += 1;
                    match value.get_or_insert_with(&mut *value_of) {
                        Some(v) => p.eval(v),
                        None => true,
                    }
                }
            };
        }
        for (conn, accept) in accepts {
            if !accept {
                rejected += 1;
                self.filt_suppressed += 1;
                self.filt_suppressed_bytes += payload.len() as u64;
                continue;
            }
            let lag_cap = self.cursor_lag;
            let Some(sess) = self.sessions.get_mut(&conn) else {
                continue;
            };
            self.delivered += 1;
            if sess.paused {
                if sess.backlog.len() >= (lag_cap as usize) * 4 {
                    sess.backlog.pop_front();
                    self.dropped += 1;
                }
                // Cursor assigned on send, so the stream stays gapless
                // after drops.
                sess.backlog.push_back(SessionFrame::Deliver {
                    cursor: 0,
                    subject: text.to_owned(),
                    redelivery,
                    payload: payload.to_vec(),
                });
                continue;
            }
            let cursor = sess.cursor_next;
            sess.cursor_next += 1;
            out.push(SessOut::Send {
                conn,
                frame: SessionFrame::Deliver {
                    cursor,
                    subject: text.to_owned(),
                    redelivery,
                    payload: payload.to_vec(),
                },
            });
            let lag = (sess.cursor_next - 1).saturating_sub(sess.cursor_acked);
            if lag >= lag_cap {
                sess.paused = true;
                self.paused += 1;
            }
        }
        (out, rejected)
    }

    /// Freshness scan: evicts every session silent for longer than the
    /// session timeout. Call at least every
    /// [`scan_period_us`](SessionBroker::scan_period_us).
    pub fn on_tick(&mut self, now: Micros) -> Vec<SessOut> {
        let mut out = Vec::new();
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
            self.close_session(conn, &mut out);
        }
        out
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
        // Session-side filter suppression composes with the engine's own
        // `filt_*` counters, so accumulate rather than overwrite.
        stats.filt_evals += self.filt_evals;
        stats.filt_delivery_suppressed += self.filt_suppressed;
        stats.filt_suppressed_bytes += self.filt_suppressed_bytes;
    }

    fn drop_trie_sub(&mut self, trie_id: SubscriptionId, out: &mut Vec<SessOut>) {
        if self.trie.remove(trie_id).is_none() {
            return;
        }
        self.sub_preds.remove(&trie_id);
        let Some(text) = self.sub_texts.remove(&trie_id) else {
            return;
        };
        if let Some(refs) = self.filter_refs.get_mut(&text) {
            *refs -= 1;
            if *refs == 0 {
                self.filter_refs.remove(&text);
                out.push(SessOut::FilterRemoved(text));
            }
        }
    }

    fn close_session(&mut self, conn: ConnId, out: &mut Vec<SessOut>) {
        let Some(sess) = self.sessions.remove(&conn) else {
            return;
        };
        for (_, trie_id) in sess.subs {
            self.drop_trie_sub(trie_id, out);
        }
        out.push(SessOut::Closed { conn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn open(b: &mut SessionBroker, conn: ConnId, now: Micros) {
        let out = b.handle_frame(now, conn, hello(9));
        assert!(matches!(
            out[0],
            SessOut::Send {
                frame: SessionFrame::Welcome { .. },
                ..
            }
        ));
    }

    #[test]
    fn capability_gate() {
        let mut b = SessionBroker::new(&cfg(), 9);
        let out = b.handle_frame(0, ConnId(1), hello(8));
        assert!(matches!(
            out[0],
            SessOut::Send {
                frame: SessionFrame::Reject { .. },
                ..
            }
        ));
        assert!(matches!(out[1], SessOut::Closed { .. }));
        assert_eq!(b.active(), 0);
        let mut s = BusStats::default();
        b.stats_into(&mut s);
        assert_eq!(s.sess_rejected, 1);
    }

    #[test]
    fn deliveries_are_cursor_stamped_per_session() {
        let mut b = SessionBroker::new(&cfg(), 9);
        open(&mut b, ConnId(1), 0);
        let out = b.handle_frame(
            0,
            ConnId(1),
            SessionFrame::Subscribe {
                sub: 1,
                filter: "m.>".into(),
                pred: vec![],
            },
        );
        assert_eq!(out, vec![SessOut::FilterAdded("m.>".into())]);
        let subject = Subject::new("m.x").unwrap();
        for want in 1..=3u64 {
            let out = b.on_deliver(&subject, "m.x", b"p", false, &mut || None).0;
            match &out[0] {
                SessOut::Send {
                    frame: SessionFrame::Deliver { cursor, .. },
                    ..
                } => assert_eq!(*cursor, want),
                other => panic!("{other:?}"),
            }
            // Keep the window open.
            b.handle_frame(0, ConnId(1), SessionFrame::Ack { cursor: want });
        }
    }

    #[test]
    fn backpressure_pauses_then_drops_oldest() {
        let mut b = SessionBroker::new(&cfg(), 9); // lag 4, backlog cap 16
        open(&mut b, ConnId(1), 0);
        b.handle_frame(
            0,
            ConnId(1),
            SessionFrame::Subscribe {
                sub: 1,
                filter: "m.x".into(),
                pred: vec![],
            },
        );
        let subject = Subject::new("m.x").unwrap();
        let mut sent = 0;
        for _ in 0..40 {
            sent += b
                .on_deliver(&subject, "m.x", b"p", false, &mut || None)
                .0
                .len();
        }
        // Lag ceiling 4: exactly 4 sent, the rest buffered/dropped.
        assert_eq!(sent, 4);
        let mut s = BusStats::default();
        b.stats_into(&mut s);
        assert_eq!(s.sess_paused, 1);
        // 36 buffered candidates into a 16-slot backlog → 20 dropped.
        assert_eq!(s.sess_dropped, 20);
        // Ack everything sent: backlog flushes 4 more (window size).
        let out = b.handle_frame(0, ConnId(1), SessionFrame::Ack { cursor: 4 });
        let cursors: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                SessOut::Send {
                    frame: SessionFrame::Deliver { cursor, .. },
                    ..
                } => Some(*cursor),
                _ => None,
            })
            .collect();
        assert_eq!(cursors, vec![5, 6, 7, 8]);
    }

    #[test]
    fn heartbeat_timeout_evicts() {
        let mut b = SessionBroker::new(&cfg(), 9);
        open(&mut b, ConnId(1), 0);
        open(&mut b, ConnId(2), 0);
        // Session 2 stays fresh; session 1 goes silent.
        b.handle_frame(2_500, ConnId(2), SessionFrame::Heartbeat);
        let out = b.on_tick(3_500);
        assert!(matches!(
            out[0],
            SessOut::Send {
                conn: ConnId(1),
                frame: SessionFrame::Evict { .. },
            }
        ));
        assert!(matches!(out[1], SessOut::Closed { conn: ConnId(1) }));
        assert_eq!(b.active(), 1);
        let mut s = BusStats::default();
        b.stats_into(&mut s);
        assert_eq!((s.sess_evicted, s.sess_active), (1, 1));
    }

    #[test]
    fn bye_releases_filters() {
        let mut b = SessionBroker::new(&cfg(), 9);
        open(&mut b, ConnId(1), 0);
        b.handle_frame(
            0,
            ConnId(1),
            SessionFrame::Subscribe {
                sub: 1,
                filter: "m.>".into(),
                pred: vec![],
            },
        );
        let out = b.handle_frame(1, ConnId(1), SessionFrame::Bye);
        assert!(out.contains(&SessOut::FilterRemoved("m.>".into())));
        assert!(out.contains(&SessOut::Closed { conn: ConnId(1) }));
        assert!(b.filter_refs.is_empty());
    }

    #[test]
    fn frames_without_session_get_evict_notice() {
        let mut b = SessionBroker::new(&cfg(), 9);
        let out = b.handle_frame(0, ConnId(5), SessionFrame::Heartbeat);
        assert!(matches!(
            out[0],
            SessOut::Send {
                frame: SessionFrame::Evict { .. },
                ..
            }
        ));
    }
}
