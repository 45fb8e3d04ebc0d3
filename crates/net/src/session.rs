//! The thin-client session frame: the `bus-v1` wire protocol between an
//! edge daemon and its long-lived sessions.
//!
//! A thin client (a browser gateway, a feed handler on a constrained
//! box) does not speak the peer protocol — it never sequences, NAKs, or
//! keeps ledgers. It opens a *session* against an edge daemon and speaks
//! this much smaller frame set; the daemon runs the real protocol on its
//! behalf. Every session datagram is one frame:
//!
//! ```text
//! +------+---------+-----+----------------------+
//! | IBSS | version | tag | frame body           |
//! +------+---------+-----+----------------------+
//!   4 B      1 B     1 B     rest of datagram
//! ```
//!
//! The `IBSS` magic is deliberately distinct from the peer protocol's
//! `IBUS` so both can share one socket: [`UdpBus`](crate::UdpBus)
//! dispatches on the first four bytes. The session handshake is capability-gated — the
//! [`Hello`](SessionFrame::Hello) carries the protocol name (`bus-v1`)
//! and a shared-secret token; anything else is
//! [`Reject`](SessionFrame::Reject)ed.
//!
//! Lifecycle, in frames:
//!
//! ```text
//! client                          daemon
//!   | -- Hello{bus-v1, token} ---->  |      capability check
//!   | <-- Welcome{session, knobs} -- |      or Reject{reason}
//!   | -- Subscribe{sub, filter} -->  |
//!   | -- Publish{subject, qos} --->  |      fan-in
//!   | <-- Deliver{cursor, ...} ----  |      fan-out, cursor-stamped
//!   | -- Ack{cursor} ------------->  |      cumulative
//!   | -- Heartbeat (periodic) ---->  |      freshness
//!   | -- Bye --------------------->  |      or daemon-side Evict{reason}
//! ```
//!
//! Decoding is truncation-safe: every read is bounds-checked and a short
//! buffer yields [`WireError::UnexpectedEof`], never a panic.

use infobus_core::QoS;
use infobus_types::wire::{
    get_byte_vec, get_string, get_u64, get_u8, put_bytes, put_string, put_u64,
};
use infobus_types::WireError;

/// Session frame magic: the first four bytes of every session datagram.
pub const SESSION_MAGIC: [u8; 4] = *b"IBSS";

/// Current session frame version.
pub const SESSION_VERSION: u8 = 1;

/// The protocol name a [`SessionFrame::Hello`] must carry.
pub const SESSION_PROTO: &str = "bus-v1";

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_SUBSCRIBE: u8 = 4;
const TAG_UNSUBSCRIBE: u8 = 5;
const TAG_PUBLISH: u8 = 6;
const TAG_DELIVER: u8 = 7;
const TAG_ACK: u8 = 8;
const TAG_HEARTBEAT: u8 = 9;
const TAG_BYE: u8 = 10;
const TAG_EVICT: u8 = 11;

/// One frame of the thin-client session protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFrame {
    /// Client → daemon: open a session. Gated on `proto` being
    /// [`SESSION_PROTO`] and `token` matching the daemon's capability
    /// token.
    Hello {
        /// Protocol name; must be `bus-v1`.
        proto: String,
        /// Shared-secret capability token.
        token: u64,
        /// Client-chosen name, attributed on fan-in publications.
        client: String,
    },
    /// Daemon → client: the session is open. Advertises the knobs the
    /// client must honour.
    Welcome {
        /// Daemon-assigned session id (diagnostics; the transport
        /// address identifies the session on the wire).
        session: u64,
        /// How often the client must send [`SessionFrame::Heartbeat`].
        heartbeat_period_us: u64,
        /// Silence longer than this gets the session evicted.
        session_timeout_us: u64,
        /// Unacked-delivery ceiling before the daemon pauses the stream.
        cursor_lag: u64,
    },
    /// Daemon → client: the hello (or a later request) was refused.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Client → daemon: subscribe to `filter` under the client-chosen
    /// subscription id `sub`.
    Subscribe {
        /// Client-chosen subscription id (scoped to the session).
        sub: u64,
        /// Subject filter text.
        filter: String,
        /// Wire-encoded content predicate
        /// ([`CompiledPredicate::to_bytes`](infobus_core::CompiledPredicate::to_bytes));
        /// empty means unfiltered.
        pred: Vec<u8>,
    },
    /// Client → daemon: drop subscription `sub`.
    Unsubscribe {
        /// The id given in [`SessionFrame::Subscribe`].
        sub: u64,
    },
    /// Client → daemon: publish onto the bus (fan-in). The payload is
    /// already-marshalled self-describing bytes.
    Publish {
        /// Subject to publish under.
        subject: String,
        /// Requested delivery quality of service.
        qos: QoS,
        /// Marshalled self-describing payload.
        payload: Vec<u8>,
    },
    /// Daemon → client: a matching publication (fan-out), stamped with
    /// this session's delivery cursor.
    Deliver {
        /// Monotonic per-session delivery cursor, starting at 1.
        cursor: u64,
        /// The subject the object was published under.
        subject: String,
        /// `true` if this may be a guaranteed-delivery repeat.
        redelivery: bool,
        /// Marshalled self-describing payload.
        payload: Vec<u8>,
    },
    /// Client → daemon: cumulative acknowledgement of every delivery
    /// with cursor ≤ `cursor`.
    Ack {
        /// Highest contiguously consumed delivery cursor.
        cursor: u64,
    },
    /// Client → daemon: liveness. Any frame refreshes the session;
    /// heartbeat is what an otherwise idle client sends.
    Heartbeat,
    /// Client → daemon: orderly close.
    Bye,
    /// Daemon → client: the daemon closed the session (heartbeat
    /// timeout, shutdown).
    Evict {
        /// Why the session was closed.
        reason: String,
    },
}

fn put_qos(buf: &mut Vec<u8>, qos: QoS) {
    buf.push(match qos {
        QoS::Reliable => 0,
        QoS::Guaranteed => 1,
    });
}

fn get_qos(buf: &mut &[u8]) -> Result<QoS, WireError> {
    match get_u8(buf)? {
        0 => Ok(QoS::Reliable),
        1 => Ok(QoS::Guaranteed),
        other => Err(WireError::BadTag(other)),
    }
}

/// `true` if `datagram` starts with the session magic (cheap dispatch
/// between peer frames and session frames on a shared socket).
pub fn is_session_frame(datagram: &[u8]) -> bool {
    datagram.len() >= 4 && datagram[..4] == SESSION_MAGIC
}

/// Encodes one session frame into a datagram.
pub fn encode_session_frame(frame: &SessionFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&SESSION_MAGIC);
    buf.push(SESSION_VERSION);
    match frame {
        SessionFrame::Hello {
            proto,
            token,
            client,
        } => {
            buf.push(TAG_HELLO);
            put_string(&mut buf, proto);
            put_u64(&mut buf, *token);
            put_string(&mut buf, client);
        }
        SessionFrame::Welcome {
            session,
            heartbeat_period_us,
            session_timeout_us,
            cursor_lag,
        } => {
            buf.push(TAG_WELCOME);
            put_u64(&mut buf, *session);
            put_u64(&mut buf, *heartbeat_period_us);
            put_u64(&mut buf, *session_timeout_us);
            put_u64(&mut buf, *cursor_lag);
        }
        SessionFrame::Reject { reason } => {
            buf.push(TAG_REJECT);
            put_string(&mut buf, reason);
        }
        SessionFrame::Subscribe { sub, filter, pred } => {
            buf.push(TAG_SUBSCRIBE);
            put_u64(&mut buf, *sub);
            put_string(&mut buf, filter);
            put_bytes(&mut buf, pred);
        }
        SessionFrame::Unsubscribe { sub } => {
            buf.push(TAG_UNSUBSCRIBE);
            put_u64(&mut buf, *sub);
        }
        SessionFrame::Publish {
            subject,
            qos,
            payload,
        } => {
            buf.push(TAG_PUBLISH);
            put_string(&mut buf, subject);
            put_qos(&mut buf, *qos);
            put_bytes(&mut buf, payload);
        }
        SessionFrame::Deliver {
            cursor,
            subject,
            redelivery,
            payload,
        } => {
            buf.push(TAG_DELIVER);
            put_u64(&mut buf, *cursor);
            put_string(&mut buf, subject);
            buf.push(u8::from(*redelivery));
            put_bytes(&mut buf, payload);
        }
        SessionFrame::Ack { cursor } => {
            buf.push(TAG_ACK);
            put_u64(&mut buf, *cursor);
        }
        SessionFrame::Heartbeat => buf.push(TAG_HEARTBEAT),
        SessionFrame::Bye => buf.push(TAG_BYE),
        SessionFrame::Evict { reason } => {
            buf.push(TAG_EVICT);
            put_string(&mut buf, reason);
        }
    }
    buf
}

/// Decodes one session datagram.
///
/// # Errors
///
/// Returns a [`WireError`] for truncated input, wrong magic, an
/// unsupported version, or an unknown tag.
pub fn decode_session_frame(datagram: &[u8]) -> Result<SessionFrame, WireError> {
    let buf = &mut &datagram[..];
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = get_u8(buf)?;
    }
    if magic != SESSION_MAGIC {
        return Err(WireError::BadTag(magic[0]));
    }
    let version = get_u8(buf)?;
    if version != SESSION_VERSION {
        return Err(WireError::BadTag(version));
    }
    match get_u8(buf)? {
        TAG_HELLO => Ok(SessionFrame::Hello {
            proto: get_string(buf)?,
            token: get_u64(buf)?,
            client: get_string(buf)?,
        }),
        TAG_WELCOME => Ok(SessionFrame::Welcome {
            session: get_u64(buf)?,
            heartbeat_period_us: get_u64(buf)?,
            session_timeout_us: get_u64(buf)?,
            cursor_lag: get_u64(buf)?,
        }),
        TAG_REJECT => Ok(SessionFrame::Reject {
            reason: get_string(buf)?,
        }),
        TAG_SUBSCRIBE => Ok(SessionFrame::Subscribe {
            sub: get_u64(buf)?,
            filter: get_string(buf)?,
            pred: get_byte_vec(buf)?,
        }),
        TAG_UNSUBSCRIBE => Ok(SessionFrame::Unsubscribe { sub: get_u64(buf)? }),
        TAG_PUBLISH => Ok(SessionFrame::Publish {
            subject: get_string(buf)?,
            qos: get_qos(buf)?,
            payload: get_byte_vec(buf)?,
        }),
        TAG_DELIVER => Ok(SessionFrame::Deliver {
            cursor: get_u64(buf)?,
            subject: get_string(buf)?,
            redelivery: get_u8(buf)? != 0,
            payload: get_byte_vec(buf)?,
        }),
        TAG_ACK => Ok(SessionFrame::Ack {
            cursor: get_u64(buf)?,
        }),
        TAG_HEARTBEAT => Ok(SessionFrame::Heartbeat),
        TAG_BYE => Ok(SessionFrame::Bye),
        TAG_EVICT => Ok(SessionFrame::Evict {
            reason: get_string(buf)?,
        }),
        other => Err(WireError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<SessionFrame> {
        vec![
            SessionFrame::Hello {
                proto: SESSION_PROTO.into(),
                token: 0xfeed,
                client: "ticker-ui".into(),
            },
            SessionFrame::Welcome {
                session: 7,
                heartbeat_period_us: 1_000_000,
                session_timeout_us: 3_000_000,
                cursor_lag: 64,
            },
            SessionFrame::Reject {
                reason: "bad token".into(),
            },
            SessionFrame::Subscribe {
                sub: 1,
                filter: "market.>".into(),
                pred: vec![4, 2],
            },
            SessionFrame::Unsubscribe { sub: 1 },
            SessionFrame::Publish {
                subject: "orders.new".into(),
                qos: QoS::Guaranteed,
                payload: vec![1, 2, 3],
            },
            SessionFrame::Deliver {
                cursor: 41,
                subject: "market.nyse.ibm".into(),
                redelivery: true,
                payload: vec![9, 9],
            },
            SessionFrame::Ack { cursor: 41 },
            SessionFrame::Heartbeat,
            SessionFrame::Bye,
            SessionFrame::Evict {
                reason: "heartbeat timeout".into(),
            },
        ]
    }

    #[test]
    fn round_trip_every_frame() {
        for f in samples() {
            let buf = encode_session_frame(&f);
            assert!(is_session_frame(&buf));
            assert_eq!(decode_session_frame(&buf).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn every_truncation_errors() {
        for f in samples() {
            let buf = encode_session_frame(&f);
            for cut in 0..buf.len() {
                assert!(
                    decode_session_frame(&buf[..cut]).is_err(),
                    "{f:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn peer_frames_are_not_session_frames() {
        assert!(!is_session_frame(b"IBUS\x01rest"));
        assert!(!is_session_frame(b"IB"));
        let mut buf = encode_session_frame(&SessionFrame::Heartbeat);
        buf[4] = SESSION_VERSION + 1;
        assert!(decode_session_frame(&buf).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SESSION_MAGIC);
        buf.push(SESSION_VERSION);
        buf.push(200);
        assert!(decode_session_frame(&buf).is_err());
    }
}
