//! Real UDP sockets: the third driver of the sans-I/O protocol engine.
//!
//! The paper's Information Bus runs over real Ethernet broadcast with a
//! daemon per host. This crate closes that gap for the reproduction: a
//! [`UdpBus`] is a bus daemon speaking the exact same wire protocol as
//! the simulated daemon and the in-process bus — the identical
//! [`Engine`](infobus_core::engine::Engine) state machines, driven by
//! `std::net::UdpSocket` datagrams and a wall-clock monotonic timer wheel
//! instead of the discrete-event simulator. Nothing of the peer protocol
//! lives here: sequencing, NAK repair, duplicate suppression, guaranteed
//! delivery, and batching all come from `infobus_core::engine`, and who
//! wants what from its `InterestTable`; this crate moves bytes, keeps
//! time, fans envelopes out to subscriber queues, and hosts thin-client
//! sessions.
//!
//! # Topology
//!
//! Every [`UdpBus`] binds one UDP socket. "Broadcast" is realized two
//! ways:
//!
//! * **Peer list (loopback-pair fallback).** Each broadcast packet is
//!   unicast to every known peer. Peers are configured up front
//!   ([`UdpConfig::with_peer`] / [`UdpBus::add_peer`]) *or learned*: every
//!   frame carries the sender's host id, so receiving one datagram from a
//!   peer registers its address. This is the mode CI exercises — it needs
//!   nothing but `127.0.0.1`.
//! * **Multicast.** With [`UdpConfig::with_multicast`] the socket joins
//!   an IPv4 multicast group and broadcasts go to the group address — one
//!   packet per segment, like the paper's Ethernet broadcast. Unicast
//!   traffic (NAKs, acks, retransmission targets) still uses learned peer
//!   addresses.
//!
//! # Wire format
//!
//! Datagrams are [`frame`]s: a 4-byte magic, a version byte, the sender's
//! host id, then one [`Packet`](infobus_core::msg::Packet) in the same
//! encoding the simulator's daemons exchange. Decoding is
//! truncation-safe; malformed datagrams are counted
//! ([`BusStats::net_decode_errors`](infobus_core::BusStats)) and dropped,
//! never panicking the reader.
//!
//! # Thin-client sessions
//!
//! A bus bound with [`UdpConfig::with_session_token`] also serves thin
//! clients that do not speak the peer protocol: they open capability-gated
//! `bus-v1` sessions with small [`session`] frames (distinct `IBSS`
//! magic, same socket), and the sans-I/O [`SessionBroker`] runs them —
//! cursor-stamped delivery, cumulative acks, heartbeat eviction,
//! bounded backpressure — while the daemon runs the real protocol on
//! their behalf. Their subscriptions are entries in the daemon's one
//! interest table, next to the API subscriptions.
//!
//! # Example
//!
//! Two buses over loopback (run `cargo run --example udp_pair` for the
//! full version):
//!
//! ```
//! use infobus_core::QoS;
//! use infobus_net::{UdpBus, UdpConfig};
//! use infobus_types::Value;
//!
//! let a = UdpBus::bind(UdpConfig::new(1)).unwrap();
//! let b = UdpBus::bind(UdpConfig::new(2)).unwrap();
//! a.add_peer(2, b.local_addr()).unwrap();
//! b.add_peer(1, a.local_addr()).unwrap();
//!
//! let (_sub, rx) = b.subscribe("live.>").unwrap();
//! a.publish("live.tick", &Value::I64(7), QoS::Reliable).unwrap();
//! let msg = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(msg.value().unwrap(), Value::I64(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod bus;
pub mod clock;
pub mod frame;
pub mod loss;
pub mod router;
pub mod session;
pub mod timers;

pub use broker::{ConnId, SessOut, SessionBroker};
pub use bus::{NetMessage, NetReceiver, UdpBus, UdpConfig};
pub use router::{UdpRouter, UdpRouterConfig};
pub use session::{
    decode_session_frame, encode_session_frame, is_session_frame, SessionFrame, SESSION_MAGIC,
    SESSION_PROTO, SESSION_VERSION,
};
