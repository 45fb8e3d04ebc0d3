//! The edge tier's harnesses: the netsim daemon behind the unified
//! [`Bus`](infobus_core::Bus) trait, the stadium bench, and the
//! cross-driver suites.
//!
//! The paper's daemons assume capable peers — every participant
//! sequences, NAKs, and keeps ledgers. The edge tier extends the bus to
//! participants that can't or shouldn't: thin clients open
//! capability-gated sessions (`bus-v1`) against a
//! [`UdpBus`](infobus_net::UdpBus) configured with
//! [`UdpConfig::with_session_token`](infobus_net::UdpConfig::with_session_token),
//! subscribe and publish through tiny
//! [`SessionFrame`](infobus_net::SessionFrame)s on the daemon's own
//! socket, and the daemon runs the real protocol on their behalf. The
//! session codec and the sans-I/O
//! [`SessionBroker`](infobus_net::SessionBroker) live in `infobus-net`
//! with the driver that hosts them.
//!
//! This crate provides [`SimBus`], the netsim daemon behind the unified
//! `Bus` trait, so the cross-driver conformance suite runs the
//! simulator alongside the in-process and UDP drivers with the same
//! assertions; the `stadium` bench, which drives the session broker and
//! its interest table at six-figure session counts; and the conformance
//! and session suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim;

pub use sim::{SimBus, SimConfig};
