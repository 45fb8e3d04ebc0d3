//! # The Information Bus
//!
//! A from-scratch Rust reproduction of *"The Information Bus — An
//! Architecture for Extensible Distributed Systems"* (Oki, Pfluegl,
//! Siegel, Skeen; SOSP 1993): anonymous publish/subscribe with
//! subject-based addressing, self-describing objects, dynamic classing,
//! reliable and guaranteed delivery, dynamic discovery, RMI, information
//! routers, adapters, an object repository, and an interpreter-driven
//! application builder — all running on a deterministic discrete-event
//! network simulator standing in for the paper's 10 Mb/s-Ethernet
//! workstation testbed.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a short name.
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`subject`] | `infobus-subject` | subjects, wildcard filters, subscription tries |
//! | [`types`] | `infobus-types` | self-describing object model, meta-object protocol, wire format |
//! | [`tdl`] | `infobus-tdl` | the CLOS-subset Type Definition Language (dynamic classing) |
//! | [`netsim`] | `infobus-netsim` | deterministic network + host simulator |
//! | [`bus`] | `infobus-core` | daemons, QoS, discovery, RMI, routers |
//! | [`net`] | `infobus-net` | real UDP socket transport (wall-clock driver of the engine) |
//! | [`wal`] | `infobus-wal` | crash-safe write-ahead ledger behind durable guaranteed delivery |
//! | [`edge`] | `infobus-edge` | netsim `Bus` shim, stadium session bench, conformance suites |
//! | [`repo`] | `infobus-repo` | relational engine + the Object Repository |
//! | [`adapters`] | `infobus-adapters` | news feeds, legacy WIP terminal, Keyword Generator |
//! | [`builder`] | `infobus-builder` | views, scripted apps, News Monitor, auto-UIs |
//!
//! # Examples
//!
//! A minimal bus session (see `examples/quickstart.rs` for the runnable
//! version):
//!
//! ```
//! use infobus::bus::{BusApp, BusConfig, BusCtx, BusFabric, BusMessage, QoS};
//! use infobus::netsim::{EtherConfig, NetBuilder};
//! use infobus::types::Value;
//!
//! struct Hello;
//! impl BusApp for Hello {
//!     fn on_start(&mut self, bus: &mut BusCtx<'_, '_>) {
//!         bus.publish("greetings.world", &Value::str("hello"), QoS::Reliable).unwrap();
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Listener(Vec<BusMessage>);
//! impl BusApp for Listener {
//!     fn on_start(&mut self, bus: &mut BusCtx<'_, '_>) {
//!         bus.subscribe("greetings.>").unwrap();
//!     }
//!     fn on_message(&mut self, _bus: &mut BusCtx<'_, '_>, msg: &BusMessage) {
//!         self.0.push(msg.clone());
//!     }
//! }
//!
//! let mut b = NetBuilder::new(7);
//! let lan = b.segment(EtherConfig::lan_10mbps());
//! let h1 = b.host("pub", &[lan]);
//! let h2 = b.host("sub", &[lan]);
//! let mut sim = b.build();
//! let fabric = BusFabric::install(&mut sim, &[h1, h2], BusConfig::default());
//! fabric.attach_app(&mut sim, h2, "listener", Box::new(Listener::default()));
//! sim.run_for(infobus::netsim::time::millis(100));
//! fabric.attach_app(&mut sim, h1, "hello", Box::new(Hello));
//! sim.run_for(infobus::netsim::time::secs(1));
//! let n = fabric.with_app::<Listener, usize>(&mut sim, h2, "listener", |l| l.0.len());
//! assert_eq!(n, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use infobus_adapters as adapters;
pub use infobus_builder as builder;
pub use infobus_core as bus;
pub use infobus_edge as edge;
pub use infobus_net as net;
pub use infobus_netsim as netsim;
pub use infobus_repo as repo;
pub use infobus_subject as subject;
pub use infobus_tdl as tdl;
pub use infobus_types as types;
pub use infobus_wal as wal;
