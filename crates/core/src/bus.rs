//! The unified, driver-independent bus surface: [`Bus`], [`Delivery`],
//! and [`Receiver`].
//!
//! The drivers run the same sans-I/O protocol engine — the simulated
//! daemon, the in-process bus, and the UDP bus — and
//! before this module each had drifted into its own front door: inproc
//! pinned QoS and returned `(SubscriptionHandle, InprocReceiver)`, the
//! UDP bus took QoS but returned its own `NetSubscription`, the netsim
//! daemon spoke only through [`BusApp`](crate::BusApp) callbacks. The
//! [`Bus`] trait is the convergence point: *one* way to subscribe, *one*
//! way to publish with an explicit [`QoS`], *one* message type on the
//! receive path. The cross-driver conformance suite and the benches are
//! written once against `&dyn Bus` and run unchanged on every driver.
//!
//! Design notes:
//!
//! * [`Delivery`] is driver-independent because every driver already
//!   hands subscribers the same thing: a subject string and the
//!   self-describing marshalled payload. Unmarshalling stays lazy (and
//!   fallible) at the subscriber, exactly as before.
//! * [`Receiver`] abstracts *blocking discipline*, not queueing policy:
//!   every implementation is a bounded drop-oldest
//!   [`SubReceiver`] today, but the trait lets
//!   a test double or a future driver substitute its own.
//! * [`Bus`] is object-safe on purpose — harnesses hold `Box<dyn Bus>`
//!   and iterate drivers.

use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use infobus_subject::InternedSubject;
use infobus_types::{wire, TypeRegistry, Value, WireError};

use crate::app::SubscriptionHandle;
use crate::buf::Bytes;
use crate::engine::BusStats;
use crate::queue::SubReceiver;
use crate::{BusError, QoS};

/// A publication delivered to a subscriber of a real-thread driver.
///
/// Communication is anonymous (the paper's P4): the delivery carries the
/// subject and the self-describing marshalled payload, never the
/// producer's identity or location. Both fields are shared handles — the
/// subject is interned ([`InternedSubject`], compares like its text) and
/// the payload is a reference-counted [`Bytes`] slice — because one
/// matched publication fans out to any number of subscriber queues
/// without copying a byte.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The subject the object was published under.
    pub subject: InternedSubject,
    /// The marshalled self-describing payload.
    pub payload: Bytes,
    /// `true` if this may be a repeat (guaranteed-delivery redelivery
    /// after a publisher restart). Always `false` on drivers without a
    /// redelivery path (the in-process bus).
    pub redelivery: bool,
    /// The publication's quality of service, preserved so a consumer
    /// re-publishing the message (an information router crossing
    /// segments) keeps its delivery contract.
    pub qos: QoS,
    /// Federation route stamp carried by a forwarded copy; `None` for
    /// ordinary intra-segment traffic. An information router feeding a
    /// delivery back into a
    /// [`RouterEngine`](infobus_router::RouterEngine) passes it along so
    /// loop suppression survives the republish hop.
    pub route: Option<crate::router::RouteStamp>,
}

impl Delivery {
    /// The delivery of an in-order envelope. Subject and payload are
    /// shared handles, so this copies no bytes.
    pub fn of(env: &crate::Envelope) -> Delivery {
        Delivery {
            subject: env.subject.clone(),
            payload: env.payload.clone(),
            redelivery: env.redelivery,
            qos: env.qos,
            route: env.route,
        }
    }

    /// Unmarshals the payload. The bus publishes self-describing
    /// messages, so any type descriptors travel with the data and no
    /// pre-shared registry is needed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the payload is malformed.
    pub fn value(&self) -> Result<Value, WireError> {
        let mut registry = TypeRegistry::with_fundamentals();
        wire::unmarshal(&self.payload, &mut registry)
    }

    /// Unmarshals the payload into an existing registry (types carried by
    /// the message are registered into it).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the payload is malformed or its schema
    /// conflicts with `registry`.
    pub fn value_into(&self, registry: &mut TypeRegistry) -> Result<Value, WireError> {
        wire::unmarshal(&self.payload, registry)
    }
}

/// The receiving half of a [`Bus`] subscription.
///
/// The blocking discipline of `std::sync::mpsc`, with the standard error
/// types, so existing call sites port without edits. Every current
/// implementation is a bounded drop-oldest
/// [`SubReceiver`]; the trait exists so
/// conformance code can hold `Box<dyn Receiver>` without caring.
pub trait Receiver: Send {
    /// Blocks until a delivery arrives or the bus side is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the queue is drained and disconnected.
    fn recv(&self) -> Result<Delivery, RecvError>;

    /// Takes a delivery if one is queued, without blocking (the
    /// non-blocking probe a poll loop needs).
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when nothing is queued, or
    /// [`TryRecvError::Disconnected`] once drained and disconnected.
    fn try_recv(&self) -> Result<Delivery, TryRecvError>;

    /// Blocks up to `timeout` for a delivery.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError::Timeout`] on expiry, or
    /// [`RecvTimeoutError::Disconnected`] once drained and disconnected.
    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, RecvTimeoutError>;
}

impl Receiver for SubReceiver<Delivery> {
    fn recv(&self) -> Result<Delivery, RecvError> {
        SubReceiver::recv(self)
    }

    fn try_recv(&self) -> Result<Delivery, TryRecvError> {
        SubReceiver::try_recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, RecvTimeoutError> {
        SubReceiver::recv_timeout(self, timeout)
    }
}

/// The queue type every in-tree driver hands back from
/// [`Bus::subscribe`]: a bounded drop-oldest subscriber queue of
/// [`Delivery`] messages.
pub type BusReceiver = SubReceiver<Delivery>;

/// One bus daemon, whatever drives it.
///
/// Implemented by the in-process bus, the UDP bus, and the netsim daemon
/// shim. The trait is object-safe: conformance
/// harnesses and benches hold `Box<dyn Bus>` and run the same assertions
/// across every driver.
///
/// ```
/// use infobus_core::bus::Bus;
/// use infobus_core::inproc::InprocBus;
/// use infobus_core::QoS;
/// use infobus_types::Value;
///
/// let bus = InprocBus::new();
/// let (sub, rx) = Bus::subscribe(&bus, "market.>").unwrap();
/// Bus::publish(&bus, "market.nyse.ibm", &Value::I64(42), QoS::Reliable).unwrap();
/// bus.drain();
/// assert_eq!(rx.try_recv().unwrap().value().unwrap(), Value::I64(42));
/// Bus::unsubscribe(&bus, sub);
/// ```
pub trait Bus: Send + Sync {
    /// Subscribes to every subject matching `filter` and returns the
    /// subscription handle plus the delivery queue.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the filter does not parse.
    fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError>;

    /// Subscribes to every subject matching `filter` *and* whose payload
    /// satisfies `pred` (see
    /// [`Predicate`](crate::engine::filter::Predicate)).
    ///
    /// The predicate is compiled once here and enforced twice: at this
    /// daemon's delivery gate (exact per-subscription semantics), and —
    /// because it travels inside subscription announcements — at every
    /// *publisher's* daemon, where a publication rejected by all matching
    /// interest is suppressed before marshalling and fan-out
    /// (`filt_pub_suppressed`). The match set a subscriber observes is
    /// identical either way; only wire traffic differs.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the filter does not parse or the
    /// predicate exceeds the compile bounds.
    fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &crate::engine::filter::Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError>;

    /// Publishes `value` on `subject` with the requested delivery
    /// guarantee, returning how many local subscriber queues matched at
    /// the publishing daemon (remote matches are not knowable
    /// synchronously).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the subject is invalid or marshalling
    /// fails.
    fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError>;

    /// Cancels a subscription; its queue disconnects.
    fn unsubscribe(&self, sub: SubscriptionHandle);

    /// Delivery barrier, as strong as the driver can make it: after
    /// `drain` returns, every publication this thread completed *through
    /// synchronous paths* has reached its subscriber queues. Drivers with
    /// asynchronous ingest (sockets, the simulator) additionally settle
    /// what they can — see each implementation's docs for the exact
    /// guarantee.
    fn drain(&self);

    /// A merged snapshot of the daemon's protocol counters.
    fn stats(&self) -> BusStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Object safety is part of the contract: harnesses hold `Box<dyn Bus>`.
    fn _assert_object_safe(_: &dyn Bus, _: &dyn Receiver) {}

    #[test]
    fn delivery_roundtrips_value() {
        let v = Value::str("tick");
        let reg = TypeRegistry::with_fundamentals();
        let bytes = wire::marshal_self_describing(&v, &reg).expect("marshal");
        let d = Delivery {
            subject: infobus_subject::SubjectTable::new().intern("a.b").unwrap(),
            payload: bytes.into(),
            redelivery: false,
            qos: QoS::Reliable,
            route: None,
        };
        assert_eq!(d.value().expect("unmarshal"), v);
        let mut reg2 = TypeRegistry::with_fundamentals();
        assert_eq!(d.value_into(&mut reg2).expect("unmarshal"), v);
    }
}
