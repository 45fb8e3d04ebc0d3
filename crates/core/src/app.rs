//! The application-facing API: [`BusApp`] and [`BusCtx`].

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use infobus_netsim::{Ctx, Micros};
use infobus_subject::{Subject, SubjectFilter, SubscriptionId};
use infobus_types::{DataObject, TypeRegistry, Value};

use crate::daemon::DaemonState;
use crate::rmi::{CallId, RetryMode, RmiError, SelectionPolicy, ServiceObject};
use crate::{BusError, QoS};

/// A publication delivered to a subscriber.
///
/// Communication is anonymous (P4): the message carries the subject and
/// the self-describing value, but not the producer's identity or location.
#[derive(Debug, Clone, PartialEq)]
pub struct BusMessage {
    /// The subject the object was published under.
    pub subject: Subject,
    /// The unmarshalled value (usually an object).
    pub value: Value,
    /// The publication's quality of service.
    pub qos: QoS,
    /// `true` if this may be a repeat (guaranteed-delivery redelivery
    /// after a publisher restart).
    pub redelivery: bool,
}

/// One "I am" answer collected by a discovery request.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryReply {
    /// The self-description the responder published.
    pub info: Value,
}

/// A handle for one active subscription, returned by
/// [`BusCtx::subscribe`] and consumed by [`BusCtx::unsubscribe`].
///
/// The handle is opaque: it identifies the subscription within its
/// daemon and carries no other meaning. It deliberately wraps the trie's
/// raw [`SubscriptionId`] so application code cannot confuse a data
/// subscription with the daemon's internal control subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionHandle(pub(crate) SubscriptionId);

impl SubscriptionHandle {
    /// The underlying trie id (diagnostics only — cannot be turned back
    /// into a handle).
    pub fn id(&self) -> u64 {
        self.0 .0
    }

    /// Wraps a raw trie [`SubscriptionId`] in a handle.
    ///
    /// Driver-facing: bus drivers living outside this crate (the UDP
    /// transport) allocate subscriptions in their own
    /// [`InterestTable`](crate::InterestTable) and hand the id out
    /// through the unified [`Bus`](crate::bus::Bus) surface. Application
    /// code never needs this — handles come from `subscribe`.
    pub fn from_raw(id: SubscriptionId) -> SubscriptionHandle {
        SubscriptionHandle(id)
    }

    /// The raw trie [`SubscriptionId`] this handle wraps.
    ///
    /// Driver-facing counterpart of [`SubscriptionHandle::from_raw`]:
    /// drivers need the trie id back to honour an unsubscribe.
    pub fn raw(&self) -> SubscriptionId {
        self.0
    }
}

/// An application attached to a bus daemon.
///
/// Applications are event handlers, like processes in the network
/// simulator: the daemon invokes at most one handler at a time. All
/// default implementations do nothing.
pub trait BusApp: Any {
    /// Called once when the application attaches to the daemon.
    fn on_start(&mut self, bus: &mut BusCtx<'_, '_>) {
        let _ = bus;
    }

    /// Called for each publication matching one of this application's
    /// subscriptions.
    fn on_message(&mut self, bus: &mut BusCtx<'_, '_>, msg: &BusMessage) {
        let _ = (bus, msg);
    }

    /// Called when an application timer set with [`BusCtx::set_timer`]
    /// fires.
    fn on_timer(&mut self, bus: &mut BusCtx<'_, '_>, token: u64) {
        let _ = (bus, token);
    }

    /// Called when the driver injects a command with
    /// [`BusFabric::send_app_command`](crate::BusFabric::send_app_command).
    ///
    /// This is the driver-side escape hatch: unlike
    /// [`BusFabric::with_app`](crate::BusFabric::with_app), the handler
    /// runs with a live [`BusCtx`], so it can publish, subscribe, or set
    /// timers in response.
    fn on_command(&mut self, bus: &mut BusCtx<'_, '_>, cmd: Box<dyn Any>) {
        let _ = (bus, cmd);
    }

    /// Called when a discovery window started with [`BusCtx::discover`]
    /// closes, with every reply collected.
    fn on_discovery(&mut self, bus: &mut BusCtx<'_, '_>, token: u64, replies: Vec<DiscoveryReply>) {
        let _ = (bus, token, replies);
    }

    /// Called when an RMI call completes (successfully or not).
    fn on_rmi_reply(
        &mut self,
        bus: &mut BusCtx<'_, '_>,
        call: CallId,
        result: Result<Value, RmiError>,
    ) {
        let _ = (bus, call, result);
    }
}

/// The capability handle applications use to talk to their daemon.
///
/// A `BusCtx` is valid for the duration of one handler invocation.
pub struct BusCtx<'a, 'b> {
    pub(crate) d: &'a mut DaemonState,
    pub(crate) net: &'a mut Ctx<'b>,
    pub(crate) app_idx: usize,
}

impl BusCtx<'_, '_> {
    /// Current virtual time, in microseconds.
    pub fn now(&self) -> Micros {
        self.net.now()
    }

    /// The name of the host this application runs on.
    pub fn host_name(&self) -> String {
        self.net.host_name()
    }

    /// The name this application was attached under.
    pub fn app_name(&self) -> String {
        self.d.app_name(self.app_idx)
    }

    /// The daemon's shared type registry. `defclass` in TDL, incoming
    /// self-describing messages, and Rust code all feed the same registry.
    pub fn registry(&self) -> Rc<RefCell<TypeRegistry>> {
        self.d.registry()
    }

    /// Publishes a value under a subject.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed subjects or
    /// [`BusError::Marshal`] if the value references unregistered types.
    pub fn publish(&mut self, subject: &str, value: &Value, qos: QoS) -> Result<(), BusError> {
        let subject = Subject::new(subject)?;
        self.d.publish(self.net, self.app_idx, &subject, value, qos)
    }

    /// Publishes a data object (convenience wrapper over
    /// [`BusCtx::publish`]).
    ///
    /// # Errors
    ///
    /// Same as [`BusCtx::publish`].
    pub fn publish_object(
        &mut self,
        subject: &str,
        object: &DataObject,
        qos: QoS,
    ) -> Result<(), BusError> {
        self.publish(subject, &Value::Object(Box::new(object.clone())), qos)
    }

    /// Subscribes this application to a subject filter. Matching
    /// publications arrive via [`BusApp::on_message`]. The returned
    /// [`SubscriptionHandle`] cancels the subscription when passed to
    /// [`BusCtx::unsubscribe`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters.
    pub fn subscribe(&mut self, filter: &str) -> Result<SubscriptionHandle, BusError> {
        Ok(SubscriptionHandle(self.d.subscribe_app_expanded(
            self.net,
            self.app_idx,
            filter,
            None,
        )?))
    }

    /// Subscribes with a content predicate: only matching publications
    /// whose payload satisfies `pred` are delivered, and the predicate
    /// travels to *publishing* daemons so unanimously rejected
    /// publications are suppressed before they are marshalled or sent.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters or
    /// [`BusError::Filter`] if the predicate exceeds the compile bounds.
    pub fn subscribe_filtered(
        &mut self,
        filter: &str,
        pred: &crate::engine::filter::Predicate,
    ) -> Result<SubscriptionHandle, BusError> {
        let compiled =
            std::sync::Arc::new(crate::engine::filter::CompiledPredicate::compile(pred)?);
        Ok(SubscriptionHandle(self.d.subscribe_app_expanded(
            self.net,
            self.app_idx,
            filter,
            Some(compiled),
        )?))
    }

    /// Cancels a subscription made with [`BusCtx::subscribe`].
    pub fn unsubscribe(&mut self, handle: SubscriptionHandle) {
        self.d.unsubscribe(self.net, handle.0);
    }

    /// Starts a "Who's out there?" discovery (§3.2): publishes a query on
    /// `subject` and collects "I am" announcements for the configured
    /// window; results arrive via [`BusApp::on_discovery`] with `token`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed subjects.
    pub fn discover(&mut self, subject: &str, token: u64) -> Result<(), BusError> {
        let subject = Subject::new(subject)?;
        self.d.discover(self.net, self.app_idx, &subject, token)
    }

    /// Registers this application as a discovery responder: any query on
    /// a subject matching `filter` is answered with `info` ("I am", plus
    /// state describing the responder).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters.
    pub fn respond_to_discovery(&mut self, filter: &str, info: Value) -> Result<(), BusError> {
        let filter = SubjectFilter::new(filter)?;
        self.d
            .add_discovery_responder(self.net, self.app_idx, &filter, info);
        Ok(())
    }

    /// Exports a service object under a subject name (§3.3). Servers are
    /// named by subjects; clients find them with [`BusCtx::rmi_call`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Duplicate`] if this daemon already exports a
    /// service under the subject.
    pub fn export_service(
        &mut self,
        subject: &str,
        service: Box<dyn ServiceObject>,
    ) -> Result<(), BusError> {
        let subject = Subject::new(subject)?;
        self.d
            .export_service(self.net, self.app_idx, &subject, service)
    }

    /// Withdraws a service previously exported under `subject` (an old
    /// server going off-line after a live upgrade).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::NotFound`] if no such service is exported here.
    pub fn withdraw_service(&mut self, subject: &str) -> Result<(), BusError> {
        self.d.withdraw_service(self.net, subject)
    }

    /// Invokes `op` on a server object named by `subject`. Discovery,
    /// server selection, connection, and fail-over are handled by the
    /// daemon; the result arrives via [`BusApp::on_rmi_reply`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed subjects.
    pub fn rmi_call(
        &mut self,
        subject: &str,
        op: &str,
        args: Vec<Value>,
        policy: SelectionPolicy,
        retry: RetryMode,
    ) -> Result<CallId, BusError> {
        let subject = Subject::new(subject)?;
        Ok(self
            .d
            .rmi_call(self.net, self.app_idx, &subject, op, args, policy, retry))
    }

    /// Sets an application timer; fires via [`BusApp::on_timer`] with
    /// `token`.
    pub fn set_timer(&mut self, delay: Micros, token: u64) {
        self.d.set_app_timer(self.net, self.app_idx, delay, token);
    }

    /// The aggregate set of subject filters known to be subscribed
    /// anywhere on this bus segment (local applications plus peer-daemon
    /// announcements). Information routers use this to decide what to
    /// forward.
    pub fn known_subscriptions(&self) -> Vec<SubjectFilter> {
        self.d.known_subscriptions()
    }

    /// Writes to this host's non-volatile storage (survives crashes and
    /// restarts of the node). Applications that must not lose state —
    /// persistent repositories, guaranteed-delivery consumers — keep
    /// their recovery data here.
    pub fn nv_put(&mut self, key: &str, value: Vec<u8>) {
        self.net.nv_put(key, value);
    }

    /// Reads from this host's non-volatile storage.
    pub fn nv_get(&self, key: &str) -> Option<Vec<u8>> {
        self.net.nv_get(key)
    }

    /// Deletes a non-volatile value; returns `true` if it existed.
    pub fn nv_delete(&mut self, key: &str) -> bool {
        self.net.nv_delete(key)
    }

    /// Lists non-volatile keys with the given prefix, sorted.
    pub fn nv_keys(&self, prefix: &str) -> Vec<String> {
        self.net.nv_keys(prefix)
    }

    /// Appends a line to the simulation trace (when tracing is enabled).
    pub fn trace(&mut self, line: impl FnOnce() -> String) {
        self.net.trace(line);
    }

    /// Draws a uniformly random `f64` in `[0, 1)` from the simulation's
    /// deterministic RNG.
    pub fn random(&mut self) -> f64 {
        self.net.random()
    }
}
