//! A real-thread transport carrying bus envelopes between OS threads.
//!
//! The simulator measures the protocol in *virtual* time; this module
//! lets the microbenchmark harness measure the real wall-clock cost of
//! the data path — marshalling, reliable-layer sequencing, subject-trie
//! matching, and hand-off — with actual threads and channels.
//!
//! The bus is a second driver of the same sans-I/O
//! [`Engine`](crate::engine) the simulated daemon runs: every publication
//! is sequenced into an [`Envelope`], the
//! resulting broadcast action is looped straight back into the engine's
//! receive path (loopback mode), and only envelopes the reliable layer
//! releases *in order* reach subscriber channels. Duplicates injected by
//! a buggy caller would be dropped, exactly as on the wire. Protocol time
//! is a monotonic counter — the engine never reads a clock.
//!
//! # Hot-path memory discipline
//!
//! A steady-state reliable publish allocates **nothing**:
//!
//! * the subject is interned once at the API boundary
//!   ([`SubjectTable`]); every envelope, map key, and [`Delivery`]
//!   aliases the same `Arc<str>`;
//! * the payload is marshalled into a buffer recycled from a
//!   [`BufPool`] and frozen into a shared [`Bytes`] slice — subscriber
//!   fan-out clones reference counts, never bytes;
//! * engine actions append into a per-shard scratch vector whose
//!   capacity persists across publishes;
//! * fan-out targets come from the [`InterestTable`]'s subject-id-keyed
//!   memo (rebuilt lazily when the subscription set changes), so the
//!   trie walk and its temporary vectors are off the steady-state path
//!   entirely.
//!
//! `publish` runs that whole chain synchronously on the calling thread,
//! under the owning shard's lock only.
//!
//! # Examples
//!
//! ```
//! use infobus_core::inproc::InprocBus;
//! use infobus_core::QoS;
//! use infobus_types::Value;
//!
//! let bus = InprocBus::new();
//! let (_sub, rx) = bus.subscribe("news.>").unwrap();
//! bus.publish("news.equity.gmc", &Value::str("hello"), QoS::Reliable)
//!     .unwrap();
//! let msg = rx.recv().unwrap();
//! assert_eq!(msg.subject, "news.equity.gmc");
//! assert_eq!(msg.value().unwrap(), Value::str("hello"));
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use infobus_subject::{InternedSubject, SubjectTable};
use infobus_types::{wire, TypeRegistry, Value};

use crate::app::SubscriptionHandle;
use crate::buf::{BufPool, Bytes};
use crate::bus::{Bus, BusReceiver, Delivery};
use crate::config::BusConfig;
use crate::engine::filter::{CompiledPredicate, Predicate};
use crate::engine::{
    shard_of_subject, Action, BusStats, Engine, Event, Micros, PubSource, ShardedEngine,
    ShardedStats,
};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::interest::InterestTable;
use crate::msg::Packet;
use crate::nvstore::NvStore;
use crate::queue::{sub_queue, SubReceiver, SubSender};
use crate::{BusError, QoS};

/// The receiving half of an in-process subscription: a bounded
/// drop-oldest queue (see [`crate::queue`]) with an `mpsc`-compatible
/// API. Same type as [`BusReceiver`] — the unified [`Bus`] receiver.
pub type InprocReceiver = SubReceiver<InprocMessage>;

/// A message delivered by the in-process bus — the driver-independent
/// [`Delivery`] (unmarshal lazily with [`Delivery::value`]). The name
/// survives from before the unified [`Bus`] surface.
pub type InprocMessage = Delivery;

/// The single-node host id the in-process engine publishes under.
const INPROC_HOST: u32 = 1;

/// One engine shard plus its reusable action scratch vector. The scratch
/// lives under the same mutex as the engine, so the fast path drains and
/// refills it without ever releasing its capacity.
struct ShardSlot {
    engine: Engine,
    scratch: Vec<Action>,
}

// Lock discipline: every `.expect("lock poisoned")` below is deliberate.
// A lock only poisons if a holder panicked mid-critical-section, leaving
// engine/trie state possibly inconsistent; propagating the panic to every
// other bus user is safer than limping on with torn state.
struct Inner {
    /// The protocol engine, in loopback mode: broadcasts from our own
    /// host are accepted back into the receive path. A [`ShardedEngine`]
    /// flattened so each shard sits behind its *own* mutex: publishers
    /// on subjects owned by different shards take different locks and
    /// stop contending on one state machine ([`BusConfig::shards`]
    /// shards; one — the unsharded bus — by default).
    shards: Vec<Mutex<ShardSlot>>,
    /// Every subscription, by its queue sender. One host, so no peer
    /// ever announces anything.
    interest: Mutex<InterestTable<SubSender<InprocMessage>>>,
    registry: Mutex<TypeRegistry>,
    /// Monotonic protocol time (the engine is sans-I/O and never reads a
    /// clock; one tick per publication is plenty for a lossless loop).
    now: AtomicU64,
    /// Guaranteed-delivery non-volatile store: in-memory by default, a
    /// per-shard write-ahead ledger when [`BusConfig::durable_dir`] is
    /// set (replayed into the shard engines at construction).
    nv: Mutex<NvStore>,
    /// Per-subscriber queue cap (0 = unbounded), from
    /// [`BusConfig::subscriber_queue_cap`].
    queue_cap: usize,
    /// Cumulative drop-oldest evictions across all subscriber queues.
    queue_dropped: Arc<AtomicU64>,
    /// The daemon-wide subject intern table (shared with every shard
    /// engine): subjects are interned once at the publish boundary.
    table: SubjectTable,
    /// Recycled marshal buffers — see [`BufPool`].
    pool: BufPool,
    /// The one publisher identity of this bus, cached so a publish
    /// clones an `Arc<str>` instead of allocating a fresh string.
    source: PubSource,
}

/// A thread-safe publish/subscribe bus within one process, driving the
/// same protocol [`Engine`] as the simulated daemon.
///
/// `publish` runs the full data path — self-describing marshalling,
/// reliable-layer sequencing, loopback receive, subject-trie matching,
/// per-subscriber channel hand-off — on the calling thread; subscribers
/// receive on mpsc channels from any other thread.
#[derive(Clone)]
pub struct InprocBus {
    inner: Arc<Inner>,
}

impl InprocBus {
    /// Creates an empty bus with a fundamentals-only type registry.
    pub fn new() -> Self {
        InprocBus::with_config(BusConfig::default())
    }

    /// Creates an empty bus with the given configuration (notably
    /// [`BusConfig::subscriber_queue_cap`], the backpressure bound for
    /// slow subscribers, and [`BusConfig::durable_dir`], which puts the
    /// guaranteed-delivery ledger on disk and replays it here).
    ///
    /// # Panics
    ///
    /// Panics if a durable ledger directory cannot be opened
    /// (fail-stop; see [`NvStore`]).
    pub fn with_config(cfg: BusConfig) -> Self {
        let queue_cap = cfg.subscriber_queue_cap;
        let pool_slots = cfg.marshal_pool_slots();
        let semantic = cfg.semantic_map().cloned();
        let (shards, nv, table) = build_shards(cfg);
        let inner = Inner {
            shards,
            nv: Mutex::new(nv),
            interest: Mutex::new(InterestTable::new(semantic)),
            registry: Mutex::new(TypeRegistry::with_fundamentals()),
            now: AtomicU64::new(0),
            queue_cap,
            queue_dropped: Arc::new(AtomicU64::new(0)),
            table,
            pool: BufPool::with_slots(pool_slots),
            source: PubSource {
                app: "inproc".into(),
                inc: 1,
                route: None,
            },
        };
        InprocBus {
            inner: Arc::new(inner),
        }
    }

    /// Registers application types so objects can be marshalled.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Marshal`] on conflicting registration.
    pub fn register_type(&self, d: infobus_types::TypeDescriptor) -> Result<(), BusError> {
        self.inner
            .registry
            .lock()
            .expect("lock poisoned")
            .register(d)
            .map_err(|e| BusError::Marshal(e.to_string()))
    }

    /// Subscribes to a filter; matching publications arrive on the
    /// returned channel, and the [`SubscriptionHandle`] cancels the
    /// subscription when passed to [`InprocBus::unsubscribe`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters.
    pub fn subscribe(
        &self,
        filter: &str,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        self.subscribe_entry(filter, None)
    }

    /// Subscribes to a filter with a content predicate: only matching
    /// publications whose payload satisfies `pred` reach the returned
    /// channel. The predicate is compiled once here and evaluated at the
    /// delivery gate; when *every* subscription matching a publication
    /// carries a predicate and all reject, the publish gate suppresses
    /// the publication before sequencing ([`BusStats::filt_pub_suppressed`]).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters or
    /// [`BusError::Filter`] if the predicate exceeds the compile bounds.
    pub fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        let compiled = Arc::new(CompiledPredicate::compile(pred)?);
        self.subscribe_entry(filter, Some(compiled))
    }

    /// The shared subscribe tail: the semantic map's filter expansion
    /// (synonym aliases and taxonomy broadenings) subscribes the queue
    /// alongside the canonical form, as one family.
    fn subscribe_entry(
        &self,
        filter: &str,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        let (tx, rx) = sub_queue(self.inner.queue_cap, self.inner.queue_dropped.clone());
        let (id, _) = self.interest().subscribe(filter, tx, 0, pred)?;
        Ok((SubscriptionHandle(id), rx))
    }

    /// Removes a subscription (its channel closes once drained),
    /// including any entries the semantic expansion added for it.
    pub fn unsubscribe(&self, handle: SubscriptionHandle) {
        self.interest().unsubscribe(handle.0);
    }

    /// Publishes a value with the requested delivery guarantee; the
    /// reliable layer sequences it and delivers to every matching
    /// subscriber in publication order.
    /// Returns the number of subscribers the message was handed to.
    ///
    /// [`QoS::Guaranteed`] runs the full guaranteed-delivery ledger —
    /// persist-before-send, local-delivery acknowledgment, completion —
    /// with the retry rounds executed synchronously after the publish
    /// (the in-process loop has no timer substrate). A guaranteed
    /// publication nobody subscribes to stays pending
    /// ([`BusStats::gd_pending`]) until a later guaranteed publish on
    /// the same shard finds a subscriber to redeliver to, exactly the
    /// at-least-once contract.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] or [`BusError::Marshal`].
    pub fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        // Publish gate: when every matching subscription carries a
        // rejecting predicate, the publication is suppressed *here* —
        // before marshalling, sequencing, and fan-out ever run.
        let Some(subject) = self.admit(subject, || Some(Cow::Borrowed(value)))? else {
            return Ok(0);
        };
        let payload = {
            let mut buf = self.inner.pool.take();
            let registry = self.inner.registry.lock().expect("lock poisoned");
            wire::marshal_self_describing_into(buf.vec_mut(), value, &registry)
                .map_err(|e| BusError::Marshal(e.to_string()))?;
            buf.freeze()
        };
        self.dispatch(&subject, payload, qos)
    }

    /// Publishes bytes already marshalled with
    /// [`wire::marshal_self_describing`] (or [`wire::marshal_value`]),
    /// skipping the registry and the marshaller — the zero-copy entry
    /// point for callers that pre-marshal or forward payloads verbatim.
    /// The bytes are copied once into a pooled buffer; everything
    /// downstream shares that buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for an invalid subject.
    pub fn publish_marshaled(
        &self,
        subject: &str,
        payload: &[u8],
        qos: QoS,
    ) -> Result<usize, BusError> {
        // Publish gate for pre-marshalled bytes: the value only exists
        // on the wire, so it is unmarshalled only when the gate could
        // actually suppress. An unmarshalling failure sends — the
        // conservative direction.
        let Some(subject) = self.admit(subject, || unmarshal(payload).map(Cow::Owned))? else {
            return Ok(0);
        };
        let mut buf = self.inner.pool.take();
        buf.vec_mut().extend_from_slice(payload);
        self.dispatch(&subject, buf.freeze(), qos)
    }

    /// Interns a publish subject, first rewriting it to canonical form
    /// when a semantic map is configured (synonym subjects collapse
    /// before the table or the engine see them), then runs the publish
    /// gate (see [`InterestTable::publish_interest_accepts`]). `None`:
    /// suppressed.
    fn admit<'v>(
        &self,
        subject: &str,
        value: impl FnOnce() -> Option<Cow<'v, Value>>,
    ) -> Result<Option<InternedSubject>, BusError> {
        let mut table = self.interest();
        let canonical = table.canonicalize(subject);
        let subject = self
            .inner
            .table
            .intern(canonical.as_deref().unwrap_or(subject))?;
        Ok(table
            .publish_interest_accepts(&subject, value)
            .then_some(subject))
    }

    fn interest(&self) -> std::sync::MutexGuard<'_, InterestTable<SubSender<InprocMessage>>> {
        self.inner.interest.lock().expect("lock poisoned")
    }

    /// The tail of a publish: sequence the marshalled payload through
    /// the owning shard's engine and perform the resulting actions until
    /// delivery. Returns the number of subscribers the message was
    /// handed to.
    fn dispatch(
        &self,
        subject: &InternedSubject,
        payload: Bytes,
        qos: QoS,
    ) -> Result<usize, BusError> {
        let shard = shard_of_subject(subject.as_str(), self.inner.shards.len());
        let now = self.inner.now.fetch_add(1, Ordering::Relaxed) + 1;
        // Only the owning shard's lock is taken: the entire publish →
        // loopback → deliver chain for a subject happens inside one
        // shard, so publishers on other shards proceed in parallel.
        let mut slot = self.inner.shards[shard].lock().expect("lock poisoned");
        let slot = &mut *slot;
        let mut delivered = 0usize;
        if slot.engine.config().batch_enabled {
            // Batched: the classic publish → enqueue → loopback chain,
            // so batch accounting and flush behavior stay exact.
            let actions = slot.engine.handle(
                now,
                Event::Publish {
                    source: self.inner.source.clone(),
                    subject: subject.clone(),
                    qos,
                    kind: EnvelopeKind::Data,
                    corr: 0,
                    payload,
                },
            );
            self.loopback(&mut slot.engine, shard, now, actions, &mut delivered);
        } else {
            // Fast path: sequence, then feed the envelope straight back
            // into the receive path — the same engine transitions the
            // broadcast wrapper would produce, minus the packet and its
            // single-envelope vector. The scratch's capacity persists
            // across publishes, so the steady state allocates nothing.
            let mut scratch = std::mem::take(&mut slot.scratch);
            let env = slot.engine.publish_into(
                now,
                &self.inner.source,
                subject,
                qos,
                EnvelopeKind::Data,
                0,
                payload,
                &mut scratch,
            );
            slot.engine.handle_into(
                now,
                Event::Envelope {
                    env,
                    entitled: true,
                },
                &mut scratch,
            );
            for action in scratch.drain(..) {
                self.perform(&mut slot.engine, shard, now, action, &mut delivered);
            }
            slot.scratch = scratch;
        }
        if qos == QoS::Guaranteed {
            self.gd_rounds(&mut slot.engine, shard, now, &mut delivered);
        }
        Ok(delivered)
    }

    /// Runs the guaranteed-delivery ledger's retry rounds synchronously
    /// (the in-process loop has no timer substrate to fire
    /// [`TimerKind::GdRetry`](crate::engine::TimerKind)). Two rounds
    /// suffice when someone took delivery: the first gives a
    /// just-attached subscriber its redelivery window, the second
    /// completes the entry. Single host, so the interest snapshot maps
    /// every pending subject to "no remote hosts".
    fn gd_rounds(&self, engine: &mut Engine, shard: usize, now: Micros, delivered: &mut usize) {
        for _ in 0..2 {
            let interest: HashMap<String, Vec<u32>> = engine
                .gd_subjects()
                .into_iter()
                .map(|s| (s, Vec::new()))
                .collect();
            if interest.is_empty() {
                return;
            }
            let actions = engine.handle(now, Event::GdRetry { interest });
            self.loopback(engine, shard, now, actions, delivered);
        }
    }

    /// Performs engine actions in loopback (the cold-path form taking an
    /// owned action vector; the fast path drains the shard's scratch
    /// through [`InprocBus::perform`] directly).
    fn loopback(
        &self,
        engine: &mut Engine,
        shard: usize,
        now: Micros,
        actions: Vec<Action>,
        delivered: &mut usize,
    ) {
        for action in actions {
            self.perform(engine, shard, now, action, delivered);
        }
    }

    /// Performs one engine action: broadcasts feed straight back into
    /// the engine's receive path and deliveries fan out to subscriber
    /// channels; local delivery doubles as the guaranteed
    /// acknowledgment. `Persist`/`Unpersist` land on the shared
    /// [`NvStore`] on behalf of `shard` — the write-ahead ledger when
    /// the bus is durable. Timers have no substrate here and are
    /// dropped — with a lossless in-memory loop there is never a gap to
    /// scan for, and guaranteed retry rounds run synchronously after
    /// each guaranteed publish instead.
    fn perform(
        &self,
        engine: &mut Engine,
        shard: usize,
        now: Micros,
        action: Action,
        delivered: &mut usize,
    ) {
        match action {
            Action::Broadcast(Packet::Data { envelopes, .. }) => {
                for env in envelopes {
                    let next = engine.handle(
                        now,
                        Event::Envelope {
                            env,
                            entitled: true,
                        },
                    );
                    self.loopback(engine, shard, now, next, delivered);
                }
            }
            Action::Broadcast(_) => {}
            // Unicasts here can only be acks for our own guaranteed
            // envelopes, looped back from the receive path. A real
            // daemon never hears its own broadcast, so feeding the
            // self-ack back would complete ledger entries nobody
            // received; on a single host, local delivery (below) is
            // the only acknowledgment that counts.
            Action::Unicast { .. } => {}
            Action::Deliver(env) => {
                let (count, suppressed) = self.fan_out(engine, &env);
                // The loopback receive path delivers guaranteed
                // envelopes as ordinary in-order deliveries; report
                // them into the ledger like the daemon driver does at
                // publish time. A predicate rejection counts as
                // consumption — the subscriber examined and declined
                // the message — so filtered guaranteed streams
                // complete instead of retrying forever.
                if env.qos == QoS::Guaranteed && count + suppressed > 0 {
                    engine.gd_local_done(&env);
                }
                *delivered += count;
            }
            Action::DeliverGd(env) => {
                let (count, suppressed) = self.fan_out(engine, &env);
                if count + suppressed > 0 {
                    engine.gd_local_done(&env);
                }
            }
            Action::Persist { key, bytes } => {
                self.inner
                    .nv
                    .lock()
                    .expect("lock poisoned")
                    .persist(shard, &key, &bytes);
            }
            Action::Unpersist { key } => {
                self.inner
                    .nv
                    .lock()
                    .expect("lock poisoned")
                    .unpersist(shard, &key);
            }
            Action::SetTimer { .. } => {}
        }
    }

    /// Hands an in-order envelope to every matching subscriber channel
    /// whose predicate (if any) accepts the payload — the delivery gate.
    /// Everything cloned here is a shared handle: the interned subject,
    /// the payload slice. Returns `(delivered, suppressed)`.
    fn fan_out(&self, engine: &mut Engine, env: &Envelope) -> (usize, usize) {
        let (count, suppressed) = self.interest().deliver(
            &env.subject,
            env.payload.len(),
            &mut None,
            || unmarshal(&env.payload),
            |tx| tx.send(Delivery::of(env)).is_ok(),
        );
        engine.stats.delivered += count as u64;
        engine.stats.delivered_bytes += (env.payload.len() * count) as u64;
        (count, suppressed)
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.interest().len()
    }

    /// Number of engine shards behind this bus (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// A snapshot of the engine's protocol counters merged across
    /// shards, with the live backpressure gauges (queued backlog and
    /// drop-oldest evictions) folded in.
    pub fn stats(&self) -> BusStats {
        self.sharded_stats().merged
    }

    /// The merged counters plus the per-shard breakdown. The queue
    /// gauges, the intern-table size, and the buffer-pool counters live
    /// on the bus, not a shard, and are folded into the merged snapshot
    /// only.
    pub fn sharded_stats(&self) -> ShardedStats {
        let per_shard: Vec<BusStats> = self
            .inner
            .shards
            .iter()
            .map(|m| m.lock().expect("lock poisoned").engine.stats.clone())
            .collect();
        let mut merged = BusStats::merged(per_shard.iter());
        let table = self.interest();
        let mut depth = 0u64;
        table.for_each_local(|_, tx| depth += tx.queued() as u64);
        table.fold_into(&mut merged);
        merged.sub_queue_depth = depth;
        merged.sub_queue_dropped = self.inner.queue_dropped.load(Ordering::Relaxed);
        merged.subj_interned = self.inner.table.len() as u64;
        merged.buf_pool_hits = self.inner.pool.hits();
        merged.buf_pool_misses = self.inner.pool.misses();
        self.inner
            .nv
            .lock()
            .expect("lock poisoned")
            .stamp_stats(&mut merged);
        ShardedStats { merged, per_shard }
    }
}

/// Unmarshals a self-describing payload with a fundamentals-only
/// registry (the payload carries its own type descriptors).
fn unmarshal(payload: &[u8]) -> Option<Value> {
    wire::unmarshal(payload, &mut TypeRegistry::with_fundamentals()).ok()
}

/// Opens the non-volatile store `cfg` asks for, builds the loopback
/// shard engines (sharing one subject intern table), and replays any
/// recovered ledger entries onto their owning shards (the arming actions
/// a daemon would run are dropped — the in-process loop retries
/// synchronously instead).
fn build_shards(cfg: BusConfig) -> (Vec<Mutex<ShardSlot>>, NvStore, SubjectTable) {
    let nv = NvStore::open(&cfg).expect("open guaranteed-delivery ledger");
    let sharded = ShardedEngine::new_loopback(cfg, INPROC_HOST);
    let table = sharded.table().clone();
    let recovered = nv
        .recovered_envelopes(&table)
        .expect("read guaranteed-delivery ledger");
    let mut engines = sharded.into_shards();
    if !recovered.is_empty() {
        let n = engines.len();
        let mut by_shard: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
        for env in recovered {
            by_shard[shard_of_subject(env.subject.as_str(), n)].push(env);
        }
        for (shard, envs) in by_shard.into_iter().enumerate() {
            if !envs.is_empty() {
                let _ = engines[shard].gd_load(envs);
            }
        }
    }
    let slots = engines
        .into_iter()
        .map(|engine| {
            Mutex::new(ShardSlot {
                engine,
                scratch: Vec::new(),
            })
        })
        .collect();
    (slots, nv, table)
}

impl Default for InprocBus {
    fn default() -> Self {
        InprocBus::new()
    }
}

impl Bus for InprocBus {
    fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        InprocBus::subscribe(self, filter)
    }

    fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        InprocBus::subscribe_filtered(self, filter, pred)
    }

    fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        InprocBus::publish(self, subject, value, qos)
    }

    fn unsubscribe(&self, sub: SubscriptionHandle) {
        InprocBus::unsubscribe(self, sub)
    }

    /// Delivery already happened inside `publish`.
    fn drain(&self) {}

    fn stats(&self) -> BusStats {
        InprocBus::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn publish_subscribe_round_trip() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("a.>").unwrap();
        let n = bus.publish("a.b", &Value::I64(7), QoS::Reliable).unwrap();
        assert_eq!(n, 1);
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(7));
    }

    #[test]
    fn no_subscriber_no_delivery() {
        let bus = InprocBus::new();
        let (_sub, _rx) = bus.subscribe("a.b").unwrap();
        assert_eq!(bus.publish("a.c", &Value::Nil, QoS::Reliable).unwrap(), 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let bus = InprocBus::new();
        let (sub, rx) = bus.subscribe("x.*").unwrap();
        bus.publish("x.1", &Value::Bool(true), QoS::Reliable)
            .unwrap();
        bus.unsubscribe(sub);
        assert_eq!(
            bus.publish("x.1", &Value::Bool(true), QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.subscription_count(), 0);
    }

    #[test]
    fn publish_marshaled_bypasses_the_marshaller() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("pre.>").unwrap();
        let registry = TypeRegistry::with_fundamentals();
        let bytes = wire::marshal_self_describing(&Value::I64(11), &registry).unwrap();
        assert_eq!(
            bus.publish_marshaled("pre.k", &bytes, QoS::Reliable)
                .unwrap(),
            1
        );
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(11));
    }

    #[test]
    fn steady_state_publishes_hit_the_buffer_pool() {
        // A small retain window so the reliable layer releases old
        // payloads during the test: a pooled buffer becomes reusable
        // only once the retransmission window rolls past it.
        let bus = InprocBus::with_config(BusConfig::default().with_retain_per_stream(4));
        let (_sub, rx) = bus.subscribe("pool.>").unwrap();
        for i in 0..50i64 {
            bus.publish("pool.k", &Value::I64(i), QoS::Reliable)
                .unwrap();
            // Drop the delivery so the pooled buffer is free again.
            let _ = rx.recv().unwrap();
        }
        let stats = bus.stats();
        assert_eq!(stats.subj_interned, 1);
        assert!(
            stats.buf_pool_hits >= 40,
            "expected near-total pool reuse, got hits={} misses={}",
            stats.buf_pool_hits,
            stats.buf_pool_misses
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("t.>").unwrap();
        let publisher = {
            let bus = bus.clone();
            thread::spawn(move || {
                for i in 0..100i64 {
                    bus.publish("t.k", &Value::I64(i), QoS::Reliable).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 100 {
            got.push(
                rx.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .value()
                    .unwrap(),
            );
        }
        publisher.join().unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], Value::I64(99));
    }

    #[test]
    fn objects_with_registered_types() {
        use infobus_types::{DataObject, TypeDescriptor, ValueType};
        let bus = InprocBus::new();
        bus.register_type(
            TypeDescriptor::builder("Quote")
                .attribute("px", ValueType::F64)
                .build(),
        )
        .unwrap();
        let (_sub, rx) = bus.subscribe("quotes.gmc").unwrap();
        let obj = DataObject::new("Quote").with("px", 12.5f64);
        bus.publish("quotes.gmc", &Value::object(obj.clone()), QoS::Reliable)
            .unwrap();
        let got = rx.recv().unwrap().value().unwrap();
        assert_eq!(got.as_object().unwrap(), &obj);
    }

    #[test]
    fn stalled_subscriber_memory_is_bounded() {
        // A subscriber that never drains must not grow memory without
        // bound: with a queue cap, the oldest messages are evicted and
        // counted, and the newest `cap` messages are retained.
        let cap = 64usize;
        let bus = InprocBus::with_config(BusConfig::default().with_subscriber_queue_cap(cap));
        let (_stalled, stalled_rx) = bus.subscribe("load.>").unwrap();
        let total = 10_000i64;
        for i in 0..total {
            bus.publish("load.k", &Value::I64(i), QoS::Reliable)
                .unwrap();
        }
        let stats = bus.stats();
        assert_eq!(stats.sub_queue_depth, cap as u64);
        assert_eq!(stats.sub_queue_dropped, (total as u64) - cap as u64);
        // The retained backlog is exactly the newest `cap` messages.
        let got: Vec<i64> = stalled_rx
            .try_iter()
            .map(|m| m.value().unwrap().as_i64().unwrap())
            .collect();
        let expect: Vec<i64> = (total - cap as i64..total).collect();
        assert_eq!(got, expect);
        // Draining brings the gauge back to zero.
        assert_eq!(bus.stats().sub_queue_depth, 0);
    }

    #[test]
    fn engine_sequences_publications() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("s.>").unwrap();
        for i in 0..10i64 {
            bus.publish("s.k", &Value::I64(i), QoS::Reliable).unwrap();
        }
        let got: Vec<Value> = rx.try_iter().map(|m| m.value().unwrap()).collect();
        assert_eq!(got, (0..10).map(Value::I64).collect::<Vec<_>>());
        let stats = bus.stats();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.dups_dropped, 0);
    }

    #[test]
    fn sharded_bus_keeps_per_subject_order_and_merges_stats() {
        let bus = InprocBus::with_config(BusConfig::default().with_shards(4));
        assert_eq!(bus.shard_count(), 4);
        let subjects = ["alpha.k", "bravo.k", "charlie.k", "delta.k", "echo.k"];
        let mut rxs = Vec::new();
        for s in subjects {
            rxs.push(bus.subscribe(s).unwrap().1);
        }
        for i in 0..50i64 {
            for s in subjects {
                bus.publish(s, &Value::I64(i), QoS::Reliable).unwrap();
            }
        }
        for rx in &rxs {
            let got: Vec<Value> = rx.try_iter().map(|m| m.value().unwrap()).collect();
            assert_eq!(got, (0..50).map(Value::I64).collect::<Vec<_>>());
        }
        let snap = bus.sharded_stats();
        assert_eq!(snap.per_shard.len(), 4);
        assert_eq!(snap.merged.published, 250);
        assert_eq!(snap.merged.delivered, 250);
        // The publications really spread over more than one shard.
        let active = snap.per_shard.iter().filter(|s| s.published > 0).count();
        assert!(active > 1, "all subjects hashed to one shard");
        let sum: u64 = snap.per_shard.iter().map(|s| s.published).sum();
        assert_eq!(sum, snap.merged.published);
    }

    #[test]
    fn guaranteed_publish_delivers_and_completes_the_ledger() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        let n = bus
            .publish("gd.k", &Value::I64(9), QoS::Guaranteed)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(9));
        let stats = bus.stats();
        // Persist-before-send happened, the local delivery acknowledged
        // it, and the synchronous retry rounds released the entry.
        assert_eq!(stats.gd_completed, 1);
        assert_eq!(stats.gd_pending, 0);
    }

    #[test]
    fn guaranteed_publish_without_subscriber_stays_pending_until_one_appears() {
        let bus = InprocBus::new();
        bus.publish("gd.orphan", &Value::I64(1), QoS::Guaranteed)
            .unwrap();
        assert_eq!(bus.stats().gd_pending, 1);
        // A subscriber attaches; the next guaranteed publish on the shard
        // runs a retry round, which redelivers the pending entry.
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        bus.publish("gd.other", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let subjects: Vec<String> = rx
            .try_iter()
            .map(|m| m.subject.as_str().to_owned())
            .collect();
        assert!(subjects.contains(&"gd.orphan".to_owned()), "{subjects:?}");
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 0);
        assert_eq!(stats.gd_completed, 2);
    }

    /// Restart durability: a durable bus "dies" with an unacknowledged
    /// guaranteed publication on its ledger; a fresh bus over the same
    /// directory replays it and redelivers to a new subscriber.
    #[test]
    fn durable_bus_replays_ledger_across_restart() {
        let dir = infobus_wal::scratch::ScratchDir::new("inproc-durable");
        let cfg = || BusConfig::default().with_durable_dir(dir.path());
        {
            let bus = InprocBus::with_config(cfg());
            bus.publish("gd.orphan", &Value::I64(1), QoS::Guaranteed)
                .unwrap();
            assert_eq!(bus.stats().gd_pending, 1);
            assert!(bus.stats().gd_ledger_appends >= 1);
        }
        let bus = InprocBus::with_config(cfg());
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 1, "ledger entry must reload");
        assert_eq!(stats.gd_ledger_recovered, 1);
        // A subscriber appears; the next guaranteed publish runs a retry
        // round, which redelivers the recovered entry — flagged.
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        bus.publish("gd.other", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let msgs: Vec<_> = rx.try_iter().collect();
        let orphan = msgs
            .iter()
            .find(|m| m.subject == "gd.orphan")
            .expect("recovered entry redelivered");
        assert!(orphan.redelivery);
        assert_eq!(bus.stats().gd_pending, 0);
        // Completion tombstoned the replayed entry: a third restart has
        // nothing to recover.
        drop(bus);
        assert_eq!(InprocBus::with_config(cfg()).stats().gd_pending, 0);
    }

    #[test]
    fn guaranteed_redelivery_is_flagged() {
        let bus = InprocBus::new();
        bus.publish("gd.flag", &Value::I64(1), QoS::Guaranteed)
            .unwrap();
        let (_sub, rx) = bus.subscribe("gd.flag").unwrap();
        bus.publish("gd.flag", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let msgs: Vec<Delivery> = rx.try_iter().collect();
        let redelivered = msgs.iter().find(|m| m.redelivery).expect("a redelivery");
        assert_eq!(redelivered.value().unwrap(), Value::I64(1));
    }

    fn quote(sym: &str, price: f64) -> Value {
        use infobus_types::DataObject;
        Value::object(
            DataObject::new("Quote")
                .with("sym", sym)
                .with("price", price),
        )
    }

    fn quote_descriptor() -> infobus_types::TypeDescriptor {
        use infobus_types::{TypeDescriptor, ValueType};
        TypeDescriptor::builder("Quote")
            .attribute("sym", ValueType::Str)
            .attribute("price", ValueType::F64)
            .build()
    }

    fn quote_bus() -> InprocBus {
        let bus = InprocBus::new();
        bus.register_type(quote_descriptor()).unwrap();
        bus
    }

    #[test]
    fn filtered_subscription_delivers_only_matching_payloads() {
        let bus = quote_bus();
        let (_sub, rx) = bus
            .subscribe_filtered("q.>", &Predicate::gt("price", Value::F64(100.0)))
            .unwrap();
        bus.publish("q.ibm", &quote("IBM", 120.0), QoS::Reliable)
            .unwrap();
        bus.publish("q.gmc", &quote("GMC", 80.0), QoS::Reliable)
            .unwrap();
        bus.publish("q.ibm", &quote("IBM", 150.0), QoS::Reliable)
            .unwrap();
        let got: Vec<f64> = rx
            .try_iter()
            .map(|m| {
                m.value()
                    .unwrap()
                    .as_object()
                    .unwrap()
                    .get("price")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(got, vec![120.0, 150.0]);
    }

    #[test]
    fn unanimous_rejection_suppresses_at_the_publish_gate() {
        let bus = quote_bus();
        let (_sub, rx) = bus
            .subscribe_filtered("g.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        // Rejected by the only matching predicate: suppressed before
        // sequencing — nothing published, nothing delivered, no seq gap.
        assert_eq!(
            bus.publish("g.t", &quote("GMC", 1.0), QoS::Reliable)
                .unwrap(),
            0
        );
        let stats = bus.stats();
        assert_eq!(stats.published, 0, "suppressed before sequencing");
        assert_eq!(stats.filt_pub_suppressed, 1);
        assert!(stats.filt_suppressed_bytes > 0);
        assert!(stats.filt_evals >= 1);
        // An accepted publication still flows, in order.
        bus.publish("g.t", &quote("IBM", 2.0), QoS::Reliable)
            .unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.stats().published, 1);
    }

    #[test]
    fn predicate_free_subscriber_defeats_the_publish_gate() {
        let bus = quote_bus();
        let (_all, all_rx) = bus.subscribe("m.>").unwrap();
        let (_filtered, filt_rx) = bus
            .subscribe_filtered("m.>", &Predicate::ge("price", Value::F64(100.0)))
            .unwrap();
        // The unfiltered subscriber forces the send; the filtered one is
        // still gated per delivery.
        bus.publish("m.k", &quote("GMC", 10.0), QoS::Reliable)
            .unwrap();
        assert_eq!(all_rx.try_iter().count(), 1);
        assert_eq!(filt_rx.try_iter().count(), 0);
        let stats = bus.stats();
        assert_eq!(stats.filt_pub_suppressed, 0);
        assert_eq!(stats.filt_delivery_suppressed, 1);
        // The delivery gate counts the suppressed payload's bytes too.
        let mut registry = TypeRegistry::with_fundamentals();
        registry.register(quote_descriptor()).unwrap();
        let payload = wire::marshal_self_describing(&quote("GMC", 10.0), &registry).unwrap();
        assert_eq!(stats.filt_suppressed_bytes, payload.len() as u64);
    }

    #[test]
    fn publish_marshaled_is_gated_too() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus
            .subscribe_filtered("pm.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        let mut registry = TypeRegistry::with_fundamentals();
        registry.register(quote_descriptor()).unwrap();
        let reject = wire::marshal_self_describing(&quote("GMC", 1.0), &registry).unwrap();
        let accept = wire::marshal_self_describing(&quote("IBM", 2.0), &registry).unwrap();
        assert_eq!(
            bus.publish_marshaled("pm.k", &reject, QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(
            bus.publish_marshaled("pm.k", &accept, QoS::Reliable)
                .unwrap(),
            1
        );
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.stats().filt_pub_suppressed, 1);
    }

    #[test]
    fn guaranteed_filtered_rejection_counts_as_consumption() {
        // Two subscribers: one unfiltered (so the publish gate sends),
        // one whose predicate rejects. The guaranteed entry must
        // complete — a predicate rejection is a consumption decision,
        // not a delivery failure to retry.
        let bus = quote_bus();
        let (_all, all_rx) = bus.subscribe("gdf.>").unwrap();
        let (_filtered, filt_rx) = bus
            .subscribe_filtered("gdf.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        bus.publish("gdf.k", &quote("GMC", 5.0), QoS::Guaranteed)
            .unwrap();
        assert_eq!(all_rx.try_iter().count(), 1);
        assert_eq!(filt_rx.try_iter().count(), 0);
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 0, "rejection must not strand the ledger");
        assert_eq!(stats.gd_completed, 1);
    }

    #[test]
    fn semantic_map_canonicalizes_publishes_and_expands_filters() {
        let mut map = infobus_router::SubjectMap::new();
        map.add_alias("NYSE.IBM", "tech.IBM").unwrap();
        let bus = InprocBus::with_config(BusConfig::default().with_subject_map(Arc::new(map)));
        // A subscriber on the canonical subject sees synonym publishes…
        let (_canon, canon_rx) = bus.subscribe("tech.IBM").unwrap();
        bus.publish("NYSE.IBM", &Value::I64(1), QoS::Reliable)
            .unwrap();
        assert_eq!(canon_rx.try_iter().count(), 1);
        // …and a subscriber on the synonym sees canonical publishes
        // (its filter was expanded to the canonical form).
        let (_syn, syn_rx) = bus.subscribe("NYSE.IBM").unwrap();
        bus.publish("tech.IBM", &Value::I64(2), QoS::Reliable)
            .unwrap();
        assert_eq!(syn_rx.try_iter().count(), 1);
        let stats = bus.stats();
        assert_eq!(stats.sem_canonicalized, 1);
        assert!(stats.sem_expanded_filters >= 1);
        // Delivered subjects are always canonical.
    }

    #[test]
    fn semantic_expansion_unsubscribes_as_a_family() {
        let mut map = infobus_router::SubjectMap::new();
        map.add_alias("old.path", "new.path").unwrap();
        let bus = InprocBus::with_config(BusConfig::default().with_subject_map(Arc::new(map)));
        let (sub, rx) = bus.subscribe("old.path").unwrap();
        bus.publish("old.path", &Value::I64(1), QoS::Reliable)
            .unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        bus.unsubscribe(sub);
        assert_eq!(bus.subscription_count(), 0, "expanded entries removed too");
        assert_eq!(
            bus.publish("new.path", &Value::I64(2), QoS::Reliable)
                .unwrap(),
            0
        );
    }

    #[test]
    fn bus_trait_object_drives_the_inproc_bus() {
        let boxed: Box<dyn Bus> = Box::new(InprocBus::new());
        let (sub, rx) = boxed.subscribe("dyn.>").unwrap();
        assert_eq!(
            boxed
                .publish("dyn.k", &Value::I64(5), QoS::Reliable)
                .unwrap(),
            1
        );
        boxed.drain();
        assert_eq!(rx.try_recv().unwrap().value().unwrap(), Value::I64(5));
        boxed.unsubscribe(sub);
        assert_eq!(
            boxed
                .publish("dyn.k", &Value::I64(6), QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(boxed.stats().published, 2);
    }
}
