//! The layer-isolation pass: replays a workload's generated messages
//! through each public stage function a publish is made of, one message
//! at a time in publish order, with a span around every stage call. The
//! stage spans of a message partition its `iso.publish` span, so their
//! sum can be compared with the composed publish call, timed on the same
//! messages: a large gap means some stage of a publish goes unmeasured.
//! The two alternate in blocks of `BLOCK` messages, so a change in the
//! host's speed during the pass reaches both alike.
//!
//! Stages timed on the receive side (decode, trie match, ingest,
//! unmarshal) and stages a workload does not put on its publish path
//! are recorded as separate root spans and are not part of the sum.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use infobus_core::engine::filter::interest_accepts;
use infobus_core::engine::{Action, Engine, Event, PubSource};
use infobus_core::msg::{AnnounceEntry, Packet};
use infobus_core::queue::{sub_queue, SubReceiver, SubSender};
use infobus_core::{BufPool, Bytes, CompiledPredicate, Delivery, EnvelopeKind};
use infobus_net::frame::{decode_frame, encode_frame};
use infobus_net::{UdpBus, UdpConfig};
use infobus_subject::{Subject, SubjectFilter, SubjectTrie};
use infobus_types::{wire, TypeRegistry, Value};

use crate::trace::Trace;
use crate::util::{mean, median};
use crate::workload::Workload;

/// How far the stage sum may stray from the composed publish call
/// before the pass reports that the stages do not account for it:
/// `|sum / composed - 1| <= ISOLATION_BOUND`. A traced run outside it
/// is not correct.
pub const ISOLATION_BOUND: f64 = 0.2;

/// Messages the pass replays, smoke runs included: fewer leave the UDP
/// ratio to the hash-order draws of a handful of filter tables.
pub const ISOLATION_MESSAGES: usize = 20_000;

/// Messages between rebuilds of the replayed announced-filter table (and
/// of the composed UDP publisher, whose table it stands for).
const REHASH: u64 = 25;
/// Messages the composed call and the stage replay each run before the
/// other takes over; a multiple of `REHASH`.
const BLOCK: u64 = 500;

pub struct Isolation {
    pub trace: Trace,
    /// Predicate evaluations made by the filter stages.
    pub evals: u64,
    /// Mean marshalled payload size, bytes.
    pub payload_bytes: f64,
    /// Cost of one span boundary (a clock read), subtracted from
    /// per-call means.
    pub timer_ns: f64,
}

impl Isolation {
    /// Median over messages of the publish stages' summed time, ns. The
    /// stage spans of a message partition its `iso.publish` span, so this
    /// is the median `iso.publish` duration.
    pub fn stage_sum_ns(&self) -> f64 {
        median(&self.trace.durations("iso.publish"))
    }

    /// Median composed publish call on the same messages, ns.
    pub fn composed_ns(&self) -> f64 {
        median(&self.trace.durations("iso.composed"))
    }

    /// Mean time of one call of `stage`, net of the clock read, ns;
    /// `None` when the replay never ran the stage.
    pub fn per_call_ns(&self, stage: &str) -> Option<f64> {
        let d = self.trace.durations(stage);
        (!d.is_empty()).then(|| (mean(&d) - self.timer_ns).max(0.0))
    }
}

/// Mean cost of reading the clock once between two stages.
fn timer_overhead_ns() -> f64 {
    let n = 20_000u32;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..n {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(n)
}

struct Sink {
    tx: UdpSocket,
    rx: UdpSocket,
    to: SocketAddr,
    buf: Vec<u8>,
}

impl Sink {
    fn new() -> Result<Sink, String> {
        let err = |e: std::io::Error| format!("sink socket: {e}");
        let rx = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
        rx.set_nonblocking(true).map_err(err)?;
        let tx = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
        Ok(Sink {
            tx,
            to: rx.local_addr().map_err(err)?,
            rx,
            buf: vec![0; 64 * 1024],
        })
    }

    /// One datagram, sent the way the bus sends: `send_to` on an
    /// unconnected socket.
    fn send(&self, frame: &[u8]) {
        let _ = self.tx.send_to(frame, self.to);
    }

    /// Empties the receive buffer (outside any span) so sends never
    /// meet a full socket.
    fn drain(&mut self) {
        while self.rx.recv(&mut self.buf).is_ok() {}
    }
}

/// All filters of the workload's subscriber population, expanded by the
/// semantic map the way the drivers expand them.
fn population(w: &Workload) -> Result<Vec<SubjectFilter>, String> {
    let mut out = Vec::new();
    for f in w.matching.iter().chain(&w.others) {
        let forms = match &w.map {
            Some(m) => m.expand_filter(f),
            None => vec![f.clone()],
        };
        for form in forms {
            out.push(SubjectFilter::new(&form).map_err(|e| format!("filter {form}: {e}"))?);
        }
    }
    Ok(out)
}

/// The composed publish call, timed on the same messages under the same
/// conditions as the stage replay: one thread and nothing else running.
/// A UDP publisher's only peer is a socket that announced the
/// workload's filters and is emptied between calls; the daemon is
/// rebuilt every `REHASH` messages, like the replayed filter table.
enum Composed {
    Inproc(crate::inproc::Bus),
    Udp { sink: Sink, announce: Vec<u8> },
}

impl Composed {
    fn new(w: &Workload) -> Result<Composed, String> {
        if !w.is_udp() {
            return Ok(Composed::Inproc(crate::inproc::setup(w)?.0));
        }
        let announce = encode_frame(
            2,
            &Packet::SubAnnounce {
                host: 2,
                full: true,
                add: w
                    .matching
                    .iter()
                    .chain(&w.others)
                    .map(|f| AnnounceEntry {
                        filter: f.clone(),
                        pred: Vec::new(),
                    })
                    .collect(),
                remove: Vec::new(),
            },
        );
        Ok(Composed::Udp {
            sink: Sink::new()?,
            announce,
        })
    }

    /// Publishes messages `range`, a span around each call.
    fn run(&mut self, w: &Workload, range: Range<u64>, trace: &mut Trace) -> Result<(), String> {
        let err = |e: infobus_core::BusError| e.to_string();
        let (sink, announce) = match self {
            Composed::Inproc(b) => {
                for i in range {
                    let m = w.message(i);
                    let t0 = Instant::now();
                    b.bus
                        .publish(&w.subjects[m.subject], &m.value, m.qos)
                        .map_err(err)?;
                    let t1 = Instant::now();
                    trace.record("iso.composed", i, t0, t1, None);
                    for rx in &b.rxs {
                        while rx.try_recv().is_ok() {}
                    }
                }
                return Ok(());
            }
            Composed::Udp { sink, announce } => (sink, announce),
        };
        let want = w.matching.len() + w.others.len();
        let mut i = range.start;
        while i < range.end {
            let p = UdpBus::bind(UdpConfig::new(1).with_bus(w.cfg.clone())).map_err(err)?;
            p.register_type(w.descriptor.clone()).map_err(err)?;
            p.add_peer(2, sink.to).map_err(err)?;
            sink.rx
                .send_to(announce, p.local_addr())
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            while p.peer_filters().len() < want {
                if t.elapsed() > Duration::from_secs(10) {
                    return Err("isolated publisher never learned the filters".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            for _ in 0..REHASH.min(range.end - i) {
                let m = w.message(i);
                let t0 = Instant::now();
                p.publish(&w.subjects[m.subject], &m.value, m.qos)
                    .map_err(err)?;
                let t1 = Instant::now();
                trace.record("iso.composed", i, t0, t1, None);
                sink.drain();
                i += 1;
            }
        }
        Ok(())
    }
}

pub fn isolate(w: &Workload, messages: usize, base: Instant) -> Result<Isolation, String> {
    let timer_ns = timer_overhead_ns();
    let mut composed = Composed::new(w)?;
    let mut registry = TypeRegistry::with_fundamentals();
    registry
        .register(w.descriptor.clone())
        .map_err(|e| e.to_string())?;
    let filters = population(w)?;
    let mut trie: SubjectTrie<()> = SubjectTrie::new();
    for f in &filters {
        trie.insert(f, ());
    }
    let mut r = Replay {
        w,
        registry,
        rx_registry: TypeRegistry::with_fundamentals(),
        pool: BufPool::with_slots(w.cfg.marshal_pool_slots()),
        source: PubSource {
            app: "perfbench".into(),
            inc: 1,
            route: None,
        },
        clock: Instant::now(),
        out: Vec::new(),
        trie,
        trace: Trace::new(base),
        evals: 0,
        payload_bytes: 0,
    };
    let mut stages = if w.is_udp() {
        Stages::Udp(Box::new(UdpStages::new(w, filters)?))
    } else {
        Stages::Inproc(Box::new(InprocStages::new(w)?))
    };
    let messages = messages as u64;
    for start in (0..messages).step_by(BLOCK as usize) {
        let block = start..(start + BLOCK).min(messages);
        composed.run(w, block.clone(), &mut r.trace)?;
        match &mut stages {
            Stages::Udp(s) => r.udp(s, block)?,
            Stages::Inproc(s) => r.inproc(s, block)?,
        }
    }
    // Suppressed publications are never marshalled.
    let marshalled = r.trace.durations("wire.marshal").len().max(1);
    Ok(Isolation {
        payload_bytes: r.payload_bytes as f64 / marshalled as f64,
        trace: r.trace,
        evals: r.evals,
        timer_ns,
    })
}

/// What the stage replay of each workload keeps between blocks.
enum Stages {
    Udp(Box<UdpStages>),
    Inproc(Box<InprocStages>),
}

struct UdpStages {
    filters: Vec<SubjectFilter>,
    /// The publisher's table of announced remote filters, keyed like the
    /// UDP driver's and scanned in hash order until the first match.
    /// Where the match sits is down to the table's random hash seed, so
    /// the table is rebuilt (fresh seed) every `REHASH` messages and the
    /// pass averages over many orders, as many daemons would.
    announced: HashMap<String, SubjectFilter>,
    tx: Engine,
    rx: Engine,
    sink: Sink,
}

impl UdpStages {
    fn new(w: &Workload, filters: Vec<SubjectFilter>) -> Result<UdpStages, String> {
        Ok(UdpStages {
            announced: UdpStages::table(&filters),
            filters,
            tx: Engine::new(w.cfg.clone(), 1),
            rx: Engine::new(w.cfg.clone(), 2),
            sink: Sink::new()?,
        })
    }

    fn table(filters: &[SubjectFilter]) -> HashMap<String, SubjectFilter> {
        filters
            .iter()
            .map(|f| (f.as_str().to_owned(), f.clone()))
            .collect()
    }
}

struct InprocStages {
    /// Predicated interests in subscription order, each with its own
    /// subscriber queue.
    preds: Vec<CompiledPredicate>,
    queues: Vec<(SubSender<Delivery>, SubReceiver<Delivery>)>,
    tx: Engine,
}

impl InprocStages {
    fn new(w: &Workload) -> Result<InprocStages, String> {
        let preds: Vec<CompiledPredicate> = (0..w.thresholds.len())
            .map(|k| CompiledPredicate::compile(&w.predicate(k)).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(InprocStages {
            queues: preds
                .iter()
                .map(|_| sub_queue::<Delivery>(0, Arc::new(AtomicU64::new(0))))
                .collect(),
            preds,
            tx: Engine::new_loopback(w.cfg.clone(), 1),
        })
    }
}

/// State of one replay.
struct Replay<'a> {
    w: &'a Workload,
    registry: TypeRegistry,
    /// The receiving side's registry, filled from self-describing
    /// payloads as a subscriber's would be.
    rx_registry: TypeRegistry,
    pool: BufPool,
    source: PubSource,
    clock: Instant,
    out: Vec<Action>,
    /// The subscriber population.
    trie: SubjectTrie<()>,
    trace: Trace,
    evals: u64,
    payload_bytes: usize,
}

impl Replay<'_> {
    fn now_us(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64 + 1
    }

    fn marshal(&mut self, value: &Value) -> Result<Bytes, String> {
        let mut buf = self.pool.take();
        wire::marshal_self_describing_into(buf.vec_mut(), value, &self.registry)
            .map_err(|e| e.to_string())?;
        let payload = buf.freeze();
        self.payload_bytes += payload.len();
        Ok(payload)
    }

    /// Records message `i`'s `iso.publish` span and its stage spans.
    fn record(
        &mut self,
        i: u64,
        start: Instant,
        end: Instant,
        stages: &[(&'static str, Instant, Instant)],
    ) {
        let root = self.trace.record("iso.publish", i, start, end, None);
        for &(name, a, b) in stages {
            self.trace.record(name, i, a, b, Some(root));
        }
    }

    /// UDP publish stages — gate scan, marshal, intern, engine, frame,
    /// send — then the receive side of each datagram: decode, trie match,
    /// ingest, unmarshal.
    fn udp(&mut self, s: &mut UdpStages, range: Range<u64>) -> Result<(), String> {
        let w = self.w;
        let UdpStages {
            filters,
            announced,
            tx,
            rx,
            sink,
        } = s;
        for i in range {
            if i % REHASH == REHASH - 1 {
                *announced = UdpStages::table(filters);
            }
            let m = w.message(i);
            let text = w.subjects[m.subject].as_str();
            let t0 = Instant::now();
            let subject = Subject::new(text).map_err(|e| e.to_string())?;
            for f in announced.values() {
                if f.matches(&subject) {
                    break;
                }
            }
            let t1 = Instant::now();
            let payload = self.marshal(&m.value)?;
            let t2 = Instant::now();
            let interned = tx.table().intern(text).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            self.out.clear();
            let now = self.now_us();
            let env = tx.publish_into(
                now,
                &self.source,
                &interned,
                m.qos,
                EnvelopeKind::Data,
                0,
                payload,
                &mut self.out,
            );
            tx.enqueue_into(&env, &mut self.out);
            let t4 = Instant::now();
            let frames: Vec<Vec<u8>> = self
                .out
                .drain(..)
                .filter_map(|a| match a {
                    Action::Broadcast(p) => Some(encode_frame(1, &p)),
                    _ => None,
                })
                .collect();
            let t5 = Instant::now();
            for f in &frames {
                sink.send(f);
            }
            let t6 = Instant::now();
            self.record(
                i,
                t0,
                t6,
                &[
                    ("subject.scan", t0, t1),
                    ("wire.marshal", t1, t2),
                    ("subject.intern", t2, t3),
                    ("engine.publish", t3, t4),
                    ("frame.encode", t4, t5),
                    ("net.sendto", t5, t6),
                ],
            );
            for f in &frames {
                self.receive(i, rx, f)?;
            }
            if i % 32 == 31 {
                sink.drain();
            }
        }
        Ok(())
    }

    /// The receive path of one datagram, each stage a root span.
    fn receive(&mut self, i: u64, rx: &mut Engine, frame: &[u8]) -> Result<(), String> {
        let t0 = Instant::now();
        let (_, packet) = decode_frame(frame, rx.table()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        self.trace.record("frame.decode", i, t0, t1, None);
        let Packet::Data { envelopes, .. } = packet else {
            return Ok(());
        };
        for env in envelopes {
            let t0 = Instant::now();
            let hits = self.trie.matches(&env.subject).count();
            let t1 = Instant::now();
            std::hint::black_box(hits);
            let now = self.now_us();
            let actions = rx.handle(
                now,
                Event::Envelope {
                    env,
                    entitled: true,
                },
            );
            let t2 = Instant::now();
            self.trace.record("subject.trie_match", i, t0, t1, None);
            self.trace.record("engine.ingest", i, t1, t2, None);
            for a in actions {
                if let Action::Deliver(e) = a {
                    let t0 = Instant::now();
                    let v = wire::unmarshal(&e.payload, &mut self.rx_registry)
                        .map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    std::hint::black_box(v);
                    self.trace.record("wire.unmarshal", i, t0, t1, None);
                }
            }
        }
        Ok(())
    }

    /// In-process publish stages — canonicalize, intern, publish gate,
    /// marshal, engine with loopback, unmarshal, delivery gate, queue
    /// sends — then, as a root span, the trie match the fan-out cache
    /// falls back to on a miss.
    fn inproc(&mut self, s: &mut InprocStages, range: Range<u64>) -> Result<(), String> {
        let w = self.w;
        let InprocStages { preds, queues, tx } = s;
        for i in range {
            let m = w.message(i);
            let text = w.subjects[m.subject].as_str();
            let t0 = Instant::now();
            let canonical = w.map.as_ref().and_then(|map| map.canonicalize(text));
            let t1 = Instant::now();
            let interned = tx
                .table()
                .intern(canonical.as_deref().unwrap_or(text))
                .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let sent = interest_accepts(&m.value, preds.iter().map(Some), &mut self.evals);
            let t3 = Instant::now();
            let mut stages = vec![
                ("semantic.canonicalize", t0, t1),
                ("subject.intern", t1, t2),
                ("filter.gate", t2, t3),
            ];
            let mut end = t3;
            if sent {
                let payload = self.marshal(&m.value)?;
                let t4 = Instant::now();
                self.out.clear();
                let now = self.now_us();
                let env = tx.publish_into(
                    now,
                    &self.source,
                    &interned,
                    m.qos,
                    EnvelopeKind::Data,
                    0,
                    payload,
                    &mut self.out,
                );
                tx.handle_into(
                    now,
                    Event::Envelope {
                        env,
                        entitled: true,
                    },
                    &mut self.out,
                );
                let t5 = Instant::now();
                let env = self
                    .out
                    .drain(..)
                    .find_map(|a| match a {
                        Action::Deliver(e) => Some(e),
                        _ => None,
                    })
                    .ok_or("loopback engine did not deliver")?;
                let value = wire::unmarshal(&env.payload, &mut self.rx_registry)
                    .map_err(|e| e.to_string())?;
                let t6 = Instant::now();
                let mut mask = 0u64;
                for (k, p) in preds.iter().enumerate() {
                    if p.eval(&value) {
                        mask |= 1 << k;
                    }
                }
                self.evals += preds.len() as u64;
                let t7 = Instant::now();
                for (k, (q, _)) in queues.iter().enumerate() {
                    if mask & 1 << k != 0 {
                        let _ = q.send(Delivery {
                            subject: env.subject.clone(),
                            payload: env.payload.clone(),
                            redelivery: env.redelivery,
                            qos: env.qos,
                            route: env.route,
                        });
                    }
                }
                end = Instant::now();
                stages.extend([
                    ("wire.marshal", t3, t4),
                    ("engine.publish", t4, t5),
                    ("wire.unmarshal", t5, t6),
                    ("filter.deliver_gate", t6, t7),
                    ("queue.send", t7, end),
                ]);
            }
            self.record(i, t0, end, &stages);
            let t0 = Instant::now();
            let hits = self.trie.matches(&interned).count();
            let t1 = Instant::now();
            std::hint::black_box(hits);
            self.trace.record("subject.trie_match", i, t0, t1, None);
            for (_, r) in queues.iter() {
                while r.try_recv().is_ok() {}
            }
        }
        Ok(())
    }
}
