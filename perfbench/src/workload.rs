//! The three workloads: their populations, configurations and
//! generated messages. Everything here derives from the seed; the bus
//! only ever sees the generated inputs.

use std::sync::Arc;
use std::time::Duration;

use infobus_core::{BusConfig, Predicate, QoS, SubjectMap};
use infobus_types::{DataObject, TypeDescriptor, Value, ValueType};

use crate::util::{mix, Rng};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Two `UdpBus` daemons, batching off, no loss, ~170 B quotes, 1,000
    /// announced non-matching remote filters at the publisher.
    UdpQuotes,
    /// Two `UdpBus` daemons, batching on, 1% receive loss at the
    /// subscriber, ~1 KB stories, 10% guaranteed.
    UdpLossyGd,
    /// One `InprocBus`, semantic aliases, 64 predicated interests plus
    /// 2,000 non-matching subscriptions.
    InprocFiltered,
}

pub const WORKLOADS: [&str; 3] = ["udp_quotes", "udp_lossy_gd", "inproc_filtered"];

/// Venues of `inproc_filtered`; the first and third are aliases of the
/// second and fourth, so half the published subjects canonicalize.
const VENUES: [&str; 4] = ["nyse", "xnys", "nasdaq", "xnas"];
const ALIASES: [(&str, &str); 2] = [("mkt.nyse", "mkt.xnys"), ("mkt.nasdaq", "mkt.xnas")];
/// Prices are uniform in `[0, PX_MAX)`; predicate thresholds spread
/// over the same range, so a quote matches about half the interests.
const PX_MAX: f64 = 100.0;

/// One generated publication.
pub struct Msg {
    /// Index into [`Workload::subjects`].
    pub subject: usize,
    pub value: Value,
    pub qos: QoS,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub seed: u64,
    /// Published subject texts.
    pub subjects: Vec<String>,
    /// The subject each published form is delivered under (differs from
    /// `subjects` only where a semantic alias applies).
    pub canonical: Vec<String>,
    /// Filters whose subscriptions receive the stream.
    pub matching: Vec<String>,
    /// Subscriptions that never match a published subject.
    pub others: Vec<String>,
    /// `px > threshold` of each predicated interest (`inproc_filtered`).
    pub thresholds: Vec<f64>,
    pub map: Option<Arc<SubjectMap>>,
    pub descriptor: TypeDescriptor,
    pub cfg: BusConfig,
    /// Injected receive loss at the subscribing daemon.
    pub sub_loss: f64,
    /// Offered rate of the open-loop phase, publications per second. It
    /// is fixed, so a change that moves throughput does not also move the
    /// load latency is measured at, and it stays a fraction of the
    /// workload's closed-loop `msgs_s` measured on a 2-vCPU Xeon VM, so
    /// the open loop runs well below saturation.
    pub open_rate: f64,
    /// Closed loop: most undelivered publications in flight (UDP) or
    /// publications between queue drains (inproc).
    pub window: u64,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let w = match name {
            "udp_quotes" => {
                let subjects: Vec<String> = (0..256).map(|k| format!("mkt.s{k}")).collect();
                // Non-matching interest: deeper subjects under the same
                // prefix and unrelated trees, so the remote-filter scan
                // does realistic element comparisons.
                let others = (0..1000)
                    .map(|i| {
                        if i % 2 == 0 {
                            format!("mkt.s{}.book{i}", rng.below(256))
                        } else {
                            format!("ref.r{i}.>")
                        }
                    })
                    .collect();
                Workload {
                    name: "udp_quotes",
                    kind: Kind::UdpQuotes,
                    seed,
                    canonical: subjects.clone(),
                    subjects,
                    matching: vec!["mkt.>".into()],
                    others,
                    thresholds: Vec::new(),
                    map: None,
                    descriptor: quote_descriptor(),
                    cfg: BusConfig::default(),
                    sub_loss: 0.0,
                    // A third of the slowest closed-loop figure measured
                    // (15k msgs/s; the hash-order draw ranged to 45k).
                    open_rate: 5_000.0,
                    window: 64,
                }
            }
            "udp_lossy_gd" => {
                // Few subjects, so each loss holds back several later
                // stories of its subject until repaired: the repair path,
                // not chance, sets the latency tail.
                let subjects: Vec<String> = (0..8).map(|k| format!("news.t{k}")).collect();
                let others = (0..9).map(|i| format!("wire.w{i}.>")).collect();
                Workload {
                    name: "udp_lossy_gd",
                    kind: Kind::UdpLossyGd,
                    seed,
                    canonical: subjects.clone(),
                    subjects,
                    matching: vec!["news.>".into()],
                    others,
                    thresholds: Vec::new(),
                    map: None,
                    descriptor: story_descriptor(),
                    cfg: BusConfig::default().with_batch_enabled(true),
                    sub_loss: 0.01,
                    // About a quarter of closed-loop msgs_s (16.5k–19k).
                    // Two ~1.1 KB stories do not fit one 1,472-byte
                    // datagram, so each batch holds one story, and the
                    // next story, due 250 µs later, pushes it out long
                    // before the 2 ms batch timer would: the batch wait
                    // is one inter-arrival time, set by this rate.
                    open_rate: 4_000.0,
                    // 64 datagrams of ~1.2 KB fit the default 208 KiB socket
                    // receive buffer, so the only loss is the injected 1%.
                    window: 64,
                }
            }
            "inproc_filtered" => {
                let mut map = SubjectMap::new();
                for (from, to) in ALIASES {
                    map.add_alias(from, to).expect("static aliases are acyclic");
                }
                let mut subjects = Vec::new();
                let mut canonical = Vec::new();
                for v in VENUES {
                    for k in 0..64 {
                        let s = format!("mkt.{v}.s{k}");
                        canonical.push(map.canonical(&s));
                        subjects.push(s);
                    }
                }
                let thresholds = (0..64)
                    .map(|k| PX_MAX * (k as f64 + rng.f64()) / 64.0)
                    .collect();
                let others = (0..2000)
                    .map(|i| match i % 3 {
                        0 => format!("mkt.{}.s{}.d{i}", VENUES[rng.below(4)], rng.below(64)),
                        1 => format!("ref.r{i}.>"),
                        _ => format!("news.n{i}"),
                    })
                    .collect();
                let map = Arc::new(map);
                Workload {
                    name: "inproc_filtered",
                    kind: Kind::InprocFiltered,
                    seed,
                    subjects,
                    canonical,
                    matching: vec!["mkt.>".into()],
                    others,
                    thresholds,
                    cfg: BusConfig::default().with_subject_map(Arc::clone(&map)),
                    map: Some(map),
                    descriptor: quote_descriptor(),
                    sub_loss: 0.0,
                    // About a fifth of closed-loop msgs_s (45k–77k per
                    // phase), so each synchronous publish and drain ends
                    // before the next is due and latency is their cost.
                    open_rate: 10_000.0,
                    window: 256,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    pub fn is_udp(&self) -> bool {
        self.kind != Kind::InprocFiltered
    }

    /// Publication `seq` of this seed: a pure function of both, so the
    /// verifier recomputes what the publisher sent.
    pub fn message(&self, seq: u64) -> Msg {
        let mut r = mix(self.seed, seq);
        let subject = r.below(self.subjects.len());
        match self.kind {
            Kind::UdpQuotes | Kind::InprocFiltered => Msg {
                subject,
                value: Value::object(
                    DataObject::new("Quote")
                        .with("seq", seq as i64)
                        .with("sym", format!("S{}", r.below(10_000)))
                        .with("px", (r.f64() * PX_MAX * 1e4).round() / 1e4)
                        .with("size", (1 + r.below(5_000)) as i64),
                ),
                qos: QoS::Reliable,
            },
            Kind::UdpLossyGd => {
                let qos = if r.below(10) == 0 {
                    QoS::Guaranteed
                } else {
                    QoS::Reliable
                };
                Msg {
                    subject,
                    value: Value::object(
                        DataObject::new("Story")
                            .with("seq", seq as i64)
                            .with("headline", text(&mut r, 60))
                            .with("body", text(&mut r, 880))
                            .with("src", "DJ"),
                    ),
                    qos,
                }
            }
        }
    }

    /// The content predicate of interest `k` (`inproc_filtered`).
    pub fn predicate(&self, k: usize) -> Predicate {
        Predicate::gt("px", Value::F64(self.thresholds[k]))
    }

    /// Reference evaluation of every predicated interest: bit `k` is set
    /// when interest `k` must receive `msg`.
    pub fn expected_mask(&self, msg: &Msg) -> u64 {
        let px = px_of(&msg.value);
        self.thresholds
            .iter()
            .enumerate()
            .filter(|(_, &t)| px > t)
            .fold(0u64, |m, (k, _)| m | 1 << k)
    }

    /// How long one measured phase runs. A UDP phase lasts one announce
    /// refresh period, so it covers exactly one soft-state refresh of
    /// each daemon; the in-process bus has no periodic work, so its
    /// phases are shorter and a run holds more of them.
    pub fn phase(&self) -> Duration {
        if self.is_udp() {
            Duration::from_micros(self.cfg.announce_period_us)
        } else {
            Duration::from_millis(100)
        }
    }
}

pub fn seq_of(v: &Value) -> Option<u64> {
    v.as_object()?.get("seq")?.as_i64().map(|s| s as u64)
}

pub fn px_of(v: &Value) -> f64 {
    v.as_object()
        .and_then(|o| o.get("px"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn text(r: &mut Rng, len: usize) -> String {
    const WORDS: [&str; 8] = [
        "bus ", "quote ", "fab ", "lot ", "market ", "news ", "wip ", "daemon ",
    ];
    let mut s = String::with_capacity(len + 8);
    while s.len() < len {
        s.push_str(WORDS[r.below(WORDS.len())]);
    }
    s.truncate(len);
    s
}

fn quote_descriptor() -> TypeDescriptor {
    TypeDescriptor::builder("Quote")
        .attribute("seq", ValueType::I64)
        .attribute("sym", ValueType::Str)
        .attribute("px", ValueType::F64)
        .attribute("size", ValueType::I64)
        .build()
}

fn story_descriptor() -> TypeDescriptor {
    TypeDescriptor::builder("Story")
        .attribute("seq", ValueType::I64)
        .attribute("headline", ValueType::Str)
        .attribute("body", ValueType::Str)
        .attribute("src", ValueType::Str)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_a_function_of_seed_and_seq() {
        let w = Workload::new("udp_lossy_gd", 3).unwrap();
        let a = w.message(17);
        let b = w.message(17);
        assert_eq!(a.value, b.value);
        assert_eq!(a.subject, b.subject);
        assert_eq!(seq_of(&a.value), Some(17));
        let w2 = Workload::new("udp_lossy_gd", 4).unwrap();
        assert_ne!(w2.message(17).value, a.value);
    }

    #[test]
    fn inproc_aliases_cover_half_the_subjects() {
        let w = Workload::new("inproc_filtered", 1).unwrap();
        let aliased = w
            .subjects
            .iter()
            .zip(&w.canonical)
            .filter(|(s, c)| s != c)
            .count();
        assert_eq!(aliased * 2, w.subjects.len());
        assert_eq!(w.thresholds.len(), 64);
        assert_eq!(w.others.len(), 2000);
    }
}
