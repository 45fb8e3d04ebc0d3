//! Per-publication delivery contracts for one subscriber of one
//! publisher:
//!
//! * reliable: exactly once, in publication order per subject;
//! * guaranteed: at least once, every repeat flagged `redelivery`;
//! * content: the delivered subject and value are what was published.
//!
//! A publication that breaks any of these, or is never delivered,
//! counts once towards `failed`.

use infobus_core::{Delivery, QoS};

use crate::workload::{seq_of, Workload};

pub struct Checker {
    /// Per sequence number: delivered at least once.
    seen: Vec<bool>,
    /// Per sequence number: broke its contract.
    bad: Vec<bool>,
    /// Per subject (one publisher, so one stream per subject): last
    /// reliable sequence delivered.
    last_reliable: Vec<Option<u64>>,
    /// Flagged guaranteed-delivery repeats.
    pub redeliveries: u64,
    /// Deliveries that could not be attributed to any publication.
    pub strays: u64,
}

/// What a delivery turned out to be.
pub enum Seen {
    /// First delivery of publication `seq` — what the closed-loop
    /// window counts (repeats must not advance it).
    First(u64),
    /// A repeat, or a delivery that broke a contract.
    Other,
}

impl Checker {
    pub fn new(subjects: usize) -> Checker {
        // Sized for a whole run up front: growing mid-phase would copy
        // on the receiving thread while it is being timed.
        Checker {
            seen: vec![false; 1 << 21],
            bad: vec![false; 1 << 21],
            last_reliable: vec![None; subjects],
            redeliveries: 0,
            strays: 0,
        }
    }

    fn grow(&mut self, seq: u64) {
        let need = seq as usize + 1;
        if self.seen.len() < need {
            self.seen.resize(need.next_power_of_two(), false);
            self.bad.resize(need.next_power_of_two(), false);
        }
    }

    pub fn on_delivery(&mut self, w: &Workload, d: &Delivery) -> Seen {
        let value = d.value().ok();
        // A sequence number no run reaches cannot be one of ours (and
        // must not size the tables).
        let Some(seq) = value.as_ref().and_then(seq_of).filter(|&s| s < 1 << 32) else {
            self.strays += 1;
            return Seen::Other;
        };
        self.grow(seq);
        let expect = w.message(seq);
        let content_ok = d.subject.as_str() == w.canonical[expect.subject]
            && d.qos == expect.qos
            && value.as_ref() == Some(&expect.value);
        if !content_ok {
            self.bad[seq as usize] = true;
        }
        if self.seen[seq as usize] {
            if expect.qos == QoS::Guaranteed && d.redelivery {
                self.redeliveries += 1;
            } else {
                self.bad[seq as usize] = true;
            }
            return Seen::Other;
        }
        self.seen[seq as usize] = true;
        if expect.qos == QoS::Reliable {
            let last = &mut self.last_reliable[expect.subject];
            if last.is_some_and(|l| l >= seq) {
                self.bad[seq as usize] = true;
            }
            *last = Some(seq);
        }
        Seen::First(seq)
    }

    /// Publications `0..published` that were never delivered or broke a
    /// contract, plus unattributable deliveries.
    pub fn failed(&self, published: u64) -> u64 {
        let n = published as usize;
        let missing_or_bad = (0..n)
            .filter(|&i| !self.seen.get(i).copied().unwrap_or(false) || self.bad[i])
            .count() as u64;
        missing_or_bad + self.strays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infobus_subject::SubjectTable;
    use infobus_types::{wire, TypeRegistry};

    fn delivery(w: &Workload, seq: u64, redelivery: bool) -> Delivery {
        let m = w.message(seq);
        let mut registry = TypeRegistry::with_fundamentals();
        registry.register(w.descriptor.clone()).unwrap();
        let payload = wire::marshal_self_describing(&m.value, &registry).unwrap();
        Delivery {
            subject: SubjectTable::new().intern(&w.canonical[m.subject]).unwrap(),
            payload: payload.into(),
            redelivery,
            qos: m.qos,
            route: None,
        }
    }

    #[test]
    fn every_broken_contract_counts_once() {
        let w = Workload::new("udp_lossy_gd", 9).unwrap();
        let seqs: Vec<u64> = (0..200).collect();
        let same_subject: Vec<u64> = seqs
            .iter()
            .copied()
            .filter(|&s| w.message(s).subject == w.message(0).subject)
            .collect();
        let reliable = |s: &u64| w.message(*s).qos == QoS::Reliable;
        let gd = *seqs.iter().find(|s| !reliable(s)).unwrap();

        let mut c = Checker::new(w.subjects.len());
        for &s in &seqs {
            assert!(matches!(
                c.on_delivery(&w, &delivery(&w, s, false)),
                Seen::First(_)
            ));
        }
        // A flagged guaranteed repeat is within contract.
        assert!(matches!(
            c.on_delivery(&w, &delivery(&w, gd, true)),
            Seen::Other
        ));
        assert_eq!((c.failed(200), c.redeliveries), (0, 1));

        // Missing, unflagged duplicate, and reordered publications.
        let mut c = Checker::new(w.subjects.len());
        let (a, b) = (same_subject[0], same_subject[1]);
        assert!(reliable(&a) && reliable(&b));
        c.on_delivery(&w, &delivery(&w, b, false));
        c.on_delivery(&w, &delivery(&w, a, false));
        c.on_delivery(&w, &delivery(&w, b, false));
        // `a` arrived after `b` (reordered), `b` twice (duplicate), and
        // every other publication never.
        assert_eq!(c.failed(200), 200);
    }
}
