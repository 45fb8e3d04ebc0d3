//! The interest table: one host's local subscriptions and the filters
//! its peers announced, shared by every driver.
//!
//! In the paper each host's daemon keeps one table of what its local
//! applications subscribe to and what the other daemons on the segment
//! want. It uses the table to drop uninteresting traffic cheaply, to
//! decide who is owed guaranteed delivery, and to tell its peers what
//! to send it. [`InterestTable`] is that table, sans-I/O like the
//! [`engine`](crate::engine): it holds no lock, reads no clock and owns
//! no socket. Callers pass `now` in, and every change to local interest
//! returns the announce delta — the filters to re-announce and those to
//! withdraw — for the caller to send (at once, or debounced). The
//! predicate announced for a filter is combined only when it is asked
//! for, so a driver that announces nothing pays nothing for it. What a
//! subscription delivers *to* is the driver's business: the table
//! stores an opaque target `T` per subscription.
//!
//! Lookups by published subject are memoized per [`SubjectId`], so a
//! steady-state publish or receive costs one map probe and allocates
//! nothing. Every change to local or peer interest clears the memo; the
//! dropped entries release their target clones at once (an
//! unsubscribed queue disconnects now, not at the next lookup).
//! Subjects must all come from one
//! [`SubjectTable`](infobus_subject::SubjectTable): ids from different
//! tables would alias.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use infobus_router::SubjectMap;
use infobus_subject::{
    InternedSubject, Subject, SubjectFilter, SubjectId, SubjectTrie, SubscriptionId,
};
use infobus_types::Value;

use crate::engine::filter::{
    announced_predicate, approx_wire_bytes, interest_accepts, CompiledPredicate, FilterCounters,
};
use crate::engine::{BusStats, Micros};
use crate::msg::AnnounceEntry;
use crate::BusError;

type Pred = Option<Arc<CompiledPredicate>>;

/// An announce delta: the filters whose announcement changed (to be
/// re-announced, see [`InterestTable::announce_entry`]), and the
/// filters withdrawn.
type Delta = (Vec<String>, Vec<String>);

/// One local subscription, as stored in the trie and memoized.
#[derive(Clone)]
struct Local<T> {
    target: T,
    /// When it was made: the first-contact entitlement input.
    since: Micros,
    pred: Pred,
}

/// Whether the subscriptions on one filter announce it unfiltered: any
/// one of them is. While that holds, subscriptions come and go without
/// changing the announcement; otherwise every change does (the
/// announced predicate is the disjunction of all of them).
fn unfiltered<'a, T: 'a>(mut subs: impl Iterator<Item = (SubscriptionId, &'a Local<T>)>) -> bool {
    subs.any(|(_, l)| l.pred.is_none())
}

/// Everything that matches one subject: local subscriptions and the
/// predicates of matching peer filters.
struct Matches<T> {
    local: Vec<Local<T>>,
    peers: Vec<Pred>,
}

/// One host's interest table. See the [module docs](self).
pub struct InterestTable<T> {
    /// Local subscriptions. The trie keeps the entries of one filter
    /// together, so it doubles as the announce index: filter → its
    /// subscriptions with their predicates.
    local: SubjectTrie<Local<T>>,
    /// Semantic expansion families: head id → sibling ids.
    families: HashMap<SubscriptionId, Vec<SubscriptionId>>,
    semantic: Option<Arc<SubjectMap>>,
    /// Peer-announced filters: value is `(host, predicate)`.
    peers: SubjectTrie<(u32, Pred)>,
    /// Host → filter text → its entry in `peers`.
    peer_index: HashMap<u32, HashMap<String, (SubscriptionId, Pred)>>,
    memo: HashMap<SubjectId, Matches<T>>,
    counters: FilterCounters,
}

impl<T: Clone> InterestTable<T> {
    /// An empty table. With a [`SubjectMap`], subscriptions expand into
    /// semantic families and [`InterestTable::canonicalize`] rewrites
    /// synonym subjects.
    pub fn new(semantic: Option<Arc<SubjectMap>>) -> Self {
        InterestTable {
            local: SubjectTrie::new(),
            families: HashMap::new(),
            semantic,
            peers: SubjectTrie::new(),
            peer_index: HashMap::new(),
            memo: HashMap::new(),
            counters: FilterCounters::default(),
        }
    }

    /// The canonical form of a publish subject when the semantic map
    /// rewrites it (counted in `sem_canonicalized`), else `None`.
    pub fn canonicalize(&self, subject: &str) -> Option<String> {
        let canonical = self.semantic.as_ref()?.canonicalize(subject)?;
        self.counters.sem_canonicalized.fetch_add(1, Relaxed);
        Some(canonical)
    }

    /// Subscribes `target` to `filter`, expanded through the semantic
    /// map: one call may insert sibling subscriptions on every synonym
    /// or broadening of the filter. Returns the family head (removing it
    /// removes the family) and the announce delta.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] if any expanded filter is malformed.
    pub fn subscribe(
        &mut self,
        filter: &str,
        target: T,
        since: Micros,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> Result<(SubscriptionId, Delta), BusError> {
        let parsed = match &self.semantic {
            Some(map) => map
                .expand_filter(filter)
                .iter()
                .map(|f| SubjectFilter::new(f))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![SubjectFilter::new(filter)?],
        };
        let mut delta = Delta::default();
        let mut ids: Vec<SubscriptionId> = parsed
            .iter()
            .map(|f| self.insert_one(f, target.clone(), since, pred.clone(), &mut delta))
            .collect();
        let head = ids.remove(0);
        if !ids.is_empty() {
            self.counters
                .sem_expanded
                .fetch_add(ids.len() as u64, Relaxed);
            self.families.insert(head, ids);
        }
        Ok((head, delta))
    }

    /// Subscribes `target` to exactly `filter` (no semantic expansion).
    pub fn insert(
        &mut self,
        filter: &SubjectFilter,
        target: T,
        since: Micros,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> (SubscriptionId, Delta) {
        let mut delta = Delta::default();
        let id = self.insert_one(filter, target, since, pred, &mut delta);
        (id, delta)
    }

    fn insert_one(
        &mut self,
        filter: &SubjectFilter,
        target: T,
        since: Micros,
        pred: Pred,
        delta: &mut Delta,
    ) -> SubscriptionId {
        let local = Local {
            target,
            since,
            pred,
        };
        let (id, entries) = self.local.insert_entry(filter, local);
        let mut others = entries.filter(|(other, _)| *other != id).peekable();
        if others.peek().is_none() || !unfiltered(others) {
            delta.0.push(filter.as_str().to_owned());
        }
        self.memo.clear();
        id
    }

    /// Removes a subscription and its semantic family. Returns the
    /// announce delta: a filter no subscription holds any more is
    /// withdrawn, one whose combined predicate changed is re-announced.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Delta {
        let mut delta = Delta::default();
        let family = self.families.remove(&id).unwrap_or_default();
        for id in family.into_iter().chain([id]) {
            let Some((filter, _)) = self.local.remove_entry(id) else {
                continue;
            };
            self.memo.clear();
            let mut left = self.local.entries_of(&filter).peekable();
            if left.peek().is_none() {
                delta.1.push(filter.as_str().to_owned());
            } else if !unfiltered(left) {
                delta.0.push(filter.as_str().to_owned());
            }
        }
        delta
    }

    /// Number of local subscriptions.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// Whether no local subscription exists.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Visits every local subscription.
    pub fn for_each_local(&self, mut f: impl FnMut(SubscriptionId, &T)) {
        self.local.for_each(|id, _, l| f(id, &l.target));
    }

    /// What `subject` matches, memoized; and the counters, borrowed
    /// alongside.
    fn matches(&mut self, subject: &InternedSubject) -> (&Matches<T>, &FilterCounters) {
        let (local, peers) = (&self.local, &self.peers);
        let matches = self.memo.entry(subject.id()).or_insert_with(|| Matches {
            local: local.matches(subject).map(|(_, l)| l.clone()).collect(),
            peers: peers
                .matches(subject)
                .map(|(_, (_, p))| p.clone())
                .collect(),
        });
        (matches, &self.counters)
    }

    /// The targets of every local subscription matching `subject`.
    pub fn targets(&mut self, subject: &InternedSubject) -> impl Iterator<Item = &T> + '_ {
        self.matches(subject).0.local.iter().map(|h| &h.target)
    }

    /// The creation time of the earliest local subscription matching
    /// `subject`; `None` when nothing local matches (the cheap filter).
    pub fn earliest_matching_sub(&mut self, subject: &InternedSubject) -> Option<Micros> {
        self.matches(subject).0.local.iter().map(|h| h.since).min()
    }

    /// The publisher-side content gate: `false` when every matching
    /// interest, local or announced by a peer, carries a predicate that
    /// rejects the value (see [`interest_accepts`]). `value` is asked
    /// for only when every matching interest carries a predicate; `None`
    /// (say, a payload that does not unmarshal) sends.
    pub fn publish_interest_accepts<'v>(
        &mut self,
        subject: &InternedSubject,
        value: impl FnOnce() -> Option<Cow<'v, Value>>,
    ) -> bool {
        let (matches, counters) = self.matches(subject);
        let preds = || {
            let local = matches.local.iter().map(|h| h.pred.as_deref());
            local.chain(matches.peers.iter().map(|p| p.as_deref()))
        };
        // No interest at all, or an unfiltered one: send, unevaluated.
        if preds().next().is_none() || preds().any(|p| p.is_none()) {
            return true;
        }
        let Some(value) = value() else {
            return true;
        };
        let mut evals = 0u64;
        let send = interest_accepts(&value, preds(), &mut evals);
        counters.record_publish_gate(evals, send, approx_wire_bytes(&value));
        send
    }

    /// The delivery gate: calls `send` with every local subscription
    /// matching `subject` whose predicate (if any) accepts the payload;
    /// `send` says whether it delivered. The payload is unmarshalled into
    /// `value` at most once, by `unmarshal`, and only when a predicate
    /// needs it; a caller may fill `value` beforehand. A payload that
    /// does not unmarshal passes every predicate. Returns
    /// `(delivered, suppressed)`.
    pub fn deliver(
        &mut self,
        subject: &InternedSubject,
        payload_len: usize,
        value: &mut Option<Option<Value>>,
        mut unmarshal: impl FnMut() -> Option<Value>,
        mut send: impl FnMut(&T) -> bool,
    ) -> (usize, usize) {
        let (mut delivered, mut suppressed, mut evals) = (0usize, 0u64, 0u64);
        let (matches, c) = self.matches(subject);
        for hit in &matches.local {
            if let Some(pred) = &hit.pred {
                if let Some(v) = value.get_or_insert_with(&mut unmarshal) {
                    evals += 1;
                    if !pred.eval(v) {
                        suppressed += 1;
                        continue;
                    }
                }
            }
            if send(&hit.target) {
                delivered += 1;
            }
        }
        if evals > 0 {
            c.evals.fetch_add(evals, Relaxed);
        }
        if suppressed > 0 {
            c.delivery_suppressed.fetch_add(suppressed, Relaxed);
            c.suppressed_bytes
                .fetch_add(suppressed * payload_len as u64, Relaxed);
        }
        (delivered, suppressed as usize)
    }

    /// Ingests a peer's `SubAnnounce`. `from_host` is the host the frame
    /// came from; an announce whose body claims another `host` is forged
    /// and dropped (returns `false`). A full announce replaces the
    /// host's table. A malformed predicate is stored as unfiltered, the
    /// direction that can only over-deliver.
    pub fn ingest_announce(
        &mut self,
        from_host: u32,
        host: u32,
        full: bool,
        add: Vec<AnnounceEntry>,
        remove: Vec<String>,
    ) -> bool {
        if host != from_host {
            return false;
        }
        let table = self.peer_index.entry(host).or_default();
        let mut gone: Vec<String> = remove;
        if full {
            let keep: HashSet<&str> = add.iter().map(|e| e.filter.as_str()).collect();
            gone.extend(table.keys().filter(|f| !keep.contains(f.as_str())).cloned());
        }
        let mut changed = false;
        for text in gone {
            if let Some((id, _)) = table.remove(&text) {
                self.peers.remove(id);
                changed = true;
            }
        }
        for e in add {
            let Ok(filter) = SubjectFilter::new(&e.filter) else {
                continue;
            };
            if let Some((id, old)) = table.get(&e.filter) {
                if old.as_ref().map_or_else(Vec::new, |p| p.to_bytes()) == e.pred {
                    continue;
                }
                self.peers.remove(*id);
            }
            let pred = if e.pred.is_empty() {
                None
            } else {
                CompiledPredicate::from_bytes(&e.pred).ok().map(Arc::new)
            };
            let id = self.peers.insert(&filter, (host, pred.clone()));
            table.insert(e.filter, (id, pred));
            changed = true;
        }
        if changed {
            self.memo.clear();
        }
        true
    }

    /// Per pending guaranteed subject, the peer hosts whose announced
    /// filters match it (ascending). An invalid subject is left out; the
    /// engine completes its entries.
    pub fn gd_interest(&self, subjects: Vec<String>) -> HashMap<String, Vec<u32>> {
        subjects
            .into_iter()
            .filter_map(|text| {
                let subject = Subject::new(&text).ok()?;
                let hosts: BTreeSet<u32> = self.peers.matches(&subject).map(|(_, v)| v.0).collect();
                Some((text, hosts.into_iter().collect()))
            })
            .collect()
    }

    /// Every filter peers announced (deduplicated, sorted).
    pub fn peer_filters(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.peer_index.values().flat_map(|t| t.keys()).collect();
        set.into_iter().cloned().collect()
    }

    /// Every filter subscribed here or announced by a peer
    /// (deduplicated, sorted).
    pub fn known_filters(&self) -> Vec<String> {
        let mut set = self.local_filters();
        set.extend(self.peer_index.values().flat_map(|t| t.keys().cloned()));
        set.into_iter().collect()
    }

    /// Every distinct local filter.
    fn local_filters(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.local.for_each(|_, f, _| {
            if !set.contains(f.as_str()) {
                set.insert(f.as_str().to_owned());
            }
        });
        set
    }

    /// The predicates of the local subscriptions on exactly `filter`.
    fn local_preds(&self, filter: &str) -> Vec<Pred> {
        let Ok(filter) = SubjectFilter::new(filter) else {
            return Vec::new();
        };
        let entries = self.local.entries_of(&filter);
        entries.map(|(_, l)| l.pred.clone()).collect()
    }

    /// What this host currently announces for `filter`, if anything:
    /// the filter with the disjunction of its subscriptions' predicates,
    /// or unfiltered when any subscription is (see
    /// [`announced_predicate`]).
    pub fn announce_entry(&self, filter: &str) -> Option<AnnounceEntry> {
        let preds = self.local_preds(filter);
        if preds.is_empty() {
            return None;
        }
        let pred = announced_predicate(&preds).map_or_else(Vec::new, |p| p.to_bytes());
        Some(AnnounceEntry::filtered(filter, pred))
    }

    /// Every local filter with its announced predicate, sorted: the body
    /// of a full `SubAnnounce`.
    pub fn full_announce(&self) -> Vec<AnnounceEntry> {
        let filters = self.local_filters();
        filters
            .iter()
            .filter_map(|f| self.announce_entry(f))
            .collect()
    }

    /// The predicate bytes covering every local subscription and peer
    /// announcement on exactly `filter` (empty = unfiltered): what a
    /// router summary attaches to the filter.
    pub fn combined_pred(&self, filter: &str) -> Vec<u8> {
        let mut preds = self.local_preds(filter);
        for table in self.peer_index.values() {
            if let Some((_, p)) = table.get(filter) {
                preds.push(p.clone());
            }
        }
        announced_predicate(&preds).map_or_else(Vec::new, |p| p.to_bytes())
    }

    /// Adds the filter and semantic counters into `stats`.
    pub fn fold_into(&self, stats: &mut BusStats) {
        self.counters.fold_into(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::filter::Predicate;
    use infobus_subject::SubjectTable;

    fn pred(floor: i64) -> Option<Arc<CompiledPredicate>> {
        let p = Predicate::ge("", Value::I64(floor));
        Some(Arc::new(CompiledPredicate::compile(&p).unwrap()))
    }

    fn texts(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn announce_deltas_follow_the_combined_predicate() {
        let mut t: InterestTable<u8> = InterestTable::new(None);
        let (a, delta) = t.subscribe("q.>", 1, 0, pred(5)).unwrap();
        assert_eq!(delta, (texts(&["q.>"]), vec![]));
        // A second predicate widens the disjunction: re-announce.
        let (b, delta) = t.subscribe("q.>", 2, 0, pred(9)).unwrap();
        assert_eq!(delta, (texts(&["q.>"]), vec![]));
        // An unfiltered sibling widens it to unfiltered...
        let (c, delta) = t.subscribe("q.>", 3, 0, None).unwrap();
        assert_eq!(delta, (texts(&["q.>"]), vec![]));
        assert!(t.announce_entry("q.>").unwrap().pred.is_empty());
        // ...after which predicated siblings change nothing.
        assert_eq!(t.unsubscribe(b), (vec![], vec![]));
        // The unfiltered one leaving narrows it again; the last one
        // leaving withdraws the filter.
        assert_eq!(t.unsubscribe(c), (texts(&["q.>"]), vec![]));
        assert!(!t.announce_entry("q.>").unwrap().pred.is_empty());
        assert_eq!(t.unsubscribe(a), (vec![], texts(&["q.>"])));
        assert!(t.announce_entry("q.>").is_none());
        assert!(t.full_announce().is_empty());
    }

    #[test]
    fn forged_announces_are_refused_and_full_announces_replace() {
        let table = SubjectTable::new();
        let subject = table.intern("f.x").unwrap();
        let mut t: InterestTable<u8> = InterestTable::new(None);
        let add = |f: &str| vec![AnnounceEntry::plain(f)];
        assert!(t.ingest_announce(2, 2, false, add("f.>"), vec![]));
        assert!(!t.ingest_announce(3, 2, true, vec![], vec![]));
        assert_eq!(t.gd_interest(texts(&["f.x"]))["f.x"], vec![2]);
        // A full announce replaces the host's table (and the memo).
        assert!(t.publish_interest_accepts(&subject, || None));
        let reject = CompiledPredicate::compile(&Predicate::eq("", Value::I64(-1))).unwrap();
        let entry = AnnounceEntry::filtered("f.>", reject.to_bytes());
        assert!(t.ingest_announce(2, 2, true, vec![entry], vec![]));
        let value = Value::I64(1);
        assert!(!t.publish_interest_accepts(&subject, || Some(Cow::Borrowed(&value))));
        assert!(t.ingest_announce(2, 2, true, add("g.>"), vec![]));
        assert_eq!(t.peer_filters(), texts(&["g.>"]));
        assert_eq!(t.gd_interest(texts(&["f.x"]))["f.x"], Vec::<u32>::new());
    }

    #[test]
    fn the_delivery_gate_counts_what_it_suppresses() {
        let table = SubjectTable::new();
        let subject = table.intern("d.x").unwrap();
        let mut t: InterestTable<u8> = InterestTable::new(None);
        t.subscribe("d.>", 1, 0, pred(5)).unwrap();
        t.subscribe("d.x", 2, 7, None).unwrap();
        assert_eq!(t.earliest_matching_sub(&subject), Some(0));
        let mut sent = Vec::new();
        let counts = t.deliver(
            &subject,
            10,
            &mut None,
            || Some(Value::I64(1)),
            |x| {
                sent.push(*x);
                true
            },
        );
        assert_eq!((counts, sent), ((1, 1), vec![2]));
        let mut stats = BusStats::default();
        t.fold_into(&mut stats);
        assert_eq!(
            (
                stats.filt_evals,
                stats.filt_delivery_suppressed,
                stats.filt_suppressed_bytes
            ),
            (1, 1, 10)
        );
    }
}
