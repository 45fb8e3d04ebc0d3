use std::collections::HashMap;
use std::sync::Arc;

use crate::{FilterElement, Subject, SubjectFilter};

/// Identifier of a subscription stored in a [`SubjectTrie`].
///
/// Identifiers are unique within one trie and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// A subscription index: maps [`SubjectFilter`]s to values and answers
/// "which subscriptions match this published subject?".
///
/// Matching walks the trie once per subject element, visiting literal
/// children, `*` children, and `>` terminals, so the cost is proportional
/// to the subject depth and the filter fan-out — not to the total number of
/// subscriptions. This is the data structure behind the per-host bus
/// daemon, the information routers, and the paper's claim (§6) that
/// subject-based addressing scales better than attribute qualification.
///
/// # Examples
///
/// ```
/// use infobus_subject::{Subject, SubjectFilter, SubjectTrie};
///
/// let mut trie = SubjectTrie::new();
/// let id = trie.insert(&SubjectFilter::new("news.>").unwrap(), "monitor");
/// assert!(trie.matches_any(&Subject::new("news.equity.gmc").unwrap()));
/// trie.remove(id);
/// assert!(!trie.matches_any(&Subject::new("news.equity.gmc").unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct SubjectTrie<T> {
    root: Node<T>,
    /// Each subscription's filter (shared by every entry of one node
    /// list) and its position in that list, so removal walks only that
    /// filter's path.
    index: HashMap<SubscriptionId, (Arc<SubjectFilter>, usize)>,
    next_id: u64,
}

type Entries<T> = Vec<(SubscriptionId, T)>;

#[derive(Debug, Clone)]
struct Node<T> {
    literals: HashMap<String, Node<T>>,
    any_one: Option<Box<Node<T>>>,
    /// Subscriptions whose filter ends with `>` at this node.
    tail_subs: Entries<T>,
    /// Subscriptions whose filter ends exactly at this node.
    exact_subs: Entries<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            literals: HashMap::new(),
            any_one: None,
            tail_subs: Vec::new(),
            exact_subs: Vec::new(),
        }
    }
}

impl<T> Node<T> {
    fn is_empty(&self) -> bool {
        self.literals.is_empty()
            && self.any_one.is_none()
            && self.tail_subs.is_empty()
            && self.exact_subs.is_empty()
    }
}

impl<T> Default for SubjectTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SubjectTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        SubjectTrie {
            root: Node::default(),
            index: HashMap::new(),
            next_id: 0,
        }
    }

    /// Returns the number of stored subscriptions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the trie holds no subscriptions.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts a subscription and returns its identifier.
    pub fn insert(&mut self, filter: &SubjectFilter, value: T) -> SubscriptionId {
        self.insert_entry(filter, value).0
    }

    /// Inserts a subscription. Returns its identifier and every
    /// subscription now stored under exactly `filter`, itself included
    /// (see [`SubjectTrie::entries_of`]).
    pub fn insert_entry(
        &mut self,
        filter: &SubjectFilter,
        value: T,
    ) -> (SubscriptionId, impl Iterator<Item = (SubscriptionId, &T)>) {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let mut node = &mut self.root;
        let elements = filter.elements();
        let mut tail = false;
        for (i, elem) in elements.iter().enumerate() {
            match elem {
                FilterElement::Literal(lit) => {
                    // Not `entry`: it would clone the key even when the
                    // node exists.
                    if !node.literals.contains_key(lit) {
                        node.literals.insert(lit.clone(), Node::default());
                    }
                    node = node.literals.get_mut(lit).expect("just inserted");
                }
                FilterElement::AnyOne => {
                    node = node.any_one.get_or_insert_with(Box::default);
                }
                FilterElement::Tail => {
                    debug_assert_eq!(i, elements.len() - 1, "'>' is validated to be last");
                    tail = true;
                }
            }
        }
        let subs = if tail {
            &mut node.tail_subs
        } else {
            &mut node.exact_subs
        };
        let shared = match subs.first() {
            Some((first, _)) => Arc::clone(&self.index[first].0),
            None => Arc::new(filter.clone()),
        };
        self.index.insert(id, (shared, subs.len()));
        subs.push((id, value));
        (id, subs.iter().map(|(id, v)| (*id, v)))
    }

    /// Every subscription stored under exactly `filter` (the same
    /// filter text), in no particular order.
    pub fn entries_of(&self, filter: &SubjectFilter) -> impl Iterator<Item = (SubscriptionId, &T)> {
        self.slot(filter)
            .into_iter()
            .flatten()
            .map(|(id, v)| (*id, v))
    }

    fn slot(&self, filter: &SubjectFilter) -> Option<&Entries<T>> {
        let mut node = &self.root;
        for elem in filter.elements() {
            node = match elem {
                FilterElement::Literal(lit) => node.literals.get(lit.as_str())?,
                FilterElement::AnyOne => node.any_one.as_deref()?,
                FilterElement::Tail => return Some(&node.tail_subs),
            };
        }
        Some(&node.exact_subs)
    }

    /// Removes a subscription by identifier, returning its value.
    ///
    /// Returns `None` if the identifier is unknown (for example, already
    /// removed). Empty interior nodes are pruned.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<T> {
        self.remove_entry(id).map(|(_, value)| value)
    }

    /// Removes a subscription by identifier, returning its filter and
    /// value. Walks only the subscription's own filter path.
    pub fn remove_entry(&mut self, id: SubscriptionId) -> Option<(SubjectFilter, T)> {
        let (filter, pos) = self.index.remove(&id)?;
        let (value, moved) = Self::remove_at(&mut self.root, filter.elements(), pos);
        if let Some(moved) = moved {
            self.index.get_mut(&moved).expect("indexed entry").1 = pos;
        }
        Some((Arc::unwrap_or_clone(filter), value))
    }

    /// Removes the entry at `pos` of the node list `path` ends in,
    /// pruning nodes it leaves empty. Returns the value and the id of
    /// the entry moved into `pos`, if any.
    fn remove_at(
        node: &mut Node<T>,
        path: &[FilterElement],
        pos: usize,
    ) -> (T, Option<SubscriptionId>) {
        let subs = match path.split_first() {
            None => &mut node.exact_subs,
            Some((FilterElement::Tail, _)) => &mut node.tail_subs,
            Some((FilterElement::Literal(lit), rest)) => {
                let child = node.literals.get_mut(lit.as_str()).expect("indexed path");
                let removed = Self::remove_at(child, rest, pos);
                if child.is_empty() {
                    node.literals.remove(lit.as_str());
                }
                return removed;
            }
            Some((FilterElement::AnyOne, rest)) => {
                let child = node.any_one.as_deref_mut().expect("indexed path");
                let removed = Self::remove_at(child, rest, pos);
                if child.is_empty() {
                    node.any_one = None;
                }
                return removed;
            }
        };
        let (_, value) = subs.swap_remove(pos);
        (value, subs.get(pos).map(|(id, _)| *id))
    }

    /// Returns all subscriptions whose filter matches `subject`.
    ///
    /// The iterator yields `(SubscriptionId, &value)` pairs; a value is
    /// yielded once per matching subscription.
    pub fn matches<'a>(
        &'a self,
        subject: &Subject,
    ) -> impl Iterator<Item = (SubscriptionId, &'a T)> {
        let elements: Vec<&str> = subject.elements().collect();
        let mut out: Vec<(SubscriptionId, &'a T)> = Vec::new();
        Self::match_rec(&self.root, &elements, &mut out);
        out.into_iter()
    }

    fn match_rec<'a>(node: &'a Node<T>, rest: &[&str], out: &mut Vec<(SubscriptionId, &'a T)>) {
        if rest.is_empty() {
            for (id, value) in &node.exact_subs {
                out.push((*id, value));
            }
            return;
        }
        // `>` here matches the non-empty remainder.
        for (id, value) in &node.tail_subs {
            out.push((*id, value));
        }
        if let Some(child) = node.literals.get(rest[0]) {
            Self::match_rec(child, &rest[1..], out);
        }
        if let Some(child) = node.any_one.as_deref() {
            Self::match_rec(child, &rest[1..], out);
        }
    }

    /// Returns `true` if at least one subscription matches `subject`.
    ///
    /// Cheaper than [`SubjectTrie::matches`] when only the existence of
    /// interest matters (for example, a daemon deciding whether to accept
    /// a broadcast frame at all).
    pub fn matches_any(&self, subject: &Subject) -> bool {
        let elements: Vec<&str> = subject.elements().collect();
        Self::any_rec(&self.root, &elements)
    }

    fn any_rec(node: &Node<T>, rest: &[&str]) -> bool {
        if rest.is_empty() {
            return !node.exact_subs.is_empty();
        }
        if !node.tail_subs.is_empty() {
            return true;
        }
        if let Some(child) = node.literals.get(rest[0]) {
            if Self::any_rec(child, &rest[1..]) {
                return true;
            }
        }
        if let Some(child) = node.any_one.as_deref() {
            if Self::any_rec(child, &rest[1..]) {
                return true;
            }
        }
        false
    }

    /// Visits every stored subscription as `(id, filter, value)`.
    pub fn for_each(&self, mut f: impl FnMut(SubscriptionId, &SubjectFilter, &T)) {
        self.visit(&self.root, &mut f);
    }

    fn visit(&self, node: &Node<T>, f: &mut impl FnMut(SubscriptionId, &SubjectFilter, &T)) {
        for subs in [&node.exact_subs, &node.tail_subs] {
            // Every entry of one node list shares its filter.
            let Some((first, _)) = subs.first() else {
                continue;
            };
            let filter = &self.index[first].0;
            for (id, value) in subs {
                f(*id, filter, value);
            }
        }
        for child in node.literals.values() {
            self.visit(child, f);
        }
        if let Some(child) = node.any_one.as_deref() {
            self.visit(child, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subj(s: &str) -> Subject {
        Subject::new(s).unwrap()
    }

    fn filt(s: &str) -> SubjectFilter {
        SubjectFilter::new(s).unwrap()
    }

    fn hit_values(trie: &SubjectTrie<&'static str>, s: &str) -> Vec<&'static str> {
        let mut v: Vec<_> = trie.matches(&subj(s)).map(|(_, val)| *val).collect();
        v.sort();
        v
    }

    #[test]
    fn exact_and_wildcard_matching() {
        let mut trie = SubjectTrie::new();
        trie.insert(&filt("news.equity.gmc"), "exact");
        trie.insert(&filt("news.equity.*"), "star");
        trie.insert(&filt("news.>"), "tail");
        trie.insert(&filt("fab5.>"), "fab");

        assert_eq!(
            hit_values(&trie, "news.equity.gmc"),
            vec!["exact", "star", "tail"]
        );
        assert_eq!(hit_values(&trie, "news.equity.ibm"), vec!["star", "tail"]);
        assert_eq!(hit_values(&trie, "news.bond"), vec!["tail"]);
        assert_eq!(hit_values(&trie, "fab5.cc.litho8"), vec!["fab"]);
        assert!(hit_values(&trie, "sports.scores").is_empty());
    }

    #[test]
    fn tail_requires_at_least_one_element() {
        let mut trie = SubjectTrie::new();
        trie.insert(&filt("news.>"), "tail");
        assert!(hit_values(&trie, "news").is_empty());
        assert_eq!(hit_values(&trie, "news.x"), vec!["tail"]);
    }

    #[test]
    fn remove_prunes_and_returns_value() {
        let mut trie = SubjectTrie::new();
        let a = trie.insert(&filt("a.b.c"), 1);
        let b = trie.insert(&filt("a.*.c"), 2);
        assert_eq!(trie.len(), 2);
        assert_eq!(trie.remove(a), Some(1));
        assert_eq!(trie.len(), 1);
        assert_eq!(hit_values_int(&trie, "a.b.c"), vec![2]);
        assert_eq!(trie.remove(a), None);
        assert_eq!(trie.remove(b), Some(2));
        assert!(trie.is_empty());
        // The root should have been fully pruned.
        assert!(trie.root.is_empty());
    }

    fn hit_values_int(trie: &SubjectTrie<i32>, s: &str) -> Vec<i32> {
        let mut v: Vec<_> = trie.matches(&subj(s)).map(|(_, val)| *val).collect();
        v.sort();
        v
    }

    #[test]
    fn duplicate_filters_both_match() {
        let mut trie = SubjectTrie::new();
        let a = trie.insert(&filt("x.y"), 1);
        let b = trie.insert(&filt("x.y"), 2);
        assert_ne!(a, b);
        assert_eq!(hit_values_int(&trie, "x.y"), vec![1, 2]);
    }

    #[test]
    fn matches_any_agrees_with_matches() {
        let mut trie = SubjectTrie::new();
        trie.insert(&filt("a.>"), 0);
        trie.insert(&filt("b.*"), 0);
        for s in ["a.x", "a.x.y", "b.q", "b", "c.d", "a"] {
            let subject = subj(s);
            let has = trie.matches(&subject).count() > 0;
            assert_eq!(trie.matches_any(&subject), has, "subject {s}");
        }
    }

    #[test]
    fn for_each_visits_all() {
        let mut trie = SubjectTrie::new();
        trie.insert(&filt("a.b"), 1);
        trie.insert(&filt("a.>"), 2);
        trie.insert(&filt("*.b"), 3);
        let mut seen = Vec::new();
        trie.for_each(|_, f, v| seen.push((f.as_str().to_owned(), *v)));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                ("*.b".to_owned(), 3),
                ("a.>".to_owned(), 2),
                ("a.b".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn deep_fanout() {
        let mut trie = SubjectTrie::new();
        for i in 0..100 {
            trie.insert(&filt(&format!("news.s{i}.>")), i);
        }
        trie.insert(&filt("news.*.extra"), 1000);
        assert_eq!(hit_values_int(&trie, "news.s42.extra"), vec![42, 1000]);
        assert_eq!(trie.len(), 101);
    }
}
