//! Randomized tests for subjects, filters, and the subscription trie.
//!
//! Deterministic property testing: inputs are generated from a seeded
//! [`SimRng`], so every run explores the same (large) sample of the input
//! space and failures reproduce exactly.

use infobus_netsim::SimRng;
use infobus_subject::{Subject, SubjectFilter, SubjectTrie};

const CASES: usize = 300;

/// A valid subject element over `[a-z0-9_-]{1,8}`.
fn element(r: &mut SimRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let len = r.gen_range_inclusive(1, 8) as usize;
    (0..len)
        .map(|_| CHARS[r.gen_range_inclusive(0, CHARS.len() as u64 - 1) as usize] as char)
        .collect()
}

/// A valid subject of 1..=6 elements.
fn subject(r: &mut SimRng) -> Subject {
    let n = r.gen_range_inclusive(1, 6);
    let elems: Vec<String> = (0..n).map(|_| element(r)).collect();
    Subject::new(&elems.join(".")).expect("generated subject is valid")
}

/// A valid filter of 1..=5 elements plus an optional `>` tail, with `*`
/// wildcards mixed in.
fn filter(r: &mut SimRng) -> SubjectFilter {
    let n = r.gen_range_inclusive(1, 5);
    let mut elems: Vec<String> = (0..n)
        .map(|_| {
            if r.gen_f64() < 0.2 {
                "*".to_owned()
            } else {
                element(r)
            }
        })
        .collect();
    if r.gen_f64() < 0.5 {
        elems.push(">".to_owned());
    }
    SubjectFilter::new(&elems.join(".")).expect("generated filter is valid")
}

/// A deliberately naive matcher used as the test oracle.
fn reference_match(filter: &str, subject: &[&str]) -> bool {
    let felems: Vec<&str> = filter.split('.').collect();
    fn go(f: &[&str], s: &[&str]) -> bool {
        match f.first() {
            None => s.is_empty(),
            Some(&">") => !s.is_empty(),
            Some(&"*") => !s.is_empty() && go(&f[1..], &s[1..]),
            Some(&lit) => !s.is_empty() && s[0] == lit && go(&f[1..], &s[1..]),
        }
    }
    go(&felems, subject)
}

/// Every valid subject round-trips through its textual form.
#[test]
fn subject_text_round_trip() {
    let mut r = SimRng::seed_from_u64(1);
    for _ in 0..CASES {
        let s = subject(&mut r);
        let again = Subject::new(s.as_str()).unwrap();
        assert_eq!(s, again);
        assert_eq!(s.depth(), s.elements().count());
    }
}

/// A subject used as an exact filter matches itself and nothing with a
/// different depth.
#[test]
fn exact_filter_matches_self() {
    let mut r = SimRng::seed_from_u64(2);
    for _ in 0..CASES {
        let s = subject(&mut r);
        let f = SubjectFilter::exact(&s);
        assert!(f.matches(&s));
        let deeper = s.child("zz").unwrap();
        assert!(!f.matches(&deeper));
    }
}

/// `filter.matches(subject)` agrees with the naive reference matcher.
#[test]
fn filter_matches_reference() {
    let mut r = SimRng::seed_from_u64(3);
    for _ in 0..CASES * 4 {
        let f = filter(&mut r);
        let s = subject(&mut r);
        let reference = reference_match(f.as_str(), &s.elements().collect::<Vec<_>>());
        assert_eq!(f.matches(&s), reference, "filter={f} subject={s}");
    }
}

/// The trie returns exactly the set of subscriptions whose filter matches
/// the subject, per a linear-scan reference.
#[test]
fn trie_agrees_with_linear_scan() {
    let mut r = SimRng::seed_from_u64(4);
    for _ in 0..CASES {
        let filters: Vec<SubjectFilter> = (0..r.gen_range_inclusive(1, 19))
            .map(|_| filter(&mut r))
            .collect();
        let subjects: Vec<Subject> = (0..r.gen_range_inclusive(1, 19))
            .map(|_| subject(&mut r))
            .collect();
        let mut trie = SubjectTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        for s in &subjects {
            let mut got: Vec<usize> = trie.matches(s).map(|(_, v)| *v).collect();
            got.sort_unstable();
            got.dedup();
            let mut want: Vec<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.matches(s))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "subject={s}");
            assert_eq!(trie.matches_any(s), !want.is_empty());
        }
    }
}

/// Removing every subscription, in random order, empties the trie;
/// removals only affect the removed subscription, and a second removal
/// of the same id finds nothing.
#[test]
fn trie_remove_is_precise() {
    let mut r = SimRng::seed_from_u64(5);
    for _ in 0..CASES {
        let filters: Vec<SubjectFilter> = (0..r.gen_range_inclusive(1, 14))
            .map(|_| filter(&mut r))
            .collect();
        let s = subject(&mut r);
        let mut trie = SubjectTrie::new();
        let mut ids: Vec<_> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| (trie.insert(f, i), i))
            .collect();
        // Fisher-Yates: remove in a random order.
        for k in (1..ids.len()).rev() {
            ids.swap(k, r.gen_range_inclusive(0, k as u64) as usize);
        }
        let mut remaining: Vec<usize> = (0..filters.len()).collect();
        for (id, i) in ids {
            assert_eq!(trie.remove_entry(id), Some((filters[i].clone(), i)));
            assert_eq!(trie.remove(id), None);
            remaining.retain(|&x| x != i);
            assert_eq!(trie.len(), remaining.len());
            let mut got: Vec<usize> = trie.matches(&s).map(|(_, v)| *v).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&x| filters[x].matches(&s))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        assert!(trie.is_empty());
    }
}

/// If `a.covers(b)` then every subject matched by `b` is matched by `a`.
#[test]
fn covers_is_sound() {
    let mut r = SimRng::seed_from_u64(6);
    for _ in 0..CASES * 4 {
        let a = filter(&mut r);
        let b = filter(&mut r);
        let s = subject(&mut r);
        if a.covers(&b) && b.matches(&s) {
            assert!(a.matches(&s), "a={a} b={b} s={s}");
        }
    }
}
