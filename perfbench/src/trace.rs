//! In-memory spans recorded by the benchmark around each call it makes
//! into a bus layer. Spans of one message share its sequence number; a
//! span's parent is an index into the same trace. Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// One thread's spans. Threads record into their own `Trace` and the
/// run merges them at the end.
pub struct Trace {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(base: Instant) -> Trace {
        Trace {
            base,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        seq: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            seq,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans, rebasing their parent indices.
    pub fn merge(&mut self, other: Trace) {
        let off = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + off);
            s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per span name: (count, mean duration ns, mean self time ns). Self
    /// time is the span's duration minus the part of it its children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut acc: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns - s.start_ns;
            let e = acc.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64;
            e.2 += dur.saturating_sub(union) as f64;
        }
        for e in acc.values_mut() {
            e.1 /= e.0 as f64;
            e.2 /= e.0 as f64;
        }
        acc
    }

    /// Writes every span as CSV (`name,seq,start_ns,end_ns,parent`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,seq,start_ns,end_ns,parent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.seq, s.start_ns, s.end_ns, parent
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut t = Trace::new(t0);
        let root = t.record("root", 1, at(0), at(100), None);
        t.record("a", 1, at(10), at(40), Some(root));
        t.record("b", 1, at(30), at(60), Some(root));
        let st = t.self_times();
        assert_eq!(st["root"], (1, 100_000.0, 50_000.0));
        assert_eq!(st["a"].2, 30_000.0);
    }

    #[test]
    fn merge_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Trace::new(t0);
        a.record("x", 0, t0, t0, None);
        let mut b = Trace::new(t0);
        let p = b.record("y", 0, t0, t0, None);
        b.record("z", 0, t0, t0, Some(p));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
