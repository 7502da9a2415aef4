//! In-memory spans recorded around calls into each layer.
//!
//! A span has a layer name, a start and an end (nanoseconds since the
//! run's epoch), the span that caused it, and the file or operation id
//! it worked on. Spans stay in memory while the run measures and are
//! written out once it ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub item: usize,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, item: usize) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, and any span still open inside it (left open
    /// by a call that panicked).
    pub fn end(&mut self, id: usize) {
        while let Some(open) = self.open.pop() {
            self.spans[open].end = self.now();
            if open == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, item);
        let out = f();
        self.end(id);
        out
    }

    /// Appends spans recorded on another thread (same epoch); their
    /// roots become children of this trace's innermost open span.
    pub fn absorb(&mut self, mut other: Trace) {
        if let Some(&outermost) = other.open.first() {
            other.end(outermost);
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map_or(parent, |p| Some(p + base)),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed wall time of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum();
        ns as f64 / 1e6
    }

    /// Self time per layer name, in ms: each span's duration minus the
    /// union of its children's intervals.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (span, mut kids) in self.spans.iter().zip(children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(span.name).or_insert(0.0) +=
                (span.end - span.start).saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// The spans as tab-separated lines: id, parent, name, item, start
    /// and end in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\titem\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.item, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            Span {
                name: "a",
                start: 0,
                end: 100,
                parent: None,
                item: 0,
            },
            Span {
                name: "b",
                start: 10,
                end: 40,
                parent: Some(0),
                item: 0,
            },
            Span {
                name: "b",
                start: 30,
                end: 60,
                parent: Some(0),
                item: 1,
            },
            Span {
                name: "c",
                start: 90,
                end: 120,
                parent: Some(0),
                item: 0,
            },
        ];
        let self_ms = t.self_ms();
        // a covers [10,60) and [90,100): 60 of 100 ns.
        assert_eq!(self_ms["a"], 40.0 / 1e6);
        assert_eq!(self_ms["b"], 60.0 / 1e6);
    }
}
