//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer (spans inside `crates/*` are a later change). Kept in
//! memory during the run; summarised, and optionally written out, at exit.

use crate::json::Json;

/// Index of a stored span; `NONE` for "no parent" and for spans past the
/// storage cap (their time is still counted in the per-name totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: SpanId,
    /// The event's `seq`: the identifier every span of one event shares,
    /// across threads.
    seq: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct NameTotals {
    count: u64,
    total_ns: u64,
    /// Time covered by spans whose parent carries this name.
    child_ns: u64,
}

/// Per-name summary of a [`SpanLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Span time minus the part its child spans cover.
    pub self_ns: u64,
}

impl SpanSummary {
    pub fn self_mean_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// One thread's span buffer. Raw spans are stored up to a cap (a traced
/// phase can produce millions); totals cover every span regardless.
pub struct SpanLog {
    names: Vec<&'static str>,
    totals: Vec<NameTotals>,
    spans: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    pub fn new(names: &[&'static str], cap: usize) -> SpanLog {
        SpanLog {
            names: names.to_vec(),
            totals: vec![NameTotals::default(); names.len()],
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Start a span that will have children; finish it with
    /// [`close`](Self::close).
    #[inline]
    pub fn open(&mut self, name: u16, seq: u64, start_ns: u64) -> (SpanId, u64) {
        let id = if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                parent: SpanId::NONE,
                seq,
                start_ns,
                end_ns: start_ns,
            });
            SpanId(self.spans.len() as u32 - 1)
        } else {
            SpanId::NONE
        };
        (id, start_ns)
    }

    #[inline]
    pub fn close(&mut self, name: u16, open: (SpanId, u64), end_ns: u64) {
        let (id, start_ns) = open;
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += end_ns - start_ns;
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Record a finished span, child of a span named `parent_name`.
    #[inline]
    pub fn child(
        &mut self,
        name: u16,
        parent: SpanId,
        parent_name: u16,
        seq: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.totals[parent_name as usize].child_ns += end_ns - start_ns;
        self.leaf_with_parent(name, parent, seq, start_ns, end_ns);
    }

    /// Record a finished span with no parent on this thread.
    #[inline]
    pub fn leaf(&mut self, name: u16, seq: u64, start_ns: u64, end_ns: u64) {
        self.leaf_with_parent(name, SpanId::NONE, seq, start_ns, end_ns);
    }

    #[inline]
    fn leaf_with_parent(
        &mut self,
        name: u16,
        parent: SpanId,
        seq: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += end_ns - start_ns;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                parent,
                seq,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn summary(&self) -> Vec<SpanSummary> {
        self.names
            .iter()
            .zip(&self.totals)
            .map(|(&name, t)| SpanSummary {
                name,
                count: t.count,
                total_ns: t.total_ns,
                self_ns: t.total_ns.saturating_sub(t.child_ns),
            })
            .collect()
    }

    pub fn get(&self, name: &str) -> Option<SpanSummary> {
        self.summary().into_iter().find(|s| s.name == name)
    }

    /// `{"names": [...], "spans": [[name, parent, seq, start_ns, end_ns], ...]}`;
    /// `parent` is an index into `spans`, or -1.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == SpanId::NONE {
                    -1.0
                } else {
                    f64::from(s.parent.0)
                };
                Json::Arr(vec![
                    Json::Num(f64::from(s.name)),
                    Json::Num(parent),
                    Json::Num(s.seq as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect()),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_survives_the_cap() {
        let mut log = SpanLog::new(&["root", "a", "b"], 3);
        for seq in 0..2u64 {
            let base = seq * 1000;
            let root = log.open(0, seq, base);
            log.child(1, root.0, 0, seq, base + 10, base + 40);
            log.child(2, root.0, 0, seq, base + 50, base + 70);
            log.close(0, root, base + 100);
        }
        let root = log.get("root").unwrap();
        assert_eq!((root.count, root.total_ns, root.self_ns), (2, 200, 100));
        assert_eq!(log.get("a").unwrap().self_ns, 60);
        assert_eq!(log.get("b").unwrap().self_mean_ns(), 20.0);
        // Only three raw spans fit; the totals above still saw all six.
        let json = log.to_json();
        let spans = json.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].as_arr().unwrap()[1], Json::Num(0.0));
        assert_eq!(spans[0].as_arr().unwrap()[4], Json::Num(100.0));
    }
}
