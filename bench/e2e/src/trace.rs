//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own thread into a vector and
//! written out when the run ends. A disabled [`Tracer`] runs the closure
//! and records nothing, which is how the end-to-end runs (always measured
//! with tracing off) share their code with the traced run.

use std::io::Write;
use std::time::Instant;

/// One recorded call: `name` is `crate.module.function` for a call into
/// the workspace, or a name without a `vg-` prefix for the benchmark's
/// own grouping spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that only runs the closures it is given.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`; spans opened before the matching
    /// [`Tracer::end`] become its children.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span [`Tracer::begin`] returned.
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let span = self.begin(name);
        let out = f(self);
        self.end(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover. Children recorded by one thread never
/// overlap, but the union is taken anyway so the result cannot go
/// negative on a clock that steps.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(cursor, s.end_ns);
                covered += end - start;
                cursor = end;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of the self times of every span below `root` (not `root` itself).
pub fn descendants_self_ns(spans: &[Span], root: usize) -> u64 {
    let selfs = self_times_ns(spans);
    let mut below = vec![false; spans.len()];
    let mut total = 0;
    // A span's parent always precedes it, so one forward pass suffices.
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if p == root || below[p] {
                below[i] = true;
                total += selfs[i];
            }
        }
    }
    total
}

/// Index of the last span named `name`, if any.
pub fn find_last(spans: &[Span], name: &str) -> Option<usize> {
    spans.iter().rposition(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 40..70
            span(10, 40, Some(0)), // child with a grandchild
            span(20, 30, Some(1)), // grandchild: counted against its parent only
            span(40, 70, Some(0)), // adjacent sibling, starts where the first ends
            span(200, 250, None),  // a second root without children
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 50]);
        // Everything below the first root: 20 + 10 + 30.
        assert_eq!(descendants_self_ns(&spans, 0), 60);
        assert_eq!(descendants_self_ns(&spans, 4), 0);
    }

    #[test]
    fn self_time_is_clamped_to_the_parent_interval() {
        // A child that overlaps its sibling and runs past its parent.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(50, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_parents_and_reps_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.set_rep(3);
        let got = t.span("outer", |t| {
            t.span("inner-a", |_| 1) + t.span("inner-b", |_| 2)
        });
        assert_eq!(got, 3);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.rep))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 3),
                ("inner-a", Some(0), 3),
                ("inner-b", Some(0), 3)
            ]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
        assert_eq!(find_last(t.spans(), "inner-b"), Some(2));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::on();
        t.span("a", |t| t.span("b", |_| ()));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\": \"a\"") && lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"name\": \"b\"") && lines[1].contains("\"parent\": 0"));
    }
}
