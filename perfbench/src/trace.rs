//! In-memory span recorder for the traced replay.
//!
//! A span is a call into one layer's public function: its name, start,
//! end, the span that caused it and the op it belongs to. Spans stay in
//! memory while the replay runs and are written out once it ends, so
//! the recorder costs two clock reads and a push per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `context.upload`.
    pub name: &'static str,
    /// The op this call served.
    pub op: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. Disabled recorders run the wrapped calls and
/// record nothing, so one replay routine serves traced and untraced runs.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses every span recorded until its
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let result = f();
        self.end();
        result
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `header` (one JSON object) and then one JSON object per
    /// span to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals of one traced replay.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Root `op` spans seen.
    pub ops: u64,
    /// Self time summed per span name (the root's self time is under
    /// `op`: time inside the op that no layer call covers).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Mean self time per op of spans named `name`, in microseconds.
    pub fn per_op_us(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        crate::stats::ratio(ns as f64, self.ops as f64) / 1e3
    }
}

/// Fixed part of the closure slack: the recorder's own clock reads and
/// pushes between the caller's clock reads and the op span's ends.
const CLOSURE_SLACK_NS: u64 = 50_000;
/// Proportional part of the closure slack (1 % of the op).
const CLOSURE_SLACK_DIVISOR: u64 = 100;

/// Folds the spans into per-layer self times and checks closure: for
/// every root `op` span, the self times of the op and every span under it
/// must add up to the op's wall time as the caller measured it with its
/// own clock (`wall_ns`, by op id), within 50 µs + 1 %. Time the op spent
/// outside its span, or layer spans that overlap and so count twice,
/// break it.
///
/// # Errors
///
/// A description of the first op whose spans do not close, or a root
/// `op` span without a measured wall time.
pub fn breakdown(spans: &[Span], wall_ns: &BTreeMap<u64, u64>) -> Result<Breakdown, String> {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut out = Breakdown::default();
    let mut closure: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.self_ns.entry(s.name).or_default() += selfs[i];
        let root = root_of(i);
        if spans[root].name == "op" {
            *closure.entry(root).or_default() += selfs[i];
        }
        if s.parent.is_none() && s.name == "op" {
            out.ops += 1;
        }
    }
    for (root, sum) in closure {
        let op = spans[root].op;
        let wall = *wall_ns
            .get(&op)
            .ok_or_else(|| format!("op {op} has spans but no measured wall time"))?;
        if sum.abs_diff(wall) > CLOSURE_SLACK_NS + wall / CLOSURE_SLACK_DIVISOR {
            return Err(format!(
                "op {op} spans sum to {sum} ns but the op took {wall} ns"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// Wall times that match each root op span exactly.
    fn walls(spans: &[Span]) -> BTreeMap<u64, u64> {
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.op, s.duration_ns()))
            .collect()
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("c", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let b = breakdown(&spans, &walls(&spans)).expect("closes");
        assert_eq!(b.ops, 1);
        assert_eq!(b.self_ns["op"], 30);
        assert_eq!(b.per_op_us("b"), 0.04);
    }

    #[test]
    fn closure_is_checked_against_the_measured_wall() {
        let ms = 1_000_000;
        let spans = vec![span("op", None, 0, 10 * ms), span("a", Some(0), ms, 9 * ms)];
        // Within the slack (50 µs + 1 %): closes.
        let mut wall = BTreeMap::from([(0, 10 * ms + 100_000)]);
        assert!(breakdown(&spans, &wall).is_ok());
        // The op ran 2 ms longer than its spans cover: broken.
        wall.insert(0, 12 * ms);
        assert!(breakdown(&spans, &wall).is_err());
        // No wall time for the op: broken.
        assert!(breakdown(&spans, &BTreeMap::new()).is_err());
    }

    #[test]
    fn overlapping_children_count_once_and_break_closure() {
        let ms = 1_000_000;
        let spans = vec![
            span("op", None, 0, 10 * ms),
            span("a", Some(0), ms, 5 * ms),
            span("a", Some(0), 3 * ms, 7 * ms),
        ];
        assert_eq!(self_times(&spans)[0], 4 * ms);
        // Both children claim 4 ms, so the self times sum to 12 ms.
        assert!(breakdown(&spans, &walls(&spans)).is_err());
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("op", 7);
        let v = t.span("x", 7, || 41 + 1);
        t.end();
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(breakdown(t.spans(), &walls(t.spans())).is_ok());

        let mut off = Tracer::new(false);
        off.begin("op", 1);
        assert_eq!(off.span("x", 1, || 3), 3);
        off.end();
        assert!(off.spans().is_empty());
    }
}
