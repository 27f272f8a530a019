//! Spans recorded around the benchmark's calls into each layer.
//!
//! The program itself carries no spans: every span here wraps one call
//! into a public function, from the benchmark's side of the boundary.
//! Spans stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans for one repetition.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed: Option<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        self.last_closed = Some(id);
        out
    }

    /// Duration of the span closed last, in seconds.
    pub fn last_secs(&self) -> f64 {
        self.last_closed
            .map_or(0.0, |id| self.spans[id as usize].secs())
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span still open");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

/// Appends `spans` of one repetition as JSON lines.
pub fn write_jsonl(out: &mut String, spans: &[Span], workload: &str, rep: usize) {
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\",\"rep\":{rep}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        let st: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(st, vec![30, 20, 10, 40]);
        // Self times partition the root's interval.
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_under_the_open_span() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("root", |tr| {
            tr.span("leaf", |_| ());
            tr.span("leaf", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root_secs = tr.last_secs();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert_eq!(root_secs, spans[0].secs(), "the root closes last");
        assert!(spans[2].secs() >= 0.002 && spans[2].end_ns <= spans[0].end_ns);
    }
}
