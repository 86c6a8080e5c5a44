//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only here, in the benchmark, around calls into the
//! workspace crates' public functions; nothing inside the crates changes.
//! They are kept in memory and written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::{json_num, json_str};

/// Largest share of a parent span its recorded children may leave
/// unexplained before the layer tree counts as not reconciling.
pub const RESIDUAL: f64 = 0.10;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span recorder (the benchmark thread makes every call).
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.stack.borrow().last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span {
                id,
                parent,
                name: name.into(),
                start,
                end: f64::NAN,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Share of the time in spans named `root`, summed over the run, that
    /// the leaf spans below them (spans with no children) do not cover.
    pub fn leaf_unexplained(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut has_child = vec![false; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let under_root = |s: &Span| {
            let mut p = s.parent;
            while let Some(id) = p {
                if spans[id].name == root {
                    return true;
                }
                p = spans[id].parent;
            }
            false
        };
        let total: f64 = spans
            .iter()
            .filter(|s| s.name == root)
            .map(Span::secs)
            .sum();
        let leaves: f64 = spans
            .iter()
            .filter(|s| !has_child[s.id] && under_root(s))
            .map(Span::secs)
            .sum();
        unexplained(total, leaves)
    }

    /// Chrome trace-event JSON of every span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                json_str(&s.name),
                json_num(s.start * 1e6),
                json_num(s.secs() * 1e6),
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string())
            );
        }
        out.push_str("]}");
        out
    }
}

/// Run `f` under a span when a tracer is given.
pub fn span_if<R>(tr: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Share of `parent` seconds that `children` seconds leave uncovered
/// (negative when the children overshoot, which only clock error allows).
pub fn unexplained(parent: f64, children: f64) -> f64 {
    if parent > 0.0 {
        (parent - children) / parent
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tr = Tracer::default();
        tr.span("outer", || {
            tr.span("inner", || spin(20));
            tr.span("inner", || spin(20));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tr.durations("inner").len(), 2);
        assert!(tr.leaf_unexplained("outer") < RESIDUAL);
        assert!(tr.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn uncovered_parent_time_shows_as_unexplained() {
        let tr = Tracer::default();
        tr.span("outer", || {
            tr.span("inner", || spin(5));
            spin(30);
        });
        assert!(tr.leaf_unexplained("outer") > RESIDUAL);
    }
}
