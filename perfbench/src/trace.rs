//! An in-memory span recorder for the traced run: one span (name, start,
//! end, parent) around each layer call the benchmark makes, written out as
//! tab-separated lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-span self time: duration minus the durations of direct
    /// children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// `(spans, Σ self time in ns)` over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(n, t), (_, ns)| (n + 1, t + ns))
    }

    /// Σ self time of `name` spans in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.total(name).1 as f64 / 1e9
    }

    /// `index  parent  name  start_ns  end_ns  self_ns`, one span a line.
    pub fn render(&self) -> String {
        let mut out = String::from("# index\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit();
        let (n_outer, outer) = t.total("outer");
        let (n_inner, inner) = t.total("inner");
        assert_eq!((n_outer, n_inner), (1, 1));
        assert!(inner >= 20_000_000);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert_eq!(t.render().lines().count(), 3);
    }
}
