//! Harness-side spans. A span is recorded around every call the harness
//! makes into a layer while `--trace 1` is on; spans stay in memory and are
//! written out once, at exit. With tracing off every method returns at the
//! first branch, so the untraced run pays one predictable branch per call.
//!
//! The program itself records no spans yet (that is a later change), so
//! child spans below a public call are synthesised from the counters the
//! call already returns (`PhaseTimeline`): their durations are measured by
//! the program, their start is placed at the parent's start.

use std::time::Instant;

use crate::json::{self, Json};

/// The layers spans and per-layer metrics are attributed to: the
/// repository's crates, plus the harness itself.
pub const LAYERS: [&str; 8] = [
    "graph",
    "diffusion",
    "coverage",
    "cluster",
    "core",
    "store",
    "serve",
    "harness",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `usize::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, rep: u32) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        debug_assert!(LAYERS.contains(&layer));
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            rep,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, rep);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a child of the open span `parent` whose duration the program
    /// measured itself. Children are laid end to end from the parent's
    /// start, so they never overlap.
    pub fn child_of(&mut self, parent: SpanId, name: &'static str, layer: &'static str, secs: f64) {
        if self.enabled {
            self.child_at(parent.0, name, layer, secs);
        }
    }

    /// [`Tracer::child_of`] for a span that has already closed, by index.
    pub fn child_at(&mut self, parent: usize, name: &'static str, layer: &'static str, secs: f64) {
        if !self.enabled || secs <= 0.0 {
            return;
        }
        let parent = SpanId(parent);
        let p = &self.spans[parent.0];
        let laid: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent.0))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let start_ns = p.start_ns + laid;
        let span = Span {
            name,
            layer,
            rep: p.rep,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: Some(parent.0),
        };
        self.spans.push(span);
    }

    /// Gives the closed span `id` a duration measured elsewhere (a median
    /// over many operations), keeping its start.
    pub fn stretch(&mut self, id: usize, secs: f64) {
        if self.enabled {
            self.spans[id].end_ns = self.spans[id].start_ns + (secs * 1e9) as u64;
        }
    }

    /// Appends the spans another thread recorded (its own origin is mapped
    /// onto this tracer's clock by `offset_ns`), re-parenting its roots
    /// under the innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let offset_ns = other.origin.duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        let root = self.open.last().copied();
        for mut s in other.spans {
            s.start_ns += offset_ns;
            s.end_ns += offset_ns;
            s.parent = s.parent.map(|p| p + base).or(root);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the direct children of span `id`.
    pub fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// A span's self time: its duration minus the part of it that its child
    /// spans cover (overlapping children, as from parallel workers, are
    /// counted once).
    pub fn self_secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
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
    }

    /// Self time summed per layer over the subtree rooted at `root`, in
    /// [`LAYERS`] order.
    pub fn layer_self_secs(&self, root: usize) -> [f64; LAYERS.len()] {
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents always precede their children in `spans`.
        for i in root + 1..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                in_tree[i] = in_tree[p];
            }
        }
        let mut out = [0.0; LAYERS.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let slot = LAYERS
                    .iter()
                    .position(|l| *l == s.layer)
                    .expect("known layer");
                out[slot] += self.self_secs(i);
            }
        }
        out
    }

    /// Index of the last recorded root-level span named `name`.
    pub fn last_named(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    json::obj(vec![
                        ("name", json::text(s.name)),
                        ("layer", json::text(s.layer)),
                        ("workload", json::text(workload)),
                        ("rep", Json::Num(s.rep as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span {
            name: "root",
            layer: "core",
            rep: 0,
            start_ns: 0,
            end_ns: 100,
            parent: None,
        });
        t.spans.push(Span {
            name: "a",
            layer: "diffusion",
            rep: 0,
            start_ns: 10,
            end_ns: 50,
            parent: Some(0),
        });
        t.spans.push(Span {
            name: "b",
            layer: "diffusion",
            rep: 0,
            start_ns: 30,
            end_ns: 70,
            parent: Some(0),
        });
        assert!((t.self_secs(0) - 40e-9).abs() < 1e-15);
        let by_layer = t.layer_self_secs(0);
        assert!(
            (by_layer[1] - 80e-9).abs() < 1e-15,
            "both children keep their own time"
        );
        assert!((by_layer[4] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", "core", 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
