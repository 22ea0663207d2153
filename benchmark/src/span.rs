//! In-memory spans recorded from the ledger's own code, around the calls
//! into each layer. Nothing inside the program is instrumented, so a
//! cell's split comes from *staged* spans: one layer's public entry
//! point run alone on the same inputs, hung under the span it explains.

use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    pub pass: u32,
    /// Crate name of the layer the time belongs to.
    pub layer: &'static str,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// True for a re-run of one layer alone, false for a real call.
    pub staged: bool,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

impl Open {
    /// Id of the span, for staged children to hang under; `None` when
    /// the recorder is disabled.
    pub fn id(&self) -> Option<u32> {
        self.0
    }
}

/// Span recorder. Disabled, every call is a branch and nothing else, so
/// the end-to-end runs carry no tracing cost.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str, staged: bool) -> Open {
        let parent = self.stack.last().copied();
        self.enter_under(parent, layer, name, staged)
    }

    /// Opens a span under `parent`, which may already be closed: a staged
    /// re-run hangs under the real call it explains, after the fact.
    pub fn enter_under(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        staged: bool,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            pass: self.pass,
            layer,
            name: name.to_string(),
            start_us: now,
            end_us: now,
            staged,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_us = self.now_us();
    }

    /// Records a closed span, timed by the caller, under the innermost
    /// open one. Returns its id, for staged children to hang under.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            pass: self.pass,
            layer,
            name: name.to_string(),
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            end_us: end.saturating_duration_since(self.epoch).as_micros() as u64,
            staged: false,
        });
        Some(id)
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        staged: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let open = self.enter(layer, name, staged);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Id of the span opened last, for a staged re-run to hang under.
    /// Nesting "by subtraction": a child that re-runs part of what its
    /// parent did is run *after* the parent closed, so the parent's self
    /// time comes out as its duration minus the child's.
    pub fn last_id(&self) -> Option<u32> {
        self.spans.last().map(|s| s.id)
    }

    /// Runs `f` inside a staged span hung under `parent`. Spans `f` opens
    /// nest under the staged one.
    pub fn staged<T>(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let open = self.enter_under(parent, layer, name, true);
        let out = f(self);
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: one JSON object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"pass\":{},\
                 \"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"staged\":{}}}{}\n",
                s.id,
                s.pass,
                s.layer,
                s.name.replace(['"', '\\'], "_"),
                s.start_us,
                s.end_us,
                s.staged,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span, in µs: its duration minus its children's.
/// A staged child is a separate re-run and may take longer than the
/// real parent it explains, so the difference is floored at zero.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p as usize] += s.dur_us();
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| s.dur_us().saturating_sub(c))
        .collect()
}

/// Self time per layer over the spans `keep` selects, in seconds.
pub fn layer_self_s(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<(&'static str, f64)> {
    let selfs = self_times_us(spans);
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        if !keep(s) {
            continue;
        }
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += own as f64 / 1e6,
            None => by_layer.push((s.layer, own as f64 / 1e6)),
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            layer,
            name: format!("s{id}"),
            start_us: start,
            end_us: end,
            staged: parent.is_some(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // cell 0..100 ── isa 0..30
        //             └─ uarch 30..90 ── mem 40..70
        let tree = vec![
            span(0, None, "core", 0, 100),
            span(1, Some(0), "isa", 0, 30),
            span(2, Some(0), "uarch", 30, 90),
            span(3, Some(2), "mem", 40, 70),
        ];
        assert_eq!(self_times_us(&tree), vec![10, 30, 30, 30]);
        let by = layer_self_s(&tree, |_| true);
        let get = |l: &str| by.iter().find(|(n, _)| *n == l).unwrap().1;
        assert_eq!(get("core"), 10e-6);
        assert_eq!(get("uarch"), 30e-6);
        assert_eq!(get("mem"), 30e-6);
    }

    #[test]
    fn an_overlong_staged_child_floors_the_parent_at_zero() {
        let tree = vec![
            span(0, None, "core", 0, 50),
            span(1, Some(0), "isa", 100, 180),
        ];
        assert_eq!(self_times_us(&tree), vec![0, 80]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.scope("core", "cell", false, |tr| {
            tr.scope("isa", "run", true, |_| {});
        });
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[1].staged);
        assert!(tr.to_json("w").contains("\"layer\":\"isa\""));

        let mut off = Tracer::new(false);
        off.scope("core", "cell", false, |_| {});
        assert!(off.spans().is_empty());
    }
}
