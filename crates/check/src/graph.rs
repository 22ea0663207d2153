//! Model-graph analysis: prove a token-coupled target graph can run
//! before any cycle is simulated.
//!
//! FireSim elaborates its target design before FPGA synthesis and
//! rejects malformed channel topologies at that stage; this module is
//! the software analogue. The engine's `Harness` wiring is lifted into a
//! [`GraphSpec`] — plain data, no models attached — and [`analyze`]
//! proves the three properties token simulation needs:
//!
//! 1. **Decoupling** — every channel has ≥ 1 cycle of latency (`MG001`),
//!    so producer and consumer never need the same cycle's token.
//! 2. **Deadlock freedom** — every cycle in the graph carries at least
//!    one reset token (`MG002`). A token loop with no initial tokens is
//!    a combinational loop in FireSim terms: every model waits on input
//!    that can only be produced after its own output.
//! 3. **Wiring completeness** — endpoints exist (`MG004`), every input
//!    port has exactly one driver (`MG003`), capacities hold a full
//!    latency + quantum window (`MG005`), and outputs that drive nothing
//!    are called out (`MG006`).
//!
//! Diagnostic codes are stable; see `crates/check/README.md`.

use crate::diag::{Diagnostic, Report};

/// One model's shape, without the model itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSpec {
    /// Display name used in diagnostics (e.g. `"core0"`, `"model 2"`).
    pub name: String,
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
}

impl ModelSpec {
    /// A spec named `model {index}`, matching the engine's diagnostics.
    pub fn indexed(index: usize, inputs: usize, outputs: usize) -> ModelSpec {
        ModelSpec {
            name: format!("model {index}"),
            inputs,
            outputs,
        }
    }
}

/// One directed channel in the analyzable graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSpec {
    /// Producing model index.
    pub from_model: usize,
    /// Producing port.
    pub from_port: usize,
    /// Consuming model index.
    pub to_model: usize,
    /// Consuming port.
    pub to_port: usize,
    /// Target-cycle latency.
    pub latency: u64,
    /// Initial (reset) tokens; `None` means the engine default of one
    /// token per cycle of latency.
    pub reset_tokens: Option<u64>,
    /// Channel capacity in tokens; `None` means the engine default of
    /// `latency + quantum` (always sufficient by construction).
    pub capacity: Option<usize>,
}

impl WireSpec {
    /// The engine-default wire: reset tokens = latency, auto capacity.
    pub fn new(
        from_model: usize,
        from_port: usize,
        to_model: usize,
        to_port: usize,
        latency: u64,
    ) -> WireSpec {
        WireSpec {
            from_model,
            from_port,
            to_model,
            to_port,
            latency,
            reset_tokens: None,
            capacity: None,
        }
    }

    /// Reset tokens actually present at cycle 0.
    fn effective_reset_tokens(&self) -> u64 {
        self.reset_tokens.unwrap_or(self.latency)
    }

    fn span(&self, index: usize) -> String {
        format!(
            "wire {index}: model {}.out{} -> model {}.in{}",
            self.from_model, self.from_port, self.to_model, self.to_port
        )
    }
}

/// A complete target graph, ready for [`analyze`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphSpec {
    /// The models (index = model id, as used by the wires).
    pub models: Vec<ModelSpec>,
    /// The channels.
    pub wires: Vec<WireSpec>,
}

/// Statically checks a target graph for the given channel quantum.
/// Returns every violation found, never panics.
pub fn analyze(spec: &GraphSpec, quantum: usize) -> Report {
    let mut report = Report::new();
    let nmodels = spec.models.len();

    // MG001/MG004/MG005 are per-wire properties.
    let mut wired_ok = vec![false; spec.wires.len()];
    for (wi, w) in spec.wires.iter().enumerate() {
        let span = w.span(wi);
        if w.from_model >= nmodels || w.to_model >= nmodels {
            report.push(
                Diagnostic::error(
                    "MG004",
                    &span,
                    format!(
                        "dangling endpoint: wire references model {} but the graph has {nmodels} model(s)",
                        w.from_model.max(w.to_model)
                    ),
                )
                .with_help("wire endpoints must index into the model list"),
            );
            continue; // port checks below would index out of range
        }
        let mut endpoints_ok = true;
        if w.from_port >= spec.models[w.from_model].outputs {
            endpoints_ok = false;
            report.push(Diagnostic::error(
                "MG004",
                &span,
                format!(
                    "dangling from_port: {} has {} output port(s), wire drives out{}",
                    spec.models[w.from_model].name, spec.models[w.from_model].outputs, w.from_port
                ),
            ));
        }
        if w.to_port >= spec.models[w.to_model].inputs {
            endpoints_ok = false;
            report.push(Diagnostic::error(
                "MG004",
                &span,
                format!(
                    "dangling to_port: {} has {} input port(s), wire feeds in{}",
                    spec.models[w.to_model].name, spec.models[w.to_model].inputs, w.to_port
                ),
            ));
        }
        wired_ok[wi] = endpoints_ok;
        if w.latency == 0 {
            report.push(
                Diagnostic::error(
                    "MG001",
                    &span,
                    "token channels need >= 1 cycle latency to decouple their endpoints",
                )
                .with_help("a zero-latency channel couples producer and consumer combinationally; raise the wire latency to at least 1"),
            );
        }
        let needed = w.latency as usize + quantum;
        if let Some(cap) = w.capacity {
            if cap < needed {
                report.push(
                    Diagnostic::error(
                        "MG005",
                        &span,
                        format!(
                            "channel capacity {cap} cannot hold a full window: latency {} + quantum {quantum} = {needed} tokens",
                            w.latency
                        ),
                    )
                    .with_help("size the channel to at least latency + quantum, or the producer stalls inside its own quantum"),
                );
            }
        }
        if w.effective_reset_tokens() > w.latency {
            report.push(
                Diagnostic::warning(
                    "MG002",
                    &span,
                    format!(
                        "channel starts with {} reset tokens but only {} cycle(s) of latency; the extra tokens shift target time",
                        w.effective_reset_tokens(),
                        w.latency
                    ),
                )
                .with_help("reset tokens beyond the latency make the consumer observe the producer's cycle-0 output early"),
            );
        }
    }

    // MG003: every input port needs exactly one driver. Count only wires
    // with valid endpoints so a dangling wire yields MG004, not a bogus
    // fan-in conflict as well.
    for (mi, m) in spec.models.iter().enumerate() {
        for p in 0..m.inputs {
            let n = spec
                .wires
                .iter()
                .zip(&wired_ok)
                .filter(|(w, ok)| **ok && w.to_model == mi && w.to_port == p)
                .count();
            if n != 1 {
                report.push(
                    Diagnostic::error(
                        "MG003",
                        format!("model {mi} input {p}"),
                        format!("model {mi} input {p} must have exactly one driver, has {n}"),
                    )
                    .with_help(if n == 0 {
                        "an undriven input can never receive a token: the model stalls at cycle 0"
                    } else {
                        "two producers racing one channel break the one-token-per-cycle protocol"
                    }),
                );
            }
        }
    }

    // MG006: outputs driving nothing (legal, but the values vanish).
    for (mi, m) in spec.models.iter().enumerate() {
        for p in 0..m.outputs {
            let n = spec
                .wires
                .iter()
                .zip(&wired_ok)
                .filter(|(w, ok)| **ok && w.from_model == mi && w.from_port == p)
                .count();
            if n == 0 {
                report.push(
                    Diagnostic::warning(
                        "MG006",
                        format!("{} output {p}", m.name),
                        format!(
                            "output port {p} of {} drives no channel; its tokens are discarded",
                            m.name
                        ),
                    )
                    .with_help("remove the port or wire it to a consumer"),
                );
            }
        }
    }

    // MG002 (deadlock): a cycle whose every edge carries zero reset
    // tokens can never produce its first token — each model waits on
    // input only producible after its own output. Restrict the graph to
    // zero-reset edges and look for any cycle.
    find_tokenless_cycles(spec, &wired_ok, &mut report);

    report
}

/// DFS over the subgraph of valid, zero-reset-token wires; any cycle in
/// that subgraph deadlocks at cycle 0. Reports each cycle once, listing
/// the models on it.
fn find_tokenless_cycles(spec: &GraphSpec, wired_ok: &[bool], report: &mut Report) {
    let n = spec.models.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (wi, w) in spec.wires.iter().enumerate() {
        if wired_ok[wi] && w.effective_reset_tokens() == 0 {
            adj[w.from_model].push(w.to_model);
        }
    }
    // Colors: 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit edge cursor per path node.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        path.push(start);
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[top];
            if cursor < adj[node].len() {
                let next = adj[node][cursor];
                stack[top].1 += 1;
                match color[next] {
                    0 => {
                        color[next] = 1;
                        path.push(next);
                        stack.push((next, 0));
                    }
                    1 => {
                        // Back edge: the cycle is path[pos..] -> next.
                        let pos = path.iter().position(|&m| m == next).expect("on path");
                        let cycle: Vec<String> =
                            path[pos..].iter().map(|&m| format!("model {m}")).collect();
                        report.push(
                            Diagnostic::error(
                                "MG002",
                                format!("cycle through {}", cycle.join(" -> ")),
                                "token cycle carries zero reset tokens: every model on it waits for input that can only be produced after its own output (deadlock at cycle 0)",
                            )
                            .with_help("give at least one channel on the cycle a nonzero latency (reset tokens default to the latency)"),
                        );
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                path.pop();
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, latency: u64) -> GraphSpec {
        GraphSpec {
            models: (0..n).map(|i| ModelSpec::indexed(i, 1, 1)).collect(),
            wires: (0..n)
                .map(|i| WireSpec::new(i, 0, (i + 1) % n, 0, latency))
                .collect(),
        }
    }

    #[test]
    fn healthy_ring_is_clean() {
        let r = analyze(&ring(4, 2), 8);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn zero_latency_wire_is_mg001() {
        let mut g = ring(3, 1);
        g.wires[1].latency = 0;
        let r = analyze(&g, 1);
        assert!(r.has_code("MG001"), "{}", r.render());
        assert!(r.has_errors());
        // The rest of the ring still has reset tokens, so no deadlock.
        assert!(!r.has_code("MG002"), "{}", r.render());
    }

    #[test]
    fn tokenless_cycle_is_mg002() {
        let mut g = ring(3, 1);
        for w in &mut g.wires {
            w.reset_tokens = Some(0);
        }
        let r = analyze(&g, 1);
        assert!(r.has_code("MG002"), "{}", r.render());
        let d = r.with_code("MG002").next().unwrap();
        assert!(d.span.contains("model 0"), "{}", d.span);
    }

    #[test]
    fn tokenless_self_loop_is_mg002() {
        let g = GraphSpec {
            models: vec![ModelSpec::indexed(0, 1, 1)],
            wires: vec![WireSpec {
                reset_tokens: Some(0),
                ..WireSpec::new(0, 0, 0, 0, 1)
            }],
        };
        assert!(analyze(&g, 1).has_code("MG002"));
    }

    #[test]
    fn acyclic_tokenless_edge_is_fine() {
        // A zero-reset edge without a cycle just means the consumer
        // waits one quantum; it is not a deadlock.
        let g = GraphSpec {
            models: vec![ModelSpec::indexed(0, 0, 1), ModelSpec::indexed(1, 1, 0)],
            wires: vec![WireSpec {
                reset_tokens: Some(0),
                ..WireSpec::new(0, 0, 1, 0, 1)
            }],
        };
        let r = analyze(&g, 1);
        assert!(!r.has_code("MG002"), "{}", r.render());
    }

    #[test]
    fn undriven_and_fanin_inputs_are_mg003() {
        let mut g = ring(2, 1);
        let extra = g.wires[0]; // second driver for model 1 input 0
        g.wires.push(extra);
        let r = analyze(&g, 1);
        let msgs: Vec<&str> = r.with_code("MG003").map(|d| d.message.as_str()).collect();
        assert_eq!(msgs.len(), 1, "{}", r.render());
        assert!(msgs[0].contains("exactly one driver, has 2"), "{}", msgs[0]);

        let empty = GraphSpec {
            models: vec![ModelSpec::indexed(0, 1, 1)],
            wires: vec![],
        };
        let r = analyze(&empty, 1);
        assert!(r
            .with_code("MG003")
            .any(|d| d.message.contains("exactly one driver, has 0")));
    }

    #[test]
    fn out_of_range_endpoints_are_mg004() {
        let mut g = ring(2, 1);
        g.wires[0].to_model = 9;
        g.wires[1].from_port = 7;
        let r = analyze(&g, 1);
        assert_eq!(r.with_code("MG004").count(), 2, "{}", r.render());
        assert!(r.has_errors());
    }

    #[test]
    fn undersized_capacity_is_mg005() {
        let mut g = ring(2, 3);
        g.wires[0].capacity = Some(4); // needs 3 + 8 = 11
        let r = analyze(&g, 8);
        assert!(r.has_code("MG005"), "{}", r.render());
        // Auto capacity (None) is sufficient by construction.
        g.wires[0].capacity = None;
        assert!(analyze(&g, 8).is_clean());
    }

    #[test]
    fn unconsumed_output_is_mg006_warning_only() {
        let g = GraphSpec {
            models: vec![ModelSpec::indexed(0, 0, 2), ModelSpec::indexed(1, 1, 0)],
            wires: vec![WireSpec::new(0, 0, 1, 0, 1)],
        };
        let r = analyze(&g, 1);
        assert!(r.has_code("MG006"), "{}", r.render());
        assert!(!r.has_errors() && r.has_warnings());
    }

    #[test]
    fn excess_reset_tokens_warn_as_mg002() {
        let mut g = ring(2, 1);
        g.wires[0].reset_tokens = Some(5);
        let r = analyze(&g, 1);
        assert!(r.has_code("MG002") && !r.has_errors(), "{}", r.render());
    }
}
