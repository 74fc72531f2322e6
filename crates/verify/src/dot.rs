//! Graphviz export of explored transition systems.

use std::fmt::Write as _;

use crate::{Lts, StepDesc, TraceRenamer};

/// Renders the LTS in Graphviz `dot` format.
///
/// Silent edges are grey (intruder moves dashed), visible observations
/// are solid black with the canonical event as label; states exhibiting
/// barbs are drawn as double circles.
///
/// # Example
///
/// ```
/// use spi_syntax::parse;
/// use spi_verify::{to_dot, ExploreOptions, Explorer};
///
/// let lts = Explorer::new(ExploreOptions::default())
///     .explore(&parse("(^m)(c<m> | c(x).observe<x>)")?)?;
/// let dot = to_dot(&lts);
/// assert!(dot.starts_with("digraph lts {"));
/// assert!(dot.contains("->"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn to_dot(lts: &Lts) -> String {
    let mut out =
        String::from("digraph lts {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n");
    for (i, state) in lts.states.iter().enumerate() {
        let shape = if state.barbs.is_empty() {
            "circle"
        } else {
            "doublecircle"
        };
        let barbs: Vec<String> = state
            .barbs
            .iter()
            .map(|b| format!("{}{}", b.chan, if b.output { "!" } else { "?" }))
            .collect();
        let label = if barbs.is_empty() {
            format!("{i}")
        } else {
            format!("{i}\\n{}", barbs.join(","))
        };
        let _ = writeln!(out, "  s{i} [shape={shape}, label=\"{label}\"];");
    }
    let _ = writeln!(out, "  s0 [style=bold];");
    for (i, state) in lts.states.iter().enumerate() {
        for (&edge, desc) in state.edges.iter().zip(lts.descs(i)) {
            let tgt = edge.target();
            match lts.event(edge) {
                Some(ev) => {
                    let text = escape(&TraceRenamer::new().canon(ev));
                    let _ = writeln!(out, "  s{i} -> s{tgt} [label=\"{text}\"];");
                }
                None => {
                    let (style, text) = match desc {
                        StepDesc::Intercept { .. } => ("dashed", "intercept"),
                        StepDesc::Inject { .. } => ("dashed", "inject"),
                        _ => ("solid", "τ"),
                    };
                    let _ = writeln!(
                        out,
                        "  s{i} -> s{tgt} [label=\"{text}\", color=gray, style={style}, fontcolor=gray];"
                    );
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExploreOptions, Explorer, IntruderSpec};
    use spi_syntax::parse;

    #[test]
    fn dot_contains_states_and_edges() {
        let lts = Explorer::new(ExploreOptions::default())
            .explore(&parse("(^m)(c<m> | c(x).observe<x>)").unwrap())
            .unwrap();
        let dot = to_dot(&lts);
        assert!(dot.contains("s0 ["));
        assert!(dot.contains("doublecircle"), "barb states are marked");
        assert!(dot.contains("observe!"), "visible events are labelled");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn intruder_moves_are_dashed() {
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        let lts = Explorer::new(ExploreOptions {
            intruder: Some(spec),
            ..ExploreOptions::default()
        })
        .explore(&parse("(^c)(((^m) c<m>) | 0)").unwrap())
        .unwrap();
        let dot = to_dot(&lts);
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("intercept"));
    }
}
