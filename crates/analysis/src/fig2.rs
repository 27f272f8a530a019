//! Figure 2: the request-mapping DNS graph, crawled from vantage points.
//!
//! The paper assembled Figure 2 by resolving `appldnld.apple.com` from many
//! vantage points and unioning the CNAME edges. This module does exactly
//! that against the simulated namespace: every vantage VM crawls repeatedly
//! (cold-cache, like the AWS measurements), before and after the release,
//! and the observed edges are tabulated with their TTLs and an event flag.

use crate::table::Table;
use mcdn_dnssim::CompiledNamespace;
use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{loads, World};
use metacdn::names;
use std::collections::BTreeMap;

/// Crawl rounds per vantage point per phase. Enough that every
/// probabilistic branch (Apple/third-party, a/b GSLB, per-region LB) is
/// taken with overwhelming probability.
const ROUNDS: u32 = 120;

/// Crawls the mapping graph around the release and tabulates every CNAME
/// edge: steady-state edges plus the event-only `a1015` path.
pub fn fig2(world: &World) -> Table {
    let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
    let quiet = release - Duration::days(3);
    let hot = release + Duration::hours(8);

    // One compiled namespace for every crawl: policies read the live
    // controller state at query time, so it stays current across phases.
    let cns = CompiledNamespace::compile(&world.ns);
    // Union of edges per phase.
    let mut edges: BTreeMap<(String, String, u32), (bool, bool)> = BTreeMap::new();
    for (phase_start, is_event) in [(quiet, false), (hot, true)] {
        // Walk the controller up to the phase instant so load history (and
        // with it the a1015 activation lag) is current.
        if is_event {
            let mut t = release;
            while t <= phase_start {
                loads::update_loads(world, t);
                t += Duration::mins(30);
            }
        } else {
            loads::update_loads(world, phase_start);
        }
        for vm in &world.vms {
            let crawl = vm.crawl_mapping(&cns, &names::entry(), phase_start, ROUNDS, 60);
            for edge in crawl.edges {
                let entry = edges.entry(edge).or_insert((false, false));
                if is_event {
                    entry.1 = true;
                } else {
                    entry.0 = true;
                }
            }
        }
    }

    let mut t = Table::new(
        "Figure 2 — Request mapping DNS graph (CNAME edges)",
        &["from", "to", "ttl", "phase"],
    );
    for ((from, to, ttl), (in_quiet, in_event)) in edges {
        let phase = match (in_quiet, in_event) {
            (true, true) => "steady",
            (false, true) => "event-only",
            (true, false) => "quiet-only",
            (false, false) => unreachable!("edge recorded without phase"),
        };
        t.push(vec![from, to, ttl.to_string(), phase.to_string()]);
    }
    t
}

/// Renders the crawled graph as Graphviz DOT — the visual form of
/// Figure 2. Event-only edges are drawn dashed/orange, like the paper's
/// checker pattern.
pub fn to_dot(crawled: &Table) -> String {
    let mut out = String::from("digraph metacdn_mapping {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
    for row in &crawled.rows {
        let style = if row[3] == "event-only" {
            ", style=dashed, color=orange, fontcolor=orange"
        } else {
            ""
        };
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"TTL {}\"{}];\n",
            row[0], row[1], row[2], style
        ));
    }
    out.push_str("}\n");
    out
}

/// Checks the crawled edges against the expected graph
/// ([`metacdn::mapping_graph`]); returns the expected edges that were never
/// observed (should be empty for a healthy crawl).
pub fn missing_edges(crawled: &Table) -> Vec<String> {
    metacdn::mapping_graph(true)
        .into_iter()
        .filter(|e| {
            !crawled
                .rows
                .iter()
                .any(|r| r[0] == e.from && r[1] == e.to && r[2] == e.ttl.to_string())
        })
        .map(|e| format!("{} -> {}", e.from, e.to))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    #[test]
    fn crawl_reproduces_the_paper_graph() {
        let world = World::build(&ScenarioConfig::fast());
        let t = fig2(&world);
        // The entry edge with its 21600 TTL.
        let entry = t.find_row(0, "appldnld.apple.com").expect("entry edge");
        assert_eq!(entry[1], "appldnld.apple.com.akadns.net");
        assert_eq!(entry[2], "21600");
        assert_eq!(entry[3], "steady");
        // The selector with TTL 15 to both Apple and third-party branches.
        let selector_edges: Vec<_> =
            t.rows.iter().filter(|r| r[0] == "appldnld.g.applimg.com").collect();
        assert!(selector_edges.len() >= 2, "both branches crawled");
        assert!(selector_edges.iter().all(|r| r[2] == "15"));
        // The a1015 event path appears, flagged event-only.
        let a1015 = t.find_row(1, "a1015.gi3.akamai.net").expect("event map edge");
        assert_eq!(a1015[3], "event-only");
        // The DOT rendering carries every edge, with the event path dashed.
        let dot = to_dot(&t);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("a1015.gi3.akamai.net\" [label=\"TTL 300\", style=dashed"));
        // Nothing expected is missing (the China/India edges only appear to
        // CN/IN clients, which the VM fleet lacks — exclude them).
        let missing: Vec<_> = missing_edges(&t)
            .into_iter()
            .filter(|m| !m.contains("china") && !m.contains("india"))
            .collect();
        assert!(missing.is_empty(), "missing edges: {missing:?}");
    }
}
