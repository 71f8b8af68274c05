//! Failure shrinking: minimal seed+trace repros.
//!
//! A shrink candidate is accepted only when it still fails **and** fails
//! deterministically — the candidate is executed twice and both runs
//! must produce the same one-line failure summary. That protocol means a
//! shrunk repro file never depends on residual state: replaying it from
//! text reproduces the recorded failure byte-for-byte.
//!
//! Passes, each run to local fixpoint, cycled until a whole round
//! changes nothing (or the round budget runs out):
//!
//! 1. truncate the trace right after the failing op;
//! 2. drop ops one at a time (from the back, so query ops that merely
//!    observe the failure go first);
//! 3. drop instance facts one at a time;
//! 4. drop setting constraint lines (egd/sameas/tgd), keeping the
//!    setting valid;
//! 5. drop initial work-graph edges one at a time.

use crate::exec::{run_scenario, SimFailure};
use crate::trace::Scenario;
use crate::Oracle;

/// Runs `sc` twice; returns its failure only when both runs fail with
/// the same summary (the determinism re-check).
pub fn deterministic_failure(sc: &Scenario, oracle: Oracle) -> Option<SimFailure> {
    let first = run_scenario(sc, oracle).err()?;
    if matches!(first, SimFailure::Setup { .. }) {
        // An invalid scenario is a shrinking artifact, not a repro.
        return None;
    }
    let second = run_scenario(sc, oracle).err()?;
    (first.summary() == second.summary()).then_some(first)
}

/// Shrinks a failing scenario to a (locally) minimal one that still
/// fails deterministically under `oracle`. Returns the shrunk scenario
/// and its failure; when nothing shrinks, that is the input itself.
pub fn shrink(sc: &Scenario, oracle: Oracle) -> (Scenario, SimFailure) {
    let mut best = sc.clone();
    let mut failure = match deterministic_failure(&best, oracle) {
        Some(f) => f,
        None => {
            // Non-deterministic or vanished failure: report the original
            // run's failure unshrunk (campaign marks it accordingly).
            let f = run_scenario(sc, oracle).err().unwrap_or(SimFailure::Setup {
                message: "failure vanished during shrinking".to_owned(),
            });
            return (best, f);
        }
    };

    // Truncate after the failing op: later ops cannot matter.
    if let Some(op_idx) = failing_op(&failure) {
        if op_idx + 1 < best.ops.len() {
            let mut cand = best.clone();
            cand.ops.truncate(op_idx + 1);
            if let Some(f) = deterministic_failure(&cand, oracle) {
                best = cand;
                failure = f;
            }
        }
    }

    for _round in 0..3 {
        let mut changed = false;
        changed |= shrink_ops(&mut best, &mut failure, oracle);
        changed |= shrink_lines(&mut best, &mut failure, oracle, Part::Instance);
        changed |= shrink_lines(&mut best, &mut failure, oracle, Part::Setting);
        changed |= shrink_lines(&mut best, &mut failure, oracle, Part::Graph);
        if !changed {
            break;
        }
    }
    (best, failure)
}

fn failing_op(f: &SimFailure) -> Option<usize> {
    match f {
        SimFailure::Panic { op, .. }
        | SimFailure::Mismatch { op, .. }
        | SimFailure::Unsound { op, .. }
        | SimFailure::Hang { op, .. } => Some(*op),
        SimFailure::Setup { .. } => None,
    }
}

fn shrink_ops(best: &mut Scenario, failure: &mut SimFailure, oracle: Oracle) -> bool {
    let mut changed = false;
    let mut i = best.ops.len();
    while i > 0 {
        i -= 1;
        if best.ops.len() <= 1 {
            break;
        }
        let mut cand = best.clone();
        cand.ops.remove(i);
        if let Some(f) = deterministic_failure(&cand, oracle) {
            *best = cand;
            *failure = f;
            changed = true;
        }
    }
    changed
}

#[derive(Clone, Copy)]
enum Part {
    Instance,
    Setting,
    Graph,
}

fn shrink_lines(best: &mut Scenario, failure: &mut SimFailure, oracle: Oracle, part: Part) -> bool {
    let mut changed = false;
    loop {
        let lines: Vec<String> = part_text(best, part).lines().map(str::to_owned).collect();
        let mut shrunk_this_pass = false;
        for i in (0..lines.len()).rev() {
            if !droppable(part, &lines[i]) {
                continue;
            }
            let mut kept: Vec<&str> = Vec::with_capacity(lines.len() - 1);
            for (j, l) in lines.iter().enumerate() {
                if j != i {
                    kept.push(l);
                }
            }
            let mut text = kept.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            let mut cand = best.clone();
            *part_text_mut(&mut cand, part) = text;
            if let Some(f) = deterministic_failure(&cand, oracle) {
                *best = cand;
                *failure = f;
                changed = true;
                shrunk_this_pass = true;
                break; // indices moved; rescan
            }
        }
        if !shrunk_this_pass {
            break;
        }
    }
    changed
}

fn part_text(sc: &Scenario, part: Part) -> &str {
    match part {
        Part::Instance => &sc.instance,
        Part::Setting => &sc.setting,
        Part::Graph => &sc.graph,
    }
}

fn part_text_mut(sc: &mut Scenario, part: Part) -> &mut String {
    match part {
        Part::Instance => &mut sc.instance,
        Part::Setting => &mut sc.setting,
        Part::Graph => &mut sc.graph,
    }
}

/// Which lines a pass may try to drop. Setting schema blocks and st-tgds
/// are load-bearing for validity more often than not; constraints are
/// the usual suspects and always safe to *try* (validity is re-checked by
/// the run itself via the `Setup` filter in [`deterministic_failure`]).
fn droppable(part: Part, line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    match part {
        Part::Instance | Part::Graph => true,
        Part::Setting => {
            line.starts_with("egd ")
                || line.starts_with("sameas ")
                || line.starts_with("tgd ")
                || line.starts_with("sttgd ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn passing_scenarios_report_no_deterministic_failure() {
        let sc = generate(3, Oracle::Replay);
        assert!(deterministic_failure(&sc, Oracle::Replay).is_none());
    }

    #[test]
    fn shrinking_an_invalid_scenario_filters_setup_failures() {
        let mut sc = generate(3, Oracle::Replay);
        sc.setting = "source { R/2 }\n".to_owned(); // no target: invalid
                                                    // A Setup failure is not a repro: deterministic_failure masks it.
        assert!(deterministic_failure(&sc, Oracle::Replay).is_none());
    }
}
