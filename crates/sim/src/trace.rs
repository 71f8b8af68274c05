//! Scenario and repro-file model.
//!
//! A [`Scenario`] is everything one simulation run needs: the setting and
//! instance (as DSL text), an initial work graph, the starting
//! [`SimOptions`], and an op sequence. The whole thing serializes to a
//! line-oriented text format ([`Scenario::to_text`] /
//! [`Scenario::parse`]) whose payload sections reuse the engine's own
//! public text formats — so a repro file is readable, editable, and
//! replays through exactly the parsers an end user exercises.
//!
//! [`Repro`] wraps a scenario with the oracle it ran under and the
//! one-line failure summary it produced; `to_text` output is canonical
//! (`parse` then `to_text` is the identity on generated files), which is
//! what lets the corpus tests pin byte-identical replays.

use std::fmt;

use gdx_chase::{TgdChaseConfig, TgdChaseMode};
use gdx_exchange::Options;
use gdx_pattern::InstantiationConfig;
use gdx_query::PlannerMode;
use gdx_runtime::Threads;

use crate::Oracle;

/// The session-knob surface the simulator varies, as plain serializable
/// data (a mirror of the [`Options`] fields the campaigns sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// Candidate-family cap (`Options::instantiation.max_graphs`).
    pub max_graphs: usize,
    /// Row cap on answer sets (`Options::row_limit`).
    pub row_limit: Option<usize>,
    /// Cap on streamed solutions (`Options::solution_cap`).
    pub solution_cap: Option<usize>,
    /// Target-tgd chase firing bound.
    pub max_steps: usize,
    /// Chase body-evaluation strategy.
    pub mode: TgdChaseMode,
    /// Access-path planner for the `certain*` family.
    pub planner: PlannerMode,
    /// Worker count: `None` = `Threads::Auto`, `Some(n)` = `Fixed(n)`.
    pub threads: Option<usize>,
}

impl SimOptions {
    /// Generous bounds: the baseline configuration fault sweeps compare
    /// against, and the default for oracle campaigns that must not
    /// truncate (chase-mode, sat).
    pub fn generous() -> SimOptions {
        SimOptions {
            max_graphs: 64,
            row_limit: None,
            solution_cap: None,
            max_steps: 10_000,
            mode: TgdChaseMode::SemiNaive,
            planner: PlannerMode::Auto,
            threads: None,
        }
    }

    /// The real session options these knobs denote.
    pub fn to_options(&self) -> Options {
        Options {
            instantiation: InstantiationConfig {
                max_graphs: self.max_graphs,
                ..InstantiationConfig::default()
            },
            tgd_chase: TgdChaseConfig {
                max_steps: self.max_steps,
                mode: self.mode,
                ..TgdChaseConfig::default()
            },
            planner: self.planner,
            row_limit: self.row_limit,
            solution_cap: self.solution_cap,
            threads: match self.threads {
                Some(n) => Threads::Fixed(n),
                None => Threads::Auto,
            },
            ..Options::default()
        }
    }

    fn fmt_cap(v: Option<usize>) -> String {
        match v {
            Some(n) => n.to_string(),
            None => "none".to_owned(),
        }
    }

    fn parse_cap(v: &str) -> Result<Option<usize>, String> {
        if v == "none" {
            return Ok(None);
        }
        v.parse().map(Some).map_err(|_| format!("bad cap `{v}`"))
    }

    /// One-line `key=value` rendering (the `[options]` section and the
    /// `options` op both use it).
    pub fn to_line(&self) -> String {
        format!(
            "max_graphs={} row_limit={} solution_cap={} max_steps={} mode={} planner={} threads={}",
            self.max_graphs,
            Self::fmt_cap(self.row_limit),
            Self::fmt_cap(self.solution_cap),
            self.max_steps,
            match self.mode {
                TgdChaseMode::SemiNaive => "semi-naive",
                TgdChaseMode::Naive => "naive",
            },
            match self.planner {
                PlannerMode::Auto => "auto",
                PlannerMode::Materialize => "materialize",
            },
            match self.threads {
                Some(n) => n.to_string(),
                None => "auto".to_owned(),
            },
        )
    }

    /// Parses a [`SimOptions::to_line`] rendering.
    pub fn parse_line(line: &str) -> Result<SimOptions, String> {
        let mut opts = SimOptions::generous();
        for kv in line.split_whitespace() {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{kv}`"))?;
            match k {
                "max_graphs" => {
                    opts.max_graphs = v.parse().map_err(|_| format!("bad max_graphs `{v}`"))?;
                }
                "row_limit" => opts.row_limit = Self::parse_cap(v)?,
                "solution_cap" => opts.solution_cap = Self::parse_cap(v)?,
                "max_steps" => {
                    opts.max_steps = v.parse().map_err(|_| format!("bad max_steps `{v}`"))?;
                }
                "mode" => {
                    opts.mode = match v {
                        "semi-naive" => TgdChaseMode::SemiNaive,
                        "naive" => TgdChaseMode::Naive,
                        _ => return Err(format!("bad mode `{v}`")),
                    };
                }
                "planner" => {
                    opts.planner = match v {
                        "auto" => PlannerMode::Auto,
                        "materialize" => PlannerMode::Materialize,
                        _ => return Err(format!("bad planner `{v}`")),
                    };
                }
                "threads" => {
                    opts.threads = if v == "auto" {
                        None
                    } else {
                        Some(v.parse().map_err(|_| format!("bad threads `{v}`"))?)
                    };
                }
                _ => return Err(format!("unknown option key `{k}`")),
            }
        }
        Ok(opts)
    }
}

/// One step of a simulated session lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `ExchangeSession::solution_exists` (the sat oracle also runs
    /// `solution_exists_sat` here and cross-checks the verdicts).
    Chase,
    /// `ExchangeSession::is_solution` on the current work graph.
    IsSolution,
    /// `ExchangeSession::is_solution` on the session's first solution
    /// with each one of its edges removed in turn: every removal that
    /// takes away a head witness must be refuted.
    EdgeDrops,
    /// `ExchangeSession::certain` with this Boolean CNRE text.
    Certain(String),
    /// `ExchangeSession::certain_answers` with this open CNRE text.
    CertainAnswers(String),
    /// Stream solutions: take this many (`None` = drain), then drop the
    /// stream (a partial take leaves a pausable pending enumeration).
    Solutions(Option<usize>),
    /// Insert an edge `(src, label, dst)` into the work graph.
    InsertEdge(String, String, String),
    /// Replace the work graph by its copy-on-write fork child.
    Fork,
    /// Replace the work graph by its compacted deep copy.
    Compact,
    /// `ExchangeSession::set_options` (invalidates every session memo).
    SetOptions(SimOptions),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Chase => write!(f, "chase"),
            Op::IsSolution => write!(f, "is-solution"),
            Op::EdgeDrops => write!(f, "edge-drops"),
            Op::Certain(q) => write!(f, "certain {q}"),
            Op::CertainAnswers(q) => write!(f, "certain-answers {q}"),
            Op::Solutions(None) => write!(f, "solutions all"),
            Op::Solutions(Some(n)) => write!(f, "solutions {n}"),
            Op::InsertEdge(s, l, d) => write!(f, "insert {s} {l} {d}"),
            Op::Fork => write!(f, "fork"),
            Op::Compact => write!(f, "compact"),
            Op::SetOptions(o) => write!(f, "options {}", o.to_line()),
        }
    }
}

impl Op {
    /// Parses one rendered (`Display`) op line.
    pub fn parse(line: &str) -> Result<Op, String> {
        let line = line.trim();
        let (head, rest) = match line.split_once(' ') {
            Some((h, r)) => (h, r.trim()),
            None => (line, ""),
        };
        match head {
            "chase" => Ok(Op::Chase),
            "is-solution" => Ok(Op::IsSolution),
            "edge-drops" => Ok(Op::EdgeDrops),
            "certain" => Ok(Op::Certain(rest.to_owned())),
            "certain-answers" => Ok(Op::CertainAnswers(rest.to_owned())),
            "solutions" => {
                if rest == "all" {
                    Ok(Op::Solutions(None))
                } else {
                    rest.parse()
                        .map(|n| Op::Solutions(Some(n)))
                        .map_err(|_| format!("bad solutions count `{rest}`"))
                }
            }
            "insert" => {
                let mut it = rest.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next()) {
                    (Some(s), Some(l), Some(d), None) => {
                        Ok(Op::InsertEdge(s.to_owned(), l.to_owned(), d.to_owned()))
                    }
                    _ => Err(format!("expected `insert src label dst`, got `{line}`")),
                }
            }
            "fork" => Ok(Op::Fork),
            "compact" => Ok(Op::Compact),
            "options" => SimOptions::parse_line(rest).map(Op::SetOptions),
            _ => Err(format!("unknown op `{line}`")),
        }
    }

    /// Does this op query the session (as opposed to mutating state)?
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            Op::Chase
                | Op::IsSolution
                | Op::EdgeDrops
                | Op::Certain(_)
                | Op::CertainAnswers(_)
                | Op::Solutions(_)
        )
    }
}

/// A complete simulation input: one seed's worth of generated world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The seed this scenario was generated from (provenance only — the
    /// scenario text below is authoritative, so shrunk repros stay
    /// replayable even though they no longer equal the seed's output).
    pub seed: u64,
    /// Setting in mapping-DSL text.
    pub setting: String,
    /// Source instance as fact text over the setting's source schema.
    pub instance: String,
    /// Initial work graph as edge-list text (may be empty).
    pub graph: String,
    /// Options the session starts with.
    pub options: SimOptions,
    /// The op sequence.
    pub ops: Vec<Op>,
}

const SECTIONS: [&str; 5] = ["[setting]", "[instance]", "[graph]", "[options]", "[ops]"];

impl Scenario {
    /// Canonical text form (see the module docs for the layout).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str("[setting]\n");
        push_block(&mut out, &self.setting);
        out.push_str("[instance]\n");
        push_block(&mut out, &self.instance);
        out.push_str("[graph]\n");
        push_block(&mut out, &self.graph);
        out.push_str("[options]\n");
        out.push_str(&self.options.to_line());
        out.push('\n');
        out.push_str("[ops]\n");
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out.push_str("[end]\n");
        out
    }

    /// Parses a [`Scenario::to_text`] rendering (ignoring `#` comment
    /// lines, so it also accepts the body of a [`Repro`] file).
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut seed = 0u64;
        let mut sections: [String; 5] = Default::default();
        let mut current: Option<usize> = None;
        for raw in text.lines() {
            let line = raw.trim_end();
            if line.starts_with('#') {
                continue;
            }
            if line == "[end]" {
                break;
            }
            if let Some(i) = SECTIONS.iter().position(|s| *s == line.trim()) {
                current = Some(i);
                continue;
            }
            match current {
                None => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if let Some(v) = line.strip_prefix("seed ") {
                        seed = v.trim().parse().map_err(|_| format!("bad seed `{v}`"))?;
                    } else if line.strip_prefix("oracle ").is_none()
                        && line.strip_prefix("failure ").is_none()
                    {
                        return Err(format!("unexpected line before sections: `{line}`"));
                    }
                }
                Some(i) => {
                    sections[i].push_str(line);
                    sections[i].push('\n');
                }
            }
        }
        let [setting, instance, graph, options_text, ops_text] = sections;
        let options = SimOptions::parse_line(options_text.trim())?;
        let mut ops = Vec::new();
        for line in ops_text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            ops.push(Op::parse(line)?);
        }
        Ok(Scenario {
            seed,
            setting: normalize_block(&setting),
            instance: normalize_block(&instance),
            graph: normalize_block(&graph),
            options,
            ops,
        })
    }
}

/// Appends a text block, guaranteeing a trailing newline separation.
fn push_block(out: &mut String, block: &str) {
    let block = block.trim_end();
    if !block.is_empty() {
        out.push_str(block);
        out.push('\n');
    }
}

/// The canonical form of a payload block: trimmed, trailing newline when
/// non-empty. `to_text` emits exactly this, so parse∘to_text = id.
fn normalize_block(block: &str) -> String {
    let block = block.trim();
    if block.is_empty() {
        String::new()
    } else {
        format!("{block}\n")
    }
}

/// A scenario plus the oracle it ran under and the failure it produced —
/// the unit the CLI writes to disk and `gdx sim replay` consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Which oracle to replay under.
    pub oracle: Oracle,
    /// One-line failure summary recorded at capture time (`"none"` for
    /// corpus scenarios pinned as passing).
    pub failure: String,
    /// The (usually shrunk) scenario.
    pub scenario: Scenario,
}

impl Repro {
    /// Canonical repro-file text.
    pub fn to_text(&self) -> String {
        format!(
            "# gdx-sim repro — replay with `gdx sim replay <file>`\noracle {}\nfailure {}\n{}",
            self.oracle.name(),
            self.failure,
            self.scenario.to_text()
        )
    }

    /// Parses a repro file.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut oracle = None;
        let mut failure = "none".to_owned();
        for raw in text.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                break;
            }
            if let Some(v) = line.strip_prefix("oracle ") {
                oracle =
                    Some(Oracle::from_name(v.trim()).ok_or_else(|| format!("bad oracle `{v}`"))?);
            } else if let Some(v) = line.strip_prefix("failure ") {
                failure = v.trim().to_owned();
            }
        }
        let oracle = oracle.ok_or("missing `oracle` line")?;
        let scenario = Scenario::parse(text)?;
        Ok(Repro {
            oracle,
            failure,
            scenario,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 42,
            setting:
                "source { R/2; S/3 }\ntarget { f; g; h; t0; t1; t2 }\nsttgd R(x, y) -> (x, f, y);\n"
                    .to_owned(),
            instance: "R(c0, c1);\nR(c1, c2);\n".to_owned(),
            graph: "(c0, f, c1);\n".to_owned(),
            options: SimOptions::generous(),
            ops: vec![
                Op::Chase,
                Op::InsertEdge("c0".into(), "f".into(), "c2".into()),
                Op::Certain("(\"c0\", f.g, \"c1\")".into()),
                Op::CertainAnswers("(x, f+g, y)".into()),
                Op::Solutions(Some(2)),
                Op::Solutions(None),
                Op::Fork,
                Op::Compact,
                Op::SetOptions(SimOptions {
                    row_limit: Some(0),
                    solution_cap: Some(3),
                    mode: TgdChaseMode::Naive,
                    planner: PlannerMode::Materialize,
                    threads: Some(2),
                    ..SimOptions::generous()
                }),
                Op::IsSolution,
                Op::EdgeDrops,
            ],
        }
    }

    #[test]
    fn scenario_text_round_trips() {
        let sc = sample();
        let text = sc.to_text();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, sc);
        // Canonical: a second render is byte-identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn repro_text_round_trips() {
        let repro = Repro {
            oracle: Oracle::ChaseMode,
            failure: "mismatch at op 3 (chase-mode)".to_owned(),
            scenario: sample(),
        };
        let text = repro.to_text();
        let back = Repro::parse(&text).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn options_line_round_trips() {
        for opts in [
            SimOptions::generous(),
            SimOptions {
                max_graphs: 4,
                row_limit: Some(0),
                solution_cap: Some(1),
                max_steps: 0,
                mode: TgdChaseMode::Naive,
                planner: PlannerMode::Materialize,
                threads: Some(0),
            },
        ] {
            assert_eq!(SimOptions::parse_line(&opts.to_line()).unwrap(), opts);
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(Op::parse("warp 9").is_err());
        assert!(Op::parse("insert a b").is_err());
        assert!(SimOptions::parse_line("max_graphs=lots").is_err());
        assert!(Scenario::parse("nonsense before sections").is_err());
        assert!(Repro::parse("[setting]\n").is_err());
    }
}
