//! `gdx` — command-line front end for the graph data exchange library.
//!
//! ```text
//! gdx chase   --setting S.gdx --instance I.facts [--skip-egds] [--dot]
//! gdx solve   --setting S.gdx --instance I.facts [--max-graphs N]
//! gdx check   --setting S.gdx --instance I.facts --graph G.graph
//! gdx certain --setting S.gdx --instance I.facts --nre "a.a" --pair c1,c2
//! gdx reduce  --dimacs F.cnf [--sameas]
//! gdx direct  --schema "R/2; S/2" --instance I.facts [--reify]
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); every subcommand prints to stdout and exits non-zero on
//! error.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
