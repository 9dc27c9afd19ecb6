//! `ooh-bench <id>`: print one report (see `ooh_bench::reports::ALL`).

// stdout IS this binary's job — it prints the report.
#![allow(clippy::print_stdout)]

use ooh_bench::reports::ALL;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [id] = args.as_slice() {
        if let Some((_, render)) = ALL.iter().find(|(name, _)| name == id) {
            print!("{}", render());
            return ExitCode::SUCCESS;
        }
    }
    let ids: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: ooh-bench <id>\nids: {}", ids.join(" "));
    ExitCode::from(2)
}
