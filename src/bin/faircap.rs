//! The `faircap` command-line tool: run Prescription Ruleset Selection on a
//! CSV file with a user-supplied causal DAG, serve it over HTTP, or run the
//! synthetic-scale harness.
//!
//! ```sh
//! cargo run --release --bin faircap -- --help          # one-shot solve
//! cargo run --release --bin faircap -- serve --help    # HTTP front end
//! cargo run --release --bin faircap -- gen --help      # scenario generator
//! cargo run --release --bin faircap -- replay --help   # workload replayer
//! ```
//!
//! Exit codes: 0 success, 2 configuration error (bad flags or inputs),
//! 1 runtime error (a solve, the server, a recovery gate, or a replay
//! failing after a valid start).

use faircap::cli::{self, CliError, CliOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("serve") => run(
            rest,
            cli::parse_serve_args,
            cli::SERVE_USAGE,
            cli::run_serve,
        ),
        Some("gen") => run(rest, cli::parse_gen_args, cli::GEN_USAGE, cli::run_gen),
        Some("replay") => run(
            rest,
            cli::parse_replay_args,
            cli::REPLAY_USAGE,
            cli::run_replay,
        ),
        _ => run(&args, cli::parse_args, cli::USAGE, solve),
    }
}

/// Parse `args` and run the subcommand. A parse error holding exactly the
/// usage text is `--help`: it prints and exits 0; any other is a
/// configuration error (exit 2). A failed run exits with its error's code.
fn run<T>(
    args: &[String],
    parse: fn(&[String]) -> Result<T, String>,
    usage: &str,
    go: fn(&T) -> Result<(), CliError>,
) {
    let opts = parse(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(if msg == usage { 0 } else { 2 });
    });
    if let Err(e) = go(&opts) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn solve(opts: &CliOptions) -> Result<(), CliError> {
    let report = cli::execute(opts)?;
    println!("{report}");
    print!("{}", report.rule_cards());
    Ok(())
}
