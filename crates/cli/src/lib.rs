//! Command implementation behind the `geocast` binary: the library's
//! experiment surface for interactive use (`geocast help` lists it).
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to keep the dependency set identical to the library's.
//! One table holds each command and each option's key, default, choices
//! and check: parsing, the typed reads and `help` all read it.

#![forbid(unsafe_code)]

mod churn;
mod detect;
mod groups;
mod overlay;
mod panels;
mod publish;
mod route;
mod stability;
mod tree;

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use geocast::core::detect::{run_detection, DetectionScenario};
use geocast::core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast::figures::{self, *};
use geocast::geom::arrangement::MAX_SIGNED_DIM;
use geocast::geom::{MAX_ORTHANT_DIM, VMAX};
use geocast::overlay::analysis;
use geocast::overlay::churn::{run_schedule_on_store, ChurnSchedule};
use geocast::prelude::*;
use geocast::sim::workload::PublishWorkload;

/// A parsed invocation: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand (`overlay`, `tree`, ...).
    pub command: String,
    /// The `--key value` options, keys without the leading dashes.
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the terminal user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// An option flag without a value, or a stray positional token.
    MalformedOption(String),
    /// An option the subcommand does not read (a typo, or an option a
    /// later version removed): running on would silently ignore it.
    UnknownOption {
        /// The subcommand.
        command: String,
        /// The option name, without the leading dashes.
        key: String,
    },
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
    },
    /// A `--strict` or `--strict-coverage` gate failed (the CI gates):
    /// the command's message names each of its checks and how it read.
    Gate(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try `geocast help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}`; try `geocast help`"),
            CliError::MalformedOption(o) => {
                write!(f, "malformed option `{o}` (expected --key value)")
            }
            CliError::UnknownOption { command, key } => {
                write!(f, "`{command}` has no option --{key}; try `geocast help`")
            }
            CliError::BadValue { key, value } => write!(f, "invalid value `{value}` for --{key}"),
            CliError::Gate(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

fn bad_value(key: &str, value: impl fmt::Display) -> CliError {
    let (key, value) = (key.to_owned(), value.to_string());
    CliError::BadValue { key, value }
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// [`CliError::MissingCommand`] on empty input and
/// [`CliError::MalformedOption`] for non-`--key value` shapes.
pub fn parse_args(args: &[String]) -> Result<Invocation, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::MissingCommand);
    };
    let mut options = HashMap::new();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        let Some(key) = token.strip_prefix("--") else {
            return Err(CliError::MalformedOption(token.clone()));
        };
        // A flag of any command takes no value; `run` rejects a foreign one.
        let mut opts = COMMANDS.iter().flat_map(|c| c.options);
        let value = if opts.any(|o| o.key == key && matches!(o.kind, Flag)) {
            "true"
        } else {
            let malformed = || CliError::MalformedOption(token.clone());
            it.next().ok_or_else(malformed)?
        };
        options.insert(key.to_owned(), value.to_owned());
    }
    let command = command.clone();
    Ok(Invocation { command, options })
}

/// Executes a parsed invocation, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, options the command
/// does not read, invalid option values, or a failed strict gate.
pub fn run(inv: &Invocation) -> Result<String, CliError> {
    if matches!(inv.command.as_str(), "help" | "--help" | "-h") {
        return Ok(help());
    }
    let command = resolve(inv)?;
    let (given, options) = (&inv.options, command.options);
    (command.body)(&Args { given, options })
}

/// One subcommand, with what `help` says of it and the options it takes.
struct Command {
    name: &'static str,
    about: &'static str,
    options: &'static [Opt],
    body: fn(&Args) -> Result<String, CliError>,
}

/// Every subcommand but `help`, in the order `help` lists them.
const COMMANDS: &[Command] = &[
    Command {
        name: "overlay",
        about: "build an equilibrium overlay and print its profile",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("k", "2", Number(POSITIVE)),
            opt("method", "empty-rect", Choice(|| names(overlay::METHODS))),
        ],
        body: overlay::cmd_overlay,
    },
    Command {
        name: "tree",
        about: "run the §2 construction and check its claims",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("root", "0", Number(ANY)),
            opt("pick", "median", Choice(|| names(tree::PICKS))),
        ],
        body: tree::cmd_tree,
    },
    Command {
        name: "stability",
        about: "run the §3 construction and replay all departures",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "3", Number(DIMS)),
            SEED,
            opt("k", "2", Number(POSITIVE)),
            opt("policy", "max-t", Choice(|| names(stability::POLICIES))),
        ],
        body: stability::cmd_stability,
    },
    Command {
        name: "route",
        about: "greedy geometric routing between two peers",
        options: &[
            opt("n", "200", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("from", "0", Number(ANY)),
            opt("to", "n-1", Derived(ANY)),
        ],
        body: route::cmd_route,
    },
    Command {
        name: "churn",
        about: "replay a churn pattern through the incremental engine",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("pattern", "mixed", Choice(|| names(churn::PATTERNS))),
            opt("events", "200", Number(ANY)),
            opt("join-rate", "1", Number(ANY)),
            opt("leave-rate", "1", Number(ANY)),
            opt("strict", "fail unless the store equals a rebuild", Flag),
        ],
        body: churn::cmd_churn,
    },
    Command {
        name: "groups",
        about: "drive N concurrent multicast groups over one shared store",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("groups", "16", Number(POSITIVE)),
            opt("subs", "2n", Derived(ANY)),
            opt("zipf", "1.0", Number(ANY)),
            opt("events", "200", Number(ANY)),
            opt("group-events", "200", Number(ANY)),
            opt("placement", "clustered", Choice(|| names(PLACEMENTS))),
            opt("strict-coverage", "fail if any member is stranded", Flag),
        ],
        body: groups::cmd_groups,
    },
    Command {
        name: "publish",
        about: "drive the batched data plane: enqueue + flush over the plan cache",
        options: &[
            opt("n", "500", Number(POSITIVE)),
            opt("dim", "2", Number(DIMS)),
            SEED,
            opt("groups", "16", Number(POSITIVE)),
            opt("subs", "2n", Derived(ANY)),
            opt("zipf", "1.5", Number(ANY)),
            opt("batch", "64", Number(POSITIVE)),
            // No tick, no flush: no hit rate or throughput to report.
            opt("ticks", "50", Number(POSITIVE)),
            opt("churn-every", "10", Number(ANY)),
            opt("placement", "clustered", Choice(|| names(PLACEMENTS))),
            opt("strict", "fail on stranding, a cold cache or drift", Flag),
        ],
        body: publish::cmd_publish,
    },
    Command {
        name: "detect",
        about: "run the SWIM failure-detection plane through a crash wave",
        // The quick scenario's; a wave needs a peer to fail and one to notice.
        options: &[
            opt("n", "24", Number(2.0..=f64::MAX)),
            opt("dim", "2", Number(DIMS)),
            opt("seed", "42", Number(ANY)),
            opt("groups", "2", Number(POSITIVE)),
            opt("group-size", "min(8,n)", Derived(POSITIVE)),
            opt("loss", "0.0", Number(0.0..=1.0)),
            opt("crashes", "2", Number(ANY)),
            opt("silent", "1", Number(ANY)),
            opt("suspicion-ms", "400", Number(POSITIVE)),
            opt("strict", "fail on bad verdicts, lost coverage, drift", Flag),
        ],
        body: detect::cmd_detect,
    },
    Command {
        name: "figures",
        about: "regenerate the paper's artifacts",
        options: &[
            opt("panel", "all", Choice(|| names(panels::PANELS))),
            opt("full", "paper scale (minutes), not quick scale", Flag),
        ],
        body: panels::cmd_figures,
    },
];

/// Looks the subcommand up and checks that it takes every option given,
/// so that a typo or a stale option is not ignored in silence.
fn resolve(inv: &Invocation) -> Result<&'static Command, CliError> {
    let command = (COMMANDS.iter())
        .find(|c| c.name == inv.command)
        .ok_or_else(|| CliError::UnknownCommand(inv.command.clone()))?;
    let unknown = (inv.options.keys()).filter(|k| !command.options.iter().any(|o| o.key == *k));
    // The smallest, so the key reported does not depend on hash order.
    unknown.min().map_or(Ok(command), |key| {
        let (command, key) = (inv.command.clone(), key.clone());
        Err(CliError::UnknownOption { command, key })
    })
}

/// One option of one command.
struct Opt {
    key: &'static str,
    /// The default as `help` shows it (a derived one's rule, a flag's use).
    shown: &'static str,
    kind: Kind,
}

const fn opt(key: &'static str, shown: &'static str, kind: Kind) -> Opt {
    Opt { key, shown, kind }
}

/// How an option takes its value.
enum Kind {
    /// A number in the range; `shown` when not given.
    Number(RangeInclusive<f64>),
    /// A number in the range; the command derives it when not given.
    Derived(RangeInclusive<f64>),
    /// A name of a choice table; `shown` when not given.
    Choice(fn() -> Vec<&'static str>),
    /// Given or not, with no value.
    Flag,
}

use Kind::{Choice, Derived, Flag, Number};

/// Every value of an unsigned option, and a finite non-negative float.
const ANY: RangeInclusive<f64> = 0.0..=f64::MAX;
/// One or more: an empty population has no overlay and no root.
const POSITIVE: RangeInclusive<f64> = 1.0..=f64::MAX;
/// `--dim`: an [`Orthant`] is a bit per dimension.
const DIMS: RangeInclusive<f64> = 1.0..=MAX_ORTHANT_DIM as f64;
const SEED: Opt = opt("seed", "1", Number(ANY));

/// A choice option's table: each name it takes and what that selects.
type Choices<T> = &'static [(&'static str, T)];

/// The names of a choice table, whatever it selects.
fn names<T>(table: Choices<T>) -> Vec<&'static str> {
    table.iter().map(|&(name, _)| name).collect()
}

impl Opt {
    /// `raw` as a `T`, if it parses as one and as a number in range.
    fn parse<T: FromStr>(&self, raw: &str) -> Result<T, CliError> {
        let (Number(range) | Derived(range)) = &self.kind else {
            panic!("--{} is not a number", self.key);
        };
        let in_range = raw.parse::<f64>().is_ok_and(|x| range.contains(&x));
        match raw.parse() {
            Ok(value) if in_range => Ok(value),
            _ => Err(bad_value(self.key, raw)),
        }
    }

    /// The option as `help` lists it, a choice's default first.
    fn usage(&self) -> String {
        let (key, shown) = (self.key, self.shown);
        match self.kind {
            Choice(names) => {
                let others = names().into_iter().filter(|&n| n != shown);
                let names: Vec<&str> = std::iter::once(shown).chain(others).collect();
                format!("--{key} {}", names.join("|"))
            }
            Flag => format!("[--{key}]  {shown}"),
            Number(_) | Derived(_) => format!("--{key} {shown}"),
        }
    }
}

/// A command's options as given, read through its row of the table.
struct Args<'a> {
    given: &'a HashMap<String, String>,
    options: &'static [Opt],
}

impl Args<'_> {
    fn opt(&self, key: &str) -> &'static Opt {
        (self.options.iter())
            .find(|o| o.key == key)
            .expect("a command reads only the options of its row")
    }

    /// The option `key` as given, else its default.
    fn raw(&self, key: &str) -> &str {
        let given = self.given.get(key);
        given.map_or(self.opt(key).shown, String::as_str)
    }

    /// The number option `key`: as given, else its default.
    fn get<T: FromStr>(&self, key: &str) -> Result<T, CliError> {
        self.opt(key).parse(self.raw(key))
    }

    /// The number option `key`: as given, else `derived`.
    fn get_or<T: FromStr>(&self, key: &str, derived: T) -> Result<T, CliError> {
        match self.given.get(key) {
            Some(raw) => self.opt(key).parse(raw),
            None => Ok(derived),
        }
    }

    /// `--n`, `--dim` and `--seed` of a uniform population.
    fn population(&self) -> Result<(usize, usize, u64), CliError> {
        Ok((self.get("n")?, self.get("dim")?, self.get("seed")?))
    }

    /// The entry of `table` the choice option `key` names, or its default.
    fn choice<T>(&self, key: &str, table: Choices<T>) -> Result<&(&str, T), CliError> {
        let raw = self.raw(key);
        let entry = table.iter().find(|(name, _)| *name == raw);
        entry.ok_or_else(|| bad_value(key, raw))
    }

    fn flag(&self, key: &str) -> bool {
        self.opt(key);
        self.given.contains_key(key)
    }
}

/// `geocast help`: every command and each of its options, from the table.
fn help() -> String {
    let mut out = String::from(
        "geocast — decentralized multicast trees on geometric P2P overlays\n\n\
         USAGE: geocast <COMMAND> [--key value ...]\n\
         (each option at its default; a default written with n follows --n)\n\n\
         COMMANDS:\n",
    );
    for command in COMMANDS {
        out.push_str(&format!("  {:<10} {}\n", command.name, command.about));
        let (flags, values): (Vec<_>, Vec<_>) = (command.options.iter())
            .map(Opt::usage)
            .partition(|usage| usage.starts_with('['));
        for line in values.chunks(4).chain(flags.chunks(1)) {
            out.push_str(&format!("{:13}{}\n", "", line.join(" ")));
        }
    }
    out + "  help       this text\n"
}

/// What a command prints: a title, a blank line, then one `label: value`
/// row each, labels padded to one column (a longer one is not).
struct Report {
    column: usize,
    text: String,
}

impl Report {
    fn new(column: usize, title: String) -> Self {
        let text = title + "\n\n";
        Report { column, text }
    }

    fn row(&mut self, label: &str, value: impl fmt::Display) {
        let width = self.column;
        self.text.push_str(&format!("  {label:<width$}: {value}\n"));
    }
}

type Selection = Arc<dyn NeighborSelection + Send + Sync>;

/// A store of `n` uniform peers in `dim` dimensions under `selection`.
fn uniform_store(n: usize, dim: usize, seed: u64, selection: Selection) -> TopologyStore {
    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed));
    TopologyStore::from_peers(peers, selection)
}

/// Where a group's members sit: `groups` and `publish` take it.
const PLACEMENTS: Choices<MembershipPlacement> = &[
    ("clustered", MembershipPlacement::Clustered),
    ("scattered", MembershipPlacement::Scattered),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_extracts_command_and_options() {
        let inv = parse_args(&args(&["tree", "--n", "50", "--pick", "median"])).unwrap();
        assert_eq!(inv.command, "tree");
        assert_eq!(inv.options.get("n").map(String::as_str), Some("50"));
        assert_eq!(inv.options.get("pick").map(String::as_str), Some("median"));
    }

    #[test]
    fn parse_rejects_empty_and_malformed() {
        assert_eq!(parse_args(&[]), Err(CliError::MissingCommand));
        assert!(matches!(
            parse_args(&args(&["tree", "stray"])),
            Err(CliError::MalformedOption(_))
        ));
        assert!(matches!(
            parse_args(&args(&["tree", "--n"])),
            Err(CliError::MalformedOption(_))
        ));
    }

    #[test]
    fn boolean_flags_need_no_value() {
        let inv = parse_args(&args(&["figures", "--full", "--panel", "fig1a"])).unwrap();
        assert_eq!(inv.options.get("full").map(String::as_str), Some("true"));
    }

    #[test]
    fn help_command_prints_usage() {
        let out = run(&parse_args(&args(&["help"])).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
        for cmd in ["overlay", "tree", "stability", "route", "figures"] {
            assert!(out.contains(cmd), "help missing {cmd}");
        }
        // Every command, and each option with its default and choices.
        for command in COMMANDS {
            assert!(out.contains(&format!("  {} ", command.name)), "{out}");
            for opt in command.options {
                assert!(out.contains(&opt.usage()), "{}: {out}", command.name);
            }
        }
        for choices in [
            "empty-rect|orthogonal|signed|k-closest",
            "clustered|scattered",
        ] {
            assert!(out.contains(choices), "{out}");
        }
        let panels = "all|fig1a|fig1b|fig1c|fig1d|fig1e|claims|ablation|baselines\
                      |repair|churn|groups|detection|publish";
        assert!(out.contains(panels), "{out}");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run(&parse_args(&args(&["frobnicate"])).unwrap()).unwrap_err();
        assert_eq!(err, CliError::UnknownCommand("frobnicate".into()));
    }

    #[test]
    fn overlay_command_produces_profile() {
        let inv = parse_args(&args(&["overlay", "--n", "40", "--dim", "2"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("connected         : true"), "{out}");
        assert!(out.contains("link symmetry     : 100.0%"), "{out}");
    }

    #[test]
    fn overlay_rejects_unknown_method() {
        let inv = parse_args(&args(&["overlay", "--method", "magic"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn tree_command_reports_n_minus_one() {
        let inv = parse_args(&args(&["tree", "--n", "60", "--seed", "3"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("messages          : 59 (N-1 = 59)"), "{out}");
        assert!(out.contains("§2 claims hold    : true"), "{out}");
    }

    #[test]
    fn tree_rejects_out_of_range_root() {
        let inv = parse_args(&args(&["tree", "--n", "10", "--root", "10"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn stability_command_reports_zero_disconnections() {
        let inv = parse_args(&args(&["stability", "--n", "60", "--dim", "2", "--k", "1"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("links form a tree : true"), "{out}");
        assert!(
            out.contains("disconnecting departures (full schedule): 0"),
            "{out}"
        );
    }

    #[test]
    fn route_command_delivers() {
        let inv = parse_args(&args(&["route", "--n", "50", "--from", "0", "--to", "30"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("delivered : true"), "{out}");
        assert!(out.contains("0 ->"), "{out}");
    }

    #[test]
    fn route_rejects_bad_endpoints() {
        let inv = parse_args(&args(&["route", "--n", "10", "--to", "10"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn churn_store_mode_reports_exact_locality() {
        let inv = parse_args(&args(&[
            "churn",
            "--n",
            "60",
            "--events",
            "20",
            "--pattern",
            "mixed",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("events applied    : 20"), "{out}");
        assert!(out.contains("links made / cut  : "), "{out}");
        assert!(out.contains("connected         : true"), "{out}");
    }

    #[test]
    fn churn_prints_the_row_bytes_per_live_peer() {
        let inv = parse_args(&args(&["churn", "--n", "80", "--events", "30"])).unwrap();
        let out = run(&inv).unwrap();
        let line = (out.lines())
            .find_map(|l| l.strip_prefix("  row bytes         : "))
            .unwrap_or_else(|| panic!("no row bytes line: {out}"));
        let (per_peer, total) = line
            .split_once(" per live peer (")
            .unwrap_or_else(|| panic!("{line}"));
        let per_peer: f64 = per_peer.parse().unwrap();
        let total: usize = (total.strip_suffix(" in the adjacency tables)"))
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("{line}"));
        // A row header and at least one 4-byte id per live peer.
        assert!(per_peer >= 28.0, "{line}");
        assert!(total > 80 * 28, "{line}");
    }

    #[test]
    fn churn_rejects_unknown_pattern_and_mode() {
        let inv = parse_args(&args(&["churn", "--pattern", "tsunami"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn churn_strict_gate_prints_the_join_walk_counts() {
        let inv = parse_args(&args(&["churn", "--n", "80", "--events", "30", "--strict"]));
        let out = run(&inv.unwrap()).unwrap();
        assert!(out.contains("join walk         : "), "{out}");
        assert!(out.contains(" rows read, "), "{out}");
        assert!(out.contains(" front tests, "), "{out}");
        assert!(out.contains(" peers offered per join ("), "{out}");
        assert!(
            out.contains("strict gate       : byte-identical to the from-scratch definition"),
            "{out}"
        );
    }

    #[test]
    fn churn_has_no_shard_count_to_take() {
        // A script written for the removed tiles must not pass a gate on
        // a store it did not ask for.
        let inv = parse_args(&args(&["churn", "--shards", "4", "--strict"])).unwrap();
        assert_eq!(
            run(&inv).unwrap_err(),
            CliError::UnknownOption {
                command: "churn".into(),
                key: "shards".into()
            }
        );
    }

    #[test]
    fn options_a_command_does_not_read_are_rejected() {
        // A script written for the removed worker runtime must not run
        // the serial path and report that its gate passed.
        let inv = parse_args(&args(&["churn", "--runtime", "workers", "--strict"])).unwrap();
        assert_eq!(
            run(&inv).unwrap_err(),
            CliError::UnknownOption {
                command: "churn".into(),
                key: "runtime".into()
            }
        );
        // Nor one written for the removed live mode.
        let inv = parse_args(&args(&["churn", "--mode", "live"])).unwrap();
        assert_eq!(
            run(&inv).unwrap_err(),
            CliError::UnknownOption {
                command: "churn".into(),
                key: "mode".into()
            }
        );
        // A typo of a real option, and a real option of another command.
        let inv = parse_args(&args(&["churn", "--event", "120"])).unwrap();
        assert_eq!(
            run(&inv).unwrap_err(),
            CliError::UnknownOption {
                command: "churn".into(),
                key: "event".into()
            }
        );
        let inv = parse_args(&args(&["overlay", "--strict"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::UnknownOption { .. })));
        // Options are checked before values, and the report is stable.
        let inv = parse_args(&args(&[
            "tree", "--n", "many", "--zeta", "1", "--alpha", "2",
        ]));
        assert_eq!(
            run(&inv.unwrap()).unwrap_err(),
            CliError::UnknownOption {
                command: "tree".into(),
                key: "alpha".into()
            }
        );
    }

    #[test]
    fn every_ci_invocation_names_only_known_options() {
        // The workflow's `geocast` steps: the arguments follow
        // `--bin geocast --`, folded over the lines after it.
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let mut lines = ci.lines().peekable();
        let mut checked = 0;
        while let Some(line) = lines.next() {
            let Some((_, rest)) = line.split_once("--bin geocast -- ") else {
                continue;
            };
            let mut words = args(&rest.split_whitespace().collect::<Vec<_>>());
            while let Some(more) = lines.next_if(|l| l.trim_start().starts_with("--")) {
                words.extend(more.split_whitespace().map(ToString::to_string));
            }
            let inv = parse_args(&words).unwrap_or_else(|e| panic!("{words:?}: {e}"));
            resolve(&inv).unwrap_or_else(|e| panic!("{words:?}: {e}"));
            checked += 1;
        }
        assert!(checked >= 8, "found only {checked} geocast steps in ci.yml");
    }

    #[test]
    fn groups_command_reports_locality_and_exactness() {
        let inv = parse_args(&args(&[
            "groups",
            "--n",
            "100",
            "--groups",
            "6",
            "--subs",
            "150",
            "--events",
            "15",
            "--group-events",
            "15",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(
            out.contains("events applied      : 15 churn + 15 group ops"),
            "{out}"
        );
        assert!(out.contains("all == rebuild      : true"), "{out}");
        assert!(out.contains("affected groups"), "{out}");
        assert!(out.contains("graft walks         : "), "{out}");
        assert!(out.contains("zone splits         : "), "{out}");
        assert!(out.contains(" tree nodes touched)"), "{out}");
    }

    #[test]
    fn groups_rejects_bad_values() {
        let inv = parse_args(&args(&["groups", "--groups", "0"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["groups", "--zipf", "-1"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["groups", "--placement", "teleported"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn groups_scattered_strict_coverage_passes_with_zero_stranded() {
        // The CI coverage gate: scattered membership, strict mode — the
        // relay-graft layer must leave nothing stranded, and the output
        // must say so explicitly.
        let inv = parse_args(&args(&[
            "groups",
            "--n",
            "150",
            "--groups",
            "12",
            "--subs",
            "300",
            "--events",
            "20",
            "--group-events",
            "20",
            "--placement",
            "scattered",
            "--strict-coverage",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("publish stranded    : 0"), "{out}");
        assert!(out.contains("mean coverage       : 100%"), "{out}");
        assert!(out.contains("scattered"), "{out}");
        assert!(out.contains("all == rebuild      : true"), "{out}");
    }

    #[test]
    fn publish_strict_gate_passes_on_the_clustered_scenario() {
        // The CI data-plane gate: clustered membership, strict mode —
        // batching must strand nothing and the delivery-plan cache must
        // actually serve hits.
        let inv = parse_args(&args(&[
            "publish",
            "--n",
            "120",
            "--groups",
            "8",
            "--subs",
            "200",
            "--batch",
            "32",
            "--ticks",
            "20",
            "--churn-every",
            "7",
            "--strict",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("payloads published  : 640"), "{out}");
        assert!(out.contains("(0 stranded)"), "{out}");
        assert!(out.contains("all == rebuild      : true"), "{out}");
        assert!(out.contains("batching reduction"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
    }

    #[test]
    fn publish_batch_of_one_reports_no_reduction() {
        let inv = parse_args(&args(&[
            "publish",
            "--n",
            "100",
            "--groups",
            "6",
            "--batch",
            "1",
            "--ticks",
            "10",
            "--churn-every",
            "0",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("batching reduction  : 1.0x"), "{out}");
        assert!(out.contains("(0 stranded)"), "{out}");
    }

    #[test]
    fn publish_rejects_bad_values() {
        let inv = parse_args(&args(&["publish", "--groups", "0"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["publish", "--batch", "0"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        // No tick, no flush: nothing to report a hit rate or a
        // throughput of.
        let inv = parse_args(&args(&["publish", "--ticks", "0"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["publish", "--zipf", "-0.5"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["publish", "--placement", "orbital"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    /// The invocation `help` lists for `command`: its `--key value`
    /// pairs, each `a|b|c` choice at its first alternative, less the
    /// defaults the command works out from other options.
    fn listed_invocation(command: &str) -> Vec<String> {
        let help = run(&parse_args(&args(&["help"])).unwrap()).unwrap();
        let title = format!("  {command} ");
        let lines = help.lines().skip_while(|line| !line.starts_with(&title));
        let options = lines
            .skip(1)
            .take_while(|line| line.trim_start().starts_with("--"));
        let mut words = options.flat_map(str::split_whitespace);
        let row = COMMANDS.iter().find(|c| c.name == command).unwrap();
        let derived = |word: &str| {
            (row.options.iter())
                .any(|o| word == format!("--{}", o.key) && matches!(o.kind, Derived(_)))
        };
        let mut listed = vec![command.to_owned()];
        while let Some(word) = words.next() {
            if word.starts_with("--") {
                let value = words.next().expect("a listed option has a value");
                if !derived(word) {
                    listed.extend(
                        [word, value.split('|').next().unwrap_or(value)].map(str::to_owned),
                    );
                }
            }
        }
        listed
    }

    #[test]
    fn help_lists_the_defaults_the_commands_run() {
        for command in ["overlay", "tree", "stability", "route", "detect"] {
            let listed = listed_invocation(command);
            assert!(listed.len() > 1, "{command}: help lists no option");
            let bare = run(&parse_args(&args(&[command])).unwrap()).unwrap();
            let explicit = run(&parse_args(&listed).unwrap()).unwrap();
            assert_eq!(bare, explicit, "`geocast {}`", listed.join(" "));
        }
    }

    #[test]
    fn figures_publish_panel_runs_quick() {
        let inv = parse_args(&args(&["figures", "--panel", "publish"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("## publish"), "{out}");
        assert!(out.contains("suspicion window"), "{out}");
        assert!(
            !out.contains("false"),
            "a group diverged from rebuild: {out}"
        );
    }

    #[test]
    fn detect_strict_passes_at_zero_loss() {
        // The CI detection gate: at loss 0 every injected failure must
        // be detected with zero false positives, coverage must recover
        // fully, and the topology must converge to the oracle.
        let inv = parse_args(&args(&[
            "detect",
            "--n",
            "24",
            "--crashes",
            "2",
            "--silent",
            "1",
            "--strict",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("detected          : 3/3"), "{out}");
        assert!(out.contains("false positives   : 0"), "{out}");
        assert!(out.contains("final 100.0%"), "{out}");
        assert!(out.contains("oracle convergence: true"), "{out}");
        assert!(out.contains("ms after the wave"), "{out}");
    }

    #[test]
    fn detect_rejects_bad_values() {
        let inv = parse_args(&args(&["detect", "--loss", "1.5"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["detect", "--n", "4", "--crashes", "4"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(&args(&["detect", "--suspicion-ms", "0"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        // The engine caps a group at the population; a larger request is
        // refused rather than reported as granted.
        let inv = parse_args(&args(&["detect", "--n", "5", "--group-size", "10"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn detect_without_failures_prints_no_latency() {
        let inv = parse_args(&args(&[
            "detect",
            "--n",
            "6",
            "--crashes",
            "0",
            "--silent",
            "0",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("detection latency : -\n"), "{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn figures_detection_panel_runs_quick() {
        let inv = parse_args(&args(&["figures", "--panel", "detection"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("## detection"), "{out}");
        assert!(out.contains("oracle: true"), "{out}");
    }

    #[test]
    fn figures_groups_panel_runs_quick() {
        let inv = parse_args(&args(&["figures", "--panel", "groups"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("## groups"), "{out}");
        assert!(out.contains("walks replayed"), "{out}");
        assert!(out.contains("splits replayed"), "{out}");
        assert!(
            !out.contains("false"),
            "a group diverged from rebuild: {out}"
        );
    }

    #[test]
    fn groups_command_runs_the_panels_scenario() {
        // The 16-group scattered cell of the quick groups panel, through
        // `geocast groups`: the same driver, so the same per-event means.
        let cfg = figures::GroupsConfig::quick();
        let (n, subs) = (cfg.initial.to_string(), cfg.subscriptions.to_string());
        let (churn, ops) = (cfg.churn_events.to_string(), cfg.group_events.to_string());
        let zipf = cfg.exponent.to_string();
        let inv = parse_args(&args(&[
            "groups",
            "--n",
            &n,
            "--groups",
            "16",
            "--subs",
            &subs,
            "--zipf",
            &zipf,
            "--events",
            &churn,
            "--group-events",
            &ops,
            "--placement",
            "scattered",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        let panel = run(&parse_args(&args(&["figures", "--panel", "groups"])).unwrap()).unwrap();
        let row: Vec<&str> = panel
            .lines()
            .find(|l| l.starts_with("| 16 | scattered |"))
            .expect("the 16-group scattered row")
            .split('|')
            .map(str::trim)
            .collect();
        // Cells 5 and 6 of the split row: examined μ, certified μ.
        let (examined, certified) = (row[5], row[6]);
        assert!(
            out.contains(&format!("affected groups     : mean {examined} / max")),
            "{out}\n{panel}"
        );
        assert!(
            out.contains(&format!("certified / rebuilt : mean {certified} / ")),
            "{out}\n{panel}"
        );
    }

    #[test]
    fn figures_churn_panel_runs_quick() {
        let inv = parse_args(&args(&["figures", "--panel", "churn"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("## churn"), "{out}");
        assert!(out.contains("join-wave"), "{out}");
        assert!(
            !out.contains("false"),
            "a scenario diverged from rebuild: {out}"
        );
    }

    #[test]
    fn figures_single_panel_runs_quick() {
        let inv = parse_args(&args(&["figures", "--panel", "fig1a"])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("## fig1a"), "{out}");
    }

    #[test]
    fn bad_numeric_value_is_reported() {
        let inv = parse_args(&args(&["tree", "--n", "many"])).unwrap();
        assert_eq!(
            run(&inv).unwrap_err(),
            CliError::BadValue {
                key: "n".into(),
                value: "many".into()
            }
        );
    }

    #[test]
    fn out_of_range_dim_k_and_n_are_bad_values_on_every_command() {
        // Each of these used to reach a library `assert!` (or, for
        // `--n 0`, run on and blame another option).
        let mut cases: Vec<(&str, &str, &str)> = Vec::new();
        let takes = |command: &Command, key: &str| command.options.iter().any(|o| o.key == key);
        for command in COMMANDS.iter().filter(|c| takes(c, "dim")) {
            assert!(takes(command, "n"), "{}", command.name);
            cases.push((command.name, "dim", "0"));
            cases.push((command.name, "dim", "33"));
            cases.push((command.name, "n", "0"));
        }
        assert_eq!(cases.len(), 8 * 3, "every command but `figures`");
        cases.push(("overlay", "k", "0"));
        cases.push(("stability", "k", "0"));
        cases.push(("overlay --method signed", "dim", "13"));
        for (command, key, value) in cases {
            let mut words: Vec<&str> = command.split(' ').collect();
            let flag = format!("--{key}");
            words.extend([flag.as_str(), value]);
            let inv = parse_args(&args(&words)).unwrap();
            assert_eq!(
                run(&inv),
                Err(CliError::BadValue {
                    key: key.into(),
                    value: value.into()
                }),
                "{command} --{key} {value}"
            );
        }
    }

    #[test]
    fn each_range_check_names_its_own_option_and_the_value_as_typed() {
        // `--group-size 0` used to blame --groups, and a float was
        // echoed as it printed (`NaN`), not as it was typed.
        for (line, key, value) in [
            ("detect --group-size 0", "group-size", "0"),
            ("detect --groups 0", "groups", "0"),
            ("detect --loss nan", "loss", "nan"),
            ("detect --loss 1.50", "loss", "1.50"),
            ("groups --zipf nan", "zipf", "nan"),
            ("publish --zipf inf", "zipf", "inf"),
        ] {
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(
                run(&parse_args(&args(&words)).unwrap()),
                Err(CliError::BadValue {
                    key: key.into(),
                    value: value.into()
                }),
                "{line}"
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        for (err, needle) in [
            (CliError::MissingCommand, "no command"),
            (CliError::UnknownCommand("x".into()), "unknown command"),
            (CliError::MalformedOption("x".into()), "malformed"),
            (
                CliError::UnknownOption {
                    command: "churn".into(),
                    key: "runtime".into(),
                },
                "no option --runtime",
            ),
            (
                CliError::BadValue {
                    key: "k".into(),
                    value: "v".into(),
                },
                "invalid value",
            ),
            (
                CliError::Gate("strict churn violated: x".into()),
                "strict churn violated",
            ),
        ] {
            assert!(err.to_string().contains(needle));
        }
    }
}
