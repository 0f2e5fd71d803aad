//! Command implementation behind the `geocast` binary.
//!
//! The CLI wraps the library's experiment surface for interactive use:
//!
//! ```text
//! geocast overlay   --n 500 --dim 2 --method empty-rect        # topology profile
//! geocast tree      --n 500 --dim 3 --root 0 --pick median     # §2 construction
//! geocast stability --n 500 --dim 4 --k 2 --policy max-t       # §3 tree + departures
//! geocast figures   --panel fig1a [--full]                     # reproduce the paper
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to keep the dependency set identical to the library's.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use geocast::core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast::figures;
use geocast::geom::arrangement::MAX_SIGNED_DIM;
use geocast::geom::{MAX_ORTHANT_DIM, VMAX};
use geocast::overlay::analysis;
use geocast::prelude::*;

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
    /// `--strict-coverage` was requested and some published payload
    /// failed to reach every subscriber (the CI coverage gate).
    StrandedMembers {
        /// Total stranded deliveries across the run's publishes.
        stranded: u64,
        /// Publishes performed.
        publishes: u64,
    },
    /// `publish --strict` was requested and the data-plane gate failed:
    /// a flushed payload stranded a subscriber, the delivery-plan cache
    /// never hit, or the engine diverged from the oracle rebuild (the
    /// CI data-plane gate).
    PublishGate {
        /// Payload-deliveries that failed to reach a subscriber.
        stranded_payloads: u64,
        /// Delivery-plan cache hits across the run's flushes.
        cache_hits: u64,
        /// Whether every group matched the from-scratch rebuild.
        converged: bool,
    },
    /// `detect --strict` was requested and the detection gate failed:
    /// a live peer was convicted, an injected failure went undetected,
    /// coverage did not recover, or the detector-driven topology
    /// diverged from the oracle rebuild (the CI detection gate).
    DetectionGate {
        /// Live peers wrongly convicted as dead.
        false_positives: usize,
        /// Injected failures never detected.
        undetected: usize,
        /// Whether payload coverage returned to 100% by the end.
        recovered: bool,
        /// Whether the topology matched the oracle rebuild.
        converged: bool,
    },
    /// `churn --strict` was requested and the replayed store diverged
    /// from the from-scratch definition of the topology it should hold
    /// (the CI store gate).
    StoreGate {
        /// Whether the adjacency graph matched the definition's.
        graphs_equal: bool,
        /// Whether the fingerprint matched the one recomputed from it.
        fingerprints_equal: bool,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try `geocast help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}`; try `geocast help`"),
            CliError::MalformedOption(o) => {
                write!(f, "malformed option `{o}` (expected --key value)")
            }
            CliError::UnknownOption { command, key } => write!(
                f,
                "`{command}` has no option --{key}; try `geocast help`"
            ),
            CliError::BadValue { key, value } => write!(f, "invalid value `{value}` for --{key}"),
            CliError::StrandedMembers {
                stranded,
                publishes,
            } => write!(
                f,
                "strict coverage violated: {stranded} stranded deliveries across {publishes} publishes"
            ),
            CliError::PublishGate {
                stranded_payloads,
                cache_hits,
                converged,
            } => write!(
                f,
                "strict publish violated: {stranded_payloads} stranded \
                 payload-deliveries, {cache_hits} plan-cache hits, \
                 converged {converged}"
            ),
            CliError::DetectionGate {
                false_positives,
                undetected,
                recovered,
                converged,
            } => write!(
                f,
                "strict detection violated: {false_positives} false positives, \
                 {undetected} undetected failures, recovered {recovered}, \
                 converged {converged}"
            ),
            CliError::StoreGate {
                graphs_equal,
                fingerprints_equal,
            } => write!(
                f,
                "strict churn violated: graph equals the definition \
                 {graphs_equal}, fingerprint {fingerprints_equal}"
            ),
        }
    }
}

impl std::error::Error for CliError {}

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
        // Boolean flags (no value) are stored as "true".
        match key {
            "full" | "strict-coverage" | "strict" => {
                options.insert(key.to_owned(), "true".to_owned());
            }
            _ => {
                let Some(value) = it.next() else {
                    return Err(CliError::MalformedOption(token.clone()));
                };
                options.insert(key.to_owned(), value.clone());
            }
        }
    }
    Ok(Invocation {
        command: command.clone(),
        options,
    })
}

fn opt<T: std::str::FromStr>(inv: &Invocation, key: &str, default: T) -> Result<T, CliError> {
    match inv.options.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| CliError::BadValue {
            key: key.to_owned(),
            value: raw.clone(),
        }),
    }
}

/// Parses `--n`, rejecting empty populations the downstream passes
/// (overlay profiling, root placement) cannot represent.
fn opt_peers(inv: &Invocation, default: usize) -> Result<usize, CliError> {
    let n: usize = opt(inv, "n", default)?;
    if n == 0 {
        return Err(CliError::BadValue {
            key: "n".to_owned(),
            value: "0".to_owned(),
        });
    }
    Ok(n)
}

/// Parses `--dim`: an [`Orthant`] is a bit per dimension, so every
/// command's geometry holds 1 ..= [`MAX_ORTHANT_DIM`] dimensions.
fn opt_dim(inv: &Invocation, default: usize) -> Result<usize, CliError> {
    let dim: usize = opt(inv, "dim", default)?;
    if !(1..=MAX_ORTHANT_DIM).contains(&dim) {
        return Err(CliError::BadValue {
            key: "dim".to_owned(),
            value: dim.to_string(),
        });
    }
    Ok(dim)
}

fn selection_for(
    method: &str,
    dim: usize,
    k: usize,
) -> Result<Arc<dyn NeighborSelection + Send + Sync>, CliError> {
    if k == 0 {
        return Err(CliError::BadValue {
            key: "k".into(),
            value: "0".into(),
        });
    }
    Ok(match method {
        "signed" if dim > MAX_SIGNED_DIM => {
            return Err(CliError::BadValue {
                key: "dim".into(),
                value: dim.to_string(),
            })
        }
        "empty-rect" => Arc::new(EmptyRectSelection),
        "orthogonal" => Arc::new(HyperplanesSelection::orthogonal(dim, k)),
        "signed" => Arc::new(HyperplanesSelection::signed(dim, k)),
        "k-closest" => Arc::new(HyperplanesSelection::k_closest(dim, k)),
        other => {
            return Err(CliError::BadValue {
                key: "method".into(),
                value: other.into(),
            })
        }
    })
}

/// A subcommand's body: the text to print, or why not.
type Body = fn(&Invocation) -> Result<String, CliError>;

/// A subcommand: its name, every option key it reads, and its body.
type Command = (&'static str, &'static [&'static str], Body);

/// Every subcommand but `help`. [`parse_args`] stores any `--key value`
/// and the bodies look up only the keys they know, so the key list is
/// what keeps a typo or a stale option from being ignored in silence.
const COMMANDS: &[Command] = &[
    ("overlay", &["n", "dim", "seed", "k", "method"], cmd_overlay),
    ("tree", &["n", "dim", "seed", "root", "pick"], cmd_tree),
    (
        "stability",
        &["n", "dim", "seed", "k", "policy"],
        cmd_stability,
    ),
    ("route", &["n", "dim", "seed", "from", "to"], cmd_route),
    (
        "churn",
        &[
            "n",
            "dim",
            "seed",
            "events",
            "join-rate",
            "leave-rate",
            "pattern",
            "strict",
        ],
        cmd_churn,
    ),
    (
        "groups",
        &[
            "n",
            "dim",
            "seed",
            "groups",
            "subs",
            "zipf",
            "events",
            "group-events",
            "placement",
            "strict-coverage",
        ],
        cmd_groups,
    ),
    (
        "publish",
        &[
            "n",
            "dim",
            "seed",
            "groups",
            "subs",
            "zipf",
            "batch",
            "ticks",
            "churn-every",
            "placement",
            "strict",
        ],
        cmd_publish,
    ),
    (
        "detect",
        &[
            "n",
            "dim",
            "seed",
            "groups",
            "group-size",
            "loss",
            "crashes",
            "silent",
            "suspicion-ms",
            "strict",
        ],
        cmd_detect,
    ),
    ("figures", &["panel", "full"], cmd_figures),
];

/// Looks the subcommand up and checks that it reads every option given.
fn resolve(inv: &Invocation) -> Result<Body, CliError> {
    let &(_, keys, body) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == inv.command)
        .ok_or_else(|| CliError::UnknownCommand(inv.command.clone()))?;
    // The smallest, so the key reported does not depend on hash order.
    let unknown = inv.options.keys().filter(|k| !keys.contains(&k.as_str()));
    match unknown.min() {
        Some(key) => Err(CliError::UnknownOption {
            command: inv.command.clone(),
            key: key.clone(),
        }),
        None => Ok(body),
    }
}

/// Executes a parsed invocation, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, options the command
/// does not read, or invalid option values.
pub fn run(inv: &Invocation) -> Result<String, CliError> {
    if matches!(inv.command.as_str(), "help" | "--help" | "-h") {
        return Ok(HELP.to_owned());
    }
    resolve(inv)?(inv)
}

const HELP: &str = "geocast — decentralized multicast trees on geometric P2P overlays

USAGE: geocast <COMMAND> [--key value ...]

COMMANDS:
  overlay    build an equilibrium overlay and print its profile
             --n 500 --dim 2 --seed 1 --method empty-rect|orthogonal|signed|k-closest --k 2
  tree       run the §2 construction and check its claims
             --n 500 --dim 2 --seed 1 --root 0 --pick median|closest|farthest
  stability  run the §3 construction and replay all departures
             --n 500 --dim 3 --k 2 --seed 1 --policy max-t|min-higher-t|closest
  route      greedy geometric routing between two peers
             --n 200 --dim 2 --seed 1 --from 0 --to 199  (--to defaults to n − 1)
  churn      replay a churn pattern through the incremental engine
             --n 500 --dim 2 --seed 1 --pattern mixed|join-wave|leave-wave|flash-crowd
             --events 200 --join-rate 1 --leave-rate 1
             [--strict]  (fail unless the replayed store is byte-identical
                          to the from-scratch definition)
  groups     drive N concurrent multicast groups over one shared store
             --n 500 --dim 2 --seed 1 --groups 16 --subs 1000 --zipf 1.0
             --events 200 --group-events 200 --placement clustered|scattered
             [--strict-coverage]  (fail if any publish strands a member)
  publish    drive the batched data plane: enqueue + flush over the plan cache
             --n 500 --dim 2 --seed 1 --groups 16 --subs 1000 --zipf 1.5
             --batch 64 --ticks 50 --churn-every 10 --placement clustered|scattered
             [--strict]  (fail on stranded payloads, a cold plan cache,
                          or oracle divergence)
  detect     run the SWIM failure-detection plane through a crash wave
             --n 24 --dim 2 --seed 42 --groups 2 --group-size 8 --loss 0.0
             --crashes 2 --silent 1 --suspicion-ms 400
             [--strict]  (fail on false positives, missed failures,
                          unrecovered coverage, or oracle divergence)
  figures    regenerate the paper's artifacts
             --panel fig1a|fig1b|fig1c|fig1d|fig1e|claims|ablation|baselines|repair|churn|groups|detection|publish|all [--full]
  help       this text
";

fn cmd_overlay(inv: &Invocation) -> Result<String, CliError> {
    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let k: usize = opt(inv, "k", 2)?;
    let method: String = opt(inv, "method", "empty-rect".to_owned())?;
    let selection = selection_for(&method, dim, k)?;

    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed));
    let store = TopologyStore::from_peers(peers, selection);
    let graph = store.graph();
    let profile = analysis::profile(&graph, Some(64.min(n)), seed);
    let stretch = if n >= 2 {
        analysis::geometric_stretch(store.peers(), &graph, 200, seed)
    } else {
        0.0
    };

    let mut out = String::new();
    out.push_str(&format!(
        "overlay: {method} over {n} peers (D={dim}, seed {seed})\n\n"
    ));
    out.push_str(&format!(
        "  directed edges    : {}\n",
        profile.directed_edges
    ));
    out.push_str(&format!(
        "  undirected links  : {}\n",
        profile.undirected_edges
    ));
    out.push_str(&format!(
        "  degree            : min {} / mean {:.1} / max {}\n",
        profile.degree_min, profile.degree_mean, profile.degree_max
    ));
    out.push_str(&format!(
        "  link symmetry     : {:.1}%\n",
        profile.link_symmetry * 100.0
    ));
    out.push_str(&format!("  connected         : {}\n", profile.connected));
    out.push_str(&format!(
        "  mean hop distance : {:.2}\n",
        profile.mean_hop_distance
    ));
    out.push_str(&format!(
        "  max eccentricity  : {}\n",
        profile.hop_eccentricity_max
    ));
    out.push_str(&format!(
        "  clustering coeff  : {:.3}\n",
        profile.clustering_coefficient
    ));
    out.push_str(&format!("  geometric stretch : {stretch:.2}\n"));
    Ok(out)
}

fn cmd_tree(inv: &Invocation) -> Result<String, CliError> {
    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let root: usize = opt(inv, "root", 0)?;
    let pick: String = opt(inv, "pick", "median".to_owned())?;
    let partitioner = match pick.as_str() {
        "median" => OrthantRectPartitioner::median(),
        "closest" => OrthantRectPartitioner::closest(),
        "farthest" => OrthantRectPartitioner::farthest(),
        other => {
            return Err(CliError::BadValue {
                key: "pick".into(),
                value: other.into(),
            })
        }
    };
    if root >= n {
        return Err(CliError::BadValue {
            key: "root".into(),
            value: root.to_string(),
        });
    }

    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed));
    let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let everyone = (0..n).collect();
    let result = build_group_tree_on_store(&store, root, &everyone, &partitioner);
    let verdict = validate::check_section2(&result, n, dim);

    let mut out = String::new();
    out.push_str(&format!(
        "§2 multicast tree: {n} peers, D={dim}, root {root}, pick {pick}\n\n"
    ));
    out.push_str(&format!(
        "  messages          : {} (N-1 = {})\n",
        result.messages,
        n - 1
    ));
    out.push_str(&format!(
        "  spanning          : {}\n",
        result.tree.is_spanning()
    ));
    out.push_str(&format!(
        "  height            : {}\n",
        result.tree.longest_root_to_leaf()
    ));
    out.push_str(&format!(
        "  diameter          : {}\n",
        result.tree.diameter()
    ));
    out.push_str(&format!(
        "  max children      : {} (2^D = {})\n",
        result.tree.max_children(),
        1usize << dim
    ));
    out.push_str(&format!("  §2 claims hold    : {}\n", verdict.all_hold()));
    Ok(out)
}

fn cmd_stability(inv: &Invocation) -> Result<String, CliError> {
    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 3)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let k: usize = opt(inv, "k", 2)?;
    let policy_name: String = opt(inv, "policy", "max-t".to_owned())?;
    let policy = match policy_name.as_str() {
        "max-t" => PreferredPolicy::MaxT,
        "min-higher-t" => PreferredPolicy::MinHigherT,
        "closest" => PreferredPolicy::ClosestHigherT,
        other => {
            return Err(CliError::BadValue {
                key: "policy".into(),
                value: other.into(),
            })
        }
    };

    let selection = selection_for("orthogonal", dim, k)?;

    let base = uniform_points(n, dim, VMAX, seed);
    let times = lifetimes(n, VMAX, seed ^ 0x57_4a);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&embed_lifetimes(&base, &times)),
        selection,
    );
    let (peers, overlay) = (store.peers(), store.graph());
    let forest = preferred_links(peers, &overlay, policy);

    let mut out = String::new();
    out.push_str(&format!(
        "§3 stability tree: {n} peers, D={dim}, K={k}, policy {policy_name}\n\n"
    ));
    out.push_str(&format!("  links form a tree : {}\n", forest.is_tree()));
    out.push_str(&format!(
        "  heap property     : {}\n",
        forest.heap_property_holds(peers)
    ));
    if let Some(tree) = forest.to_multicast_tree() {
        let t: Vec<f64> = peers
            .iter()
            .map(geocast::prelude::PeerInfo::departure_time)
            .collect();
        out.push_str(&format!(
            "  height            : {}\n",
            tree.longest_root_to_leaf()
        ));
        out.push_str(&format!("  diameter          : {}\n", tree.diameter()));
        out.push_str(&format!(
            "  max tree degree   : {}\n",
            tree.degrees().into_iter().max().unwrap_or(0)
        ));
        out.push_str(&format!(
            "  disconnecting departures (full schedule): {}\n",
            non_leaf_departures(&tree, &t)
        ));
    }
    Ok(out)
}

fn cmd_route(inv: &Invocation) -> Result<String, CliError> {
    let n: usize = opt_peers(inv, 200)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let from: usize = opt(inv, "from", 0)?;
    let to: usize = opt(inv, "to", n.saturating_sub(1))?;
    if from >= n {
        return Err(CliError::BadValue {
            key: "from".into(),
            value: from.to_string(),
        });
    }
    if to >= n {
        return Err(CliError::BadValue {
            key: "to".into(),
            value: to.to_string(),
        });
    }

    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed));
    let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let route = geocast::overlay::routing::route_to_peer(&store, from, to);

    let mut out = String::new();
    out.push_str(&format!(
        "greedy route {from} -> {to} over {n} peers (D={dim}, seed {seed})\n\n"
    ));
    out.push_str(&format!("  delivered : {}\n", route.delivered()));
    out.push_str(&format!("  hops      : {}\n", route.hops()));
    out.push_str("  path      : ");
    for (i, hop) in route.path().iter().enumerate() {
        if i > 0 {
            out.push_str(" -> ");
        }
        out.push_str(&hop.to_string());
    }
    out.push('\n');
    Ok(out)
}

fn cmd_churn(inv: &Invocation) -> Result<String, CliError> {
    use geocast::overlay::churn::{run_schedule_on_store, ChurnSchedule};
    use std::time::Instant;

    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let events: usize = opt(inv, "events", 200)?;
    let join_rate: u32 = opt(inv, "join-rate", 1)?;
    let leave_rate: u32 = opt(inv, "leave-rate", 1)?;
    let pattern_name: String = opt(inv, "pattern", "mixed".to_owned())?;
    let strict = inv.options.contains_key("strict");
    let pattern = match pattern_name.as_str() {
        "join-wave" => ChurnPattern::JoinWave { count: events },
        "leave-wave" => ChurnPattern::LeaveWave { count: events },
        "flash-crowd" => ChurnPattern::FlashCrowd {
            surge: events / 2,
            exodus: events - events / 2,
        },
        "mixed" => {
            if join_rate == 0 && leave_rate == 0 {
                return Err(CliError::BadValue {
                    key: "join-rate".into(),
                    value: "0 (with --leave-rate 0)".into(),
                });
            }
            ChurnPattern::Mixed {
                events,
                join_rate,
                leave_rate,
            }
        }
        other => {
            return Err(CliError::BadValue {
                key: "pattern".into(),
                value: other.into(),
            })
        }
    };

    let points = uniform_points(n, dim, VMAX, seed);
    let schedule = ChurnSchedule::from_pattern(n, &pattern, dim, VMAX, seed ^ 0xc4);
    let mut out = String::new();
    out.push_str(&format!(
        "churn replay: {pattern} on {n} initial peers (D={dim}, seed {seed})\n\n"
    ));
    let mut store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&points),
        Arc::new(EmptyRectSelection),
    );
    // lint:allow(D002, reason = "wall-clock lines in the CLI report only; no control flow reads the clock")
    let start = Instant::now();
    let report = run_schedule_on_store(&mut store, &schedule);
    let secs = start.elapsed().as_secs_f64();
    out.push_str(&format!(
        "  events applied    : {} ({} joins, {} leaves)\n",
        report.joins + report.leaves,
        report.joins,
        report.leaves
    ));
    out.push_str(&format!("  elapsed           : {secs:.3}s\n"));
    out.push_str(&format!(
        "  events per second : {:.0}\n",
        (report.joins + report.leaves) as f64 / secs.max(1e-9)
    ));
    out.push_str(&format!(
        "  dirty region      : mean {:.1} / max {} peers\n",
        report.touched_mean(),
        report.touched_max
    ));
    let events = (report.joins + report.leaves).max(1) as f64;
    out.push_str(&format!(
        "  links made / cut  : {:.2} / {:.2} per event ({} by leaves, {} by joins)\n",
        report.links_made as f64 / events,
        report.links_cut as f64 / events,
        report.links_made,
        report.links_cut
    ));
    out.push_str(&format!("  live peers after  : {}\n", store.live_count()));
    out.push_str(&format!(
        "  row bytes         : {:.1} per live peer ({} in the adjacency tables)\n",
        store.row_bytes() as f64 / store.live_count().max(1) as f64,
        store.row_bytes()
    ));
    let walk = store.join_walk_stats();
    let per_join = |count: u64| count as f64 / walk.joins.max(1) as f64;
    out.push_str(&format!(
        "  join walk         : {:.2} descent hops, {:.1} rows read, {:.1} peers offered \
         per join ({} joins)\n",
        per_join(walk.descent_hops),
        per_join(walk.rows_read),
        per_join(walk.offered),
        walk.joins
    ));
    // Departed peers keep their (edge-less) vertex, so connectivity is a
    // live-peers-only question.
    let live: Vec<usize> = (0..store.len())
        .filter(|&i| !store.is_departed(PeerId(i as u64)))
        .collect();
    let graph = store.graph();
    let connected = live.first().is_none_or(|&start| {
        let dist = graph.bfs_distances(start);
        live.iter().all(|&i| dist[i].is_some())
    });
    out.push_str(&format!("  connected         : {connected}\n"));
    if strict {
        // The CI gate: the topology the survivors define, from
        // scratch and with no index, and the fingerprint of that.
        let want = oracle::equilibrium_live(store.peers(), store.departed(), &EmptyRectSelection);
        let graphs_equal = graph == want;
        let fingerprints_equal = store.fingerprint() == oracle::fingerprint(&want);
        if !(graphs_equal && fingerprints_equal) {
            return Err(CliError::StoreGate {
                graphs_equal,
                fingerprints_equal,
            });
        }
        out.push_str("  strict gate       : byte-identical to the from-scratch definition\n");
    }
    Ok(out)
}

fn cmd_groups(inv: &Invocation) -> Result<String, CliError> {
    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let num_groups: usize = opt(inv, "groups", 16)?;
    let subs: usize = opt(inv, "subs", 2 * n)?;
    let zipf: f64 = opt(inv, "zipf", 1.0)?;
    let churn_events: usize = opt(inv, "events", 200)?;
    let group_events: usize = opt(inv, "group-events", 200)?;
    let placement_name: String = opt(inv, "placement", "clustered".to_owned())?;
    let strict_coverage = inv.options.contains_key("strict-coverage");
    let placement = match placement_name.as_str() {
        "clustered" => MembershipPlacement::Clustered,
        "scattered" => MembershipPlacement::Scattered,
        other => {
            return Err(CliError::BadValue {
                key: "placement".into(),
                value: other.into(),
            })
        }
    };
    if num_groups == 0 {
        return Err(CliError::BadValue {
            key: "groups".into(),
            value: "0".into(),
        });
    }
    if !zipf.is_finite() || zipf < 0.0 {
        return Err(CliError::BadValue {
            key: "zipf".into(),
            value: zipf.to_string(),
        });
    }

    let cfg = figures::GroupsConfig {
        initial: n,
        group_counts: vec![num_groups],
        placements: vec![placement],
        subscriptions: subs,
        exponent: zipf,
        churn_events,
        group_events,
        dim,
        seed,
    };
    let s = figures::groups_scenario(&cfg, num_groups, placement);
    let churn = s.examined.len();
    let examined: usize = s.examined.iter().sum();
    let secs = s.seconds;
    let (totals, published) = (&s.totals, &s.published);

    let mut out = String::new();
    out.push_str(&format!(
        "multi-group sessions: {num_groups} groups over {n} peers (D={dim}, seed {seed}, zipf {zipf:.1}, {placement_name})\n\n"
    ));
    out.push_str(&format!(
        "  events applied      : {churn} churn + {} group ops\n",
        s.group_events
    ));
    out.push_str(&format!("  elapsed             : {secs:.3}s\n"));
    out.push_str(&format!(
        "  events per second   : {:.0}\n",
        (churn + s.group_events) as f64 / secs.max(1e-9)
    ));
    let per_event = |sum: usize| sum as f64 / churn.max(1) as f64;
    out.push_str(&format!(
        "  affected groups     : mean {:.2} / max {} examined per churn event (naive engine: {num_groups})\n",
        per_event(examined),
        s.examined.iter().max().unwrap_or(&0)
    ));
    out.push_str(&format!(
        "  certified / rebuilt : mean {:.2} / {:.2} per churn event\n",
        per_event(s.certified),
        per_event(examined - s.certified)
    ));
    out.push_str(&format!(
        "  tree rebuilds       : {} ({} tree nodes touched)\n",
        totals.tree_rebuilds, totals.tree_nodes_touched
    ));
    out.push_str(&format!(
        "  graft walks         : {} replayed from the previous build ({} spliced whole) / {} searched; {} examined\n",
        totals.graft_walks_replayed,
        totals.graft_walks_spliced,
        totals.graft_walks_recomputed,
        totals.graft_walks_examined
    ));
    out.push_str(&format!(
        "  zone splits         : {} replayed from the previous build / {} partitioned\n",
        totals.zone_splits_replayed, totals.zone_splits_recomputed
    ));
    out.push_str(&format!(
        "  memberships after   : {} across {num_groups} groups\n",
        s.memberships
    ));
    out.push_str(&format!(
        "  mean coverage       : {:.0}%\n",
        s.coverage_mean * 100.0
    ));
    out.push_str(&format!("  relay nodes         : {}\n", s.relays));
    out.push_str(&format!(
        "  publishes           : {} ({} data messages, {} over relays)\n",
        published.batches, published.messages, published.relay_messages
    ));
    out.push_str(&format!(
        "  publish stranded    : {}\n",
        published.payload_strandings
    ));
    out.push_str(&format!("  live peers after    : {}\n", s.live));
    out.push_str(&format!("  all == rebuild      : {}\n", s.exact));
    if strict_coverage && published.payload_strandings > 0 {
        return Err(CliError::StrandedMembers {
            stranded: published.payload_strandings,
            publishes: published.batches,
        });
    }
    Ok(out)
}

fn cmd_publish(inv: &Invocation) -> Result<String, CliError> {
    use geocast::sim::workload::PublishWorkload;

    let n: usize = opt_peers(inv, 500)?;
    let dim: usize = opt_dim(inv, 2)?;
    let seed: u64 = opt(inv, "seed", 1)?;
    let num_groups: usize = opt(inv, "groups", 16)?;
    let subs: usize = opt(inv, "subs", 2 * n)?;
    let zipf: f64 = opt(inv, "zipf", 1.5)?;
    let batch: usize = opt(inv, "batch", 64)?;
    let ticks: usize = opt(inv, "ticks", 50)?;
    let churn_every: usize = opt(inv, "churn-every", 10)?;
    let placement_name: String = opt(inv, "placement", "clustered".to_owned())?;
    let strict = inv.options.contains_key("strict");
    let placement = match placement_name.as_str() {
        "clustered" => MembershipPlacement::Clustered,
        "scattered" => MembershipPlacement::Scattered,
        other => {
            return Err(CliError::BadValue {
                key: "placement".into(),
                value: other.into(),
            })
        }
    };
    if num_groups == 0 {
        return Err(CliError::BadValue {
            key: "groups".into(),
            value: "0".into(),
        });
    }
    if batch == 0 {
        return Err(CliError::BadValue {
            key: "batch".into(),
            value: "0".into(),
        });
    }
    if ticks == 0 {
        return Err(CliError::BadValue {
            key: "ticks".into(),
            value: "0".into(),
        });
    }
    if !zipf.is_finite() || zipf < 0.0 {
        return Err(CliError::BadValue {
            key: "zipf".into(),
            value: zipf.to_string(),
        });
    }

    let cfg = figures::PublishConfig {
        initial: n,
        groups: num_groups,
        subscriptions: subs,
        placement,
        exponents: vec![zipf],
        batch_sizes: vec![batch],
        ticks,
        churn_every,
        dim,
        seed,
    };
    let s = figures::publish_scenario(&cfg, zipf, batch);
    let (report, converged) = (&s.report, s.exact);
    let workload = PublishWorkload {
        groups: num_groups,
        exponent: zipf,
        ticks,
        payloads_per_tick: batch,
    };

    let mut out = String::new();
    out.push_str(&format!(
        "batched data plane: {workload} over {num_groups} groups, {n} peers \
         (D={dim}, seed {seed}, {placement_name}, churn every {churn_every} ticks)\n\n"
    ));
    out.push_str(&format!("  payloads published  : {}\n", report.payloads));
    out.push_str(&format!(
        "  flushes             : {} batches over {} ticks\n",
        report.batches, ticks
    ));
    out.push_str(&format!(
        "  data frames         : {} ({} over relays)\n",
        report.messages, report.relay_messages
    ));
    out.push_str(&format!(
        "  messages/payload    : {:.3} (sequential would pay {:.3})\n",
        report.messages_per_payload(),
        report.sequential_messages as f64 / report.payloads.max(1) as f64
    ));
    out.push_str(&format!(
        "  batching reduction  : {:.1}x\n",
        report.reduction()
    ));
    out.push_str(&format!(
        "  plan cache          : {} hits / {} misses ({:.0}% hit rate)\n",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate() * 100.0
    ));
    out.push_str(&format!(
        "  payload deliveries  : {} ({} stranded)\n",
        report.payload_deliveries, report.payload_strandings
    ));
    out.push_str(&format!(
        "  flush throughput    : {:.2e} payloads/s\n",
        s.payloads_per_s
    ));
    out.push_str(&format!("  all == rebuild      : {converged}\n"));
    if strict && (report.payload_strandings > 0 || report.cache_hits == 0 || !converged) {
        return Err(CliError::PublishGate {
            stranded_payloads: report.payload_strandings,
            cache_hits: report.cache_hits,
            converged,
        });
    }
    Ok(out)
}

fn cmd_detect(inv: &Invocation) -> Result<String, CliError> {
    use geocast::core::detect::{run_detection, DetectionScenario};

    // CLI-scale defaults: the quick scenario (seconds of virtual time,
    // fast detector) with every knob overridable.
    let mut sc = DetectionScenario::quick();
    sc.peers = opt_peers(inv, sc.peers)?;
    sc.dim = opt_dim(inv, sc.dim)?;
    sc.seed = opt(inv, "seed", sc.seed)?;
    sc.groups = opt(inv, "groups", sc.groups)?;
    // The default group fits the population; an explicit larger one is
    // refused below.
    sc.group_size = opt(inv, "group-size", sc.group_size.min(sc.peers))?;
    sc.loss = opt(inv, "loss", sc.loss)?;
    sc.crash_count = opt(inv, "crashes", sc.crash_count)?;
    sc.silent_count = opt(inv, "silent", sc.silent_count)?;
    let suspicion_ms: u64 = opt(
        inv,
        "suspicion-ms",
        sc.detector.suspicion_timeout.as_nanos() / 1_000_000,
    )?;
    sc.detector.suspicion_timeout = SimDuration::from_millis(suspicion_ms);
    let strict = inv.options.contains_key("strict");

    if sc.peers < 2 {
        return Err(CliError::BadValue {
            key: "n".into(),
            value: sc.peers.to_string(),
        });
    }
    if !(0.0..=1.0).contains(&sc.loss) {
        return Err(CliError::BadValue {
            key: "loss".into(),
            value: sc.loss.to_string(),
        });
    }
    if sc.groups == 0 || sc.group_size == 0 {
        return Err(CliError::BadValue {
            key: "groups".into(),
            value: "0".into(),
        });
    }
    if sc.group_size > sc.peers {
        return Err(CliError::BadValue {
            key: "group-size".into(),
            value: format!("{} over {} peers", sc.group_size, sc.peers),
        });
    }
    if sc.crash_count + sc.silent_count >= sc.peers {
        return Err(CliError::BadValue {
            key: "crashes".into(),
            value: format!("{}+{} silent", sc.crash_count, sc.silent_count),
        });
    }
    if suspicion_ms == 0 {
        return Err(CliError::BadValue {
            key: "suspicion-ms".into(),
            value: "0".into(),
        });
    }

    let report = run_detection(&sc);

    let mut out = String::new();
    out.push_str(&format!(
        "failure detection: {} peers, {} groups of {}, loss {:.0}%, suspicion {} ms\n\n",
        sc.peers,
        sc.groups,
        sc.group_size,
        sc.loss * 100.0,
        suspicion_ms
    ));
    out.push_str(&format!(
        "  wave              : {} crash-stop + {} silent-drop at {:.0} ms\n",
        report.crashed.len(),
        report.silent.len(),
        sc.crash_at.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "  detected          : {}/{}\n",
        report.detected.len(),
        report.crashed.len() + report.silent.len()
    ));
    // No verdict, no latency: "-" as the detection panel prints it.
    let latency = if report.detected.is_empty() {
        "-".to_owned()
    } else {
        format!(
            "mean {:.0} ms / max {:.0} ms",
            report.mean_detection_ms(),
            report.max_detection_ms()
        )
    };
    out.push_str(&format!("  detection latency : {latency}\n"));
    out.push_str(&format!(
        "  false positives   : {}\n",
        report.false_positives
    ));
    out.push_str(&format!(
        "  suspicions        : {} raised, {} refuted\n",
        report.suspect_events, report.refute_events
    ));
    out.push_str(&format!(
        "  probe plane       : {} simulator events, {} messages sent\n",
        report.sim_events, report.messages_sent
    ));
    out.push_str(&format!(
        "  coverage          : min {:.1}% / final {:.1}%\n",
        report.min_coverage * 100.0,
        report.final_coverage * 100.0
    ));
    out.push_str(&format!(
        "  recovery          : {}\n",
        report.recovered_after.map_or("never".to_owned(), |d| {
            format!("{:.0} ms after the wave", d.as_secs_f64() * 1e3)
        })
    ));
    out.push_str(&format!("  oracle convergence: {}\n", report.converged));
    if strict && !report.strict_ok() {
        return Err(CliError::DetectionGate {
            false_positives: report.false_positives,
            undetected: report.crashed.len() + report.silent.len() - report.detected.len(),
            recovered: report.final_coverage == 1.0,
            converged: report.converged,
        });
    }
    Ok(out)
}

fn cmd_figures(inv: &Invocation) -> Result<String, CliError> {
    let panel: String = opt(inv, "panel", "all".to_owned())?;
    let full = inv.options.contains_key("full");

    let fig1 = if full {
        figures::Fig1Config::default()
    } else {
        figures::Fig1Config::quick()
    };
    let fig1c = if full {
        figures::Fig1cConfig::default()
    } else {
        figures::Fig1cConfig::quick()
    };
    let stab = if full {
        figures::StabilityConfig::default()
    } else {
        figures::StabilityConfig::quick()
    };
    let claims = if full {
        figures::ClaimsConfig::default()
    } else {
        figures::ClaimsConfig::quick()
    };
    let ab = if full {
        figures::AblationConfig::default()
    } else {
        figures::AblationConfig::quick()
    };
    let base = if full {
        figures::BaselineConfig::default()
    } else {
        figures::BaselineConfig::quick()
    };
    let repair = if full {
        figures::RepairConfig::default()
    } else {
        figures::RepairConfig::quick()
    };
    let churn = if full {
        figures::ChurnConfig::default()
    } else {
        figures::ChurnConfig::quick()
    };
    let groups = if full {
        figures::GroupsConfig::default()
    } else {
        figures::GroupsConfig::quick()
    };
    let detection = if full {
        figures::DetectionConfig::default()
    } else {
        figures::DetectionConfig::quick()
    };
    let publish = if full {
        figures::PublishConfig::default()
    } else {
        figures::PublishConfig::quick()
    };

    let mut reports = Vec::new();
    match panel.as_str() {
        "fig1a" => reports.push(figures::fig1a(&fig1)),
        "fig1b" => reports.push(figures::fig1b(&fig1)),
        "fig1c" => reports.push(figures::fig1c(&fig1c)),
        "fig1d" => reports.push(figures::fig1d(&stab)),
        "fig1e" => reports.push(figures::fig1e(&stab)),
        "claims" => {
            reports.push(figures::claims_section2(&claims));
            reports.push(figures::claims_section3(&claims));
        }
        "ablation" => reports.push(figures::ablation_partitioner(&ab)),
        "baselines" => {
            reports.push(figures::baseline_messages(&base));
            reports.push(figures::baseline_stability(&base));
        }
        "repair" => reports.push(figures::repair_cost(&repair)),
        "churn" => reports.push(figures::churn_panel(&churn)),
        "groups" => reports.push(figures::groups_panel(&groups)),
        "detection" => reports.push(figures::detection_panel(&detection)),
        "publish" => reports.push(figures::publish_panel(&publish)),
        "all" => {
            reports.push(figures::fig1a(&fig1));
            reports.push(figures::fig1b(&fig1));
            reports.push(figures::fig1c(&fig1c));
            let sweep = figures::stability_sweep(&stab);
            reports.push(sweep.fig1d_report());
            reports.push(sweep.fig1e_report());
            reports.push(figures::claims_section2(&claims));
            reports.push(figures::claims_section3(&claims));
            reports.push(figures::ablation_partitioner(&ab));
            reports.push(figures::baseline_messages(&base));
            reports.push(figures::baseline_stability(&base));
            reports.push(figures::repair_cost(&repair));
            reports.push(figures::churn_panel(&churn));
            reports.push(figures::groups_panel(&groups));
            reports.push(figures::detection_panel(&detection));
            reports.push(figures::publish_panel(&publish));
        }
        other => {
            return Err(CliError::BadValue {
                key: "panel".into(),
                value: other.into(),
            })
        }
    }
    let mut out = String::new();
    for report in &reports {
        out.push_str(&report.to_string());
        out.push('\n');
    }
    Ok(out)
}

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
    /// pairs, each `a|b|c` choice at its first alternative.
    fn listed_invocation(command: &str) -> Vec<String> {
        let title = format!("  {command} ");
        let lines = HELP.lines().skip_while(|line| !line.starts_with(&title));
        let options = lines
            .skip(1)
            .take_while(|line| line.trim_start().starts_with("--"));
        let mut words = options.flat_map(str::split_whitespace);
        let mut listed = vec![command.to_owned()];
        while let Some(word) = words.next() {
            if word.starts_with("--") {
                let value = words.next().expect("a listed option has a value");
                listed.extend([word, value.split('|').next().unwrap_or(value)].map(str::to_owned));
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
        for &(command, keys, _) in COMMANDS.iter().filter(|(_, keys, _)| keys.contains(&"dim")) {
            assert!(keys.contains(&"n"), "{command}");
            cases.push((command, "dim", "0"));
            cases.push((command, "dim", "33"));
            cases.push((command, "n", "0"));
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
        ] {
            assert!(err.to_string().contains(needle));
        }
    }
}
