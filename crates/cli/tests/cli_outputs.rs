//! Pinned outputs of the `geocast` commands, through the public
//! `parse_args` and `run` alone.
//!
//! Each invocation's output is pinned as an FNV-1a digest with its
//! wall-clock lines dropped (`elapsed`, `events per second`, `flush
//! throughput`); `figures` is pinned by the ordered `## ` titles of its
//! panels, since its tables carry wall-clock columns. Every `geocast`
//! step of the CI workflow is one of the pinned invocations. `help` is
//! not pinned: its layout is free as long as it lists every command,
//! option, default and choice (the crate's unit tests check that).
//!
//! A digest that moves means an output line moved: compare the command's
//! output against the previous build's before re-pinning.

use geocast_cli::{parse_args, run};

/// The labels of the lines that read the wall clock.
const WALL_CLOCK: [&str; 3] = ["elapsed", "events per second", "flush throughput"];

/// The workflow's `geocast` steps, other than `figures --panel all`
/// (pinned by its titles below), that run in a few seconds of a debug
/// build.
const CI_QUICK: &[(&str, u64)] = &[
    (
        "groups --n 400 --groups 32 --subs 800 --events 60 --group-events 60 \
         --placement scattered --strict-coverage",
        0xad3dee5501a07943,
    ),
    (
        "detect --n 48 --groups 4 --group-size 10 --crashes 3 --silent 2 --loss 0 --strict",
        0xb19feb811af5fcf1,
    ),
    (
        "publish --n 400 --groups 24 --subs 800 --zipf 1.5 --batch 64 --ticks 40 \
         --churn-every 10 --strict",
        0xb3b852f59da06646,
    ),
    ("tree --n 16 --dim 32 --seed 1", 0xf3e4aa636b8f8eac),
    (
        "groups --n 60 --dim 32 --seed 1 --groups 4 --subs 40",
        0x8cde8a86afd688f4,
    ),
    ("churn --n 400 --events 120 --strict", 0x762fd6915c36bc7e),
    (
        "churn --n 400 --events 120 --dim 3 --strict",
        0xbb84d8c1a7ef7131,
    ),
];

/// The workflow's store gates that take half a minute each in a debug
/// build: the oracle rebuild at D = 4, D = 5 and N = 5 000.
const CI_SLOW: &[(&str, u64)] = &[
    (
        "churn --n 400 --events 120 --dim 4 --strict",
        0x58ab05b51c8deecc,
    ),
    (
        "churn --n 400 --events 120 --dim 5 --strict",
        0x597e5e2e51daf118,
    ),
    ("churn --n 5000 --events 400 --strict", 0xbb917ea025415c5e),
];

/// Every command at its defaults, and at small fixed sizes through each
/// choice it offers.
const SMALL: &[(&str, u64)] = &[
    ("overlay", 0x96d15f08d7ef1e4d),
    ("tree", 0xd5884b50681d0180),
    ("stability", 0x16e79eed8c0edf7f),
    ("route", 0x1fc2777709f8eb69),
    ("churn", 0xc883fb7452343b03),
    ("groups", 0x52b139ab71110528),
    ("publish", 0xd7522da421a3457c),
    ("detect", 0x3158115687082e6a),
    ("overlay --n 300 --seed 4", 0xc1ba5b8169553229),
    (
        "overlay --n 300 --dim 3 --method orthogonal --k 3",
        0xce393f61021bb1b3,
    ),
    (
        "overlay --n 300 --dim 3 --method signed",
        0x9b3f7552f3353cc9,
    ),
    (
        "overlay --n 300 --method k-closest --k 4",
        0xd4334fa6a73444ff,
    ),
    ("tree --n 200 --dim 3 --root 7 --seed 2", 0x56d34376cbbc0ddc),
    ("tree --n 200 --dim 3 --pick closest", 0x23c1604822dbb7b3),
    ("tree --n 200 --pick farthest --seed 5", 0xb30b794edc212928),
    ("stability --n 200 --dim 2 --k 1", 0x16206ef06b2eddcb),
    (
        "stability --n 200 --policy min-higher-t",
        0x67ccd20a1698ef18,
    ),
    (
        "stability --n 200 --dim 4 --policy closest --seed 3",
        0x9d63adfa2a5f69fb,
    ),
    (
        "route --n 150 --from 3 --to 120 --seed 9",
        0x43664ab93c20dc2e,
    ),
    ("route --n 80 --dim 3 --from 5", 0x5a6cd5f90e39b4fe),
    (
        "churn --n 200 --events 60 --join-rate 2 --leave-rate 1 --seed 7",
        0xea4c5c41de5243b2,
    ),
    (
        "churn --n 200 --events 60 --pattern join-wave",
        0xb2157aa675d1324d,
    ),
    (
        "churn --n 200 --events 60 --pattern leave-wave --dim 3",
        0x8a07c40423b6706a,
    ),
    (
        "churn --n 200 --events 60 --pattern flash-crowd",
        0x66c651855ad2320b,
    ),
    (
        "groups --n 150 --groups 5 --subs 300 --zipf 0.5 --events 20 --group-events 30 --seed 3",
        0xe44178bdffd96453,
    ),
    (
        "publish --n 150 --groups 6 --subs 300 --placement scattered --ticks 10 --batch 8",
        0xcb6cbc07f6945cfc,
    ),
    (
        "detect --n 30 --loss 0.05 --seed 3 --suspicion-ms 250",
        0x8af420d131211ef9,
    ),
];

/// The panel names `figures --panel` takes, one at a time.
const PANELS: [&str; 13] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig1e",
    "claims",
    "ablation",
    "baselines",
    "repair",
    "churn",
    "groups",
    "detection",
    "publish",
];

/// What `geocast <line>` prints.
fn output(line: &str) -> String {
    let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let invocation = parse_args(&words).unwrap_or_else(|e| panic!("{line}: {e}"));
    run(&invocation).unwrap_or_else(|e| panic!("{line}: {e}"))
}

/// FNV-1a (64-bit) over the lines of `out` that do not read the wall
/// clock, each with its newline.
fn digest(out: &str) -> u64 {
    let kept = out
        .lines()
        .filter(|line| !WALL_CLOCK.iter().any(|w| line.trim_start().starts_with(w)));
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in kept.flat_map(|line| line.bytes().chain([b'\n'])) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Runs every invocation and reports each one whose digest moved.
fn check(pinned: &[(&str, u64)]) {
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(line, want)| {
            let got = digest(&output(line));
            (got != want).then(|| format!("(\"{line}\", {got:#018x}) pinned {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "moved:\n{}", moved.join("\n"));
}

/// The `## ` titles `figures` prints, in order.
fn titles(line: &str) -> Vec<String> {
    let out = output(line);
    let titles = out.lines().filter(|l| l.starts_with("## "));
    titles.map(str::to_owned).collect()
}

#[test]
fn the_quick_ci_invocations_keep_their_outputs() {
    check(CI_QUICK);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "half a minute each in a debug build; CI runs this file in release"
)]
fn the_slow_ci_store_gates_keep_their_outputs() {
    check(CI_SLOW);
}

#[test]
fn every_command_keeps_its_output_at_small_sizes() {
    check(SMALL);
}

#[test]
fn every_ci_invocation_is_pinned() {
    // The arguments follow `--bin geocast --`, folded over the lines
    // after it that start with an option.
    let ci = include_str!("../../../.github/workflows/ci.yml");
    let mut lines = ci.lines().peekable();
    let mut found = Vec::new();
    while let Some(line) = lines.next() {
        let Some((_, rest)) = line.split_once("--bin geocast -- ") else {
            continue;
        };
        let mut words: Vec<&str> = rest.split_whitespace().collect();
        while let Some(more) = lines.next_if(|l| l.trim_start().starts_with("--")) {
            words.extend(more.split_whitespace());
        }
        found.push(words.join(" "));
    }
    let pinned: Vec<String> = (CI_QUICK.iter().chain(CI_SLOW))
        .map(|(line, _)| line.split_whitespace().collect::<Vec<_>>().join(" "))
        .chain(["figures --panel all".to_owned()])
        .collect();
    for step in &found {
        assert!(
            pinned.contains(step),
            "CI runs `geocast {step}`, not pinned here"
        );
    }
    assert_eq!(
        found.len(),
        pinned.len(),
        "a pinned step left CI: {found:?}"
    );
}

#[test]
fn figures_print_their_panels_in_order() {
    let all = titles("figures --panel all");
    let mut one_by_one = Vec::new();
    for panel in PANELS {
        let panel_titles = titles(&format!("figures --panel {panel}"));
        assert!(!panel_titles.is_empty(), "{panel} printed no title");
        one_by_one.extend(panel_titles);
    }
    assert_eq!(all, one_by_one);
    assert_eq!(titles("figures"), all, "`all` is the default panel");
    let pinned = [
        "## fig1a — overlay degree vs D (N=150, empty-rectangle rule)",
        "## fig1b — multicast-tree root-to-leaf paths vs D (N=150)",
        "## fig1c — overlay degree vs N (D=2, empty-rectangle rule)",
        "## fig1d — stability-tree diameter vs K (N=120)",
        "## fig1e — stability-tree max degree vs K (N=120)",
        "## claims-s2 — §2 claims: N−1 messages, full delivery, degree bound",
        "## claims-s3 — §3 claims on N=120 peers",
        "## ablation-pick — child-pick ablation (N=120, 20 roots/trial)",
        "## baseline-msgs — construction message cost vs flooding (D=2)",
        "## baseline-stability — disconnecting departures per full departure schedule",
        "## repair-cost — what a departure changes of the §2 tree vs full rebuild (D=2)",
        "## churn — incremental churn engine (N0=300, D=2, empty-rectangle rule)",
        "## groups — multi-group session engine (N0=220, D=2, 440 subscriptions, zipf 1.0)",
        "## detection — detection latency & coverage recovery (N=24, 2 groups, loss=0)",
        "## publish — data-plane throughput (N0=220, 32 groups, 440 subscriptions, 30 ticks, churn every 10)",
    ];
    assert_eq!(all, pinned);
}
