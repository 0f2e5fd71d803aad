//! Churn walkthrough on the *live* protocol stack: peers join and leave
//! a running gossip overlay (no oracle shortcuts), and after every
//! membership event the overlay is checked to have converged to the
//! survivors' equilibrium — held in a store that takes the same events —
//! and the §2 construction is re-run over it to measure delivery.
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast::overlay::churn::{ChurnEvent, ChurnSchedule};
use geocast::overlay::gossip::GossipConfig;
use geocast::prelude::*;

fn main() {
    let initial = 16usize;
    let config = NetworkConfig {
        gossip: GossipConfig {
            br: 8,
            ..GossipConfig::default()
        },
        seed: 11,
        stable_checks: 4,
        ..NetworkConfig::default()
    };
    let mut net = OverlayNetwork::new(Arc::new(EmptyRectSelection), config);
    let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));

    println!("bootstrapping {initial} peers one at a time (converging after each)...");
    for p in uniform_points(initial, 2, 1000.0, 5).into_points() {
        store.insert(p.clone());
        net.add_peer(p);
        assert!(net.converge().converged);
    }

    let schedule = ChurnSchedule::random(initial, 6, 6, 2, 1000.0, 33);
    println!(
        "replaying churn: {} events ({} joins, {} leaves)\n",
        schedule.len(),
        schedule
            .events()
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count(),
        schedule
            .events()
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Leave(_)))
            .count(),
    );

    println!(
        "{:<8} {:<22} {:>6} {:>10} {:>10}",
        "event", "kind", "live", "messages", "covered"
    );
    for (i, event) in schedule.events().iter().enumerate() {
        match event {
            ChurnEvent::Join(p) => {
                assert_eq!(store.insert(p.clone()), net.add_peer(p.clone()));
            }
            ChurnEvent::Leave(id) => {
                store.remove(*id);
                net.remove_peer(*id);
            }
        }
        assert!(net.converge().converged, "event {i} failed to re-converge");
        assert_eq!(
            net.topology(),
            store.graph(),
            "event {i}: the gossip settled off the equilibrium"
        );

        // Rebuild the dissemination tree from the oldest live peer.
        let live: BTreeSet<usize> = (0..net.len())
            .filter(|&j| !net.has_departed(PeerId(j as u64)))
            .collect();
        let root = *live.first().expect("a live peer");
        let median = OrthantRectPartitioner::median();
        let result = build_group_tree_on_store(&store, root, &live, &median);
        let covered = live.iter().filter(|&&j| result.tree.is_reached(j)).count();
        println!(
            "{:<8} {:<22} {:>6} {:>10} {:>9}/{}",
            i,
            match event {
                ChurnEvent::Join(_) => "join".to_owned(),
                ChurnEvent::Leave(id) => format!("leave {id}"),
            },
            live.len(),
            result.messages,
            covered,
            live.len(),
        );
        assert_eq!(covered, live.len(), "event {i}: live peer missed");
        assert_eq!(result.messages, live.len() - 1, "event {i}: message count");
    }

    println!(
        "\nafter churn: {} total gossip messages, overlay still at the oracle equilibrium \
         of the survivors",
        net.counters().sent_with_tag("announce")
    );
}
