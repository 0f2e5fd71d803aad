//! Input generation: everything a run feeds the library is made here, from
//! the seed alone, before any clock starts. The library receives only the
//! generated inputs, never the seed or the workload's name.

use std::time::Instant;

use geocast::geom::gen::uniform_points;
use geocast::geom::{Point, VMAX};
use geocast::overlay::churn::{ChurnEvent, ChurnSchedule};
use geocast::overlay::{PeerId, PeerInfo};
use geocast::sim::workload::{
    zipf_group_sizes, ChurnPattern, GroupOp, GroupWorkload, PublishWorkload,
};

use crate::spec::EngineSpec;

/// Coordinate dimensionality of every workload.
pub const DIM: usize = 2;

/// splitmix64: derives independent sub-seeds (and the `crash_wave` seed
/// list) from the one `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pipeline operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A peer joins at this point.
    Join(Point),
    /// A peer departs.
    Leave(PeerId),
    /// A subscribe/unsubscribe, bound to a peer by the engine.
    Group(GroupOp),
}

impl Op {
    /// `true` for joins and leaves — the ops whose event-to-delivered
    /// latency is sampled.
    #[must_use]
    pub fn is_churn(&self) -> bool {
        !matches!(self, Op::Group(_))
    }
}

/// One tick's payloads as sparse `(group index, payload count)` pairs.
pub type Tick = Vec<(u32, usize)>;

/// The generated inputs of one engine workload.
#[derive(Debug, Clone)]
pub struct EngineInputs {
    /// The initial population, ids in slice order.
    pub peers: Vec<PeerInfo>,
    /// Initial group sizes (Σ = `spec.subscriptions`).
    pub group_sizes: Vec<usize>,
    /// Start state of the member picker `seed_groups_placed` consumes.
    pub placement_state: u64,
    /// Start state of the peer picker `apply_workload_op` consumes.
    pub binding_state: u64,
    /// The op stream: churn events with `group_ops_per_churn` membership
    /// ops after each.
    pub ops: Vec<Op>,
    /// The tick cycle, replayed round-robin.
    pub ticks: Vec<Tick>,
    /// Wall time generation took (reported to show it is outside the
    /// measurement).
    pub gen_s: f64,
}

impl EngineInputs {
    /// Generates the inputs of `spec` from `seed`. Two workloads with the
    /// same population, schedule and tick fields (`churn_k1`/`churn_k16`)
    /// get byte-identical inputs: the shard count is not an input here.
    #[must_use]
    pub fn generate(spec: &EngineSpec, seed: u64) -> EngineInputs {
        let started = Instant::now();
        let mut derive = seed;
        let points_seed = splitmix(&mut derive);
        let churn_seed = splitmix(&mut derive);
        let group_seed = splitmix(&mut derive);
        let tick_seed = splitmix(&mut derive);
        let placement_state = splitmix(&mut derive);
        let binding_state = splitmix(&mut derive);

        let peers = PeerInfo::from_point_set(&uniform_points(spec.peers, DIM, VMAX, points_seed));
        let group_sizes = zipf_group_sizes(spec.groups, spec.subscriptions, spec.size_exponent);

        let schedule = ChurnSchedule::from_pattern(
            spec.peers,
            &ChurnPattern::Mixed {
                events: spec.churn_events,
                join_rate: 1,
                leave_rate: 1,
            },
            DIM,
            VMAX,
            churn_seed,
        );
        let group_ops = GroupWorkload {
            groups: spec.groups,
            exponent: spec.size_exponent,
            events: spec.churn_events * spec.group_ops_per_churn,
            subscribe_weight: 1,
            unsubscribe_weight: 1,
            publish_weight: 0,
        }
        .ops(group_seed);
        let mut group_ops = group_ops.into_iter();
        let mut ops = Vec::with_capacity(schedule.len() * (1 + spec.group_ops_per_churn));
        for event in schedule.events() {
            ops.push(match event {
                ChurnEvent::Join(p) => Op::Join(p.clone()),
                ChurnEvent::Leave(id) => Op::Leave(*id),
            });
            ops.extend(
                group_ops
                    .by_ref()
                    .take(spec.group_ops_per_churn)
                    .map(Op::Group),
            );
        }

        // `tick_payloads` rebuilds its Zipf CDF on every call, so the cycle
        // is drawn once here and replayed as sparse lists.
        let publish = PublishWorkload {
            groups: spec.groups,
            exponent: spec.publish_exponent,
            ticks: spec.tick_cycle,
            payloads_per_tick: spec.payloads_per_tick,
        };
        let ticks = (0..spec.tick_cycle)
            .map(|t| {
                publish
                    .tick_payloads(tick_seed, t)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, count)| count > 0)
                    .map(|(g, count)| (u32::try_from(g).expect("group index fits u32"), count))
                    .collect()
            })
            .collect();

        EngineInputs {
            peers,
            group_sizes,
            placement_state,
            binding_state,
            ops,
            ticks,
            gen_s: started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn small(mut spec: EngineSpec) -> EngineSpec {
        spec.peers = 200;
        spec.churn_events = 40;
        spec.groups = spec.groups.min(8);
        spec.subscriptions = 40;
        spec.tick_cycle = 8;
        spec
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = small(Workload::GroupsScattered.engine_spec().unwrap());
        let a = EngineInputs::generate(&spec, 5);
        let b = EngineInputs::generate(&spec, 5);
        let c = EngineInputs::generate(&spec, 6);
        assert_eq!(a.peers, b.peers);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.placement_state, b.placement_state);
        assert_ne!(a.peers, c.peers);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn shard_count_is_not_an_input() {
        let k1 = small(Workload::ChurnK1.engine_spec().unwrap());
        let k16 = small(Workload::ChurnK16.engine_spec().unwrap());
        let a = EngineInputs::generate(&k1, 9);
        let b = EngineInputs::generate(&k16, 9);
        assert_eq!(a.peers, b.peers);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.group_sizes, b.group_sizes);
    }

    #[test]
    fn op_stream_interleaves_membership_ops_after_each_churn_event() {
        let spec = small(Workload::GroupsScattered.engine_spec().unwrap());
        let inputs = EngineInputs::generate(&spec, 1);
        let stride = 1 + spec.group_ops_per_churn;
        assert_eq!(inputs.ops.len() % stride, 0);
        for (i, op) in inputs.ops.iter().enumerate() {
            assert_eq!(op.is_churn(), i % stride == 0, "op {i}");
        }
        assert_eq!(inputs.group_sizes.iter().sum::<usize>(), spec.subscriptions);
        for tick in &inputs.ticks {
            assert_eq!(
                tick.iter().map(|&(_, c)| c).sum::<usize>(),
                spec.payloads_per_tick
            );
        }
    }
}
